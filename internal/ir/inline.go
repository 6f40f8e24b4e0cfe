package ir

import (
	"sort"
	"strings"

	"cascade/internal/bits"
	"cascade/internal/verilog"
)

// PrefixOf gives the inline renaming rule: a variable v of subprogram
// "main.a.b" becomes "a__b__v" in the merged module. The runtime uses
// the same rule to map engine state across the inline boundary.
func PrefixOf(path string) string {
	if path == RootPath {
		return ""
	}
	rel := strings.TrimPrefix(path, RootPath+".")
	return strings.ReplaceAll(rel, ".", "__") + "__"
}

// renamer is the rewriting Inline applies to a subprogram's expressions:
// parameters substituted as constants, every name prefixed per PrefixOf.
func (sub *SubProgram) renamer() exprRewriter {
	prefix := sub.prefix
	return substParams(sub.env, func(e verilog.Expr) verilog.Expr {
		if id, ok := e.(*verilog.Ident); ok && prefix != "" {
			return &verilog.Ident{IdentPos: id.IdentPos, Name: prefix + id.Name}
		}
		return e
	})
}

// eachInlined calls fn with each item the subprogram adds to the merged
// module, in order: its items renamed, param decls dropped (substituted).
// The root's are renamed item by item as it is split, out of the previous
// root's (splitMemo); any other's when it is first inlined, kept on it —
// a subprogram BuildFrom hands out again is not renamed again — and never
// modified.
func (sub *SubProgram) eachInlined(fn func(verilog.Item)) {
	if sub.memo != nil {
		sub.memo.eachInlined(fn)
		return
	}
	if sub.inlined == nil {
		rename := sub.renamer()
		sub.inlined = []verilog.Item{}
		for _, it := range sub.Module.Items {
			if _, isParam := it.(*verilog.ParamDecl); !isParam {
				sub.inlined = append(sub.inlined, rewriteItem(it, rename))
			}
		}
	}
	for _, it := range sub.inlined {
		fn(it)
	}
}

// inlinedPort is the subprogram's i-th port renamed: the port itself if
// renaming leaves it alone (the root's, mostly).
func (sub *SubProgram) inlinedPort(i int) *verilog.Port {
	p := sub.Module.Ports[i]
	if sub.prefix == "" && len(sub.env) == 0 {
		return p
	}
	rename := sub.renamer()
	if rng, init := rewriteRange(p.Range, rename), rewriteExpr(p.Init, rename); sub.prefix != "" || rng != p.Range || init != p.Init {
		return &verilog.Port{PortPos: p.PortPos, Dir: p.Dir, Kind: p.Kind, Range: rng, Name: sub.portName(i), Init: init}
	}
	return p
}

// portDecl is the declaration the subprogram's i-th port becomes in the
// merged module when user logic is on both of its ends. Like
// eachInlined's items it is made once, so that the merged module's
// elaboration relocates it.
func (sub *SubProgram) portDecl(i int) *verilog.NetDecl {
	if sub.decls == nil {
		sub.decls = make([]*verilog.NetDecl, len(sub.Module.Ports))
	}
	if sub.decls[i] == nil {
		p := sub.inlinedPort(i)
		sub.decls[i] = &verilog.NetDecl{DeclPos: p.PortPos, Kind: p.Kind, Range: p.Range,
			Names: []*verilog.DeclName{{NamePos: p.PortPos, Name: p.Name, Init: p.Init}}}
	}
	return sub.decls[i]
}

// Inline merges every user subprogram into a single flat module rooted at
// RootPath (paper §4.2). Parameters are substituted as constants, child
// variables are renamed per PrefixOf, and the wires between user
// subprograms become shared variables. Only standard-library components
// remain as separate peers; the returned design's wires connect them to
// the merged subprogram.
//
// Verilog does not allow dynamic allocation of modules, so inlining is
// tractable, sound, and complete.
func Inline(d *Design) (*Design, error) {
	users := d.UserSubs()
	if len(users) == 0 {
		return d, nil
	}
	std := map[string]bool{}
	for _, s := range d.StdSubs() {
		std[s.Path] = true
	}
	// A wire to a stdlib component keeps its user end as a port of the
	// merged module (stdFacing), of the direction split gave it. The two
	// ends of a wire between user subprograms collapse onto one variable:
	// an instance declares it (inliner.ports), and a name its parent's end
	// does not share would be undeclared where the parent uses it.
	stdFacing := map[string]bool{}
	var newWires []Wire
	for _, w := range d.Wires {
		switch {
		case std[w.From.Sub] && std[w.To.Sub]:
		case std[w.From.Sub]:
			w.To = Endpoint{Sub: RootPath, Port: PrefixOf(w.To.Sub) + w.To.Port}
			stdFacing[w.To.Port] = true
		case std[w.To.Sub]:
			w.From = Endpoint{Sub: RootPath, Port: PrefixOf(w.From.Sub) + w.From.Port}
			stdFacing[w.From.Port] = true
		default:
			continue
		}
		newWires = append(newWires, w)
	}

	n := 0 // at most the merged module's items: each subprogram's, and its ports but those promoted for its instances
	for _, sub := range users {
		n += len(sub.Module.Items) + len(sub.Module.Ports) - (sub.promoted[1] - sub.promoted[0])
	}
	merged := &verilog.Module{Name: RootPath, Items: make([]verilog.Item, 0, n)}
	in := inliner{subs: d.Subs, next: 1, std: stdFacing, regs: map[string]*verilog.NetDecl{}, merged: merged} // past the root, Subs[0]
	in.walk(users[0])
	// Then the behaviour, in design order.
	for _, sub := range users {
		sub.eachInlined(func(it verilog.Item) {
			if _, decl := it.(*verilog.NetDecl); !decl {
				merged.Items = append(merged.Items, it)
			}
		})
	}

	out := &Design{Wires: newWires}
	out.Subs = append(out.Subs, &SubProgram{
		Path:   RootPath,
		Params: map[string]*bits.Vector{},
		Module: merged,
		env:    map[string]*bits.Vector{},
	})
	out.Subs = append(out.Subs, d.StdSubs()...)
	sort.SliceStable(out.Wires, func(i, j int) bool {
		if out.Wires[i].From.Sub != out.Wires[j].From.Sub {
			return out.Wires[i].From.Sub < out.Wires[j].From.Sub
		}
		return out.Wires[i].From.Port < out.Wires[j].From.Port
	})
	return out.seal(), nil
}

// inliner lays out the merged module's declarations in source order, each
// instance's where the instance is in its parent — its ports but those it
// promoted for its own instances, then its declarations with each of its
// instances' in its place — so that an eval, which appends to the root,
// appends to them too (elab.ElaborateFrom shares what comes before).
type inliner struct {
	subs   []*SubProgram // the design's, in order: a subprogram, then those below it
	next   int           // the next of subs to walk
	std    map[string]bool
	regs   map[string]*verilog.NetDecl // a reg a parent promoted for an instance's input, by merged name
	merged *verilog.Module
}

// walk lays out the variables of s and of every subprogram below it.
func (in *inliner) walk(s *SubProgram) {
	in.ports(s)
	k, nd := 0, int32(0)
	s.eachInlined(func(it verilog.Item) {
		d, ok := it.(*verilog.NetDecl)
		if !ok {
			return
		}
		for ; k < len(s.kids) && s.kids[k] == nd; k++ {
			in.child()
		}
		in.merged.Items = append(in.merged.Items, d)
		nd++
	})
	for ; k < len(s.kids); k++ {
		in.child()
	}
}

// child walks the next instance: a standard-library component has no
// variables here.
func (in *inliner) child() {
	c := in.subs[in.next]
	in.next++
	if !c.IsStd {
		in.walk(c)
	}
}

// ports adds s's ports: stdlib-facing ones stay ports of the merged
// module, the rest become declarations. A port s promoted for an instance
// and the instance's port it is wired to collapse onto one variable,
// declared where the instance is, as the reg side declares it (the reg
// holds state) or else as the instance does.
func (in *inliner) ports(s *SubProgram) {
	for i, p := range s.Module.Ports {
		switch name := s.portName(i); {
		case in.std[name]:
			in.merged.Ports = append(in.merged.Ports, s.inlinedPort(i))
		case i >= s.promoted[0] && i < s.promoted[1]:
			if p.Kind == verilog.Reg {
				in.regs[name] = s.portDecl(i)
			}
		case p.Kind != verilog.Reg && in.regs[name] != nil:
			in.merged.Items = append(in.merged.Items, in.regs[name])
		default:
			in.merged.Items = append(in.merged.Items, s.portDecl(i))
		}
	}
}
