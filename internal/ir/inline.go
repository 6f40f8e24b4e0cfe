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

// inlinedItems is the subprogram's contribution to the merged module's
// body: its items renamed, param decls dropped (substituted). The root's
// are renamed item by item as it is split, out of the previous root's
// (splitMemo). Any other's depend on the subprogram alone, so they are
// computed the first time it is inlined and kept on it — a subprogram
// BuildFrom hands out again is not renamed again — and never modified.
func (sub *SubProgram) inlinedItems() []verilog.Item {
	if sub.memo != nil {
		return sub.memo.inlinedItems()
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
	return sub.inlined
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
// inlinedItems it is made once — the root's as it is split, out of the
// previous root's — so that the merged module's elaboration relocates it.
func (sub *SubProgram) portDecl(i int) *verilog.NetDecl {
	if sub.decls == nil {
		sub.decls = make([]*verilog.NetDecl, len(sub.Module.Ports))
	}
	if sub.decls[i] == nil {
		sub.decls[i] = declOf(sub.inlinedPort(i))
	}
	return sub.decls[i]
}

// declOf declares what p declares, as a module item.
func declOf(p *verilog.Port) *verilog.NetDecl {
	return &verilog.NetDecl{
		DeclPos: p.PortPos,
		Kind:    p.Kind,
		Range:   p.Range,
		Names:   []*verilog.DeclName{{NamePos: p.PortPos, Name: p.Name, Init: p.Init}},
	}
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

	byPath := make(map[string]*SubProgram, len(d.Subs))
	for _, s := range d.Subs {
		byPath[s.Path] = s
	}

	// Classify wires. A user-side endpoint renames to prefix+port.
	renameEnd := func(e Endpoint) Endpoint {
		return Endpoint{Sub: RootPath, Port: byPath[e.Sub].prefix + e.Port}
	}
	// stdFacing marks merged names that keep port status, with direction.
	stdFacing := map[string]verilog.PortDir{}
	var newWires []Wire
	for _, w := range d.Wires {
		from, to := byPath[w.From.Sub], byPath[w.To.Sub]
		switch {
		case from.IsStd && to.IsStd:
			newWires = append(newWires, w)
		case from.IsStd:
			nt := renameEnd(w.To)
			stdFacing[nt.Port] = verilog.Input
			newWires = append(newWires, Wire{From: w.From, To: nt})
		case to.IsStd:
			nf := renameEnd(w.From)
			stdFacing[nf.Port] = verilog.Output
			newWires = append(newWires, Wire{From: nf, To: w.To})
		default:
			// user-to-user: both endpoints collapse onto one variable.
			if !samePrefixed(from.prefix, w.From.Port, to.prefix, w.To.Port) {
				nf, nt := renameEnd(w.From), renameEnd(w.To)
				return nil, errf(verilog.Pos{}, "internal: inlined wire endpoints disagree: %s vs %s", nf.Port, nt.Port)
			}
		}
	}

	items := make([][]verilog.Item, len(users))
	n, ports := 0, 0
	for i, sub := range users {
		items[i] = sub.inlinedItems()
		n += len(items[i])
		ports += len(sub.Module.Ports)
	}
	merged := &verilog.Module{Name: RootPath, Items: make([]verilog.Item, 0, n+ports)}

	// Track declarations for former ports: name -> chosen port decl.
	type exPort struct {
		sub *SubProgram
		i   int // port index
	}
	exPorts := make(map[string]int, ports) // index into exPortOrder
	var exPortOrder []exPort

	for k, sub := range users {
		merged.Items = append(merged.Items, items[k]...)
		// Ports become either merged-module ports (stdlib-facing) or
		// internal declarations.
		for i, p := range sub.Module.Ports {
			name := sub.portName(i)
			if j, dup := exPorts[name]; dup {
				// Both sides of an internal wire declared it; prefer the
				// driver's (reg beats wire: the reg side holds state).
				if p.Kind == verilog.Reg {
					exPortOrder[j] = exPort{sub, i}
				}
				continue
			}
			exPorts[name] = len(exPortOrder)
			exPortOrder = append(exPortOrder, exPort{sub, i})
		}
	}

	// Emit ports and declarations.
	for _, xp := range exPortOrder {
		if dir, keep := stdFacing[xp.sub.portName(xp.i)]; keep {
			pd := xp.sub.inlinedPort(xp.i)
			if pd.Dir != dir {
				cp := *pd
				cp.Dir = dir
				pd = &cp
			}
			merged.Ports = append(merged.Ports, pd)
			continue
		}
		// Former cross-module port, now an internal variable.
		merged.Items = append(merged.Items, xp.sub.portDecl(xp.i))
	}

	out := &Design{Wires: newWires}
	out.Subs = append(out.Subs, &SubProgram{
		Path:   RootPath,
		Params: map[string]*bits.Vector{},
		Module: merged,
		env:    map[string]*bits.Vector{},
	})
	for _, s := range d.StdSubs() {
		out.Subs = append(out.Subs, s)
	}
	sort.SliceStable(out.Wires, func(i, j int) bool {
		if out.Wires[i].From.Sub != out.Wires[j].From.Sub {
			return out.Wires[i].From.Sub < out.Wires[j].From.Sub
		}
		return out.Wires[i].From.Port < out.Wires[j].From.Port
	})
	return out.seal(), nil
}

// samePrefixed reports whether pa+a == pb+b, without building either.
func samePrefixed(pa, a, pb, b string) bool {
	if len(pa)+len(a) != len(pb)+len(b) {
		return false
	}
	if len(pa) > len(pb) {
		pa, a, pb, b = pb, b, pa, a
	}
	// pa is the shorter prefix: pb = pa + pb[len(pa):], and a must be
	// pb[len(pa):] + b.
	return strings.HasPrefix(pb, pa) && strings.HasPrefix(a, pb[len(pa):]) && a[len(pb)-len(pa):] == b
}
