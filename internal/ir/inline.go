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
	prefix := PrefixOf(sub.Path)
	return substParams(sub.env, func(e verilog.Expr) verilog.Expr {
		if id, ok := e.(*verilog.Ident); ok && prefix != "" {
			return &verilog.Ident{IdentPos: id.IdentPos, Name: prefix + id.Name}
		}
		return e
	})
}

// inlinedItems is the subprogram's contribution to the merged module's
// body: its items renamed, param decls dropped (substituted). It depends
// on the subprogram alone, so it is computed the first time the
// subprogram is inlined and kept on it — a subprogram BuildFrom hands out
// again is not renamed again — and never modified.
func (sub *SubProgram) inlinedItems() []verilog.Item {
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

	isStdPath := map[string]bool{}
	for _, s := range d.StdSubs() {
		isStdPath[s.Path] = true
	}

	// Classify wires. A user-side endpoint renames to prefix+port.
	renameEnd := func(e Endpoint) Endpoint {
		if isStdPath[e.Sub] {
			return e
		}
		return Endpoint{Sub: RootPath, Port: PrefixOf(e.Sub) + e.Port}
	}
	// stdFacing marks merged names that keep port status, with direction.
	type facing struct {
		dir verilog.PortDir
	}
	stdFacing := map[string]facing{}
	var newWires []Wire
	for _, w := range d.Wires {
		fromStd, toStd := isStdPath[w.From.Sub], isStdPath[w.To.Sub]
		nf, nt := renameEnd(w.From), renameEnd(w.To)
		switch {
		case fromStd && toStd:
			newWires = append(newWires, Wire{From: nf, To: nt})
		case fromStd:
			stdFacing[nt.Port] = facing{dir: verilog.Input}
			newWires = append(newWires, Wire{From: nf, To: nt})
		case toStd:
			stdFacing[nf.Port] = facing{dir: verilog.Output}
			newWires = append(newWires, Wire{From: nf, To: nt})
		default:
			// user-to-user: both endpoints collapse onto one variable.
			if nf.Port != nt.Port {
				return nil, errf(verilog.Pos{}, "internal: inlined wire endpoints disagree: %s vs %s", nf.Port, nt.Port)
			}
		}
	}

	merged := &verilog.Module{Name: RootPath}

	// Track declarations for former ports: name -> chosen port decl.
	type portDecl struct {
		port *verilog.Port
	}
	exPorts := map[string]*portDecl{}
	var exPortOrder []string

	for _, sub := range users {
		merged.Items = append(merged.Items, sub.inlinedItems()...)
		// Ports become either merged-module ports (stdlib-facing) or
		// internal declarations.
		prefix, rename := PrefixOf(sub.Path), sub.renamer()
		for _, p := range sub.Module.Ports {
			name := prefix + p.Name
			np := &verilog.Port{
				PortPos: p.PortPos,
				Dir:     p.Dir,
				Kind:    p.Kind,
				Range:   rewriteRange(p.Range, rename),
				Name:    name,
				Init:    rewriteExpr(p.Init, rename),
			}
			if prev, dup := exPorts[name]; dup {
				// Both sides of an internal wire declared it; prefer the
				// driver's (reg beats wire: the reg side holds state).
				if np.Kind == verilog.Reg {
					prev.port = np
				}
				continue
			}
			exPorts[name] = &portDecl{port: np}
			exPortOrder = append(exPortOrder, name)
		}
	}

	// Emit ports and declarations.
	for _, name := range exPortOrder {
		pd := exPorts[name].port
		if f, keep := stdFacing[name]; keep {
			pd.Dir = f.dir
			merged.Ports = append(merged.Ports, pd)
			continue
		}
		// Former cross-module port, now an internal variable.
		decl := &verilog.NetDecl{
			DeclPos: pd.PortPos,
			Kind:    pd.Kind,
			Range:   pd.Range,
			Names:   []*verilog.DeclName{{NamePos: pd.PortPos, Name: name, Init: pd.Init}},
		}
		merged.Items = append(merged.Items, decl)
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
	return out, nil
}
