package runtime

import (
	"fmt"
	"strings"
	"sync"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/ir"
	"cascade/internal/sim"
	"cascade/internal/stdlib"
	"cascade/internal/verilog"
)

// version is one version of the user's program: everything the front end
// derives from the accumulated source, built whole by integrate and never
// modified afterwards. A runtime executes one version at a time
// (Runtime.ver); Eval, Restore, journal replay and checkpoint recovery
// all integrate a candidate and then install it, so whatever can reject
// source has run before anything is committed.
type version struct {
	prog  *ir.Program       // the accumulated source
	mods  []*verilog.Module // the fragment this version added to its base,
	items []verilog.Item    // which Eval lints and traces

	// flat has one subprogram per module instance: saved states and
	// snapshots are keyed by its paths. exec is the design that executes —
	// flat itself, or (inlined) the §4.2 merge of its user subprograms into
	// one root — and is nil only in the empty version of a fresh runtime.
	// Each comes with the elaboration of its user subprograms, by path.
	flat, exec           *ir.Design
	flatElabs, execElabs map[string]*elab.Flat
	inlined              bool
	clockVar             string // exec's root input fed by the stdlib clock ("" if none)

	printed *printed // the program's source, printed when first asked for
}

type printed struct {
	once sync.Once
	src  string
}

// source renders the version's program as Verilog: module declarations in
// the outer scope followed by the root module's items. It is printed once
// per version, so checkpoints and saves cost the program's state, not
// its text.
func (v *version) source() string {
	v.printed.once.Do(func() {
		var sb strings.Builder
		for _, name := range v.prog.ModuleNames() {
			sb.WriteString(verilog.Print(v.prog.Modules[name]))
			sb.WriteString("\n")
		}
		if len(v.prog.RootItems) > 0 {
			sb.WriteString("// root module items\n")
			for _, it := range v.prog.RootItems {
				sb.WriteString(verilog.Print(it))
				sb.WriteString("\n")
			}
		}
		v.printed.src = sb.String()
	})
	return v.printed.src
}

// emptyVersion is the version of a fresh runtime, and the base of a
// restore or a replay: no source yet.
func emptyVersion() *version { return &version{prog: ir.NewProgram(), printed: &printed{}} }

// integrate runs the whole front end over base extended by src: parse,
// declare, build the IR, elaborate (type-check) every subprogram and,
// with inline set, merge the user logic and elaborate the merged root.
// The base version is its memo: a module instance the fragment left as it
// was (ir.BuildFrom says which) keeps base's subprogram, and with it
// base's elaboration and inline renaming of it; the root — what an edit
// changes — is split, inlined and elaborated again, out of what base
// derived from each of its items (ir.BuildFrom's memo, elab.ElaborateFrom
// over base's flat and merged roots). It is pure — base is only read,
// nothing of the runtime is read or touched — so a fragment it refuses
// leaves no trace anywhere.
func integrate(base *version, src string, inline bool) (*version, error) {
	mods, items, errs := verilog.ParseProgramFragment(src)
	if len(errs) > 0 {
		return nil, fmt.Errorf("parse: %v", errs[0])
	}
	prog := base.prog.Clone()
	for _, m := range mods {
		if err := prog.DeclareModule(m); err != nil {
			return nil, err
		}
	}
	prog.AddRootItems(items...)
	flat, err := ir.BuildFrom(base.flat, prog, stdlib.Registry())
	if err != nil {
		return nil, err
	}
	v := &version{prog: prog, mods: mods, items: items, flat: flat, exec: flat, printed: &printed{}}
	if v.flatElabs, err = elaborateUsers(flat, base.flat, base.flatElabs); err != nil {
		return nil, err
	}
	v.execElabs = v.flatElabs
	if inline {
		if v.exec, err = ir.Inline(flat); err != nil {
			return nil, err
		}
		var from map[string]*elab.Flat
		if base.inlined {
			from = base.execElabs
		}
		// Inlined names can meet — a.x becomes a__x (ir.PrefixOf), which the
		// root may declare too; elaboration names the declaration.
		if v.execElabs, err = elaborateUsers(v.exec, nil, from); err != nil {
			return nil, fmt.Errorf("inlining: %w", err)
		}
		v.inlined = true
	}
	v.clockVar = clockInput(v.exec)
	return v, nil
}

// elaborateUsers elaborates every user subprogram of d, by path, given
// the elaborations of the base design prev (nil: none): a subprogram
// prev holds too — ir.BuildFrom kept it — keeps its elaboration, and one
// at a path base elaborated is elaborated from that (elab.ElaborateFrom).
func elaborateUsers(d, prev *ir.Design, base map[string]*elab.Flat) (map[string]*elab.Flat, error) {
	users := d.UserSubs()
	var kept map[*ir.SubProgram]bool
	if prev != nil {
		kept = make(map[*ir.SubProgram]bool, len(prev.Subs))
		for _, s := range prev.Subs {
			kept[s] = true
		}
	}
	out := make(map[string]*elab.Flat, len(users))
	for _, s := range users {
		f := base[s.Path]
		if !kept[s] {
			var err error
			if f, err = elab.ElaborateFrom(f, s.Module, s.Path, s.Params); err != nil {
				return nil, err
			}
		}
		out[s.Path] = f
	}
	return out, nil
}

// clockInput finds the root input fed by d's first stdlib Clock: the
// variable an open-loop burst toggles.
func clockInput(d *ir.Design) string {
	for _, s := range d.Subs {
		if s.StdType == "Clock" {
			for _, w := range d.Wires {
				if w.From.Sub == s.Path && w.From.Port == "val" && w.To.Sub == ir.RootPath {
					return w.To.Port
				}
			}
			break
		}
	}
	return ""
}

// ElaborateInlined runs the front end over a whole program and returns
// the elaboration of its inlined root — the design the toolchain compiles
// (internal/bench's baselines compile it without running it).
func ElaborateInlined(src string) (*elab.Flat, error) {
	v, err := integrate(emptyVersion(), src, true)
	if err != nil {
		return nil, err
	}
	return v.execElabs[ir.RootPath], nil
}

// split un-inlines the merged root's state into one state per flat
// subprogram, each variable found under its inlined name
// (ir.SubProgram.MergedNames, the renaming inlining itself applies).
func (v *version) split(merged *sim.State) map[string]*sim.State {
	users := v.flat.UserSubs()
	out := make(map[string]*sim.State, len(users))
	for _, s := range users {
		f, names := v.flatElabs[s.Path], s.MergedNames()
		st := &sim.State{Scalars: make(map[string]*bits.Vector, len(f.Vars)), Arrays: map[string][]*bits.Vector{}}
		for i, fv := range f.Vars {
			name := fv.Name
			if names != nil {
				name = names[i]
			}
			if fv.IsArray() {
				if ws, ok := merged.Arrays[name]; ok {
					st.Arrays[fv.Name] = ws
				}
			} else if val, ok := merged.Scalars[name]; ok {
				st.Scalars[fv.Name] = val
			}
		}
		out[s.Path] = st
	}
	return out
}

// seed is the state a new engine for exec subprogram path starts from,
// given states saved by flat path: its own, or — for the merged root —
// every saved state of a subprogram of the design under its inlined
// names. On a restore saved holds the stdlib components too, so the
// clock's val lands on the root's clk__val input and the restored engine
// sees no edge the snapshot did not hold.
func (v *version) seed(saved map[string]*sim.State, path string) *sim.State {
	if !v.inlined {
		return saved[path]
	}
	n := 0
	for _, st := range saved {
		n += len(st.Scalars)
	}
	merged := &sim.State{Scalars: make(map[string]*bits.Vector, n), Arrays: map[string][]*bits.Vector{}}
	for _, s := range v.flat.Subs {
		st := saved[s.Path]
		if st == nil {
			continue
		}
		if s.IsStd {
			prefix := ir.PrefixOf(s.Path)
			for name, val := range st.Scalars {
				merged.Scalars[prefix+name] = val
			}
			for name, ws := range st.Arrays {
				merged.Arrays[prefix+name] = ws
			}
			continue
		}
		names := s.MergedNames()
		for i, fv := range v.flatElabs[s.Path].Vars {
			name := fv.Name
			if names != nil {
				name = names[i]
			}
			if fv.IsArray() {
				if ws, ok := st.Arrays[fv.Name]; ok {
					merged.Arrays[name] = ws
				}
			} else if val, ok := st.Scalars[fv.Name]; ok {
				merged.Scalars[name] = val
			}
		}
	}
	return merged
}
