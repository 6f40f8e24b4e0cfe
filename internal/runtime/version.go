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
// changes — is rebuilt, re-inlined and re-elaborated every time. It is
// pure — base is only read, nothing of the runtime is read or touched —
// so a fragment it refuses leaves no trace anywhere.
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
	kept := map[*ir.SubProgram]*elab.Flat{}
	if base.flat != nil {
		for _, s := range base.flat.UserSubs() {
			kept[s] = base.flatElabs[s.Path]
		}
	}
	if v.flatElabs, err = elaborateUsers(flat, kept); err != nil {
		return nil, err
	}
	v.execElabs = v.flatElabs
	if inline {
		if v.exec, err = ir.Inline(flat); err != nil {
			return nil, err
		}
		// Inlined names can meet — a.x becomes a__x (ir.PrefixOf), which the
		// root may declare too; elaboration names the declaration.
		if v.execElabs, err = elaborateUsers(v.exec, nil); err != nil {
			return nil, fmt.Errorf("inlining: %w", err)
		}
		v.inlined = true
	}
	v.clockVar = clockInput(v.exec)
	return v, nil
}

// elaborateUsers elaborates every user subprogram of d, by path, but for
// those kept holds an elaboration of already.
func elaborateUsers(d *ir.Design, kept map[*ir.SubProgram]*elab.Flat) (map[string]*elab.Flat, error) {
	out := map[string]*elab.Flat{}
	for _, s := range d.UserSubs() {
		f := kept[s]
		if f == nil {
			var err error
			if f, err = elab.Elaborate(s.Module, s.Path, s.Params); err != nil {
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
// subprogram, each variable found under its inlined name (ir.PrefixOf, the
// renaming rule inlining itself uses).
func (v *version) split(merged *sim.State) map[string]*sim.State {
	out := map[string]*sim.State{}
	for path, f := range v.flatElabs {
		prefix := ir.PrefixOf(path)
		st := &sim.State{Scalars: map[string]*bits.Vector{}, Arrays: map[string][]*bits.Vector{}}
		for _, fv := range f.Vars {
			if fv.IsArray() {
				if ws, ok := merged.Arrays[prefix+fv.Name]; ok {
					st.Arrays[fv.Name] = ws
				}
			} else if val, ok := merged.Scalars[prefix+fv.Name]; ok {
				st.Scalars[fv.Name] = val
			}
		}
		out[path] = st
	}
	return out
}

// seed is the state a new engine for exec subprogram path starts from,
// given states saved by flat path: its own, or — for the merged root —
// every saved state under its inlined names. On a restore saved holds the
// stdlib components too, so the clock's val lands on the root's clk__val
// input and the restored engine sees no edge the snapshot did not hold.
func (v *version) seed(saved map[string]*sim.State, path string) *sim.State {
	if !v.inlined {
		return saved[path]
	}
	merged := &sim.State{Scalars: map[string]*bits.Vector{}, Arrays: map[string][]*bits.Vector{}}
	for p, st := range saved {
		prefix := ir.PrefixOf(p)
		for name, val := range st.Scalars {
			merged.Scalars[prefix+name] = val
		}
		for name, ws := range st.Arrays {
			merged.Arrays[prefix+name] = ws
		}
	}
	return merged
}
