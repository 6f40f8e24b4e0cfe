package runtime

import (
	"fmt"
	"strings"
	"sync"

	"cascade/internal/elab"
	"cascade/internal/ir"
	"cascade/internal/lifecycle"
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

	printed *printed    // the program's source, printed when first asked for
	std     *stdLayouts // its stdlib components' state layouts, built when first asked for
}

type printed struct {
	once sync.Once
	src  string
}

type stdLayouts struct {
	once sync.Once
	by   map[string]*elab.Layout // by flat path
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
func emptyVersion() *version {
	return &version{prog: ir.NewProgram(), printed: &printed{}, std: &stdLayouts{}}
}

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
	v := &version{prog: prog, mods: mods, items: items, flat: flat, exec: flat, printed: &printed{}, std: &stdLayouts{}}
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

// State images meet names only here, where a version changes: plans
// (elab.Plan) carry state across by name, and under the inline renaming.

// layoutOf returns the state layout of flat subprogram path (nil: none).
func (v *version) layoutOf(path string) *elab.Layout {
	if f := v.flatElabs[path]; f != nil {
		return f.Layout()
	}
	// A component's layout costs building one (a Memory allocates its
	// words): a version builds each once, when a restore first asks.
	v.std.once.Do(func() {
		v.std.by = map[string]*elab.Layout{}
		for _, s := range v.flat.StdSubs() {
			v.std.by[s.Path] = stdlib.Layout(s.StdType, s.Params)
		}
	})
	return v.std.by[path]
}

// mergePlan plans flat subprogram s's state into the merged root's.
func (v *version) mergePlan(s *ir.SubProgram) *elab.Plan {
	l, root := v.layoutOf(s.Path), v.execElabs[ir.RootPath].Layout()
	if s.IsStd {
		prefix := ir.PrefixOf(s.Path)
		return elab.NewPlan(l, root, func(name string) string { return prefix + name })
	}
	names := s.MergedNames()
	return elab.NewPlan(l, root, func(name string) string {
		if names != nil {
			return names[l.Index(name)]
		}
		return name
	})
}

// split un-inlines the merged root's state into one image per flat user
// subprogram (an empty image into empty ones).
func (v *version) split(merged []uint64) map[string][]uint64 {
	users := v.flat.UserSubs()
	out := make(map[string][]uint64, len(users))
	for _, s := range users {
		img := []uint64{}
		if len(merged) > 0 {
			img = make([]uint64, v.layoutOf(s.Path).Len())
			v.mergePlan(s).Back(img, merged)
		}
		out[s.Path] = img
	}
	return out
}

// seed is what a new engine for exec subprogram path starts from, given
// the images saved before an eval by exec path in the layouts of version
// from (v's base), or a restored snapshot's by flat path (from is v). An
// eval's image is copied onto the new engine's own state by name, billed
// as the words it held; an empty one (a failed hosted read) carries
// nothing. The merged root is always seeded.
func (v *version) seed(saved map[string][]uint64, from *version, path string) lifecycle.Seed {
	img := saved[path]
	switch {
	case from == v && v.inlined:
		return v.mergeSeed(saved)
	case img == nil && v.inlined, len(img) == 0 && img != nil:
		return func([]uint64) uint64 { return 0 }
	case img == nil:
		return nil
	}
	l := from.execElabs[path].Layout()
	p := elab.NewPlan(l, v.execElabs[path].Layout(), nil)
	return func(dst []uint64) uint64 { p.Copy(dst, img); return l.Bus() }
}

// mergeSeed seeds the merged root from a snapshot's images of every
// subprogram of the design, under their inlined names in design order:
// the stdlib components' too, so the clock's val lands on the root's
// clk__val input and the restored engine sees no edge the snapshot did
// not hold. The bill is per merged variable, its last writer's words,
// plus a component's words that name none.
func (v *version) mergeSeed(saved map[string][]uint64) lifecycle.Seed {
	return func(dst []uint64) (bus uint64) {
		bills := make([]uint64, len(v.execElabs[ir.RootPath].Vars))
		for _, s := range v.flat.Subs {
			img := saved[s.Path]
			if len(img) == 0 {
				continue
			}
			p := v.mergePlan(s)
			p.Copy(dst, img)
			var named uint64
			for _, pr := range p.Pairs {
				bills[pr[1]] = p.From.VarBus(int(pr[0]))
				named += bills[pr[1]]
			}
			if c := stdlib.Carried(s.StdType, p.From, img); s.IsStd && c > named {
				bus += c - named
			}
		}
		for _, b := range bills {
			bus += b
		}
		return bus
	}
}
