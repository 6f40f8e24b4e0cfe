package netlist

import (
	"slices"
	"strings"

	"cascade/internal/elab"
	"cascade/internal/sim"
)

// Compile synthesizes f into a netlist program and runs the dead-code
// cleanup pass (see Optimize). It fails on designs that cannot be lowered
// to synchronous hardware: combinational cycles, or variables driven by
// both combinational and sequential logic. Incomplete sensitivity lists
// are accepted and treated as complete, matching what commercial
// synthesis tools do.
func Compile(f *elab.Flat) (*Program, error) { return CompileFrom(nil, f) }

// CompileFrom is Compile for a design that extends the one base was
// synthesized from (nil: none; base must come from Compile or
// CompileFrom). A unit of f with the identity of a unit of base — the
// elaboration relocated it (elab.ElaborateFrom), from base's design or
// through any chain of versions since, so it is the same elaboration on
// variables of the same names and shapes — is relocated out of base
// instead of compiled again; synthesis makes no reuse decision of its
// own. The result is the program Compile(f) returns, field for field.
// base is only read.
func CompileFrom(base *Program, f *elab.Flat) (*Program, error) { return link(base, f, true) }

// CompileRaw synthesizes without the cleanup pass (the optimizer ablation
// and the optimizer's own tests).
func CompileRaw(f *elab.Flat) (*Program, error) { return link(nil, f, false) }

// unit is one unit of a design awaiting its code: a combinational one
// (a continuous assignment or a level-sensitive process), an
// edge-triggered process, or a $monitor of an initial block. Exactly one
// of assign, proc and monitor is set.
type unit struct {
	assign  *elab.ContAssign
	proc    *elab.Proc
	monitor *elab.SysTask
	id      uint64 // its elaboration's identity (0: none, never relocated)
	ord     int32  // which $monitor of its initial block it is

	src  *Program // where its code is: the base, or the scratch compile
	span int      // its span in src
}

// tasks appends u's display tasks to out in the order its code numbers them.
func (u *unit) tasks(out []*elab.SysTask) []*elab.SysTask {
	if u.monitor != nil {
		return append(out, u.monitor)
	}
	if u.proc == nil {
		return out
	}
	return unitTasks(u.proc.Body, out)
}

// unitKey identifies a unit across versions of a design.
type unitKey struct {
	id  uint64
	ord int32
}

// partition lists f's units in synthesis order — combinational (assigns,
// then level-sensitive processes), sequential, monitors — and how many
// of each of the first two kinds there are.
func partition(f *elab.Flat) (units []unit, ncomb, nseq int, err error) {
	units = make([]unit, 0, len(f.Assigns)+len(f.Procs))
	for _, a := range f.Assigns {
		units = append(units, unit{assign: a, id: a.Unit})
	}
	var seqs []unit
	for _, p := range f.Procs {
		if p.Star || hasLevelEdge(p) {
			if hasTrueEdge(p) {
				return nil, 0, 0, errf("process mixes edge and level sensitivity (not synthesizable)")
			}
			units = append(units, unit{proc: p, id: p.Unit})
			continue
		}
		if len(p.Edges) == 0 {
			return nil, 0, 0, errf("always block with empty sensitivity list")
		}
		seqs = append(seqs, unit{proc: p, id: p.Unit})
	}
	ncomb, nseq = len(units), len(seqs)
	units = append(units, seqs...)
	// $monitor registrations from initial blocks become end-of-step
	// display units evaluated by Machine.EndStep.
	for i, st := range f.Initials {
		var ord int32
		elab.WalkStmt(st, func(s elab.Stmt) {
			if t, ok := s.(*elab.SysTask); ok && t.Kind == elab.TaskMonitor {
				units = append(units, unit{monitor: t, id: f.InitialUnits[i], ord: ord})
				ord++
			}
		}, nil)
	}
	return units, ncomb, nseq, nil
}

// linker synthesizes one design: the one loop over units behind Compile,
// CompileFrom and CompileRaw.
type linker struct {
	f       *elab.Flat
	p       *Program // the result
	base    *Program // nil: nothing to relocate from
	scratch *Program // the units compiled here

	keys  map[unitKey]int // base's spans by identity
	vmap  []int           // base variable index -> f's variable of that name (-1: none)
	bslot []int           // base variable slot -> slot of that variable here (-1: none)
	bmem  []int           // base memory -> memory of that variable here (-1: none)
	keep  []bool          // cleanup verdict per scratch instruction (nil: keep all)
	tasks []*elab.SysTask // a relocated unit's tasks (scratch)
}

func link(base *Program, f *elab.Flat, optimize bool) (*Program, error) {
	p := &Program{
		Flat:    f,
		VarSlot: make([]int, len(f.Vars)),
		MemOf:   make([]int, len(f.Vars)),
	}
	// Slot 0..n-1: one slot per scalar variable, then temporaries.
	var varSlots []SlotInfo
	for _, v := range f.Vars {
		if v.IsArray() {
			p.VarSlot[v.Index] = -1
			p.MemOf[v.Index] = len(p.Mems)
			p.Mems = append(p.Mems, MemInfo{Var: v, Words: v.ArrayLen, Width: v.Width, Wide: v.Width > 64})
			continue
		}
		p.MemOf[v.Index] = -1
		p.VarSlot[v.Index] = len(varSlots)
		varSlots = append(varSlots, SlotInfo{Width: v.Width, Wide: v.Width > 64, Var: v})
	}
	units, ncomb, nseq, err := partition(f)
	if err != nil {
		return nil, err
	}
	l := &linker{f: f, p: p}
	if base != nil {
		l.index(base)
	}

	// Each unit's code comes from base when it can, else from a fresh
	// compile into the scratch program.
	fresh := 0
	for i := range units {
		if !l.relocate(&units[i]) {
			fresh++
		}
	}
	// Sized for a typical unit, so the scratch arrays rarely grow.
	l.scratch = &Program{
		Flat: f, VarSlot: p.VarSlot, MemOf: p.MemOf, Mems: p.Mems,
		Code:  make([]Op, 0, opsPerUnit*fresh),
		Slots: append(make([]SlotInfo, 0, len(varSlots)+opsPerUnit*fresh), varSlots...),
		Spans: make([]Span, 0, fresh),
	}
	c := &compiler{prog: l.scratch, mark: make([]int32, 2*len(f.Vars))}
	for i := range units {
		if u := &units[i]; u.src == nil {
			u.src, u.span = l.scratch, len(l.scratch.Spans)
			c.unit(u)
		}
	}
	if optimize {
		l.keep = make([]bool, len(l.scratch.Code))
		liveSlot := make([]bool, len(l.scratch.Slots))
		for i := range varSlots {
			liveSlot[i] = true
		}
		for i := range l.scratch.Spans {
			lo, hi := l.scratch.spanCode(i)
			sweep(l.scratch.Code[lo:hi], liveSlot, l.keep[lo:hi])
		}
	}

	// Every unit's variables, in f's numbering and partition order.
	off := make([]int, len(units)+1)
	var uv []int32
	for i := range units {
		u := &units[i]
		lo, hi := u.src.spanVars(u.span)
		for _, e := range u.src.vars[lo:hi] {
			if u.src == l.base {
				e = int32(l.vmap[e>>1]<<1) | e&1
			}
			uv = append(uv, e)
		}
		off[i+1] = len(uv)
	}
	order, err := levelize(f, uv, off, ncomb, nseq)
	if err != nil {
		return nil, err
	}
	l.emit(units, order, uv, off, ncomb, nseq, varSlots)

	// Reset state: run a reference simulator once (executes initial
	// blocks) and capture the resulting variable values — the FPGA
	// bitstream's initial register contents.
	ref := sim.New(f, sim.Options{})
	ref.Evaluate()
	st := ref.GetState()
	p.ResetState = st.Scalars
	p.ResetMems = st.Arrays
	p.byName = l.byName()
	p.Stats = computeStats(p)
	return p, nil
}

// opsPerUnit is about how many instructions a unit compiles to (8 on the
// benchmark's chained stages, 5–12 on generated modules).
const opsPerUnit = 10

// index prepares relocation from base: its spans by identity, and its
// variables, slots and memories by name in l.f.
func (l *linker) index(base *Program) {
	l.base = base
	l.keys = make(map[unitKey]int, len(base.Spans))
	for i, sp := range base.Spans {
		if sp.Unit != 0 {
			l.keys[unitKey{sp.Unit, sp.Ord}] = i
		}
	}
	l.vmap = make([]int, len(base.Flat.Vars))
	for i, v := range base.Flat.Vars {
		l.vmap[i] = -1
		if j, ok := l.f.VarIndex[v.Name]; ok {
			l.vmap[i] = j
		}
	}
	l.bslot = make([]int, base.varSlots())
	for s := range l.bslot {
		l.bslot[s] = -1
		if j := l.vmap[base.Slots[s].Var.Index]; j >= 0 {
			l.bslot[s] = l.p.VarSlot[j]
		}
	}
	l.bmem = make([]int, len(base.Mems))
	for m, mi := range base.Mems {
		l.bmem[m] = -1
		if j := l.vmap[mi.Var.Index]; j >= 0 {
			l.bmem[m] = l.p.MemOf[j]
		}
	}
}

// relocate points u at its span in the base program if base has a unit
// of its identity (CompileFrom): that unit names the variables u names,
// by name, and they have the same shapes in both designs.
func (l *linker) relocate(u *unit) bool {
	si, ok := l.keys[unitKey{u.id, u.ord}]
	if ok {
		u.src, u.span = l.base, si
	}
	return ok
}

// Unit kinds, in the order their spans are laid out.
const (
	kindComb = iota
	kindSeq
	kindMonitor
)

func kindOf(u *unit) int {
	switch {
	case u.monitor != nil:
		return kindMonitor
	case u.assign != nil || u.proc.Star || hasLevelEdge(u.proc):
		return kindComb
	}
	return kindSeq
}

// unitTasks appends the display tasks of s in the order compileStmt
// numbers them.
func unitTasks(s elab.Stmt, out []*elab.SysTask) []*elab.SysTask {
	switch x := s.(type) {
	case *elab.Block:
		for _, st := range x.Stmts {
			out = unitTasks(st, out)
		}
	case *elab.If:
		out = unitTasks(x.Else, unitTasks(x.Then, out))
	case *elab.Case:
		var deflt *elab.CaseItem
		for _, it := range x.Items {
			if it.Labels == nil {
				deflt = it
				continue
			}
			out = unitTasks(it.Body, out)
		}
		if deflt != nil {
			out = unitTasks(deflt.Body, out)
		}
	case *elab.SysTask:
		if x.Kind != elab.TaskFinish {
			out = append(out, x)
		}
	}
	return out
}

// levelize checks driver classes — no variable may be written by two
// combinational units, or by a combinational unit and a sequential
// process — and orders the combinational units topologically: a unit
// comes after every unit that writes a variable it reads, ties broken by
// partition order; a cycle is a synthesis error (combinational loop).
// uv[off[i]:off[i+1]] are unit i's variables (Span.Vars's encoding). It
// returns the emission order of all units.
func levelize(f *elab.Flat, uv []int32, off []int, ncomb, nseq int) ([]int, error) {
	writer := make([]int32, len(f.Vars)) // var -> comb unit writing it
	for i := range writer {
		writer[i] = -1
	}
	for ci := 0; ci < ncomb; ci++ {
		for _, e := range uv[off[ci]:off[ci+1]] {
			if e&1 == 0 {
				continue
			}
			if w := writer[e>>1]; w >= 0 && w != int32(ci) {
				return nil, errf("%s is driven by multiple combinational units", f.Vars[e>>1].Name)
			}
			writer[e>>1] = int32(ci)
		}
	}
	for si := ncomb; si < ncomb+nseq; si++ {
		for _, e := range uv[off[si]:off[si+1]] {
			if e&1 == 1 && writer[e>>1] >= 0 {
				return nil, errf("%s is driven by both combinational and sequential logic", f.Vars[e>>1].Name)
			}
		}
	}

	// Edge u -> v when v reads something u writes, in CSR form; each
	// adjacency list is built in ascending v.
	stamp := make([]int32, ncomb) // 1 + the last v an edge from u was counted for
	start := make([]int, ncomb+1)
	indeg := make([]int32, ncomb)
	edges := func(v int, add func(u int)) {
		for _, e := range uv[off[v]:off[v+1]] {
			if u := writer[e>>1]; e&1 == 0 && u >= 0 && int(u) != v && stamp[u] != int32(v+1) {
				stamp[u] = int32(v + 1)
				add(int(u))
			}
		}
	}
	for v := 0; v < ncomb; v++ {
		edges(v, func(u int) { start[u+1]++; indeg[v]++ })
	}
	for u := 0; u < ncomb; u++ {
		start[u+1] += start[u]
	}
	adj, fill := make([]int, start[ncomb]), slices.Clone(start[:ncomb])
	clear(stamp)
	for v := 0; v < ncomb; v++ {
		edges(v, func(u int) { adj[fill[u]] = v; fill[u]++ })
	}
	// Kahn's algorithm over a FIFO: the initially ready units in order,
	// then each unit's newly ready successors — already ascending.
	order := make([]int, 0, len(off)-1)
	for v := 0; v < ncomb; v++ {
		if indeg[v] == 0 {
			order = append(order, v)
		}
	}
	for head := 0; head < len(order); head++ {
		u := order[head]
		for _, v := range adj[start[u]:start[u+1]] {
			if indeg[v]--; indeg[v] == 0 {
				order = append(order, v)
			}
		}
	}
	if len(order) != ncomb {
		return nil, errf("combinational loop detected (not synthesizable)")
	}
	for i := ncomb; i < len(off)-1; i++ {
		order = append(order, i)
	}
	return order, nil
}

// reloc renumbers one span's instructions on their way into the result.
type reloc struct {
	vslot []int // source variable slot -> slot here (nil: the same)
	vend  int   // the source's first temporary slot
	temps int   // temporary slot shift
	mem   []int // source memory -> memory here (nil: the same)
	tasks int   // task index shift
	pc    []int // source pc - lo -> pc here, for jump targets
	lo    int
}

func (r *reloc) slot(s int) int {
	if s >= r.vend {
		return s + r.temps
	}
	if r.vslot != nil {
		return r.vslot[s]
	}
	return s
}

// emit lays the units out in order into exactly sized arrays: code and
// one arena for every instruction's sources, slots, tasks, spans and
// their variables.
func (l *linker) emit(units []unit, order []int, uv []int32, off []int, ncomb, nseq int, varSlots []SlotInfo) {
	p := l.p
	kept := func(src *Program, pc int) bool { return src != l.scratch || l.keep == nil || l.keep[pc] }
	var nops, nsrcs, ntemps, ntasks int
	for i := range units {
		u := &units[i]
		lo, hi := u.src.spanCode(u.span)
		for pc := lo; pc < hi; pc++ {
			if kept(u.src, pc) {
				nops++
				nsrcs += len(u.src.Code[pc].Srcs)
			}
		}
		tlo, thi := u.src.spanTemps(u.span)
		klo, khi := u.src.spanTasks(u.span)
		ntemps, ntasks = ntemps+thi-tlo, ntasks+khi-klo
	}
	p.Code = make([]Op, 0, nops)
	arena := make([]int, nsrcs)
	p.Slots = append(make([]SlotInfo, 0, len(varSlots)+ntemps), varSlots...)
	p.Tasks = make([]Task, 0, ntasks)
	p.Spans = make([]Span, 0, len(units))
	p.vars = make([]int32, 0, len(uv))
	p.Comb = make([]CombUnit, 0, ncomb)
	p.Seq = make([]SeqProc, 0, nseq)
	p.Monitors = make([]MonitorUnit, 0, len(units)-ncomb-nseq)
	var pcs []int
	for _, ui := range order {
		u := &units[ui]
		src, si := u.src, u.span
		lo, hi := src.spanCode(si)
		tlo, thi := src.spanTemps(si)
		klo, khi := src.spanTasks(si)
		entry := len(p.Code)
		r := reloc{vend: len(varSlots), temps: len(p.Slots) - tlo, tasks: len(p.Tasks) - klo, lo: lo}
		if src == l.base {
			r.vslot, r.vend, r.mem = l.bslot, src.varSlots(), l.bmem
			p.Relocated++
		}
		p.Spans = append(p.Spans, Span{
			Unit: u.id, Ord: u.ord, Code: int32(entry), Temps: int32(len(p.Slots)),
			Tasks: int32(len(p.Tasks)), Vars: int32(len(p.vars)),
		})
		p.Slots = append(p.Slots, src.Slots[tlo:thi]...)
		p.vars = append(p.vars, uv[off[ui]:off[ui+1]]...)
		if src == l.base && khi > klo {
			l.tasks = u.tasks(l.tasks[:0])
			for i, t := range l.tasks {
				p.Tasks = append(p.Tasks, Task{Src: t, Monitor: src.Tasks[klo+i].Monitor})
			}
		} else {
			p.Tasks = append(p.Tasks, src.Tasks[klo:khi]...)
		}

		// Jump targets land on the next kept instruction (the unit's
		// OpHalt is always kept).
		pcs = slices.Grow(pcs[:0], hi-lo+1)[:hi-lo+1]
		next := entry
		for pc := lo; pc < hi; pc++ {
			pcs[pc-lo] = next
			if kept(src, pc) {
				next++
			}
		}
		pcs[hi-lo] = next
		r.pc = pcs
		for pc := lo; pc < hi; pc++ {
			if kept(src, pc) {
				arena = r.op(&p.Code, &src.Code[pc], arena)
			}
		}

		switch kindOf(u) {
		case kindComb:
			p.Comb = append(p.Comb, CombUnit{Entry: entry})
		case kindSeq:
			p.Seq = append(p.Seq, SeqProc{Edges: u.proc.Edges, Entry: entry})
		default:
			p.Monitors = append(p.Monitors, MonitorUnit{Entry: entry})
		}
	}
}

// op appends the renumbered copy of op to code, its sources carved from
// arena; it returns what is left of the arena.
func (r *reloc) op(code *[]Op, op *Op, arena []int) []int {
	o := *op
	switch o.Kind {
	case OpJump, OpJz:
		o.Target = r.pc[o.Target-r.lo]
	case OpMemRead, OpMemWrite, OpMemWriteNB:
		if r.mem != nil {
			o.Aux = r.mem[o.Aux]
		}
	case OpDisplay:
		o.Aux += r.tasks
	}
	if hasDst(o.Kind) {
		o.Dst = r.slot(o.Dst)
	}
	if o.Srcs != nil {
		n := len(o.Srcs)
		srcs := arena[:n:n]
		for i, s := range o.Srcs {
			srcs[i] = r.slot(s)
		}
		o.Srcs, arena = srcs, arena[n:]
	}
	*code = append(*code, o)
	return arena
}

// hasDst reports whether an instruction of kind k names a slot in Dst.
func hasDst(k OpKind) bool {
	switch k {
	case OpJump, OpJz, OpMemWrite, OpMemWriteNB, OpDisplay, OpFinish, OpHalt:
		return false
	}
	return true
}

// byName returns f's variables ordered by name — the order Fingerprint
// hashes reset state in — merging base's order with the names it lacks.
func (l *linker) byName() []int32 {
	vars := l.f.Vars
	if l.base == nil || len(l.base.byName) != len(l.base.Flat.Vars) {
		return sortByName(vars, nil)
	}
	kept := make([]int32, 0, len(vars))
	seen := make([]bool, len(vars))
	for _, bi := range l.base.byName {
		if j := l.vmap[bi]; j >= 0 {
			seen[j] = true
			kept = append(kept, int32(j))
		}
	}
	fresh := []int32{} // not nil: sortByName(vars, nil) sorts them all
	for i := range vars {
		if !seen[i] {
			fresh = append(fresh, int32(i))
		}
	}
	fresh = sortByName(vars, fresh)
	out := make([]int32, 0, len(vars))
	for len(kept) > 0 && len(fresh) > 0 {
		if vars[kept[0]].Name < vars[fresh[0]].Name {
			out, kept = append(out, kept[0]), kept[1:]
		} else {
			out, fresh = append(out, fresh[0]), fresh[1:]
		}
	}
	return append(append(out, kept...), fresh...)
}

// sortByName sorts idx (nil: every variable) by the names of vars.
func sortByName(vars []*elab.Var, idx []int32) []int32 {
	if idx == nil {
		idx = make([]int32, len(vars))
		for i := range idx {
			idx[i] = int32(i)
		}
	}
	slices.SortFunc(idx, func(a, b int32) int { return strings.Compare(vars[a].Name, vars[b].Name) })
	return idx
}
