package netlist

import (
	mbits "math/bits"
	"slices"
	"strings"

	"cascade/internal/bits"
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

// Unit kinds, in the order partition lists them (combinational units
// first) and their spans are laid out.
const (
	unitAssign  = iota // a continuous assignment
	unitComb           // a level-sensitive process
	unitSeq            // an edge-triggered process
	unitMonitor        // a $monitor of an initial block
)

// unit is one unit of a design awaiting its code: a combinational one
// (a continuous assignment or a level-sensitive process), an
// edge-triggered process, or a $monitor of an initial block.
type unit struct {
	id   uint64 // its elaboration's identity (0: none, never relocated)
	ord  int32  // which $monitor of its initial block it is
	at   int32  // its index in f.Assigns, f.Procs or f.Initials, by kind
	span int32  // its span in the program its code is in
	kind uint8
	base bool // its code is in the base program, else the scratch compile's
}

// monitorIn returns the $monitor task u is in f.
func (u *unit) monitorIn(f *elab.Flat) (mon *elab.SysTask) {
	ord := u.ord
	monitors(f.Initials[u.at], func(t *elab.SysTask) {
		if ord == 0 {
			mon = t
		}
		ord--
	})
	return mon
}

// tasks appends u's display tasks to out in the order its code numbers them.
func (u *unit) tasks(f *elab.Flat, out []*elab.SysTask) []*elab.SysTask {
	switch u.kind {
	case unitMonitor:
		return append(out, u.monitorIn(f))
	case unitAssign:
		return out
	}
	return unitTasks(f.Procs[u.at].Body, out)
}

// monitors calls fn for each $monitor of initial block st, in order.
func monitors(st elab.Stmt, fn func(*elab.SysTask)) {
	elab.WalkStmt(st, func(s elab.Stmt) {
		if t, ok := s.(*elab.SysTask); ok && t.Kind == elab.TaskMonitor {
			fn(t)
		}
	}, nil)
}

// partition lists f's units in synthesis order — combinational (assigns,
// then level-sensitive processes), sequential, monitors — into one slice
// a first pass sizes, and returns how many of each of the first two kinds
// there are.
func partition(f *elab.Flat) (units []unit, ncomb, nseq int, err error) {
	ncomb = len(f.Assigns)
	for _, p := range f.Procs {
		switch {
		case p.Star || hasLevelEdge(p):
			if hasTrueEdge(p) {
				return nil, 0, 0, errf("process mixes edge and level sensitivity (not synthesizable)")
			}
			ncomb++
		case len(p.Edges) == 0:
			return nil, 0, 0, errf("always block with empty sensitivity list")
		default:
			nseq++
		}
	}
	nmon := 0
	for _, st := range f.Initials {
		monitors(st, func(*elab.SysTask) { nmon++ })
	}
	units = make([]unit, ncomb+nseq+nmon)
	comb, seq, mon := 0, ncomb, ncomb+nseq
	for i, a := range f.Assigns {
		units[comb] = unit{id: a.Unit, at: int32(i), kind: unitAssign}
		comb++
	}
	for i, p := range f.Procs {
		if p.Star || hasLevelEdge(p) {
			units[comb] = unit{id: p.Unit, at: int32(i), kind: unitComb}
			comb++
		} else {
			units[seq] = unit{id: p.Unit, at: int32(i), kind: unitSeq}
			seq++
		}
	}
	// $monitor registrations from initial blocks become end-of-step
	// display units evaluated by Machine.EndStep.
	for i, st := range f.Initials {
		var ord int32
		monitors(st, func(*elab.SysTask) {
			units[mon] = unit{id: f.InitialUnits[i], at: int32(i), ord: ord, kind: unitMonitor}
			mon, ord = mon+1, ord+1
		})
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

	byID  spanTable       // base's spans by identity
	vmap  []int           // base variable index -> f's variable of that name (-1: none)
	bslot []int           // base variable slot -> slot of that variable here (-1: none)
	bmem  []int           // base memory -> memory of that variable here (-1: none)
	keep  []bool          // cleanup verdict per scratch instruction (nil: keep all)
	tasks []*elab.SysTask // a relocated unit's tasks (scratch)
}

// src returns the program u's code is in.
func (l *linker) src(u *unit) *Program {
	if u.base {
		return l.base
	}
	return l.scratch
}

func link(base *Program, f *elab.Flat, optimize bool) (*Program, error) {
	units, ncomb, nseq, err := partition(f)
	if err != nil {
		return nil, err
	}
	// Each unit's code comes from base when it can, else from a fresh
	// compile into the scratch program.
	l := &linker{f: f}
	if base != nil {
		l.base, l.byID = base, newSpanTable(base.Spans)
	}
	fresh := 0
	for i := range units {
		if !l.relocate(&units[i]) {
			fresh++
		}
	}

	// Slot 0..n-1: one slot per scalar variable, then temporaries. The
	// variables' slot table is the scratch program's, presized for a
	// typical unit's temporaries, and the result copies it once.
	nmem := 0
	for _, v := range f.Vars {
		if v.IsArray() {
			nmem++
		}
	}
	nvar := len(f.Vars) - nmem
	p := &Program{
		Flat:    f,
		VarSlot: make([]int, len(f.Vars)),
		MemOf:   make([]int, len(f.Vars)),
		Mems:    make([]MemInfo, 0, nmem),
	}
	l.p = p
	l.scratch = &Program{
		Flat: f, VarSlot: p.VarSlot, MemOf: p.MemOf,
		Code:     make([]Op, 0, opsPerUnit*fresh),
		Operands: make([]int32, 0, 2*opsPerUnit*fresh),
		Slots:    make([]SlotInfo, 0, nvar+opsPerUnit*fresh),
		Spans:    make([]Span, 0, fresh),
	}
	for _, v := range f.Vars {
		p.VarSlot[v.Index], p.MemOf[v.Index] = -1, -1
		if v.IsArray() {
			p.MemOf[v.Index] = len(p.Mems)
			p.Mems = append(p.Mems, MemInfo{Var: v, Words: v.ArrayLen, Width: v.Width, Wide: v.Width > 64})
			continue
		}
		p.VarSlot[v.Index] = len(l.scratch.Slots)
		l.scratch.Slots = append(l.scratch.Slots, SlotInfo{Width: v.Width, Wide: v.Width > 64, Var: v})
	}
	l.scratch.Mems = p.Mems
	if base != nil {
		l.mapVars()
	}

	c := &compiler{prog: l.scratch, mark: make([]int32, 2*len(f.Vars))}
	for i := range units {
		if u := &units[i]; !u.base {
			u.span = int32(len(l.scratch.Spans))
			c.unit(u, f)
		}
	}
	if optimize {
		l.keep = make([]bool, len(l.scratch.Code))
		liveSlot := make([]bool, len(l.scratch.Slots))
		for i := 0; i < nvar; i++ {
			liveSlot[i] = true
		}
		for i := range l.scratch.Spans {
			lo, hi := l.scratch.spanCode(i)
			sweep(l.scratch, lo, hi, liveSlot, l.keep[lo:hi])
		}
	}

	// Every unit's variables, in f's numbering and partition order.
	off := make([]int32, len(units)+1)
	for i := range units {
		lo, hi := l.src(&units[i]).spanVars(int(units[i].span))
		off[i+1] = off[i] + int32(hi-lo)
	}
	uv := make([]int32, off[len(units)])
	for i := range units {
		u := &units[i]
		src := l.src(u)
		lo, hi := src.spanVars(int(u.span))
		out := uv[off[i]:off[i+1]]
		copy(out, src.vars[lo:hi])
		if u.base {
			for j, e := range out {
				out[j] = int32(l.vmap[e>>1]<<1) | e&1
			}
		}
	}
	order, err := levelize(f, uv, off, ncomb, nseq)
	if err != nil {
		return nil, err
	}
	l.emit(units, order, uv, off, ncomb, nseq)

	// Reset state: run a reference simulator once (executes initial
	// blocks) and capture the resulting variable values — the FPGA
	// bitstream's initial register contents.
	ref := sim.New(f, sim.Options{})
	ref.Evaluate()
	p.Reset = ref.GetState()
	p.byName = l.byName()
	p.Stats = computeStats(p)
	return p, nil
}

// opsPerUnit is about how many instructions a unit compiles to (8 on the
// benchmark's chained stages, 5–12 on generated modules).
const opsPerUnit = 10

// mapVars maps the base's variables, slots and memories to l.f's of
// the same names, for relocation from it.
func (l *linker) mapVars() {
	base := l.base
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

// spanTable finds a program's spans by identity (Span.Unit, Span.Ord):
// an open-addressing table of 1 + span index, probed linearly from a
// multiplicative hash — one allocation that holds no pointer, where a
// Go map of the same keys costs a bucket array three times its size,
// and a sorted slice a sort and a binary search per unit.
type spanTable struct {
	spans []Span
	slot  []int32 // 0: empty
	shift uint    // 64 - log2(len(slot))
}

func newSpanTable(spans []Span) spanTable {
	log := mbits.Len(uint(2 * len(spans))) // at most half full
	t := spanTable{spans: spans, slot: make([]int32, 1<<log), shift: uint(64 - log)}
	for i := range spans {
		if sp := &spans[i]; sp.Unit != 0 {
			h := t.home(sp.Unit, sp.Ord)
			for t.slot[h] != 0 {
				h = (h + 1) & (len(t.slot) - 1)
			}
			t.slot[h] = int32(i + 1)
		}
	}
	return t
}

func (t *spanTable) home(unit uint64, ord int32) int {
	return int(((unit + uint64(ord)<<48) * 0x9e3779b97f4a7c15) >> t.shift)
}

// find returns the index of the span of identity (unit, ord).
func (t *spanTable) find(unit uint64, ord int32) (int32, bool) {
	for h := t.home(unit, ord); t.slot[h] != 0; h = (h + 1) & (len(t.slot) - 1) {
		if i := t.slot[h] - 1; t.spans[i].Unit == unit && t.spans[i].Ord == ord {
			return i, true
		}
	}
	return 0, false
}

// relocate points u at its span in the base program if base has a unit
// of its identity (CompileFrom): that unit names the variables u names,
// by name, and they have the same shapes in both designs.
func (l *linker) relocate(u *unit) bool {
	if l.base == nil || u.id == 0 {
		return false
	}
	i, ok := l.byID.find(u.id, u.ord)
	if ok {
		u.base, u.span = true, i
	}
	return ok
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
func levelize(f *elab.Flat, uv []int32, off []int32, ncomb, nseq int) ([]int32, error) {
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
	start := make([]int32, ncomb+1)
	indeg := make([]int32, ncomb)
	edges := func(v int32, add func(u int32)) {
		for _, e := range uv[off[v]:off[v+1]] {
			if u := writer[e>>1]; e&1 == 0 && u >= 0 && u != v && stamp[u] != v+1 {
				stamp[u] = v + 1
				add(u)
			}
		}
	}
	for v := int32(0); v < int32(ncomb); v++ {
		edges(v, func(u int32) { start[u+1]++; indeg[v]++ })
	}
	for u := 0; u < ncomb; u++ {
		start[u+1] += start[u]
	}
	adj, fill := make([]int32, start[ncomb]), slices.Clone(start[:ncomb])
	clear(stamp)
	for v := int32(0); v < int32(ncomb); v++ {
		edges(v, func(u int32) { adj[fill[u]] = v; fill[u]++ })
	}
	// Kahn's algorithm over a FIFO: the initially ready units in order,
	// then each unit's newly ready successors — already ascending.
	order := make([]int32, 0, len(off)-1)
	for v := int32(0); v < int32(ncomb); v++ {
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
	for i := int32(ncomb); i < int32(len(off)-1); i++ {
		order = append(order, i)
	}
	return order, nil
}

// reloc renumbers one span's instructions on their way into the result.
type reloc struct {
	vslot []int   // source variable slot -> slot here (nil: the same)
	vend  int32   // the source's first temporary slot
	temps int32   // temporary slot shift
	mem   []int   // source memory -> memory here (nil: the same)
	tasks int32   // task index shift
	pc    []int32 // source pc - lo -> pc here, for jump targets
	lo    int32
}

func (r *reloc) slot(s int32) int32 {
	if s >= r.vend {
		return s + r.temps
	}
	if r.vslot != nil {
		return int32(r.vslot[s])
	}
	return s
}

// emit lays the units out in order into exactly sized arrays: code, its
// source arena and constant table, slots, tasks, spans and their
// variables.
func (l *linker) emit(units []unit, order []int32, uv []int32, off []int32, ncomb, nseq int) {
	p, nvar := l.p, len(l.f.Vars)-len(l.p.Mems)
	kept := func(u *unit, pc int) bool { return u.base || l.keep == nil || l.keep[pc] }
	var nops, nsrcs, nconsts, ntemps, ntasks int
	for i := range units {
		u := &units[i]
		src := l.src(u)
		lo, hi := src.spanCode(int(u.span))
		for pc := lo; pc < hi; pc++ {
			if op := &src.Code[pc]; kept(u, pc) {
				nops, nsrcs = nops+1, nsrcs+int(op.NSrcs)
				if op.Const >= 0 {
					nconsts++
				}
			}
		}
		tlo, thi := src.spanTemps(int(u.span))
		klo, khi := src.spanTasks(int(u.span))
		ntemps, ntasks = ntemps+thi-tlo, ntasks+khi-klo
	}
	p.Code = make([]Op, 0, nops)
	p.Operands = make([]int32, 0, nsrcs)
	p.Consts = make([]*bits.Vector, 0, nconsts)
	p.Slots = append(make([]SlotInfo, 0, nvar+ntemps), l.scratch.Slots[:nvar]...)
	p.Tasks = make([]Task, 0, ntasks)
	p.Spans = make([]Span, 0, len(units))
	p.vars = make([]int32, 0, len(uv))
	p.Comb = make([]CombUnit, 0, ncomb)
	p.Seq = make([]SeqProc, 0, nseq)
	p.Monitors = make([]MonitorUnit, 0, len(units)-ncomb-nseq)
	var pcs []int32
	for _, ui := range order {
		u := &units[ui]
		src, si := l.src(u), int(u.span)
		lo, hi := src.spanCode(si)
		tlo, thi := src.spanTemps(si)
		klo, khi := src.spanTasks(si)
		entry := len(p.Code)
		r := reloc{vend: int32(nvar), temps: int32(len(p.Slots) - tlo), tasks: int32(len(p.Tasks) - klo), lo: int32(lo)}
		if u.base {
			r.vslot, r.vend, r.mem = l.bslot, int32(src.varSlots()), l.bmem
			p.Relocated++
		}
		p.Spans = append(p.Spans, Span{
			Unit: u.id, Ord: u.ord, Code: int32(entry), Temps: int32(len(p.Slots)),
			Tasks: int32(len(p.Tasks)), Vars: int32(len(p.vars)),
		})
		p.Slots = append(p.Slots, src.Slots[tlo:thi]...)
		p.vars = append(p.vars, uv[off[ui]:off[ui+1]]...)
		if u.base && khi > klo {
			l.tasks = u.tasks(l.f, l.tasks[:0])
			for i, t := range l.tasks {
				p.Tasks = append(p.Tasks, Task{Src: t, Monitor: src.Tasks[klo+i].Monitor})
			}
		} else {
			p.Tasks = append(p.Tasks, src.Tasks[klo:khi]...)
		}

		// Jump targets land on the next kept instruction (the unit's
		// OpHalt is always kept).
		pcs = slices.Grow(pcs[:0], hi-lo+1)[:hi-lo+1]
		next := int32(entry)
		for pc := lo; pc < hi; pc++ {
			pcs[pc-lo] = next
			if kept(u, pc) {
				next++
			}
		}
		pcs[hi-lo] = next
		r.pc = pcs
		for pc := lo; pc < hi; pc++ {
			if kept(u, pc) {
				r.op(p, src, &src.Code[pc])
			}
		}

		switch u.kind {
		case unitAssign, unitComb:
			p.Comb = append(p.Comb, CombUnit{Entry: entry})
		case unitSeq:
			p.Seq = append(p.Seq, SeqProc{Edges: l.f.Procs[u.at].Edges, Entry: entry})
		default:
			p.Monitors = append(p.Monitors, MonitorUnit{Entry: entry})
		}
	}
}

// op appends the renumbered copy of src's instruction op to p, its
// sources to p's arena and its constant to p's table.
func (r *reloc) op(p, src *Program, op *Op) {
	o := *op
	switch o.Kind {
	case OpJump, OpJz:
		o.Target = r.pc[o.Target-r.lo]
	case OpMemRead, OpMemWrite, OpMemWriteNB:
		if r.mem != nil {
			o.Aux = int32(r.mem[o.Aux])
		}
	case OpDisplay:
		o.Aux += r.tasks
	}
	if hasDst(o.Kind) {
		o.Dst = r.slot(o.Dst)
	}
	o.Src = int32(len(p.Operands))
	for _, s := range src.Srcs(op) {
		p.Operands = append(p.Operands, r.slot(s))
	}
	if o.Const >= 0 {
		o.Const = int32(len(p.Consts))
		p.Consts = append(p.Consts, src.Consts[op.Const])
	}
	p.Code = append(p.Code, o)
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
