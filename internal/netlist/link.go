package netlist

import (
	mbits "math/bits"
	"slices"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/sim"
)

// Compile synthesizes f into a netlist program and runs the dead-code
// cleanup pass on each unit (sweep). It fails on designs that cannot be
// lowered to synchronous hardware: combinational cycles, or variables
// driven by both combinational and sequential logic. Incomplete
// sensitivity lists are accepted and treated as complete, matching what
// commercial synthesis tools do.
func Compile(f *elab.Flat) (*Program, error) { return CompileFrom(nil, f) }

// CompileFrom is Compile for a design that extends the one base was
// synthesized from (nil: none; base must come from Compile or
// CompileFrom). A unit of f with the identity of a unit of base — the
// elaboration relocated it (elab.ElaborateFrom), from base's design or
// through any chain of versions since, so it is the same elaboration on
// variables of the same names and shapes — is relocated out of base
// instead of compiled again; synthesis makes no reuse decision of its
// own: the unit's span binds base's code record, by pointer. The result
// is the program Compile(f) returns, field for field. base is only read.
func CompileFrom(base *Program, f *elab.Flat) (*Program, error) { return link(base, f, true, nil) }

// CompileRaw synthesizes without the cleanup pass: the raw reference the
// optimizer ablation and the cleanup's own tests compare Compile against.
func CompileRaw(f *elab.Flat) (*Program, error) { return link(nil, f, false, nil) }

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
	span int32  // its span in base, else its index among the units compiled here
	kind uint8
	base bool // its code is base's, else compiled here
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
	f    *elab.Flat
	p    *Program // the result
	base *Program // nil: nothing to relocate from
	c    compiler // the units compiled here

	byID spanTable // base's spans by identity
	vmap []int     // base variable index -> f's variable of that name (-1: none)
	keep []bool    // cleanup verdict per instruction compiled here (nil: keep all)

	pcs []int32 // a unit's pc -> its record's, for jump targets (record)

	// The digests of the units compiled here: one hasher for them all
	// (nil until the first), and the bytes fed to the hash (nil: not
	// counted; tests count them).
	h   *hasher
	fed *int
}

// link synthesizes f, relocating what it can from base (nil: none), and
// adds the bytes its unit digests feed the hash to *fed (nil: none).
func link(base *Program, f *elab.Flat, optimize bool, fed *int) (*Program, error) {
	units, ncomb, nseq, err := partition(f)
	if err != nil {
		return nil, err
	}
	// Each unit's code is base's when it can be, else compiled here.
	l := &linker{f: f, fed: fed}
	if base != nil {
		l.base, l.byID = base, newSpanTable(base.Spans)
		l.mapVars()
	}
	fresh := 0
	for i := range units {
		if !l.relocate(&units[i]) {
			fresh++
		}
	}

	// Slot 0..n-1: one slot per scalar variable, then temporaries.
	nmem := 0
	for _, v := range f.Vars {
		if v.IsArray() {
			nmem++
		}
	}
	p := &Program{
		Flat:    f,
		VarSlot: make([]int, len(f.Vars)),
		MemOf:   make([]int, len(f.Vars)),
		Mems:    make([]MemInfo, 0, nmem),
	}
	l.p = p
	nvar := 0
	for _, v := range f.Vars {
		p.VarSlot[v.Index], p.MemOf[v.Index] = -1, -1
		if v.IsArray() {
			p.MemOf[v.Index] = len(p.Mems)
			p.Mems = append(p.Mems, MemInfo{Var: v, Words: v.ArrayLen, Width: v.Width, Wide: v.Width > 64})
		} else {
			p.VarSlot[v.Index], nvar = nvar, nvar+1
		}
	}

	c := &l.c
	*c = compiler{
		f:        f,
		code:     make([]Op, 0, opsPerUnit*fresh),
		operands: make([]int32, 0, 2*opsPerUnit*fresh),
		temps:    make([]int32, 0, opsPerUnit*fresh),
		at:       make([]start, 0, fresh+1),
		mark:     make([]int32, 3*len(f.Vars)), // and first
	}
	c.mark, c.first = c.mark[:2*len(f.Vars)], c.mark[2*len(f.Vars):]
	for i := range units {
		if u := &units[i]; !u.base {
			u.span = int32(len(c.at))
			c.unit(u, f)
		}
	}
	c.at = append(c.at, start{int32(len(c.code)), int32(len(c.temps)), int32(len(c.tasks)), int32(len(c.vars))}) // where the last ends
	if optimize {
		l.keep = make([]bool, len(c.code))
		live := make([]bool, len(c.temps))
		for i := 0; i+1 < len(c.at); i++ {
			lo, hi := c.at[i], c.at[i+1]
			sweep(c.code[lo.code:hi.code], c.operands, live[lo.temps:hi.temps], l.keep[lo.code:hi.code])
		}
	}

	// Every unit's variables, in f's numbering and partition order.
	off := make([]int32, len(units)+1)
	for i := range units {
		lo, hi := l.vars(&units[i])
		off[i+1] = off[i] + int32(hi-lo)
	}
	uv := make([]int32, off[len(units)])
	for i := range units {
		u := &units[i]
		lo, hi := l.vars(u)
		out := uv[off[i]:off[i+1]]
		if !u.base {
			copy(out, c.vars[lo:hi])
			continue
		}
		for j, e := range l.base.Vars[lo:hi] {
			out[j] = int32(l.vmap[e>>1]<<1) | e&1
		}
	}
	order, err := levelize(f, units, uv, off, ncomb, nseq)
	if err != nil {
		return nil, err
	}

	// Reset state: run a reference simulator once (executes initial
	// blocks) and capture the resulting variable values — the FPGA
	// bitstream's initial register contents. The run reads only f, so it
	// goes beside the layout and the statistics and is joined last. It
	// starts once levelize has accepted the design: a combinational loop
	// levelize rejects need never settle.
	reset := make(chan []uint64, 1)
	go func() {
		ref := sim.New(f, sim.Options{})
		ref.Evaluate()
		reset <- ref.GetState()
	}()
	l.emit(units, order, uv, off, ncomb, nseq, nvar)
	p.Stats = computeStats(p)
	p.Reset = <-reset
	return p, nil
}

// vars returns where u's variables lie: in base's list for a relocated
// unit, else in the compiler's.
func (l *linker) vars(u *unit) (int, int) {
	if u.base {
		return l.base.spanVars(int(u.span))
	}
	return int(l.c.at[u.span].vars), int(l.c.at[u.span+1].vars)
}

// tasks returns u's tasks: base's for a relocated unit, else the
// compiler's.
func (l *linker) tasks(u *unit) []Task {
	if u.base {
		lo, hi := l.base.spanTasks(int(u.span))
		return l.base.Tasks[lo:hi]
	}
	return l.c.tasks[l.c.at[u.span].tasks:l.c.at[u.span+1].tasks]
}

// opsPerUnit is about how many instructions a unit compiles to (8 on the
// benchmark's chained stages, 5–12 on generated modules).
const opsPerUnit = 10

// mapVars maps the base's variables to l.f's of the same names, for
// relocation from it.
func (l *linker) mapVars() {
	l.vmap = make([]int, len(l.base.Flat.Vars))
	for i, v := range l.base.Flat.Vars {
		l.vmap[i] = -1
		if j, ok := l.f.VarIndex[v.Name]; ok {
			l.vmap[i] = j
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

// levelize checks driver classes — no variable may be written by two
// combinational units, or by a combinational unit and a sequential
// process — and orders the combinational units topologically: a unit
// comes after every unit that writes a variable it reads, ties broken by
// partition order; a cycle is a synthesis error (combinational loop). A
// continuous assignment that reads its own target is the one-unit cycle:
// the edge order skips u -> u, since a level-sensitive process may read
// what it wrote earlier in the same pass. uv[off[i]:off[i+1]] are unit
// i's variables (Span.Vars's encoding). It returns the schedule order of
// all units.
func levelize(f *elab.Flat, units []unit, uv []int32, off []int32, ncomb, nseq int) ([]int32, error) {
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
	for ci := 0; ci < ncomb; ci++ {
		if units[ci].kind != unitAssign {
			continue
		}
		for _, e := range uv[off[ci]:off[ci+1]] {
			if e&1 == 0 && writer[e>>1] == int32(ci) {
				return nil, errf("combinational loop detected (not synthesizable): the assignment to %s reads it", f.Vars[e>>1].Name)
			}
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

// emit lays the units out in order into exactly sized arrays: spans,
// slots, tasks and the spans' variables. A relocated unit's span binds
// its base's record; the units compiled here get records of their own
// (record).
func (l *linker) emit(units []unit, order []int32, uv []int32, off []int32, ncomb, nseq, nvar int) {
	p, c := l.p, &l.c
	var ntemps, ntasks int
	for i := range units {
		u := &units[i]
		if u.base {
			ntemps += len(l.base.Spans[u.span].TempWidths)
		} else {
			ntemps += int(c.at[u.span+1].temps - c.at[u.span].temps)
		}
		ntasks += len(l.tasks(u))
	}
	p.Slots = make([]SlotInfo, nvar, nvar+ntemps)
	for _, v := range l.f.Vars {
		if s := p.VarSlot[v.Index]; s >= 0 {
			p.Slots[s] = SlotInfo{Width: v.Width, Wide: v.Width > 64, Var: v}
		}
	}
	p.Tasks = make([]Task, 0, ntasks)
	p.Spans = make([]Span, 0, len(units))
	p.Vars = make([]int32, 0, len(uv))
	p.Comb, p.Seq = ncomb, make([]SeqProc, 0, nseq)
	for _, ui := range order {
		u := &units[ui]
		sp := Span{
			Unit: u.id, Ord: u.ord, Temps: int32(len(p.Slots)),
			Tasks: int32(len(p.Tasks)), Vars: int32(len(p.Vars)),
		}
		p.Vars = append(p.Vars, uv[off[ui]:off[ui+1]]...)
		p.Tasks = append(p.Tasks, l.tasks(u)...)
		if u.base {
			sp.UnitCode = l.base.Spans[u.span].UnitCode
			p.Relocated++
		} else {
			sp.UnitCode = l.record(u)
			l.digest(sp.UnitCode, p.Tasks[sp.Tasks:])
		}
		for _, w := range sp.TempWidths {
			p.Slots = append(p.Slots, SlotInfo{Width: int(w), Wide: w > 64})
		}
		p.Spans = append(p.Spans, sp)
		if u.kind == unitSeq {
			pr := l.f.Procs[u.at]
			p.Seq = append(p.Seq, SeqProc{Edges: pr.Edges, Frame: pr.Frame})
		}
	}
}

// kept reports whether the instruction compiled here at pc survived the
// cleanup.
func (l *linker) kept(pc int32) bool { return l.keep == nil || l.keep[pc] }

// record copies the code of u, a unit compiled here, into a record of its
// own, leaving the instructions the cleanup dropped behind, and returns
// it. The record and its arrays are exactly sized and allocated for it
// alone: a later version that relocates the unit keeps nothing of the
// units compiled beside it alive.
func (l *linker) record(u *unit) *UnitCode {
	c := &l.c
	lo, hi := c.at[u.span], c.at[u.span+1]
	// Jump targets land on the next kept instruction (the unit's OpHalt
	// is always kept).
	l.pcs = slices.Grow(l.pcs[:0], int(hi.code-lo.code)+1)[:hi.code-lo.code+1]
	var nops, nsrcs, nconsts int32
	for pc := lo.code; pc < hi.code; pc++ {
		l.pcs[pc-lo.code] = nops
		if op := &c.code[pc]; l.kept(pc) {
			nops, nsrcs = nops+1, nsrcs+op.NSrcs
			if op.Const >= 0 {
				nconsts++
			}
		}
	}
	l.pcs[hi.code-lo.code] = nops
	rec := &UnitCode{Ops: make([]Op, 0, nops)}
	if nconsts > 0 {
		rec.Consts = make([]*bits.Vector, 0, nconsts)
	}
	// The sources and the temporaries' widths share one allocation.
	ints := make([]int32, 0, nsrcs+hi.temps-lo.temps)
	for pc := lo.code; pc < hi.code; pc++ {
		if !l.kept(pc) {
			continue
		}
		o := c.code[pc]
		if o.Kind == OpJump || o.Kind == OpJz {
			o.Target = l.pcs[o.Target]
		}
		ints = append(ints, c.operands[o.Src:o.Src+o.NSrcs]...)
		o.Src = int32(len(ints)) - o.NSrcs
		if o.Const >= 0 {
			rec.Consts = append(rec.Consts, c.consts[o.Const])
			o.Const = int32(len(rec.Consts) - 1)
		}
		rec.Ops = append(rec.Ops, o)
	}
	rec.Operands, rec.TempWidths = ints[:nsrcs:nsrcs], append(ints[nsrcs:], c.temps[lo.temps:hi.temps]...)
	return rec
}

// digest computes the digest of rec, a unit compiled here with tasks.
func (l *linker) digest(rec *UnitCode, tasks []Task) {
	if l.h == nil {
		h := newHasher(unitBatch, l.fed)
		l.h = &h
	}
	l.h.digest(rec, tasks, &rec.Digest)
}

// hasDst reports whether an instruction of kind k names a slot in Dst.
func hasDst(k OpKind) bool {
	switch k {
	case OpJump, OpJz, OpMemWrite, OpMemWriteNB, OpDisplay, OpFinish, OpHalt:
		return false
	}
	return true
}
