package netlist

import (
	"slices"

	bv "cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/sim"
)

// DisplayEvent is a system-task side effect captured during hardware
// execution and forwarded to the runtime (printf from hardware, §3.5).
type DisplayEvent struct {
	Text    string
	Newline bool
	Finish  bool
}

// Machine holds a loaded netlist program's state and executes it
// cycle-accurately on the reference path: Evaluate and Update step ExecOp,
// one instruction at a time, and nothing else. That loop is the oracle
// the equivalence tests hold internal/sim and internal/njit against; what
// production engines execute is njit's compiled form over this machine's
// storage (Hooks), with ExecOp as its per-instruction fallback. It
// mirrors the evaluate/update interface of the reference simulator so
// both can sit behind the same engine ABI.
type Machine struct {
	prog *Program

	u64 []uint64 // narrow slot values
	// vec holds a vector per slot, made when first needed (slotVec): a
	// wide slot's value, and a narrow slot's scratch, which holds the
	// lane's value while an instruction reads or computes it.
	vec   []*bv.Vector
	mem64 [][]uint64
	memW  [][]*bv.Vector

	combDirty  bool
	seqTrig    []bool
	seqPending bool
	// The edge-watcher table: the sequential processes watching slot i
	// for an edge are edges[edgeAt[i]:edgeAt[i+1]], each entry a process
	// index<<1, | 1 for a posedge. A compiled backend reads it (Hooks).
	edgeAt []uint32
	edges  []int32

	// pending is the non-blocking write queue; Update empties it but
	// keeps its entries, and their vectors, for the next batch.
	pending  []mPending
	events   []DisplayEvent
	monLast  []string
	finished bool

	// spare holds a result whose instruction cannot compute into its
	// destination (out); args lends a display its operands.
	spare *bv.Vector
	args  []*bv.Vector
	// srcs and in are the unit exec runs and its instruction, bound.
	srcs []int32
	in   Instr

	// NowFn supplies $time.
	NowFn func() uint64

	// ChangeHook, when non-nil, is invoked after every committed state
	// change: variable-slot changes pass the slot index (>= 0), memory
	// word changes pass -1-mem. The native tier (internal/njit)
	// registers it to drive sensitivity-based combinational scheduling.
	ChangeHook func(slot int)

	// Cycles counts Evaluate calls that did work; Ops counts executed
	// instructions (the performance model's compute proxy).
	Cycles uint64
	Ops    uint64
}

type mPending struct {
	slot   int // -1 for memory writes
	mem    int
	word   int
	hasRng bool
	hi, lo int
	// The value: w when vec is set (the reference path queued the
	// write), else the word u a compiled backend queued through the
	// Pend* calls. w stays with the entry from batch to batch, for the
	// next value queued there to reuse.
	u   uint64
	w   *bv.Vector
	vec bool
}

// NewMachine loads a program into a fresh machine and sets its state to
// the program's reset image (initial register contents from the bitstream).
func NewMachine(p *Program) *Machine {
	m := &Machine{
		prog:    p,
		u64:     make([]uint64, len(p.Slots)),
		vec:     make([]*bv.Vector, len(p.Slots)),
		seqTrig: make([]bool, len(p.Seq)),
		monLast: make([]string, len(p.Spans)-p.Comb-len(p.Seq)),
		mem64:   make([][]uint64, len(p.Mems)),
		memW:    make([][]*bv.Vector, len(p.Mems)),
	}
	for i, mi := range p.Mems {
		if mi.Wide {
			ws := make([]*bv.Vector, mi.Words)
			for j := range ws {
				ws[j] = bv.New(mi.Width)
			}
			m.memW[i] = ws
		} else {
			m.mem64[i] = make([]uint64, mi.Words)
		}
	}
	m.watch()
	m.SetState(p.Reset)
	return m
}

// watch builds the edge-watcher table in two passes over the sequential
// processes' edges: the first counts each slot's watchers and sums the
// counts into where each slot's row ends, the second places each watcher
// at the end of its row, moving the end down to where the row starts.
func (m *Machine) watch() {
	p := m.prog
	m.edgeAt = make([]uint32, len(p.Slots)+1)
	for pass := range 2 {
		for pi, sp := range p.Seq {
			for _, e := range sp.Edges {
				if e.Kind != elab.Pos && e.Kind != elab.Neg {
					continue
				}
				slot := p.VarSlot[sp.Frame[e.Var].Index]
				if pass == 0 {
					m.edgeAt[slot]++
				} else {
					m.edgeAt[slot]--
					m.edges[m.edgeAt[slot]] = int32(pi<<1) | int32(B2U(e.Kind == elab.Pos))
				}
			}
		}
		if pass == 0 {
			for i := 1; i < len(m.edgeAt); i++ {
				m.edgeAt[i] += m.edgeAt[i-1]
			}
			m.edges = make([]int32, m.edgeAt[len(p.Slots)])
		}
	}
}

// Prog returns the loaded program.
func (m *Machine) Prog() *Program { return m.prog }

// Finished reports whether $finish has executed.
func (m *Machine) Finished() bool { return m.finished }

// DrainEvents returns and clears captured display/finish events.
func (m *Machine) DrainEvents() []DisplayEvent {
	ev := m.events
	m.events = nil
	return ev
}

// Mask, B2U and PowMod are the narrow-lane arithmetic helpers a compiled
// backend computes with.

// Mask returns the low-w-bits mask of a 64-bit lane.
func Mask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// slotVec materializes a slot as a bit vector, borrowed: a wide slot's
// live value, or a narrow slot's scratch, made the first time, loaded
// from its lane, which stays valid only until the slot is next read or
// written. Callers that retain the value must Clone it.
func (m *Machine) slotVec(i int) *bv.Vector {
	v := m.vec[i]
	if v == nil {
		v = bv.New(m.prog.Slots[i].Width)
		m.vec[i] = v
	}
	if !m.prog.Slots[i].Wide {
		v.SetUint64(m.u64[i])
	}
	return v
}

// writeVar stores v, truncated or zero-extended, into variable slot i
// with change detection: a change marks combinational logic dirty and
// fires the edge triggers of the slot's watchers.
func (m *Machine) writeVar(i int, v *bv.Vector) {
	if !m.prog.Slots[i].Wide {
		m.writeWord(i, v.Uint64())
		return
	}
	z := m.slotVec(i)
	if old := z.Bit(0); z.CopyFrom(v) {
		m.onVarChange(i, old, z.Bit(0))
	}
}

// writeWord is writeVar for a narrow slot and a word value.
func (m *Machine) writeWord(i int, u uint64) {
	u &= Mask(m.prog.Slots[i].Width)
	if old := m.u64[i]; old != u {
		m.u64[i] = u
		m.onVarChange(i, uint(old&1), uint(u&1))
	}
}

// writeRng sets bits [hi:lo] of variable slot i to v, truncated or
// zero-extended, in place, with writeVar's change detection.
func (m *Machine) writeRng(i, hi, lo int, v *bv.Vector) {
	z := m.slotVec(i)
	old := z.Bit(0)
	if !z.SetSlice(hi, lo, v) {
		return
	}
	if !m.prog.Slots[i].Wide {
		m.u64[i] = z.Uint64()
	}
	m.onVarChange(i, old, z.Bit(0))
}

func (m *Machine) onVarChange(slot int, oldLSB, newLSB uint) {
	m.combDirty = true
	if m.ChangeHook != nil {
		m.ChangeHook(slot)
	}
	if oldLSB == newLSB {
		return
	}
	for _, w := range m.edges[m.edgeAt[slot]:m.edgeAt[slot+1]] {
		if uint(w&1) == newLSB {
			m.seqTrig[w>>1] = true
			m.seqPending = true
		}
	}
}

// SetInput drives an input variable (engine ABI read).
func (m *Machine) SetInput(v *elab.Var, val *bv.Vector) {
	m.writeVar(m.prog.VarSlot[v.Index], val)
}

// PeekVar returns the current value of a scalar variable, borrowed
// under slotVec's rules (valid until the variable is next read, never to
// be mutated), for callers that only compare or copy it; Clone it to keep
// it.
func (m *Machine) PeekVar(v *elab.Var) *bv.Vector {
	return m.slotVec(m.prog.VarSlot[v.Index])
}

// HasActive reports pending evaluation work (there_are_evals).
func (m *Machine) HasActive() bool { return m.combDirty || m.seqPending }

// HasUpdates reports queued non-blocking writes (there_are_updates).
func (m *Machine) HasUpdates() bool { return len(m.pending) > 0 }

// Evaluate runs triggered sequential processes and then settles
// combinational logic (one EvalAll batch).
func (m *Machine) Evaluate() {
	worked := false
	for m.seqPending || m.combDirty {
		worked = true
		if m.seqPending {
			m.seqPending = false
			for i := range m.seqTrig {
				if m.seqTrig[i] {
					m.seqTrig[i] = false
					m.exec(m.prog.Comb + i)
				}
			}
		}
		if m.combDirty {
			m.combDirty = false
			for e := range m.prog.Comb {
				m.exec(e)
			}
		}
	}
	if worked {
		m.Cycles++
	}
}

// Update commits queued non-blocking writes (the update batch).
func (m *Machine) Update() {
	for i := range m.pending {
		switch p := &m.pending[i]; {
		case p.slot < 0:
			m.commitMem(p)
		case p.hasRng && p.vec:
			m.writeRng(p.slot, p.hi, p.lo, p.w)
		case p.hasRng: // the word at the range's width, in the entry's vector
			p.w = bv.Reuse(p.w, p.hi-p.lo+1)
			p.w.SetUint64(p.u)
			m.writeRng(p.slot, p.hi, p.lo, p.w)
		case p.vec:
			m.writeVar(p.slot, p.w)
		default:
			m.writeWord(p.slot, p.u)
		}
	}
	m.pending = m.pending[:0]
}

// pend queues a non-blocking write for the next Update: its value the
// word p.u, or a copy of v when v is non-nil, in an entry, and a vector,
// an earlier batch left.
func (m *Machine) pend(p mPending, v *bv.Vector) {
	if n := len(m.pending); n < cap(m.pending) {
		p.w = m.pending[:n+1][n].w
	}
	if p.vec = v != nil; p.vec {
		p.w = bv.Reuse(p.w, v.Width()).Set(v)
	}
	m.pending = append(m.pending, p)
}

// commitMem stores a queued memory word. The value's form follows the
// queuing path, not the memory: the reference path queues a vector even
// for a memory of 64 bits or less (a wide address flags the op Wide).
func (m *Machine) commitMem(p *mPending) {
	mi := m.prog.Mems[p.mem]
	if p.word < 0 || p.word >= mi.Words {
		return
	}
	switch {
	case mi.Wide:
		m.memW[p.mem][p.word].CopyFrom(p.w)
	case p.vec:
		m.mem64[p.mem][p.word] = p.w.Uint64() & Mask(mi.Width)
	default:
		m.mem64[p.mem][p.word] = p.u & Mask(mi.Width)
	}
	m.onMemChange(p.mem)
}

func (m *Machine) onMemChange(mem int) {
	m.combDirty = true
	if m.ChangeHook != nil {
		m.ChangeHook(-1 - mem)
	}
}

// EndStep re-evaluates $monitor units and emits changed lines.
func (m *Machine) EndStep() {
	first := m.prog.Comb + len(m.prog.Seq)
	for i := range m.monLast {
		m.exec(first + i)
		// The unit's OpDisplay appended an event; convert the trailing
		// event into a monitor line only when it changed.
		if len(m.events) == 0 {
			continue
		}
		ev := m.events[len(m.events)-1]
		m.events = m.events[:len(m.events)-1]
		if m.monLast[i] != ev.Text || m.monLast[i] == "" {
			m.monLast[i] = ev.Text
			m.events = append(m.events, ev)
		}
	}
}

// GetState returns every variable as a fresh image in the Flat's layout
// (the one state form of every engine kind).
func (m *Machine) GetState() []uint64 {
	p, l := m.prog, m.prog.Flat.Layout()
	img := make([]uint64, l.Len())
	for _, v := range p.Flat.Vars {
		w := l.Of(img, v.Index)
		if !v.IsArray() {
			if slot := p.VarSlot[v.Index]; p.Slots[slot].Wide {
				copy(w, m.slotVec(slot).Words())
			} else {
				w[0] = m.u64[slot]
			}
			continue
		}
		mem := p.MemOf[v.Index]
		if p.Mems[mem].Wide {
			for _, e := range m.memW[mem] {
				w = w[copy(w, e.Words()):]
			}
		} else {
			copy(w, m.mem64[mem])
		}
	}
	return img
}

// SetState installs an image in the Flat's layout without fabricating
// edges, then schedules a combinational settle.
func (m *Machine) SetState(img []uint64) {
	p, l := m.prog, m.prog.Flat.Layout()
	for _, v := range p.Flat.Vars {
		w, n := l.Of(img, v.Index), bv.WordsFor(v.Width)
		if !v.IsArray() {
			if slot := p.VarSlot[v.Index]; p.Slots[slot].Wide {
				src := bv.Wrap(v.Width, w)
				m.slotVec(slot).CopyFrom(&src)
			} else {
				m.u64[slot] = w[0] & Mask(v.Width)
			}
			continue
		}
		mem := p.MemOf[v.Index]
		if p.Mems[mem].Wide {
			for _, e := range m.memW[mem] {
				src := bv.Wrap(v.Width, w[:n])
				e.CopyFrom(&src)
				w = w[n:]
			}
		} else {
			for j := range m.mem64[mem] {
				m.mem64[mem][j] = w[j] & Mask(v.Width)
			}
		}
	}
	m.settleAfterLoad()
}

// settleAfterLoad follows a raw load of state. State loads happen only
// between time steps: no sequential process may be left triggered by
// the raw slot writes; every combinational unit settles anew.
func (m *Machine) settleAfterLoad() {
	clear(m.seqTrig)
	m.seqPending = false
	m.combDirty = true
}

// exec runs span e until OpHalt, one ExecOp per instruction, each bound
// as it comes.
func (m *Machine) exec(e int) {
	sp := &m.prog.Spans[e]
	m.srcs = m.prog.Sources(sp, m.srcs[:0])
	for pc := 0; ; {
		m.Ops++
		m.in = m.prog.Instr(sp, &sp.Ops[pc], m.srcs)
		switch {
		case m.ExecOp(&m.in):
			pc = int(m.in.Target)
		case m.in.Kind == OpHalt:
			return
		default:
			pc++
		}
	}
}

// ExecOp executes one instruction, bound to the machine's program
// (Program.Instr), and reports whether it was a taken jump; a taken
// jump's Target is its unit's pc. It is the reference meaning of every
// OpKind: bit-vector arithmetic over narrow and wide operands alike,
// computed in place, display/finish side effects, non-blocking write
// capture. The machine's own loop steps nothing else, and a compiled
// backend uses it as the body of any op it does not fuse. It does not
// advance the Ops counter; backends account for their own work.
func (m *Machine) ExecOp(op *Instr) bool {
	if op.Kind <= OpMemRead {
		m.compute(op)
		return false
	}
	srcs := op.Srcs
	get := func(i int) *bv.Vector { return m.slotVec(int(srcs[i])) }
	dst := int(op.Dst)
	switch op.Kind {
	case OpHalt:
		return false
	case OpJump:
		return true
	case OpJz:
		return get(0).IsZero()
	case OpWrite:
		m.writeVar(dst, get(0))
	case OpWriteRng:
		m.writeRng(dst, int(op.Hi), int(op.Lo), get(0))
	case OpWriteBit:
		if i := get(1).Index(m.prog.Slots[dst].Width); i >= 0 {
			m.writeRng(dst, i, i, get(0))
		}
	case OpMemWrite:
		mi := m.prog.Mems[op.Aux]
		if addr := get(1).Index(mi.Words); addr >= 0 {
			changed := false
			if mi.Wide {
				changed = m.memW[op.Aux][addr].CopyFrom(get(0))
			} else if nv := get(0).Uint64() & Mask(mi.Width); m.mem64[op.Aux][addr] != nv {
				m.mem64[op.Aux][addr], changed = nv, true
			}
			if changed {
				m.onMemChange(int(op.Aux))
			}
		}
	case OpWriteNB:
		m.pend(mPending{slot: dst}, get(0))
	case OpWriteRngNB:
		m.pend(mPending{slot: dst, hasRng: true, hi: int(op.Hi), lo: int(op.Lo)}, get(0))
	case OpWriteBitNB:
		if i := get(1).Index(m.prog.Slots[dst].Width); i >= 0 {
			m.pend(mPending{slot: dst, hasRng: true, hi: i, lo: i}, get(0))
		}
	case OpMemWriteNB:
		// An out-of-range address still queues (word -1, dropped at
		// commit), as PendMemWriteNB does: the update batch it causes is
		// billed.
		m.pend(mPending{slot: -1, mem: int(op.Aux), word: get(1).Index(m.prog.Mems[op.Aux].Words)}, get(0))
	case OpDisplay:
		m.display(op)
	case OpFinish:
		m.finished = true
		m.events = append(m.events, DisplayEvent{Finish: true})
	default:
		// Programs come from Compile alone: a kind without a meaning here
		// is a kind someone added without its reference implementation.
		panic(errf("op kind %d has no reference implementation", op.Kind))
	}
	return false
}

// compute executes an instruction with a result, OpConst to OpMemRead:
// it computes at the op's width into out's vector, reading each operand
// zero-extended or truncated to that width (a shift amount, exponent or
// index whole), and stores the result in the destination slot.
func (m *Machine) compute(op *Instr) {
	srcs := op.Srcs
	get := func(i int) *bv.Vector { return m.slotVec(int(srcs[i])) }
	d, width := int(op.Dst), int(op.Width)
	z := m.out(op)
	switch op.Kind {
	case OpConst:
		z.Set(op.Value)
	case OpMove:
		z.Set(get(0))
	case OpAdd:
		z.SetAdd(get(0), get(1))
	case OpSub:
		z.SetSub(get(0), get(1))
	case OpMul:
		z.SetMul(get(0), get(1))
	case OpDiv:
		z.SetDiv(get(0), get(1))
	case OpMod:
		z.SetMod(get(0), get(1))
	case OpPow:
		z.SetPow(get(0), get(1))
	case OpAnd:
		z.SetAnd(get(0), get(1))
	case OpOr:
		z.SetOr(get(0), get(1))
	case OpXor:
		z.SetXor(get(0), get(1))
	case OpXnor:
		z.SetXnor(get(0), get(1))
	case OpNot:
		z.SetNot(get(0))
	case OpNeg:
		z.SetNeg(get(0))
	case OpLogNot, OpRedNor:
		z.SetBool(get(0).IsZero())
	case OpRedAnd:
		z.SetRedAnd(get(0))
	case OpRedOr:
		z.SetRedOr(get(0))
	case OpRedXor:
		z.SetRedXor(get(0))
	case OpRedNand:
		z.SetBool(z.SetRedAnd(get(0)).IsZero())
	case OpRedXnor:
		z.SetBool(z.SetRedXor(get(0)).IsZero())
	case OpEq:
		z.SetBool(get(0).Equal(get(1)))
	case OpNe:
		z.SetBool(!get(0).Equal(get(1)))
	case OpLt:
		z.SetBool(get(0).Cmp(get(1)) < 0)
	case OpLe:
		z.SetBool(get(0).Cmp(get(1)) <= 0)
	case OpGt:
		z.SetBool(get(0).Cmp(get(1)) > 0)
	case OpGe:
		z.SetBool(get(0).Cmp(get(1)) >= 0)
	case OpLogAnd:
		z.SetBool(get(0).Bool() && get(1).Bool())
	case OpLogOr:
		z.SetBool(get(0).Bool() || get(1).Bool())
	case OpShl:
		z.SetShl(get(0), get(1).Index(width))
	case OpShr: // the operand is truncated to the op's width before it shifts
		n := get(1).Index(width)
		z.Set(get(0)).SetShr(z, n)
	case OpSlice:
		z.SetShr(get(0), int(op.Lo))
	case OpBitSel:
		v := get(0)
		i := get(1).Index(v.Width()) // -1 reads as 0, like any bit out of range
		z.SetBool(v.Bit(i) == 1)
	case OpConcat: // the last source lowest
		z.SetUint64(0)
		for i, lo := len(srcs)-1, 0; i >= 0; i-- {
			v := get(i)
			z.SetSlice(lo+v.Width()-1, lo, v)
			lo += v.Width()
		}
	case OpRepl:
		z.SetRepl(get(0))
	case OpMux:
		if get(0).Bool() {
			z.Set(get(1))
		} else {
			z.Set(get(2))
		}
	case OpTime:
		if z.SetUint64(0); m.NowFn != nil {
			z.SetUint64(m.NowFn())
		}
	case OpMemRead:
		mi := m.prog.Mems[op.Aux]
		switch addr := get(0).Index(mi.Words); {
		case addr < 0:
			z.SetUint64(0)
		case mi.Wide:
			z.Set(m.memW[op.Aux][addr])
		default:
			z.SetUint64(m.mem64[op.Aux][addr])
		}
	}
	if s := m.prog.Slots[d]; s.Wide {
		m.slotVec(d).CopyFrom(z) // nothing to copy when z is the slot's own
	} else {
		m.u64[d] = z.Uint64() & Mask(s.Width)
	}
}

// out returns the vector op computes its result into: its destination
// slot's own (a wide slot's value, a narrow slot's scratch) when that
// has the op's width, as a compiled instruction's always has, and when
// the op is no concat reading its destination (a concat builds in
// place from its low end up); else the machine's spare, which compute
// then copies into the destination, truncated or zero-extended.
func (m *Machine) out(op *Instr) *bv.Vector {
	d := int(op.Dst)
	if m.prog.Slots[d].Width == int(op.Width) && (op.Kind != OpConcat || !slices.Contains(op.Srcs, op.Dst)) {
		return m.slotVec(d)
	}
	m.spare = bv.Reuse(m.spare, int(op.Width))
	return m.spare
}

// display formats a display task's operands, lent (slotVec), into an
// event.
func (m *Machine) display(op *Instr) {
	task := op.Task
	m.args = m.args[:0]
	for _, s := range op.Srcs {
		m.args = append(m.args, m.slotVec(int(s)))
	}
	var text string
	if task.Src.Format == "" {
		for i, v := range m.args {
			if i > 0 {
				text += " "
			}
			text += v.Dec()
		}
	} else {
		text = sim.FormatDisplay(task.Src.Format, m.args, m.prog.Flat.Name)
	}
	m.events = append(m.events, DisplayEvent{
		Text:    text,
		Newline: task.Src.Kind != elab.TaskWrite,
	})
}

// B2U converts a comparison result to a lane value.
func B2U(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// PowMod computes x**y mod 2^64 by binary exponentiation.
func PowMod(x, y uint64) uint64 {
	var r uint64 = 1
	for y > 0 {
		if y&1 != 0 {
			r *= x
		}
		x *= x
		y >>= 1
	}
	return r
}
