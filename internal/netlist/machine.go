package netlist

import (
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

	u64   []uint64     // narrow slot values
	wide  []*bv.Vector // wide slot values (nil for narrow slots)
	mem64 [][]uint64
	memW  [][]*bv.Vector

	combDirty  bool
	seqTrig    []bool
	seqPending bool
	edgeList   [][]edgeHook // slot -> interested seq procs

	pending  []mPending
	events   []DisplayEvent
	monLast  []string
	finished bool

	// scratch holds one lazily-allocated vector per narrow slot so
	// slotVec can materialize transient reads without allocating.
	scratch []*bv.Vector

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

type edgeHook struct {
	proc int
	kind elab.EdgeKind
}

type mPending struct {
	slot   int // -1 for memory writes
	mem    int
	word   int
	hasRng bool
	hi, lo int
	// The value: w when the reference path queued the write, else the
	// word u a compiled backend queued through the Pend* calls.
	u uint64
	w *bv.Vector
}

// NewMachine loads a program into a fresh machine and sets its state to
// the program's reset image (initial register contents from the bitstream).
func NewMachine(p *Program) *Machine {
	m := &Machine{
		prog:     p,
		u64:      make([]uint64, len(p.Slots)),
		wide:     make([]*bv.Vector, len(p.Slots)),
		seqTrig:  make([]bool, len(p.Seq)),
		edgeList: make([][]edgeHook, len(p.Slots)),
		monLast:  make([]string, len(p.Monitors)),
		scratch:  make([]*bv.Vector, len(p.Slots)),
	}
	for i, s := range p.Slots {
		if s.Wide {
			m.wide[i] = bv.New(s.Width)
		}
	}
	m.mem64 = make([][]uint64, len(p.Mems))
	m.memW = make([][]*bv.Vector, len(p.Mems))
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
	for pi, sp := range p.Seq {
		for _, e := range sp.Edges {
			slot := p.VarSlot[e.Var.Index]
			m.edgeList[slot] = append(m.edgeList[slot], edgeHook{proc: pi, kind: e.Kind})
		}
	}
	m.SetState(p.Reset)
	return m
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

// slotVec materializes a slot as a bit vector. The result is borrowed:
// wide slots return the live backing vector, narrow slots return a
// per-slot scratch vector that stays valid only until the next read of
// the same slot. Callers that retain the value must Clone it (or use
// slotVecOwned).
func (m *Machine) slotVec(i int) *bv.Vector {
	if m.wide[i] != nil {
		return m.wide[i]
	}
	s := m.scratch[i]
	if s == nil {
		s = bv.New(m.prog.Slots[i].Width)
		m.scratch[i] = s
	}
	s.SetUint64(m.u64[i])
	return s
}

// slotVecOwned materializes a slot as a freshly-allocated vector the
// caller may retain and mutate.
func (m *Machine) slotVecOwned(i int) *bv.Vector {
	if m.wide[i] != nil {
		return m.wide[i].Clone()
	}
	return bv.FromUint64(m.prog.Slots[i].Width, m.u64[i])
}

// setSlotRaw stores a value without change detection (temporaries).
func (m *Machine) setSlotRaw(i int, v *bv.Vector) {
	if m.wide[i] != nil {
		m.wide[i].CopyFrom(v)
		return
	}
	m.u64[i] = v.Uint64() & Mask(m.prog.Slots[i].Width)
}

// writeVarSlot stores into a variable-backed slot with change detection,
// marking combinational logic dirty and firing edge triggers. The value
// is newW when that is non-nil, else the word newU; either is truncated
// or zero-extended to the slot.
func (m *Machine) writeVarSlot(i int, newU uint64, newW *bv.Vector) bool {
	if m.wide[i] != nil {
		if newW == nil {
			newW = bv.FromUint64(64, newU)
		}
		oldLSB := m.wide[i].Bit(0)
		if !m.wide[i].CopyFrom(newW) {
			return false
		}
		m.onVarChange(i, oldLSB, m.wide[i].Bit(0))
		return true
	}
	if newW != nil {
		newU = newW.Uint64()
	}
	newU &= Mask(m.prog.Slots[i].Width)
	old := m.u64[i]
	if old == newU {
		return false
	}
	m.u64[i] = newU
	m.onVarChange(i, uint(old&1), uint(newU&1))
	return true
}

func (m *Machine) onVarChange(slot int, oldLSB, newLSB uint) {
	m.combDirty = true
	if m.ChangeHook != nil {
		m.ChangeHook(slot)
	}
	for _, h := range m.edgeList[slot] {
		if (h.kind == elab.Pos && oldLSB == 0 && newLSB == 1) ||
			(h.kind == elab.Neg && oldLSB == 1 && newLSB == 0) {
			m.seqTrig[h.proc] = true
			m.seqPending = true
		}
	}
}

// SetInput drives an input variable (engine ABI read).
func (m *Machine) SetInput(v *elab.Var, val *bv.Vector) {
	m.writeVarSlot(m.prog.VarSlot[v.Index], 0, val)
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
					m.exec(m.prog.Seq[i].Entry)
				}
			}
		}
		if m.combDirty {
			m.combDirty = false
			for _, u := range m.prog.Comb {
				m.exec(u.Entry)
			}
		}
	}
	if worked {
		m.Cycles++
	}
}

// Update commits queued non-blocking writes (the update batch).
func (m *Machine) Update() {
	pend := m.pending
	m.pending = nil
	for _, p := range pend {
		switch {
		case p.slot < 0:
			m.commitMem(p)
		case p.hasRng:
			val := p.w
			if val == nil {
				val = bv.FromUint64(p.hi-p.lo+1, p.u)
			}
			cur := m.slotVecOwned(p.slot)
			if cur.SetSlice(p.hi, p.lo, val) {
				m.writeVarSlot(p.slot, 0, cur)
			}
		default:
			m.writeVarSlot(p.slot, p.u, p.w)
		}
	}
}

// commitMem stores a queued memory word. The value's form follows the
// queuing path, not the memory: the reference path queues a vector even
// for a memory of 64 bits or less (a wide address flags the op Wide).
func (m *Machine) commitMem(p mPending) {
	mi := m.prog.Mems[p.mem]
	if p.word < 0 || p.word >= mi.Words {
		return
	}
	switch {
	case mi.Wide:
		m.memW[p.mem][p.word].CopyFrom(p.w)
	case p.w != nil:
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
	for i, mon := range m.prog.Monitors {
		m.exec(mon.Entry)
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
			if slot := p.VarSlot[v.Index]; m.wide[slot] != nil {
				copy(w, m.wide[slot].Words())
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
			if slot := p.VarSlot[v.Index]; m.wide[slot] != nil {
				src := bv.Wrap(v.Width, w)
				m.wide[slot].CopyFrom(&src)
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

// exec runs compiled code starting at pc until OpHalt, one ExecOp per
// instruction.
func (m *Machine) exec(pc int) {
	code := m.prog.Code
	for {
		op := &code[pc]
		m.Ops++
		switch {
		case m.ExecOp(op):
			pc = int(op.Target)
		case op.Kind == OpHalt:
			return
		default:
			pc++
		}
	}
}

// ExecOp executes one instruction and reports whether it was a taken
// jump. It is the reference meaning of every OpKind: bit-vector
// arithmetic over narrow and wide operands alike, display/finish side
// effects, non-blocking write capture. The machine's own loop steps
// nothing else, and a compiled backend uses it as the body of any op it
// does not fuse. It does not advance the Ops counter; backends account
// for their own work.
func (m *Machine) ExecOp(op *Op) bool {
	srcs := m.prog.Srcs(op)
	get := func(i int) *bv.Vector { return m.slotVec(int(srcs[i])) }
	dst, width := int(op.Dst), int(op.Width)
	switch op.Kind {
	case OpHalt:
		return false
	case OpJump:
		return true
	case OpJz:
		return get(0).IsZero()
	case OpConst:
		m.setSlotRaw(dst, m.prog.Consts[op.Const])
	case OpMove:
		m.setSlotRaw(dst, get(0).Resize(width))
	case OpAdd:
		m.setSlotRaw(dst, get(0).Resize(width).Add(get(1).Resize(width)))
	case OpSub:
		m.setSlotRaw(dst, get(0).Resize(width).Sub(get(1).Resize(width)))
	case OpMul:
		m.setSlotRaw(dst, get(0).Resize(width).Mul(get(1).Resize(width)))
	case OpDiv:
		m.setSlotRaw(dst, get(0).Resize(width).Div(get(1).Resize(width)))
	case OpMod:
		m.setSlotRaw(dst, get(0).Resize(width).Mod(get(1).Resize(width)))
	case OpPow:
		m.setSlotRaw(dst, get(0).Resize(width).Pow(get(1)))
	case OpAnd:
		m.setSlotRaw(dst, get(0).Resize(width).And(get(1).Resize(width)))
	case OpOr:
		m.setSlotRaw(dst, get(0).Resize(width).Or(get(1).Resize(width)))
	case OpXor:
		m.setSlotRaw(dst, get(0).Resize(width).Xor(get(1).Resize(width)))
	case OpXnor:
		m.setSlotRaw(dst, get(0).Resize(width).Xnor(get(1).Resize(width)))
	case OpNot:
		m.setSlotRaw(dst, get(0).Resize(width).Not())
	case OpNeg:
		m.setSlotRaw(dst, get(0).Resize(width).Neg())
	case OpLogNot:
		m.setSlotRaw(dst, bv.FromBool(get(0).IsZero()))
	case OpRedAnd:
		m.setSlotRaw(dst, get(0).RedAnd())
	case OpRedOr:
		m.setSlotRaw(dst, get(0).RedOr())
	case OpRedXor:
		m.setSlotRaw(dst, get(0).RedXor())
	case OpRedNand:
		m.setSlotRaw(dst, bv.FromBool(!get(0).RedAnd().Bool()))
	case OpRedNor:
		m.setSlotRaw(dst, bv.FromBool(get(0).IsZero()))
	case OpRedXnor:
		m.setSlotRaw(dst, bv.FromBool(!get(0).RedXor().Bool()))
	case OpEq:
		m.setSlotRaw(dst, bv.FromBool(get(0).Equal(get(1))))
	case OpNe:
		m.setSlotRaw(dst, bv.FromBool(!get(0).Equal(get(1))))
	case OpLt:
		m.setSlotRaw(dst, bv.FromBool(get(0).Cmp(get(1)) < 0))
	case OpLe:
		m.setSlotRaw(dst, bv.FromBool(get(0).Cmp(get(1)) <= 0))
	case OpGt:
		m.setSlotRaw(dst, bv.FromBool(get(0).Cmp(get(1)) > 0))
	case OpGe:
		m.setSlotRaw(dst, bv.FromBool(get(0).Cmp(get(1)) >= 0))
	case OpLogAnd:
		m.setSlotRaw(dst, bv.FromBool(get(0).Bool() && get(1).Bool()))
	case OpLogOr:
		m.setSlotRaw(dst, bv.FromBool(get(0).Bool() || get(1).Bool()))
	case OpShl:
		m.setSlotRaw(dst, get(0).Resize(width).Shl(get(1)))
	case OpShr:
		m.setSlotRaw(dst, get(0).Resize(width).Shr(get(1)))
	case OpSlice:
		m.setSlotRaw(dst, get(0).Slice(int(op.Hi), int(op.Lo)))
	case OpBitSel:
		v := get(0)
		i := get(1).Index(v.Width()) // -1 reads as 0, like any bit out of range
		m.setSlotRaw(dst, bv.FromUint64(1, uint64(v.Bit(i))))
	case OpConcat:
		acc := get(0).Clone()
		for i := 1; i < len(srcs); i++ {
			acc = acc.Concat(get(i))
		}
		m.setSlotRaw(dst, acc)
	case OpRepl:
		m.setSlotRaw(dst, get(0).Repl(int(op.N)))
	case OpMux:
		if get(0).Bool() {
			m.setSlotRaw(dst, get(1).Resize(width))
		} else {
			m.setSlotRaw(dst, get(2).Resize(width))
		}
	case OpTime:
		if m.NowFn != nil {
			m.setSlotRaw(dst, bv.FromUint64(64, m.NowFn()))
		} else {
			m.setSlotRaw(dst, bv.New(64))
		}
	case OpMemRead:
		mi := m.prog.Mems[op.Aux]
		addr := get(0).Index(mi.Words)
		switch {
		case addr < 0:
			m.setSlotRaw(dst, bv.New(mi.Width))
		case mi.Wide:
			m.setSlotRaw(dst, m.memW[op.Aux][addr])
		default:
			m.setSlotRaw(dst, bv.FromUint64(mi.Width, m.mem64[op.Aux][addr]))
		}
	case OpWrite:
		m.writeVarSlot(dst, 0, get(0))
	case OpWriteRng:
		cur := m.slotVecOwned(dst)
		if cur.SetSlice(int(op.Hi), int(op.Lo), get(0)) {
			m.writeVarSlot(dst, 0, cur)
		}
	case OpWriteBit:
		if i := get(1).Index(m.prog.Slots[dst].Width); i >= 0 {
			cur := m.slotVecOwned(dst)
			if cur.SetSlice(i, i, get(0)) {
				m.writeVarSlot(dst, 0, cur)
			}
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
		m.pending = append(m.pending, mPending{slot: dst, w: get(0).Clone()})
	case OpWriteRngNB:
		m.pending = append(m.pending, mPending{slot: dst, hasRng: true, hi: int(op.Hi), lo: int(op.Lo), w: get(0).Clone()})
	case OpWriteBitNB:
		if i := get(1).Index(m.prog.Slots[dst].Width); i >= 0 {
			m.pending = append(m.pending, mPending{slot: dst, hasRng: true, hi: i, lo: i, w: get(0).Clone()})
		}
	case OpMemWriteNB:
		// An out-of-range address still queues (word -1, dropped at
		// commit), as PendMemWriteNB does: the update batch it causes is
		// billed.
		m.pending = append(m.pending, mPending{slot: -1, mem: int(op.Aux), word: get(1).Index(m.prog.Mems[op.Aux].Words), w: get(0).Clone()})
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

func (m *Machine) display(op *Op) {
	task := m.prog.Tasks[op.Aux]
	srcs := m.prog.Srcs(op)
	vals := make([]*bv.Vector, len(srcs))
	for i, s := range srcs {
		vals[i] = m.slotVecOwned(int(s))
	}
	var text string
	if task.Src.Format == "" {
		for i, v := range vals {
			if i > 0 {
				text += " "
			}
			text += v.Dec()
		}
	} else {
		text = sim.FormatDisplay(task.Src.Format, vals, m.prog.Flat.Name)
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
