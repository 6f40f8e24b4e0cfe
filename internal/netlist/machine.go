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

// NewMachine loads a program into a fresh machine and applies the reset
// state (initial register contents from the bitstream).
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
	m.Reset()
	return m
}

// Prog returns the loaded program.
func (m *Machine) Prog() *Program { return m.prog }

// Reset applies the bitstream's initial state and schedules a full
// combinational pass.
func (m *Machine) Reset() {
	st := &sim.State{Scalars: m.prog.ResetState, Arrays: m.prog.ResetMems}
	m.SetState(st)
	m.finished = false
	m.pending = nil
}

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

// GetState snapshots all variables into a sim.State (shared snapshot
// format across engine kinds).
func (m *Machine) GetState() *sim.State {
	st := &sim.State{Scalars: map[string]*bv.Vector{}, Arrays: map[string][]*bv.Vector{}}
	for _, v := range m.prog.Flat.Vars {
		if v.IsArray() {
			idx := m.prog.MemOf[v.Index]
			words := make([]*bv.Vector, v.ArrayLen)
			for j := 0; j < v.ArrayLen; j++ {
				if m.prog.Mems[idx].Wide {
					words[j] = m.memW[idx][j].Clone()
				} else {
					words[j] = bv.FromUint64(v.Width, m.mem64[idx][j])
				}
			}
			st.Arrays[v.Name] = words
			continue
		}
		st.Scalars[v.Name] = m.slotVecOwned(m.prog.VarSlot[v.Index])
	}
	return st
}

// SetState installs a snapshot without fabricating edges, then schedules
// a combinational settle.
func (m *Machine) SetState(st *sim.State) {
	for _, v := range m.prog.Flat.Vars {
		if v.IsArray() {
			words, ok := st.Arrays[v.Name]
			if !ok {
				continue
			}
			idx := m.prog.MemOf[v.Index]
			for j := 0; j < len(words) && j < v.ArrayLen; j++ {
				if m.prog.Mems[idx].Wide {
					m.memW[idx][j].CopyFrom(words[j])
				} else {
					m.mem64[idx][j] = words[j].Uint64() & Mask(v.Width)
				}
			}
			continue
		}
		val, ok := st.Scalars[v.Name]
		if !ok {
			continue
		}
		slot := m.prog.VarSlot[v.Index]
		if m.wide[slot] != nil {
			m.wide[slot].CopyFrom(val)
		} else {
			m.u64[slot] = val.Uint64() & Mask(v.Width)
		}
	}
	// State loads happen only between time steps: no sequential process
	// may be left triggered by the raw slot writes above.
	for i := range m.seqTrig {
		m.seqTrig[i] = false
	}
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
			pc = op.Target
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
	get := func(i int) *bv.Vector { return m.slotVec(op.Srcs[i]) }
	switch op.Kind {
	case OpHalt:
		return false
	case OpJump:
		return true
	case OpJz:
		return get(0).IsZero()
	case OpConst:
		m.setSlotRaw(op.Dst, op.Const)
	case OpMove:
		m.setSlotRaw(op.Dst, get(0).Resize(op.Width))
	case OpAdd:
		m.setSlotRaw(op.Dst, get(0).Resize(op.Width).Add(get(1).Resize(op.Width)))
	case OpSub:
		m.setSlotRaw(op.Dst, get(0).Resize(op.Width).Sub(get(1).Resize(op.Width)))
	case OpMul:
		m.setSlotRaw(op.Dst, get(0).Resize(op.Width).Mul(get(1).Resize(op.Width)))
	case OpDiv:
		m.setSlotRaw(op.Dst, get(0).Resize(op.Width).Div(get(1).Resize(op.Width)))
	case OpMod:
		m.setSlotRaw(op.Dst, get(0).Resize(op.Width).Mod(get(1).Resize(op.Width)))
	case OpPow:
		m.setSlotRaw(op.Dst, get(0).Resize(op.Width).Pow(get(1)))
	case OpAnd:
		m.setSlotRaw(op.Dst, get(0).Resize(op.Width).And(get(1).Resize(op.Width)))
	case OpOr:
		m.setSlotRaw(op.Dst, get(0).Resize(op.Width).Or(get(1).Resize(op.Width)))
	case OpXor:
		m.setSlotRaw(op.Dst, get(0).Resize(op.Width).Xor(get(1).Resize(op.Width)))
	case OpXnor:
		m.setSlotRaw(op.Dst, get(0).Resize(op.Width).Xnor(get(1).Resize(op.Width)))
	case OpNot:
		m.setSlotRaw(op.Dst, get(0).Resize(op.Width).Not())
	case OpNeg:
		m.setSlotRaw(op.Dst, get(0).Resize(op.Width).Neg())
	case OpLogNot:
		m.setSlotRaw(op.Dst, bv.FromBool(get(0).IsZero()))
	case OpRedAnd:
		m.setSlotRaw(op.Dst, get(0).RedAnd())
	case OpRedOr:
		m.setSlotRaw(op.Dst, get(0).RedOr())
	case OpRedXor:
		m.setSlotRaw(op.Dst, get(0).RedXor())
	case OpRedNand:
		m.setSlotRaw(op.Dst, bv.FromBool(!get(0).RedAnd().Bool()))
	case OpRedNor:
		m.setSlotRaw(op.Dst, bv.FromBool(get(0).IsZero()))
	case OpRedXnor:
		m.setSlotRaw(op.Dst, bv.FromBool(!get(0).RedXor().Bool()))
	case OpEq:
		m.setSlotRaw(op.Dst, bv.FromBool(get(0).Equal(get(1))))
	case OpNe:
		m.setSlotRaw(op.Dst, bv.FromBool(!get(0).Equal(get(1))))
	case OpLt:
		m.setSlotRaw(op.Dst, bv.FromBool(get(0).Cmp(get(1)) < 0))
	case OpLe:
		m.setSlotRaw(op.Dst, bv.FromBool(get(0).Cmp(get(1)) <= 0))
	case OpGt:
		m.setSlotRaw(op.Dst, bv.FromBool(get(0).Cmp(get(1)) > 0))
	case OpGe:
		m.setSlotRaw(op.Dst, bv.FromBool(get(0).Cmp(get(1)) >= 0))
	case OpLogAnd:
		m.setSlotRaw(op.Dst, bv.FromBool(get(0).Bool() && get(1).Bool()))
	case OpLogOr:
		m.setSlotRaw(op.Dst, bv.FromBool(get(0).Bool() || get(1).Bool()))
	case OpShl:
		m.setSlotRaw(op.Dst, get(0).Resize(op.Width).Shl(get(1)))
	case OpShr:
		m.setSlotRaw(op.Dst, get(0).Resize(op.Width).Shr(get(1)))
	case OpSlice:
		m.setSlotRaw(op.Dst, get(0).Slice(op.Hi, op.Lo))
	case OpBitSel:
		v := get(0)
		i := get(1).Index(v.Width()) // -1 reads as 0, like any bit out of range
		m.setSlotRaw(op.Dst, bv.FromUint64(1, uint64(v.Bit(i))))
	case OpConcat:
		acc := get(0).Clone()
		for i := 1; i < len(op.Srcs); i++ {
			acc = acc.Concat(get(i))
		}
		m.setSlotRaw(op.Dst, acc)
	case OpRepl:
		m.setSlotRaw(op.Dst, get(0).Repl(op.N))
	case OpMux:
		if get(0).Bool() {
			m.setSlotRaw(op.Dst, get(1).Resize(op.Width))
		} else {
			m.setSlotRaw(op.Dst, get(2).Resize(op.Width))
		}
	case OpTime:
		if m.NowFn != nil {
			m.setSlotRaw(op.Dst, bv.FromUint64(64, m.NowFn()))
		} else {
			m.setSlotRaw(op.Dst, bv.New(64))
		}
	case OpMemRead:
		mi := m.prog.Mems[op.Aux]
		addr := get(0).Index(mi.Words)
		switch {
		case addr < 0:
			m.setSlotRaw(op.Dst, bv.New(mi.Width))
		case mi.Wide:
			m.setSlotRaw(op.Dst, m.memW[op.Aux][addr])
		default:
			m.setSlotRaw(op.Dst, bv.FromUint64(mi.Width, m.mem64[op.Aux][addr]))
		}
	case OpWrite:
		m.writeVarSlot(op.Dst, 0, get(0))
	case OpWriteRng:
		cur := m.slotVecOwned(op.Dst)
		if cur.SetSlice(op.Hi, op.Lo, get(0)) {
			m.writeVarSlot(op.Dst, 0, cur)
		}
	case OpWriteBit:
		if i := get(1).Index(m.prog.Slots[op.Dst].Width); i >= 0 {
			cur := m.slotVecOwned(op.Dst)
			if cur.SetSlice(i, i, get(0)) {
				m.writeVarSlot(op.Dst, 0, cur)
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
				m.onMemChange(op.Aux)
			}
		}
	case OpWriteNB:
		m.pending = append(m.pending, mPending{slot: op.Dst, w: get(0).Clone()})
	case OpWriteRngNB:
		m.pending = append(m.pending, mPending{slot: op.Dst, hasRng: true, hi: op.Hi, lo: op.Lo, w: get(0).Clone()})
	case OpWriteBitNB:
		if i := get(1).Index(m.prog.Slots[op.Dst].Width); i >= 0 {
			m.pending = append(m.pending, mPending{slot: op.Dst, hasRng: true, hi: i, lo: i, w: get(0).Clone()})
		}
	case OpMemWriteNB:
		// An out-of-range address still queues (word -1, dropped at
		// commit), as PendMemWriteNB does: the update batch it causes is
		// billed.
		m.pending = append(m.pending, mPending{slot: -1, mem: op.Aux, word: get(1).Index(m.prog.Mems[op.Aux].Words), w: get(0).Clone()})
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
	vals := make([]*bv.Vector, len(op.Srcs))
	for i, s := range op.Srcs {
		vals[i] = m.slotVecOwned(s)
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
