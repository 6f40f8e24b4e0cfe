package netlist

import (
	bv "cascade/internal/bits"
	"cascade/internal/elab"
)

// This file is the contract between the Machine and compiled backends
// (internal/njit). A backend shares the Machine's packed state — it
// reads and writes the same word lanes and wide vectors the reference
// path uses — so the two can interleave mid-run, and any op a
// backend chooses not to compile can fall back to the reference path,
// Machine.ExecOp, one instruction at a time.

// Hooks exposes direct references to a Machine's packed state. Slices
// are the live backing stores (never reallocated after NewMachine) and
// the vector pointers in Wide/MemW are stable for the life of the
// machine, so a compiled backend may capture entries in closures.
type Hooks struct {
	U64   []uint64     // narrow slot lanes
	Wide  []*bv.Vector // wide slot values (nil for narrow slots)
	Mem64 [][]uint64
	MemW  [][]*bv.Vector

	SeqTrig    []bool // per sequential process trigger flags
	CombDirty  *bool
	SeqPending *bool
}

// Hooks returns direct references to m's packed state for a compiled
// backend. The backend and the reference path stay coherent because they
// share storage; callers must not use them from concurrent goroutines.
func (m *Machine) Hooks() Hooks {
	return Hooks{
		U64:        m.u64,
		Wide:       m.wide,
		Mem64:      m.mem64,
		MemW:       m.memW,
		SeqTrig:    m.seqTrig,
		CombDirty:  &m.combDirty,
		SeqPending: &m.seqPending,
	}
}

// EdgeHooksFor returns the indices of the sequential processes watching
// the given slot for positive and negative edges, in trigger order. A
// compiled backend inlines these lists into its write closures instead
// of walking the hook list per write.
func (m *Machine) EdgeHooksFor(slot int) (pos, neg []int) {
	for _, h := range m.edgeList[slot] {
		switch h.kind {
		case elab.Pos:
			pos = append(pos, h.proc)
		case elab.Neg:
			neg = append(neg, h.proc)
		}
	}
	return pos, neg
}

// PendWriteNB queues a narrow non-blocking slot write for the next
// Update batch (backend analogue of OpWriteNB).
func (m *Machine) PendWriteNB(slot int, u uint64) {
	m.pending = append(m.pending, mPending{slot: slot, u: u})
}

// PendWriteRngNB queues a narrow non-blocking range write for the next
// Update batch (backend analogue of OpWriteRngNB/OpWriteBitNB).
func (m *Machine) PendWriteRngNB(slot, hi, lo int, u uint64) {
	m.pending = append(m.pending, mPending{slot: slot, hasRng: true, hi: hi, lo: lo, u: u})
}

// PendMemWriteNB queues a narrow non-blocking memory write for the next
// Update batch (backend analogue of OpMemWriteNB).
func (m *Machine) PendMemWriteNB(mem, word int, u uint64) {
	m.pending = append(m.pending, mPending{slot: -1, mem: mem, word: word, u: u})
}
