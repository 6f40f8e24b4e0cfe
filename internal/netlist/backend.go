package netlist

// This file is the contract between the Machine and compiled backends
// (internal/njit). A backend shares the Machine's packed state — it
// reads and writes the same word lanes the reference path uses — so the
// two can interleave mid-run, and any op a
// backend chooses not to compile can fall back to the reference path,
// Machine.ExecOp, one instruction at a time.

// Hooks exposes direct references to a Machine's packed state. Slices
// are the live backing stores, never reallocated after NewMachine, so a
// compiled backend may capture them in closures. A wide slot or memory
// word has no lane: a backend runs the instructions that touch one on
// the reference path.
type Hooks struct {
	U64   []uint64 // narrow slot lanes
	Mem64 [][]uint64

	// The sequential processes watching slot i for an edge are
	// Edges[EdgeAt[i]:EdgeAt[i+1]], each entry a process index<<1, | 1
	// for a posedge: the machine's own edge-watcher table.
	EdgeAt []uint32
	Edges  []int32

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
		Mem64:      m.mem64,
		EdgeAt:     m.edgeAt,
		Edges:      m.edges,
		SeqTrig:    m.seqTrig,
		CombDirty:  &m.combDirty,
		SeqPending: &m.seqPending,
	}
}

// PendWriteNB queues a narrow non-blocking slot write for the next
// Update batch (backend analogue of OpWriteNB).
func (m *Machine) PendWriteNB(slot int, u uint64) {
	m.pend(mPending{slot: slot, u: u}, nil)
}

// PendWriteRngNB queues a narrow non-blocking range write for the next
// Update batch (backend analogue of OpWriteRngNB/OpWriteBitNB).
func (m *Machine) PendWriteRngNB(slot, hi, lo int, u uint64) {
	m.pend(mPending{slot: slot, hasRng: true, hi: hi, lo: lo, u: u}, nil)
}

// PendMemWriteNB queues a narrow non-blocking memory write for the next
// Update batch (backend analogue of OpMemWriteNB).
func (m *Machine) PendMemWriteNB(mem, word int, u uint64) {
	m.pend(mPending{slot: -1, mem: mem, word: word, u: u}, nil)
}
