// Package netlist synthesizes an elaborated subprogram into a word-level
// RTL netlist — the "bitstream" executed by Cascade-Go's simulated FPGA —
// and provides the Machine that holds a loaded program's state and gives
// every instruction its reference meaning.
//
// Compilation levelizes combinational logic (continuous assignments, @*
// and level-sensitive processes) into a feed-forward instruction schedule
// and lowers every process body to a small register machine with jump
// instructions. A program is linked from units. Each unit's code is an
// immutable record in unit form (UnitCode): its temporaries count from
// 0, its jumps and tasks from its own first, and a variable or memory is
// named by its place in the unit's variable list, so the record does not
// depend on where a program places it. A Span binds one record to one
// program: the variable list in the program's numbering, and where the
// unit's temporaries and tasks start. CompileFrom hands a unit whose
// elaboration was relocated (elab.ElaborateFrom keeps its identity) its
// base program's record by pointer instead of compiling it again, so a
// REPL eval pays for what it added — the rest it binds — and the result
// is the program Compile would build from scratch.
//
// An instruction (Op) holds no pointer — its sources are a span of its
// record's source arena, its constant an index into the record's
// constant table — and the reset state is a word image Machine.Reset
// copies. Values at or below 64 bits are stored in uint64 lanes, wider
// ones as bits.Vector. Operands resolve through the binding (Slot, Mem,
// Sources, Instr) as code is run or compiled: Machine.ExecOp computes on the bound form as
// bit vectors, and the fast execution of a program is internal/njit's
// compiled form over the same storage, resolved once as it compiles.
// The package also derives the area and critical-path statistics that
// the blackbox toolchain model (internal/toolchain) uses for
// compile-latency, fit, and timing-closure decisions.
//
// Observable-state equivalence between the Machine and the reference
// event-driven interpreter (internal/sim) is the load-bearing invariant of
// the whole system; it is property-tested in equiv_test.go.
package netlist

import (
	"crypto/sha256"
	"fmt"

	"cascade/internal/bits"
	"cascade/internal/elab"
)

// OpKind enumerates netlist instructions.
type OpKind uint8

// Instruction kinds.
const (
	OpConst OpKind = iota // dst = const
	OpMove                // dst = resize(src0, width)
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpPow
	OpAnd
	OpOr
	OpXor
	OpXnor
	OpNot    // bitwise complement
	OpNeg    // two's complement negate
	OpLogNot // dst = (src0 == 0)
	OpRedAnd
	OpRedOr
	OpRedXor
	OpRedNand
	OpRedNor
	OpRedXnor
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpLogAnd
	OpLogOr
	OpShl // dynamic shift amount in src1
	OpShr
	OpSlice    // dst = src0[hi:lo]
	OpBitSel   // dst = src0[src1], 0 if out of range
	OpConcat   // dst = {srcs...}, MSB first
	OpRepl     // dst = {n{src0}}
	OpMux      // dst = src0 ? src1 : src2
	OpTime     // dst = virtual time
	OpMemRead  // dst = mem[src0]
	OpJump     // pc = Target
	OpJz       // if src0 == 0 then pc = Target
	OpWrite    // write full var slot Dst from src0 (blocking)
	OpWriteRng // write var slot bits [hi:lo] from src0 (blocking)
	OpWriteBit // write var slot bit [src1] from src0 (blocking)
	OpMemWrite // mem[src1] = src0 (blocking)
	OpWriteNB  // non-blocking variants: queue for Update
	OpWriteRngNB
	OpWriteBitNB
	OpMemWriteNB
	OpDisplay // emit task Aux with captured args
	OpFinish
	OpHalt // end of a compiled body; stays last (njit's TestOpSemanticsAgree ranges up to it)
)

// Op is one netlist instruction, in unit form, the one form code takes:
// every program's code is its linked units' records. Fields are
// interpreted per kind. It holds no pointer, so a unit's code is one
// block the collector never scans: its sources are a span of its
// record's source arena (Operands) and its constant an index into the
// record's constant table (Consts). A slot reference (Dst, a source) >= 0
// is a temporary of the unit, < 0 is the variable of its list entry -1-s;
// a memory reference (Aux) is a variable the same way; Target and a
// display's Aux count from the unit's first instruction and task.
type Op struct {
	Kind   OpKind
	Wide   bool  // any operand or result wider than 64 bits
	Dst    int32 // destination slot (or variable slot for writes)
	Width  int32 // result width
	Hi, Lo int32 // slice / ranged write bounds
	N      int32 // replication count
	Target int32 // jump target pc
	Aux    int32 // task index (display), mem index (mem ops)
	Src    int32 // first source: Operands[Src : Src+NSrcs]
	NSrcs  int32
	Const  int32 // Consts index of an OpConst's value; -1 for every other kind
}

// Task is a system task compiled into the netlist.
type Task struct {
	Src     *elab.SysTask
	Monitor bool
}

// MemInfo describes one synthesized memory block.
type MemInfo struct {
	Var   *elab.Var
	Words int
	Width int
	Wide  bool
}

// SeqProc is what triggers a compiled edge-triggered process: Seq[i]
// runs span Comb+i.
type SeqProc struct {
	Edges []elab.Edge
	Frame []*elab.Var // its process's frame: what Edges name
}

// Program is a synthesized netlist: its units' spans, slot metadata, and
// the schedule. Span order is schedule order: the first Comb spans are
// the combinational units in topological order, the next len(Seq) the
// edge-triggered processes, and the rest the $monitors, code units that
// capture the monitored values at the end of each time step.
type Program struct {
	Flat *elab.Flat

	// Spans is the program's code, one span per unit in schedule order.
	// Relocated counts the units CompileFrom bound to their base's
	// records instead of compiling.
	Spans     []Span
	Relocated int

	Slots []SlotInfo // the variables', then each span's temporaries in span order

	VarSlot []int // Var.Index -> slot (scalars; -1 for memories)
	Mems    []MemInfo
	MemOf   []int // Var.Index -> mem index or -1

	Comb  int // how many leading spans are combinational
	Seq   []SeqProc
	Tasks []Task // every span's tasks, in span order

	// Reset is the post-initial-block state captured at synthesis time
	// (FPGA bitstreams carry initial register contents), as a word image:
	// the Flat's variables in index order, a scalar's value as its
	// bits.WordsFor(Width) words and a memory's as that many per word.
	Reset []uint64

	Stats Stats

	Vars []int32 // the variables each span reads and writes, in span order (Span.Vars)
}

// UnitCode is one unit's compiled code in unit form (Op): immutable once
// linked, and shared by pointer by every program that binds it.
type UnitCode struct {
	Ops        []Op
	Operands   []int32        // the source arena: every instruction's sources, in code order
	Consts     []*bits.Vector // every OpConst's value, in code order
	TempWidths []int32        // its temporaries'

	// Digest hashes the code, the temporaries and the unit's tasks (the
	// binding's Program.Tasks): Fingerprint hashes it in place of them.
	Digest [sha256.Size]byte
}

// Span binds a unit's code to a program, and says what it was
// synthesized from. Its temporary slots, tasks and variables each start
// where the field says and end where the next span's start (the end of
// the array for the last span): units never share temporaries. Vars
// entries are Var.Index<<1, | 1 for a write; they are the unit's read and
// write sets, recorded as its code was generated, and its code names a
// variable by its first entry.
type Span struct {
	Unit uint64 // the identity of the elaborated unit it was compiled from (0: none)
	Ord  int32  // which $monitor of Unit, an initial block, it is

	Temps, Tasks, Vars int32

	*UnitCode
}

// Instr is an instruction bound to a program, in the form
// Machine.ExecOp executes: Dst, Srcs and a memory op's Aux are the
// program's slots and memory, Value is an OpConst's constant and Task an
// OpDisplay's task; Target stays the unit's.
type Instr struct {
	Op
	Srcs  []int32
	Value *bits.Vector
	Task  *Task
}

// Sources appends to srcs the slots of p the entries of span sp's source
// arena name and returns it: an instruction's sources, bound, are the
// appended run's [Src, Src+NSrcs).
func (p *Program) Sources(sp *Span, srcs []int32) []int32 {
	for _, s := range sp.Operands {
		srcs = append(srcs, p.Slot(sp, s))
	}
	return srcs
}

// Slot returns the slot of p that span sp's slot reference s (an Op's
// Dst or source) names.
func (p *Program) Slot(sp *Span, s int32) int32 {
	if s >= 0 {
		return sp.Temps + s
	}
	return int32(p.VarSlot[p.Vars[sp.Vars-1-s]>>1])
}

// Mem returns the memory of p that op, a memory instruction of span sp,
// names.
func (p *Program) Mem(sp *Span, op *Op) int32 {
	return int32(p.MemOf[p.Vars[sp.Vars-1-op.Aux]>>1])
}

// Instr returns op, an instruction of span sp, bound to p, its sources
// read from srcs (Sources' run for sp), as Machine.ExecOp executes it.
func (p *Program) Instr(sp *Span, op *Op, srcs []int32) Instr {
	in := Instr{Op: *op, Srcs: srcs[op.Src : op.Src+op.NSrcs : op.Src+op.NSrcs]}
	if hasDst(op.Kind) {
		in.Dst = p.Slot(sp, op.Dst)
	}
	switch op.Kind {
	case OpMemRead, OpMemWrite, OpMemWriteNB:
		in.Aux = p.Mem(sp, op)
	case OpDisplay:
		in.Task = &p.Tasks[sp.Tasks+op.Aux]
	}
	if op.Const >= 0 {
		in.Value = sp.Consts[op.Const]
	}
	return in
}

func (p *Program) spanTasks(i int) (int, int) {
	return p.bounds(i, len(p.Tasks), func(s *Span) int32 { return s.Tasks })
}

func (p *Program) spanVars(i int) (int, int) {
	return p.bounds(i, len(p.Vars), func(s *Span) int32 { return s.Vars })
}

// bounds returns span i's [start, end) in an array of n entries.
func (p *Program) bounds(i, n int, at func(*Span) int32) (int, int) {
	if i+1 < len(p.Spans) {
		n = int(at(&p.Spans[i+1]))
	}
	return int(at(&p.Spans[i])), n
}

// varSlots returns how many slots back variables: the first temporary.
func (p *Program) varSlots() int {
	if len(p.Spans) > 0 {
		return int(p.Spans[0].Temps)
	}
	return len(p.Slots)
}

// SlotInfo describes one value slot.
type SlotInfo struct {
	Width int
	Wide  bool
	Var   *elab.Var // non-nil if this slot backs a named variable
}

// Error is a synthesis error.
type Error struct{ Msg string }

func (e *Error) Error() string { return "netlist: " + e.Msg }

func errf(format string, args ...any) error {
	return &Error{Msg: fmt.Sprintf(format, args...)}
}
