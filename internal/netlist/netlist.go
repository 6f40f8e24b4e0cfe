// Package netlist synthesizes an elaborated subprogram into a word-level
// RTL netlist — the "bitstream" executed by Cascade-Go's simulated FPGA —
// and provides the Machine that holds a loaded program's state and gives
// every instruction its reference meaning.
//
// Compilation levelizes combinational logic (continuous assignments, @*
// and level-sensitive processes) into a feed-forward instruction schedule
// and lowers every process body to a small register machine with jump
// instructions. A program is linked from units, each a Span recording
// the identity of the elaborated unit it came from and where its code,
// temporaries and tasks lie; CompileFrom copies a unit whose elaboration
// was relocated (elab.ElaborateFrom keeps its identity) out of the
// previous version's program instead of compiling it again, so a REPL
// eval pays for what it added, and the result is the program Compile
// would build from scratch.
//
// An eval still links the whole program, so the link builds straight
// into exactly sized final arrays, and what it keeps is compact: an
// instruction (Op) holds no pointer — its sources are a span of the
// program's source arena, its constant an index into the program's
// constant table — and the reset state is a word image Machine.Reset
// copies. Values at or below 64 bits are stored in uint64 lanes, wider
// ones as bits.Vector; Machine.ExecOp computes on either as bit vectors,
// and the fast execution of a program is internal/njit's compiled form
// over the same storage. The package also derives the area and
// critical-path statistics that the blackbox toolchain model
// (internal/toolchain) uses for compile-latency, fit, and timing-closure
// decisions.
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

// Op is one netlist instruction. Fields are interpreted per kind. It
// holds no pointer, so a program's code is one block the collector never
// scans: its sources are a span of the program's source arena (Srcs) and
// its constant an index into the program's constant table (Const).
type Op struct {
	Kind   OpKind
	Wide   bool  // any operand or result wider than 64 bits
	Dst    int32 // destination slot (or variable slot for writes)
	Width  int32 // result width
	Hi, Lo int32 // slice / ranged write bounds
	N      int32 // replication count
	Target int32 // jump target pc
	Aux    int32 // task index (display), mem index (mem ops)
	Src    int32 // first source: Program.Operands[Src : Src+NSrcs]
	NSrcs  int32
	Const  int32 // Program.Consts index of an OpConst's value; -1 for every other kind
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

// SeqProc is a compiled edge-triggered process.
type SeqProc struct {
	Edges []elab.Edge
	Entry int // pc into Code
}

// CombUnit is one levelized combinational unit.
type CombUnit struct {
	Entry int // pc into Code
}

// MonitorUnit is a compiled $monitor: a code unit that captures the
// monitored values, run at the end of each time step.
type MonitorUnit struct {
	Entry int // pc into Code
}

// Program is a synthesized netlist: shared code array, slot metadata, and
// the schedule.
type Program struct {
	Flat *elab.Flat

	Code     []Op
	Operands []int32        // the source arena: every instruction's sources, in code order
	Consts   []*bits.Vector // every OpConst's value, in code order
	Slots    []SlotInfo

	VarSlot []int // Var.Index -> slot (scalars; -1 for memories)
	Mems    []MemInfo
	MemOf   []int // Var.Index -> mem index or -1

	Comb     []CombUnit // in topological order
	Seq      []SeqProc
	Monitors []MonitorUnit
	Tasks    []Task

	// Reset is the post-initial-block state captured at synthesis time
	// (FPGA bitstreams carry initial register contents), as a word image:
	// the Flat's variables in index order, a scalar's value as its
	// bits.WordsFor(Width) words and a memory's as that many per word.
	Reset []uint64

	Stats Stats

	// Spans is the program's unit index, one entry per unit in code
	// order: Comb, then Seq, then Monitors. Relocated counts the units
	// CompileFrom copied out of its base instead of compiling.
	Spans     []Span
	Relocated int

	vars []int32 // the variables each span reads and writes (Span.Vars)
}

// Srcs returns op's source slots, a span of p's source arena; op is one
// of p's instructions.
func (p *Program) Srcs(op *Op) []int32 { return p.Operands[op.Src : op.Src+op.NSrcs] }

// Const returns the value an OpConst instruction of p loads (nil for any
// other kind).
func (p *Program) Const(op *Op) *bits.Vector {
	if op.Const < 0 {
		return nil
	}
	return p.Consts[op.Const]
}

// Span is where one unit lies in a Program, and what it was synthesized
// from. Its code, temporary slots, tasks and variables each start where
// the field says and end where the next span's start (the end of the
// array for the last span): units never share temporaries, and their
// jumps stay inside them. Vars entries are Var.Index<<1, | 1 for a write;
// they are the unit's read and write sets, recorded as its code was
// generated.
type Span struct {
	Unit uint64 // the identity of the elaborated unit it was compiled from (0: none)
	Ord  int32  // which $monitor of Unit, an initial block, it is

	Code, Temps, Tasks, Vars int32

	// Digest hashes the unit's code, temporaries and tasks in a form
	// that does not depend on where the link placed it (unitForm): the
	// link computes it when it compiles the unit and copies it when it
	// relocates the unit, and Fingerprint hashes it in place of the code.
	Digest [sha256.Size]byte
}

func (p *Program) spanCode(i int) (int, int) {
	return p.bounds(i, len(p.Code), func(s *Span) int32 { return s.Code })
}

func (p *Program) spanTemps(i int) (int, int) {
	return p.bounds(i, len(p.Slots), func(s *Span) int32 { return s.Temps })
}

func (p *Program) spanTasks(i int) (int, int) {
	return p.bounds(i, len(p.Tasks), func(s *Span) int32 { return s.Tasks })
}

func (p *Program) spanVars(i int) (int, int) {
	return p.bounds(i, len(p.vars), func(s *Span) int32 { return s.Vars })
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
