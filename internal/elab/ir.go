// Package elab elaborates a single flat Verilog module (no instances —
// Cascade's IR pass has already split the hierarchy into peer subprograms)
// into a resolved intermediate representation: parameters are bound,
// widths are computed, for loops are unrolled, part selects are constant-
// folded, and every reference points at a concrete variable slot.
//
// Both execution backends consume this IR: the event-driven interpreter in
// internal/sim (software engines) and the synthesizer in internal/netlist
// (hardware engines). Sharing one IR is what makes the cross-engine
// equivalence property testable.
//
// An eval appends to a module the controller has elaborated before, so
// ElaborateFrom elaborates a module given the Flat of its previous
// version: each unit — net declaration, continuous assignment, always or
// initial block — whose source item is the same object, under the same
// parameter values, with every variable it names of the same shape, is
// copied out of that Flat onto the new one's variables (relocated) instead
// of elaborated again; the result is the Flat Elaborate returns. A
// relocated behaviour unit keeps its identity (ContAssign.Unit, Proc.Unit,
// Flat.InitialUnits), and that is how synthesis (netlist.CompileFrom)
// knows which of its units it may relocate too.
package elab

import (
	"fmt"
	"sync/atomic"

	"cascade/internal/bits"
	"cascade/internal/verilog"
)

// Var is a resolved variable: a wire, reg, integer, or memory.
type Var struct {
	Name     string
	Index    int // position in Flat.Vars
	Width    int
	ArrayLen int // 0 for scalars; number of words for memories
	ArrayLo  int // low bound of the unpacked range
	Init     *bits.Vector
	IsReg    bool // (the flags last: a Var fits 64 bytes)
	IsInput  bool
	IsOutput bool
}

// Elem reports whether v is a memory.
func (v *Var) IsArray() bool { return v.ArrayLen > 0 }

// Flat is an elaborated subprogram: one module instance, self-contained.
type Flat struct {
	Name     string // instance path (e.g. "main" or "main.r")
	ModName  string // source module name
	Params   map[string]*bits.Vector
	Vars     []*Var
	VarIndex map[string]int
	Inputs   []*Var
	Outputs  []*Var
	Assigns  []*ContAssign
	Procs    []*Proc
	Initials []Stmt
	// InitialItems[i] is the initial block Initials[i] was elaborated
	// from, and InitialUnits[i] its identity.
	InitialItems []verilog.Item
	InitialUnits []uint64
	Source       *verilog.Module
	// Relocated counts the units ElaborateFrom copied out of its base: net
	// declarations, continuous assignments (a declaration's initializers
	// included), always and initial blocks.
	Relocated int

	opaque map[verilog.Item]bool // units relocation leaves alone (elaborator.settle)
}

// lastUnit is the last unit identity handed out: one counter per
// process, because two units may share an identity only by relocation,
// whichever Flats (or their programs) a later elaboration or synthesis is
// handed as its base.
var lastUnit atomic.Uint64

// newUnit mints the identity of a unit being elaborated. A relocated unit
// keeps its base's identity instead, and relocation checks each link of a
// chain of versions — the same item, parameters that extend the base's,
// variables of the same shapes, not opaque — so units of any two versions
// that share an identity elaborated to the same thing, up to the
// positions of the variables it names (which keep their names and shapes).
func newUnit() uint64 { return lastUnit.Add(1) }

// VarNamed returns the variable with the given name, or nil.
func (f *Flat) VarNamed(name string) *Var {
	if i, ok := f.VarIndex[name]; ok {
		return f.Vars[i]
	}
	return nil
}

// ContAssign is a resolved continuous assignment.
type ContAssign struct {
	LHS []LValue // concat targets expand to several lvalues, MSB first
	RHS Expr
	// Src is the module item it was elaborated from: an assign, or the
	// net declaration whose Ord-th name carries an initializer.
	Src  verilog.Item
	Ord  int
	Unit uint64 // its identity (newUnit)
}

// EdgeKind is the sensitivity kind for one event.
type EdgeKind int

// Edge kinds.
const (
	Level EdgeKind = iota
	Pos
	Neg
)

// Edge is one sensitivity-list entry, resolved to a variable.
type Edge struct {
	Kind EdgeKind
	Var  *Var
}

// Proc is a resolved always or initial process.
type Proc struct {
	Edges []Edge // empty for @* (use Reads)
	Star  bool
	Body  Stmt
	Reads []*Var       // read set of Body (sensitivity closure for @*)
	Src   verilog.Item // the always block it was elaborated from
	Unit  uint64       // its identity (newUnit)
}

// LValue is a resolved assignment target.
type LValue struct {
	Var      *Var
	ArrIndex Expr // non-nil for memory word writes
	HasRange bool // constant part select v[hi:lo]
	Hi, Lo   int
	DynBit   Expr // dynamic single-bit select v[i] on a scalar
}

// TargetWidth returns the number of bits this lvalue writes.
func (lv LValue) TargetWidth() int {
	switch {
	case lv.DynBit != nil:
		return 1
	case lv.HasRange:
		return lv.Hi - lv.Lo + 1
	default:
		return lv.Var.Width
	}
}

// Expr is a resolved, width-annotated expression.
type Expr interface {
	Width() int
}

// Const is a constant value.
type Const struct{ V *bits.Vector }

// VarRef reads a scalar variable.
type VarRef struct{ V *Var }

// ArrayRef reads one word of a memory; Index is zero-based after ArrayLo
// adjustment at elaboration time.
type ArrayRef struct {
	V     *Var
	Index Expr
}

// BitSel is a dynamic single-bit select on a scalar expression.
type BitSel struct {
	X   Expr
	Idx Expr
}

// Slice is a constant part select [Hi:Lo] of X.
type Slice struct {
	X      Expr
	Hi, Lo int
}

// Unary is a resolved unary operation; W is the result width.
type Unary struct {
	Op verilog.UnaryOp
	X  Expr
	W  int
}

// Binary is a resolved binary operation; W is the result width.
type Binary struct {
	Op   verilog.BinaryOp
	X, Y Expr
	W    int
}

// Ternary is a resolved conditional; W is the result width.
type Ternary struct {
	Cond, Then, Else Expr
	W                int
}

// Concat is a resolved concatenation (MSB part first).
type Concat struct {
	Parts []Expr
	W     int
}

// Repl is a resolved replication.
type Repl struct {
	N int
	X Expr
	W int
}

// TimeRef is $time: the runtime's virtual time, 64 bits.
type TimeRef struct{}

// Width implementations.
func (e *Const) Width() int    { return e.V.Width() }
func (e *VarRef) Width() int   { return e.V.Width }
func (e *ArrayRef) Width() int { return e.V.Width }
func (e *BitSel) Width() int   { return 1 }
func (e *Slice) Width() int    { return e.Hi - e.Lo + 1 }
func (e *Unary) Width() int    { return e.W }
func (e *Binary) Width() int   { return e.W }
func (e *Ternary) Width() int  { return e.W }
func (e *Concat) Width() int   { return e.W }
func (e *Repl) Width() int     { return e.W }
func (e *TimeRef) Width() int  { return 64 }

// Stmt is a resolved procedural statement.
type Stmt interface{ stmt() }

// Block is a resolved statement sequence.
type Block struct{ Stmts []Stmt }

// If is a resolved conditional statement.
type If struct {
	Cond Expr
	Then Stmt // may be nil
	Else Stmt // may be nil
}

// CaseItem is one resolved case arm; Labels nil means default. Masks is
// parallel to Labels: a non-nil entry is a casez care mask (1s at the
// specified bits; wildcarded bits always match).
type CaseItem struct {
	Labels []Expr
	Masks  []*bits.Vector
	Body   Stmt
}

// Case is a resolved case statement. Without wildcard labels, casez
// behaves as case in the 2-state model.
type Case struct {
	Subject Expr
	Items   []*CaseItem
}

// Assign is a resolved procedural assignment.
type Assign struct {
	Blocking bool
	LHS      []LValue // concat targets expand; MSB first
	RHS      Expr
}

// TaskKind classifies system tasks.
type TaskKind int

// Task kinds.
const (
	TaskDisplay TaskKind = iota // $display: formatted + newline
	TaskWrite                   // $write: formatted, no newline
	TaskFinish                  // $finish: request shutdown
	TaskMonitor                 // $monitor: re-display on any change
)

// SysTask is a resolved system task.
type SysTask struct {
	Kind   TaskKind
	Format string // empty means "print args space separated as %d"
	Args   []Expr
}

func (*Block) stmt()   {}
func (*If) stmt()      {}
func (*Case) stmt()    {}
func (*Assign) stmt()  {}
func (*SysTask) stmt() {}

// Error is an elaboration error with a source position.
type Error struct {
	Pos verilog.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// WalkExpr visits e and its sub-expressions in pre-order.
func WalkExpr(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch x := e.(type) {
	case *ArrayRef:
		WalkExpr(x.Index, f)
	case *BitSel:
		WalkExpr(x.X, f)
		WalkExpr(x.Idx, f)
	case *Slice:
		WalkExpr(x.X, f)
	case *Unary:
		WalkExpr(x.X, f)
	case *Binary:
		WalkExpr(x.X, f)
		WalkExpr(x.Y, f)
	case *Ternary:
		WalkExpr(x.Cond, f)
		WalkExpr(x.Then, f)
		WalkExpr(x.Else, f)
	case *Concat:
		for _, p := range x.Parts {
			WalkExpr(p, f)
		}
	case *Repl:
		WalkExpr(x.X, f)
	}
}

// WalkStmt visits s and its sub-statements/expressions in pre-order;
// fe may be nil.
func WalkStmt(s Stmt, fs func(Stmt), fe func(Expr)) {
	if s == nil {
		return
	}
	if fs != nil {
		fs(s)
	}
	we := func(e Expr) {
		if fe != nil {
			WalkExpr(e, fe)
		}
	}
	switch x := s.(type) {
	case *Block:
		for _, st := range x.Stmts {
			WalkStmt(st, fs, fe)
		}
	case *If:
		we(x.Cond)
		WalkStmt(x.Then, fs, fe)
		WalkStmt(x.Else, fs, fe)
	case *Case:
		we(x.Subject)
		for _, it := range x.Items {
			for _, l := range it.Labels {
				we(l)
			}
			WalkStmt(it.Body, fs, fe)
		}
	case *Assign:
		we(x.RHS)
		for _, lv := range x.LHS {
			if lv.ArrIndex != nil {
				we(lv.ArrIndex)
			}
			if lv.DynBit != nil {
				we(lv.DynBit)
			}
		}
	case *SysTask:
		for _, a := range x.Args {
			we(a)
		}
	}
}
