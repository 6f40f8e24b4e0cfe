package verilog

import "cascade/internal/bits"

// Node is implemented by every AST node.
type Node interface {
	Pos() Pos
}

// SourceText is a parsed compilation unit: a sequence of module
// declarations. The REPL parses fragments (single items or statements)
// through dedicated entry points instead.
type SourceText struct {
	Modules []*Module
}

// PortDir is a port direction.
type PortDir int

// Port directions.
const (
	Input PortDir = iota
	Output
	Inout
)

func (d PortDir) String() string {
	switch d {
	case Input:
		return "input"
	case Output:
		return "output"
	default:
		return "inout"
	}
}

// NetKind distinguishes wire, reg, and integer declarations.
type NetKind int

// Net kinds.
const (
	Wire NetKind = iota
	Reg
	Integer // treated as reg [31:0]
)

func (k NetKind) String() string {
	switch k {
	case Wire:
		return "wire"
	case Reg:
		return "reg"
	default:
		return "integer"
	}
}

// Range is a bit range [Hi:Lo]; both bounds are constant expressions.
type Range struct {
	Hi, Lo Expr
}

// Module is a module declaration.
type Module struct {
	NamePos Pos
	Name    string
	Params  []*ParamDecl // header #(parameter ...) parameters
	Ports   []*Port      // ANSI-style header ports
	Items   []Item
}

// Pos returns the module's source position.
func (m *Module) Pos() Pos { return m.NamePos }

// Port is an ANSI-style module port declaration. Init is a non-standard
// extension used by the IR when it promotes an initialized register to an
// output port (output reg [7:0] cnt = 1); the parser accepts it so
// promoted modules round-trip through the printer.
type Port struct {
	PortPos Pos
	Dir     PortDir
	Kind    NetKind // Wire unless declared reg
	Range   *Range  // nil for 1-bit
	Name    string
	Init    Expr // reg output initializer (nil if absent)
}

// Pos returns the port's source position.
func (p *Port) Pos() Pos { return p.PortPos }

// Item is a module-body item.
type Item interface {
	Node
	item()
}

// DeclName is one declarator in a net declaration: a name with an optional
// unpacked array range (memories) and an optional initializer (regs only).
type DeclName struct {
	NamePos Pos
	Name    string
	Array   *Range // reg [w:0] m [hi:lo]
	Init    Expr   // reg [7:0] cnt = 1
}

// NetDecl declares one or more wires, regs, or integers.
type NetDecl struct {
	DeclPos Pos
	Kind    NetKind
	Range   *Range // packed range; nil for 1-bit (or 32-bit integer)
	Names   []*DeclName
}

// ParamDecl declares a parameter or localparam.
type ParamDecl struct {
	DeclPos Pos
	Local   bool
	Range   *Range
	Name    string
	Value   Expr
}

// ContAssign is a continuous assignment (assign lhs = rhs).
type ContAssign struct {
	AssignPos Pos
	LHS       Expr // must be an lvalue form
	RHS       Expr
}

// EdgeKind classifies sensitivity-list events.
type EdgeKind int

// Edge kinds.
const (
	AnyEdge EdgeKind = iota // level sensitivity: @(a or b)
	Posedge
	Negedge
)

// Event is one entry of an always block's sensitivity list.
type Event struct {
	Edge EdgeKind
	Expr Expr // signal expression (usually an identifier)
}

// AlwaysBlock is an always block with a sensitivity list or @*.
type AlwaysBlock struct {
	AlwaysPos Pos
	Star      bool // always @* / @(*)
	Events    []Event
	Body      Stmt
}

// InitialBlock is an initial block (software-only; runs once at time 0).
type InitialBlock struct {
	InitialPos Pos
	Body       Stmt
}

// PortConn is one connection in a module instantiation.
type PortConn struct {
	ConnPos Pos
	Name    string // empty for positional connections
	Expr    Expr   // nil for unconnected (.x())
}

// ParamAssign is one parameter override in an instantiation.
type ParamAssign struct {
	Name string // empty for positional
	Expr Expr
}

// Instance is a module instantiation.
type Instance struct {
	InstPos Pos
	ModName string
	Params  []*ParamAssign
	Name    string
	Conns   []*PortConn
}

func (*NetDecl) item()      {}
func (*ParamDecl) item()    {}
func (*ContAssign) item()   {}
func (*AlwaysBlock) item()  {}
func (*InitialBlock) item() {}
func (*Instance) item()     {}

// Pos implementations for items.
func (n *NetDecl) Pos() Pos      { return n.DeclPos }
func (n *ParamDecl) Pos() Pos    { return n.DeclPos }
func (n *ContAssign) Pos() Pos   { return n.AssignPos }
func (n *AlwaysBlock) Pos() Pos  { return n.AlwaysPos }
func (n *InitialBlock) Pos() Pos { return n.InitialPos }
func (n *Instance) Pos() Pos     { return n.InstPos }

// Stmt is a procedural statement.
type Stmt interface {
	Node
	stmt()
}

// Block is a begin/end statement sequence.
type Block struct {
	BeginPos Pos
	Stmts    []Stmt
}

// If is an if/else statement.
type If struct {
	IfPos Pos
	Cond  Expr
	Then  Stmt
	Else  Stmt // nil if absent
}

// CaseItem is one arm of a case statement; Exprs is nil for default.
type CaseItem struct {
	ItemPos Pos
	Exprs   []Expr
	Body    Stmt
}

// Case is a case or casez statement.
type Case struct {
	CasePos Pos
	IsCasez bool
	Subject Expr
	Items   []*CaseItem
}

// ProcAssign is a procedural assignment; Blocking selects = vs <=.
type ProcAssign struct {
	AssignPos Pos
	Blocking  bool
	LHS       Expr
	RHS       Expr
}

// For is a for loop with blocking-assignment init and post statements.
// Bounds must be static for synthesis; the elaborator unrolls them.
type For struct {
	ForPos Pos
	Init   *ProcAssign
	Cond   Expr
	Post   *ProcAssign
	Body   Stmt
}

// SysTask is a system-task statement such as $display("%d", x) or $finish.
type SysTask struct {
	TaskPos Pos
	Name    string // with '$'
	Args    []Expr
}

// NullStmt is a lone semicolon.
type NullStmt struct {
	SemiPos Pos
}

func (*Block) stmt()      {}
func (*If) stmt()         {}
func (*Case) stmt()       {}
func (*ProcAssign) stmt() {}
func (*For) stmt()        {}
func (*SysTask) stmt()    {}
func (*NullStmt) stmt()   {}

// Pos implementations for statements.
func (s *Block) Pos() Pos      { return s.BeginPos }
func (s *If) Pos() Pos         { return s.IfPos }
func (s *Case) Pos() Pos       { return s.CasePos }
func (s *ProcAssign) Pos() Pos { return s.AssignPos }
func (s *For) Pos() Pos        { return s.ForPos }
func (s *SysTask) Pos() Pos    { return s.TaskPos }
func (s *NullStmt) Pos() Pos   { return s.SemiPos }

// Expr is an expression.
type Expr interface {
	Node
	expr()
}

// Ident is a simple identifier reference.
type Ident struct {
	IdentPos Pos
	Name     string
}

// HierIdent is a dotted hierarchical reference such as r.y or clk.val.
type HierIdent struct {
	IdentPos Pos
	Parts    []string // at least two
}

// Number is a literal, pre-parsed to a bit vector. Mask is non-nil for
// casez wildcard labels like 4'b1??0: 1s mark the specified positions.
type Number struct {
	NumPos  Pos
	Literal string
	Val     *bits.Vector
	Mask    *bits.Vector
	Sized   bool // literal carried an explicit width
}

// StringLit is a string literal (only valid as a $display format or as a
// packed-byte expression).
type StringLit struct {
	StrPos Pos
	Value  string
}

// UnaryOp enumerates unary operators.
type UnaryOp int

// Unary operators.
const (
	UNot     UnaryOp = iota + 1 // !
	UBitNot                     // ~
	UNeg                        // -
	UPlus                       // +
	URedAnd                     // &
	URedOr                      // |
	URedXor                     // ^
	URedNand                    // ~&
	URedNor                     // ~|
	URedXnor                    // ~^
)

// Unary is a unary-operator expression.
type Unary struct {
	OpPos Pos
	Op    UnaryOp
	X     Expr
}

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators.
const (
	BAdd BinaryOp = iota + 1
	BSub
	BMul
	BDiv
	BMod
	BPow
	BEq
	BNeq
	BCaseEq  // === treated as == in the 2-state model
	BCaseNeq // !== treated as !=
	BLt
	BLe
	BGt
	BGe
	BLogAnd
	BLogOr
	BBitAnd
	BBitOr
	BBitXor
	BBitXnor
	BShl
	BShr
	BAShl // <<< behaves as << for unsigned operands
	BAShr // >>> behaves as >> for unsigned operands
)

// Binary is a binary-operator expression.
type Binary struct {
	OpPos Pos
	Op    BinaryOp
	X, Y  Expr
}

// Ternary is cond ? then : else.
type Ternary struct {
	QPos Pos
	Cond Expr
	Then Expr
	Else Expr
}

// Index is a bit select x[i] or memory word select m[i].
type Index struct {
	LPos Pos
	X    Expr
	Idx  Expr
}

// RangeSel is a constant part select x[hi:lo].
type RangeSel struct {
	LPos   Pos
	X      Expr
	Hi, Lo Expr
}

// Concat is {a, b, ...}.
type Concat struct {
	LPos  Pos
	Parts []Expr
}

// Repl is a replication {n{x}}.
type Repl struct {
	LPos  Pos
	Count Expr
	X     Expr
}

// SysCall is a system function call in expression position, e.g. $time.
type SysCall struct {
	CallPos Pos
	Name    string
	Args    []Expr
}

func (*Ident) expr()     {}
func (*HierIdent) expr() {}
func (*Number) expr()    {}
func (*StringLit) expr() {}
func (*Unary) expr()     {}
func (*Binary) expr()    {}
func (*Ternary) expr()   {}
func (*Index) expr()     {}
func (*RangeSel) expr()  {}
func (*Concat) expr()    {}
func (*Repl) expr()      {}
func (*SysCall) expr()   {}

// Pos implementations for expressions.
func (e *Ident) Pos() Pos     { return e.IdentPos }
func (e *HierIdent) Pos() Pos { return e.IdentPos }
func (e *Number) Pos() Pos    { return e.NumPos }
func (e *StringLit) Pos() Pos { return e.StrPos }
func (e *Unary) Pos() Pos     { return e.OpPos }
func (e *Binary) Pos() Pos    { return e.OpPos }
func (e *Ternary) Pos() Pos   { return e.QPos }
func (e *Index) Pos() Pos     { return e.LPos }
func (e *RangeSel) Pos() Pos  { return e.LPos }
func (e *Concat) Pos() Pos    { return e.LPos }
func (e *Repl) Pos() Pos      { return e.LPos }
func (e *SysCall) Pos() Pos   { return e.CallPos }

// WalkExprs calls f for every sub-expression of e (including e itself) in
// pre-order. WalkStmt (walk.go) walks statements.
func WalkExprs(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch x := e.(type) {
	case *Unary:
		WalkExprs(x.X, f)
	case *Binary:
		WalkExprs(x.X, f)
		WalkExprs(x.Y, f)
	case *Ternary:
		WalkExprs(x.Cond, f)
		WalkExprs(x.Then, f)
		WalkExprs(x.Else, f)
	case *Index:
		WalkExprs(x.X, f)
		WalkExprs(x.Idx, f)
	case *RangeSel:
		WalkExprs(x.X, f)
		WalkExprs(x.Hi, f)
		WalkExprs(x.Lo, f)
	case *Concat:
		for _, p := range x.Parts {
			WalkExprs(p, f)
		}
	case *Repl:
		WalkExprs(x.Count, f)
		WalkExprs(x.X, f)
	case *SysCall:
		for _, a := range x.Args {
			WalkExprs(a, f)
		}
	}
}
