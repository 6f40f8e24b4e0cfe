package elab

import (
	"cascade/internal/bits"
	"cascade/internal/verilog"
)

// relocation copies units' elaborations out of a base Flat into the one
// being elaborated (ElaborateFrom). It exists only while every parameter
// base bound has the same value (Extends): what a unit elaborates to is
// then decided by its source item — the same object, the AST is
// immutable — and by the shapes of the variables it names, which its
// elaboration shows (unless it is opaque: elaborator.settle).
//
// A unit is found in base by a cursor per kind: units come in the order
// of the items they were elaborated from, and a module's items are its
// base's in the same order, some removed and some inserted — an edit
// appends to the root, and the merged root is made of the subprograms'
// items in the design's order — so the unit sought is the one at the
// cursor or a little further on (seek).
type relocation struct {
	base, here *Flat
	vmap       []*Var // base variable index -> here's of that name (nil: not looked up yet)
	ok         bool   // every variable the copy so far names has its counterpart

	decl, declVar              int // an index into base's items, and the first variable of the declarations from it on
	netInit, assign, proc, ini int // indexes into base's Assigns, Procs, Initials

	pools pools
}

// window bounds how many of base's units of a kind seek passes over: an
// edit that removed more than that in one place (a rebuilt subprogram's
// items in the merged root) leaves those after them to be elaborated,
// once.
const window = 64

// unusable marks, in vmap, a base variable with no variable of the same
// name and shape here.
var unusable = &Var{}

func newRelocation(base, here *Flat) *relocation {
	r := &relocation{base: base, here: here, vmap: make([]*Var, len(base.Vars)), declVar: len(base.Source.Ports)}
	for r.assign < len(base.Assigns) {
		if _, net := base.Assigns[r.assign].Src.(*verilog.NetDecl); !net {
			break
		}
		r.assign++
	}
	// Most units are relocated, and most are an assign to one target or a
	// process with one assignment: one allocation of each kind of node.
	r.pools.assigns = make([]ContAssign, len(base.Assigns))
	r.pools.procs = make([]Proc, len(base.Procs))
	r.pools.lvalues = make([]LValue, len(base.Assigns)+len(base.Procs))
	r.pools.refs = make([]VarRef, len(base.Assigns)+2*len(base.Procs))
	return r
}

// seek looks for the unit that is(i) among base's n units of a kind from
// the cursor *at on, moving the cursor past it. A unit it does not find
// (-1) is new, and the cursor stays.
func seek(n int, at *int, is func(i int) bool) int {
	for i := *at; i < n && i < *at+window; i++ {
		if is(i) {
			*at = i + 1
			return i
		}
	}
	return -1
}

// seekDecl is seek for base's net declarations, which its items hold
// among others: it returns the index of d's first variable in base.
func (r *relocation) seekDecl(d *verilog.NetDecl) int {
	items, v := r.base.Source.Items, r.declVar
	for i, passed := r.decl, 0; i < len(items) && passed < window; i++ {
		nd, ok := items[i].(*verilog.NetDecl)
		if !ok {
			continue
		}
		if nd == d {
			r.decl, r.declVar = i+1, v+len(nd.Names)
			return v
		}
		v += len(nd.Names)
		passed++
	}
	return -1
}

// sameShape reports whether code elaborated against a may name b instead.
func sameShape(a, b *Var) bool {
	return a.Width == b.Width && a.IsReg == b.IsReg && a.ArrayLen == b.ArrayLen && a.ArrayLo == b.ArrayLo &&
		a.IsInput == b.IsInput && a.IsOutput == b.IsOutput
}

// Extends reports whether every parameter base bound is bound to the
// same value in here. A module only grows, so what base's items name is
// what they named in base: a parameter added since cannot be a name one of
// them uses — it would be the name of a variable, whose declaration
// declare then refuses. It is the one rule by which a parameter
// environment may stand for another (ir's split memos use it too, with
// equal lengths where they need equal environments).
func Extends(base, here map[string]*bits.Vector) bool {
	if len(base) > len(here) {
		return false
	}
	for name, v := range base {
		if w := here[name]; w == nil || w.Width() != v.Width() || !w.Equal(v) {
			return false
		}
	}
	return true
}

// relocateDecl declares d's names as base did, if base declared them:
// a declaration's widths, kinds, bounds and initial values are the
// declaration's and the parameters'. Only what can differ is checked
// again — a name another declaration of this module also claims.
func (e *elaborator) relocateDecl(d *verilog.NetDecl) (bool, error) {
	r := e.reloc
	if r == nil {
		return false, nil
	}
	first := r.seekDecl(d)
	if first < 0 {
		return false, nil
	}
	for ord, dn := range d.Names {
		bv := r.base.Vars[first+ord]
		v, err := e.declare(dn.Name, bv.Width, bv.IsReg, bv.ArrayLen, bv.ArrayLo, bv.Init, dn.NamePos)
		if err != nil {
			return false, err
		}
		r.vmap[bv.Index] = v
		if dn.Init != nil && !bv.IsReg {
			e.netInitAssigns = append(e.netInitAssigns, netInit{src: d, ord: ord})
		}
	}
	e.flat.Relocated++
	return true, nil
}

// baseAssign finds base's continuous assignment from src (a net
// declaration: its ord-th name's initializer), unless it is opaque.
func (r *relocation) baseAssign(src verilog.Item, ord int) *ContAssign {
	as := r.base.Assigns
	var i int
	if _, net := src.(*verilog.NetDecl); net {
		i = seek(len(as), &r.netInit, func(i int) bool { return as[i].Src == src && as[i].Ord == ord })
	} else {
		i = seek(len(as), &r.assign, func(i int) bool { return as[i].Src == src })
	}
	if i < 0 || r.base.opaque[src] {
		return nil
	}
	return as[i]
}

// relocateAssign copies base's continuous assignment from src (ord: see
// baseAssign) when its key holds. Its targets still claim their drivers
// here: a second driver is refused at pos, as contAssign refuses it.
func (e *elaborator) relocateAssign(src verilog.Item, ord int, pos verilog.Pos) (bool, error) {
	r := e.reloc
	if r == nil {
		return false, nil
	}
	ba := r.baseAssign(src, ord)
	if ba == nil {
		return false, nil
	}
	r.ok = true
	lhs, rhs := r.lvalues(ba.LHS), r.expr(ba.RHS)
	if !r.ok {
		return false, nil
	}
	for _, lv := range lhs {
		if err := e.checkAssignOverlap(lv, pos); err != nil {
			return false, err
		}
	}
	a := &alloc(&r.pools.assigns, 1)[0]
	*a = ContAssign{LHS: lhs, RHS: rhs, Src: src, Ord: ord, Unit: ba.Unit}
	e.flat.Assigns = append(e.flat.Assigns, a)
	e.flat.Relocated++
	return true, nil
}

// relocateProc copies base's process from the always block x when its
// key holds.
func (e *elaborator) relocateProc(x *verilog.AlwaysBlock) bool {
	r := e.reloc
	if r == nil {
		return false
	}
	ps := r.base.Procs
	i := seek(len(ps), &r.proc, func(i int) bool { return ps[i].Src == x })
	if i < 0 || r.base.opaque[x] {
		return false
	}
	bp := ps[i]
	r.ok = true
	var edges []Edge
	if bp.Edges != nil {
		edges = alloc(&r.pools.edges, len(bp.Edges))
		for j, ed := range bp.Edges {
			edges[j] = Edge{Kind: ed.Kind, Var: r.variable(ed.Var)}
		}
	}
	body := r.stmt(bp.Body)
	if !r.ok {
		return false
	}
	p := &alloc(&r.pools.procs, 1)[0]
	*p = Proc{Edges: edges, Star: bp.Star, Body: body, Reads: r.varList(bp.Reads), Src: x, Unit: bp.Unit}
	e.flat.Procs = append(e.flat.Procs, p)
	e.flat.Relocated++
	return true
}

// relocateInitial copies base's elaboration of the initial block x when
// its key holds.
func (e *elaborator) relocateInitial(x *verilog.InitialBlock) bool {
	r := e.reloc
	if r == nil {
		return false
	}
	items := r.base.InitialItems
	i := seek(len(items), &r.ini, func(i int) bool { return items[i] == x })
	if i < 0 || r.base.opaque[x] {
		return false
	}
	r.ok = true
	body := r.stmt(r.base.Initials[i])
	if !r.ok {
		return false
	}
	e.flat.Initials = append(e.flat.Initials, body)
	e.flat.InitialItems = append(e.flat.InitialItems, x)
	e.flat.InitialUnits = append(e.flat.InitialUnits, r.base.InitialUnits[i])
	e.flat.Relocated++
	return true
}

// variable is here's counterpart of a variable a base unit names: the
// variable of the same name, if it has the same shape. If not, the copy
// in progress is void (r.ok), and v stands in.
func (r *relocation) variable(v *Var) *Var {
	nv := r.vmap[v.Index]
	if nv == nil {
		nv = unusable
		if w := r.here.VarNamed(v.Name); w != nil && sameShape(v, w) {
			nv = w
		}
		r.vmap[v.Index] = nv
	}
	if nv == unusable {
		r.ok = false
		return v
	}
	return nv
}

// The copies below map variables through variable.

func (r *relocation) varList(vs []*Var) []*Var {
	if vs == nil {
		return nil
	}
	out := alloc(&r.pools.vars, len(vs))
	for i, v := range vs {
		out[i] = r.variable(v)
	}
	return out
}

func (r *relocation) lvalues(lvs []LValue) []LValue {
	out := alloc(&r.pools.lvalues, len(lvs))
	for i, lv := range lvs {
		out[i] = LValue{Var: r.variable(lv.Var), ArrIndex: r.expr(lv.ArrIndex), HasRange: lv.HasRange, Hi: lv.Hi, Lo: lv.Lo, DynBit: r.expr(lv.DynBit)}
	}
	return out
}

// expr copies x onto here's variables; constants are shared.
func (r *relocation) expr(x Expr) Expr {
	switch t := x.(type) {
	case nil:
		return nil
	case *Const, *TimeRef:
		return x
	case *VarRef:
		n := &alloc(&r.pools.refs, 1)[0]
		n.V = r.variable(t.V)
		return n
	case *ArrayRef:
		return &ArrayRef{V: r.variable(t.V), Index: r.expr(t.Index)}
	case *BitSel:
		return &BitSel{X: r.expr(t.X), Idx: r.expr(t.Idx)}
	case *Slice:
		n := &alloc(&r.pools.slices, 1)[0]
		*n = Slice{X: r.expr(t.X), Hi: t.Hi, Lo: t.Lo}
		return n
	case *Unary:
		return &Unary{Op: t.Op, X: r.expr(t.X), W: t.W}
	case *Binary:
		n := &alloc(&r.pools.binaries, 1)[0]
		*n = Binary{Op: t.Op, X: r.expr(t.X), Y: r.expr(t.Y), W: t.W}
		return n
	case *Ternary:
		return &Ternary{Cond: r.expr(t.Cond), Then: r.expr(t.Then), Else: r.expr(t.Else), W: t.W}
	case *Concat:
		return &Concat{Parts: r.exprs(t.Parts), W: t.W}
	case *Repl:
		return &Repl{N: t.N, X: r.expr(t.X), W: t.W}
	}
	panic("elab: relocating an unknown expression")
}

func (r *relocation) exprs(xs []Expr) []Expr {
	if xs == nil {
		return nil
	}
	out := make([]Expr, len(xs))
	for i, x := range xs {
		out[i] = r.expr(x)
	}
	return out
}

// stmt copies s onto here's variables.
func (r *relocation) stmt(s Stmt) Stmt {
	switch t := s.(type) {
	case nil:
		return nil
	case *Block:
		out := &Block{Stmts: make([]Stmt, len(t.Stmts))}
		for i, st := range t.Stmts {
			out.Stmts[i] = r.stmt(st)
		}
		return out
	case *If:
		return &If{Cond: r.expr(t.Cond), Then: r.stmt(t.Then), Else: r.stmt(t.Else)}
	case *Case:
		out := &Case{Subject: r.expr(t.Subject), Items: make([]*CaseItem, len(t.Items))}
		for i, it := range t.Items {
			out.Items[i] = &CaseItem{Labels: r.exprs(it.Labels), Masks: it.Masks, Body: r.stmt(it.Body)}
		}
		return out
	case *Assign:
		n := &alloc(&r.pools.stmts, 1)[0]
		*n = Assign{Blocking: t.Blocking, LHS: r.lvalues(t.LHS), RHS: r.expr(t.RHS)}
		return n
	case *SysTask:
		return &SysTask{Kind: t.Kind, Format: t.Format, Args: r.exprs(t.Args)}
	}
	panic("elab: relocating an unknown statement")
}

// pools hold the nodes one elaboration makes most of, so that many small
// nodes cost one allocation. Every node cut from them belongs to the
// same Flat, so none outlives its neighbours.
type pools struct {
	assigns  []ContAssign
	procs    []Proc
	edges    []Edge
	vars     []*Var
	lvalues  []LValue
	refs     []VarRef
	slices   []Slice
	binaries []Binary
	stmts    []Assign
}

// alloc cuts n zeroed elements off *pool, refilling it a chunk at a time.
func alloc[T any](pool *[]T, n int) []T {
	if len(*pool) < n {
		*pool = make([]T, max(n, 64))
	}
	out := (*pool)[:n:n]
	*pool = (*pool)[n:]
	return out
}

// refsIn counts the variable references in an elaborated expression.
func refsIn(x Expr) int {
	n := 0
	WalkExpr(x, func(x Expr) {
		switch x.(type) {
		case *VarRef, *ArrayRef:
			n++
		}
	})
	return n
}

func refsInLValues(lvs []LValue) int {
	n := len(lvs)
	for _, lv := range lvs {
		n += refsIn(lv.ArrIndex) + refsIn(lv.DynBit)
	}
	return n
}

// refsInStmt counts the variable references in an elaborated statement,
// assignment targets included.
func refsInStmt(s Stmt) int {
	n := 0
	WalkStmt(s, func(s Stmt) {
		if a, ok := s.(*Assign); ok {
			n += len(a.LHS)
		}
	}, func(x Expr) {
		switch x.(type) {
		case *VarRef, *ArrayRef:
			n++
		}
	})
	return n
}
