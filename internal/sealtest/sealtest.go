// Package sealtest checks that versions of a program never write what
// they share. A version is an elaboration (elab.Flat) and, where there is
// one, the program synthesized from it (netlist.Program); a later version
// shares the earlier one's variables, unit records, frames, trees and
// code records by pointer, so a write into any of them silently changes
// the earlier version, and an equivalence test, reading the same record
// on both sides, cannot see it. A Seal digests each version when it is
// made and checks later that every one still digests to that value. Only
// tests import it.
package sealtest

import (
	"fmt"
	"reflect"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/netlist"
)

// Seal holds the versions made so far with their digests at creation.
//
// A version's digest is deep — every Var field; each frame, by the index
// of each variable and whether it is the version's variable there; each
// continuous assignment, process and initial block with its tree; the
// name lookup of every variable; the program's spans and the code records
// they bind — but it is kept in two levels, so that checking a chain of
// versions that share most of their records costs what the distinct
// records cost: each record (a Var, a unit record, a frame, an initial
// block's tree, a UnitCode) is digested by identity when the first
// version holding it is sealed, and a version's own digest takes its
// lists by the identity of the records they hold.
type Seal struct {
	versions []version
	records  map[any]record
}

type version struct {
	what   string
	f      *elab.Flat
	p      *netlist.Program
	digest uint64
}

// record is a record x with its digest when the version what, of
// elaboration f, sealed it.
type record struct {
	what   string
	f      *elab.Flat
	x      any
	digest uint64
}

// frameKey is a frame's identity: where its variables lie, how many.
type frameKey struct {
	at *(*elab.Var)
	n  int
}

// Add seals a version made just now: f and, unless p is nil, the program
// synthesized from it. what names it in Check's error.
func (s *Seal) Add(what string, f *elab.Flat, p *netlist.Program) {
	if s.records == nil {
		s.records = map[any]record{}
	}
	seal := func(key, x any) {
		if _, ok := s.records[key]; !ok {
			s.records[key] = record{what, f, x, digest(f, x)}
		}
	}
	frame := func(fr []*elab.Var) {
		if len(fr) > 0 {
			seal(frameKey{&fr[0], len(fr)}, fr)
		}
	}
	for _, v := range f.Vars {
		seal(v, v)
	}
	for _, a := range f.Assigns {
		seal(a, a)
		frame(a.Frame)
	}
	for _, pr := range f.Procs {
		seal(pr, pr)
		frame(pr.Frame)
	}
	for i, st := range f.Initials {
		seal(st, st)
		frame(f.InitialFrames[i])
	}
	if p != nil {
		for i := range p.Spans {
			seal(p.Spans[i].UnitCode, p.Spans[i].UnitCode)
		}
	}
	s.versions = append(s.versions, version{what, f, p, shallow(f, p)})
}

// Check returns an error naming the first record or version that no
// longer digests to its value at creation (nil: none).
func (s *Seal) Check() error {
	for _, r := range s.records {
		if digest(r.f, r.x) != r.digest {
			return fmt.Errorf("%s: a %T it sealed changed", r.what, r.x)
		}
	}
	for _, v := range s.versions {
		if shallow(v.f, v.p) != v.digest {
			return fmt.Errorf("%s changed after it was sealed", v.what)
		}
	}
	return nil
}

// digest digests a record of f by content.
func digest(f *elab.Flat, x any) uint64 {
	var h hash
	switch x := x.(type) {
	case *elab.Var:
		h.variable(x)
	case *elab.ContAssign:
		h.assign(x)
	case *elab.Proc:
		h.proc(x)
	case elab.Stmt:
		h.stmt(x)
	case []*elab.Var:
		h.int(len(x))
		for _, v := range x {
			h.int(v.Index)
			h.bool(v.Index < len(f.Vars) && f.Vars[v.Index] == v)
		}
	case *netlist.UnitCode:
		h.code(x)
	default:
		panic(fmt.Sprintf("sealtest: record %T", x))
	}
	return uint64(h)
}

// shallow digests a version's own fields and lists, a record by its
// identity, and the name lookup of every variable.
func shallow(f *elab.Flat, p *netlist.Program) uint64 {
	var h hash
	h.str(f.Name)
	h.str(f.ModName)
	h.int(f.Relocated)
	var params uint64 // in any order
	for name, v := range f.Params {
		var e hash
		e.str(name)
		e.vector(v)
		params += uint64(e)
	}
	h.word(params)
	l := f.Layout()
	h.int(l.Len())
	for i, v := range f.Vars {
		h.ptr(v)
		h.int(l.Index(v.Name) - i)
		h.bool(f.VarNamed(v.Name) == v)
	}
	for _, list := range [][]*elab.Var{f.Inputs, f.Outputs} {
		h.int(len(list))
		for _, v := range list {
			h.ptr(v)
		}
	}
	h.int(len(f.Assigns))
	for _, a := range f.Assigns {
		h.ptr(a)
		h.frame(a.Frame)
	}
	h.int(len(f.Procs))
	for _, pr := range f.Procs {
		h.ptr(pr)
		h.frame(pr.Frame)
	}
	h.int(len(f.Initials))
	for i, st := range f.Initials {
		h.ptr(st)
		h.ptr(f.InitialItems[i])
		h.word(f.InitialUnits[i])
		h.frame(f.InitialFrames[i])
	}
	if p == nil {
		return uint64(h)
	}
	h.ptr(p.Flat)
	h.int(len(p.Spans))
	for i := range p.Spans {
		sp := &p.Spans[i]
		h.word(sp.Unit)
		h.int(int(sp.Ord))
		h.int(int(sp.Temps))
		h.int(int(sp.Tasks))
		h.int(int(sp.Vars))
		h.ptr(sp.UnitCode)
	}
	h.int32s(p.Vars)
	for _, s := range p.VarSlot {
		h.int(s)
	}
	for _, w := range p.Reset {
		h.word(w)
	}
	return uint64(h)
}

// hash is a 64-bit FNV-1a over words: each step is a bijection of the
// state for a fixed word and of the word for a fixed state, so changing
// any one word changes the digest.
type hash uint64

func (h *hash) word(w uint64) {
	if *h == 0 {
		*h = 14695981039346656037
	}
	*h = (*h ^ hash(w)) * 1099511628211
}

func (h *hash) int(i int) { h.word(uint64(i)) }

func (h *hash) bool(b bool) {
	if b {
		h.word(1)
	} else {
		h.word(0)
	}
}

func (h *hash) str(s string) {
	h.int(len(s))
	for i := 0; i < len(s); i++ {
		h.word(uint64(s[i]))
	}
}

func (h *hash) int32s(xs []int32) {
	h.int(len(xs))
	for _, x := range xs {
		h.int(int(x))
	}
}

// ptr digests x, a pointer or an interface holding one, by identity.
func (h *hash) ptr(x any) {
	if v := reflect.ValueOf(x); v.IsValid() && !v.IsNil() {
		h.word(uint64(v.Pointer()))
	} else {
		h.word(0)
	}
}

// frame digests a frame by identity.
func (h *hash) frame(fr []*elab.Var) {
	h.int(len(fr))
	if len(fr) > 0 {
		h.ptr(&fr[0])
	}
}

func (h *hash) vector(v *bits.Vector) {
	if v == nil {
		h.word(0)
		return
	}
	h.int(v.Width())
	for _, w := range v.Words() {
		h.word(w)
	}
}

func (h *hash) variable(v *elab.Var) {
	h.str(v.Name)
	h.int(v.Index)
	h.int(v.Width)
	h.int(v.ArrayLen)
	h.int(v.ArrayLo)
	h.vector(v.Init)
	h.bool(v.IsReg)
	h.bool(v.IsInput)
	h.bool(v.IsOutput)
}

func (h *hash) assign(a *elab.ContAssign) {
	h.lvalues(a.LHS)
	h.expr(a.RHS)
	h.frame(a.Frame)
	h.ptr(a.Src)
	h.int(a.Ord)
	h.word(a.Unit)
}

func (h *hash) proc(p *elab.Proc) {
	h.int(len(p.Edges))
	for _, e := range p.Edges {
		h.int(int(e.Kind))
		h.int(int(e.Var))
	}
	h.bool(p.Star)
	h.stmt(p.Body)
	h.int32s(p.Reads)
	h.frame(p.Frame)
	h.ptr(p.Src)
	h.word(p.Unit)
}

func (h *hash) lvalues(lvs []elab.LValue) {
	h.int(len(lvs))
	for _, lv := range lvs {
		h.int(int(lv.Var))
		h.bool(lv.HasRange)
		h.int(lv.Hi)
		h.int(lv.Lo)
		h.expr(lv.ArrIndex)
		h.expr(lv.DynBit)
	}
}

// expr digests a tree in pre-order (nil: none).
func (h *hash) expr(x elab.Expr) {
	if x == nil {
		h.word(0)
		return
	}
	elab.WalkExpr(x, h.node)
}

// node digests an expression node by its kind and fields.
func (h *hash) node(x elab.Expr) {
	h.int(x.Width())
	switch t := x.(type) {
	case *elab.Const:
		h.word(1)
		h.vector(t.V)
	case *elab.VarRef:
		h.word(2)
		h.int(int(t.Var))
	case *elab.ArrayRef:
		h.word(3)
		h.int(int(t.Var))
	case *elab.BitSel:
		h.word(4)
	case *elab.Slice:
		h.word(5)
		h.int(t.Hi)
		h.int(t.Lo)
	case *elab.Unary:
		h.word(6)
		h.int(int(t.Op))
	case *elab.Binary:
		h.word(7)
		h.int(int(t.Op))
	case *elab.Ternary:
		h.word(8)
	case *elab.Concat:
		h.word(9)
		h.int(len(t.Parts))
	case *elab.Repl:
		h.word(10)
		h.int(t.N)
	case *elab.TimeRef:
		h.word(11)
	default:
		panic(fmt.Sprintf("sealtest: expression %T", x))
	}
}

// stmt digests a statement tree in pre-order.
func (h *hash) stmt(s elab.Stmt) {
	if s == nil {
		h.word(0)
		return
	}
	elab.WalkStmt(s, func(s elab.Stmt) {
		switch t := s.(type) {
		case *elab.Block:
			h.word(1)
			h.int(len(t.Stmts))
		case *elab.If:
			h.word(2)
			h.bool(t.Then != nil)
			h.bool(t.Else != nil)
		case *elab.Case:
			h.word(3)
			h.int(len(t.Items))
			for _, it := range t.Items {
				h.int(len(it.Labels))
				for _, m := range it.Masks {
					h.vector(m)
				}
				h.bool(it.Body != nil)
			}
		case *elab.Assign:
			h.word(4)
			h.bool(t.Blocking)
			h.lvalues(t.LHS)
		case *elab.SysTask:
			h.word(5)
			h.int(int(t.Kind))
			h.str(t.Format)
			h.int(len(t.Args))
		default:
			panic(fmt.Sprintf("sealtest: statement %T", s))
		}
	}, h.node)
}

func (h *hash) code(c *netlist.UnitCode) {
	h.int(len(c.Ops))
	for _, op := range c.Ops {
		h.int(int(op.Kind))
		h.bool(op.Wide)
		for _, x := range []int32{op.Dst, op.Width, op.Hi, op.Lo, op.N, op.Target, op.Aux, op.Src, op.NSrcs, op.Const} {
			h.int(int(x))
		}
	}
	h.int32s(c.Operands)
	h.int(len(c.Consts))
	for _, k := range c.Consts {
		h.vector(k)
	}
	h.int32s(c.TempWidths)
	for _, b := range c.Digest {
		h.word(uint64(b))
	}
}
