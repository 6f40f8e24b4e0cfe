package sim

import (
	"sync/atomic"

	"cascade/internal/bits"
	"cascade/internal/elab"
)

// compileThreshold is the execution of a unit that compiles it: the
// interpreter walks a unit's tree until then, and runs it as closures
// over this simulator's vectors from then on. Short-lived simulators (the
// reset-image run, a fresh engine stepped a few times) stay cold, so they
// pay for no compile. New reads it; tests set it (export_test.go).
var compileThreshold = 8

// unitsCompiled counts the units every simulator of the process has
// compiled; tests read it.
var unitsCompiled atomic.Uint64

// compile compiles unit u, keeps it in code and returns it.
func (s *Simulator) compile(u int) func() {
	if s.code == nil {
		s.code = make([]func(), len(s.runs))
	}
	var body elab.Stmt
	var fr []*elab.Var
	if na := len(s.flat.Assigns); u < na {
		a := s.flat.Assigns[u]
		body, fr = &elab.Assign{Blocking: true, LHS: a.LHS, RHS: a.RHS}, a.Frame
	} else {
		p := s.flat.Procs[u-na]
		body, fr = p.Body, p.Frame
	}
	b := binder{Simulator: s, slab: slabFor(body)}
	s.code[u] = b.stmt(body, fr)
	unitsCompiled.Add(1)
	return s.code[u]
}

// binder is the elab.Env a unit compiles against: the simulator's live
// vectors, and result vectors carved from the unit's own slab, which
// nothing rewinds. A result is lent until its unit runs again.
type binder struct {
	*Simulator
	slab *arena
}

// Tmp implements elab.Env for elab.Compile: a result the unit owns.
func (b binder) Tmp(width int) *bits.Vector { return b.slab.tmp(width) }

// slabFor sizes a unit's slab: room for the result of every expression
// node that computes one, and for every casez label's scratch.
func slabFor(body elab.Stmt) *arena {
	n, words := 0, 0
	add := func(w int) {
		n++
		words += bits.WordsFor(w)
	}
	elab.WalkStmt(body, func(st elab.Stmt) {
		if c, ok := st.(*elab.Case); ok {
			for _, it := range c.Items {
				for li, l := range it.Labels {
					if m := it.Masks[li]; m != nil {
						add(max(c.Subject.Width(), l.Width(), m.Width()))
					}
				}
			}
		}
	}, func(e elab.Expr) {
		switch e.(type) {
		case *elab.Const, *elab.VarRef, *elab.ArrayRef: // lent, not computed
		default:
			add(e.Width())
		}
	})
	return &arena{vecs: make([]bits.Vector, 0, n), words: make([]uint64, 0, words)}
}

var nop = func() {}

// stmt compiles a statement of a unit with frame fr: blocks, ifs, cases
// and assignments become closures, anything else runs on the tree walk.
func (b binder) stmt(st elab.Stmt, fr []*elab.Var) func() {
	switch x := st.(type) {
	case nil:
		return nop
	case *elab.Block:
		steps := make([]func(), len(x.Stmts))
		for i, sub := range x.Stmts {
			steps[i] = b.stmt(sub, fr)
		}
		if len(steps) == 1 {
			return steps[0]
		}
		return func() {
			for _, f := range steps {
				f()
			}
		}
	case *elab.If:
		cond, then := elab.Compile(x.Cond, fr, b), b.stmt(x.Then, fr)
		if x.Else == nil {
			return func() {
				if cond().Bool() {
					then()
				}
			}
		}
		els := b.stmt(x.Else, fr)
		return func() {
			if cond().Bool() {
				then()
			} else {
				els()
			}
		}
	case *elab.Case:
		return b.caseStmt(x, fr)
	case *elab.Assign:
		return b.assign(x, fr)
	}
	s := b.Simulator
	return func() { s.exec(st, fr) }
}

// caseStmt compiles a case: its labels in order, each with the body of
// its item, and the (last) default. A narrow subject under constant
// labels indexes a table of bodies instead.
func (b binder) caseStmt(x *elab.Case, fr []*elab.Var) func() {
	subj, deflt := elab.Compile(x.Subject, fr, b), nop
	var labels []caseLabel
	for _, it := range x.Items {
		body := b.stmt(it.Body, fr)
		if it.Labels == nil {
			deflt = body
			continue
		}
		for li, l := range it.Labels {
			c := caseLabel{val: elab.Compile(l, fr, b), mask: it.Masks[li], body: body}
			if c.mask != nil {
				c.diff = b.Tmp(max(x.Subject.Width(), l.Width(), c.mask.Width()))
			}
			labels = append(labels, c)
		}
	}
	if table := caseTable(x, labels, deflt); table != nil {
		return func() { table[subj().Uint64()]() }
	}
	return func() {
		sv := subj()
		for i := range labels {
			if l := &labels[i]; l.matches(sv) {
				l.body()
				return
			}
		}
		deflt()
	}
}

// caseLabel is one compiled case label.
type caseLabel struct {
	val        func() *bits.Vector
	mask, diff *bits.Vector // a casez label's care mask, and scratch for it
	body       func()
}

func (l *caseLabel) matches(sv *bits.Vector) bool {
	if l.mask != nil {
		return l.diff.SetXor(sv, l.val()).SetAnd(l.diff, l.mask).IsZero()
	}
	return l.val().Equal(sv)
}

// maxTableBits is the widest case subject caseTable tabulates.
const maxTableBits = 8

// caseTable returns, for a subject of at most maxTableBits under constant
// labels, the body each subject value runs, found by matching that value
// against the labels in order; nil for any other case.
func caseTable(x *elab.Case, labels []caseLabel, deflt func()) []func() {
	w := x.Subject.Width()
	if w > maxTableBits {
		return nil
	}
	for _, it := range x.Items {
		for _, l := range it.Labels {
			if _, ok := l.(*elab.Const); !ok {
				return nil
			}
		}
	}
	table, sv := make([]func(), 1<<w), bits.New(w)
	for v := range table {
		sv.SetUint64(uint64(v))
		table[v] = deflt
		for i := range labels {
			if labels[i].matches(sv) {
				table[v] = labels[i].body
				break
			}
		}
	}
	return table
}

// assign compiles an assignment, with a lone whole-variable or
// constant-range target written directly; other targets go through
// writeTargets.
func (b binder) assign(x *elab.Assign, fr []*elab.Var) func() {
	s, rhs := b.Simulator, elab.Compile(x.RHS, fr, b)
	if lv := x.LHS[0]; len(x.LHS) == 1 && lv.ArrIndex == nil && lv.DynBit == nil {
		v, hasRng, hi, lo := fr[lv.Var], lv.HasRange, lv.Hi, lv.Lo
		if x.Blocking {
			return func() { s.applyWrite(v, -1, hasRng, hi, lo, rhs()) }
		}
		return func() { s.enqueue(v, -1, hasRng, hi, lo, rhs()) }
	}
	lhs, blocking := x.LHS, x.Blocking
	return func() { s.writeTargets(lhs, fr, rhs(), blocking) }
}
