package elab

import (
	"errors"
	"fmt"

	"cascade/internal/bits"
	"cascade/internal/verilog"
)

// Env supplies runtime values and scratch space to Eval. The software
// engine implements it over its variable store; constant folding uses a
// nil-like env that rejects variable reads.
type Env interface {
	// VarValue returns the current value of a scalar variable.
	VarValue(v *Var) *bits.Vector
	// ArrayWord returns word i (zero-based) of a memory; out-of-range
	// reads (Index's -1 included) yield zero.
	ArrayWord(v *Var, i int) *bits.Vector
	// Now returns the current virtual time for $time.
	Now() uint64
	// Tmp returns a zero vector of the given width for Eval to compute an
	// intermediate into. The env owns it and says how long it lives.
	Tmp(width int) *bits.Vector
}

// Eval evaluates a resolved expression of a unit with frame fr under env.
// The result width always equals e.Width(). The result is lent, not given: it is a constant, live
// state of env, or one of env's Tmp vectors, so the caller reads it before
// env changes or reclaims its scratch, copies it to keep it, and never
// writes it. This function defines the reference semantics that Compile
// (tested in internal/sim) and the compiled netlist evaluator (tested in
// internal/netlist) must match.
func Eval(e Expr, fr []*Var, env Env) *bits.Vector {
	switch x := e.(type) {
	case *Const:
		return x.V
	case *VarRef:
		return env.VarValue(fr[x.Var])
	case *ArrayRef:
		v := fr[x.Var]
		return env.ArrayWord(v, Eval(x.Index, fr, env).Index(v.ArrayLen))
	case *BitSel:
		v := Eval(x.X, fr, env)
		i := Eval(x.Idx, fr, env).Index(v.Width()) // -1 reads as 0, like any bit out of range
		return env.Tmp(1).SetBool(v.Bit(i) != 0)
	case *Slice:
		return env.Tmp(x.Width()).SetShr(Eval(x.X, fr, env), x.Lo)
	case *Unary:
		return evalUnary(x, fr, env)
	case *Binary:
		return evalBinary(x, fr, env)
	case *Ternary:
		if Eval(x.Cond, fr, env).Bool() {
			return env.Tmp(x.W).Set(Eval(x.Then, fr, env))
		}
		return env.Tmp(x.W).Set(Eval(x.Else, fr, env))
	case *Concat:
		out, lo := env.Tmp(x.W), x.W
		for _, p := range x.Parts {
			v := Eval(p, fr, env)
			lo -= v.Width()
			out.SetSlice(lo+v.Width()-1, lo, v)
		}
		return out
	case *Repl:
		return env.Tmp(x.W).SetRepl(Eval(x.X, fr, env))
	case *TimeRef:
		t := env.Tmp(64)
		t.SetUint64(env.Now())
		return t
	}
	panic(fmt.Sprintf("elab: unknown expression %T", e))
}

func evalUnary(x *Unary, fr []*Var, env Env) *bits.Vector {
	v, z := Eval(x.X, fr, env), env.Tmp(x.W)
	switch x.Op {
	case verilog.UPlus:
		return z.Set(v)
	case verilog.UBitNot:
		return z.SetNot(v)
	case verilog.UNeg:
		return z.SetNeg(v)
	case verilog.UNot, verilog.URedNor:
		return z.SetBool(v.IsZero())
	case verilog.URedAnd:
		return z.SetRedAnd(v)
	case verilog.URedOr:
		return z.SetRedOr(v)
	case verilog.URedXor:
		return z.SetRedXor(v)
	case verilog.URedNand:
		return z.SetBool(z.SetRedAnd(v).IsZero())
	case verilog.URedXnor:
		return z.SetBool(z.SetRedXor(v).IsZero())
	}
	panic(fmt.Sprintf("elab: unknown unary op %d", x.Op))
}

func evalBinary(x *Binary, fr []*Var, env Env) *bits.Vector {
	z := env.Tmp(x.W)
	// Logical operators short-circuit.
	switch x.Op {
	case verilog.BLogAnd:
		return z.SetBool(Eval(x.X, fr, env).Bool() && Eval(x.Y, fr, env).Bool())
	case verilog.BLogOr:
		return z.SetBool(Eval(x.X, fr, env).Bool() || Eval(x.Y, fr, env).Bool())
	}
	a := Eval(x.X, fr, env)
	b := Eval(x.Y, fr, env)
	switch x.Op {
	case verilog.BAdd:
		return z.SetAdd(a, b)
	case verilog.BSub:
		return z.SetSub(a, b)
	case verilog.BMul:
		return z.SetMul(a, b)
	case verilog.BDiv:
		return z.SetDiv(a, b)
	case verilog.BMod:
		return z.SetMod(a, b)
	case verilog.BPow:
		return z.SetPow(a, b)
	case verilog.BBitAnd:
		return z.SetAnd(a, b)
	case verilog.BBitOr:
		return z.SetOr(a, b)
	case verilog.BBitXor:
		return z.SetXor(a, b)
	case verilog.BBitXnor:
		return z.SetXnor(a, b)
	case verilog.BShl, verilog.BAShl:
		return z.SetShl(a, b.Index(x.W))
	case verilog.BShr, verilog.BAShr:
		// All values are unsigned, so >>> behaves as >> (documented).
		return z.SetShr(a, b.Index(x.W))
	case verilog.BEq, verilog.BCaseEq:
		return z.SetBool(a.Equal(b))
	case verilog.BNeq, verilog.BCaseNeq:
		return z.SetBool(!a.Equal(b))
	case verilog.BLt:
		return z.SetBool(a.Cmp(b) < 0)
	case verilog.BLe:
		return z.SetBool(a.Cmp(b) <= 0)
	case verilog.BGt:
		return z.SetBool(a.Cmp(b) > 0)
	case verilog.BGe:
		return z.SetBool(a.Cmp(b) >= 0)
	}
	panic(fmt.Sprintf("elab: unknown binary op %d", x.Op))
}

// errNotConst marks an attempted variable read during constant folding.
var errNotConst = errors.New("expression is not constant")

type constEnv struct{}

func (constEnv) VarValue(v *Var) *bits.Vector         { panic(errNotConst) }
func (constEnv) ArrayWord(v *Var, i int) *bits.Vector { panic(errNotConst) }
func (constEnv) Now() uint64                          { panic(errNotConst) }
func (constEnv) Tmp(width int) *bits.Vector           { return bits.New(width) }

// EvalConst evaluates e, of a unit with frame fr, if it is a compile-time
// constant.
func EvalConst(e Expr, fr []*Var) (v *bits.Vector, err error) {
	defer func() {
		if r := recover(); r != nil {
			if rerr, ok := r.(error); ok && errors.Is(rerr, errNotConst) {
				v, err = nil, errNotConst
				return
			}
			panic(r)
		}
	}()
	return Eval(e, fr, constEnv{}), nil
}

// constExpr resolves an AST expression and requires it to fold to a
// constant (parameters and loop variables count as constants).
func (e *elaborator) constExpr(x verilog.Expr) (*bits.Vector, error) { return e.constExprIn(x, 0) }

// constExprIn is constExpr for a value assigned into a target of width bits
// (a ranged parameter, a declaration's initializer; 0: no target): the
// target is part of the expression's context (IEEE 1364 §4.4), so `[7:0] X
// = 4'd15 + 4'd1` is 16, not the 0 its operands' own four bits would make
// it, and the result comes back at the target's width.
func (e *elaborator) constExprIn(x verilog.Expr, width int) (*bits.Vector, error) {
	if n, literal := x.(*verilog.Number); literal && width == 0 {
		return n.Val, nil // most range bounds
	}
	r, err := e.expr(x)
	if err != nil {
		return nil, err
	}
	if width > 0 {
		widenContext(r, width)
	}
	v, err := EvalConst(r, e.frame)
	if err != nil {
		return nil, e.errf(x.Pos(), "expected constant expression")
	}
	if width > 0 {
		v = v.Resize(width)
	}
	return v, nil
}

// constScope is an elaborator whose scope holds consts and nothing else
// (no loop is being unrolled: a nil map reads as empty).
func constScope(consts map[string]*bits.Vector) *elaborator {
	return &elaborator{flat: &Flat{}, consts: consts}
}

// ConstExpr evaluates x, which may name the constants in consts and
// nothing else, exactly as the elaborator evaluates a constant expression
// anywhere: same operators, same widths, same folding. It is what a caller
// that runs before a module is elaborated (internal/ir, resolving an
// instantiation's parameter overrides) uses instead of an evaluator of
// its own.
func ConstExpr(x verilog.Expr, consts map[string]*bits.Vector) (*bits.Vector, error) {
	return constScope(consts).constExpr(x)
}

// RangeWidth is the width of the packed range r ([N:0]) under consts.
func RangeWidth(r *verilog.Range, consts map[string]*bits.Vector) (int, error) {
	return constScope(consts).rangeWidth(r, r.Hi.Pos())
}

// Params evaluates mod's parameters — the header's with overrides applied,
// then the body's parameters and localparams — as Elaborate will.
func Params(mod *verilog.Module, overrides map[string]*bits.Vector) (map[string]*bits.Vector, error) {
	e := constScope(map[string]*bits.Vector{})
	if err := e.params(mod, overrides); err != nil {
		return nil, err
	}
	return e.consts, nil
}
