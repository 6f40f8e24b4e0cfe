package elab

import (
	"fmt"

	"cascade/internal/bits"
	"cascade/internal/verilog"
)

// Compile returns e as a function that computes what Eval(e, env) would,
// without walking e again: the node switch runs once, here, and each
// node's closure calls the bits destination form Eval calls, into a
// result vector sized once from the node's static width.
//
// Where Eval looks env up, Compile binds it, so env is asked at other
// times. Tmp is called now, at most once a node, and its vector is that
// node's result for as long as the compiled form lives. VarValue is
// called now too, and must return a vector that stays the variable's live
// value for as long: its owner copies into it and never replaces it.
// ArrayWord and Now are called at every run. Each result is lent until the
// next run; a run never writes a vector VarValue returned.
func Compile(e Expr, env Env) func() *bits.Vector {
	switch x := e.(type) {
	case *Const:
		v := x.V
		return func() *bits.Vector { return v }
	case *VarRef:
		v := env.VarValue(x.V)
		return func() *bits.Vector { return v }
	case *ArrayRef:
		v, idx := x.V, Compile(x.Index, env)
		return func() *bits.Vector { return env.ArrayWord(v, idx().Index(v.ArrayLen)) }
	case *BitSel:
		xv, idx, w, z := Compile(x.X, env), Compile(x.Idx, env), x.X.Width(), env.Tmp(1)
		return func() *bits.Vector {
			v := xv()
			return z.SetBool(v.Bit(idx().Index(w)) != 0)
		}
	case *Slice:
		xv, lo, z := Compile(x.X, env), x.Lo, env.Tmp(x.Width())
		return func() *bits.Vector { return z.SetShr(xv(), lo) }
	case *Unary:
		return compileUnary(x, env)
	case *Binary:
		return compileBinary(x, env)
	case *Ternary:
		c, t, f, z := Compile(x.Cond, env), Compile(x.Then, env), Compile(x.Else, env), env.Tmp(x.W)
		return func() *bits.Vector {
			if c().Bool() {
				return z.Set(t())
			}
			return z.Set(f())
		}
	case *Concat:
		type part struct {
			f      func() *bits.Vector
			hi, lo int
		}
		parts, lo := make([]part, len(x.Parts)), x.W
		for i, p := range x.Parts {
			lo -= p.Width()
			parts[i] = part{Compile(p, env), lo + p.Width() - 1, lo}
		}
		z := env.Tmp(x.W) // the parts cover it: each run overwrites every bit
		return func() *bits.Vector {
			for _, p := range parts {
				z.SetSlice(p.hi, p.lo, p.f())
			}
			return z
		}
	case *Repl:
		xv, z := Compile(x.X, env), env.Tmp(x.W)
		return func() *bits.Vector { return z.SetRepl(xv()) }
	case *TimeRef:
		z := env.Tmp(64)
		return func() *bits.Vector {
			z.SetUint64(env.Now())
			return z
		}
	}
	panic(fmt.Sprintf("elab: unknown expression %T", e))
}

func compileUnary(x *Unary, env Env) func() *bits.Vector {
	xv, z := Compile(x.X, env), env.Tmp(x.W)
	switch x.Op {
	case verilog.UPlus:
		return func() *bits.Vector { return z.Set(xv()) }
	case verilog.UBitNot:
		return func() *bits.Vector { return z.SetNot(xv()) }
	case verilog.UNeg:
		return func() *bits.Vector { return z.SetNeg(xv()) }
	case verilog.UNot, verilog.URedNor:
		return func() *bits.Vector { return z.SetBool(xv().IsZero()) }
	case verilog.URedAnd:
		return func() *bits.Vector { return z.SetRedAnd(xv()) }
	case verilog.URedOr:
		return func() *bits.Vector { return z.SetRedOr(xv()) }
	case verilog.URedXor:
		return func() *bits.Vector { return z.SetRedXor(xv()) }
	case verilog.URedNand:
		return func() *bits.Vector { return z.SetBool(z.SetRedAnd(xv()).IsZero()) }
	case verilog.URedXnor:
		return func() *bits.Vector { return z.SetBool(z.SetRedXor(xv()).IsZero()) }
	}
	panic(fmt.Sprintf("elab: unknown unary op %d", x.Op))
}

func compileBinary(x *Binary, env Env) func() *bits.Vector {
	a, b, w, z := Compile(x.X, env), Compile(x.Y, env), x.W, env.Tmp(x.W)
	switch x.Op {
	case verilog.BLogAnd: // short-circuits, as Eval does
		return func() *bits.Vector { return z.SetBool(a().Bool() && b().Bool()) }
	case verilog.BLogOr:
		return func() *bits.Vector { return z.SetBool(a().Bool() || b().Bool()) }
	case verilog.BAdd:
		return func() *bits.Vector { return z.SetAdd(a(), b()) }
	case verilog.BSub:
		return func() *bits.Vector { return z.SetSub(a(), b()) }
	case verilog.BMul:
		return func() *bits.Vector { return z.SetMul(a(), b()) }
	case verilog.BDiv:
		return func() *bits.Vector { return z.SetDiv(a(), b()) }
	case verilog.BMod:
		return func() *bits.Vector { return z.SetMod(a(), b()) }
	case verilog.BPow:
		return func() *bits.Vector { return z.SetPow(a(), b()) }
	case verilog.BBitAnd:
		return func() *bits.Vector { return z.SetAnd(a(), b()) }
	case verilog.BBitOr:
		return func() *bits.Vector { return z.SetOr(a(), b()) }
	case verilog.BBitXor:
		return func() *bits.Vector { return z.SetXor(a(), b()) }
	case verilog.BBitXnor:
		return func() *bits.Vector { return z.SetXnor(a(), b()) }
	case verilog.BShl, verilog.BAShl:
		return func() *bits.Vector { return z.SetShl(a(), b().Index(w)) }
	case verilog.BShr, verilog.BAShr: // unsigned, as in Eval
		return func() *bits.Vector { return z.SetShr(a(), b().Index(w)) }
	case verilog.BEq, verilog.BCaseEq:
		return func() *bits.Vector { return z.SetBool(a().Equal(b())) }
	case verilog.BNeq, verilog.BCaseNeq:
		return func() *bits.Vector { return z.SetBool(!a().Equal(b())) }
	case verilog.BLt:
		return func() *bits.Vector { return z.SetBool(a().Cmp(b()) < 0) }
	case verilog.BLe:
		return func() *bits.Vector { return z.SetBool(a().Cmp(b()) <= 0) }
	case verilog.BGt:
		return func() *bits.Vector { return z.SetBool(a().Cmp(b()) > 0) }
	case verilog.BGe:
		return func() *bits.Vector { return z.SetBool(a().Cmp(b()) >= 0) }
	}
	panic(fmt.Sprintf("elab: unknown binary op %d", x.Op))
}
