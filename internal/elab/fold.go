package elab

import (
	"math/big"

	"cascade/internal/bits"
	"cascade/internal/verilog"
)

// fold performs constant folding and width-safe algebraic simplification
// on a freshly built expression node. Both execution backends benefit:
// the interpreter evaluates fewer nodes and the synthesizer emits fewer
// cells.
//
// Folding happens before context widening (widenContext may later enlarge
// result widths), so only rewrites whose value zero-extends identically at
// any wider width are allowed: truncating arithmetic (overflowing add or
// mul, borrowing sub, ~, -) is left unfolded, because the same operation
// at a widened context would produce different high bits.
func fold(e Expr) Expr {
	switch x := e.(type) {
	case *Unary:
		if !isConst(x.X) {
			return e
		}
		switch x.Op {
		case verilog.UPlus:
			return x.X
		case verilog.UBitNot, verilog.UNeg:
			// Width-sensitive under later widening; only the trivial
			// -0 == 0 case is safe.
			if x.Op == verilog.UNeg && x.X.(*Const).V.IsZero() {
				return x.X
			}
			return e
		default:
			// Reductions and ! are 1-bit, insensitive to widening.
			return foldToConst(e)
		}
	case *Binary:
		if isConst(x.X) && isConst(x.Y) {
			if foldedBinarySafe(x) {
				return foldToConst(e)
			}
		}
		return foldBinaryIdentity(x)
	case *Ternary:
		if c, ok := x.Cond.(*Const); ok {
			if c.V.Bool() {
				return x.Then
			}
			return x.Else
		}
	case *Slice:
		if c, ok := x.X.(*Const); ok {
			return &Const{V: c.V.Slice(x.Hi, x.Lo)}
		}
	case *BitSel:
		if isConst(x.X) && isConst(x.Idx) {
			return foldToConst(e)
		}
	case *Concat:
		for _, p := range x.Parts {
			if !isConst(p) {
				return e
			}
		}
		return foldToConst(e)
	case *Repl:
		if isConst(x.X) {
			return foldToConst(e)
		}
	}
	return e
}

func isConst(e Expr) bool {
	_, ok := e.(*Const)
	return ok
}

// foldedBinarySafe reports whether folding this constant binary operation
// now yields the same value it would at any widened context width: the
// mathematically exact result must fit in W bits without truncation or
// borrowing.
func foldedBinarySafe(x *Binary) bool {
	a := x.X.(*Const).V.Big()
	b := x.Y.(*Const).V.Big()
	switch x.Op {
	case verilog.BAdd:
		return new(big.Int).Add(a, b).BitLen() <= x.W
	case verilog.BMul:
		return new(big.Int).Mul(a, b).BitLen() <= x.W
	case verilog.BSub:
		return a.Cmp(b) >= 0
	case verilog.BShl, verilog.BAShl:
		if !b.IsInt64() || b.Int64() > 1<<16 {
			return false
		}
		return new(big.Int).Lsh(a, uint(b.Int64())).BitLen() <= x.W
	case verilog.BPow:
		if !b.IsInt64() || b.Int64() > 64 {
			return false
		}
		return new(big.Int).Exp(a, b, nil).BitLen() <= x.W
	case verilog.BDiv, verilog.BMod, verilog.BShr, verilog.BAShr,
		verilog.BBitAnd, verilog.BBitOr, verilog.BBitXor:
		// Results never exceed the operands' magnitudes (or are pure
		// bitwise combinations of zero-extended operands).
		return true
	case verilog.BEq, verilog.BNeq, verilog.BCaseEq, verilog.BCaseNeq,
		verilog.BLt, verilog.BLe, verilog.BGt, verilog.BGe,
		verilog.BLogAnd, verilog.BLogOr:
		// One-bit results, width-insensitive.
		return true
	case verilog.BBitXnor:
		// Complements high bits: width-sensitive.
		return false
	}
	return false
}

// foldToConst evaluates a constant subtree; on any failure the original
// expression is returned unchanged. Its operands are constants, so it
// names no variable: it needs no frame.
func foldToConst(e Expr) Expr {
	v, err := EvalConst(e, nil)
	if err != nil {
		return e
	}
	return &Const{V: v}
}

// foldBinaryIdentity applies widening-safe identities: x+0, x-0, x|0,
// x^0, x<<0, x>>0, x*1, x&~0, x*0, x&0. Replacements must have the same
// width as the node so truncation semantics are preserved.
func foldBinaryIdentity(x *Binary) Expr {
	cY, yConst := x.Y.(*Const)
	cX, xConst := x.X.(*Const)
	sameWidth := func(e Expr) bool { return e.Width() == x.W }
	zero := func(c *Const) bool { return c.V.IsZero() }
	one := func(c *Const) bool { return c.V.Big().Cmp(big.NewInt(1)) == 0 }
	allOnes := func(c *Const) bool { return c.V.Width() >= x.W && c.V.Slice(x.W-1, 0).RedAnd().Bool() }

	switch x.Op {
	case verilog.BAdd, verilog.BBitOr, verilog.BBitXor:
		if yConst && zero(cY) && sameWidth(x.X) {
			return x.X
		}
		if xConst && zero(cX) && sameWidth(x.Y) {
			return x.Y
		}
	case verilog.BSub, verilog.BShl, verilog.BShr, verilog.BAShl, verilog.BAShr:
		if yConst && zero(cY) && sameWidth(x.X) {
			return x.X
		}
	case verilog.BMul:
		if (yConst && zero(cY)) || (xConst && zero(cX)) {
			return &Const{V: bits.New(x.W)}
		}
		if yConst && one(cY) && sameWidth(x.X) {
			return x.X
		}
		if xConst && one(cX) && sameWidth(x.Y) {
			return x.Y
		}
	case verilog.BBitAnd:
		if (yConst && zero(cY)) || (xConst && zero(cX)) {
			return &Const{V: bits.New(x.W)}
		}
		if yConst && allOnes(cY) && sameWidth(x.X) {
			return x.X
		}
		if xConst && allOnes(cX) && sameWidth(x.Y) {
			return x.Y
		}
	}
	return x
}
