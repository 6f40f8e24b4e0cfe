package elab

import (
	"cascade/internal/bits"
	"cascade/internal/verilog"
)

// expr resolves an AST expression against the current scope, computes
// self-determined widths bottom-up, and constant-folds the result (see
// fold.go). Context widening (Verilog's rule that an assignment target or
// comparison widens its operands so carries are not lost) is applied
// afterwards by widenContext.
func (e *elaborator) expr(x verilog.Expr) (Expr, error) {
	r, err := e.exprRaw(x)
	if err != nil {
		return nil, err
	}
	return fold(r), nil
}

func (e *elaborator) exprRaw(x verilog.Expr) (Expr, error) {
	switch t := x.(type) {
	case *verilog.Number:
		return &Const{V: t.Val}, nil
	case *verilog.StringLit:
		// A string in expression position is its ASCII bytes, MSB first.
		if len(t.Value) == 0 {
			return &Const{V: bits.New(8)}, nil
		}
		v := bits.New(8 * len(t.Value))
		for i := 0; i < len(t.Value); i++ {
			byteVal := bits.FromUint64(8, uint64(t.Value[len(t.Value)-1-i]))
			v.SetSlice(i*8+7, i*8, byteVal)
		}
		return &Const{V: v}, nil
	case *verilog.Ident:
		if lv, ok := e.loopVars[t.Name]; ok {
			return &Const{V: lv}, nil
		}
		if cv, ok := e.consts[t.Name]; ok {
			return &Const{V: cv}, nil
		}
		v := e.lookup(t.Name)
		if v == nil {
			return nil, e.errf(t.IdentPos, "undeclared identifier %s", t.Name)
		}
		if v.IsArray() {
			return nil, e.errf(t.IdentPos, "memory %s must be indexed", t.Name)
		}
		return &VarRef{V: v}, nil
	case *verilog.HierIdent:
		return nil, e.errf(t.IdentPos, "internal: hierarchical reference %v survived IR promotion", t.Parts)
	case *verilog.Unary:
		xx, err := e.expr(t.X)
		if err != nil {
			return nil, err
		}
		w := 1
		switch t.Op {
		case verilog.UBitNot, verilog.UNeg, verilog.UPlus:
			w = xx.Width()
		}
		return &Unary{Op: t.Op, X: xx, W: w}, nil
	case *verilog.Binary:
		return e.binary(t)
	case *verilog.Ternary:
		cond, err := e.expr(t.Cond)
		if err != nil {
			return nil, err
		}
		then, err := e.expr(t.Then)
		if err != nil {
			return nil, err
		}
		els, err := e.expr(t.Else)
		if err != nil {
			return nil, err
		}
		w := max(then.Width(), els.Width())
		r := &Ternary{Cond: cond, Then: then, Else: els, W: w}
		widenContext(r.Then, w)
		widenContext(r.Else, w)
		return r, nil
	case *verilog.Index:
		return e.index(t)
	case *verilog.RangeSel:
		return e.rangeSel(t)
	case *verilog.Concat:
		c := &Concat{}
		for _, p := range t.Parts {
			rp, err := e.expr(p)
			if err != nil {
				return nil, err
			}
			c.Parts = append(c.Parts, rp)
			c.W += rp.Width()
		}
		return c, nil
	case *verilog.Repl:
		n, err := e.constExpr(t.Count)
		if err != nil {
			return nil, err
		}
		cnt := int(n.Uint64())
		if cnt < 1 || cnt > 1<<16 {
			return nil, e.errf(t.LPos, "replication count %d out of range", cnt)
		}
		xx, err := e.expr(t.X)
		if err != nil {
			return nil, err
		}
		return &Repl{N: cnt, X: xx, W: cnt * xx.Width()}, nil
	case *verilog.SysCall:
		if t.Name == "$time" {
			return &TimeRef{}, nil
		}
		return nil, e.errf(t.CallPos, "unsupported system function %s", t.Name)
	}
	return nil, e.errf(x.Pos(), "unsupported expression %T", x)
}

func (e *elaborator) binary(t *verilog.Binary) (Expr, error) {
	xx, err := e.expr(t.X)
	if err != nil {
		return nil, err
	}
	yy, err := e.expr(t.Y)
	if err != nil {
		return nil, err
	}
	var w int
	switch t.Op {
	case verilog.BAdd, verilog.BSub, verilog.BMul, verilog.BDiv, verilog.BMod,
		verilog.BBitAnd, verilog.BBitOr, verilog.BBitXor, verilog.BBitXnor:
		w = max(xx.Width(), yy.Width())
	case verilog.BPow, verilog.BShl, verilog.BShr, verilog.BAShl, verilog.BAShr:
		w = xx.Width()
	case verilog.BEq, verilog.BNeq, verilog.BCaseEq, verilog.BCaseNeq,
		verilog.BLt, verilog.BLe, verilog.BGt, verilog.BGe:
		// Comparison operands form their own context.
		cw := max(xx.Width(), yy.Width())
		widenContext(xx, cw)
		widenContext(yy, cw)
		w = 1
	case verilog.BLogAnd, verilog.BLogOr:
		w = 1
	default:
		return nil, e.errf(t.OpPos, "unsupported binary operator")
	}
	return &Binary{Op: t.Op, X: xx, Y: yy, W: w}, nil
}

func (e *elaborator) index(t *verilog.Index) (Expr, error) {
	// Memory word select needs the base to be a plain identifier.
	if id, ok := t.X.(*verilog.Ident); ok {
		if _, isLoop := e.loopVars[id.Name]; !isLoop {
			if _, isConst := e.consts[id.Name]; !isConst {
				v := e.flat.VarNamed(id.Name) // a scalar is named below, by e.expr
				if v == nil {
					return nil, e.errf(id.IdentPos, "undeclared identifier %s", id.Name)
				}
				if v.IsArray() {
					e.note()
					idx, err := e.expr(t.Idx)
					if err != nil {
						return nil, err
					}
					return &ArrayRef{V: v, Index: e.adjustArrayIndex(v, idx)}, nil
				}
			}
		}
	}
	xx, err := e.expr(t.X)
	if err != nil {
		return nil, err
	}
	idx, err := e.expr(t.Idx)
	if err != nil {
		return nil, err
	}
	if c, ok := idx.(*Const); ok {
		bit := int(c.V.Uint64())
		if bit >= xx.Width() {
			return nil, e.errf(t.LPos, "bit select [%d] out of range (width %d)", bit, xx.Width())
		}
		return &Slice{X: xx, Hi: bit, Lo: bit}, nil
	}
	return &BitSel{X: xx, Idx: idx}, nil
}

func (e *elaborator) rangeSel(t *verilog.RangeSel) (Expr, error) {
	xx, err := e.expr(t.X)
	if err != nil {
		return nil, err
	}
	hi, err := e.constExpr(t.Hi)
	if err != nil {
		return nil, err
	}
	lo, err := e.constExpr(t.Lo)
	if err != nil {
		return nil, err
	}
	h, l := int(hi.Uint64()), int(lo.Uint64())
	if h < l || h >= xx.Width() {
		return nil, e.errf(t.LPos, "part select [%d:%d] out of range (width %d)", h, l, xx.Width())
	}
	return &Slice{X: xx, Hi: h, Lo: l}, nil
}

// widenContext pushes an assignment or comparison context width w down
// through context-determined operands, enlarging result widths so carries
// and borrows are preserved, mirroring the IEEE sizing rules for the
// unsigned subset. Self-determined positions (shift amounts, concat parts,
// index subscripts, reduction operands, condition of ?:) stop propagation.
func widenContext(e Expr, w int) {
	switch x := e.(type) {
	case *Binary:
		switch x.Op {
		case verilog.BAdd, verilog.BSub, verilog.BMul, verilog.BDiv, verilog.BMod,
			verilog.BBitAnd, verilog.BBitOr, verilog.BBitXor, verilog.BBitXnor:
			if w > x.W {
				x.W = w
			}
			widenContext(x.X, x.W)
			widenContext(x.Y, x.W)
		case verilog.BShl, verilog.BShr, verilog.BAShl, verilog.BAShr, verilog.BPow:
			if w > x.W {
				x.W = w
			}
			widenContext(x.X, x.W)
		}
	case *Unary:
		switch x.Op {
		case verilog.UBitNot, verilog.UNeg, verilog.UPlus:
			if w > x.W {
				x.W = w
			}
			widenContext(x.X, x.W)
		}
	case *Ternary:
		if w > x.W {
			x.W = w
		}
		widenContext(x.Then, x.W)
		widenContext(x.Else, x.W)
	}
}
