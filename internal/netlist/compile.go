package netlist

import (
	"cascade/internal/elab"
	"cascade/internal/verilog"
)

// compiler lowers units of one design into a scratch program, each into
// a span of its own: code ending in OpHalt, fresh temporaries, its tasks,
// and the variables it reads and writes (see Span). The linker then
// places those spans; see link.
type compiler struct {
	prog *Program
	// mark[v.Index<<1|w] is 1 + the span that last recorded variable v as
	// read (w = 0) or written (w = 1).
	mark []int32
	// arena is the current chunk instructions' sources are carved from:
	// the scratch code is read once by the linker and dropped, so its
	// sources need not be allocated one instruction at a time.
	arena []int
}

// srcs returns a copy of s carved from the arena (never nil).
func (c *compiler) srcs(s ...int) []int {
	if c.arena == nil || cap(c.arena)-len(c.arena) < len(s) {
		c.arena = make([]int, 0, max(1024, len(s)))
	}
	n := len(c.arena)
	c.arena = append(c.arena, s...)
	return c.arena[n:len(c.arena):len(c.arena)]
}

// unit compiles u into a new span of c.prog.
func (c *compiler) unit(u *unit) {
	c.prog.Spans = append(c.prog.Spans, Span{
		Unit: u.id, Ord: u.ord,
		Code: int32(len(c.prog.Code)), Temps: int32(len(c.prog.Slots)),
		Tasks: int32(len(c.prog.Tasks)), Vars: int32(len(c.prog.vars)),
	})
	switch {
	case u.monitor != nil:
		srcs := make([]int, len(u.monitor.Args))
		for i, a := range u.monitor.Args {
			srcs[i] = c.compileExpr(a)
		}
		c.emit(Op{Kind: OpDisplay, Srcs: srcs, Aux: len(c.prog.Tasks)})
		c.prog.Tasks = append(c.prog.Tasks, Task{Src: u.monitor, Monitor: true})
	case u.assign != nil:
		c.compileContAssign(u.assign)
	default:
		c.compileStmt(u.proc.Body)
	}
	c.emit(Op{Kind: OpHalt})
}

// touch records that the current unit reads (or writes) v: the read and
// write sets the driver-class check and levelization are computed from.
// Every variable an expression or lvalue names is recorded here, whether
// or not an instruction ends up reading its slot.
func (c *compiler) touch(v *elab.Var, write bool) {
	k := v.Index << 1
	if write {
		k |= 1
	}
	if stamp := int32(len(c.prog.Spans)); c.mark[k] != stamp {
		c.mark[k] = stamp
		c.prog.vars = append(c.prog.vars, int32(k))
	}
}

func hasLevelEdge(p *elab.Proc) bool {
	for _, e := range p.Edges {
		if e.Kind == elab.Level {
			return true
		}
	}
	return false
}

func hasTrueEdge(p *elab.Proc) bool {
	for _, e := range p.Edges {
		if e.Kind != elab.Level {
			return true
		}
	}
	return false
}

func (c *compiler) newSlot(width int, v *elab.Var) int {
	idx := len(c.prog.Slots)
	c.prog.Slots = append(c.prog.Slots, SlotInfo{Width: width, Wide: width > 64, Var: v})
	return idx
}

func (c *compiler) emit(op Op) int {
	// An op runs on the wide path if its result or any source is wide.
	if op.Width > 64 {
		op.Wide = true
	}
	if op.Dst >= 0 && op.Dst < len(c.prog.Slots) && c.prog.Slots[op.Dst].Wide {
		op.Wide = true
	}
	for _, s := range op.Srcs {
		if s >= 0 && s < len(c.prog.Slots) && c.prog.Slots[s].Wide {
			op.Wide = true
		}
	}
	c.prog.Code = append(c.prog.Code, op)
	return len(c.prog.Code) - 1
}

func (c *compiler) compileContAssign(a *elab.ContAssign) {
	rhs := c.compileExpr(a.RHS)
	c.distribute(a.LHS, rhs, a.RHS.Width(), true)
}

// distribute writes an rhs slot across (possibly concatenated) lvalues.
func (c *compiler) distribute(lhs []elab.LValue, rhs int, rhsWidth int, blocking bool) {
	total := 0
	for _, lv := range lhs {
		total += lv.TargetWidth()
	}
	src := rhs
	if rhsWidth != total {
		src = c.newSlot(total, nil)
		c.emit(Op{Kind: OpMove, Dst: src, Srcs: c.srcs(rhs), Width: total})
	}
	offset := total
	for _, lv := range lhs {
		w := lv.TargetWidth()
		offset -= w
		part := src
		if len(lhs) > 1 {
			part = c.newSlot(w, nil)
			c.emit(Op{Kind: OpSlice, Dst: part, Srcs: c.srcs(src), Width: w, Hi: offset + w - 1, Lo: offset})
		}
		c.writeLValue(lv, part, blocking)
	}
}

func (c *compiler) writeLValue(lv elab.LValue, src int, blocking bool) {
	c.touch(lv.Var, true)
	if lv.ArrIndex != nil {
		addr := c.compileExpr(lv.ArrIndex)
		kind := OpMemWrite
		if !blocking {
			kind = OpMemWriteNB
		}
		c.emit(Op{Kind: kind, Srcs: c.srcs(src, addr), Aux: c.prog.MemOf[lv.Var.Index], Width: lv.Var.Width})
		return
	}
	dst := c.prog.VarSlot[lv.Var.Index]
	switch {
	case lv.DynBit != nil:
		idx := c.compileExpr(lv.DynBit)
		kind := OpWriteBit
		if !blocking {
			kind = OpWriteBitNB
		}
		c.emit(Op{Kind: kind, Dst: dst, Srcs: c.srcs(src, idx), Width: 1})
	case lv.HasRange:
		kind := OpWriteRng
		if !blocking {
			kind = OpWriteRngNB
		}
		c.emit(Op{Kind: kind, Dst: dst, Srcs: c.srcs(src), Hi: lv.Hi, Lo: lv.Lo, Width: lv.Hi - lv.Lo + 1})
	default:
		kind := OpWrite
		if !blocking {
			kind = OpWriteNB
		}
		c.emit(Op{Kind: kind, Dst: dst, Srcs: c.srcs(src), Width: lv.Var.Width})
	}
}

func (c *compiler) compileStmt(s elab.Stmt) {
	switch x := s.(type) {
	case nil:
	case *elab.Block:
		for _, st := range x.Stmts {
			c.compileStmt(st)
		}
	case *elab.If:
		cond := c.compileExpr(x.Cond)
		jz := c.emit(Op{Kind: OpJz, Srcs: c.srcs(cond)})
		c.compileStmt(x.Then)
		if x.Else != nil {
			jmp := c.emit(Op{Kind: OpJump})
			c.prog.Code[jz].Target = len(c.prog.Code)
			c.compileStmt(x.Else)
			c.prog.Code[jmp].Target = len(c.prog.Code)
		} else {
			c.prog.Code[jz].Target = len(c.prog.Code)
		}
	case *elab.Case:
		c.compileCase(x)
	case *elab.Assign:
		rhs := c.compileExpr(x.RHS)
		c.distribute(x.LHS, rhs, x.RHS.Width(), x.Blocking)
	case *elab.SysTask:
		c.compileTask(x)
	default:
		panic(errf("unknown statement %T", s))
	}
}

func (c *compiler) compileCase(x *elab.Case) {
	subj := c.compileExpr(x.Subject)
	type arm struct {
		item *elab.CaseItem
		jsrc []int // Jnz sites targeting this arm's body
	}
	var arms []arm
	var defaultItem *elab.CaseItem
	for _, item := range x.Items {
		if item.Labels == nil {
			defaultItem = item
			continue
		}
		a := arm{item: item}
		for li, l := range item.Labels {
			ls := c.compileExpr(l)
			if m := item.Masks[li]; m != nil {
				// casez wildcard: match when (subj ^ label) & mask == 0.
				w := x.Subject.Width()
				if l.Width() > w {
					w = l.Width()
				}
				diff := c.newSlot(w, nil)
				c.emit(Op{Kind: OpXor, Dst: diff, Srcs: c.srcs(subj, ls), Width: w})
				mk := c.newSlot(m.Width(), nil)
				c.emit(Op{Kind: OpConst, Dst: mk, Width: m.Width(), Const: m})
				masked := c.newSlot(w, nil)
				c.emit(Op{Kind: OpAnd, Dst: masked, Srcs: c.srcs(diff, mk), Width: w})
				a.jsrc = append(a.jsrc, c.emit(Op{Kind: OpJz, Srcs: c.srcs(masked)}))
				continue
			}
			eq := c.newSlot(1, nil)
			c.emit(Op{Kind: OpEq, Dst: eq, Srcs: c.srcs(subj, ls), Width: 1})
			// Jump to the arm body when equal: invert and Jz.
			inv := c.newSlot(1, nil)
			c.emit(Op{Kind: OpLogNot, Dst: inv, Srcs: c.srcs(eq), Width: 1})
			a.jsrc = append(a.jsrc, c.emit(Op{Kind: OpJz, Srcs: c.srcs(inv)}))
		}
		arms = append(arms, a)
	}
	jmpDefault := c.emit(Op{Kind: OpJump})
	var ends []int
	for _, a := range arms {
		body := len(c.prog.Code)
		for _, site := range a.jsrc {
			c.prog.Code[site].Target = body
		}
		c.compileStmt(a.item.Body)
		ends = append(ends, c.emit(Op{Kind: OpJump}))
	}
	c.prog.Code[jmpDefault].Target = len(c.prog.Code)
	if defaultItem != nil {
		c.compileStmt(defaultItem.Body)
	}
	end := len(c.prog.Code)
	for _, site := range ends {
		c.prog.Code[site].Target = end
	}
}

func (c *compiler) compileTask(t *elab.SysTask) {
	switch t.Kind {
	case elab.TaskFinish:
		c.emit(Op{Kind: OpFinish})
	case elab.TaskDisplay, elab.TaskWrite, elab.TaskMonitor:
		srcs := make([]int, len(t.Args))
		for i, a := range t.Args {
			srcs[i] = c.compileExpr(a)
		}
		c.emit(Op{Kind: OpDisplay, Srcs: srcs, Aux: len(c.prog.Tasks)})
		c.prog.Tasks = append(c.prog.Tasks, Task{Src: t})
	}
}

// compileExpr lowers an expression and returns the slot holding its value.
func (c *compiler) compileExpr(e elab.Expr) int {
	switch x := e.(type) {
	case *elab.Const:
		dst := c.newSlot(x.V.Width(), nil)
		c.emit(Op{Kind: OpConst, Dst: dst, Width: x.V.Width(), Const: x.V})
		return dst
	case *elab.VarRef:
		c.touch(x.V, false)
		return c.prog.VarSlot[x.V.Index]
	case *elab.ArrayRef:
		c.touch(x.V, false)
		addr := c.compileExpr(x.Index)
		dst := c.newSlot(x.V.Width, nil)
		c.emit(Op{Kind: OpMemRead, Dst: dst, Srcs: c.srcs(addr), Aux: c.prog.MemOf[x.V.Index], Width: x.V.Width})
		return dst
	case *elab.BitSel:
		v := c.compileExpr(x.X)
		idx := c.compileExpr(x.Idx)
		dst := c.newSlot(1, nil)
		c.emit(Op{Kind: OpBitSel, Dst: dst, Srcs: c.srcs(v, idx), Width: 1})
		return dst
	case *elab.Slice:
		v := c.compileExpr(x.X)
		dst := c.newSlot(x.Width(), nil)
		c.emit(Op{Kind: OpSlice, Dst: dst, Srcs: c.srcs(v), Width: x.Width(), Hi: x.Hi, Lo: x.Lo})
		return dst
	case *elab.Unary:
		return c.compileUnary(x)
	case *elab.Binary:
		return c.compileBinary(x)
	case *elab.Ternary:
		cond := c.compileExpr(x.Cond)
		a := c.compileExpr(x.Then)
		b := c.compileExpr(x.Else)
		dst := c.newSlot(x.W, nil)
		c.emit(Op{Kind: OpMux, Dst: dst, Srcs: c.srcs(cond, a, b), Width: x.W})
		return dst
	case *elab.Concat:
		srcs := make([]int, len(x.Parts))
		for i, p := range x.Parts {
			srcs[i] = c.compileExpr(p)
		}
		dst := c.newSlot(x.W, nil)
		c.emit(Op{Kind: OpConcat, Dst: dst, Srcs: srcs, Width: x.W})
		return dst
	case *elab.Repl:
		v := c.compileExpr(x.X)
		dst := c.newSlot(x.W, nil)
		c.emit(Op{Kind: OpRepl, Dst: dst, Srcs: c.srcs(v), Width: x.W, N: x.N})
		return dst
	case *elab.TimeRef:
		dst := c.newSlot(64, nil)
		c.emit(Op{Kind: OpTime, Dst: dst, Width: 64})
		return dst
	}
	panic(errf("unknown expression %T", e))
}

var unaryKinds = map[verilog.UnaryOp]OpKind{
	verilog.UNot: OpLogNot, verilog.UBitNot: OpNot, verilog.UNeg: OpNeg,
	verilog.URedAnd: OpRedAnd, verilog.URedOr: OpRedOr, verilog.URedXor: OpRedXor,
	verilog.URedNand: OpRedNand, verilog.URedNor: OpRedNor, verilog.URedXnor: OpRedXnor,
}

func (c *compiler) compileUnary(x *elab.Unary) int {
	v := c.compileExpr(x.X)
	if x.Op == verilog.UPlus {
		if x.W == c.prog.Slots[v].Width {
			return v
		}
		dst := c.newSlot(x.W, nil)
		c.emit(Op{Kind: OpMove, Dst: dst, Srcs: c.srcs(v), Width: x.W})
		return dst
	}
	dst := c.newSlot(x.W, nil)
	c.emit(Op{Kind: unaryKinds[x.Op], Dst: dst, Srcs: c.srcs(v), Width: x.W})
	return dst
}

var binaryKinds = map[verilog.BinaryOp]OpKind{
	verilog.BAdd: OpAdd, verilog.BSub: OpSub, verilog.BMul: OpMul,
	verilog.BDiv: OpDiv, verilog.BMod: OpMod, verilog.BPow: OpPow,
	verilog.BBitAnd: OpAnd, verilog.BBitOr: OpOr, verilog.BBitXor: OpXor, verilog.BBitXnor: OpXnor,
	verilog.BShl: OpShl, verilog.BAShl: OpShl, verilog.BShr: OpShr, verilog.BAShr: OpShr,
	verilog.BEq: OpEq, verilog.BCaseEq: OpEq, verilog.BNeq: OpNe, verilog.BCaseNeq: OpNe,
	verilog.BLt: OpLt, verilog.BLe: OpLe, verilog.BGt: OpGt, verilog.BGe: OpGe,
	verilog.BLogAnd: OpLogAnd, verilog.BLogOr: OpLogOr,
}

func (c *compiler) compileBinary(x *elab.Binary) int {
	a := c.compileExpr(x.X)
	b := c.compileExpr(x.Y)
	dst := c.newSlot(x.W, nil)
	c.emit(Op{Kind: binaryKinds[x.Op], Dst: dst, Srcs: c.srcs(a, b), Width: x.W})
	return dst
}
