package netlist

import (
	"cascade/internal/bits"
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
	// args stacks the sources of the instructions being compiled that
	// take a list (concatenations, display tasks), nested ones on top.
	args []int
}

// unit compiles u into a new span of c.prog.
func (c *compiler) unit(u *unit, f *elab.Flat) {
	c.prog.Spans = append(c.prog.Spans, Span{
		Unit: u.id, Ord: u.ord,
		Code: int32(len(c.prog.Code)), Temps: int32(len(c.prog.Slots)),
		Tasks: int32(len(c.prog.Tasks)), Vars: int32(len(c.prog.vars)),
	})
	switch u.kind {
	case unitMonitor:
		c.display(u.monitorIn(f), true)
	case unitAssign:
		c.compileContAssign(f.Assigns[u.at])
	default:
		c.compileStmt(f.Procs[u.at].Body)
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

// emit appends op reading srcs, which go to the source arena, and
// returns its pc. An op runs on the wide path if its result or any
// source is wide.
func (c *compiler) emit(op Op, srcs ...int) int {
	slots := c.prog.Slots
	op.Wide = op.Width > 64 || (op.Dst >= 0 && int(op.Dst) < len(slots) && slots[op.Dst].Wide)
	op.Src, op.NSrcs, op.Const = int32(len(c.prog.Operands)), int32(len(srcs)), -1
	for _, s := range srcs {
		op.Wide = op.Wide || (s >= 0 && s < len(slots) && slots[s].Wide)
		c.prog.Operands = append(c.prog.Operands, int32(s))
	}
	c.prog.Code = append(c.prog.Code, op)
	return len(c.prog.Code) - 1
}

// constant emits dst = v.
func (c *compiler) constant(dst int, v *bits.Vector) {
	pc := c.emit(Op{Kind: OpConst, Dst: int32(dst), Width: int32(v.Width())})
	c.prog.Code[pc].Const = int32(len(c.prog.Consts))
	c.prog.Consts = append(c.prog.Consts, v)
}

// target points the jump at pc to the next instruction emitted.
func (c *compiler) target(pc int) { c.prog.Code[pc].Target = int32(len(c.prog.Code)) }

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
		c.emit(Op{Kind: OpMove, Dst: int32(src), Width: int32(total)}, rhs)
	}
	offset := total
	for _, lv := range lhs {
		w := lv.TargetWidth()
		offset -= w
		part := src
		if len(lhs) > 1 {
			part = c.newSlot(w, nil)
			c.emit(Op{Kind: OpSlice, Dst: int32(part), Width: int32(w), Hi: int32(offset + w - 1), Lo: int32(offset)}, src)
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
		c.emit(Op{Kind: kind, Aux: int32(c.prog.MemOf[lv.Var.Index]), Width: int32(lv.Var.Width)}, src, addr)
		return
	}
	dst := int32(c.prog.VarSlot[lv.Var.Index])
	switch {
	case lv.DynBit != nil:
		idx := c.compileExpr(lv.DynBit)
		kind := OpWriteBit
		if !blocking {
			kind = OpWriteBitNB
		}
		c.emit(Op{Kind: kind, Dst: dst, Width: 1}, src, idx)
	case lv.HasRange:
		kind := OpWriteRng
		if !blocking {
			kind = OpWriteRngNB
		}
		c.emit(Op{Kind: kind, Dst: dst, Hi: int32(lv.Hi), Lo: int32(lv.Lo), Width: int32(lv.Hi - lv.Lo + 1)}, src)
	default:
		kind := OpWrite
		if !blocking {
			kind = OpWriteNB
		}
		c.emit(Op{Kind: kind, Dst: dst, Width: int32(lv.Var.Width)}, src)
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
		jz := c.emit(Op{Kind: OpJz}, cond)
		c.compileStmt(x.Then)
		if x.Else != nil {
			jmp := c.emit(Op{Kind: OpJump})
			c.target(jz)
			c.compileStmt(x.Else)
			c.target(jmp)
		} else {
			c.target(jz)
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
				c.emit(Op{Kind: OpXor, Dst: int32(diff), Width: int32(w)}, subj, ls)
				mk := c.newSlot(m.Width(), nil)
				c.constant(mk, m)
				masked := c.newSlot(w, nil)
				c.emit(Op{Kind: OpAnd, Dst: int32(masked), Width: int32(w)}, diff, mk)
				a.jsrc = append(a.jsrc, c.emit(Op{Kind: OpJz}, masked))
				continue
			}
			eq := c.newSlot(1, nil)
			c.emit(Op{Kind: OpEq, Dst: int32(eq), Width: 1}, subj, ls)
			// Jump to the arm body when equal: invert and Jz.
			inv := c.newSlot(1, nil)
			c.emit(Op{Kind: OpLogNot, Dst: int32(inv), Width: 1}, eq)
			a.jsrc = append(a.jsrc, c.emit(Op{Kind: OpJz}, inv))
		}
		arms = append(arms, a)
	}
	jmpDefault := c.emit(Op{Kind: OpJump})
	var ends []int
	for _, a := range arms {
		for _, site := range a.jsrc {
			c.target(site)
		}
		c.compileStmt(a.item.Body)
		ends = append(ends, c.emit(Op{Kind: OpJump}))
	}
	c.target(jmpDefault)
	if defaultItem != nil {
		c.compileStmt(defaultItem.Body)
	}
	for _, site := range ends {
		c.target(site)
	}
}

func (c *compiler) compileTask(t *elab.SysTask) {
	switch t.Kind {
	case elab.TaskFinish:
		c.emit(Op{Kind: OpFinish})
	case elab.TaskDisplay, elab.TaskWrite, elab.TaskMonitor:
		c.display(t, false)
	}
}

// display emits the capture of t's arguments as task t; monitor marks
// the $monitor of an initial block, run at the end of each time step.
func (c *compiler) display(t *elab.SysTask, monitor bool) {
	srcs := c.compileList(t.Args)
	c.emit(Op{Kind: OpDisplay, Aux: int32(len(c.prog.Tasks))}, srcs...)
	c.args = c.args[:len(c.args)-len(srcs)]
	c.prog.Tasks = append(c.prog.Tasks, Task{Src: t, Monitor: monitor})
}

// compileList lowers es and returns the slots holding their values, on
// top of c.args; the caller pops them once it has emitted their reader.
func (c *compiler) compileList(es []elab.Expr) []int {
	for _, e := range es {
		s := c.compileExpr(e)
		c.args = append(c.args, s)
	}
	return c.args[len(c.args)-len(es):]
}

// compileExpr lowers an expression and returns the slot holding its value.
func (c *compiler) compileExpr(e elab.Expr) int {
	switch x := e.(type) {
	case *elab.Const:
		dst := c.newSlot(x.V.Width(), nil)
		c.constant(dst, x.V)
		return dst
	case *elab.VarRef:
		c.touch(x.V, false)
		return c.prog.VarSlot[x.V.Index]
	case *elab.ArrayRef:
		c.touch(x.V, false)
		addr := c.compileExpr(x.Index)
		dst := c.newSlot(x.V.Width, nil)
		c.emit(Op{Kind: OpMemRead, Dst: int32(dst), Aux: int32(c.prog.MemOf[x.V.Index]), Width: int32(x.V.Width)}, addr)
		return dst
	case *elab.BitSel:
		v := c.compileExpr(x.X)
		idx := c.compileExpr(x.Idx)
		dst := c.newSlot(1, nil)
		c.emit(Op{Kind: OpBitSel, Dst: int32(dst), Width: 1}, v, idx)
		return dst
	case *elab.Slice:
		v := c.compileExpr(x.X)
		dst := c.newSlot(x.Width(), nil)
		c.emit(Op{Kind: OpSlice, Dst: int32(dst), Width: int32(x.Width()), Hi: int32(x.Hi), Lo: int32(x.Lo)}, v)
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
		c.emit(Op{Kind: OpMux, Dst: int32(dst), Width: int32(x.W)}, cond, a, b)
		return dst
	case *elab.Concat:
		srcs := c.compileList(x.Parts)
		dst := c.newSlot(x.W, nil)
		c.emit(Op{Kind: OpConcat, Dst: int32(dst), Width: int32(x.W)}, srcs...)
		c.args = c.args[:len(c.args)-len(srcs)]
		return dst
	case *elab.Repl:
		v := c.compileExpr(x.X)
		dst := c.newSlot(x.W, nil)
		c.emit(Op{Kind: OpRepl, Dst: int32(dst), Width: int32(x.W), N: int32(x.N)}, v)
		return dst
	case *elab.TimeRef:
		dst := c.newSlot(64, nil)
		c.emit(Op{Kind: OpTime, Dst: int32(dst), Width: 64})
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
		c.emit(Op{Kind: OpMove, Dst: int32(dst), Width: int32(x.W)}, v)
		return dst
	}
	dst := c.newSlot(x.W, nil)
	c.emit(Op{Kind: unaryKinds[x.Op], Dst: int32(dst), Width: int32(x.W)}, v)
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
	c.emit(Op{Kind: binaryKinds[x.Op], Dst: int32(dst), Width: int32(x.W)}, a, b)
	return dst
}
