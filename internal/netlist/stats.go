package netlist

import "math"

// Stats summarizes the synthesized netlist in FPGA resource terms. The
// blackbox toolchain model (internal/toolchain) uses these numbers to
// derive compile latency, device fit, and timing closure — the three
// observable behaviours of a vendor compiler that Cascade's JIT design
// responds to.
type Stats struct {
	Cells     int // LUT-equivalent combinational cells
	FFs       int // flip-flops (register bits)
	MemBits   int // block-RAM bits
	CritPath  int // levels of logic on the critical path
	CodeOps   int // netlist instructions (compiled code size)
	SeqProcs  int
	CombUnits int
}

// LogicElements returns the device-fit metric: LUT cells plus register
// bits (one LE holds a LUT and an FF on Cyclone-class parts).
func (s Stats) LogicElements() int {
	if s.Cells > s.FFs {
		return s.Cells
	}
	return s.FFs
}

func log2ceil(n int) int {
	if n <= 1 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

// cellCost estimates LUT cells for one instruction reading srcs.
func cellCost(op *Op, srcs []int32, slots []SlotInfo) int {
	w := int(op.Width)
	if w < 1 {
		w = 1
	}
	switch op.Kind {
	case OpConst, OpMove, OpSlice, OpConcat, OpRepl, OpHalt, OpJump, OpTime:
		return 0 // wiring only
	case OpAdd, OpSub, OpNeg:
		return w
	case OpMul:
		return w * w / 4
	case OpDiv, OpMod, OpPow:
		return w * w
	case OpAnd, OpOr, OpXor, OpXnor, OpNot:
		return w
	case OpLogNot, OpRedAnd, OpRedOr, OpRedXor, OpRedNand, OpRedNor, OpRedXnor:
		if len(srcs) > 0 {
			return slots[srcs[0]].Width / 2
		}
		return w / 2
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		if len(srcs) > 0 {
			return slots[srcs[0]].Width
		}
		return w
	case OpLogAnd, OpLogOr:
		return 1
	case OpShl, OpShr:
		return w * log2ceil(w) / 2
	case OpBitSel:
		if len(srcs) > 0 {
			return log2ceil(slots[srcs[0]].Width) * 2
		}
		return 2
	case OpMux:
		return w
	case OpMemRead:
		return log2ceil(w) // address decode; storage counted as MemBits
	case OpJz:
		return 1 // condition into control FSM
	case OpWrite, OpWriteNB:
		return 0 // register input wiring
	case OpWriteRng, OpWriteRngNB, OpWriteBit, OpWriteBitNB:
		return w // write-enable masking
	case OpMemWrite, OpMemWriteNB:
		return log2ceil(w) + 2
	case OpDisplay:
		// Argument capture registers plus task-mask logic (Figure 10).
		total := 2
		for _, s := range srcs {
			total += slots[s].Width
		}
		return total
	case OpFinish:
		return 1
	}
	return 1
}

// delayCost estimates levels of logic contributed by one instruction.
func delayCost(op *Op) int {
	w := int(op.Width)
	if w < 1 {
		w = 1
	}
	switch op.Kind {
	case OpConst, OpMove, OpSlice, OpConcat, OpRepl, OpHalt, OpJump, OpTime,
		OpWrite, OpWriteNB, OpDisplay, OpFinish:
		return 0
	case OpAdd, OpSub, OpNeg, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return log2ceil(w) + 1
	case OpMul:
		return 2 * log2ceil(w)
	case OpDiv, OpMod, OpPow:
		return w
	case OpAnd, OpOr, OpXor, OpXnor, OpNot, OpLogAnd, OpLogOr, OpLogNot, OpMux, OpJz:
		return 1
	case OpRedAnd, OpRedOr, OpRedXor, OpRedNand, OpRedNor, OpRedXnor:
		return log2ceil(w) + 1
	case OpShl, OpShr, OpBitSel:
		return log2ceil(w) + 1
	case OpMemRead, OpMemWrite, OpMemWriteNB:
		return 2
	case OpWriteRng, OpWriteRngNB, OpWriteBit, OpWriteBitNB:
		return 1
	}
	return 1
}

// computeStats derives resource and timing estimates for a compiled
// program. Critical path is approximated per slot: depth(dst) =
// max(depth(srcs)) + delay(op), taken over the whole schedule, span by
// span in schedule order.
func computeStats(p *Program) Stats {
	st := Stats{
		SeqProcs:  len(p.Seq),
		CombUnits: p.Comb,
	}
	for _, v := range p.Flat.Vars {
		if v.IsArray() {
			st.MemBits += v.Width * v.ArrayLen
			continue
		}
		if v.IsReg {
			st.FFs += v.Width
		}
	}
	depth := make([]int32, len(p.Slots))
	var maxDepth int32
	var srcs []int32
	for i := range p.Spans {
		sp := &p.Spans[i]
		st.CodeOps += len(sp.Ops)
		srcs = p.Sources(sp, srcs[:0])
		for pc := range sp.Ops {
			op := &sp.Ops[pc]
			ss := srcs[op.Src : op.Src+op.NSrcs]
			st.Cells += cellCost(op, ss, p.Slots)
			var d int32
			for _, s := range ss {
				if s >= 0 && int(s) < len(depth) && depth[s] > d {
					d = depth[s]
				}
			}
			d += int32(delayCost(op))
			if d > maxDepth {
				maxDepth = d
			}
			dst := op.Dst // a kind without one names slot 0, as the statistics always read it
			if hasDst(op.Kind) {
				dst = p.Slot(sp, dst)
			}
			if dst < 0 || int(dst) >= len(depth) {
				continue
			}
			// A flip-flop output starts a fresh timing path: non-blocking
			// writes latch into registers, so depth does not propagate
			// through them. Blocking writes (combinational always blocks
			// and sequential temporaries) conservatively propagate.
			switch op.Kind {
			case OpWriteNB, OpWriteRngNB, OpWriteBitNB:
				continue
			}
			if d > depth[dst] {
				depth[dst] = d
			}
		}
	}
	st.CritPath = int(maxDepth)
	return st
}
