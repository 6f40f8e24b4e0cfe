package netlist

import "cascade/internal/bits"

// Optimize removes dead instructions from a compiled program: pure ops
// whose destination slot is never read by any live instruction and does
// not back a named variable. Together with the elaborator's constant
// folding this is the synthesis cleanup a vendor flow performs before
// placement; the area statistics (and therefore the toolchain's fit and
// latency models) see the optimized netlist.
//
// Temporaries never cross units, so the pass runs span by span (sweep);
// Compile runs the same sweep on each unit it compiles, which is why
// Optimize(CompileRaw(f)) and Compile(f) are the same program. Dead
// instructions are dropped and jump targets, unit entry points and spans
// are remapped onto the next live instruction.
func Optimize(p *Program) *Program {
	n := len(p.Code)
	keep := make([]bool, n)
	liveSlot := make([]bool, len(p.Slots))
	for i := 0; i < p.varSlots(); i++ {
		liveSlot[i] = true
	}
	for i := range p.Spans {
		lo, hi := p.spanCode(i)
		sweep(p, lo, hi, liveSlot, keep[lo:hi])
	}

	// pcMap[i] is the new index of the first kept instruction at or after
	// i. Sized exactly: the program lives as long as its engines, and
	// append's growth slack on ~100-byte Ops was its largest retained block.
	pcMap := make([]int, n+1)
	live, nsrcs, nconsts := 0, 0, 0
	for i, k := range keep {
		pcMap[i] = live
		if k {
			live, nsrcs = live+1, nsrcs+int(p.Code[i].NSrcs)
			if p.Code[i].Const >= 0 {
				nconsts++
			}
		}
	}
	pcMap[n] = live
	out := *p
	out.Code = make([]Op, 0, live)
	out.Operands = make([]int32, 0, nsrcs)
	out.Consts = make([]*bits.Vector, 0, nconsts)
	for i := range p.Code {
		if keep[i] {
			op := p.Code[i]
			switch op.Kind {
			case OpJump, OpJz:
				op.Target = int32(pcMap[op.Target])
			}
			op.Src = int32(len(out.Operands))
			out.Operands = append(out.Operands, p.Srcs(&p.Code[i])...)
			if op.Const >= 0 {
				op.Const = int32(len(out.Consts))
				out.Consts = append(out.Consts, p.Consts[p.Code[i].Const])
			}
			out.Code = append(out.Code, op)
		}
	}

	out.Comb = make([]CombUnit, len(p.Comb))
	for i, u := range p.Comb {
		out.Comb[i].Entry = pcMap[u.Entry]
	}
	out.Seq = make([]SeqProc, len(p.Seq))
	for i, sp := range p.Seq {
		out.Seq[i] = SeqProc{Edges: sp.Edges, Entry: pcMap[sp.Entry]}
	}
	out.Monitors = make([]MonitorUnit, len(p.Monitors))
	for i, m := range p.Monitors {
		out.Monitors[i].Entry = pcMap[m.Entry]
	}
	out.Spans = make([]Span, len(p.Spans))
	for i, sp := range p.Spans {
		sp.Code = int32(pcMap[sp.Code])
		out.Spans[i] = sp
	}
	out.Stats = computeStats(&out)
	return &out
}

// sweep marks the live instructions of one unit's code, p.Code[lo:hi],
// in keep (indexed from lo), a fixpoint over (live slots, live ops):
// side-effecting instructions (writes, memory ops, tasks, control flow)
// are always live; an instruction becomes live when its destination is;
// a slot becomes live when a live instruction reads it. liveSlot starts
// with every variable-backed slot live and is shared by the units of one
// program — each temporary belongs to one unit.
func sweep(p *Program, lo, hi int, liveSlot, keep []bool) {
	for changed := true; changed; {
		changed = false
		for i := hi - 1; i >= lo; i-- {
			op := &p.Code[i]
			if keep[i-lo] {
				continue
			}
			if sideEffect(op.Kind) || (op.Dst >= 0 && int(op.Dst) < len(liveSlot) && liveSlot[op.Dst]) {
				keep[i-lo] = true
				changed = true
				for _, s := range p.Srcs(op) {
					if s >= 0 && int(s) < len(liveSlot) {
						liveSlot[s] = true
					}
				}
			}
		}
	}
}

func sideEffect(k OpKind) bool {
	switch k {
	case OpWrite, OpWriteRng, OpWriteBit, OpMemWrite,
		OpWriteNB, OpWriteRngNB, OpWriteBitNB, OpMemWriteNB,
		OpDisplay, OpFinish, OpJump, OpJz, OpHalt:
		return true
	}
	return false
}
