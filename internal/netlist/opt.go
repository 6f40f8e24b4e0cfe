package netlist

// Optimize removes dead instructions from a compiled program: pure ops
// whose destination slot is never read by any live instruction and does
// not back a named variable. Together with the elaborator's constant
// folding this is the synthesis cleanup a vendor flow performs before
// placement; the area statistics (and therefore the toolchain's fit and
// latency models) see the optimized netlist.
//
// The pass is a fixpoint over (live slots, live ops): side-effecting
// instructions (writes, memory ops, tasks, control flow) are always live;
// an instruction becomes live when its destination is; a slot becomes
// live when a live instruction reads it or a named variable backs it.
// Dead instructions are then dropped and jump targets and unit entry
// points are remapped.
func Optimize(p *Program) *Program {
	n := len(p.Code)
	liveOp := make([]bool, n)
	liveSlot := make([]bool, len(p.Slots))
	for i, s := range p.Slots {
		if s.Var != nil {
			liveSlot[i] = true
		}
	}
	sideEffect := func(op *Op) bool {
		switch op.Kind {
		case OpWrite, OpWriteRng, OpWriteBit, OpMemWrite,
			OpWriteNB, OpWriteRngNB, OpWriteBitNB, OpMemWriteNB,
			OpDisplay, OpFinish, OpJump, OpJz, OpHalt:
			return true
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			op := &p.Code[i]
			if liveOp[i] {
				continue
			}
			if sideEffect(op) || (op.Dst >= 0 && op.Dst < len(liveSlot) && liveSlot[op.Dst]) {
				liveOp[i] = true
				changed = true
				for _, s := range op.Srcs {
					if s >= 0 && s < len(liveSlot) && !liveSlot[s] {
						liveSlot[s] = true
					}
				}
			}
		}
	}

	// Rebuild the code array; pcMap[i] is the new index of the first
	// kept instruction at or after i (entry points and jump targets land
	// on the next live instruction).
	pcMap := make([]int, n+1)
	live := 0
	for _, l := range liveOp {
		if l {
			live++
		}
	}
	// Sized exactly: the program lives as long as the bitstream cache, and
	// append's growth slack on ~100-byte Ops was its largest retained block.
	code := make([]Op, 0, live)
	for i := 0; i < n; i++ {
		pcMap[i] = len(code) // the next kept instruction, when i is dropped
		if liveOp[i] {
			code = append(code, p.Code[i])
		}
	}
	pcMap[n] = live
	for i := range code {
		switch code[i].Kind {
		case OpJump, OpJz:
			code[i].Target = pcMap[code[i].Target]
		}
	}

	out := &Program{
		Flat:       p.Flat,
		Code:       code,
		Slots:      p.Slots,
		VarSlot:    p.VarSlot,
		Mems:       p.Mems,
		MemOf:      p.MemOf,
		Tasks:      p.Tasks,
		ResetState: p.ResetState,
		ResetMems:  p.ResetMems,
	}
	for _, u := range p.Comb {
		out.Comb = append(out.Comb, CombUnit{Entry: pcMap[u.Entry]})
	}
	for _, sp := range p.Seq {
		out.Seq = append(out.Seq, SeqProc{Edges: sp.Edges, Entry: pcMap[sp.Entry]})
	}
	for _, m := range p.Monitors {
		out.Monitors = append(out.Monitors, MonitorUnit{Entry: pcMap[m.Entry]})
	}
	out.Stats = computeStats(out)
	return out
}
