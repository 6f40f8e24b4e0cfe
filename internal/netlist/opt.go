package netlist

// sweep is synthesis's dead-code elimination: it drops pure ops whose
// destination slot is never read by any live instruction and does not
// back a named variable. Together with the elaborator's constant folding
// this is the cleanup a vendor flow performs before placement; the area
// statistics (and therefore the toolchain's fit and latency models) see
// the swept netlist. Temporaries never cross units, so Compile runs it
// unit by unit as it links; CompileRaw skips it (the ablation's raw
// reference).
//
// It marks the live instructions of one unit's code in keep, a fixpoint
// over (live temporaries, live ops): side-effecting instructions (writes,
// memory ops, tasks, control flow) are always live; an instruction
// becomes live when its destination is — a variable always is; a
// temporary becomes live when a live instruction reads it. live has a
// false entry per temporary of the unit; operands is the arena code's
// sources are in.
func sweep(code []Op, operands []int32, live, keep []bool) {
	for changed := true; changed; {
		changed = false
		for i := len(code) - 1; i >= 0; i-- {
			op := &code[i]
			if keep[i] || !sideEffect(op.Kind) && op.Dst >= 0 && !live[op.Dst] {
				continue
			}
			keep[i], changed = true, true
			for _, s := range operands[op.Src : op.Src+op.NSrcs] {
				if s >= 0 {
					live[s] = true
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
