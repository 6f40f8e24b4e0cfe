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
// It marks the live instructions of one unit's code, p.Code[lo:hi],
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
