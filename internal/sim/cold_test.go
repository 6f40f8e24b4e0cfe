package sim_test

import (
	"testing"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/netlist"
	"cascade/internal/sim"
	"cascade/internal/verilog"
	"cascade/internal/vgen"
)

// TestShortLivedSimulatorsCompileNothing: a simulator that runs only
// briefly pays for no compile. Synthesis runs one to capture a program's
// reset image, and a fresh interpreter engine may run a tick or two
// before a faster tier takes over.
func TestShortLivedSimulatorsCompileNothing(t *testing.T) {
	st, errs := verilog.ParseSourceText(vgen.InlinedChain(150))
	if errs != nil {
		t.Fatal(errs)
	}
	f, err := elab.Elaborate(st.Modules[0], "main", nil)
	if err != nil {
		t.Fatal(err)
	}
	before := sim.UnitsCompiled()
	p, err := netlist.CompileFrom(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	if n := sim.UnitsCompiled() - before; n != 0 {
		t.Fatalf("synthesis compiled %d units of its reset-image run", n)
	}

	s := sim.New(f, sim.Options{})
	s.SetState(p.Reset)
	clk := f.VarNamed("clk__val")
	for _, level := range []uint64{1, 0} {
		s.SetInput(clk, bits.FromUint64(1, level))
		for s.HasActive() || s.HasUpdates() {
			s.Evaluate()
			if s.HasUpdates() {
				s.Update()
			}
		}
		s.EndStep()
	}
	if n := sim.UnitsCompiled() - before; n != 0 {
		t.Fatalf("one tick after SetState compiled %d units", n)
	}
}
