package runtime

import (
	"testing"

	"cascade/internal/fpga"
	"cascade/internal/toolchain"
)

// TestSharedToolchainHitKeepsOwnPorts: two runtimes share one compile
// service. Their main.m engines synthesize to the same netlist — and so
// the same bitstream-cache key — but y is an internal wire in the first
// and an output port wired to the LEDs in the second. The second's cache
// hit must still program its fabric from its own netlist: its LEDs read
// what they would on a private toolchain.
func TestSharedToolchainHitKeepsOwnPorts(t *testing.T) {
	const body = `
  reg [7:0] a = 0;
  always @(posedge clk) begin a <= a + 1; $display("%h", y); end
  assign y = a;
endmodule
`
	const wireVariant = "module M(input wire clk);\n  wire [7:0] y;" + body + "M m(.clk(clk.val));"
	const portVariant = "module M(input wire clk, output wire [7:0] y);" + body + "M m(.clk(clk.val), .y(led.val));"

	newToolchain := func() *toolchain.Toolchain {
		tco := toolchain.DefaultOptions()
		tco.Scale = 1e9
		tco.BasePs = 1
		return toolchain.New(fpga.NewCycloneV(), tco)
	}
	// run executes prog for 100 ticks and returns the LED bank, requiring
	// that main.m was promoted to hardware on the way.
	run := func(tc *toolchain.Toolchain, prog string) (uint64, Stats) {
		t.Helper()
		r := New(Options{
			View:      &BufView{Quiet: true},
			Device:    tc.Device(),
			Toolchain: tc,
			Features:  Features{DisableInline: true},
		})
		if err := r.Eval(DefaultPrelude); err != nil {
			t.Fatal(err)
		}
		r.MustEval(prog)
		r.RunTicks(100)
		st := r.Stats()
		inHardware := false
		for _, e := range st.Engines {
			inHardware = inHardware || (e.Path == "main.m" && e.Location == "hardware")
		}
		if !inHardware {
			t.Fatalf("main.m never reached hardware: %+v", st.Engines)
		}
		return r.World().Led("main.led"), st
	}

	want, _ := run(newToolchain(), portVariant)
	if want == 0 {
		t.Fatal("the port variant never drove its LEDs on a private toolchain")
	}
	shared := newToolchain()
	run(shared, wireVariant)
	got, st := run(shared, portVariant)
	if st.Compile.CacheHits == 0 {
		t.Fatalf("the second runtime's main.m should hit the first's bitstream: %+v", st.Compile)
	}
	if got != want {
		t.Errorf("LEDs after 100 ticks on the shared toolchain = %d, want %d (as on a private one)", got, want)
	}
}
