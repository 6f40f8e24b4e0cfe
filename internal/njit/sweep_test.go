package njit

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/engine"
	"cascade/internal/golden"
	"cascade/internal/imagetest"
	"cascade/internal/netlist"
)

// sweepSrc exercises every way the compiled evaluator schedules work: a
// clock derived by combinational logic (gclk) triggers a sequential
// process; blocking ranged and bit writes land in slots combinational
// logic reads (w) and a slot a process watches for an edge (t); a
// blocking and a non-blocking memory write land in a memory
// combinational logic reads (r); and the processes display.
const sweepSrc = `
module M(input wire clk, input wire en, input wire [7:0] a);
  reg [7:0] mem [0:7];
  reg [7:0] w = 8'h00;
  reg [1:0] t = 2'b00;
  reg [7:0] cnt = 0;
  reg [7:0] acc = 0;
  reg [2:0] wp = 0;
  wire gclk;
  wire [7:0] x, y, r, z;
  assign gclk = clk & en;
  assign x = a + w;
  assign r = mem[wp];
  assign y = x ^ r ^ {a[3:0], a[7:4]};
  assign z = y + 8'd1;
  always @(posedge clk) begin
    w[3:0] = a[3:0];
    w[a[6:4]] = a[7];
    t[a[0]] = a[1];
    mem[wp] = x;
    mem[wp + 3'd1] <= z;
    wp <= wp + 3'd1;
    $display("clk x=%d y=%d", x, y);
  end
  always @(posedge gclk) begin
    cnt <= cnt + z;
    $display("gclk cnt=%d", cnt);
  end
  always @(posedge t) acc <= acc + y;
endmodule`

// TestNativeSweepOrderGolden pins what the compiled evaluator bills and
// computes step by step — instructions executed, cycles, the state image
// and the display text — on sweepSrc in its levelized order and with its
// combinational units reversed, so that later units feed earlier ones and
// every sweep leaves work behind its cursor for the next. A state image
// is installed mid-run. The record is the evaluator's sweep semantics:
// which units run, in which sweep, after which sequential process.
func TestNativeSweepOrderGolden(t *testing.T) {
	prog, f := compileProg(t, sweepSrc)
	for _, c := range []struct {
		name string
		prog func() *netlist.Program
	}{
		{"levelized", func() *netlist.Program { return prog }},
		{"reversed", func() *netlist.Program {
			p := *prog
			p.Comb = slices.Clone(prog.Comb)
			slices.Reverse(p.Comb)
			return &p
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out ioSink
			e := New("dut", c.prog(), &out, nil, nil)
			var sb strings.Builder
			record := func(step string) {
				for e.ThereAreEvals() || e.ThereAreUpdates() {
					e.Evaluate()
					if e.ThereAreUpdates() {
						e.Update()
					}
				}
				e.EndStep()
				fmt.Fprintf(&sb, "%s ops=%d cycles=%d state=%x text=%q\n",
					step, e.NativeOpsDelta(), e.m.Cycles, e.GetState(), out.sb.String())
				out.sb.Reset()
			}
			set := func(name string, w int, v uint64) {
				e.Read(engine.Event{Var: name, Val: bits.FromUint64(w, v)})
			}
			record("reset")
			for i := uint64(0); i < 12; i++ {
				set("a", 8, i*0x3b+0x11)
				set("en", 1, i/2)
				record(fmt.Sprintf("%d inputs", i))
				set("clk", 1, 1)
				record(fmt.Sprintf("%d rise", i))
				set("clk", 1, 0)
				record(fmt.Sprintf("%d fall", i))
				if i == 5 {
					img := e.GetState()
					s := imagetest.Of(f.Layout(), img)
					s.Set("cnt", bits.FromUint64(8, 0x40))
					s.Set("t", bits.FromUint64(2, 1))
					e.SetState(img)
					record("5 setstate")
				}
			}
			golden.Check(t, c.name, sb.String())
		})
	}
}
