package netlist

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/sim"
	"cascade/internal/verilog"
	"cascade/internal/vgen"
)

// This file holds the flagship invariant test of the reproduction:
// observable-state equivalence between the event-driven reference
// interpreter (internal/sim, the software engine) and the compiled netlist
// machine (this package, the hardware engine). If this property holds,
// Cascade can hand execution back and forth between engines without the
// user being able to tell — the core of the paper's design.

// flatten parses src and elaborates its first module.
func flatten(t *testing.T, src string) *elab.Flat {
	t.Helper()
	st, errs := verilog.ParseSourceText(src)
	if errs != nil {
		t.Fatalf("parse: %v", errs)
	}
	f, err := elab.Elaborate(st.Modules[0], "dut", nil)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	return f
}

func compileBoth(t *testing.T, src string) (*sim.Simulator, *Machine, *elab.Flat) {
	t.Helper()
	f := flatten(t, src)
	prog, err := Compile(f)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return sim.New(f, sim.Options{}), NewMachine(prog), f
}

// dualBench drives a simulator and a machine in lock step.
type dualBench struct {
	s    *sim.Simulator
	m    *Machine
	f    *elab.Flat
	sOut strings.Builder
	mOut strings.Builder
}

func newDual(t *testing.T, src string) *dualBench {
	t.Helper()
	d := &dualBench{}
	_, d.m, d.f = compileBoth(t, src)
	d.s = sim.New(d.f, sim.Options{Display: func(x string) { d.sOut.WriteString(x) }})
	d.settle()
	return d
}

func (d *dualBench) drainMachine() {
	for _, ev := range d.m.DrainEvents() {
		if ev.Finish {
			continue
		}
		d.mOut.WriteString(ev.Text)
		if ev.Newline {
			d.mOut.WriteString("\n")
		}
	}
}

func (d *dualBench) settle() {
	for d.s.HasActive() || d.s.HasUpdates() {
		d.s.Evaluate()
		if d.s.HasUpdates() {
			d.s.Update()
		}
	}
	d.s.EndStep()
	for d.m.HasActive() || d.m.HasUpdates() {
		d.m.Evaluate()
		if d.m.HasUpdates() {
			d.m.Update()
		}
	}
	d.m.EndStep()
	d.drainMachine()
}

func (d *dualBench) setInput(name string, v *bits.Vector) {
	va := d.f.VarNamed(name)
	d.s.SetInput(va, v)
	d.m.SetInput(va, v)
}

func (d *dualBench) check(t *testing.T, context string) {
	t.Helper()
	ss := d.s.GetState().Signature()
	ms := d.m.GetState().Signature()
	if ss != ms {
		t.Fatalf("%s: state divergence\nsim:     %s\nmachine: %s", context, ss, ms)
	}
	if d.sOut.String() != d.mOut.String() {
		t.Fatalf("%s: display divergence\nsim:     %q\nmachine: %q", context, d.sOut.String(), d.mOut.String())
	}
}

func (d *dualBench) tick(t *testing.T) {
	t.Helper()
	d.setInput("clk", bits.FromUint64(1, 1))
	d.settle()
	d.setInput("clk", bits.FromUint64(1, 0))
	d.settle()
}

func TestEquivCounter(t *testing.T) {
	d := newDual(t, `
module M(input wire clk, output reg [7:0] cnt);
  always @(posedge clk) cnt <= cnt + 1;
endmodule`)
	for i := 0; i < 20; i++ {
		d.tick(t)
		d.check(t, fmt.Sprintf("tick %d", i))
	}
}

func TestEquivRunningExample(t *testing.T) {
	d := newDual(t, `
module M(input wire clk, input wire [3:0] pad, output wire [7:0] led);
  reg [7:0] cnt = 1;
  wire [7:0] y;
  assign y = (cnt == 8'h80) ? 1 : (cnt << 1);
  always @(posedge clk)
    if (pad == 0)
      cnt <= y;
    else
      $display("paused at %d", cnt);
  assign led = cnt;
endmodule`)
	for i := 0; i < 10; i++ {
		d.tick(t)
	}
	d.check(t, "animation")
	d.setInput("pad", bits.FromUint64(4, 2))
	d.settle()
	d.tick(t)
	d.check(t, "paused with display")
}

func TestEquivWideDatapath(t *testing.T) {
	d := newDual(t, `
module M(input wire clk, input wire [7:0] x);
  reg [127:0] acc = 128'h1;
  wire [127:0] nxt;
  assign nxt = (acc << 1) ^ {16{x}} + acc;
  always @(posedge clk) acc <= nxt;
endmodule`)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		d.setInput("x", bits.FromUint64(8, r.Uint64()))
		d.settle()
		d.tick(t)
		d.check(t, fmt.Sprintf("wide tick %d", i))
	}
}

func TestEquivMemory(t *testing.T) {
	d := newDual(t, `
module M(input wire clk, input wire [3:0] addr, input wire [15:0] wdata,
         input wire we, output wire [15:0] rdata);
  reg [15:0] mem [0:15];
  assign rdata = mem[addr];
  always @(posedge clk) if (we) mem[addr] <= wdata;
endmodule`)
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 50; i++ {
		d.setInput("addr", bits.FromUint64(4, r.Uint64()))
		d.setInput("wdata", bits.FromUint64(16, r.Uint64()))
		d.setInput("we", bits.FromUint64(1, r.Uint64()))
		d.settle()
		d.tick(t)
		d.check(t, fmt.Sprintf("mem tick %d", i))
	}
}

// Indices at or above 2^63 are out of range on both sides: the writes are
// dropped and the reads yield zero (bits.Index is the one spelling; the
// interpreter used to take such an index for -1 and write through it).
func TestEquivHugeIndex(t *testing.T) {
	d := newDual(t, `
module M(input wire clk, input wire [63:0] idx, output reg [7:0] out);
  reg [7:0] mem [0:3];
  reg [7:0] r = 0;
  always @(posedge clk) begin
    mem[idx] <= 8'hAB;
    r[idx] <= 1'b1;
    out <= mem[idx] | r | {7'd0, r[idx]};
  end
endmodule`)
	for i, idx := range []uint64{^uint64(0), 1 << 63, 1000, 2, ^uint64(0)} {
		d.setInput("idx", bits.FromUint64(64, idx))
		d.settle()
		d.tick(t)
		d.check(t, fmt.Sprintf("huge index tick %d", i))
	}
	if got := d.s.Value("r").Uint64(); got != 1<<2 {
		t.Fatalf("r = %#x, want only bit 2 set", got)
	}
}

func TestEquivCaseAndDisplay(t *testing.T) {
	d := newDual(t, `
module M(input wire clk, input wire [1:0] s);
  reg [7:0] x = 0;
  always @(posedge clk) begin
    case (s)
      2'd0: x <= x + 1;
      2'd1: x <= x << 1;
      2'd2: begin x <= x - 1; $display("dec %d", x); end
      default: x <= 8'hff;
    endcase
    if (x > 100) $display("big: %h at %d", x, $time);
  end
endmodule`)
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		d.setInput("s", bits.FromUint64(2, r.Uint64()))
		d.settle()
		d.tick(t)
		d.check(t, fmt.Sprintf("case tick %d", i))
	}
}

func TestEquivNegedgeAndGatedClock(t *testing.T) {
	d := newDual(t, `
module M(input wire clk, input wire en);
  wire gclk;
  assign gclk = clk & en;
  reg [7:0] a = 0, b = 0;
  always @(negedge clk) a <= a + 1;
  always @(posedge gclk) b <= b + 3;
endmodule`)
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 40; i++ {
		d.setInput("en", bits.FromUint64(1, r.Uint64()))
		d.settle()
		d.tick(t)
		d.check(t, fmt.Sprintf("gated tick %d", i))
	}
}

func TestEquivMigrationMidRun(t *testing.T) {
	src := `
module M(input wire clk, input wire [3:0] d);
  reg [15:0] lfsr = 16'hace1;
  reg [15:0] hist [0:7];
  reg [2:0] wp = 0;
  wire fb;
  assign fb = lfsr[0] ^ lfsr[2] ^ lfsr[3] ^ lfsr[5];
  always @(posedge clk) begin
    lfsr <= {fb, lfsr[15:1]} ^ {12'b0, d};
    hist[wp] <= lfsr;
    wp <= wp + 1;
  end
endmodule`
	s, m, f := compileBoth(t, src)
	clk := f.VarNamed("clk")
	dv := f.VarNamed("d")
	settleS := func() {
		for s.HasActive() || s.HasUpdates() {
			s.Evaluate()
			if s.HasUpdates() {
				s.Update()
			}
		}
	}
	settleM := func() {
		for m.HasActive() || m.HasUpdates() {
			m.Evaluate()
			if m.HasUpdates() {
				m.Update()
			}
		}
	}
	r := rand.New(rand.NewSource(11))
	settleS()
	// Phase 1: run 10 ticks in "software".
	for i := 0; i < 10; i++ {
		s.SetInput(dv, bits.FromUint64(4, r.Uint64()))
		settleS()
		s.SetInput(clk, bits.FromUint64(1, 1))
		settleS()
		s.SetInput(clk, bits.FromUint64(1, 0))
		settleS()
	}
	// Migrate: hardware engine inherits state (set_state).
	m.SetState(s.GetState())
	settleM()
	if s.GetState().Signature() != m.GetState().Signature() {
		t.Fatal("state not preserved across software->hardware migration")
	}
	// Phase 2: run both 10 more ticks with identical inputs; they must
	// stay in lock step.
	for i := 0; i < 10; i++ {
		in := bits.FromUint64(4, r.Uint64())
		s.SetInput(dv, in)
		m.SetInput(dv, in)
		settleS()
		settleM()
		for _, c := range []uint64{1, 0} {
			s.SetInput(clk, bits.FromUint64(1, c))
			m.SetInput(clk, bits.FromUint64(1, c))
			settleS()
			settleM()
		}
		if s.GetState().Signature() != m.GetState().Signature() {
			t.Fatalf("divergence after migration at tick %d", i)
		}
	}
	// Migrate back: software engine inherits hardware state.
	s2 := sim.New(f, sim.Options{})
	s2.SetState(m.GetState())
	s2.Evaluate()
	if s2.GetState().Signature() != m.GetState().Signature() {
		t.Fatal("state not preserved across hardware->software migration")
	}
}

// --- Random program equivalence ---------------------------------------

// Property: for random synchronous programs and random stimulus, the
// interpreter and the compiled netlist agree on every observable state.
func TestEquivRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for seed := uint64(0); seed < 60; seed++ {
		src := vgen.Module(seed).String()
		d := newDual(t, src)
		for i := 0; i < 12; i++ {
			d.setInput("a", bits.FromUint64(8, r.Uint64()))
			d.setInput("b", bits.FromUint64(8, r.Uint64()))
			d.settle()
			d.tick(t)
			d.check(t, fmt.Sprintf("seed %d tick %d on\n%s", seed, i, src))
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := map[string]string{
		"comb loop": `
module M(input wire clk);
  wire a, b;
  assign a = b;
  assign b = a;
endmodule`,
		"double drive": `
module M(input wire clk, input wire x);
  reg r;
  always @(posedge clk) r <= x;
  always @(*) r = !x;
endmodule`,
		"mixed sensitivity": `
module M(input wire clk, input wire x);
  reg r;
  always @(posedge clk or x) r <= x;
endmodule`,
	}
	for name, src := range cases {
		if _, err := Compile(flatten(t, src)); err == nil {
			t.Fatalf("%s: expected synthesis error", name)
		}
	}
}

func TestStatsReasonable(t *testing.T) {
	_, m, _ := compileBoth(t, `
module M(input wire clk, input wire [31:0] x, output reg [31:0] acc);
  wire [31:0] sq;
  assign sq = x * x;
  reg [31:0] mem [0:255];
  always @(posedge clk) acc <= acc + sq;
endmodule`)
	s := m.Prog().Stats
	if s.FFs < 32 {
		t.Fatalf("FF count %d too small", s.FFs)
	}
	if s.MemBits != 256*32 {
		t.Fatalf("MemBits = %d, want %d", s.MemBits, 256*32)
	}
	if s.Cells < 32 { // multiplier alone should dominate
		t.Fatalf("cell count %d too small", s.Cells)
	}
	if s.CritPath < 2 {
		t.Fatalf("critical path %d too shallow", s.CritPath)
	}
}

func TestResetStateIncludesInitials(t *testing.T) {
	_, m, _ := compileBoth(t, `
module M(input wire clk);
  reg [7:0] a = 5;
  reg [7:0] mem [0:3];
  integer i;
  initial for (i = 0; i < 4; i = i + 1) mem[i] = i + 10;
endmodule`)
	got := m.GetState()
	if got.Scalars["a"].Uint64() != 5 {
		t.Fatal("reg init lost")
	}
	if got.Arrays["mem"][2].Uint64() != 12 {
		t.Fatal("initial-block memory contents lost")
	}
}
