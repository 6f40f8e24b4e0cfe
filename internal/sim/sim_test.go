package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/imagetest"
	"cascade/internal/verilog"
)

// build parses and elaborates a single module.
func build(t testing.TB, src string) *elab.Flat {
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

// testbench drives a single-clock module through full scheduler steps.
type testbench struct {
	s   *Simulator
	clk *elab.Var
	out strings.Builder
}

func newBench(t testing.TB, src string) *testbench {
	t.Helper()
	f := build(t, src)
	tb := &testbench{}
	tb.s = New(f, Options{Display: func(s string) { tb.out.WriteString(s) }})
	tb.clk = f.VarNamed("clk")
	tb.settle()
	return tb
}

// settle runs evaluate/update to a fixed point (one observable state).
func (tb *testbench) settle() {
	for {
		if tb.s.HasActive() {
			tb.s.Evaluate()
			continue
		}
		if tb.s.HasUpdates() {
			tb.s.Update()
			continue
		}
		break
	}
	tb.s.EndStep()
}

// tick toggles the clock high then low, settling after each edge.
func (tb *testbench) tick() {
	tb.s.SetInput(tb.clk, clkHigh)
	tb.settle()
	tb.s.SetInput(tb.clk, clkLow)
	tb.settle()
}

// The clock levels, built once so a measured tick allocates nothing of
// the test's own.
var (
	clkHigh = bits.FromUint64(1, 1)
	clkLow  = bits.FromUint64(1, 0)
)

func (tb *testbench) val(t *testing.T, name string) uint64 {
	t.Helper()
	v := tb.s.Value(name)
	if v == nil {
		t.Fatalf("no variable %s", name)
	}
	return v.Uint64()
}

func TestCounter(t *testing.T) {
	tb := newBench(t, `
module M(input wire clk, output reg [7:0] cnt);
  always @(posedge clk) cnt <= cnt + 1;
endmodule`)
	for i := 1; i <= 5; i++ {
		tb.tick()
		if got := tb.val(t, "cnt"); got != uint64(i) {
			t.Fatalf("after %d ticks: cnt=%d", i, got)
		}
	}
}

func TestRolRunningExample(t *testing.T) {
	// The inlined running example: Rol folded into Main.
	tb := newBench(t, `
module M(input wire clk, input wire [3:0] pad, output wire [7:0] led);
  reg [7:0] cnt = 1;
  wire [7:0] y;
  assign y = (cnt == 8'h80) ? 1 : (cnt << 1);
  always @(posedge clk)
    if (pad == 0)
      cnt <= y;
  assign led = cnt;
endmodule`)
	if got := tb.val(t, "led"); got != 1 {
		t.Fatalf("initial led=%d, want 1", got)
	}
	for i := 0; i < 7; i++ {
		tb.tick()
	}
	if got := tb.val(t, "led"); got != 0x80 {
		t.Fatalf("after 7 ticks led=%x, want 80", got)
	}
	tb.tick()
	if got := tb.val(t, "led"); got != 1 {
		t.Fatalf("wraparound led=%x, want 1", got)
	}
	// Pressing a button pauses the animation.
	tb.s.SetInputByName("pad", bits.FromUint64(4, 1))
	tb.settle()
	before := tb.val(t, "led")
	tb.tick()
	if got := tb.val(t, "led"); got != before {
		t.Fatalf("paused animation moved: %x -> %x", before, got)
	}
}

func TestNonBlockingSwap(t *testing.T) {
	tb := newBench(t, `
module M(input wire clk);
  reg [3:0] a = 4'd3, b = 4'd9;
  always @(posedge clk) begin
    a <= b;
    b <= a;
  end
endmodule`)
	tb.tick()
	if a, b := tb.val(t, "a"), tb.val(t, "b"); a != 9 || b != 3 {
		t.Fatalf("swap failed: a=%d b=%d", a, b)
	}
}

func TestBlockingOrderWithinProcess(t *testing.T) {
	tb := newBench(t, `
module M(input wire clk);
  reg [3:0] a = 1, b, c;
  always @(posedge clk) begin
    b = a + 1;
    c = b + 1;
  end
endmodule`)
	tb.tick()
	if b, c := tb.val(t, "b"), tb.val(t, "c"); b != 2 || c != 3 {
		t.Fatalf("blocking chain: b=%d c=%d, want 2 3", b, c)
	}
}

func TestMixedBlockingNonBlocking(t *testing.T) {
	tb := newBench(t, `
module M(input wire clk);
  reg [3:0] a = 1, b = 0, c = 0;
  always @(posedge clk) begin
    a = a + 1;  // blocking: visible below
    b <= a;     // non-blocking: sees new a, commits later
    c = b;      // blocking: sees OLD b (update not yet committed)
  end
endmodule`)
	tb.tick()
	if a, b, c := tb.val(t, "a"), tb.val(t, "b"), tb.val(t, "c"); a != 2 || b != 2 || c != 0 {
		t.Fatalf("got a=%d b=%d c=%d, want 2 2 0", a, b, c)
	}
}

func TestCombinationalChainPropagates(t *testing.T) {
	tb := newBench(t, `
module M(input wire clk, input wire [3:0] x, output wire [3:0] w3);
  wire [3:0] w1, w2;
  assign w1 = x + 1;
  assign w2 = w1 * 2;
  assign w3 = w2 - 1;
endmodule`)
	tb.s.SetInputByName("x", bits.FromUint64(4, 3))
	tb.settle()
	if got := tb.val(t, "w3"); got != 7 {
		t.Fatalf("w3=%d, want 7", got)
	}
}

func TestAlwaysStar(t *testing.T) {
	tb := newBench(t, `
module M(input wire clk, input wire [1:0] s, input wire [7:0] a, input wire [7:0] b, output reg [7:0] o);
  always @(*)
    case (s)
      2'd0: o = a;
      2'd1: o = b;
      default: o = 8'hff;
    endcase
endmodule`)
	tb.s.SetInputByName("a", bits.FromUint64(8, 0x11))
	tb.s.SetInputByName("b", bits.FromUint64(8, 0x22))
	tb.settle()
	if got := tb.val(t, "o"); got != 0x11 {
		t.Fatalf("s=0: o=%x", got)
	}
	tb.s.SetInputByName("s", bits.FromUint64(2, 1))
	tb.settle()
	if got := tb.val(t, "o"); got != 0x22 {
		t.Fatalf("s=1: o=%x", got)
	}
	tb.s.SetInputByName("s", bits.FromUint64(2, 3))
	tb.settle()
	if got := tb.val(t, "o"); got != 0xff {
		t.Fatalf("s=3: o=%x", got)
	}
}

func TestNegedgeAndLevelSensitivity(t *testing.T) {
	tb := newBench(t, `
module M(input wire clk, input wire d, output reg q, output reg lvl);
  always @(negedge clk) q <= d;
  always @(d) lvl = !d;
endmodule`)
	tb.s.SetInputByName("d", bits.FromUint64(1, 1))
	tb.settle()
	if got := tb.val(t, "lvl"); got != 0 {
		t.Fatalf("level proc did not run: lvl=%d", got)
	}
	// Rising edge: q must not change.
	tb.s.SetInput(tb.clk, bits.FromUint64(1, 1))
	tb.settle()
	if got := tb.val(t, "q"); got != 0 {
		t.Fatal("q changed on posedge of a negedge block")
	}
	// Falling edge: q latches d.
	tb.s.SetInput(tb.clk, bits.FromUint64(1, 0))
	tb.settle()
	if got := tb.val(t, "q"); got != 1 {
		t.Fatal("q did not latch on negedge")
	}
}

func TestDisplayAndFinish(t *testing.T) {
	finished := 0
	f := build(t, `
module M(input wire clk);
  reg [7:0] cnt = 0;
  always @(posedge clk) begin
    cnt <= cnt + 1;
    $display("cnt=%d", cnt);
    if (cnt == 2) $finish;
  end
endmodule`)
	var out strings.Builder
	s := New(f, Options{
		Display: func(t string) { out.WriteString(t) },
		Finish:  func(int) { finished++ },
	})
	clk := f.VarNamed("clk")
	step := func() {
		for s.HasActive() || s.HasUpdates() {
			s.Evaluate()
			if s.HasUpdates() {
				s.Update()
			}
		}
	}
	for i := 0; i < 3; i++ {
		s.SetInput(clk, bits.FromUint64(1, 1))
		step()
		s.SetInput(clk, bits.FromUint64(1, 0))
		step()
	}
	want := "cnt=0\ncnt=1\ncnt=2\n"
	if out.String() != want {
		t.Fatalf("display output:\n%q\nwant:\n%q", out.String(), want)
	}
	if finished != 1 || !s.Finished() {
		t.Fatalf("finish hook calls: %d", finished)
	}
}

func TestDisplayFormats(t *testing.T) {
	args := []*bits.Vector{
		bits.FromUint64(8, 0xab),
		bits.FromUint64(8, 5),
		bits.FromUint64(4, 0b1010),
		bits.FromUint64(16, uint64('h')<<8|uint64('i')),
	}
	got := FormatDisplay("%h %03d %b %s %% %m", args, "main")
	want := "ab 005 1010 hi % main"
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestDisplayMissingArgs(t *testing.T) {
	got := FormatDisplay("%d %d", []*bits.Vector{bits.FromUint64(4, 7)}, "m")
	if got != "7 0" {
		t.Fatalf("missing args should print zero: %q", got)
	}
}

func TestMonitor(t *testing.T) {
	f := build(t, `
module M(input wire clk);
  reg [3:0] x = 0;
  initial $monitor("x=%d", x);
  always @(posedge clk) x <= x + 1;
endmodule`)
	var out strings.Builder
	s := New(f, Options{Display: func(t string) { out.WriteString(t) }})
	clk := f.VarNamed("clk")
	step := func() {
		for s.HasActive() || s.HasUpdates() {
			s.Evaluate()
			if s.HasUpdates() {
				s.Update()
			}
		}
		s.EndStep()
	}
	step()
	for i := 0; i < 2; i++ {
		s.SetInput(clk, bits.FromUint64(1, 1))
		step()
		s.SetInput(clk, bits.FromUint64(1, 0))
		step()
	}
	want := "x=0\nx=1\nx=2\n"
	if out.String() != want {
		t.Fatalf("monitor output %q, want %q", out.String(), want)
	}
}

func TestMemoryReadWrite(t *testing.T) {
	tb := newBench(t, `
module M(input wire clk, input wire [1:0] waddr, input wire [1:0] raddr,
         input wire [7:0] wdata, input wire we, output wire [7:0] rdata);
  reg [7:0] mem [0:3];
  assign rdata = mem[raddr];
  always @(posedge clk) if (we) mem[waddr] <= wdata;
endmodule`)
	tb.s.SetInputByName("we", bits.FromUint64(1, 1))
	tb.s.SetInputByName("waddr", bits.FromUint64(2, 2))
	tb.s.SetInputByName("wdata", bits.FromUint64(8, 0x5a))
	tb.settle()
	tb.tick()
	tb.s.SetInputByName("raddr", bits.FromUint64(2, 2))
	tb.settle()
	if got := tb.val(t, "rdata"); got != 0x5a {
		t.Fatalf("rdata=%x, want 5a", got)
	}
	if got := imagetest.Of(tb.s.Flat().Layout(), tb.s.GetState()).Array("mem")[2].Uint64(); got != 0x5a {
		t.Fatalf("mem[2]=%x", got)
	}
}

func TestInitialBlockRuns(t *testing.T) {
	f := build(t, `
module M(input wire clk);
  reg [7:0] a;
  reg [7:0] mem [0:3];
  integer i;
  initial begin
    a = 42;
    for (i = 0; i < 4; i = i + 1)
      mem[i] = i * 3;
  end
endmodule`)
	s := New(f, Options{})
	if got := s.Value("a").Uint64(); got != 42 {
		t.Fatalf("a=%d", got)
	}
	for i, w := range imagetest.Of(f.Layout(), s.GetState()).Array("mem") {
		if got := w.Uint64(); got != uint64(i*3) {
			t.Fatalf("mem[%d]=%d", i, got)
		}
	}
}

func TestStateRoundTrip(t *testing.T) {
	src := `
module M(input wire clk);
  reg [7:0] cnt = 1;
  reg [7:0] mem [0:3];
  wire [7:0] next;
  assign next = cnt + 1;
  always @(posedge clk) begin
    cnt <= next;
    mem[cnt[1:0]] <= cnt;
  end
endmodule`
	f := build(t, src)
	s1 := New(f, Options{})
	clk := f.VarNamed("clk")
	step := func(s *Simulator) {
		for s.HasActive() || s.HasUpdates() {
			s.Evaluate()
			if s.HasUpdates() {
				s.Update()
			}
		}
	}
	step(s1)
	for i := 0; i < 5; i++ {
		s1.SetInput(clk, bits.FromUint64(1, 1))
		step(s1)
		s1.SetInput(clk, bits.FromUint64(1, 0))
		step(s1)
	}
	st := s1.GetState()

	// A fresh simulator loaded with the snapshot must continue exactly
	// where the first one left off (paper: migration must not reset cnt).
	f2 := build(t, src)
	s2 := New(f2, Options{})
	s2.SetState(slices.Clone(st))
	step(s2)
	if !slices.Equal(s1.GetState(), s2.GetState()) {
		t.Fatal("state differs immediately after restore")
	}
	for i := 0; i < 5; i++ {
		for _, s := range []*Simulator{s1, s2} {
			s.SetInputByName("clk", bits.FromUint64(1, 1))
			step(s)
			s.SetInputByName("clk", bits.FromUint64(1, 0))
			step(s)
		}
		if !slices.Equal(s1.GetState(), s2.GetState()) {
			t.Fatalf("state diverged at tick %d:\n%s\n%s", i, fmt.Sprint(s1.GetState()), fmt.Sprint(s2.GetState()))
		}
	}
}

func TestSetStateDoesNotFireEdges(t *testing.T) {
	f := build(t, `
module M(input wire clk);
  reg [7:0] cnt = 0;
  always @(posedge clk) cnt <= cnt + 1;
endmodule`)
	s := New(f, Options{})
	st := s.GetState()
	imagetest.Of(f.Layout(), st).Set("clk", bits.FromUint64(1, 1)) // restore with clock high
	s.SetState(st)
	s.Evaluate()
	if s.HasUpdates() {
		t.Fatal("SetState fabricated a clock edge")
	}
}

func TestDynamicBitSelect(t *testing.T) {
	tb := newBench(t, `
module M(input wire clk, input wire [2:0] i, input wire [7:0] v, output wire b, output wire oob);
  assign b = v[i];
  assign oob = v[i + 4'd8];
endmodule`)
	tb.s.SetInputByName("v", bits.FromUint64(8, 0b0100_0000))
	tb.s.SetInputByName("i", bits.FromUint64(3, 6))
	tb.settle()
	if got := tb.val(t, "b"); got != 1 {
		t.Fatalf("v[6]=%d, want 1", got)
	}
	if got := tb.val(t, "oob"); got != 0 {
		t.Fatal("out-of-range select should read 0")
	}
}

func TestDynamicBitWrite(t *testing.T) {
	tb := newBench(t, `
module M(input wire clk, input wire [2:0] i);
  reg [7:0] r = 0;
  always @(posedge clk) r[i] <= 1;
endmodule`)
	tb.s.SetInputByName("i", bits.FromUint64(3, 5))
	tb.settle()
	tb.tick()
	if got := tb.val(t, "r"); got != 0b10_0000 {
		t.Fatalf("r=%08b", got)
	}
}

func TestShortCircuitEval(t *testing.T) {
	// Division by zero yields 0 in our model, but short-circuit must
	// still avoid evaluating the right side when the left decides.
	tb := newBench(t, `
module M(input wire clk, input wire a, output wire o1, output wire o2);
  assign o1 = a && a;
  assign o2 = !a || a;
endmodule`)
	tb.settle()
	if tb.val(t, "o1") != 0 || tb.val(t, "o2") != 1 {
		t.Fatal("logical ops wrong")
	}
}

func TestLazyEvaluationCounters(t *testing.T) {
	tb := newBench(t, `
module M(input wire clk, input wire [7:0] a, input wire [7:0] b, output wire [7:0] x, output wire [7:0] y);
  assign x = a + 1;
  assign y = b + 1;
endmodule`)
	base := tb.s.EvalOps
	tb.s.SetInputByName("a", bits.FromUint64(8, 5))
	tb.settle()
	// Only the assign reading a (and nothing else) should re-evaluate.
	if delta := tb.s.EvalOps - base; delta != 1 {
		t.Fatalf("lazy evaluation ran %d processes, want 1", delta)
	}
}

func TestConcatAssignDistribution(t *testing.T) {
	tb := newBench(t, `
module M(input wire clk, input wire [7:0] v);
  reg [3:0] hi, lo;
  always @(posedge clk) {hi, lo} <= v;
endmodule`)
	tb.s.SetInputByName("v", bits.FromUint64(8, 0xa5))
	tb.settle()
	tb.tick()
	if hi, lo := tb.val(t, "hi"), tb.val(t, "lo"); hi != 0xa || lo != 0x5 {
		t.Fatalf("hi=%x lo=%x", hi, lo)
	}
}

func TestWidthExtensionCarry(t *testing.T) {
	tb := newBench(t, `
module M(input wire clk, input wire [3:0] a, input wire [3:0] b, output wire [4:0] sum);
  assign sum = a + b;
endmodule`)
	tb.s.SetInputByName("a", bits.FromUint64(4, 15))
	tb.s.SetInputByName("b", bits.FromUint64(4, 1))
	tb.settle()
	if got := tb.val(t, "sum"); got != 16 {
		t.Fatalf("carry lost: sum=%d, want 16", got)
	}
}
