package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/golden"
	"cascade/internal/imagetest"
	"cascade/internal/workloads/pow"
	"cascade/internal/workloads/regexgen"
)

// The gates on the interpreter's host cost: a settled clock tick allocates
// (next to) nothing, and what a tick is billed — the three event counters
// the virtual clock reads — is what it was before the interpreter stopped
// allocating.

// design is a testbench plus the stimulus its inputs take on tick i.
type design struct {
	tb    *testbench
	drive func(i int)
}

func (d *design) tick(i int) {
	if d.drive != nil {
		d.drive(i)
	}
	d.tb.tick()
}

func minerDesign(t *testing.T) *design {
	cfg := pow.DefaultConfig()
	cfg.Target = 0
	return &design{tb: newBench(t, pow.Generate(cfg))}
}

func matcherDesign(t *testing.T) *design {
	src, _, err := regexgen.Generate(`GET /[a-z]*\.html`)
	if err != nil {
		t.Fatal(err)
	}
	tb := newBench(t, src)
	text := []byte("GET /index.html HTTP/1.1 GET /a.htm GET /zz.html ")
	bytes := make([]*bits.Vector, len(text))
	for i, c := range text {
		bytes[i] = bits.FromUint64(8, uint64(c))
	}
	tb.s.SetInputByName("valid", clkHigh)
	byteIn := tb.s.Flat().VarNamed("byte_in")
	return &design{tb: tb, drive: func(i int) { tb.s.SetInput(byteIn, bytes[i%len(bytes)]) }}
}

// mixedDesign covers what the two workloads do not: memory reads and
// writes, a concatenated lvalue, wildcard case labels, a dynamic bit
// write and a wide datapath.
func mixedDesign(t *testing.T) *design {
	tb := newBench(t, `
module M(input wire clk, input wire [7:0] x);
  reg [7:0] mem [0:7];
  reg [3:0] hi = 0, lo = 0;
  reg [7:0] acc = 1;
  reg [2:0] p = 0;
  reg [99:0] wide = 100'h1;
  reg [7:0] flags = 0;
  wire [7:0] rd = mem[p];
  always @(posedge clk) begin
    mem[p] <= acc ^ x;
    {hi, lo} <= rd + acc;
    p <= p + 1;
    wide <= {wide[98:0], wide[99] ^ x[0]} + {92'd0, rd};
    flags[p] <= x[1];
    casez (acc[3:0])
      4'b1???: acc <= {acc[6:0], acc[7]};
      4'b01??: acc <= acc + {hi, lo};
      default: acc <= acc + 1;
    endcase
  end
endmodule`)
	r := rand.New(rand.NewSource(22))
	xs := make([]*bits.Vector, 64)
	for i := range xs {
		xs[i] = bits.FromUint64(8, r.Uint64())
	}
	x := tb.s.Flat().VarNamed("x")
	return &design{tb: tb, drive: func(i int) { tb.s.SetInput(x, xs[i%len(xs)]) }}
}

func TestTickAllocs(t *testing.T) {
	for _, c := range []struct {
		name  string
		d     *design
		below float64
	}{
		{"miner", minerDesign(t), 20},
		{"matcher", matcherDesign(t), 5},
	} {
		i := 0
		for ; i < 300; i++ { // through every state, so the scratch slabs have grown
			c.d.tick(i)
		}
		got := testing.AllocsPerRun(200, func() { c.d.tick(i); i++ })
		if got >= c.below {
			t.Errorf("%s: %.1f allocations per settled tick, want < %.0f", c.name, got, c.below)
		}
	}
}

// TestSimCountersPinned pins EvalOps / WriteOps / UpdateOps tick by tick,
// one line per tick and their totals last, in
// testdata/TestSimCountersPinned: the virtual ledger is billed from these,
// so a host-side change moves none of them. The records are the counts
// the interpreter produced before it evaluated into scratch.
func TestSimCountersPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		d    *design
	}{
		{"miner", minerDesign(t)},
		{"matcher", matcherDesign(t)},
		{"mixed", mixedDesign(t)},
	} {
		var sb strings.Builder
		s := c.d.tb.s
		e0, w0, u0 := s.EvalOps, s.WriteOps, s.UpdateOps
		for i := 0; i < 200; i++ {
			e, w, u := s.EvalOps, s.WriteOps, s.UpdateOps
			c.d.tick(i)
			fmt.Fprintf(&sb, "%d %d %d\n", s.EvalOps-e, s.WriteOps-w, s.UpdateOps-u)
		}
		fmt.Fprintf(&sb, "total %d %d %d\n", s.EvalOps-e0, s.WriteOps-w0, s.UpdateOps-u0)
		golden.Check(t, c.name, sb.String())
	}
}

// An index at or above 2^63 is out of range like any other: the write is
// dropped before it is queued, billed or seen by anything sensitive to its
// target. It used to survive the round trip through int as -1, which the
// write path read as "scalar" and SetSlice as a bit that always changes.
func TestHugeIndexWriteDropped(t *testing.T) {
	const src = `
module M(input wire clk, output reg [7:0] out);
  reg [7:0] mem [0:3];
  reg [7:0] r = 0;
  reg [63:0] idx = 64'h%s;
  always @(posedge clk) begin
    mem[idx] <= 8'hAB;
    r[idx] <= 1'b1;
    out <= mem[idx] | r;
  end
endmodule`
	huge := newBench(t, fmt.Sprintf(src, "ffff_ffff_ffff_ffff"))
	large := newBench(t, fmt.Sprintf(src, "0000_0000_0000_03e8")) // out of range the ordinary way
	for i := 0; i < 4; i++ {
		huge.tick()
		large.tick()
		if h, l := huge.s, large.s; h.EvalOps != l.EvalOps || h.WriteOps != l.WriteOps || h.UpdateOps != l.UpdateOps {
			t.Fatalf("tick %d: index 2^64-1 billed {%d %d %d}, index 1000 {%d %d %d}", i,
				h.EvalOps, h.WriteOps, h.UpdateOps, l.EvalOps, l.WriteOps, l.UpdateOps)
		}
	}
	if r, out := huge.val(t, "r"), huge.val(t, "out"); r != 0 || out != 0 {
		t.Fatalf("r = %#x, out = %#x after dropped writes, want 0", r, out)
	}
	for i, w := range imagetest.Of(huge.s.Flat().Layout(), huge.s.GetState()).Array("mem")[:4] {
		if !w.IsZero() {
			t.Fatalf("mem[%d] = %s, want 0", i, w)
		}
	}
}
