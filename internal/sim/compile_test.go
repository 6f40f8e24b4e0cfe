package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/vgen"
)

// The compiled form of a hot unit is checked against the tree walk,
// which stays the reference: the same program on two simulators, one
// compiling every unit at its first run and one never compiling, must
// agree tick by tick on the state image, the display text and the three
// counters the virtual clock bills.

// twin is a design built twice: hot compiles everything, cold nothing.
type twin struct{ hot, cold *design }

func newTwin(t *testing.T, mk func(testing.TB) *design) twin {
	var tw twin
	withThreshold(0, func() { tw.hot = mk(t) })
	withThreshold(never, func() { tw.cold = mk(t) })
	return tw
}

func (tw twin) tick(i int) {
	tw.hot.tick(i)
	tw.cold.tick(i)
}

// same fails unless both sides are in the same observable state.
func (tw twin) same(t *testing.T, at string) {
	t.Helper()
	h, c := tw.hot.tb.s, tw.cold.tb.s
	if hi, ci := h.GetState(), c.GetState(); !slices.Equal(hi, ci) {
		t.Fatalf("%s: state image\ncompiled  %x\ntree walk %x", at, hi, ci)
	}
	if ho, co := tw.hot.tb.out.String(), tw.cold.tb.out.String(); ho != co {
		t.Fatalf("%s: display text\ncompiled  %q\ntree walk %q", at, ho, co)
	}
	if h.EvalOps != c.EvalOps || h.WriteOps != c.WriteOps || h.UpdateOps != c.UpdateOps {
		t.Fatalf("%s: counters compiled {%d %d %d}, tree walk {%d %d %d}", at,
			h.EvalOps, h.WriteOps, h.UpdateOps, c.EvalOps, c.WriteOps, c.UpdateOps)
	}
}

// restore installs img on both sides and settles them: a compiled unit
// reads the installed values only if SetState copies into the vectors
// it was bound to.
func (tw twin) restore(img []uint64) {
	for _, d := range []*design{tw.hot, tw.cold} {
		d.tb.s.SetState(img)
		d.tb.settle()
	}
}

// runTwin ticks tw n times, comparing after every tick, and rewinds both
// sides to the state of tick n/4 at tick n/2.
func runTwin(t *testing.T, name string, tw twin, n int) {
	t.Helper()
	tw.same(t, name+" after New")
	var img []uint64
	for i := 0; i < n; i++ {
		tw.tick(i)
		tw.same(t, fmt.Sprintf("%s tick %d", name, i))
		switch i {
		case n / 4:
			img = tw.cold.tb.s.GetState()
		case n / 2:
			tw.restore(img)
			tw.same(t, fmt.Sprintf("%s tick %d, state of tick %d restored", name, i, n/4))
		}
	}
	if h, c := tw.hot.tb.s.compiledUnits(), tw.cold.tb.s.compiledUnits(); h == 0 && n > 0 || c != 0 {
		t.Fatalf("%s: %d units compiled on the compiling side, %d on the other", name, h, c)
	}
}

// casesDesign has cases whose labels overlap, so the first match must
// win, under subjects narrow enough to be tabled and one too wide, with a
// default first and a label that is not constant.
func casesDesign(t testing.TB) *design {
	tb := newBench(t, `
module M(input wire clk, input wire [7:0] x);
  reg [7:0] a = 0, b = 0, c = 0;
  reg [15:0] wide = 0;
  always @(posedge clk) begin
    casez (x[3:0])
      4'b1???: a <= a + 1;
      4'b11??: a <= a + 2;
      4'b0?1?: a <= a ^ x;
      4'b0?1?: a <= 0;
    endcase
    case (x)
      default: b <= b - 1;
      8'd3, 8'd5: b <= b + 3;
      8'd5: b <= 0;
      a: b <= b ^ 8'h55;
    endcase
    case (wide)
      16'd1, 16'd2: c <= c + 1;
      16'd2: c <= 0;
      {8'd0, x}: c <= c ^ x;
      default: c <= c - 1;
    endcase
    wide <= {wide[7:0], x} % 16'd7;
  end
endmodule`)
	r := rand.New(rand.NewSource(9))
	xs := make([]*bits.Vector, 64)
	for i := range xs {
		xs[i] = bits.FromUint64(8, uint64(r.Intn(8)))
	}
	x := tb.s.Flat().VarNamed("x")
	return &design{tb: tb, drive: func(i int) { tb.s.SetInput(x, xs[i%len(xs)]) }}
}

// vgenDesign is generated module seed, its inputs a and b drawn from
// drive each tick.
func vgenDesign(seed uint64, drive func(i int) (a, b uint64)) func(testing.TB) *design {
	return func(t testing.TB) *design {
		tb := newBench(t, vgen.Module(seed).String())
		a, b := tb.s.Flat().VarNamed("a"), tb.s.Flat().VarNamed("b")
		return &design{tb: tb, drive: func(i int) {
			x, y := drive(i)
			tb.s.SetInput(a, bits.FromUint64(8, x))
			tb.s.SetInput(b, bits.FromUint64(8, y))
		}}
	}
}

func TestCompiledUnitsMatchTreeWalk(t *testing.T) {
	for _, c := range []struct {
		name string
		mk   func(testing.TB) *design
	}{{"miner", minerDesign}, {"matcher", matcherDesign}, {"mixed", mixedDesign}, {"cases", casesDesign}} {
		runTwin(t, c.name, newTwin(t, c.mk), 200)
	}
	for seed := uint64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		ins := make([][2]uint64, 16)
		for i := range ins {
			ins[i] = [2]uint64{r.Uint64(), r.Uint64()}
		}
		drive := func(i int) (uint64, uint64) { return ins[i][0], ins[i][1] }
		runTwin(t, fmt.Sprintf("vgen seed %d", seed), newTwin(t, vgenDesign(seed, drive)), len(ins))
	}
}

// FuzzCompiledUnits runs a generated module on both paths under inputs
// the fuzzer picks, two bytes a tick.
func FuzzCompiledUnits(f *testing.F) {
	for seed := uint64(0); seed < 16; seed++ {
		f.Add(seed, []byte(fmt.Sprintf("drive %d", seed)))
	}
	f.Fuzz(func(t *testing.T, seed uint64, in []byte) {
		n := min(len(in)/2, 32)
		drive := func(i int) (uint64, uint64) { return uint64(in[2*i]), uint64(in[2*i+1]) }
		runTwin(t, fmt.Sprintf("vgen seed %d", seed), newTwin(t, vgenDesign(seed, drive)), n)
	})
}

// Compile is Eval without the walk: over every expression of generated
// modules, both give the same value, run after run, as the values they
// read change.
func TestCompileMatchesEval(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		s := New(build(t, vgen.Module(seed).String()), Options{})
		var exprs []elab.Expr
		add := func(e elab.Expr) { exprs = append(exprs, e) }
		for _, a := range s.flat.Assigns {
			add(a.RHS)
		}
		for _, p := range s.flat.Procs {
			elab.WalkStmt(p.Body, nil, func(e elab.Expr) { add(e) })
		}
		b := binder{Simulator: s, slab: &arena{}}
		compiled := make([]func() *bits.Vector, len(exprs))
		for i, e := range exprs {
			compiled[i] = elab.Compile(e, b)
		}
		for tick := uint64(0); tick < 8; tick++ {
			s.SetInputByName("a", bits.FromUint64(8, seed*131+tick*7))
			s.SetInputByName("b", bits.FromUint64(8, seed^tick*13))
			s.SetInputByName("clk", bits.FromUint64(1, tick&1))
			settleSim(s)
			for i, e := range exprs {
				s.scratch.rewind()
				if got, want := compiled[i]().Hex(), elab.Eval(e, s).Hex(); got != want {
					t.Fatalf("seed %d tick %d: %s compiled, %s walked, for %T of width %d",
						seed, tick, got, want, e, e.Width())
				}
			}
		}
	}
}

// BenchmarkTick is the host cost of a settled clock tick of each gate
// design, its hot units compiled and on the tree walk.
func BenchmarkTick(b *testing.B) {
	for _, c := range []struct {
		name string
		mk   func(testing.TB) *design
	}{{"miner", minerDesign}, {"matcher", matcherDesign}, {"mixed", mixedDesign}} {
		for _, p := range []struct {
			name      string
			threshold int
		}{{"compiled", compileThreshold}, {"walk", never}} {
			b.Run(c.name+"/"+p.name, func(b *testing.B) {
				var d *design
				withThreshold(p.threshold, func() { d = c.mk(b) })
				for i := 0; i < 300; i++ {
					d.tick(i)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.tick(i)
				}
			})
		}
	}
}
