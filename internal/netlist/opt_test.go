package netlist

import (
	"math/rand"
	"slices"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/vgen"
)

// rawAndOpt synthesizes src without and with the per-unit cleanup.
func rawAndOpt(t *testing.T, src string) (*Program, *Program) {
	t.Helper()
	f := flatten(t, src)
	raw, err := CompileRaw(f)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	return raw, opt
}

func TestOptimizeRemovesDeadCompute(t *testing.T) {
	// `unused` is a wire feeding nothing beyond itself; the expensive
	// multiply feeding only a dead temp must vanish... the wire itself
	// is a named variable so its own write stays, but the case-select
	// temp chain below is removable.
	raw, opt := rawAndOpt(t, `
module M(input wire clk, input wire [7:0] a, output reg [7:0] q);
  always @(posedge clk) begin
    q <= a + 1;
  end
endmodule`)
	if opt.Stats.CodeOps > raw.Stats.CodeOps {
		t.Fatalf("optimizer grew code: %d -> %d", raw.Stats.CodeOps, opt.Stats.CodeOps)
	}
	// The optimized program outlives the flow in the bitstream cache: no
	// append slack in its records. Each array below is an allocation of
	// its own, but for the sources, which share theirs with the
	// temporaries' widths, so those widths end where the allocation does.
	for _, sp := range opt.Spans {
		if cap(sp.Ops) != len(sp.Ops) || cap(sp.Consts) != len(sp.Consts) || cap(sp.TempWidths) != len(sp.TempWidths) {
			t.Fatalf("a unit's record holds %d instructions, %d constants and %d temporaries in room for %d, %d and %d",
				len(sp.Ops), len(sp.Consts), len(sp.TempWidths), cap(sp.Ops), cap(sp.Consts), cap(sp.TempWidths))
		}
	}
}

func TestOptimizePreservesBehaviourOnRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 25; trial++ {
		src := vgen.Module(300 + uint64(trial)).String()
		f := flatten(t, src)
		raw, opt := rawAndOpt(t, src)
		if opt.Stats.CodeOps > raw.Stats.CodeOps {
			t.Fatal("optimizer grew code")
		}
		mr, mo := NewMachine(raw), NewMachine(opt)
		clk := f.VarNamed("clk")
		av, bv := f.VarNamed("a"), f.VarNamed("b")
		settle := func(m *Machine) {
			for m.HasActive() || m.HasUpdates() {
				m.Evaluate()
				if m.HasUpdates() {
					m.Update()
				}
			}
		}
		settle(mr)
		settle(mo)
		for i := 0; i < 10; i++ {
			x, y := r.Uint64(), r.Uint64()
			for _, m := range []*Machine{mr, mo} {
				m.SetInput(av, bits.FromUint64(8, x))
				m.SetInput(bv, bits.FromUint64(8, y))
				settle(m)
				m.SetInput(clk, bits.FromUint64(1, 1))
				settle(m)
				if m.HasUpdates() {
					m.Update()
				}
				settle(m)
				m.SetInput(clk, bits.FromUint64(1, 0))
				settle(m)
			}
			if !slices.Equal(mr.GetState(), mo.GetState()) {
				t.Fatalf("trial %d tick %d: optimizer changed behaviour on\n%s", trial, i, src)
			}
		}
	}
}

func TestOptimizeKeepsTasksAndControlFlow(t *testing.T) {
	src := `
module M(input wire clk, input wire [1:0] s);
  reg [7:0] q = 0;
  always @(posedge clk)
    case (s)
      2'd0: q <= q + 1;
      2'd1: begin q <= q + 2; $display("two %d", q); end
      default: $finish;
    endcase
endmodule`
	f := flatten(t, src)
	prog, err := Compile(f) // optimized path
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(prog)
	clk, sv := f.VarNamed("clk"), f.VarNamed("s")
	settle := func() {
		for m.HasActive() || m.HasUpdates() {
			m.Evaluate()
			if m.HasUpdates() {
				m.Update()
			}
		}
	}
	tick := func(s uint64) {
		m.SetInput(sv, bits.FromUint64(2, s))
		settle()
		m.SetInput(clk, bits.FromUint64(1, 1))
		settle()
		m.SetInput(clk, bits.FromUint64(1, 0))
		settle()
	}
	tick(0)
	tick(1)
	evs := m.DrainEvents()
	if len(evs) != 1 || evs[0].Text != "two 1" {
		t.Fatalf("display lost through optimizer: %v", evs)
	}
	tick(3)
	if !m.Finished() {
		t.Fatal("finish lost through optimizer")
	}
}

func TestElabPrunesUnreachableBranches(t *testing.T) {
	// The statically false branch is pruned during elaboration, so the
	// dead triple multiply costs no cells in either compile path.
	_, withDead := rawAndOpt(t, `
module M(input wire clk, input wire [31:0] x, output reg [31:0] q);
  always @(posedge clk)
    if (1'b0)
      q <= x * x * x;  // statically unreachable
    else
      q <= x + 1;
endmodule`)
	_, clean := rawAndOpt(t, `
module M(input wire clk, input wire [31:0] x, output reg [31:0] q);
  always @(posedge clk)
    q <= x + 1;
endmodule`)
	if withDead.Stats.Cells != clean.Stats.Cells {
		t.Fatalf("dead branch not pruned: %d cells vs %d clean", withDead.Stats.Cells, clean.Stats.Cells)
	}
}

func TestSweepRemovesSyntheticDeadChain(t *testing.T) {
	// DCE proper: put a pure compute chain ending in an unread temp slot
	// in front of a unit's code; sweep must mark the whole chain dead and
	// every instruction of the unit itself live.
	raw, _ := rawAndOpt(t, `
module M(input wire clk, input wire [7:0] a, output reg [7:0] q);
  always @(posedge clk)
    if (a > 3)
      q <= a + 1;
    else
      q <= a - 1;
endmodule`)
	sp := raw.Spans[0]
	t1 := int32(len(sp.TempWidths))
	at := int32(len(sp.Operands)) // the dead ops' sources go at the arena's end
	operands := append(slices.Clone(sp.Operands), t1, t1, t1+1, t1)
	dead := []Op{
		{Kind: OpConst, Dst: t1, Width: 8, Src: at, Const: 0},
		{Kind: OpMul, Dst: t1 + 1, Src: at, NSrcs: 2, Width: 8, Const: -1},
		{Kind: OpAdd, Dst: t1 + 2, Src: at + 2, NSrcs: 2, Width: 8, Const: -1},
	}
	code := append(slices.Clone(dead), sp.Ops...)
	keep := make([]bool, len(code))
	sweep(code, operands, make([]bool, t1+3), keep)
	for i, k := range keep {
		if k != (i >= len(dead)) {
			t.Fatalf("op %d (%v) kept=%v: want the %d dead ops dropped and the unit's own %d kept",
				i, code[i].Kind, k, len(dead), len(sp.Ops))
		}
	}
}
