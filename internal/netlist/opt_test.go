package netlist

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/vgen"
)

func rawAndOpt(t *testing.T, src string) (*Program, *Program) {
	t.Helper()
	raw, err := CompileRaw(flatten(t, src))
	if err != nil {
		t.Fatal(err)
	}
	return raw, Optimize(raw)
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
	if len(opt.Code) > len(raw.Code) {
		t.Fatalf("optimizer grew code: %d -> %d", len(raw.Code), len(opt.Code))
	}
	// The optimized program outlives the flow in the bitstream cache: no
	// append slack on its ~100-byte instructions.
	if cap(opt.Code) != len(opt.Code) {
		t.Fatalf("optimized code holds %d instructions in room for %d", len(opt.Code), cap(opt.Code))
	}
}

func TestOptimizePreservesBehaviourOnRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 25; trial++ {
		src := vgen.Module(300 + uint64(trial)).String()
		f := flatten(t, src)
		raw, err := CompileRaw(f)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opt := Optimize(raw)
		if len(opt.Code) > len(raw.Code) {
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

func TestOptimizeRemovesSyntheticDeadChain(t *testing.T) {
	// DCE proper: append a pure compute chain ending in an unread temp
	// slot; Optimize must drop the whole chain and renumber jumps.
	raw, _ := rawAndOpt(t, `
module M(input wire clk, input wire [7:0] a, output reg [7:0] q);
  always @(posedge clk)
    if (a > 3)
      q <= a + 1;
    else
      q <= a - 1;
endmodule`)
	// Splice dead ops in front of the first unit (entries shift by 3).
	t1 := int32(len(raw.Slots))
	raw.Slots = append(raw.Slots, SlotInfo{Width: 8}, SlotInfo{Width: 8}, SlotInfo{Width: 8})
	at := int32(len(raw.Operands)) // the dead ops' sources go at the arena's end
	raw.Operands = append(raw.Operands, t1, t1, t1+1, t1)
	raw.Consts = append(raw.Consts, mustVec(8, 7))
	dead := []Op{
		{Kind: OpConst, Dst: t1, Width: 8, Src: at, Const: int32(len(raw.Consts) - 1)},
		{Kind: OpMul, Dst: t1 + 1, Src: at, NSrcs: 2, Width: 8, Const: -1},
		{Kind: OpAdd, Dst: t1 + 2, Src: at + 2, NSrcs: 2, Width: 8, Const: -1},
	}
	shifted := append(dead, raw.Code...)
	for i := len(dead); i < len(shifted); i++ {
		switch shifted[i].Kind {
		case OpJump, OpJz:
			shifted[i].Target += int32(len(dead))
		}
	}
	raw.Code = shifted
	for i := range raw.Comb {
		raw.Comb[i].Entry += len(dead)
	}
	for i := range raw.Seq {
		raw.Seq[i].Entry += len(dead)
	}
	for i := 1; i < len(raw.Spans); i++ { // the dead ops join the first unit
		raw.Spans[i].Code += int32(len(dead))
	}
	before := len(raw.Code)
	opt := Optimize(raw)
	if len(opt.Code) != before-len(dead) {
		t.Fatalf("dead chain not removed: %d -> %d ops", before, len(opt.Code))
	}
	// The machine still runs correctly after renumbering.
	f := raw.Flat
	m := NewMachine(opt)
	clk, av := f.VarNamed("clk"), f.VarNamed("a")
	settle := func() {
		for m.HasActive() || m.HasUpdates() {
			m.Evaluate()
			if m.HasUpdates() {
				m.Update()
			}
		}
	}
	settle()
	m.SetInput(av, bits.FromUint64(8, 9))
	settle()
	m.SetInput(clk, bits.FromUint64(1, 1))
	settle()
	if got := m.PeekVar(f.VarNamed("q")).Clone().Uint64(); got != 10 {
		t.Fatalf("q=%d after optimize, want 10", got)
	}
}

func mustVec(w int, v uint64) *bits.Vector { return bits.FromUint64(w, v) }

var _ = fmt.Sprintf
