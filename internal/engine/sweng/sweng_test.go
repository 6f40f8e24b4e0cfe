package sweng

import (
	"slices"
	"strings"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/engine"
	"cascade/internal/imagetest"
	"cascade/internal/verilog"
)

type recordIO struct {
	out      strings.Builder
	finished bool
}

func (r *recordIO) Display(text string, newline bool) {
	r.out.WriteString(text)
	if newline {
		r.out.WriteString("\n")
	}
}
func (r *recordIO) Finish(code int) { r.finished = true }

func build(t *testing.T, src string) *elab.Flat {
	t.Helper()
	st, errs := verilog.ParseSourceText(src)
	if errs != nil {
		t.Fatal(errs)
	}
	f, err := elab.Elaborate(st.Modules[0], "e", nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

const counter = `
module M(input wire clk, input wire [3:0] step, output wire [7:0] q);
  reg [7:0] acc = 0;
  always @(posedge clk) begin
    acc <= acc + step;
    if (acc == 8'd6) $display("six at %d", $time);
    if (acc == 8'd12) $finish;
  end
  assign q = acc;
endmodule`

func tick(e *Engine) {
	for _, c := range []uint64{1, 0} {
		e.Read(engine.Event{Var: "clk", Val: bits.FromUint64(1, c)})
		for e.ThereAreEvals() || e.ThereAreUpdates() {
			e.Evaluate()
			if e.ThereAreUpdates() {
				e.Update()
			}
		}
		e.EndStep()
	}
}

func TestEngineABILifecycle(t *testing.T) {
	io := &recordIO{}
	now := uint64(0)
	e := New(build(t, counter), io, func() uint64 { return now }, false)
	if e.Loc() != engine.Software || e.Name() != "e" {
		t.Fatal("identity wrong")
	}
	e.Read(engine.Event{Var: "step", Val: bits.FromUint64(4, 3)})
	// acc: 3,6,9,12; the $finish guard reads acc==12 at the fifth edge.
	for i := 0; i < 5 && !e.Finished(); i++ {
		now = uint64(i)
		tick(e)
	}
	// Outputs broadcast only when changed.
	evs := engine.Collect(e)
	found := false
	for _, ev := range evs {
		if ev.Var == "q" {
			found = true
		}
	}
	if !found {
		t.Fatalf("q not broadcast: %v", evs)
	}
	if len(engine.Collect(e)) != 0 {
		t.Fatal("unchanged outputs re-broadcast")
	}
	if !strings.Contains(io.out.String(), "six at") {
		t.Fatalf("display lost: %q", io.out.String())
	}
	if !io.finished || !e.Finished() {
		t.Fatal("finish not propagated")
	}
}

func TestOpsDeltaFeedsCostModel(t *testing.T) {
	e := New(build(t, counter), nil, nil, false)
	e.OpsDelta() // clear construction work
	tick(e)
	if d := e.OpsDelta(); d == 0 {
		t.Fatal("a tick should cost interpreter ops")
	}
	if d := e.OpsDelta(); d != 0 {
		t.Fatalf("delta should reset: %d", d)
	}
}

func TestStateHandOffBetweenSoftwareEngines(t *testing.T) {
	f := build(t, counter)
	a := New(f, nil, nil, false)
	a.Read(engine.Event{Var: "step", Val: bits.FromUint64(4, 2)})
	for i := 0; i < 3; i++ {
		tick(a)
	}
	b := New(build(t, counter), nil, nil, false)
	b.SetState(a.GetState())
	if got := imagetest.Of(b.Flat().Layout(), b.GetState()).Scalar("acc").Uint64(); got != 6 {
		t.Fatalf("acc not transferred: %d", got)
	}
	// Continue on b: must pick up where a stopped.
	tick(b)
	if got := imagetest.Of(b.Flat().Layout(), b.GetState()).Scalar("acc").Uint64(); got != 8 {
		t.Fatalf("b did not continue: %d", got)
	}
}

func TestEagerAndLazyAgree(t *testing.T) {
	lazy := New(build(t, counter), nil, nil, false)
	eager := New(build(t, counter), nil, nil, true)
	for _, e := range []*Engine{lazy, eager} {
		e.Read(engine.Event{Var: "step", Val: bits.FromUint64(4, 1)})
	}
	lazy.OpsDelta()
	eager.OpsDelta()
	var lazyOps, eagerOps uint64
	for i := 0; i < 5; i++ {
		tick(lazy)
		tick(eager)
	}
	lazyOps, eagerOps = lazy.OpsDelta(), eager.OpsDelta()
	if !slices.Equal(lazy.GetState(), eager.GetState()) {
		t.Fatal("eager and lazy evaluation diverged")
	}
	if eagerOps <= lazyOps {
		t.Fatalf("eager should cost more ops: %d vs %d", eagerOps, lazyOps)
	}
}
