package runtime

import (
	"context"
	"fmt"
	"testing"

	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/lifecycle"
	"cascade/internal/toolchain"
)

// TestBatchMakespanUnit pins down the settleBatch billing rule and the
// PR 1 regression: with more batch members than lanes, billing the bare
// slowest member pretended unbounded parallelism existed.
func TestBatchMakespanUnit(t *testing.T) {
	// One lane runs the batch back-to-back: the serial sum.
	if got := batchMakespanPs(80, 10, 1); got != 80 {
		t.Errorf("serial: got %d, want 80", got)
	}
	// The batch fits in the lanes: the slowest member is the makespan.
	if got := batchMakespanPs(20, 10, 2); got != 10 {
		t.Errorf("fits-in-lanes: got %d, want 10", got)
	}
	// Oversubscribed: 8 members of cost 10 on 2 lanes take 4 rounds.
	// The old code billed maxCompute = 10 here — 4x under-billed.
	oldBill := uint64(10)
	if got := batchMakespanPs(80, 10, 2); got != 40 {
		t.Errorf("oversubscribed: got %d, want 40", got)
	} else if got == oldBill {
		t.Errorf("oversubscribed bill did not diverge from the old max-only rule")
	}
	// A single dominant member still sets the floor.
	if got := batchMakespanPs(80, 70, 2); got != 70 {
		t.Errorf("dominant member: got %d, want 70", got)
	}
	// Monotone in batch size: adding members never cheapens the batch.
	prev := uint64(0)
	for n := 1; n <= 32; n++ {
		got := batchMakespanPs(uint64(n)*10, 10, 4)
		if got < prev {
			t.Fatalf("makespan not monotone: n=%d got %d after %d", n, got, prev)
		}
		prev = got
	}
}

// makespanProg is six like counter engines, so evaluate batches are larger
// than a small lane count.
var makespanProg = counters("makespan", [4]int{8, 1, 3, 0}, [4]int{8, 1, 3, 0}, [4]int{8, 1, 3, 0},
	[4]int{8, 1, 3, 0}, [4]int{8, 1, 3, 0}, [4]int{8, 1, 3, 0}).Steps[0].Src

// TestSettleBatchOversubscribedBilling is the integration regression for
// the settleBatch fix: six engines on two lanes must bill strictly more
// compute than six engines on eight lanes (under the old max-only rule
// the two were identical), and never more than the serial runtime.
func TestSettleBatchOversubscribedBilling(t *testing.T) {
	run := func(par int) uint64 {
		r := newTestRuntime(t, Options{
			Features:    Features{DisableInline: true, DisableJIT: true},
			Parallelism: par,
		})
		r.MustEval(makespanProg)
		r.RunTicks(32)
		return r.Stats().Time.ComputePs
	}
	c1, c2, c8 := run(1), run(2), run(8)
	if c2 <= c8 {
		t.Errorf("2 lanes billed %d ≤ 8 lanes %d: oversubscription is free again (the PR 1 bug)", c2, c8)
	}
	if c1 < c2 {
		t.Errorf("serial billed %d < 2 lanes %d: parallelism made compute more expensive than serial", c1, c2)
	}
}

// TestDeviceCapacityAcrossEvalCycles loops program-change cycles and
// checks fabric accounting at each edge: a re-eval releases all placed
// hardware immediately, a promotion's footprint matches the runtime's
// own accounting, and cancelled compiles never place anything.
func TestDeviceCapacityAcrossEvalCycles(t *testing.T) {
	dev := fpga.NewCycloneV()
	r := newTestRuntime(t, Options{Device: dev})
	r.MustEval(figure3)
	for i := 0; i < 3; i++ {
		if !r.WaitForPhase(PhaseOpenLoop, 20000) {
			t.Fatalf("cycle %d: never reached open loop: %v", i, r.Phase())
		}
		if dev.Used() == 0 {
			t.Fatalf("cycle %d: open loop with nothing placed", i)
		}
		if dev.Used() != r.AreaLEs() {
			t.Fatalf("cycle %d: device says %d LEs, runtime says %d", i, dev.Used(), r.AreaLEs())
		}
		// Appending to the program tears hardware down (reverse of
		// Figure 9): the fabric must be fully released, immediately.
		r.MustEval(fmt.Sprintf("wire cap_probe_%d;", i))
		if dev.Used() != 0 {
			t.Fatalf("cycle %d: re-eval leaked %d LEs", i, dev.Used())
		}
	}
	// Submit→cancel cycles: a compile cancelled before its hot swap must
	// never consume fabric.
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		if err := r.EvalCtx(ctx, fmt.Sprintf("wire cancel_probe_%d;", i)); err != nil {
			t.Fatalf("eval: %v", err)
		}
		cancel()
		r.eachJob(func(_ *lifecycle.Placement, _ lifecycle.Tier, j *toolchain.Job) { j.Cancel() })
		r.RunTicks(200)
		if dev.Used() != 0 {
			t.Fatalf("cancel cycle %d: %d LEs placed by a cancelled compile", i, dev.Used())
		}
	}
}

// TestStatsConcurrentWithRun hammers Stats (and Snapshot) from a
// monitoring goroutine while the controller runs the scheduler; the race
// detector enforces the locking contract documented on Runtime.mu.
func TestStatsConcurrentWithRun(t *testing.T) {
	r := newTestRuntime(t, Options{Parallelism: 4})
	r.MustEval(figure3)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			st := r.Stats()
			if st.Steps > 0 && st.Ticks > st.Steps {
				panic("ticks ran ahead of steps")
			}
			if i%100 == 0 {
				_ = r.Snapshot()
			}
		}
	}()
	if err := r.RunTicksCtx(context.Background(), 400); err != nil {
		t.Fatal(err)
	}
	<-done
	if st := r.Stats(); st.Ticks < 400 {
		t.Fatalf("runtime made no progress under concurrent Stats: %+v", st)
	}
}

// TestIdleSplitsAtCompileReady: Idle across a compile's ready point must
// split the advance there and service the hot swap at that moment. The
// old code jumped the whole span in one AdvanceRaw and serviced
// afterwards, so the swap's own cost landed *after* the span and the
// entire span was attributed to idle; with the split, the swap's
// communication cost consumes part of the window and the idle share is
// strictly smaller than the requested span.
func TestIdleSplitsAtCompileReady(t *testing.T) {
	dev := fpga.NewCycloneV()
	// The default (realistic) toolchain: the compile is ready far in the
	// virtual future, so the idle span genuinely crosses it.
	r := newTestRuntime(t, Options{Device: dev, Toolchain: toolchain.New(dev, toolchain.DefaultOptions())})
	r.MustEval(figure3)
	r.RunTicks(1)
	start := r.VirtualNow()
	at, ok := r.CompileReadyAt()
	if !ok || at <= start {
		t.Fatalf("compile unexpectedly ready already (at=%d vnow=%d)", at, start)
	}
	idleBefore := r.Clock().Breakdown().IdlePs
	span := (at - start) * 3 // idle well past the ready point
	r.Idle(span)
	if _, pending := r.CompileReadyAt(); pending {
		t.Fatal("idle past the ready point left the compile unserviced")
	}
	if elapsed := r.VirtualNow() - start; elapsed < span {
		t.Fatalf("Idle(%d) only advanced %d", span, elapsed)
	}
	idleSpent := r.Clock().Breakdown().IdlePs - idleBefore
	if idleSpent >= span {
		t.Fatalf("idle attribution: %d of a %d span billed idle; the swap at the ready point should have consumed part of the window", idleSpent, span)
	}
	// The swap actually happened mid-idle, without a single Step.
	if r.Phase() != PhaseHardware && r.Phase() != PhaseForwarded && r.Phase() != PhaseOpenLoop {
		t.Fatalf("phase after idle across ready point: %v", r.Phase())
	}
}

// TestFarmUnavailableResubmitsUntilShardReturns pins the degradation
// path invariant 15 deliberately excludes from the byte-identical
// ledger: when every shard is down at route time the flow fails with
// the typed ErrShardUnavailable, the scheduler resubmits at the next
// step boundary, and the run still reaches the same functional endpoint
// with the same output once the shard's outage window closes — late,
// never wrong.
func TestFarmUnavailableResubmitsUntilShardReturns(t *testing.T) {
	flat := arm{feats: Features{DisableInline: true}}
	local, err := observe(t, flat, schedule{}, finite[1])
	if err != nil {
		t.Fatal(err)
	}
	flat.farm = toolchain.FarmOptions{Workers: 1, Outages: []fault.Window{{Target: 0, From: 0, To: 3}}}
	late, err := observe(t, flat, schedule{}, finite[1])
	if err != nil || late.Display != local.Display {
		t.Fatalf("outage recovery changed output (%v)\ngot:\n%s\nwant:\n%s", err, late.Display, local.Display)
	}
	if fs := late.Stats.Farm; fs.Unavailable == 0 || fs.Routed <= fs.Unavailable {
		t.Fatalf("the single shard's outage never surfaced ErrShardUnavailable, or no flow landed after it: %+v", fs)
	}
	if late.Stats.Compile.CacheMisses == 0 {
		t.Fatalf("no compile completed after recovery: %+v", late.Stats.Compile)
	}
}
