package runtime

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/lifecycle"
	"cascade/internal/sim"
	"cascade/internal/toolchain"
)

// runWithFaults is runEquiv plus an injector: it executes prog for n
// ticks and returns every observable along with the final Stats.
func runWithFaults(t *testing.T, prog string, cfg *fault.Config, par, n int) (string, []uint64, map[string]*sim.State, Stats) {
	t.Helper()
	view := &BufView{Quiet: true}
	opts := Options{View: view, Features: Features{DisableInline: true}, Parallelism: par}
	if cfg != nil {
		opts.Injector = fault.New(*cfg)
	}
	r := newTestRuntime(t, opts)
	r.MustEval(prog)
	leds := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		r.RunTicks(1)
		leds = append(leds, r.World().Led("main.led"))
	}
	return view.Output(), leds, r.captureStates(), r.Stats()
}

// TestFaultDeterminismProperty is the degradation property test: random
// multi-engine programs run under injected faults — transient compile
// failures (retried with virtual-time backoff), region faults on the
// first placement (the compile is resubmitted), and a bus error in each
// engine's first hardware step (the engine is evicted back to software,
// then re-promoted from the bitstream cache). None of it may be
// observable: display output, the per-tick LED trace, and the final
// state must be identical to the fault-free run, serial or parallel.
// Only the virtual-time billing and the Stats counters may differ.
func TestFaultDeterminismProperty(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			prog := genEquivProgram(rand.New(rand.NewSource(seed)))
			cfg := fault.Config{
				Seed:             uint64(seed) + 1,
				CompileTransient: 1, MaxCompileFaults: 2,
				RegionFault: 1, MaxRegionFaults: 1,
				BusError: 1, MaxBusFaults: 1,
			}
			cleanOut, cleanLed, cleanSt, _ := runWithFaults(t, prog, nil, 1, 96)
			out, led, st, stats := runWithFaults(t, prog, &cfg, 1, 96)
			if out != cleanOut {
				t.Errorf("display output diverged under faults:\nclean:  %q\nfaulty: %q\nprogram:\n%s", cleanOut, out, prog)
			}
			if !reflect.DeepEqual(led, cleanLed) {
				t.Errorf("LED trace diverged under faults:\nclean:  %v\nfaulty: %v\nprogram:\n%s", cleanLed, led, prog)
			}
			if !reflect.DeepEqual(st, cleanSt) {
				t.Errorf("final states diverged under faults:\nclean:  %v\nfaulty: %v", cleanSt, st)
			}
			// The faults must actually have happened for the comparison to
			// mean anything: at least one retried compile and at least one
			// hardware eviction.
			if stats.Compile.Retried < 1 {
				t.Errorf("no compile retries recorded: %+v", stats.Compile)
			}
			if stats.Compile.TransientFaults < 1 {
				t.Errorf("no transient compile faults recorded: %+v", stats.Compile)
			}
			if stats.HWFaults < 1 || stats.Evictions < 1 {
				t.Errorf("no hardware eviction happened (hwFaults=%d evictions=%d); the degradation path was not exercised",
					stats.HWFaults, stats.Evictions)
			}
			if stats.Faults.Injected == 0 {
				t.Errorf("injector reports nothing injected: %+v", stats.Faults)
			}
			// A parallel faulty run agrees with the serial faulty run (and
			// therefore with the clean one) on every observable.
			outP, ledP, stP, statsP := runWithFaults(t, prog, &cfg, 8, 96)
			if outP != cleanOut || !reflect.DeepEqual(ledP, cleanLed) || !reflect.DeepEqual(stP, cleanSt) {
				t.Errorf("parallel faulty run diverged:\nclean out: %q\npar out:   %q\nclean led: %v\npar led:   %v",
					cleanOut, outP, cleanLed, ledP)
			}
			// Injector decisions are per-site counters, so the parallel
			// run injects exactly the same faults. (Checks is excluded:
			// billing differs across lane counts by design, so engines
			// spend a different number of steps being probed in hardware.)
			fs, fp := stats.Faults, statsP.Faults
			fs.Checks, fp.Checks = 0, 0
			if fs != fp {
				t.Errorf("fault schedule depended on parallelism: serial %+v parallel %+v", stats.Faults, statsP.Faults)
			}
		})
	}
}

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

// makespanProg instantiates six identical counter engines so evaluate
// batches are larger than a small lane count.
const makespanProg = `
module Work(input wire c, output wire [7:0] out);
  reg [7:0] acc = 1;
  always @(posedge c) acc <= acc + 3;
  assign out = acc;
endmodule
Work w0(.c(clk.val)); Work w1(.c(clk.val)); Work w2(.c(clk.val));
Work w3(.c(clk.val)); Work w4(.c(clk.val)); Work w5(.c(clk.val));
assign led.val = w0.out ^ w1.out ^ w2.out ^ w3.out ^ w4.out ^ w5.out;
`

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
