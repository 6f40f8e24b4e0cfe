package runtime

import (
	"context"
	"strings"
	"testing"

	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/lifecycle"
	"cascade/internal/toolchain"
	"cascade/internal/vclock"
	"cascade/internal/vgen"
)

// TestServicePassAllocFree: the inter-step service pass runs every step,
// so with no compile pending and no fault latched it must not allocate —
// in software while the JIT is pinned, and in lock-step hardware with an
// (idle) fault injector wired.
func TestServicePassAllocFree(t *testing.T) {
	for name, opts := range map[string]Options{
		"software": {Features: Features{DisableJIT: true}},
		"hardware": {Features: Features{DisableForwarding: true}, Injector: fault.New(fault.Config{})},
	} {
		r := newTestRuntime(t, opts)
		r.MustEval(figure3)
		r.RunTicks(200)
		if name == "hardware" && r.Phase() != PhaseHardware {
			t.Fatalf("phase %v, want lock-step hardware", r.Phase())
		}
		if n := testing.AllocsPerRun(100, func() { r.serviceFaults(); r.serviceJIT() }); n != 0 {
			t.Errorf("%s: service pass allocates %.0f times per step", name, n)
		}
	}
}

// twoClocked is a design of two clocked subprograms and a root that reads
// them: with inlining off, every posedge's evals batch holds two user
// engines.
const twoClocked = `
module Ctr(input wire c, output wire [7:0] out);
  reg [7:0] n = 1;
  always @(posedge c) n <= n + 3;
  assign out = n;
endmodule
Ctr c0(.c(clk.val)); Ctr c1(.c(clk.val));
assign led.val = c0.out ^ c1.out;
`

// TestLockStepStepAllocFree: a whole lock-step Step runs on the resolved
// schedule table — polls, the batch's runs, borrowed output visits,
// routing, settling, the service passes — so with compiled evaluators and
// no $display firing it must not allocate: on lock-step hardware, and on
// the native rung while the fabric flow (real latencies) is still far
// away. Each rung also runs twoClocked apart at 8 billed lanes, where a
// batch holds two user engines and still runs on the controller. The
// interpreter allocates as it evaluates; its count is logged.
func TestLockStepStepAllocFree(t *testing.T) {
	hardware := func(feats Features, prog string, par int) *Runtime {
		r := newTestRuntime(t, Options{Features: feats, Parallelism: par})
		r.MustEval(prog)
		r.RunTicks(200)
		if r.Phase() != PhaseHardware {
			t.Fatalf("phase %v, want lock-step hardware", r.Phase())
		}
		return r
	}
	native := func(feats Features, prog string, par int) *Runtime {
		dev := fpga.NewCycloneV()
		feats.NativeTier = true
		r := newTestRuntime(t, Options{Device: dev, Toolchain: toolchain.New(dev, toolchain.DefaultOptions()),
			Features: feats, Parallelism: par})
		r.MustEval(prog)
		r.Idle(1 * vclock.S)
		for _, p := range r.placed {
			if p.Tier() != lifecycle.Native {
				t.Fatalf("%s on tier %v, want native", p.Path, p.Tier())
			}
		}
		return r
	}
	apart := Features{DisableInline: true}

	sw := newTestRuntime(t, Options{Features: Features{DisableJIT: true}})
	sw.MustEval(figure3)

	for _, c := range []struct {
		name   string
		r      *Runtime
		placed int
		free   bool
	}{
		{"hardware", hardware(Features{DisableForwarding: true}, figure3, 0), 1, true},
		{"native", native(Features{}, figure3, 0), 1, true},
		{"hardware apart", hardware(apart, twoClocked, 8), 3, true},
		{"native apart", native(apart, twoClocked, 8), 3, true},
		{"software", sw, 1, false},
	} {
		if len(c.r.placed) != c.placed {
			t.Fatalf("%s: %d user engines, want %d", c.name, len(c.r.placed), c.placed)
		}
		c.r.RunTicks(8)
		n := testing.AllocsPerRun(200, c.r.Step)
		t.Logf("%s: %.1f allocations per lock-step Step", c.name, n)
		if c.free && n != 0 {
			t.Errorf("%s: lock-step Step allocates %.1f times", c.name, n)
		}
	}
}

// TestDefaultParallelismBillsOneLane: Parallelism 0 bills a batch over
// one lane on any host, so a default runtime's virtual clock does not
// depend on the core count. The program batches two user engines per
// posedge, where the width shows.
func TestDefaultParallelismBillsOneLane(t *testing.T) {
	now := func(par int) (uint64, int) {
		r := newTestRuntime(t, Options{Features: Features{DisableJIT: true, DisableInline: true}, Parallelism: par})
		r.MustEval(twoClocked)
		r.RunTicks(50)
		return r.VirtualNow(), r.Parallelism()
	}
	def, lanes := now(0)
	one, _ := now(1)
	if eight, _ := now(8); eight == one {
		t.Fatalf("8 lanes billed %d ps, as one lane did: the width does not show", eight)
	}
	if lanes != 1 || def != one {
		t.Errorf("Parallelism 0: %d lanes, %d ps; want 1 lane and one lane's %d ps", lanes, def, one)
	}
}

// TestServiceJITDropsCanceledJobs checks the runtime side of compile
// cancellation: a job cancelled after submission (re-eval, context
// cancellation) must be removed from the pending set and the program
// must keep running in software rather than wait on it forever.
func TestServiceJITDropsCanceledJobs(t *testing.T) {
	r := newTestRuntime(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	if err := r.EvalCtx(ctx, figure3); err != nil {
		t.Fatalf("eval: %v", err)
	}
	cancel()
	// Cancel is unconditional (a context abort only wins the race when
	// the worker has not started), so cancel the jobs directly too:
	// deterministic regardless of goroutine scheduling.
	r.eachJob(func(_ *lifecycle.Placement, _ lifecycle.Tier, j *toolchain.Job) { j.Cancel() })
	r.RunTicks(500)
	if r.Phase() != PhaseInlined {
		t.Fatalf("cancelled compile must pin the program in software, got %v", r.Phase())
	}
	if n := r.pending(lifecycle.Fabric); n != 0 {
		t.Fatalf("serviceJIT left %d cancelled jobs pending", n)
	}
	if _, pending := r.CompileReadyAt(); pending {
		t.Fatal("CompileReadyAt still reports a pending compile")
	}
	// A fresh eval resubmits and the JIT proceeds normally.
	r.MustEval(`wire unused_resub;`)
	if !r.WaitForPhase(PhaseOpenLoop, 20000) {
		t.Fatalf("JIT stuck after resubmit: %v", r.Phase())
	}
}

// TestBufViewConcurrentReads drives the runtime while another goroutine
// hammers the BufView accessors; the race detector enforces the View
// concurrency contract documented in runtime.go.
func TestBufViewConcurrentReads(t *testing.T) {
	view := &BufView{Quiet: true}
	r := newTestRuntime(t, Options{View: view, Features: Features{DisableJIT: true, DisableInline: true}})
	r.MustEval(vgen.Session(99).Steps[0].Source())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10_000; i++ {
			_ = view.Output()
			_ = view.Infos()
			_ = view.Errors()
		}
	}()
	r.RunTicks(300)
	<-done
	if !strings.Contains(view.Output(), "root0.") {
		t.Fatalf("program produced no output: %q", view.Output())
	}
}

// TestStatsSnapshot checks the stable status snapshot satellites hang
// off of: engine inventory, parallelism, vclock breakdown, and the
// compile-service counters (including a bitstream-cache hit after a
// state-preserving re-eval of an unchanged netlist... which a new eval
// is not, so here: miss counts at least).
func TestStatsSnapshot(t *testing.T) {
	r := newTestRuntime(t, Options{Parallelism: 3})
	r.MustEval(figure3)
	if !r.WaitForPhase(PhaseOpenLoop, 20000) {
		t.Fatalf("no open loop: %v", r.Phase())
	}
	r.RunTicks(20)
	st := r.Stats()
	if st.Phase != PhaseOpenLoop {
		t.Fatalf("phase: %v", st.Phase)
	}
	if st.Parallelism != 3 {
		t.Fatalf("parallelism: %d", st.Parallelism)
	}
	if st.Ticks == 0 || st.Steps == 0 {
		t.Fatalf("no progress recorded: %+v", st)
	}
	if st.Time.NowPs == 0 || st.Time.NowPs != r.VirtualNow() {
		t.Fatalf("vclock snapshot wrong: %d vs %d", st.Time.NowPs, r.VirtualNow())
	}
	if st.Compile.Submitted == 0 || st.Compile.CacheMisses == 0 {
		t.Fatalf("compile stats empty: %+v", st.Compile)
	}
	if len(st.Engines) == 0 {
		t.Fatal("no engines in snapshot")
	}
	hw := false
	for _, e := range st.Engines {
		if strings.Contains(e.Location, "hardware") {
			hw = true
		}
	}
	if !hw {
		t.Fatalf("open-loop runtime reports no hardware engine: %+v", st.Engines)
	}
	if !strings.Contains(st.Summary(), "phase=") {
		t.Fatalf("summary malformed: %q", st.Summary())
	}
}

// TestLockStepCallsPerStep pins the in-process ABI calls (transport round
// trips over every scheduled client) that 64 lock-step Steps of figure3
// make in each lock-step phase: the Figure 6 loop asks an engine only when
// its answer can have changed (the quiet rule, DESIGN "Schedule table").
// The forwarded phase schedules only the fabric engine, whose polls are
// never skipped; the forward group's members are counted in hweng's
// TestForwardGroupCallsPerStep. Before the rule, every round polled every
// slot: interpreter 2464, native 2656, hardware 2656, forwarded 928.
func TestLockStepCallsPerStep(t *testing.T) {
	dev := fpga.NewCycloneV()
	for _, c := range []struct {
		name  string
		opts  Options
		phase Phase
		want  uint64
	}{
		{"interpreter", Options{Features: Features{DisableJIT: true}}, PhaseInlined, 1888},
		{"native", Options{Device: dev, Toolchain: toolchain.New(dev, toolchain.DefaultOptions()),
			Features: Features{NativeTier: true}}, PhaseInlined, 1984},
		{"hardware", Options{Features: Features{DisableForwarding: true}}, PhaseHardware, 1984},
		{"forwarded", Options{Features: Features{DisableOpenLoop: true}}, PhaseForwarded, 928},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newTestRuntime(t, c.opts)
			r.MustEval(figure3)
			if c.name == "native" {
				r.Idle(1 * vclock.S)
			}
			r.RunTicks(200)
			if r.Phase() != c.phase {
				t.Fatalf("phase %v, want %v", r.Phase(), c.phase)
			}
			if c.name == "native" && userTier(r.Stats()) != "native" {
				t.Fatalf("tier %q, want native", userTier(r.Stats()))
			}
			calls := func() (n uint64) {
				for _, s := range r.slots {
					n += s.c.Stats().RoundTrips
				}
				return n
			}
			before := calls()
			for i := 0; i < 64; i++ {
				r.Step()
			}
			if got := calls() - before; got != c.want {
				t.Errorf("64 steps made %d in-process ABI calls, want %d", got, c.want)
			}
		})
	}
}
