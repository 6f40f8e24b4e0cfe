package runtime

import (
	"testing"
	"time"

	"cascade/internal/fault"
	"cascade/internal/obsv"
	"cascade/internal/supervise"
	"cascade/internal/toolchain"
	"cascade/internal/transport"
	"cascade/internal/vclock"
)

// TestOpenLoopDeterministicWithPinnedWall proves the determinism rule the
// observability layer is built around: every host-side wall-clock read
// (open-loop burst sizing is the one that influences scheduling) goes
// through Observer.WallNow, so pinning the wall clock makes two runs of
// the same program produce byte-identical virtual timelines — wall time
// adapts *how often* control returns, never *what* gets billed.
func TestOpenLoopDeterministicWithPinnedWall(t *testing.T) {
	pinned := time.Unix(1_700_000_000, 0)
	run := func() (Stats, string) {
		obs := obsv.New(obsv.Options{WallClock: func() time.Time { return pinned }})
		r := newTestRuntime(t, Options{
			Observer:         obs,
			Parallelism:      2,
			OpenLoopTargetPs: 10 * vclock.Us,
		})
		r.MustEval(figure3)
		if !r.WaitForPhase(PhaseOpenLoop, 20000) {
			t.Fatalf("never reached open loop: %v", r.Phase())
		}
		r.RunTicks(5000)
		st := r.Stats()
		return st, st.Summary()
	}
	st1, sum1 := run()
	st2, sum2 := run()
	if sum1 != sum2 {
		t.Errorf("summaries diverge under a pinned wall clock:\n%s\n%s", sum1, sum2)
	}
	if st1.Time != st2.Time {
		t.Errorf("virtual-time breakdowns diverge:\n%+v\n%+v", st1.Time, st2.Time)
	}
	if st1.Steps != st2.Steps || st1.Ticks != st2.Ticks {
		t.Errorf("step counts diverge: steps %d/%d ticks %d/%d",
			st1.Steps, st2.Steps, st1.Ticks, st2.Ticks)
	}
	if st1.Phase != PhaseOpenLoop {
		t.Errorf("expected to sample in open loop, got %v", st1.Phase)
	}
}

// TestObserverTracesJITLifecycle runs the paper's Figure 3 program to
// open loop and checks the trace tells the JIT story end to end: eval,
// elaboration, a compile submitted and resolved, the bitstream landing,
// the hot swap — each hot swap preceded by its own submit and ready
// events — and the phase gauge tracking the Figure 9 climb.
func TestObserverTracesJITLifecycle(t *testing.T) {
	obs := obsv.New(obsv.Options{})
	r := newTestRuntime(t, Options{Observer: obs, OpenLoopTargetPs: 10 * vclock.Us})
	r.MustEval(figure3)
	if !r.WaitForPhase(PhaseOpenLoop, 20000) {
		t.Fatalf("never reached open loop: %v", r.Phase())
	}
	evs := obs.Trace(0)
	seen := map[obsv.EventKind]bool{}
	for _, ev := range evs {
		seen[ev.Kind] = true
	}
	for _, want := range []obsv.EventKind{
		obsv.EvEval, obsv.EvElaborate, obsv.EvCompileSubmit,
		obsv.EvBitstreamReady, obsv.EvHotSwap, obsv.EvPhase,
	} {
		if !seen[want] {
			t.Errorf("trace is missing a %v event", want)
		}
	}
	// Every hot swap must be preceded by a compile-submit and a
	// bitstream-ready for the same path: the trace reconstructs the
	// sw→hw migration sequence.
	for i, ev := range evs {
		if ev.Kind != obsv.EvHotSwap {
			continue
		}
		submitted, ready := false, false
		for _, prev := range evs[:i] {
			if prev.Path != ev.Path {
				continue
			}
			switch prev.Kind {
			case obsv.EvCompileSubmit:
				submitted = true
			case obsv.EvBitstreamReady:
				ready = true
			}
		}
		if !submitted || !ready {
			t.Errorf("hot swap of %s lacks its prelude: submit=%v ready=%v",
				ev.Path, submitted, ready)
		}
	}
	if obs.Promotions.Value() == 0 {
		t.Error("promotion counter never incremented")
	}
	if obs.CompileLatency.Count() == 0 {
		t.Error("compile-latency histogram is empty")
	}
	if obs.BatchMakespan.Count() == 0 {
		t.Error("batch-makespan histogram is empty")
	}
	if got := obs.Phase.Value(); got != int64(PhaseOpenLoop) {
		t.Errorf("phase gauge = %d, want %d", got, int64(PhaseOpenLoop))
	}
	if got := obs.AreaLEs.Value(); got != int64(r.AreaLEs()) {
		t.Errorf("area gauge = %d, want %d", got, r.AreaLEs())
	}
}

// TestAreaGaugeFollowsTeardown: cascade_area_les is the area of the
// engines on the fabric now. An eval or a restore that retires hardware
// engines takes it to zero with them. (It used to keep the retired
// version's area until the next hot swap.)
func TestAreaGaugeFollowsTeardown(t *testing.T) {
	obs := obsv.New(obsv.Options{})
	r := newTestRuntime(t, Options{Observer: obs, Features: Features{DisableForwarding: true}})
	r.MustEval(figure3)
	for _, tc := range []struct {
		name   string
		retire func() error
	}{
		{"eval", func() error { return r.Eval("wire area_probe;") }},
		{"restore", func() error { return r.Restore(r.Snapshot()) }},
	} {
		name, retire := tc.name, tc.retire
		if !r.WaitForPhase(PhaseHardware, 20000) {
			t.Fatalf("%s: never reached hardware: %v", name, r.Phase())
		}
		if got := obs.AreaLEs.Value(); got == 0 || got != int64(r.AreaLEs()) {
			t.Fatalf("%s: area gauge = %d in hardware, runtime says %d", name, got, r.AreaLEs())
		}
		if err := retire(); err != nil {
			t.Fatal(err)
		}
		if got := obs.AreaLEs.Value(); got != 0 || r.AreaLEs() != 0 {
			t.Errorf("%s: area gauge = %d (runtime says %d) with every hardware engine retired", name, got, r.AreaLEs())
		}
	}
}

// TestStatsSummaryGolden locks the exact Summary rendering, base line and
// every optional segment: faults, remote (configured address, the
// "(retired)" banked-counters case, and the local-only case that must
// NOT render one), and persistence with and without an error.
func TestStatsSummaryGolden(t *testing.T) {
	base := Stats{
		Phase: PhaseOpenLoop,
		Steps: 10,
		Ticks: 5,
		Time: vclock.Breakdown{
			NowPs:      2 * vclock.S,
			ComputePs:  1 * vclock.S,
			CommPs:     500 * vclock.Ms,
			OverheadPs: 250 * vclock.Ms,
			IdlePs:     250 * vclock.Ms,
			Messages:   42,
		},
		AreaLEs:         1234,
		Parallelism:     4,
		PendingCompiles: 1,
		Compile: toolchain.Stats{
			CacheHits:   2,
			CacheMisses: 3,
			Joined:      1,
			Canceled:    0,
			Retried:     4,
		},
	}
	const baseLine = "phase=hardware(open-loop) steps=10 ticks=5 vtime=2.000s compute=1.000s" +
		" comm=0.500s overhead=0.250s idle=0.250s messages=42 area=1234 LEs lanes=4" +
		" compiles[pending=1 hits=2 misses=3 joined=1 canceled=0 retried=4]"

	cases := []struct {
		name   string
		mutate func(*Stats)
		want   string
	}{
		{"base", func(*Stats) {}, baseLine},
		{"faults", func(s *Stats) {
			s.Faults = fault.Stats{Injected: 3, Transient: 2, Permanent: 1}
			s.HWFaults = 2
			s.Evictions = 1
		}, baseLine + " faults[injected=3 transient=2 permanent=1 hw=2 evictions=1]"},
		{"remote-configured", func(s *Stats) {
			s.Remote = "127.0.0.1:9925"
			s.Xport = transport.Stats{RoundTrips: 10, BytesOut: 100, BytesIn: 200, Drops: 1, Retries: 2}
		}, baseLine + " remote[127.0.0.1:9925 roundtrips=10 out=100B in=200B drops=1 retries=2]"},
		{"remote-retired", func(s *Stats) {
			// No configured address, but wire traffic was banked from
			// retired clients: the lifetime totals must still render.
			s.Xport = transport.Stats{RoundTrips: 7, BytesOut: 64, BytesIn: 128, Retries: 1}
		}, baseLine + " remote[(retired) roundtrips=7 out=64B in=128B drops=0 retries=1]"},
		{"local-only", func(s *Stats) {
			// Local clients meter fast-path round-trips with zero wire
			// bytes; that must not fabricate a remote segment.
			s.Xport = transport.Stats{RoundTrips: 999}
		}, baseLine},
		{"supervise", func(s *Stats) {
			s.Supervise = supervise.Stats{Enabled: true, State: "half-open",
				Probes: 9, ProbeFailures: 3, Trips: 2, Failovers: 2, Rehosts: 1}
		}, baseLine + " supervise[state=half-open probes=9 fails=3 trips=2 failovers=2 rehosts=1]"},
		{"persist", func(s *Stats) {
			s.Persist = PersistStats{
				Enabled:         true,
				Records:         12,
				JournalBytes:    3456,
				Checkpoints:     2,
				CheckpointBytes: 789,
				CheckpointNs:    5_000_000,
				ReplayedRecords: 3,
			}
		}, baseLine + " persist[records=12 journal=3456B ckpts=2 ckptBytes=789 ckptMs=5 replayed=3]"},
		{"persist-error", func(s *Stats) {
			s.Persist = PersistStats{Enabled: true, Err: "disk full"}
		}, baseLine + " persist[records=0 journal=0B ckpts=0 ckptBytes=0 ckptMs=0 replayed=0] persist-error=disk full"},
		{"everything", func(s *Stats) {
			s.Faults = fault.Stats{Injected: 3, Transient: 2, Permanent: 1}
			s.HWFaults = 2
			s.Evictions = 1
			s.Remote = "127.0.0.1:9925"
			s.Xport = transport.Stats{RoundTrips: 10, BytesOut: 100, BytesIn: 200, Drops: 1, Retries: 2}
			s.Supervise = supervise.Stats{Enabled: true, State: "closed",
				Probes: 50, ProbeFailures: 4, Trips: 1, Failovers: 1, Rehosts: 1}
			s.Persist = PersistStats{Enabled: true, Records: 12, JournalBytes: 3456,
				Checkpoints: 2, CheckpointBytes: 789, CheckpointNs: 5_000_000, ReplayedRecords: 3}
		}, baseLine +
			" faults[injected=3 transient=2 permanent=1 hw=2 evictions=1]" +
			" remote[127.0.0.1:9925 roundtrips=10 out=100B in=200B drops=1 retries=2]" +
			" supervise[state=closed probes=50 fails=4 trips=1 failovers=1 rehosts=1]" +
			" persist[records=12 journal=3456B ckpts=2 ckptBytes=789 ckptMs=5 replayed=3]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := base
			tc.mutate(&st)
			if got := st.Summary(); got != tc.want {
				t.Errorf("Summary mismatch:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}
