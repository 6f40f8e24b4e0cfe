package runtime

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"cascade/internal/fault"
	"cascade/internal/lifecycle"
	"cascade/internal/obsv"
	"cascade/internal/transport"
	"cascade/internal/vgen"
)

// TestMetricsReadTheBooks: every counted event has one increment site, so
// a runtime's /metrics reads the figures its Stats read. One row per book:
// each runs a short session that moves the book's counters and checks each
// series against its figure, which must not be zero. A figure named other
// than a series (the cache row's two kinds of hit) is checked non-zero only.
func TestMetricsReadTheBooks(t *testing.T) {
	flat := Features{DisableInline: true}
	faults := schedule{faults: fault.Config{Seed: 1, CompileTransient: 1, MaxCompileFaults: 2,
		RegionFault: 1, MaxRegionFaults: 1, BusError: 1, MaxBusFaults: 1}}
	for _, tc := range []struct {
		name  string
		a     arm
		sched schedule
		s     vgen.Script
		books func(r *Runtime, st Stats) map[string]uint64
	}{
		{"supervision", arm{feats: Features{DisableInline: true, NativeTier: true}, hosted: true, journal: true, supervise: true, finish: true},
			schedule{outages: 2, faults: fault.Config{Seed: 1777}}, finite[0],
			func(_ *Runtime, st Stats) map[string]uint64 {
				return map[string]uint64{
					"cascade_supervise_probes_total":         st.Supervise.Probes,
					"cascade_supervise_probe_failures_total": st.Supervise.ProbeFailures,
					"cascade_supervise_breaker_trips_total":  st.Supervise.Trips,
				}
			}},
		{"faults", arm{feats: flat}, faults, finite[0], func(_ *Runtime, st Stats) map[string]uint64 {
			return map[string]uint64{"cascade_faults_injected_total": st.Faults.Injected}
		}},
		{"checkpoints", arm{feats: flat, durable: true}, schedule{}, finite[0], func(_ *Runtime, st Stats) map[string]uint64 {
			return map[string]uint64{"cascade_checkpoints_total": uint64(st.Persist.Checkpoints)}
		}},
		{"tcp", arm{feats: Features{DisableInline: true, DisableJIT: true}, hosted: true, retries: 3},
			schedule{faults: fault.Config{Seed: 11, NetDrop: 1, MaxNetFaults: 3}}, finite[0],
			func(_ *Runtime, st Stats) map[string]uint64 {
				return map[string]uint64{
					"cascade_transport_drops_total":   st.Xport.Drops,
					"cascade_transport_retries_total": st.Xport.Retries,
				}
			}},
		{"cache", arm{feats: flat, scale: 1e4}, schedule{}, rejoin, func(_ *Runtime, st Stats) map[string]uint64 {
			return map[string]uint64{
				"cascade_compile_cache_hits_total":   uint64(st.Compile.CacheHits + st.Compile.Joined),
				"cascade_compile_cache_misses_total": uint64(st.Compile.CacheMisses),
				"memory hits":                        uint64(st.Compile.CacheHits),
				"joined flows":                       uint64(st.Compile.Joined),
			}
		}},
		// The daemon promotes the engines it hosts too: those moves are
		// its books, not the runtime's.
		{"moves", arm{feats: Features{DisableInline: true, NativeTier: true}, hosted: true, daemonJIT: true, journal: true, supervise: true, finish: true},
			schedule{outages: 2, faults: fault.Config{Seed: 1777, RegionFault: 1, MaxRegionFaults: 2, BusError: 1, MaxBusFaults: 1}}, finite[0],
			func(r *Runtime, st Stats) map[string]uint64 {
				promoted := 0
				for _, to := range r.moves[lifecycle.JobLanded] {
					for _, n := range to {
						promoted += n
					}
				}
				return map[string]uint64{
					"cascade_promotions_total":          uint64(promoted),
					"cascade_evictions_total":           uint64(st.Evictions + st.Demotions),
					"cascade_supervise_failovers_total": st.Supervise.Failovers,
					"cascade_supervise_rehosts_total":   st.Supervise.Rehosts,
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, _, d, kills, stop, err := tc.a.start(t, tc.sched)
			defer stop()
			if err == nil {
				err = tc.a.drive(r, d, kills, tc.sched, tc.s, &observed{})
			}
			if err != nil {
				t.Fatal(err)
			}
			metrics := r.Observer().MetricsText()
			for series, want := range tc.books(r, r.Stats()) {
				if want == 0 {
					t.Errorf("the session never moved %s", series)
				}
				if line := fmt.Sprintf("\n%s %d\n", series, want); strings.HasPrefix(series, "cascade_") && !strings.Contains(metrics, line) {
					t.Errorf("/metrics disagrees with Stats: want %q", strings.TrimSpace(line))
				}
			}
		})
	}
}

// rejoin evaluates a fragment while the fabric compiles its first
// version: the unchanged module's resubmitted flow joins the one in flight.
var rejoin = vgen.Script{Name: "rejoin", Steps: []vgen.Step{
	{Pad: -1, Ticks: 4, Src: twoModules},
	{Pad: -1, Ticks: 400, Src: "wire [3:0] rejoined = 4'd1;"},
	{Pad: -1, Ticks: 4, Src: "wire [3:0] hit = 4'd2;"},
}}

// TestSharedObserverCountsDaemonMovesOnce: a move is counted by the owner
// that made it. A runtime and the daemon hosting its engines may share one
// observer; the daemon's promotions are then counted by the daemon alone —
// the runtime only traces the location flips its replies show.
func TestSharedObserverCountsDaemonMovesOnce(t *testing.T) {
	obs := obsv.New(obsv.Options{})
	dev := roomy()
	host := transport.NewHost(transport.HostOptions{Device: dev, Toolchain: fastToolchain(dev), Observer: obs})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go host.ServeListener(l)
	r := newTestRuntime(t, Options{Observer: obs, Features: Features{DisableInline: true},
		Remote: &RemoteOptions{Addr: l.Addr().String(), DialTimeout: time.Second, CallTimeout: time.Second}})
	defer r.CloseRemote()
	r.MustEval(twoModules)
	hosted := func() (n, inHardware int) {
		for _, e := range r.Stats().Engines {
			if e.Transport == "tcp" {
				n++
				if e.Location == "hardware" {
					inHardware++
				}
			}
		}
		return n, inHardware
	}
	for i := 0; i < 20000; i++ {
		if n, hw := hosted(); n == 2 && hw == 2 {
			break
		}
		r.RunTicks(1)
	}
	if n, hw := hosted(); n != 2 || hw != 2 {
		t.Fatalf("%d of %d hosted engines reached the daemon's fabric, want 2 of 2", hw, n)
	}
	if got := obs.Promotions.Value(); got != 2 {
		t.Errorf("cascade_promotions_total = %d, want 2: each daemon promotion counted once", got)
	}
}
