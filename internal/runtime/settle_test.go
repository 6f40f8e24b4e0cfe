package runtime

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/golden"
	"cascade/internal/obsv"
	"cascade/internal/toolchain"
	"cascade/internal/vclock"
)

// settled is one scripted run of TestSettleLedgerPinned: a runtime, the
// view and trace it reports into, and — for a hosted run — its daemon.
type settled struct {
	r    *Runtime
	view *BufView
	obs  *obsv.Observer
	d    *testDaemon
}

// controllerKinds are the trace events the controller emits while it
// settles engine moves. Compile-flow events come from toolchain workers
// and probe and transport failures carry host error text, so their place
// in the ring (or their detail) is not the runtime's to pin.
var controllerKinds = map[obsv.EventKind]bool{
	obsv.EvHotSwap: true, obsv.EvEviction: true, obsv.EvRecovery: true, obsv.EvPhase: true,
	obsv.EvSpawn: true, obsv.EvBreaker: true, obsv.EvFailover: true, obsv.EvRehost: true,
}

var remoteSegment = regexp.MustCompile(` remote\[[^\]]*\]`)

// record renders everything a settled move can change: the virtual
// ledger, the status line, the controller's trace (virtual stamp, kind,
// path, detail) and the View's lines. A hosted run's wire byte counts,
// host error text and daemon address are left out.
func (s *settled) record() string {
	var sb strings.Builder
	st := s.r.Stats()
	fmt.Fprintf(&sb, "%+v\n%s\n", st.Time, remoteSegment.ReplaceAllString(st.Summary(), ""))
	for _, ev := range s.obs.Trace(0) {
		if controllerKinds[ev.Kind] || (ev.Kind == obsv.EvFault && strings.Contains(ev.Detail, "latched")) {
			fmt.Fprintf(&sb, "%d %v %s %s\n", ev.VPs, ev.Kind, ev.Path, ev.Detail)
		}
	}
	for _, in := range s.view.Infos() {
		fmt.Fprintf(&sb, "info %s\n", in)
	}
	if s.d == nil {
		for _, err := range s.view.Errors() {
			fmt.Fprintf(&sb, "error %v\n", err)
		}
		return sb.String()
	}
	return strings.ReplaceAll(sb.String(), s.d.addr, "DAEMON")
}

// newSettled builds a one-lane runtime over dev that reports into a fresh
// view and a trace with a pinned wall clock (open-loop burst sizing reads
// it), on tc or — tc nil — a toolchain that compiles near-instantly.
func newSettled(t *testing.T, dev *fpga.Device, tc *toolchain.Toolchain, opts Options) *settled {
	t.Helper()
	pinned := time.Unix(1_700_000_000, 0)
	s := &settled{view: &BufView{}, obs: obsv.New(obsv.Options{
		TraceCap: 1 << 16, WallClock: func() time.Time { return pinned }})}
	opts.View, opts.Observer, opts.Device, opts.Toolchain = s.view, s.obs, dev, tc
	opts.Parallelism, opts.OpenLoopTargetPs = 1, 10*vclock.Us
	s.r = newTestRuntime(t, opts)
	return s
}

// settleScripts visits every row of the lifecycle table and the three
// promotions that move nothing, each where the runtime meets it.
var settleScripts = []struct {
	name string
	run  func(t *testing.T) *settled
}{
	// start, sw->native, native->hw (a miss), forwarding, open loop; a
	// re-eval tears the fabric engine down and the new version climbs again.
	{"ladder", func(t *testing.T) *settled {
		dev := fpga.NewCycloneV()
		s := newSettled(t, dev, toolchain.New(dev, toolchain.DefaultOptions()),
			Options{Features: Features{NativeTier: true}})
		s.r.MustEval(figure3)
		s.r.RunTicks(2)
		s.r.Idle(vclock.S)
		s.r.RunTicks(4)
		s.r.Idle(30 * 60 * vclock.S)
		s.r.RunTicks(50)
		s.r.MustEval("wire settle_probe;")
		s.r.RunTicks(2)
		s.r.Idle(30 * 60 * vclock.S)
		s.r.RunTicks(50)
		return s
	}},
	// sw->hw, a bus fault in the first hardware step, eviction from the
	// lock-step, forwarded and open-loop phases, sw->hw again from the cache.
	{"evict-lockstep", evictFrom(Features{DisableForwarding: true})},
	{"evict-forwarded", evictFrom(Features{DisableOpenLoop: true})},
	{"evict-openloop", evictFrom(Features{})},
	// A region fault against the native code cache: native->sw, the
	// native compile resubmitted, sw->native again.
	{"native-demotion", func(t *testing.T) *settled {
		dev := fpga.NewCycloneV()
		o := toolchain.DefaultOptions()
		o.BasePs = 100_000 * vclock.S // the fabric never lands
		s := newSettled(t, dev, toolchain.New(dev, o), Options{
			Features: Features{NativeTier: true},
			Injector: fault.New(fault.Config{Seed: 7, RegionFault: 1, MaxRegionFaults: 1})})
		s.r.MustEval(figure3)
		s.r.Idle(vclock.S)
		s.r.RunTicks(12)
		s.r.Idle(vclock.S)
		s.r.RunTicks(8)
		return s
	}},
	// One admission slot for two subprograms' fabric and native compiles:
	// both tiers are shed and resubmitted until they land.
	{"shed", func(t *testing.T) *settled {
		dev := fpga.NewCycloneV()
		o := toolchain.DefaultOptions()
		o.Scale, o.BasePs, o.MaxQueue = 1e9, 1, 1
		s := newSettled(t, dev, toolchain.New(dev, o),
			Options{Features: Features{NativeTier: true, DisableInline: true}})
		s.r.MustEval(figure3)
		s.r.RunTicks(40)
		return s
	}},
	// The first placement loses its bitstream on the way to the fabric.
	{"transient", func(t *testing.T) *settled {
		s := newSettled(t, fpga.NewCycloneV(), nil, Options{
			Injector: fault.New(fault.Config{Seed: 3, RegionFault: 1, MaxRegionFaults: 1})})
		s.r.MustEval(figure3)
		s.r.RunTicks(100)
		return s
	}},
	// A device the design does not fit: reported once, software for good.
	{"no-room", func(t *testing.T) *settled {
		s := newSettled(t, fpga.NewDevice(50, 50_000_000), nil, Options{})
		s.r.MustEval(figure3)
		s.r.RunTicks(100)
		return s
	}},
	// Hosted start, the daemon killed (breaker trip, failover), restarted
	// (re-host), and a re-eval tearing the hosted engine down — without the
	// native tier, and with it (the failed-over engine climbs to native
	// and is re-hosted from there).
	{"failover", failover(Features{})},
	{"failover-native", failover(Features{NativeTier: true})},
}

func evictFrom(feats Features) func(t *testing.T) *settled {
	return func(t *testing.T) *settled {
		s := newSettled(t, fpga.NewCycloneV(), nil, Options{Features: feats,
			Injector: fault.New(fault.Config{Seed: 5, BusError: 1, MaxBusFaults: 1})})
		s.r.MustEval(figure3)
		s.r.RunTicks(200)
		return s
	}
}

func failover(feats Features) func(t *testing.T) *settled {
	return func(t *testing.T) *settled {
		d := newTestDaemon(t, filepath.Join(t.TempDir(), "host.journal"), true)
		s := newSettled(t, fpga.NewCycloneV(), nil, Options{Features: feats,
			Remote: supRemoteOptions(d.addr), Supervise: supTestOptions()})
		s.d = d
		t.Cleanup(func() { s.r.CloseRemote() })
		s.r.MustEval(supCtrProg)
		s.r.RunTicks(8)
		d.kill()
		s.r.RunTicks(8)
		d.restart()
		s.r.RunTicks(8)
		s.r.MustEval("wire settle_probe;")
		s.r.RunTicks(4)
		return s
	}
}

// TestSettleLedgerPinned: what a move costs, counts, prints and leaves
// owed, one script per record in testdata/TestSettleLedgerPinned. The
// records are the ones of the commit before engine moves were settled in
// one place (commit bc8feb2), when promote, demote, failoverRemote,
// rehostRemote and install each billed, counted and reported their own.
func TestSettleLedgerPinned(t *testing.T) {
	for _, sc := range settleScripts {
		t.Run(sc.name, func(t *testing.T) {
			s := sc.run(t)
			rec := s.record()
			s.r.Shutdown() // every engine left takes its teardown row
			golden.Check(t, sc.name, rec)
		})
	}
}
