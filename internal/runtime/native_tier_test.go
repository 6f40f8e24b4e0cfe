package runtime

import (
	"testing"

	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/toolchain"
	"cascade/internal/vclock"
)

func userTier(st Stats) string {
	for _, e := range st.Engines {
		if e.Tier != "" {
			return e.Tier
		}
	}
	return ""
}

// TestNativeTierLadder walks the promotion ladder end to end on real
// toolchain latencies: the program starts on the interpreter, the
// native tier replaces it within virtual milliseconds (three orders of
// magnitude before the fabric flow), and the bitstream later takes over
// from the native engine. The LED animation must survive every rung.
func TestNativeTierLadder(t *testing.T) {
	dev := fpga.NewCycloneV()
	view := &BufView{Quiet: true}
	r := newTestRuntime(t, Options{
		View:      view,
		Device:    dev,
		Toolchain: toolchain.New(dev, toolchain.DefaultOptions()), // real latencies
		Features:  Features{NativeTier: true},
	})
	r.MustEval(figure3)

	st := r.Stats()
	if got := userTier(st); got != "interpreter" {
		t.Fatalf("fresh program should run on the interpreter, got %q", got)
	}
	if st.PendingNative != 1 {
		t.Fatalf("native compile not submitted: pendingNative=%d", st.PendingNative)
	}

	// One virtual second covers the native compile (~0.5s for this tiny
	// design) but is nowhere near the fabric flow (~1 virtual minute).
	r.Idle(1 * vclock.S)
	st = r.Stats()
	if got := userTier(st); got != "native" {
		t.Fatalf("after 1 virtual second the native tier should hold the engine, got %q (pendingNative=%d)",
			got, st.PendingNative)
	}
	if st.Phase == PhaseHardware || st.Phase == PhaseOpenLoop {
		t.Fatalf("native promotion must not advance the JIT phase, got %v", st.Phase)
	}
	// The program still runs correctly on the native rung.
	seq := ledSequence(r, 8)
	expectAnimation(t, seq, 2)

	// Fast-forward past the fabric compile: the bitstream takes over
	// from the native engine.
	r.Idle(30 * 60 * vclock.S)
	st = r.Stats()
	if got := userTier(st); got != "" && got != "fabric" {
		t.Fatalf("fabric should take over from the native tier, still on %q (phase %v)", got, st.Phase)
	}
	if st.Phase != PhaseHardware && st.Phase != PhaseForwarded && st.Phase != PhaseOpenLoop {
		t.Fatalf("JIT never reached hardware: phase %v", st.Phase)
	}
	// The hardware engine inherited the native tier's state and keeps
	// executing. (Per-tick LED sampling aliases under open-loop bursts,
	// so assert forward progress rather than the animation.)
	before := r.Ticks()
	r.RunTicks(4)
	if r.Ticks() <= before {
		t.Fatalf("no forward progress after the fabric swap: ticks %d -> %d", before, r.Ticks())
	}
}

// TestNativeTierDemotion seeds a region fault against the native code
// cache: the engine demotes back to the interpreter between steps, the
// native compile is resubmitted (a tier-cache hit), and the program's
// observables never notice.
func TestNativeTierDemotion(t *testing.T) {
	dev := fpga.NewCycloneV()
	view := &BufView{Quiet: true}
	opts := toolchain.DefaultOptions()
	// Keep the fabric out of the picture: this test isolates the
	// native <-> interpreter cycle.
	opts.BasePs = 100_000 * vclock.S // far beyond the test horizon
	r := newTestRuntime(t, Options{
		View:      view,
		Device:    dev,
		Toolchain: toolchain.New(dev, opts),
		Features:  Features{NativeTier: true},
		Injector:  fault.New(fault.Config{Seed: 7, RegionFault: 1, MaxRegionFaults: 1}),
	})
	r.MustEval(figure3)
	r.Idle(1 * vclock.S)
	if got := userTier(r.Stats()); got != "native" {
		t.Fatalf("engine should be native before the fault, got %q", got)
	}
	// The first native step trips the region fault; the demotion runs
	// between steps and the animation stays intact.
	seq := ledSequence(r, 12)
	expectAnimation(t, seq, 2)
	st := r.Stats()
	if st.NativeFaults < 1 || st.Demotions < 1 {
		t.Fatalf("seeded native fault did not demote: faults=%d demotions=%d", st.NativeFaults, st.Demotions)
	}
	// MaxRegionFaults=1: the resubmitted native compile re-promotes and
	// stays healthy this time.
	r.Idle(1 * vclock.S)
	if got := userTier(r.Stats()); got != "native" {
		t.Fatalf("engine should re-promote to native after the demotion, got %q", got)
	}
	seq = ledSequence(r, 8)
	expectAnimation(t, seq, seq[0])
}
