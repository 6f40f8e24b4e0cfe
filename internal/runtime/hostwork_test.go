package runtime

import (
	"fmt"
	"io"
	"math"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"cascade/internal/golden"
	"cascade/internal/obsv"
	"cascade/internal/stdlib"
	"cascade/internal/vclock"
	"cascade/internal/workloads/regexgen"
)

// heapWork is what the heap allocated while fn ran, in objects and bytes:
// the least over reps runs, since a goroutine another test left running
// can only add to a run. Unlike testing.AllocsPerRun it keeps bytes, and
// it does not divide, so one reallocation in many runs still shows.
func heapWork(reps int, fn func(rep int)) (objs, bytes uint64) {
	var before, after goruntime.MemStats
	objs, bytes = math.MaxUint64, math.MaxUint64
	for rep := range reps {
		goruntime.ReadMemStats(&before)
		fn(rep)
		goruntime.ReadMemStats(&after)
		objs = min(objs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return objs, bytes
}

// TestStreamTickCounters is the host work of the Figure 12 regex matcher
// fed through its FIFO (the regex_stream workload's shape): heap objects
// and bytes per scheduler step in each phase the program reaches, over a
// window of 1024 steps (512 pops, eight times the FIFO's depth of 64), and
// the bytes PushBytes allocates per byte it queues.
func TestStreamTickCounters(t *testing.T) {
	const pushed = 64 << 10
	const window = 1024
	prog, _, err := regexgen.GenerateStreaming(`GET /[a-z]*\.html`)
	if err != nil {
		t.Fatal(err)
	}
	var rec strings.Builder
	feed, streams := make([]byte, pushed), make([]*stdlib.Stream, 5)
	for i := range streams {
		streams[i] = stdlib.NewWorld().Stream("s")
	}
	_, b := heapWork(len(streams), func(rep int) { streams[rep].PushBytes(feed) })
	fmt.Fprintf(&rec, "PushBytes of %d bytes: %.2f B per byte pushed\n", pushed, float64(b)/pushed)

	pinned := time.Unix(1_700_000_000, 0)
	for _, c := range []struct {
		name  string
		feats Features
		phase Phase
	}{
		{"interpreter", Features{DisableJIT: true}, PhaseInlined},
		{"lock-step hardware", Features{DisableForwarding: true}, PhaseHardware},
		{"open loop", Features{}, PhaseOpenLoop},
	} {
		r := newTestRuntime(t, Options{Features: c.feats, OpenLoopTargetPs: 10 * vclock.Us,
			Observer: obsv.New(obsv.Options{WallClock: func() time.Time { return pinned }})})
		r.MustEval(prog)
		r.World().Stream("main.fifo").PushBytes(make([]byte, pushed))
		if !r.WaitForPhase(c.phase, 100_000) {
			t.Fatalf("%s: phase %v", c.name, r.Phase())
		}
		r.RunTicks(256) // compiled units, scratch and burst sizes settle
		var steps, calls uint64
		objs, bytes := heapWork(3, func(int) {
			steps, calls = r.Steps(), 0
			for end := r.Steps() + window; r.Steps() < end; calls++ {
				r.Step()
			}
			steps = r.Steps() - steps
		})
		if r.Phase() != c.phase || r.Finished() {
			t.Fatalf("%s: left the phase (%v) inside the window", c.name, r.Phase())
		}
		fmt.Fprintf(&rec, "%-18s %5d steps in %4d Step calls: %3d objects %6d B, %.3f B per step\n",
			c.name, steps, calls, objs, bytes, float64(bytes)/float64(steps))
		if bytes != 0 {
			t.Errorf("%s: the stream's steps allocate %d B", c.name, bytes)
		}
		r.Shutdown()
	}
	golden.Check(t, "counters", rec.String())
}

// TestDurableStepCounters is the host work of a checkpoint of the miner
// (the durable_replay workload's shape), taken again and again between
// steps, for the miner alone and beside unused modules that only lengthen
// its source: the objects that building and encoding one allocates, and
// the bytes the longer source adds to them, which is none, since each
// version copies and checksums its source once. The bytes themselves are
// only logged: the race detector turns off the allocator's combining of
// small objects, and the file's write goes through the os package's
// buffer pool, which it randomly drains.
func TestDurableStepCounters(t *testing.T) {
	var pad strings.Builder
	for i := range 40 {
		fmt.Fprintf(&pad, "module Unused%d(input wire [7:0] a, output wire [7:0] b);\n  assign b = a + %d;\nendmodule\n", i, i)
	}
	var rec strings.Builder
	var encoded [2]uint64
	for i, c := range []struct{ name, extra string }{{"miner", ""}, {"miner + 40 unused modules", pad.String()}} {
		opts, _ := persistTestOptions(t.TempDir(), 1, nil)
		opts.Features.DisableJIT = true
		opts.Persist.EverySteps = 1 << 40
		r, _, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		r.MustEval(DefaultPrelude)
		r.MustEval(c.extra + minerProg())
		r.RunTicks(8)
		if err := r.Checkpoint(); err != nil { // the version's first
			t.Fatal(err)
		}
		objs, bytes := heapWork(8, func(int) {
			if err := r.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		})
		var eobjs uint64
		eobjs, encoded[i] = heapWork(8, func(int) {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.checkpointContainer(0).WriteTo(io.Discard)
		})
		t.Logf("%s: a checkpoint allocates %d objects, %d B; building and encoding it %d objects, %d B",
			c.name, objs, bytes, eobjs, encoded[i])
		fmt.Fprintf(&rec, "%-26s source %6d B: building and encoding a checkpoint allocates %3d objects\n",
			c.name, len(r.ProgramSource()), eobjs)
		r.ClosePersistence()
	}
	fmt.Fprintf(&rec, "the unused modules add %d B to building and encoding a checkpoint\n", int64(encoded[1]-encoded[0]))
	if encoded[1] != encoded[0] {
		t.Errorf("a checkpoint's bytes grow with its program's source: %d B against %d", encoded[1], encoded[0])
	}
	golden.Check(t, "counters", rec.String())
}
