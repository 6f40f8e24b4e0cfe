package main

import (
	"fmt"
	goruntime "runtime"
	"syscall"
	"time"

	"cascade/internal/obsv"
	"cascade/internal/runtime"
)

// scratchDir holds the directories workloads create (journals, bitstream
// stores). It is relative to the benchmark's own directory, where the
// command runs, and is listed in .gitignore.
const scratchDir = "out/tmp"

// rung is the execution tier a scheduler step ran on.
type rung int

const (
	rungInterp rung = iota
	rungNative
	rungHW // lock-step on the fabric model (forwarded or not)
	rungOpenLoop
	nRungs
)

var rungNames = [nRungs]string{"interp", "native", "hw", "openloop"}

// rungOf classifies where the user engines execute right now: the
// slowest tier any of them is on (a remote engine reports only software
// or hardware).
func rungOf(st *runtime.Stats) rung {
	if st.Phase == runtime.PhaseOpenLoop {
		return rungOpenLoop
	}
	r := rungHW
	for _, e := range st.Engines {
		switch {
		case e.Tier == "interpreter", e.Transport == "tcp" && e.Location == "software":
			return rungInterp
		case e.Tier == "native":
			r = rungNative
		}
	}
	return r
}

// rungStat accumulates the traced steps that began and ended on one rung.
type rungStat struct {
	steps uint64
	wall  time.Duration
}

// probe sits between a workload body and the runtime: every call the
// body makes goes through it, so the same body runs untraced (the probe
// only watches for the hot swap and times evals) or traced (spans,
// every step timed and classified).
type probe struct {
	tr    *tracer   // nil when untraced
	views []adopted // in adoption order

	// Eval-to-hot-swap in virtual time: the mark is the virtual clock at
	// the run's last Eval (or Restore); hwAtPs is the clock after the
	// first step that left every user engine on the fabric. The virtual
	// clock survives a crash, so recovery does not move the mark.
	markPs   uint64
	hwAtPs   uint64
	onFabric bool

	evals []float64 // wall of every Eval, ms

	// Traced runs only.
	rungs    [nRungs]rungStat
	swapWall time.Duration // steps across which the rung changed
}

// adopted pairs a runtime the body used with the view that recorded it.
type adopted struct {
	rt   *runtime.Runtime
	view *runtime.BufView
}

func (p *probe) adopt(rt *runtime.Runtime, opts runtime.Options) {
	p.views = append(p.views, adopted{rt, opts.View.(*runtime.BufView)})
}

func (p *probe) view(rt *runtime.Runtime) *runtime.BufView {
	for _, a := range p.views {
		if a.rt == rt {
			return a.view
		}
	}
	panic("benchmark: runtime was not adopted by the probe")
}

func (p *probe) output(rt *runtime.Runtime) string  { return p.view(rt).Output() }
func (p *probe) errors(rt *runtime.Runtime) []error { return p.view(rt).Errors() }

func (p *probe) mark(rt *runtime.Runtime) {
	p.markPs, p.hwAtPs, p.onFabric = rt.VirtualNow(), 0, false
}

func (p *probe) eval(rt *runtime.Runtime, src string) error {
	p.mark(rt)
	id := p.tr.begin("runtime.Eval")
	t0 := time.Now()
	err := rt.Eval(src)
	p.evals = append(p.evals, float64(time.Since(t0))/1e6)
	p.tr.end(id)
	return err
}

// run advances up to n more clock ticks, stopping early at $finish.
func (p *probe) run(rt *runtime.Runtime, n uint64) {
	p.advance(rt, rt.Ticks()+n, false)
}

// untilFabric advances until every user engine is on the fabric, for at
// most n ticks.
func (p *probe) untilFabric(rt *runtime.Runtime, n uint64) {
	p.advance(rt, rt.Ticks()+n, true)
}

// traceChunk bounds one runtime.RunTicks span.
const traceChunk = 256

func (p *probe) advance(rt *runtime.Runtime, goal uint64, stopOnFabric bool) {
	done := func() bool {
		return rt.Ticks() >= goal || rt.Finished() || (stopOnFabric && p.onFabric)
	}
	if p.tr == nil {
		for !done() {
			rt.Step()
			p.noteFabric(rt)
		}
		return
	}
	st := rt.Stats()
	before := rungOf(&st)
	for !done() {
		chunkEnd := rt.Ticks() + traceChunk
		id := p.tr.begin("runtime.RunTicks")
		for !done() && rt.Ticks() < chunkEnd {
			s0 := rt.Steps()
			t0 := time.Now()
			rt.Step()
			d := time.Since(t0)
			p.noteFabric(rt)
			st = rt.Stats()
			after := rungOf(&st)
			// The ticks of a step belong to the rung it started on; its
			// wall time does too, unless the step ended on another rung:
			// then it paid for a hot swap (or a retreat) and is kept apart.
			p.rungs[before].steps += rt.Steps() - s0
			if after == before {
				p.rungs[before].wall += d
			} else {
				p.swapWall += d
			}
			before = after
		}
		p.tr.end(id)
	}
}

func (p *probe) noteFabric(rt *runtime.Runtime) {
	if !p.onFabric && rt.Phase() >= runtime.PhaseHardware {
		p.onFabric, p.hwAtPs = true, rt.VirtualNow()
	}
}

// saveAndLoad is the REPL's :save followed by :load on the same session.
func (p *probe) saveAndLoad(rt *runtime.Runtime) error {
	id := p.tr.begin("runtime.Snapshot")
	text := runtime.EncodeSnapshot(rt.Snapshot())
	p.tr.end(id)
	id = p.tr.begin("runtime.Restore")
	defer p.tr.end(id)
	snap, err := runtime.DecodeSnapshot(text)
	if err != nil {
		return err
	}
	p.mark(rt)
	return rt.Restore(snap)
}

// reopen recovers a persisted runtime from its directory.
func (p *probe) reopen(opts runtime.Options) (*runtime.Runtime, *runtime.RecoveryInfo, error) {
	id := p.tr.begin("runtime.Open")
	rt, info, err := runtime.Open(opts)
	p.tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	p.adopt(rt, opts)
	return rt, info, nil
}

// start builds the runtime a repetition or cold start begins with.
func start(opts runtime.Options) (*runtime.Runtime, error) {
	if opts.Persist == nil {
		return runtime.New(opts), nil
	}
	rt, _, err := runtime.Open(opts)
	return rt, err
}

// repResult is everything one repetition of a workload yields.
type repResult struct {
	setup, wall time.Duration
	allocBytes  uint64 // heap bytes allocated during the timed body
	liveBytes   uint64 // heap in use after a GC at workload end, runtime reachable
	mallocs     uint64
	gcCycles    uint32
	gcPause     time.Duration
	cpu         time.Duration // user+system CPU during the timed body

	stats     runtime.Stats // at workload end
	toHwPs    uint64        // eval-to-hot-swap, virtual
	startupPs uint64        // first eval to first executable state, virtual
	durable   *persistence  // what a self-persisting workload saw (nil otherwise)
	output    string
	checks    int
	failures  []string
	probe     *probe
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runRep sets a workload up from its seed and runs its body once on a
// fresh runtime. observe attaches an observability hub (the overhead
// measurement); tr records spans when non-nil.
func runRep(w *workload, seed uint64, size float64, tr *tracer, observe bool) (*repResult, error) {
	t0 := time.Now()
	inst, err := w.prepare(seed, size)
	if err != nil {
		return nil, err
	}
	opts, release, err := inst.fresh()
	if err != nil {
		return nil, err
	}
	defer release()
	if observe {
		opts.Observer = obsv.New(obsv.Options{})
	}
	rt, err := start(opts)
	if err != nil {
		return nil, err
	}
	res := &repResult{setup: time.Since(t0), probe: &probe{tr: tr}}
	p := res.probe
	p.adopt(rt, opts)

	goruntime.GC()
	var m0, m1, m2 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	id := tr.begin("rep")
	t1 := time.Now()
	last, err := inst.body(p, rt)
	res.wall = time.Since(t1)
	tr.end(id)
	res.cpu = cpuTime() - cpu0
	goruntime.ReadMemStats(&m1)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	goruntime.GC()
	goruntime.ReadMemStats(&m2)
	res.liveBytes = m2.HeapAlloc
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.gcCycles = m1.NumGC - m0.NumGC
	res.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)

	res.stats, res.startupPs = last.Stats(), rt.StartupPs()
	if d, ok := inst.(interface{ persisted() *persistence }); ok {
		res.durable = d.persisted()
	}
	if p.onFabric {
		res.toHwPs = p.hwAtPs - p.markPs
	}
	res.checks, res.failures = inst.check(p, last)
	if !p.onFabric {
		res.failures = append(res.failures, "no step left every user engine on the fabric after the last eval")
	}
	res.checks++
	for _, a := range p.views {
		res.output += a.view.Output()
	}
	err = last.Shutdown()
	p.views = nil // the repetition's runtimes must not outlive it
	return res, err
}

// coldStart is the paper's "time to begin execution" in host time:
// runtime construction, the prelude and program evals, and the first
// completed clock tick, on state nothing has warmed.
func coldStart(inst instance) (time.Duration, error) {
	opts, release, err := inst.fresh()
	if err != nil {
		return 0, err
	}
	defer release()
	goruntime.GC() // every cold start begins from the same heap
	t0 := time.Now()
	rt, err := start(opts)
	if err != nil {
		return 0, err
	}
	if err := rt.Eval(runtime.DefaultPrelude); err != nil {
		return 0, err
	}
	if err := rt.Eval(inst.program()); err != nil {
		return 0, err
	}
	rt.RunTicks(1)
	d := time.Since(t0)
	return d, rt.Shutdown()
}
