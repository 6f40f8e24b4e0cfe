package main

import (
	"fmt"
	"os"
	goruntime "runtime"
	"time"

	"cascade/internal/vclock"
)

// metricDef declares one metric: its unit, which direction is better,
// and (end-to-end only) the share of the parent's median it may worsen
// by before a change counts as a regression. BENCHMARK.json repeats
// these tables; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// virtS is the unit of times on the virtual clock: what the paper's
// platform would have taken, as opposed to what this host took.
const virtS = "virt_s"

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"run_wall_s", "s", "lower", 0.20},
	{"first_tick_ms", "ms", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.03},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"virt_total_s", virtS, "lower", 0.01},
	{"virt_to_hw_s", virtS, "lower", 0.01},
}

var perLayer = []metricDef{
	// Front end.
	{"verilog.parse_us", "us", "lower", 0},
	{"verilog.src_kb", "KB", "lower", 0},
	{"ir.build_us", "us", "lower", 0},
	{"ir.inline_us", "us", "lower", 0},
	{"elab.elaborate_us", "us", "lower", 0},
	{"elab.vars", "count", "lower", 0},
	{"netlist.compile_us", "us", "lower", 0},
	{"netlist.cells", "count", "lower", 0},
	{"netlist.fingerprint_us", "us", "lower", 0},
	{"njit.compile_us", "us", "lower", 0},
	{"toolchain.submit_miss_us", "us", "lower", 0},
	{"toolchain.submit_hit_us", "us", "lower", 0},
	{"toolchain.cache_hit_ratio", "ratio", "higher", 0},
	{"toolchain.flows", "count", "lower", 0},
	// Evaluators.
	{"sim.tick_ns", "ns", "lower", 0},
	{"sim.allocs_per_tick", "count", "lower", 0},
	{"netlist.machine_tick_ns", "ns", "lower", 0},
	{"netlist.machine_allocs_per_tick", "count", "lower", 0},
	{"njit.tick_ns", "ns", "lower", 0},
	{"njit.allocs_per_tick", "count", "lower", 0},
	{"hweng.lockstep_tick_ns", "ns", "lower", 0},
	{"hweng.openloop_tick_ns", "ns", "lower", 0},
	{"engine.state_roundtrip_us", "us", "lower", 0},
	{"stdlib.fifo_byte_ns", "ns", "lower", 0},
	// Runtime and scheduler.
	{"runtime.step_interp_us", "us", "lower", 0},
	{"runtime.step_native_us", "us", "lower", 0},
	{"runtime.step_hw_us", "us", "lower", 0},
	{"runtime.openloop_tick_ns", "ns", "lower", 0},
	{"runtime.ticks_interp", "count", "lower", 0},
	{"runtime.ticks_native", "count", "lower", 0},
	{"runtime.ticks_hw", "count", "lower", 0},
	{"runtime.ticks_openloop", "count", "lower", 0},
	{"runtime.swap_ms", "ms", "lower", 0},
	{"runtime.sched_overhead_pct", "%", "lower", 0},
	{"runtime.evaluator_share_pct", "%", "higher", 0},
	{"runtime.eval_p50_ms", "ms", "lower", 0},
	{"runtime.eval_p95_ms", "ms", "lower", 0},
	{"runtime.eval_self_ms", "ms", "lower", 0},
	{"runtime.snapshot_us", "us", "lower", 0},
	{"runtime.snapshot_encode_us", "us", "lower", 0},
	{"runtime.snapshot_decode_us", "us", "lower", 0},
	{"runtime.restore_ms", "ms", "lower", 0},
	// Transport and protocol.
	{"transport.local_rt_ns", "ns", "lower", 0},
	{"transport.local_allocs", "count", "lower", 0},
	{"transport.tcp_rt_p50_us", "us", "lower", 0},
	{"transport.tcp_rt_p99_us", "us", "lower", 0},
	{"transport.host_handle_ns", "ns", "lower", 0},
	{"proto.encode_ns", "ns", "lower", 0},
	{"proto.decode_ns", "ns", "lower", 0},
	{"proto.bytes_per_tick", "B", "lower", 0},
	{"transport.roundtrips_per_tick", "count", "lower", 0},
	// Virtual ledger: exact, and they sum to virt_total_s.
	{"vclock.compute_s", virtS, "lower", 0},
	{"vclock.comm_s", virtS, "lower", 0},
	{"vclock.overhead_s", virtS, "lower", 0},
	{"vclock.idle_s", virtS, "lower", 0},
	{"vclock.messages", "count", "lower", 0},
	{"vclock.startup_ms", "virt_ms", "lower", 0},
	// Persistence.
	{"persist.append_us", "us", "lower", 0},
	{"persist.checkpoint_ms", "ms", "lower", 0},
	{"persist.checkpoint_kb", "KB", "lower", 0},
	{"persist.journal_kb", "KB", "lower", 0},
	{"persist.recover_ms", "ms", "lower", 0},
	{"persist.replayed_records", "count", "lower", 0},
	// Observability and the host runtime.
	{"obsv.overhead_pct", "%", "lower", 0},
	{"obsv.emit_ns", "ns", "lower", 0},
	{"go.cpu_s", "s", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"go.gc_pause_ms", "ms", "lower", 0},
	{"go.mallocs_per_tick", "count", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.raw_wall_s", "s", "lower", 0},
	{"bench.yardstick_ms", "ms", "lower", 0},
}

// sample is one reported metric, summarising n values measured within
// the run. Value is their median, except for host times (see putLow).
type sample struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]sample `json:"metrics"`
	// YardstickMs is the yardstick time that scaled this run's host times
	// (untraced runs; not part of the reported metrics).
	YardstickMs float64 `json:"yardstick_ms,omitempty"`
}

func (r *runResult) put(defs []metricDef, name string, values ...float64) {
	for _, d := range defs {
		if d.name == name {
			s := summarize(values)
			r.Metrics[name] = sample{Value: s.Median, Unit: d.unit, N: s.N, Q1: s.Q1, Median: s.Median, Q3: s.Q3}
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// putLow reports a host time: the lower quartile of the samples, in
// reference time (multiplied by the yardstick factor f). Interference
// from the sandbox's other tenants only ever adds time, so the lower
// quartile repeats from run to run where the median does not (measured:
// 3 % against 5 to 7 % between 20 s runs on a quiet machine).
func (r *runResult) putLow(name string, f float64, values ...float64) {
	r.put(endToEnd, name, values...)
	s := r.Metrics[name]
	s.Q1, s.Median, s.Q3 = s.Q1*f, s.Median*f, s.Q3*f
	s.Value = s.Q1
	r.Metrics[name] = s
}

// fail records failed checks; every check, passed or not, is counted by
// the caller in Attempted.
func (r *runResult) fail(msgs ...string) {
	r.Failed += len(msgs)
	r.Failures = append(r.Failures, msgs...)
}

func seconds(ps uint64) float64 { return float64(ps) / float64(vclock.S) }

const mb = 1 << 20

// guard is the determinism check: every repetition of a workload must
// agree exactly with the first on the virtual ledger, the output bytes
// and the tick counts. Host time leaking into virtual time fails the
// run here instead of skewing its numbers.
func (r *runResult) guard(reps []*repResult, rungs bool) {
	type ledger struct {
		now, toHw, compute, comm, overhead, idle, msgs, steps uint64
		rungs                                                 [nRungs]uint64
		output                                                string
	}
	of := func(rep *repResult) ledger {
		t := rep.stats.Time
		l := ledger{now: t.NowPs, toHw: rep.toHwPs, compute: t.ComputePs, comm: t.CommPs, overhead: t.OverheadPs,
			idle: t.IdlePs, msgs: t.Messages, steps: rep.stats.Steps, output: rep.output}
		for i := range l.rungs {
			if rungs { // only traced repetitions classify their steps
				l.rungs[i] = rep.probe.rungs[i].steps
			}
		}
		return l
	}
	for i, rep := range reps[1:] {
		r.Attempted++
		if a, b := of(reps[0]), of(rep); a != b {
			a.output, b.output = fmt.Sprint(len(a.output), " bytes"), fmt.Sprint(len(b.output), " bytes")
			r.fail(fmt.Sprintf("determinism: repetition %d diverged from repetition 0: %+v vs %+v", i+1, b, a))
		}
	}
}

// collect folds one repetition's oracle checks into the run.
func (r *runResult) collect(rep *repResult) {
	r.Attempted += rep.checks
	r.fail(rep.failures...)
}

const (
	minReps        = 3
	coldStarts     = 50 // fresh cold starts behind first_tick_ms, at least
	setups         = 60 // set-ups behind setup_s, at least
	coldPerRound   = 8
	setupsPerRound = 12 // besides the repetition's own
)

// runEndToEnd is the untraced run. It works in rounds until most of the
// time budget is spent: yardstick, one repetition of the timed body on a
// fresh runtime, yardstick, a share of the cold starts and of the extra
// set-ups. Interleaving puts every host-time metric and the yardstick
// over the same stretch of machine weather. Every end-to-end metric
// comes from here.
func runEndToEnd(w *workload, seed uint64, budget time.Duration, size float64) (*runResult, error) {
	begin := time.Now()
	res := &runResult{Workload: w.name, Seed: seed, Metrics: map[string]sample{}}
	inst, err := w.prepare(seed, size)
	if err != nil {
		return nil, err
	}
	var y yard
	var reps []*repResult
	var setup, wall, cold, alloc, live []float64
	more := func(n int, have *[]float64, unit float64, one func() (time.Duration, error)) error {
		for ; n > 0; n-- {
			d, err := one()
			if err != nil {
				return err
			}
			*have = append(*have, float64(d)/unit)
		}
		return nil
	}
	oneCold := func() (time.Duration, error) { return coldStart(inst) }
	oneSetup := func() (time.Duration, error) { return setUp(w, seed, size) }
	for len(reps) < minReps || time.Since(begin) < budget*8/10 {
		y.measure(2)
		rep, err := runRep(w, seed, size, nil, false)
		if err != nil {
			return nil, err
		}
		y.measure(2)
		reps = append(reps, rep)
		res.collect(rep)
		setup = append(setup, rep.setup.Seconds())
		wall = append(wall, rep.wall.Seconds())
		alloc = append(alloc, float64(rep.allocBytes)/mb)
		live = append(live, float64(rep.liveBytes)/mb)
		if err := more(coldPerRound, &cold, 1e6, oneCold); err != nil {
			return nil, err
		}
		if err := more(setupsPerRound, &setup, 1e9, oneSetup); err != nil {
			return nil, err
		}
	}
	res.guard(reps, false)
	// Short runs made few rounds: top the samples up.
	for len(cold) < coldStarts || len(setup) < setups {
		y.measure(1)
		if err := more(min(coldPerRound, coldStarts-len(cold)), &cold, 1e6, oneCold); err != nil {
			return nil, err
		}
		if err := more(min(setupsPerRound, setups-len(setup)), &setup, 1e9, oneSetup); err != nil {
			return nil, err
		}
	}

	first := reps[0]
	res.YardstickMs = y.low() / 1e6
	res.putLow("setup_s", y.factor(), setup...)
	res.putLow("run_wall_s", y.factor(), wall...)
	res.putLow("first_tick_ms", y.factor(), cold...)
	res.put(endToEnd, "alloc_mb", alloc...)
	res.put(endToEnd, "live_heap_mb", live...)
	res.put(endToEnd, "virt_total_s", seconds(first.stats.Time.NowPs))
	res.put(endToEnd, "virt_to_hw_s", seconds(first.toHwPs))
	res.Correct = res.Failed == 0
	return res, nil
}

// setUp times one set-up on its own: inputs, oracle, daemon or
// directories, and the runtime, everything before the first timed call.
func setUp(w *workload, seed uint64, size float64) (time.Duration, error) {
	t0 := time.Now()
	inst, err := w.prepare(seed, size)
	if err != nil {
		return 0, err
	}
	opts, release, err := inst.fresh()
	if err != nil {
		return 0, err
	}
	defer release()
	rt, err := start(opts)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	return d, rt.Shutdown()
}

// runPerLayer is the traced run: a few untraced repetitions as the
// baseline, traced repetitions with every step timed and classified, one
// repetition with the observability hub attached, then the layer
// replay. Spans go to out/ as JSON lines.
func runPerLayer(w *workload, seed uint64, budget time.Duration, size float64) (*runResult, error) {
	begin := time.Now()
	res := &runResult{Workload: w.name, Seed: seed, Trace: 1, Metrics: map[string]sample{}}
	tr := newTracer(w.name)

	var y yard
	var plain, traced []*repResult
	for len(plain) < 2 {
		y.measure(2)
		rep, err := runRep(w, seed, size, nil, false)
		if err != nil {
			return nil, err
		}
		plain = append(plain, rep)
		res.collect(rep)
	}
	y.measure(2)
	for len(traced) < 2 || time.Since(begin) < budget*6/10 {
		tr.rep = len(traced)
		rep, err := runRep(w, seed, size, tr, false)
		if err != nil {
			return nil, err
		}
		traced = append(traced, rep)
		res.collect(rep)
	}
	observed, err := runRep(w, seed, size, nil, true)
	if err != nil {
		return nil, err
	}
	res.collect(observed)
	res.guard(traced, true)
	// Tracing and observation must be invisible to the program too.
	res.guard(append([]*repResult{traced[0], observed}, plain...), false)

	inst, err := w.prepare(seed, size)
	if err != nil {
		return nil, err
	}
	lay := &layers{tr: tr, budget: budget / 200, vals: map[string]float64{}}
	tr.rep = -1
	if err := lay.replay(inst, traced[len(traced)-1].durable); err != nil {
		return nil, fmt.Errorf("%s: layer replay: %w", w.name, err)
	}

	res.layerMetrics(plain, traced, observed, lay)
	// Per-layer times are raw host time; the yardstick beside them says
	// what the machine was like.
	res.put(perLayer, "bench.yardstick_ms", y.low()/1e6)
	if err := os.MkdirAll("out", 0o755); err == nil {
		err = tr.write(fmt.Sprintf("out/trace-%s-seed%d.jsonl", w.name, seed))
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// replay runs the whole layer replay on one workload's program.
func (l *layers) replay(inst instance, seen *persistence) error {
	id := l.tr.begin("layer replay")
	defer l.tr.end(id)
	fe, err := l.replayFrontEnd(inst.program())
	if err != nil {
		return err
	}
	if err := l.replayEvaluators(fe); err != nil {
		return err
	}
	if err := l.replayTransport(fe); err != nil {
		return err
	}
	if err := l.replaySnapshot(inst.program()); err != nil {
		return err
	}
	if err := l.replayPersistence(inst.program(), seen); err != nil {
		return err
	}
	l.replayObserver()
	return nil
}

// layerMetrics assembles every per-layer metric from the repetitions and
// the layer replay.
func (r *runResult) layerMetrics(plain, traced []*repResult, observed *repResult, lay *layers) {
	for name, v := range lay.vals {
		r.put(perLayer, name, v)
	}
	pick := func(reps []*repResult, f func(*repResult) float64) []float64 {
		out := make([]float64, len(reps))
		for i, rep := range reps {
			out[i] = f(rep)
		}
		return out
	}
	wallOf := func(rep *repResult) float64 { return rep.wall.Seconds() }
	base := median(pick(plain, wallOf))

	// Steps split by rung: mean wall per step (a rising-edge step costs
	// several falling-edge ones, so a median would sit between two modes),
	// and the exact tick counts.
	var evals []float64
	for _, rep := range traced {
		evals = append(evals, rep.probe.evals...)
	}
	t0 := traced[0]
	ticks := func(i rung) float64 { return float64(t0.probe.rungs[i].steps) / 2 }
	perStep := func(i rung, scale float64) []float64 {
		return pick(traced, func(rep *repResult) float64 {
			rs := rep.probe.rungs[i]
			if rs.steps == 0 {
				return 0
			}
			return float64(rs.wall) / float64(rs.steps) / scale
		})
	}
	r.put(perLayer, "runtime.step_interp_us", perStep(rungInterp, 1e3)...)
	r.put(perLayer, "runtime.step_native_us", perStep(rungNative, 1e3)...)
	r.put(perLayer, "runtime.step_hw_us", perStep(rungHW, 1e3)...)
	r.put(perLayer, "runtime.openloop_tick_ns", perStep(rungOpenLoop, 0.5)...)
	for i := rung(0); i < nRungs; i++ {
		r.put(perLayer, "runtime.ticks_"+rungNames[i], ticks(i))
	}
	r.put(perLayer, "runtime.swap_ms", pick(traced, func(rep *repResult) float64 { return float64(rep.probe.swapWall) / 1e6 })...)

	// What the ticks would have cost on the bare evaluators, against what
	// the steps cost inside the runtime and against the whole body.
	bare := [nRungs]float64{lay.vals["sim.tick_ns"], lay.vals["njit.tick_ns"],
		lay.vals["hweng.lockstep_tick_ns"], lay.vals["hweng.openloop_tick_ns"]}
	var bareWall, stepWall float64
	for i := rung(0); i < nRungs; i++ {
		bareWall += ticks(i) * bare[i]
		stepWall += float64(t0.probe.rungs[i].wall)
	}
	r.put(perLayer, "runtime.sched_overhead_pct", 100*(stepWall-bareWall)/stepWall)
	r.put(perLayer, "runtime.evaluator_share_pct", 100*bareWall/float64(t0.wall))

	r.put(perLayer, "runtime.eval_p50_ms", evals...)
	p95 := r.Metrics["runtime.eval_p50_ms"]
	p95.Value = percentile(evals, 95)
	r.Metrics["runtime.eval_p95_ms"] = p95
	// An eval of the whole program, less the front-end calls it makes:
	// parse, build, inline, and elaboration of the flat and inlined forms.
	frontEnd := (lay.vals["verilog.parse_us"] + lay.vals["ir.build_us"] + lay.vals["ir.inline_us"] +
		2*lay.vals["elab.elaborate_us"]) / 1e3
	r.put(perLayer, "runtime.eval_self_ms", lay.evalWhole-frontEnd)

	c := t0.stats.Compile
	hitRatio := 0.0
	if n := c.CacheHits + c.Joined + c.CacheMisses; n > 0 {
		hitRatio = float64(c.CacheHits+c.Joined) / float64(n)
	}
	r.put(perLayer, "toolchain.cache_hit_ratio", hitRatio)
	r.put(perLayer, "toolchain.flows", float64(c.Synthesized))

	total := float64(t0.stats.Ticks)
	x := t0.stats.Xport
	r.put(perLayer, "proto.bytes_per_tick", float64(x.BytesOut+x.BytesIn)/total)
	r.put(perLayer, "transport.roundtrips_per_tick", float64(x.RoundTrips)/total)

	vt := t0.stats.Time
	r.put(perLayer, "vclock.compute_s", seconds(vt.ComputePs))
	r.put(perLayer, "vclock.comm_s", seconds(vt.CommPs))
	r.put(perLayer, "vclock.overhead_s", seconds(vt.OverheadPs))
	r.put(perLayer, "vclock.idle_s", seconds(vt.IdlePs))
	r.put(perLayer, "vclock.messages", float64(vt.Messages))
	r.put(perLayer, "vclock.startup_ms", float64(t0.startupPs)/float64(vclock.Ms))

	r.put(perLayer, "bench.raw_wall_s", pick(plain, wallOf)...)
	r.put(perLayer, "obsv.overhead_pct", 100*(observed.wall.Seconds()-base)/base)
	r.put(perLayer, "bench.trace_overhead_pct", 100*(median(pick(traced, wallOf))-base)/base)
	r.put(perLayer, "go.cpu_s", pick(plain, func(rep *repResult) float64 { return rep.cpu.Seconds() })...)
	r.put(perLayer, "go.gc_cycles", pick(plain, func(rep *repResult) float64 { return float64(rep.gcCycles) })...)
	r.put(perLayer, "go.gc_pause_ms", pick(plain, func(rep *repResult) float64 { return float64(rep.gcPause) / 1e6 })...)
	r.put(perLayer, "go.mallocs_per_tick", pick(plain, func(rep *repResult) float64 { return float64(rep.mallocs) / total })...)
}

// pinProcs fixes the scheduler width: one controller goroutine plus the
// toolchain's workers fit in two, and a wider host must not change what
// a run measures.
func pinProcs() int {
	n := goruntime.NumCPU()
	if n > 2 {
		n = 2
	}
	goruntime.GOMAXPROCS(n)
	return n
}
