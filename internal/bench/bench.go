// Package bench regenerates every table and figure of the paper's
// evaluation (§6). Each experiment runs the real system — parser, IR,
// engines, scheduler, JIT — on the real workloads, measures steady-state
// virtual-clock rates by execution, and extends the deterministic rates
// across the paper's 900-second timelines analytically (measure-then-
// extrapolate, the same thing a frequency counter does; see
// EXPERIMENTS.md for the methodology note).
package bench

import (
	"fmt"
	"strings"

	"cascade/internal/elab"
	"cascade/internal/fpga"
	"cascade/internal/metrics"
	"cascade/internal/runtime"
	"cascade/internal/stdlib"
	"cascade/internal/toolchain"
	"cascade/internal/userstudy"
	"cascade/internal/vclock"
	"cascade/internal/workloads/ledswitch"
	"cascade/internal/workloads/pow"
	"cascade/internal/workloads/regexgen"
)

// Point is one sample of a time series.
type Point struct {
	TSec float64
	Y    float64
}

// Series is one labelled curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// measureRate runs n ticks and returns the virtual tick rate in Hz.
func measureRate(r *runtime.Runtime, n uint64) float64 {
	t0, k0 := r.VirtualNow(), r.Ticks()
	r.RunTicks(n)
	dt := float64(r.VirtualNow()-t0) / float64(vclock.S)
	if dt <= 0 {
		return 0
	}
	return float64(r.Ticks()-k0) / dt
}

// powProgram is the Figure 11 benchmark program: the miner driven by the
// global clock.
func powProgram() string {
	cfg := pow.DefaultConfig()
	cfg.Target = 0 // run forever; the figure measures throughput
	return pow.Generate(cfg) + `
wire [31:0] pow_hashes, pow_nonce, pow_hash0, pow_sol;
wire pow_found;
Pow miner(.clk(clk.val), .hashes(pow_hashes), .nonce(pow_nonce),
          .found(pow_found), .hash0(pow_hash0), .solution(pow_sol));
`
}

// Fig11 holds the proof-of-work benchmark results.
type Fig11 struct {
	Series []Series

	StartupSec        float64 // Cascade time-to-first-instruction
	IVerilogHz        float64 // interpreted baseline steady rate
	CascadeSimHz      float64 // Cascade software-phase rate
	CascadeOpenLoopHz float64
	NativeHz          float64
	QuartusCompileSec float64 // native flow latency
	CascadeCompileSec float64 // background (wrapped) flow latency
	SimSpeedup        float64 // CascadeSimHz / IVerilogHz (paper: 2.4x)
	OpenLoopGap       float64 // NativeHz / CascadeOpenLoopHz (paper: 2.9x)
	SpatialOverhead   float64 // wrapped/native area (paper: 2.9x)

	// Stats is the Cascade runtime's final status snapshot (phase,
	// virtual-time breakdown, compile-cache counters) — the same struct
	// the REPL's :stats line prints.
	Stats runtime.Stats
}

// RunFig11 regenerates Figure 11.
func RunFig11() (*Fig11, error) {
	prog := powProgram()
	out := &Fig11{}

	// iVerilog baseline: eager interpretation, no JIT.
	iv := runtime.New(runtime.Options{Features: runtime.Features{DisableJIT: true, EagerSim: true}})
	if err := iv.Eval(runtime.DefaultPrelude); err != nil {
		return nil, err
	}
	if err := iv.Eval(prog); err != nil {
		return nil, err
	}
	out.IVerilogHz = measureRate(iv, 400)

	// Cascade: measure the software phase, let the background compile
	// finish, then measure open loop.
	cas := runtime.New(runtime.Options{OpenLoopTargetPs: 200 * vclock.Us})
	if err := cas.Eval(runtime.DefaultPrelude); err != nil {
		return nil, err
	}
	if err := cas.Eval(prog); err != nil {
		return nil, err
	}
	out.StartupSec = float64(cas.StartupPs()) / float64(vclock.S)
	out.CascadeSimHz = measureRate(cas, 400)
	readyAt, pending := cas.CompileReadyAt()
	if !pending {
		return nil, fmt.Errorf("fig11: no background compilation in flight")
	}
	out.CascadeCompileSec = float64(readyAt) / float64(vclock.S)
	if cas.VirtualNow() < readyAt {
		cas.Idle(readyAt - cas.VirtualNow() + 1)
	}
	if !cas.WaitForPhase(runtime.PhaseOpenLoop, 50_000) {
		return nil, fmt.Errorf("fig11: cascade never reached open loop (phase %v)", cas.Phase())
	}
	cas.Step() // stabilize the adaptive burst size
	out.CascadeOpenLoopHz = measureRate(cas, 40_000)
	out.Stats = cas.Stats()

	// Quartus baseline: native compile latency of the exact source,
	// then full fabric speed.
	dev := fpga.NewCycloneV()
	tc := toolchain.New(dev, toolchain.DefaultOptions())
	flat, err := elabMain(prog)
	if err != nil {
		return nil, err
	}
	nres := tc.CompileSync(flat, false)
	if nres.Err != nil {
		return nil, fmt.Errorf("fig11: native compile: %w", nres.Err)
	}
	out.QuartusCompileSec = float64(nres.DurationPs) / float64(vclock.S)
	out.NativeHz = float64(dev.ClockHz())

	wres := tc.CompileSync(flat, true)
	if wres.Err != nil {
		return nil, fmt.Errorf("fig11: wrapped compile: %w", wres.Err)
	}
	out.SpatialOverhead = float64(wres.AreaLEs) / float64(nres.RawAreaLEs)
	out.SimSpeedup = out.CascadeSimHz / out.IVerilogHz
	out.OpenLoopGap = out.NativeHz / out.CascadeOpenLoopHz

	// Assemble the 900-second timeline.
	horizon := 900.0
	out.Series = []Series{
		{Name: "iVerilog", Points: []Point{
			{0.5, out.IVerilogHz}, {horizon, out.IVerilogHz},
		}},
		{Name: "Quartus", Points: []Point{
			{out.QuartusCompileSec, out.NativeHz}, {horizon, out.NativeHz},
		}},
		{Name: "Cascade", Points: []Point{
			{out.StartupSec, out.CascadeSimHz},
			{out.CascadeCompileSec, out.CascadeSimHz},
			{out.CascadeCompileSec + 1, out.CascadeOpenLoopHz},
			{horizon, out.CascadeOpenLoopHz},
		}},
	}
	return out, nil
}

// Tier holds the native-tier trajectory: the PoW miner's virtual tick
// rate on each rung of the extended JIT ladder (interpreter -> native
// closure-threaded Go -> fabric open loop) and the virtual times at
// which the promotions land.
type Tier struct {
	Series []Series

	StartupSec     float64
	InterpHz       float64 // interpreter rate before the native swap
	NativeHz       float64 // native-tier rate before the fabric arrives
	OpenLoopHz     float64 // steady state once the bitstream takes over
	NativeReadySec float64 // virtual time of the sw -> native swap
	FabricReadySec float64 // virtual time the fabric flow completes
	NativeSpeedup  float64 // NativeHz / InterpHz
	Stats          runtime.Stats
}

// tierOf returns the user engine's execution rung from a runtime
// snapshot ("" before the first engine is scheduled).
func tierOf(st runtime.Stats) string {
	for _, e := range st.Engines {
		if e.Tier != "" {
			return e.Tier
		}
	}
	return ""
}

// RunTier regenerates the native-tier trajectory experiment: Figure 11's
// ladder with the middle rung switched on (WithNativeTier).
func RunTier() (*Tier, error) {
	prog := powProgram()
	out := &Tier{}
	cas := runtime.New(runtime.Options{
		OpenLoopTargetPs: 200 * vclock.Us,
		Features:         runtime.Features{NativeTier: true},
	})
	if err := cas.Eval(runtime.DefaultPrelude); err != nil {
		return nil, err
	}
	if err := cas.Eval(prog); err != nil {
		return nil, err
	}
	out.StartupSec = float64(cas.StartupPs()) / float64(vclock.S)
	if got := tierOf(cas.Stats()); got != "interpreter" {
		return nil, fmt.Errorf("tier: program should start on the interpreter, got %q", got)
	}
	out.InterpHz = measureRate(cas, 400)

	// Step until the native compile lands (virtual milliseconds away).
	promoted := false
	for i := 0; i < 10_000; i++ {
		if tierOf(cas.Stats()) == "native" {
			promoted = true
			break
		}
		cas.RunTicks(25)
	}
	if !promoted {
		return nil, fmt.Errorf("tier: native promotion never happened (phase %v)", cas.Phase())
	}
	out.NativeReadySec = float64(cas.VirtualNow()) / float64(vclock.S)
	out.NativeHz = measureRate(cas, 4000)
	out.NativeSpeedup = out.NativeHz / out.InterpHz

	// The fabric flow is still in flight; fast-forward to it.
	readyAt, pending := cas.CompileReadyAt()
	if !pending {
		return nil, fmt.Errorf("tier: no fabric compilation in flight")
	}
	out.FabricReadySec = float64(readyAt) / float64(vclock.S)
	if cas.VirtualNow() < readyAt {
		cas.Idle(readyAt - cas.VirtualNow() + 1)
	}
	if !cas.WaitForPhase(runtime.PhaseOpenLoop, 50_000) {
		return nil, fmt.Errorf("tier: cascade never reached open loop (phase %v)", cas.Phase())
	}
	cas.Step()
	out.OpenLoopHz = measureRate(cas, 40_000)
	out.Stats = cas.Stats()

	horizon := 900.0
	out.Series = []Series{
		{Name: "Cascade+native-tier", Points: []Point{
			{out.StartupSec, out.InterpHz},
			{out.NativeReadySec, out.InterpHz},
			{out.NativeReadySec + 0.01, out.NativeHz},
			{out.FabricReadySec, out.NativeHz},
			{out.FabricReadySec + 1, out.OpenLoopHz},
			{horizon, out.OpenLoopHz},
		}},
	}
	return out, nil
}

// elabMain elaborates the inlined root module of a program on the default
// board (the design the toolchain baselines compile).
func elabMain(src string) (*elab.Flat, error) {
	return runtime.ElaborateInlined(runtime.DefaultPrelude + "\n" + src)
}

// Fig12 holds the regex streaming benchmark results.
type Fig12 struct {
	Series []Series

	Pattern           string
	DFAStates         int
	CascadeSimIOs     float64
	CascadeOpenIOs    float64
	QuartusIOs        float64
	QuartusCompileSec float64
	SpatialOverhead   float64 // paper: 6.5x
}

// Fig12Pattern is the Snort-style pattern used by the benchmark.
const Fig12Pattern = `GET /[a-z]*\.html`

// RunFig12 regenerates Figure 12: IO operations (bytes consumed) per
// second against time, Cascade versus the native flow.
func RunFig12() (*Fig12, error) {
	prog, dfa, err := regexgen.GenerateStreaming(Fig12Pattern)
	if err != nil {
		return nil, err
	}
	out := &Fig12{Pattern: Fig12Pattern, DFAStates: dfa.States()}

	feed := func(r *runtime.Runtime) *stdlib.Stream {
		s := r.World().Stream("main.fifo")
		return s
	}
	// measureIOs runs n ticks keeping the FIFO fed and returns IO/s.
	measureIOs := func(r *runtime.Runtime, n uint64) float64 {
		stream := feed(r)
		t0 := r.VirtualNow()
		c0 := stream.Consumed
		remaining := n
		for remaining > 0 {
			if stream.PendingIn() < 4096 {
				stream.PushBytes(make([]byte, 65536))
			}
			chunk := remaining
			if chunk > 2000 {
				chunk = 2000
			}
			r.RunTicks(chunk)
			remaining -= chunk
		}
		dt := float64(r.VirtualNow()-t0) / float64(vclock.S)
		if dt <= 0 {
			return 0
		}
		return float64(stream.Consumed-c0) / dt
	}

	cas := runtime.New(runtime.Options{OpenLoopTargetPs: 200 * vclock.Us})
	if err := cas.Eval(runtime.DefaultPrelude); err != nil {
		return nil, err
	}
	if err := cas.Eval(prog); err != nil {
		return nil, err
	}
	feed(cas).PushBytes(make([]byte, 65536))
	out.CascadeSimIOs = measureIOs(cas, 300)
	readyAt, pending := cas.CompileReadyAt()
	if !pending {
		return nil, fmt.Errorf("fig12: no background compilation in flight")
	}
	if cas.VirtualNow() < readyAt {
		cas.Idle(readyAt - cas.VirtualNow() + 1)
	}
	if !cas.WaitForPhase(runtime.PhaseOpenLoop, 50_000) {
		return nil, fmt.Errorf("fig12: cascade never reached open loop (phase %v)", cas.Phase())
	}
	cas.Step()
	out.CascadeOpenIOs = measureIOs(cas, 30_000)

	// Quartus baseline: native compile of the same program; at runtime
	// the benchmark is bus-bound (one byte per transaction), so the
	// native IO rate is the bridge rate.
	flat, err := elabMain(prog)
	if err != nil {
		return nil, err
	}
	dev := fpga.NewCycloneV()
	tc := toolchain.New(dev, toolchain.DefaultOptions())
	nres := tc.CompileSync(flat, false)
	if nres.Err != nil {
		return nil, fmt.Errorf("fig12: native compile: %w", nres.Err)
	}
	out.QuartusCompileSec = float64(nres.DurationPs) / float64(vclock.S)
	model := vclock.DefaultModel()
	out.QuartusIOs = float64(vclock.S) / float64(model.MsgPs)

	wres := tc.CompileSync(flat, true)
	if wres.Err != nil {
		return nil, fmt.Errorf("fig12: wrapped compile: %w", wres.Err)
	}
	out.SpatialOverhead = float64(wres.AreaLEs) / float64(nres.RawAreaLEs)

	horizon := 900.0
	compiledAt := float64(readyAt) / float64(vclock.S)
	out.Series = []Series{
		{Name: "Quartus", Points: []Point{
			{out.QuartusCompileSec, out.QuartusIOs}, {horizon, out.QuartusIOs},
		}},
		{Name: "Cascade", Points: []Point{
			{0.5, out.CascadeSimIOs},
			{compiledAt, out.CascadeSimIOs},
			{compiledAt + 1, out.CascadeOpenIOs},
			{horizon, out.CascadeOpenIOs},
		}},
	}
	return out, nil
}

// Fig13 holds the user-study results.
type Fig13 struct {
	Rows    []string
	Summary userstudy.Summary
	// Compile latencies measured on the real starter program.
	QuartusCompileSec float64
	CascadeStartupSec float64
}

// RunFig13 regenerates Figure 13, deriving the two environments' compile
// latencies from the real pipeline on the real starter program.
func RunFig13() (*Fig13, error) {
	// The starter program is the 50-line running example.
	flat, err := elabMain(ledswitch.Figure3)
	if err != nil {
		return nil, err
	}
	dev := fpga.NewCycloneV()
	tc := toolchain.New(dev, toolchain.DefaultOptions())
	nres := tc.CompileSync(flat, false)
	if nres.Err != nil {
		return nil, err
	}
	quartusSec := float64(nres.DurationPs) / float64(vclock.S)

	// Cascade's per-build latency is its startup time.
	cas := runtime.New(runtime.Options{})
	if err := cas.Eval(runtime.DefaultPrelude); err != nil {
		return nil, err
	}
	if err := cas.Eval(ledswitch.Figure3); err != nil {
		return nil, err
	}
	cascadeSec := float64(cas.StartupPs()) / float64(vclock.S)
	if cascadeSec < 0.9 {
		cascadeSec = 0.9 // perceived floor: the sub-second REPL turnaround
	}

	cfg := userstudy.DefaultConfig()
	cfg.QuartusCompileMin = quartusSec / 60
	cfg.CascadeCompileMin = cascadeSec / 60
	results := userstudy.Run(cfg)
	return &Fig13{
		Rows:              userstudy.Rows(results),
		Summary:           userstudy.Summarize(results),
		QuartusCompileSec: quartusSec,
		CascadeStartupSec: cascadeSec,
	}, nil
}

// Table1 regenerates the class-study statistics.
func Table1() (metrics.Aggregate, error) {
	subs := userstudy.GenerateClass(userstudy.DefaultClassConfig())
	var reports []metrics.Report
	for _, s := range subs {
		rep, err := metrics.Analyze(s.Source)
		if err != nil {
			return metrics.Aggregate{}, fmt.Errorf("student %d: %w", s.ID, err)
		}
		rep.Builds = s.Builds
		reports = append(reports, rep)
	}
	return metrics.Summarize(reports), nil
}

// FormatSeries renders series as aligned text rows.
func FormatSeries(series []Series, yLabel string) string {
	var sb strings.Builder
	for _, s := range series {
		fmt.Fprintf(&sb, "# %s (%s)\n", s.Name, yLabel)
		for _, p := range s.Points {
			fmt.Fprintf(&sb, "%10.1f  %14.1f\n", p.TSec, p.Y)
		}
	}
	return sb.String()
}
