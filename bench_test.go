package cascade

// This file holds the testing.B harness: one benchmark per table and
// figure of the paper's evaluation (regenerating the numbers recorded in
// EXPERIMENTS.md) plus ablation benchmarks for the design choices called
// out in DESIGN.md (§4.2 inlining, §4.3 forwarding, §4.4 open loop,
// §4.5 native mode, §5.1 lazy evaluation). Rates are reported as custom
// metrics in virtual hertz; wall-clock ns/op measures the simulator
// infrastructure itself.

import (
	"fmt"
	"net"
	"os"
	"testing"

	"cascade/internal/bench"
	"cascade/internal/elab"
	"cascade/internal/engine/hweng"
	"cascade/internal/fpga"
	"cascade/internal/ir"
	"cascade/internal/netlist"
	"cascade/internal/runtime"
	"cascade/internal/stdlib"
	"cascade/internal/toolchain"
	"cascade/internal/transport"
	"cascade/internal/userstudy"
	"cascade/internal/vclock"
	"cascade/internal/verilog"
	"cascade/internal/workloads/ledswitch"
	"cascade/internal/workloads/pow"
	"cascade/internal/workloads/regexgen"
)

// fastTC returns a toolchain whose virtual latency is negligible, for
// benchmarks that measure steady-state execution rather than the JIT
// timeline. CASCADE_BITS_DIR points it at a persistent bitstream store
// shared across processes (CI reuses the build step's store in bench).
func fastTC(dev *fpga.Device) *toolchain.Toolchain {
	o := toolchain.DefaultOptions()
	o.Scale = 1e9
	o.BasePs = 1
	o.CacheDir = os.Getenv("CASCADE_BITS_DIR")
	return toolchain.New(dev, o)
}

// newRT builds a runtime, evals the prelude and program, and fails the
// benchmark on error.
func newRT(b *testing.B, opts runtime.Options, prog string) *runtime.Runtime {
	b.Helper()
	if opts.Device == nil {
		opts.Device = fpga.NewCycloneV()
		opts.Toolchain = fastTC(opts.Device)
	}
	if opts.OpenLoopTargetPs == 0 {
		opts.OpenLoopTargetPs = 200 * vclock.Us
	}
	rt := runtime.New(opts)
	if err := rt.Eval(runtime.DefaultPrelude); err != nil {
		b.Fatal(err)
	}
	if err := rt.Eval(prog); err != nil {
		b.Fatal(err)
	}
	return rt
}

// reportVirtualRate runs b.N ticks and reports the virtual clock rate.
func reportVirtualRate(b *testing.B, rt *runtime.Runtime) {
	b.Helper()
	b.ResetTimer()
	t0, k0 := rt.VirtualNow(), rt.Ticks()
	rt.RunTicks(uint64(b.N))
	b.StopTimer()
	dt := float64(rt.VirtualNow()-t0) / float64(vclock.S)
	if dt > 0 {
		b.ReportMetric(float64(rt.Ticks()-k0)/dt, "virtualHz")
	}
}

func powProg() string {
	cfg := pow.DefaultConfig()
	cfg.Target = 0
	return pow.Generate(cfg) + `
wire [31:0] hashes, nonce, hash0, sol;
wire found;
Pow miner(.clk(clk.val), .hashes(hashes), .nonce(nonce),
          .found(found), .hash0(hash0), .solution(sol));
`
}

// --- Figure 11: proof of work -------------------------------------------

func BenchmarkFig11_IVerilogBaseline(b *testing.B) {
	rt := newRT(b, runtime.Options{Features: runtime.Features{DisableJIT: true, EagerSim: true}}, powProg())
	reportVirtualRate(b, rt)
}

func BenchmarkFig11_CascadeSoftware(b *testing.B) {
	rt := newRT(b, runtime.Options{Features: runtime.Features{DisableJIT: true}}, powProg())
	reportVirtualRate(b, rt)
}

func BenchmarkFig11_CascadeOpenLoop(b *testing.B) {
	rt := newRT(b, runtime.Options{}, powProg())
	if !rt.WaitForPhase(runtime.PhaseOpenLoop, 100_000) {
		b.Fatalf("no open loop: %v", rt.Phase())
	}
	rt.Step()
	reportVirtualRate(b, rt)
}

func BenchmarkFig11_Native(b *testing.B) {
	rt := newRT(b, runtime.Options{Features: runtime.Features{Native: true}}, powProg())
	rt.RunTicks(4_000) // climb to open loop
	reportVirtualRate(b, rt)
}

// BenchmarkFig11_Timeline regenerates the whole figure per iteration.
func BenchmarkFig11_Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := bench.RunFig11()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.CascadeOpenLoopHz, "openLoopHz")
		b.ReportMetric(f.SpatialOverhead, "spatialX")
	}
}

// --- Figure 12: streaming regex ------------------------------------------

func regexProg(b *testing.B) string {
	prog, _, err := regexgen.GenerateStreaming(bench.Fig12Pattern)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

func BenchmarkFig12_StreamingSoftware(b *testing.B) {
	rt := newRT(b, runtime.Options{Features: runtime.Features{DisableJIT: true}}, regexProg(b))
	rt.World().Stream("main.fifo").PushBytes(make([]byte, 1<<20))
	reportVirtualRate(b, rt)
}

func BenchmarkFig12_StreamingOpenLoop(b *testing.B) {
	rt := newRT(b, runtime.Options{}, regexProg(b))
	rt.World().Stream("main.fifo").PushBytes(make([]byte, 1<<22))
	if !rt.WaitForPhase(runtime.PhaseOpenLoop, 100_000) {
		b.Fatalf("no open loop: %v", rt.Phase())
	}
	rt.Step()
	reportVirtualRate(b, rt)
}

func BenchmarkFig12_Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := bench.RunFig12()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.CascadeOpenIOs, "IO/s")
	}
}

// --- The fabric model on its own --------------------------------------------

// benchHWEngOpenLoop measures hweng.OpenLoop with no runtime around it:
// the inlined root on the fabric model with every stdlib component
// forwarded into it, as Runtime.forwardStdlib leaves it, run in 64-tick
// bursts. One op is one clock tick; allocs/op is the group data plane's.
func benchHWEngOpenLoop(b *testing.B, prog string, feed int) {
	mods, items, errs := verilog.ParseProgramFragment(runtime.DefaultPrelude + prog)
	if len(errs) > 0 {
		b.Fatal(errs[0])
	}
	p := ir.NewProgram()
	for _, m := range mods {
		if err := p.DeclareModule(m); err != nil {
			b.Fatal(err)
		}
	}
	p.AddRootItems(items...)
	d, err := ir.Build(p, stdlib.Registry())
	if err == nil {
		d, err = ir.Inline(d)
	}
	if err != nil {
		b.Fatal(err)
	}
	flat, err := elab.Elaborate(d.Sub(ir.RootPath).Module, ir.RootPath, nil)
	if err != nil {
		b.Fatal(err)
	}
	nl, err := netlist.Compile(flat)
	if err != nil {
		b.Fatal(err)
	}
	hw, err := hweng.New(ir.RootPath, nl, fpga.NewCycloneV(), 1, nil, false, nil)
	if err != nil {
		b.Fatal(err)
	}
	world := stdlib.NewWorld()
	for _, s := range d.StdSubs() {
		e, err := stdlib.New(s.Path, s.StdType, s.Params, world)
		if err != nil {
			b.Fatal(err)
		}
		hw.Forward(s.Path, e)
		if s.StdType == "FIFO" {
			world.Stream(s.Path).PushBytes(make([]byte, feed))
		}
	}
	local := func(sub string) string {
		if sub == ir.RootPath {
			return ""
		}
		return sub
	}
	clk := ""
	for _, w := range d.Wires {
		hw.ForwardWire(local(w.From.Sub), w.From.Port, local(w.To.Sub), w.To.Port)
		if d.Sub(w.From.Sub).StdType == "Clock" && w.To.Sub == ir.RootPath {
			clk = w.To.Port
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += 64 {
		for todo := 128; todo > 0; {
			done := hw.OpenLoop(clk, todo) // returns early on a $display
			if done == 0 {
				b.Fatal("open loop made no progress")
			}
			todo -= done
		}
	}
}

func BenchmarkHWEng_OpenLoop(b *testing.B) {
	b.Run("pow", func(b *testing.B) { benchHWEngOpenLoop(b, powProg(), 0) })
	b.Run("regexstream", func(b *testing.B) { benchHWEngOpenLoop(b, regexProg(b), b.N+64) })
}

// --- Figure 13 and Table 1 ------------------------------------------------

func BenchmarkFig13_UserStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := bench.RunFig13()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Summary.MoreBuildsPct(), "moreBuilds%")
		b.ReportMetric(f.Summary.CompileTimeRatio(), "compileRatioX")
	}
}

func BenchmarkTable1_ClassStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		agg, err := bench.Table1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(agg.Blocking.Mean, "blockingMean")
	}
}

// --- Ablations (DESIGN.md) -------------------------------------------------

// Inlining (§4.2): multi-engine lock-step hardware vs inlined hardware.
func BenchmarkAblation_InlineOff(b *testing.B) {
	rt := newRT(b, runtime.Options{Features: runtime.Features{DisableInline: true}}, ledswitch.Figure3)
	rt.RunTicks(2_000)
	reportVirtualRate(b, rt)
}

func BenchmarkAblation_InlineOn_ForwardingOff(b *testing.B) {
	// Forwarding disabled isolates the §4.3 effect: stdlib engines keep
	// costing per-iteration messages.
	rt := newRT(b, runtime.Options{Features: runtime.Features{DisableForwarding: true}}, ledswitch.Figure3)
	rt.RunTicks(2_000)
	reportVirtualRate(b, rt)
}

// Open loop (§4.4): forwarded lock-step vs open-loop bursts.
func BenchmarkAblation_OpenLoopOff(b *testing.B) {
	rt := newRT(b, runtime.Options{Features: runtime.Features{DisableOpenLoop: true}}, ledswitch.Figure3)
	rt.RunTicks(2_000)
	reportVirtualRate(b, rt)
}

func BenchmarkAblation_OpenLoopOn(b *testing.B) {
	rt := newRT(b, runtime.Options{}, ledswitch.Figure3)
	if !rt.WaitForPhase(runtime.PhaseOpenLoop, 100_000) {
		b.Fatalf("no open loop: %v", rt.Phase())
	}
	rt.Step()
	reportVirtualRate(b, rt)
}

// Lazy evaluation (§5.1): the software engine's dependency-driven
// activation vs naive re-evaluation.
func BenchmarkAblation_LazyEval(b *testing.B) {
	rt := newRT(b, runtime.Options{Features: runtime.Features{DisableJIT: true}}, powProg())
	reportVirtualRate(b, rt)
}

func BenchmarkAblation_EagerEval(b *testing.B) {
	rt := newRT(b, runtime.Options{Features: runtime.Features{DisableJIT: true, EagerSim: true}}, powProg())
	reportVirtualRate(b, rt)
}

// Open-loop burst sizing (§4.4 adaptive profiling): small vs large
// iteration budgets change the message amortization.
func BenchmarkAblation_OpenLoopBurst64us(b *testing.B) {
	rt := newRT(b, runtime.Options{OpenLoopTargetPs: 64 * vclock.Us}, ledswitch.Figure3)
	if !rt.WaitForPhase(runtime.PhaseOpenLoop, 100_000) {
		b.Fatal("no open loop")
	}
	reportVirtualRate(b, rt)
}

func BenchmarkAblation_OpenLoopBurst4ms(b *testing.B) {
	rt := newRT(b, runtime.Options{OpenLoopTargetPs: 4 * vclock.Ms}, ledswitch.Figure3)
	if !rt.WaitForPhase(runtime.PhaseOpenLoop, 100_000) {
		b.Fatal("no open loop")
	}
	reportVirtualRate(b, rt)
}

// --- End-to-end study benchmark --------------------------------------------

func BenchmarkUserStudyModel(b *testing.B) {
	cfg := userstudy.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		userstudy.Run(cfg)
	}
}

// Optimizer ablation: netlist area with and without the cleanup pass.
func BenchmarkAblation_OptimizerArea(b *testing.B) {
	cfg := pow.DefaultConfig()
	src := pow.Generate(cfg)
	for i := 0; i < b.N; i++ {
		raw, opt := compileBothPaths(b, src)
		b.ReportMetric(float64(raw.Stats.CodeOps), "rawOps")
		b.ReportMetric(float64(opt.Stats.CodeOps), "optOps")
	}
}

func compileBothPaths(b *testing.B, src string) (*netlist.Program, *netlist.Program) {
	b.Helper()
	mods, _, errs := verilog.ParseProgramFragment(src)
	if len(errs) > 0 {
		b.Fatal(errs[0])
	}
	f, err := elab.Elaborate(mods[0], "dut", nil)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := netlist.CompileRaw(f)
	if err != nil {
		b.Fatal(err)
	}
	opt, err := netlist.Compile(f)
	if err != nil {
		b.Fatal(err)
	}
	return raw, opt
}

// --- Billed lanes and compile cache ----------------------------------------

// multiMinerProg instantiates k independent proof-of-work miners; with
// inlining disabled each is its own engine, so a step's batches hold k+1
// heavy members whose bill the lanes overlap.
func multiMinerProg(k int) string {
	cfg := pow.DefaultConfig()
	cfg.Target = 0
	src := pow.Generate(cfg)
	for i := 0; i < k; i++ {
		src += fmt.Sprintf(`
wire [31:0] h%[1]d, n%[1]d, s%[1]d, x%[1]d; wire f%[1]d;
Pow m%[1]d(.clk(clk.val), .hashes(h%[1]d), .nonce(n%[1]d),
           .found(f%[1]d), .hash0(x%[1]d), .solution(s%[1]d));
`, i)
	}
	return src
}

// benchSchedulerLanes measures a multi-subprogram workload at a given
// billed width. Compare Scheduler_Serial against Scheduler_Parallel: a
// batch is billed as its makespan over the lanes, so virtualHz rises
// with lanes on any host, while ns/op stays that of the one serial loop
// (every batch runs on the controller goroutine at any width).
func benchSchedulerLanes(b *testing.B, par int) {
	rt := newRT(b, runtime.Options{
		Features:    runtime.Features{DisableJIT: true, DisableInline: true},
		Parallelism: par,
	}, multiMinerProg(6))
	reportVirtualRate(b, rt)
}

func BenchmarkScheduler_Serial(b *testing.B)   { benchSchedulerLanes(b, 1) }
func BenchmarkScheduler_Parallel(b *testing.B) { benchSchedulerLanes(b, 8) }

// BenchmarkScheduler_Remote is the lock-step loop with its user engines —
// three independent counters and the root that clocks them — hosted on
// an engine daemon (an in-process transport.Host behind a loopback
// listener): ns/op is what a tick costs when every scheduler round is a
// TCP frame, and frames/step says how many of those there are.
func BenchmarkScheduler_Remote(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go transport.NewHost(transport.HostOptions{DisableJIT: true}).ServeListener(ln)
	prog := "module Ctr(input wire c, output wire [7:0] out);\n  reg [7:0] n = 1;\n" +
		"  always @(posedge c) n <= n + 3;\n  assign out = n;\nendmodule\n" +
		"Ctr c0(.c(clk.val)); Ctr c1(.c(clk.val)); Ctr c2(.c(clk.val));\n" +
		"assign led.val = c0.out ^ c1.out ^ c2.out;\n"
	rt := newRT(b, runtime.Options{
		Features:    runtime.Features{DisableJIT: true, DisableInline: true},
		Parallelism: 2,
		Remote:      &runtime.RemoteOptions{Addr: ln.Addr().String()},
	}, prog)
	defer rt.CloseRemote()
	frames := func() (n uint64) {
		for _, e := range rt.Stats().Engines {
			if e.Transport == "tcp" {
				n += e.Xport.RoundTrips // a shared frame is booked once
			}
		}
		return n
	}
	f0, s0 := frames(), rt.Steps()
	reportVirtualRate(b, rt)
	b.ReportMetric(float64(frames()-f0)/float64(rt.Steps()-s0), "frames/step")
}
