package cascade

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// fastOptions returns options whose virtual toolchain compiles almost
// instantly, so facade tests exercise the full JIT quickly.
func fastOptions() []Option {
	dev := NewCycloneV()
	tco := DefaultToolchainOptions()
	tco.Scale = 1e9
	tco.BasePs = 1
	return []Option{
		WithDevice(dev),
		WithToolchain(NewToolchain(dev, tco)),
		WithOpenLoopTarget(10_000_000),
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	rt := New(fastOptions()...)
	if err := rt.Eval(DefaultPrelude); err != nil {
		t.Fatal(err)
	}
	if err := rt.Eval(`
        reg [7:0] cnt = 1;
        always @(posedge clk.val) cnt <= (cnt == 8'h80) ? 1 : (cnt << 1);
        assign led.val = cnt;
    `); err != nil {
		t.Fatal(err)
	}
	rt.RunTicks(1000)
	if rt.Phase() != PhaseOpenLoop {
		t.Fatalf("phase %v", rt.Phase())
	}
	if led := rt.World().Led("main.led"); led == 0 {
		t.Fatal("led never driven")
	}
	if !strings.Contains(rt.ProgramSource(), "cnt") {
		t.Fatal("program source introspection broken")
	}
	st := rt.Stats()
	if st.Phase != PhaseOpenLoop || st.Ticks == 0 || st.Time.NowPs == 0 {
		t.Fatalf("stats snapshot inconsistent: %+v", st)
	}
	if st.Compile.CacheMisses == 0 {
		t.Fatalf("JIT ran but compile stats empty: %+v", st.Compile)
	}
}

// TestOptionConformance checks that every functional option writes the
// same Options an equivalent struct literal would carry, so both
// construction paths yield identical runtimes.
func TestOptionConformance(t *testing.T) {
	world := NewWorld()
	dev := NewDevice(5000, 25_000_000)
	tc := NewToolchain(dev, DefaultToolchainOptions())
	model := TimeModel{SWEvalOpPs: 1, HWCyclePs: 2, HWCyclesPerIter: 3, MsgPs: 4, DispatchPs: 5}
	view := &BufView{Quiet: true}
	inj := NewFaultInjector(FaultConfig{Seed: 3})

	want := Options{
		World:     world,
		Device:    dev,
		Toolchain: tc,
		Model:     model,
		View:      view,
		Injector:  inj,
		Features: Features{
			DisableJIT:        true,
			EagerSim:          true,
			DisableInline:     true,
			DisableForwarding: true,
			DisableOpenLoop:   true,
			Native:            true,
		},
		Parallelism:      7,
		OpenLoopTargetPs: 123,
		Supervise:        &SuperviseOptions{ProbeIntervalPs: 5},
		Farm:             &FarmOptions{Workers: 3},
	}
	got := buildOptions([]Option{
		WithWorld(world),
		WithDevice(dev),
		WithToolchain(tc),
		WithTimeModel(model),
		WithView(view),
		DisableJIT(),
		EagerSim(),
		DisableInline(),
		DisableForwarding(),
		DisableOpenLoop(),
		Native(),
		WithParallelism(7),
		WithOpenLoopTarget(123),
		WithFaultInjector(inj),
		WithSupervision(SuperviseOptions{ProbeIntervalPs: 5}),
		WithCompileFarm(FarmOptions{Workers: 3}),
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("functional options diverge from struct literal:\n got %+v\nwant %+v", got, want)
	}
	// WithFeatures and WithOptions overlay wholesale.
	if got := buildOptions([]Option{WithFeatures(want.Features)}); got.Features != want.Features {
		t.Fatalf("WithFeatures: %+v", got.Features)
	}
	if got := buildOptions([]Option{WithOptions(want)}); !reflect.DeepEqual(got, want) {
		t.Fatalf("WithOptions: %+v", got)
	}
}

// TestFacadeOptionPermutations checks order-independence of the three
// subsystem options: WithRemoteEngine, WithPersistence, and
// WithObservability touch disjoint Options fields, so every application
// order must resolve to identical Options.
func TestFacadeOptionPermutations(t *testing.T) {
	type entry struct {
		name string
		opt  Option
	}
	entries := []entry{
		{"remote", WithRemoteEngine("127.0.0.1:9000")},
		{"persist", WithPersistence("/tmp/cascade-perm")},
		{"observe", WithObservability(ObservabilityOptions{TraceCap: 64})},
	}
	perms := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	var want Options
	for i, p := range perms {
		got := buildOptions([]Option{entries[p[0]].opt, entries[p[1]].opt, entries[p[2]].opt})
		// WithObservability builds a fresh hub per application; normalize
		// the pointer before comparing the rest.
		if got.Observer == nil {
			t.Fatalf("perm %v: observer not wired", p)
		}
		got.Observer = nil
		if got.Remote == nil || got.Remote.Addr != "127.0.0.1:9000" {
			t.Fatalf("perm %v: remote not wired: %+v", p, got.Remote)
		}
		if got.Persist == nil || got.Persist.Dir != "/tmp/cascade-perm" {
			t.Fatalf("perm %v: persistence not wired: %+v", p, got.Persist)
		}
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("perm %v resolves differently:\n got %+v\nwant %+v", p, got, want)
		}
	}
}

// TestFacadeServe drives the session API end to end through the public
// facade: a hypervisor over a shared fabric, two tenant sessions with
// private views, both reaching hardware with tenant-scoped stats.
func TestFacadeServe(t *testing.T) {
	tco := DefaultToolchainOptions()
	tco.Scale = 1e9
	tco.BasePs = 1
	hv, err := Serve(
		ServeDevice(NewDevice(40_000, 50_000_000)),
		ServeToolchainOptions(tco),
		ServeQuantum(50),
		ServeDefaultQuota(16_000),
		ServeDefaultCompileShare(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer hv.Close()

	views := [2]*BufView{{Quiet: true}, {Quiet: true}}
	for i, view := range views {
		s, err := hv.NewSession(
			SessionID(fmt.Sprintf("tenant%d", i)),
			SessionRuntime(WithParallelism(2), WithOpenLoopTarget(10_000_000)),
			SessionView(view),
		)
		if err != nil {
			t.Fatal(err)
		}
		s.MustEval(DefaultPrelude)
		s.MustEval(fmt.Sprintf(`
            reg [7:0] cnt = %d;
            always @(posedge clk.val) begin
                cnt <= cnt + 1;
                if (cnt == 8'd100) $display("tenant %d done");
            end
            assign led.val = cnt;
        `, i+1, i))
		s.RunTicks(400)
	}
	infos := hv.SessionInfos()
	if len(infos) != 2 {
		t.Fatalf("SessionInfos: %+v", infos)
	}
	for i, view := range views {
		if !strings.Contains(view.Output(), fmt.Sprintf("tenant %d done", i)) {
			t.Errorf("tenant %d output missing: %q", i, view.Output())
		}
	}
	s0 := hv.Session("tenant0")
	st := s0.Stats()
	if st.Tenant != "tenant0" || st.RegionLEs != 16_000 {
		t.Errorf("tenant stats: %q region=%d", st.Tenant, st.RegionLEs)
	}
	if err := s0.Close(); err != nil {
		t.Fatal(err)
	}
	if hv.SessionCount() != 1 {
		t.Errorf("session count after close = %d", hv.SessionCount())
	}
}

// TestFacadeFaultDegradation drives the fault injector through the
// public API: a scripted transient compile failure plus one bus error.
// The program must keep producing correct output through the retry, the
// hardware eviction, and the re-promotion.
func TestFacadeFaultDegradation(t *testing.T) {
	inj := NewFaultInjector(FaultConfig{
		Seed:             5,
		CompileTransient: 1, MaxCompileFaults: 1,
		BusError: 1, MaxBusFaults: 1,
	})
	rt := New(append(fastOptions(), WithFaultInjector(inj), DisableOpenLoop())...)
	rt.MustEval(DefaultPrelude)
	rt.MustEval(`
        reg [7:0] cnt = 1;
        always @(posedge clk.val) cnt <= cnt + 1;
        assign led.val = cnt;
    `)
	rt.RunTicks(400)
	st := rt.Stats()
	if st.Compile.Retried == 0 {
		t.Fatalf("scripted transient compile fault never retried: %+v", st.Compile)
	}
	if st.HWFaults == 0 || st.Evictions == 0 {
		t.Fatalf("scripted bus fault never evicted: %+v", st)
	}
	if st.Faults.Injected < 2 {
		t.Fatalf("injector idle: %+v", st.Faults)
	}
	// Recovered: back in hardware (forwarded; open loop disabled), with
	// the counter still correct — 400 ticks from 1, mod 256.
	if st.Phase != PhaseForwarded {
		t.Fatalf("did not re-promote after eviction: %v", st.Phase)
	}
	if led := rt.World().Led("main.led"); led != (1+400)%256 {
		t.Fatalf("led=%d after 400 ticks, want %d", led, (1+400)%256)
	}
	if !strings.Contains(st.Summary(), "evictions=1") {
		t.Fatalf("summary missing fault counters: %s", st.Summary())
	}
}

func TestFacadeREPL(t *testing.T) {
	var out strings.Builder
	r, err := NewREPL(&out, fastOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Batch(`
        reg [3:0] n = 0;
        always @(posedge clk.val) begin
            n <= n + 1;
            if (n == 9) begin $display("done %d", n); $finish; end
        end
    `, 100); err != nil {
		t.Fatal(err)
	}
	if !r.Runtime().Finished() {
		t.Fatal("batch program did not finish")
	}
	if !strings.Contains(out.String(), "done 9") {
		t.Fatalf("output: %q", out.String())
	}
}

func TestFacadeGPIO(t *testing.T) {
	rt := New(fastOptions()...)
	if err := rt.Eval(`Clock clk(); GPIO#(8) gpio();`); err != nil {
		t.Fatal(err)
	}
	if err := rt.Eval(`assign gpio.out = gpio.in + 8'd1;`); err != nil {
		t.Fatal(err)
	}
	rt.World().DriveGPIO("main.gpio", 41)
	rt.RunTicks(3)
	if got := rt.World().GPIO("main.gpio"); got != 42 {
		t.Fatalf("gpio out=%d, want 42", got)
	}
}

func TestFacadeContextCancel(t *testing.T) {
	rt := New(fastOptions()...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := rt.EvalCtx(ctx, DefaultPrelude); err == nil {
		t.Fatal("EvalCtx should refuse a cancelled context")
	}
	if err := rt.Eval(DefaultPrelude); err != nil {
		t.Fatal(err)
	}
	if err := rt.RunTicksCtx(ctx, 10); err == nil {
		t.Fatal("RunTicksCtx should stop on a cancelled context")
	}
	if rt.Ticks() != 0 {
		t.Fatalf("cancelled run still advanced: %d ticks", rt.Ticks())
	}
}

// Example demonstrates the package-level quick start.
func Example() {
	rt := New(DisableJIT())
	rt.MustEval(DefaultPrelude)
	rt.MustEval(`
        reg [7:0] cnt = 1;
        always @(posedge clk.val) cnt <= cnt + 1;
        assign led.val = cnt;
    `)
	rt.RunTicks(9)
	fmt.Printf("leds=%d engine=%v\n", rt.World().Led("main.led"), rt.Phase())
	// Output: leds=10 engine=software(inlined)
}

// TestFacadeCompileFarm drives the standard facade program through a
// sharded compile farm (WithCompileFarm) and checks the farm surface:
// the run reaches hardware exactly as a local-backend run would, Stats
// carries the farm counters, and the Summary line grows the farm[...]
// segment. It also pins the ErrShardUnavailable re-export's contract:
// matchable with errors.Is through wrapping, and distinct from
// ErrOverloaded.
func TestFacadeCompileFarm(t *testing.T) {
	opts := append(fastOptions(),
		WithCompileFarm(FarmOptions{Workers: 2}),
		DisableInline(), // separate engines => several flows to route
	)
	rt := New(opts...)
	rt.MustEval(DefaultPrelude)
	rt.MustEval(`
        reg [7:0] cnt = 1;
        always @(posedge clk.val) cnt <= cnt + 1;
        assign led.val = cnt;
    `)
	rt.RunTicks(1000)
	if rt.Phase() == PhaseSoftware {
		t.Fatalf("farm-backed run never left software: %v", rt.Phase())
	}
	st := rt.Stats()
	if st.Farm.Shards != 2 || st.Farm.Jobs == 0 || st.Farm.Routed == 0 {
		t.Fatalf("farm stats not populated: %+v", st.Farm)
	}
	if !strings.Contains(st.Summary(), " farm[shards=2") {
		t.Fatalf("summary missing farm segment: %s", st.Summary())
	}

	if ErrShardUnavailable == nil || errors.Is(ErrShardUnavailable, ErrOverloaded) {
		t.Fatal("ErrShardUnavailable must be its own sentinel")
	}
	wrapped := fmt.Errorf("toolchain: %w: all shards down", ErrShardUnavailable)
	if !errors.Is(wrapped, ErrShardUnavailable) {
		t.Fatal("ErrShardUnavailable not matchable through wrapping")
	}
}
