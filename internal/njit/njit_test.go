package njit

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/engine"
	"cascade/internal/fault"
	"cascade/internal/imagetest"
	"cascade/internal/netlist"
	"cascade/internal/verilog"
	"cascade/internal/vgen"
	"cascade/internal/workloads/nw"
	"cascade/internal/workloads/pow"
	"cascade/internal/workloads/regexgen"
)

func compileProg(tb testing.TB, src string) (*netlist.Program, *elab.Flat) {
	tb.Helper()
	st, errs := verilog.ParseSourceText(src)
	if errs != nil {
		tb.Fatalf("parse: %v", errs)
	}
	f, err := elab.Elaborate(st.Modules[0], "dut", nil)
	if err != nil {
		tb.Fatalf("elaborate: %v", err)
	}
	prog, err := netlist.Compile(f)
	if err != nil {
		tb.Fatalf("compile: %v", err)
	}
	return prog, f
}

type ioSink struct {
	sb       strings.Builder
	finished bool
}

func (s *ioSink) Display(text string, newline bool) {
	s.sb.WriteString(text)
	if newline {
		s.sb.WriteString("\n")
	}
}
func (s *ioSink) Finish(code int) { s.finished = true }

// dual drives the interpreter machine and the native engine in lock
// step on the same program.
type dual struct {
	prog *netlist.Program
	f    *elab.Flat
	m    *netlist.Machine
	e    *Engine
	mOut strings.Builder
	eOut ioSink
}

func newDualNative(tb testing.TB, src string) *dual {
	tb.Helper()
	prog, f := compileProg(tb, src)
	return newDual(prog, f)
}

// newDual drives prog, synthesized from f, on both.
func newDual(prog *netlist.Program, f *elab.Flat) *dual {
	d := &dual{prog: prog, f: f, m: netlist.NewMachine(prog)}
	d.e = New("dut", prog, &d.eOut, nil, nil)
	d.settle()
	return d
}

func (d *dual) drainMachine() {
	for _, ev := range d.m.DrainEvents() {
		if ev.Finish {
			continue
		}
		d.mOut.WriteString(ev.Text)
		if ev.Newline {
			d.mOut.WriteString("\n")
		}
	}
}

func (d *dual) settle() {
	for d.m.HasActive() || d.m.HasUpdates() {
		d.m.Evaluate()
		if d.m.HasUpdates() {
			d.m.Update()
		}
	}
	d.m.EndStep()
	d.drainMachine()
	for d.e.ThereAreEvals() || d.e.ThereAreUpdates() {
		d.e.Evaluate()
		if d.e.ThereAreUpdates() {
			d.e.Update()
		}
	}
	d.e.EndStep()
}

func (d *dual) setInput(name string, v *bits.Vector) {
	d.m.SetInput(d.f.VarNamed(name), v)
	d.e.Read(engine.Event{Var: name, Val: v})
}

func (d *dual) check(t *testing.T, context string) {
	t.Helper()
	ms := fmt.Sprint(d.m.GetState())
	es := fmt.Sprint(d.e.GetState())
	if ms != es {
		t.Fatalf("%s: state divergence\ninterp: %s\nnative: %s", context, ms, es)
	}
	if d.mOut.String() != d.eOut.sb.String() {
		t.Fatalf("%s: display divergence\ninterp: %q\nnative: %q", context, d.mOut.String(), d.eOut.sb.String())
	}
}

func (d *dual) tick() {
	d.setInput("clk", bits.FromUint64(1, 1))
	d.settle()
	d.setInput("clk", bits.FromUint64(1, 0))
	d.settle()
}

// --- Differential correctness -----------------------------------------

func TestNativeCounter(t *testing.T) {
	d := newDualNative(t, `
module M(input wire clk, output reg [7:0] cnt);
  always @(posedge clk) cnt <= cnt + 1;
endmodule`)
	for i := 0; i < 20; i++ {
		d.tick()
	}
	d.check(t, "counter")
	if got := imagetest.Of(d.e.Flat().Layout(), d.e.GetState()).Scalar("cnt").Uint64(); got != 20 {
		t.Fatalf("native counter = %d, want 20", got)
	}
}

func TestNativeControlFlowAndMemory(t *testing.T) {
	d := newDualNative(t, `
module M(input wire clk, input wire [7:0] a);
  reg [7:0] acc = 0;
  reg [7:0] tbl [0:15];
  reg [3:0] wp = 0;
  integer i;
  wire [7:0] fold;
  assign fold = (a > 8'd100) ? (a - 8'd100) : (a ^ acc);
  always @(posedge clk) begin
    acc <= 0;
    for (i = 0; i < 4; i = i + 1)
      acc <= acc + tbl[i];
    tbl[wp] <= fold;
    wp <= wp + 1;
  end
endmodule`)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		d.setInput("a", bits.FromUint64(8, r.Uint64()))
		d.settle()
		d.tick()
		d.check(t, fmt.Sprintf("tick %d", i))
	}
}

func TestNativeWideFallback(t *testing.T) {
	d := newDualNative(t, `
module M(input wire clk, input wire [7:0] a);
  reg [99:0] acc = 100'h1;
  reg [127:0] sh = 0;
  wire [99:0] nxt;
  assign nxt = acc * {92'b0, a} + 100'd7;
  always @(posedge clk) begin
    acc <= nxt;
    sh <= {sh[119:0], a};
  end
endmodule`)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 30; i++ {
		d.setInput("a", bits.FromUint64(8, r.Uint64()))
		d.settle()
		d.tick()
	}
	d.check(t, "wide fallback")
}

// TestNarrowUnitBesideWideSlotZero: a narrow process compiles to native
// closures only, though the design's first variable, slot 0, is 65 bits
// wide: its branches and memory write name no destination, and take no
// width but their own operands'.
func TestNarrowUnitBesideWideSlotZero(t *testing.T) {
	prog, _ := compileProg(t, `
module M(input wire [64:0] big, input wire clk, input wire [7:0] a);
  reg [7:0] q;
  reg [7:0] mem [0:3];
  always @(posedge clk) begin
    if (a[0]) q <= a;
    else q <= a + 1;
    mem[a[1:0]] <= q;
  end
endmodule`)
	if prog.Slots[0].Width != 65 {
		t.Fatalf("slot 0 is %d bits wide, want big", prog.Slots[0].Width)
	}
	if _, n := compileCounted(netlist.NewMachine(prog)); n.fallbacks != 0 {
		t.Fatalf("%d closures fall back to Machine.ExecOp, want none", n.fallbacks)
	}
}

func TestNativeDisplayAndFinish(t *testing.T) {
	d := newDualNative(t, `
module M(input wire clk);
  reg [3:0] n = 0;
  always @(posedge clk) begin
    n <= n + 1;
    $display("n=%d", n);
    if (n == 4'd9) $finish;
  end
endmodule`)
	for i := 0; i < 12; i++ {
		d.tick()
	}
	d.check(t, "display")
	if !d.e.Finished() || !d.eOut.finished {
		t.Fatal("native engine missed $finish")
	}
}

// Random synchronous programs: the native tier must agree with the
// interpreter on every observable state and output stream, tick by tick.
// Mirrors the netlist package's interpreter-vs-reference property, one tier
// up, on the same generator.
func TestNativeDifferentialRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for seed := uint64(0); seed < 40; seed++ {
		src := vgen.Module(seed).String()
		d := newDualNative(t, src)
		for i := 0; i < 10; i++ {
			d.setInput("a", bits.FromUint64(8, r.Uint64()))
			d.setInput("b", bits.FromUint64(8, r.Uint64()))
			d.settle()
			d.tick()
			d.check(t, fmt.Sprintf("seed %d tick %d on\n%s", seed, i, src))
		}
	}
}

// --- Promotion / demotion state handoff -------------------------------

// Interpreter -> native -> interpreter migration mid-run must be
// invisible: the ladder the runtime walks, exercised at the engine
// level.
func TestNativePromotionDemotionMidRun(t *testing.T) {
	src := `
module M(input wire clk, input wire [3:0] d);
  reg [15:0] lfsr = 16'hbeef;
  reg [15:0] hist [0:7];
  reg [2:0] wp = 0;
  wire fb;
  assign fb = lfsr[0] ^ lfsr[2] ^ lfsr[3] ^ lfsr[5];
  always @(posedge clk) begin
    lfsr <= {fb, lfsr[15:1]} ^ {12'b0, d};
    hist[wp] <= lfsr;
    wp <= wp + 1;
  end
endmodule`
	prog, f := compileProg(t, src)
	m := netlist.NewMachine(prog)
	settleM := func() {
		for m.HasActive() || m.HasUpdates() {
			m.Evaluate()
			if m.HasUpdates() {
				m.Update()
			}
		}
		m.EndStep()
	}
	r := rand.New(rand.NewSource(23))
	settleM()
	for i := 0; i < 8; i++ {
		m.SetInput(f.VarNamed("d"), bits.FromUint64(4, r.Uint64()))
		settleM()
		m.SetInput(f.VarNamed("clk"), bits.FromUint64(1, 1))
		settleM()
		m.SetInput(f.VarNamed("clk"), bits.FromUint64(1, 0))
		settleM()
	}
	// Promote: native engine inherits the interpreter's state.
	e := New("dut", prog, nil, nil, nil)
	e.SetState(m.GetState())
	settleE := func() {
		for e.ThereAreEvals() || e.ThereAreUpdates() {
			e.Evaluate()
			if e.ThereAreUpdates() {
				e.Update()
			}
		}
		e.EndStep()
	}
	settleE()
	if !slices.Equal(m.GetState(), e.GetState()) {
		t.Fatal("state not preserved across interpreter->native promotion")
	}
	// Run both 8 more ticks in lock step.
	for i := 0; i < 8; i++ {
		in := bits.FromUint64(4, r.Uint64())
		m.SetInput(f.VarNamed("d"), in)
		e.Read(engine.Event{Var: "d", Val: in})
		settleM()
		settleE()
		for _, c := range []uint64{1, 0} {
			cv := bits.FromUint64(1, c)
			m.SetInput(f.VarNamed("clk"), cv)
			e.Read(engine.Event{Var: "clk", Val: cv})
			settleM()
			settleE()
		}
		if !slices.Equal(m.GetState(), e.GetState()) {
			t.Fatalf("divergence after promotion at tick %d", i)
		}
	}
	// Demote: a fresh interpreter inherits the native state.
	m2 := netlist.NewMachine(prog)
	m2.SetState(e.GetState())
	for m2.HasActive() || m2.HasUpdates() {
		m2.Evaluate()
		if m2.HasUpdates() {
			m2.Update()
		}
	}
	if !slices.Equal(m2.GetState(), e.GetState()) {
		t.Fatal("state not preserved across native->interpreter demotion")
	}
}

// A seeded region fault on the native site latches exactly once and is
// namespaced away from the fabric's fault timeline.
func TestNativeFaultLatch(t *testing.T) {
	prog, _ := compileProg(t, `
module M(input wire clk, output reg led);
  always @(posedge clk) led <= ~led;
endmodule`)
	inj := fault.New(fault.Config{Seed: 1, RegionFault: 1.0})
	e := New("dut", prog, nil, inj, nil)
	e.EndStep()
	if e.Fault() == nil {
		t.Fatal("native engine did not latch a certain region fault")
	}
	first := e.Fault()
	e.EndStep()
	if e.Fault() != first {
		t.Fatal("fault latch replaced the first fault")
	}
	// A fault-free injector never trips.
	e2 := New("dut", prog, nil, fault.New(fault.Config{Seed: 1}), nil)
	for i := 0; i < 50; i++ {
		e2.EndStep()
	}
	if e2.Fault() != nil {
		t.Fatalf("unexpected fault: %v", e2.Fault())
	}
}

// Usage is reported in native ops, not interpreter ops.
func TestNativeUsageDelta(t *testing.T) {
	d := newDualNative(t, `
module M(input wire clk, output reg [7:0] cnt);
  always @(posedge clk) cnt <= cnt + 1;
endmodule`)
	d.e.UsageDelta() // reset after initial settle
	for i := 0; i < 5; i++ {
		d.tick()
	}
	u := d.e.UsageDelta()
	if u.NativeOps == 0 {
		t.Fatal("native engine reported no NativeOps")
	}
	if u.Ops != 0 || u.Cycles != 0 || u.Msgs != 0 {
		t.Fatalf("native engine billed foreign units: %+v", u)
	}
	if u2 := d.e.UsageDelta(); u2.NativeOps != 0 {
		t.Fatalf("UsageDelta did not reset: %+v", u2)
	}
}

// The benchmark workloads themselves must agree across tiers: drive
// interpreter and native engines in lock step over each generated
// module and compare full state signatures.
func TestNativeWorkloadEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	rx, _, err := regexgen.Generate("(ab|cd)+e")
	if err != nil {
		t.Fatalf("regex generate: %v", err)
	}
	for _, tc := range []struct {
		name string
		src  string
	}{
		{"pow", pow.Generate(pow.DefaultConfig())},
		{"regexstream", rx},
		{"nw", nw.Generate(nw.DefaultConfig())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newDualNative(t, tc.src)
			inputs := d.f.Inputs
			for i := 0; i < 200; i++ {
				for _, v := range inputs {
					if v.Name == "clk" {
						continue
					}
					val := bits.FromUint64(v.Width, r.Uint64())
					d.setInput(v.Name, val)
				}
				d.settle()
				d.tick()
				if i%50 == 0 {
					d.check(t, fmt.Sprintf("%s tick %d", tc.name, i))
				}
			}
			d.check(t, tc.name+" final")
		})
	}
}

// TestCompiledFormRetainedBudget: every fabric engine and every native
// engine keeps one Eval alive for as long as it runs, so what Compile
// retains — closures, jump tables, the CSR relations; not the builder
// scaffolding or the def/use counts — is budgeted. The miner's is ~38 KB;
// a jump table per case arm, or dense per-slot lists, cost it 111 KB.
func TestCompiledFormRetainedBudget(t *testing.T) {
	prog, _ := compileProg(t, pow.Generate(pow.DefaultConfig()))
	m := netlist.NewMachine(prog)
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the first may only queue what finalizers still held
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	ev := Compile(m)
	retained := int64(heap()) - int64(before)
	runtime.KeepAlive(ev)
	t.Logf("njit.Compile retains %d bytes for %d ops over %d slots", retained, prog.Stats.CodeOps, len(prog.Slots))
	if retained > 64<<10 {
		t.Fatalf("compiled form retains %d bytes, budget 64 KB", retained)
	}
}

// BenchmarkNativeCompileEdit: the native code an eval regenerates at
// the last of 150 edits (vgen.InlinedChain), the whole program's.
func BenchmarkNativeCompileEdit(b *testing.B) {
	prog, _ := compileProg(b, vgen.InlinedChain(150))
	m := netlist.NewMachine(prog)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compile(m)
	}
}

// TestNativeCompileAllocBudget: Compile allocates the compiled form and
// little scaffolding besides — no per-slot lists, a builder per program
// rather than per process, no appends that are never presized. It was
// 442 KB in 8 902 allocations at this size before the relations were
// built in one counting pass and the builder was reused; the budgets
// are what it takes now plus a tenth.
func TestNativeCompileAllocBudget(t *testing.T) {
	prog, _ := compileProg(t, vgen.InlinedChain(150))
	m := netlist.NewMachine(prog)
	const runs = 20
	Compile(m) // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		Compile(m)
	}
	runtime.ReadMemStats(&after)
	bytes, allocs := (after.TotalAlloc-before.TotalAlloc)/runs, (after.Mallocs-before.Mallocs)/runs
	t.Logf("njit.Compile: %d ops, %d slots: %d B and %d allocs per call", prog.Stats.CodeOps, len(prog.Slots), bytes, allocs)
	if bytes > nativeCompileBytes || allocs > nativeCompileAllocs {
		t.Fatalf("Compile allocates %d B in %d allocs per call, budget %d B in %d", bytes, allocs, nativeCompileBytes, nativeCompileAllocs)
	}
}

// njit.Compile's budget at the last of 150 edits.
const (
	nativeCompileBytes  = 295_400 // 287 360 B measured, 282 972 B since the fused runs, 279 968 B since units are read in place, 268 508 B since the edge watchers are the machine's
	nativeCompileAllocs = 2_217   // 2 174 measured, 2 014 since the fused runs, 2 017 since units are read in place, 2 015 since the edge watchers are the machine's
)

// --- Workload benchmarks (the >=2x gate runs in scripts/native_smoke.sh) ---

func benchTicks(b *testing.B, src string, native bool) {
	prog, f := compileProg(b, src)
	clk := f.VarNamed("clk")
	if clk == nil {
		b.Fatal("workload has no clk input")
	}
	m := netlist.NewMachine(prog)
	var ev *Eval
	if native {
		ev = Compile(m)
	}
	hi, lo := bits.FromUint64(1, 1), bits.FromUint64(1, 0)
	settle := func() {
		if native {
			for ev.HasActive() || ev.HasUpdates() {
				ev.Evaluate()
				if ev.HasUpdates() {
					ev.Update()
				}
			}
		} else {
			for m.HasActive() || m.HasUpdates() {
				m.Evaluate()
				if m.HasUpdates() {
					m.Update()
				}
			}
		}
		m.DrainEvents()
	}
	settle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SetInput(clk, hi)
		settle()
		m.SetInput(clk, lo)
		settle()
	}
}

func powSrc(b *testing.B) string { return pow.Generate(pow.DefaultConfig()) }

func regexStreamSrc(b testing.TB) string {
	src, _, err := regexgen.Generate("(ab|cd)+e")
	if err != nil {
		b.Fatalf("regex generate: %v", err)
	}
	return src
}

func nwSrc(b *testing.B) string { return nw.Generate(nw.DefaultConfig()) }

func BenchmarkPowInterpreterTick(b *testing.B)   { benchTicks(b, powSrc(b), false) }
func BenchmarkPowNativeTick(b *testing.B)        { benchTicks(b, powSrc(b), true) }
func BenchmarkRegexInterpreterTick(b *testing.B) { benchTicks(b, regexStreamSrc(b), false) }
func BenchmarkRegexNativeTick(b *testing.B)      { benchTicks(b, regexStreamSrc(b), true) }
func BenchmarkNWInterpreterTick(b *testing.B)    { benchTicks(b, nwSrc(b), false) }
func BenchmarkNWNativeTick(b *testing.B)         { benchTicks(b, nwSrc(b), true) }
