package njit

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/golden"
	"cascade/internal/netlist"
	"cascade/internal/verilog"
	"cascade/internal/vgen"
	"cascade/internal/workloads/pow"
)

// FuzzNativeAgainstReference runs a generated module on the compiled
// evaluator and on the reference machine, stepped here, under inputs the
// fuzzer picks, two bytes a tick: state image and display text agree
// tick by tick, and keep agreeing after both install the same altered
// state image mid-run. It runs the module's program twice: compiled from
// scratch, and linked (netlist.CompileFrom) from the program of a prefix
// of the module the first byte picks, whose units the link relocates —
// their code under the new program's binding. The seed corpus is the
// drive of TestNativeDifferentialRandomPrograms, program by program.
func FuzzNativeAgainstReference(f *testing.F) {
	r := rand.New(rand.NewSource(17))
	for seed := uint64(0); seed < 40; seed++ {
		in := make([]byte, 20)
		for i := range in {
			in[i] = byte(r.Uint64())
		}
		f.Add(seed, in)
	}
	f.Fuzz(func(t *testing.T, seed uint64, in []byte) {
		src := vgen.Module(seed).String()
		drive(t, newDualNative(t, src), in, fmt.Sprintf("vgen seed %d", seed), src)
		prog, fl, cut := linkedFromPrefix(t, src, in)
		drive(t, newDual(prog, fl), in, fmt.Sprintf("vgen seed %d linked from its first %d items", seed, cut), src)
	})
}

// drive runs d under the inputs in picks, two bytes a tick, checking the
// two sides agree after each tick and after a state install halfway.
func drive(t *testing.T, d *dual, in []byte, what, src string) {
	t.Helper()
	n := min(len(in)/2, 32)
	for i := 0; i < n; i++ {
		d.setInput("a", bits.FromUint64(8, uint64(in[2*i])))
		d.setInput("b", bits.FromUint64(8, uint64(in[2*i+1])))
		d.settle()
		d.tick()
		d.check(t, fmt.Sprintf("%s tick %d on\n%s", what, i, src))
		if i == n/2 {
			img := d.m.GetState()
			for k := range img {
				img[k] ^= uint64(in[k%len(in)]) * 0x0101010101010101
			}
			d.m.SetState(img)
			d.e.SetState(img)
			d.settle()
			d.check(t, fmt.Sprintf("%s after a state install at tick %d on\n%s", what, i, src))
		}
	}
}

// linkedFromPrefix synthesizes the module src declares as an eval does
// after the one declaring its first items: elaborated from the prefix's
// elaboration and linked from its program. The prefix is the longest, at
// most the share of the items in's first byte picks, that synthesizes.
func linkedFromPrefix(t *testing.T, src string, in []byte) (*netlist.Program, *elab.Flat, int) {
	t.Helper()
	st, errs := verilog.ParseSourceText(src)
	if errs != nil {
		t.Fatalf("parse: %v", errs)
	}
	m := st.Modules[0]
	cut := 0
	if len(in) > 0 {
		cut = len(m.Items) * int(in[0]) / 256
	}
	for ; ; cut-- {
		if cut < 0 {
			t.Fatal("no prefix of the module synthesizes")
		}
		pm := *m
		pm.Items = m.Items[:cut]
		fb, err := elab.Elaborate(&pm, "dut", nil)
		if err != nil {
			continue // a prefix may read what a later item declares
		}
		base, err := netlist.Compile(fb)
		if err != nil {
			continue
		}
		f, err := elab.ElaborateFrom(fb, m, "dut", nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := netlist.CompileFrom(base, f)
		if err != nil {
			t.Fatal(err)
		}
		return p, f, cut
	}
}

// TestNativeTickAllocFree: once settled, a clock tick through the
// compiled evaluator allocates nothing — no growing commit buffer, no
// boxed marks, no wide value built per instruction — on the stream
// matcher (the miner's is TestPowTickCounters) and on wideTickSrc, whose
// every wide instruction runs on the reference path, Machine.ExecOp.
func TestNativeTickAllocFree(t *testing.T) {
	for _, c := range []struct{ name, src string }{
		{"regexstream", regexStreamSrc(t)},
		{"wide", wideTickSrc},
	} {
		prog, f := compileProg(t, c.src)
		m := netlist.NewMachine(prog)
		tick := nativeTicker(m, Compile(m), f.VarNamed("clk"))
		for i := 0; i < 16; i++ {
			tick()
		}
		if n := testing.AllocsPerRun(200, tick); n != 0 {
			t.Errorf("%s: a settled native tick allocates %v times", c.name, n)
		}
	}
}

// wideTickSrc keeps 100- and 128-bit registers through wide instructions
// that need no math/big (a multiply, divide, modulus or power would):
// an add, a xor, a rotate, a wide compare, a shifted concat, a ranged
// non-blocking write into a 70-bit register and a subtract.
const wideTickSrc = `
module M(input wire clk, input wire [7:0] a);
  reg [99:0] x = 100'h1;
  reg [127:0] y = 128'h3;
  reg [99:0] r = 0;
  reg [127:0] s = 0;
  reg [127:0] d = 0;
  reg [69:0] z = 0;
  reg flag = 0;
  always @(posedge clk) begin
    x <= x + {92'd0, a};
    y <= y ^ {x, 28'd5};
    r <= {r[98:0], r[99]} ^ x;
    flag <= y > {28'd0, x};
    s <= {y[63:0], y[127:64]} >> a[2:0];
    z[69:6] <= x[63:0];
    d <= y - {28'd0, x};
  end
endmodule`

// nativeTicker returns a clock tick of ev over m: clk up, settle, clk
// down, settle.
func nativeTicker(m *netlist.Machine, ev *Eval, clk *elab.Var) func() {
	hi, lo := bits.FromUint64(1, 1), bits.FromUint64(1, 0)
	settle := func() {
		for ev.HasActive() || ev.HasUpdates() {
			ev.Evaluate()
			if ev.HasUpdates() {
				ev.Update()
			}
		}
		m.DrainEvents()
	}
	return func() {
		m.SetInput(clk, hi)
		settle()
		m.SetInput(clk, lo)
		settle()
	}
}

// TestPowTickCounters is the host work of the miner's native tick (the
// pow_ladder workload's hot loop): the heap objects and bytes of a window
// of settled clock ticks, which are none, the instructions the native
// tier bills per tick, and what the compiled form is made of, counted as
// Compile builds it — nothing counts at tick time.
func TestPowTickCounters(t *testing.T) {
	const window = 256
	prog, f := compileProg(t, pow.Generate(pow.DefaultConfig()))
	m := netlist.NewMachine(prog)
	ev, n := compileCounted(m)
	tick := nativeTicker(m, ev, f.VarNamed("clk"))
	for i := 0; i < 16; i++ {
		tick()
	}
	// The least over three windows: a goroutine another test left
	// running can only add to one. The bill is the first window's.
	var billed uint64
	objs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for rep := range 3 {
		var before, after runtime.MemStats
		ev.NativeOpsDelta()
		runtime.ReadMemStats(&before)
		for i := 0; i < window; i++ {
			tick()
		}
		runtime.ReadMemStats(&after)
		if rep == 0 {
			billed = ev.NativeOpsDelta()
		}
		objs, bytes = min(objs, after.Mallocs-before.Mallocs), min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	var rec strings.Builder
	fmt.Fprintf(&rec, "compiled: %d processes, %d blocks (one step closure each), %d closures in the blocks, %d of them fused runs; %d closures fall back to Machine.ExecOp\n",
		n.procs, n.blocks, n.closures, n.runs, n.fallbacks)
	fmt.Fprintf(&rec, "%d settled ticks: %d objects %d B; %.2f instructions billed per tick\n", window, objs, bytes, float64(billed)/window)
	if objs != 0 || bytes != 0 {
		t.Errorf("pow: %d settled native ticks allocate %d objects, %d B", window, objs, bytes)
	}
	golden.Check(t, "counters", rec.String())
}
