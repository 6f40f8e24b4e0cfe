package netlist

import (
	"fmt"
	"math/rand"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/imagetest"
	"cascade/internal/sim"
	"cascade/internal/verilog"
	"cascade/internal/vgen"
)

// --- Satellite: cross-tier snapshot round-trips -----------------------

// Property: a snapshot taken from one engine installs byte-identically
// into a fresh machine and a fresh reference simulator, for random
// programs with narrow, wide, and array state. This is what makes
// tier promotion/demotion (interpreter <-> native <-> fabric) invisible.
func TestSetStateCrossTierRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		src := vgen.Module(100 + uint64(trial)).String()
		d := newDual(t, src)
		for i := 0; i < 6; i++ {
			d.setInput("a", bits.FromUint64(8, r.Uint64()))
			d.setInput("b", bits.FromUint64(8, r.Uint64()))
			d.settle()
			d.tick(t)
		}
		snap := d.m.GetState()
		want := fmt.Sprint(snap)

		m2 := NewMachine(d.m.Prog())
		m2.SetState(snap)
		if got := fmt.Sprint(m2.GetState()); got != want {
			t.Fatalf("trial %d: machine->machine round trip diverged\nwant %s\ngot  %s\nprogram:\n%s", trial, want, got, src)
		}

		s2 := sim.New(d.f, sim.Options{})
		s2.SetState(snap)
		if got := fmt.Sprint(s2.GetState()); got != want {
			t.Fatalf("trial %d: machine->sim round trip diverged\nwant %s\ngot  %s\nprogram:\n%s", trial, want, got, src)
		}
	}
}

// SetState must mask junk above a variable's semantic width: a foreign
// engine tier (or a peer on the wire) may hand over an image whose words
// carry garbage above a value's top bit (a violated normalization
// invariant), and neither wide nor narrow slots may absorb it.
func TestSetStateMasksDenormalizedSnapshot(t *testing.T) {
	_, m, f := compileBoth(t, `
module M(input wire clk);
  reg [39:0] narrow = 0;
  reg [99:0] wide = 0;
  reg [69:0] arr [0:3];
  always @(posedge clk) begin
    narrow <= narrow + 1;
    wide <= wide + 1;
    arr[0] <= arr[0] + 1;
  end
endmodule`)
	l := f.Layout()
	st := make([]uint64, l.Len())
	for _, name := range []string{"narrow", "wide", "arr"} {
		// Junk above the width: each value's top word all ones.
		v, w := l.Vars[l.Index(name)], l.Of(st, l.Index(name))
		for n := bits.WordsFor(v.Width); len(w) > 0; w = w[n:] {
			w[n-1] = ^uint64(0)
		}
	}
	m.SetState(st)
	got := imagetest.Of(l, m.GetState())
	if w := got.Scalar("narrow"); w.Uint64() != (uint64(1)<<40)-1 {
		t.Fatalf("narrow slot absorbed junk: %s", w)
	}
	for _, name := range []string{"wide"} {
		w := got.Scalar(name)
		ww := w.Words()
		if ww[1] != (uint64(1)<<36)-1 {
			t.Fatalf("%s top word not re-masked after copy: %#x", name, ww[1])
		}
	}
	a := got.Array("arr")[0].Words()
	if a[1] != (uint64(1)<<6)-1 {
		t.Fatalf("array word not re-masked after copy: %#x", a[1])
	}
}

// --- Satellite: no aliasing across the engine ABI boundary ------------

// Mutating a vector after handing it to SetInput/SetState must not leak
// into slot state, and mutating a vector returned by GetState (or a
// clone of a peeked one) must not write back into the machine.
func TestEngineABINoAliasing(t *testing.T) {
	_, m, f := compileBoth(t, `
module M(input wire [7:0] in_n, input wire [99:0] in_w);
  wire [7:0] n;
  wire [99:0] w;
  assign n = in_n;
  assign w = in_w;
endmodule`)
	settle := func() {
		for m.HasActive() || m.HasUpdates() {
			m.Evaluate()
			if m.HasUpdates() {
				m.Update()
			}
		}
	}
	nv := bits.FromUint64(8, 0x5a)
	wv := bits.FromUint64(100, 0x1234)
	m.SetInput(f.VarNamed("in_n"), nv)
	m.SetInput(f.VarNamed("in_w"), wv)
	settle()
	// Caller scribbles on its vectors after the call.
	nv.SetUint64(0xff)
	wv.SetUint64(0xffff)
	if got := m.PeekVar(f.VarNamed("in_n")).Clone().Uint64(); got != 0x5a {
		t.Fatalf("SetInput aliased narrow caller vector: %#x", got)
	}
	if got := m.PeekVar(f.VarNamed("in_w")).Clone().Uint64(); got != 0x1234 {
		t.Fatalf("SetInput aliased wide caller vector: %#x", got)
	}

	// Same for SetState: the snapshot stays caller-owned.
	snap := m.GetState()
	m2 := NewMachine(m.Prog())
	m2.SetState(snap)
	imagetest.Of(f.Layout(), snap).Set("in_w", bits.FromUint64(100, 0xdead))
	imagetest.Of(f.Layout(), snap).Set("in_n", bits.FromUint64(8, 0xde))
	if got := m2.PeekVar(f.VarNamed("in_w")).Clone().Uint64(); got != 0x1234 {
		t.Fatalf("SetState aliased wide snapshot vector: %#x", got)
	}
	if got := m2.PeekVar(f.VarNamed("in_n")).Clone().Uint64(); got != 0x5a {
		t.Fatalf("SetState aliased narrow snapshot vector: %#x", got)
	}

	// And outbound: cloned peeks and GetState results are owned by the
	// caller.
	out := m2.PeekVar(f.VarNamed("in_w")).Clone()
	out.SetUint64(0)
	if got := m2.PeekVar(f.VarNamed("in_w")).Clone().Uint64(); got != 0x1234 {
		t.Fatalf("a cloned peek is a live internal vector")
	}
	st := m2.GetState()
	imagetest.Of(f.Layout(), st).Set("in_n", bits.FromUint64(8, 0))
	if got := m2.PeekVar(f.VarNamed("in_n")).Clone().Uint64(); got != 0x5a {
		t.Fatalf("GetState returned a live internal vector")
	}
}

// --- Satellite: narrow-slot read allocations --------------------------

// slotVec must not allocate for narrow slots once the scratch vector is
// warm, and a cloned peek pays exactly one fresh vector (2 allocs: header +
// words). Guard both so the hot read path can't regress.
func TestNarrowReadAllocs(t *testing.T) {
	_, m, f := compileBoth(t, `
module M(input wire [7:0] in_n);
  wire [7:0] n;
  assign n = in_n;
endmodule`)
	v := f.VarNamed("in_n")
	slot := m.prog.VarSlot[v.Index]
	m.slotVec(slot) // warm the scratch
	if n := testing.AllocsPerRun(200, func() { m.slotVec(slot) }); n != 0 {
		t.Fatalf("slotVec allocates on narrow slots: %v allocs/op", n)
	}
	if n := testing.AllocsPerRun(200, func() { m.PeekVar(v).Clone() }); n > 2 {
		t.Fatalf("PeekVar(v).Clone() narrow: %v allocs/op, want <= 2", n)
	}
}

func BenchmarkReadVarNarrow(b *testing.B) {
	st, errs := verilog.ParseSourceText(`
module M(input wire [7:0] in_n);
  wire [7:0] n;
  assign n = in_n;
endmodule`)
	if errs != nil {
		b.Fatalf("parse: %v", errs)
	}
	f, err := elab.Elaborate(st.Modules[0], "dut", nil)
	if err != nil {
		b.Fatalf("elaborate: %v", err)
	}
	prog, err := Compile(f)
	if err != nil {
		b.Fatalf("compile: %v", err)
	}
	m := NewMachine(prog)
	v := f.VarNamed("in_n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PeekVar(v).Clone()
	}
}

// --- Satellite: fingerprint determinism -------------------------------

// Property: the fingerprint is a pure function of the source — identical
// source elaborated twice hashes identically, and re-hashing the same
// program is stable. The
// native tier's cache key and the bitstream cache key share this hash.
func TestFingerprintDeterministic(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		src := vgen.Module(200 + uint64(trial)).String()
		_, m1, _ := compileBoth(t, src)
		_, m2, _ := compileBoth(t, src)
		fp := m1.Prog().Fingerprint()
		if fp2 := m2.Prog().Fingerprint(); fp2 != fp {
			t.Fatalf("trial %d: same source, different fingerprints\n%s\n%s\nprogram:\n%s", trial, fp, fp2, src)
		}
		// Re-hashing one program reads the same bytes every time.
		for i := 0; i < 8; i++ {
			if again := m1.Prog().Fingerprint(); again != fp {
				t.Fatalf("trial %d: fingerprint unstable across re-hashing: %s vs %s", trial, fp, again)
			}
		}
	}
	// Sanity: different sources do differ.
	_, a, _ := compileBoth(t, "module M(input wire clk);\n  reg r = 0;\n  always @(posedge clk) r <= ~r;\nendmodule")
	_, b, _ := compileBoth(t, "module M(input wire clk);\n  reg r = 1;\n  always @(posedge clk) r <= ~r;\nendmodule")
	if a.Prog().Fingerprint() == b.Prog().Fingerprint() {
		t.Fatal("distinct programs share a fingerprint")
	}
}
