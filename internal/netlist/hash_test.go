package netlist

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	bv "cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/golden"
	"cascade/internal/imagetest"
	"cascade/internal/verilog"
	"cascade/internal/vgen"
	"cascade/internal/workloads/pow"
)

// fingerprintGolden is the digest of goldenSrc since the key was
// composed from unit digests. Cache keys, on-disk .bits entries and CI's
// .cascade-bits store are all addressed by it, so a faster Fingerprint
// must reproduce it byte for byte; a change of encoding is a re-key.
const fingerprintGolden = "3fe17bf7c70092ad0f853c13847106ded8b2ab41ec3f8ac8fb4f8676398523c7"

// goldenSrc covers every kind of field the hash walks: a narrow and a
// wider-than-64-bit register with initial values, a memory with an
// initialised word (both in the reset image), constants of both widths,
// and a system task with a format string.
const goldenSrc = `
module M(input wire clk, input wire [3:0] addr, output wire [15:0] rdata);
  reg [7:0] narrow = 8'h5a;
  reg [99:0] wide = 100'h123456789abcdef0123456789;
  reg [15:0] mem [0:15];
  initial mem[3] = 16'hbeef;
  assign rdata = mem[addr] ^ 16'h00ff;
  always @(posedge clk) begin
    narrow <= narrow + 8'd3;
    wide <= {wide[98:0], wide[99]} ^ 100'hfedcba9876543210fedcba987;
    mem[addr] <= {narrow, narrow};
    $display("%m n=%h w=%h", narrow, wide);
  end
endmodule`

func TestFingerprintGolden(t *testing.T) {
	p, stage, err := tryCompile(goldenSrc)
	if err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	wide, mems, tasks := false, len(p.Mems), len(p.Tasks)
	for _, s := range p.Slots {
		wide = wide || s.Wide
	}
	if !wide || mems == 0 || tasks == 0 || resetMem(p, "mem")[3].Uint64() != 0xbeef {
		t.Fatalf("golden module lost coverage: wide=%v mems=%d tasks=%d mem[3]=%s", wide, mems, tasks, resetMem(p, "mem")[3])
	}
	if got := p.Fingerprint(); got != fingerprintGolden {
		t.Errorf("Fingerprint = %s, want %s", got, fingerprintGolden)
	}
}

// sessionSrc is the shape of a long REPL session after inlining: n
// 16-bit multiply-accumulate stages chained behind a counter, each with
// its own reset value and constants.
func sessionSrc(n int) string {
	var sb strings.Builder
	sb.WriteString("module M(input wire clk);\n  reg [15:0] cnt = 0;\n  always @(posedge clk) cnt <= cnt + 1;\n")
	prev := "cnt"
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "  reg [15:0] e%[1]d__acc = 16'h%04[2]x;\n  wire [15:0] v%[1]d;\n"+
			"  always @(posedge clk) e%[1]d__acc <= e%[1]d__acc * 16'h%04[3]x + (%[4]s ^ 16'h%04[5]x);\n  assign v%[1]d = e%[1]d__acc;\n",
			i, 0x1234+i*77, 2*i+1, prev, 0xbeef-i)
		prev = fmt.Sprintf("v%d", i)
	}
	sb.WriteString("endmodule\n")
	return sb.String()
}

func mustCompile(t testing.TB, src string) *Program {
	t.Helper()
	p, stage, err := tryCompile(src)
	if err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	return p
}

// resetVar returns the reset value of the scalar variable named name,
// read out of p's reset image.
func resetVar(p *Program, name string) *bv.Vector {
	return imagetest.Of(p.Flat.Layout(), p.Reset).Scalar(name)
}

// resetMem returns the reset words of the memory named name (nil if
// there is none), read out of p's reset image.
func resetMem(p *Program, name string) []*bv.Vector {
	return imagetest.Of(p.Flat.Layout(), p.Reset).Array(name)
}

// oldFingerprintGolden is goldenSrc's digest under oldFingerprint, the
// key on-disk stores held before units were hashed one by one.
const oldFingerprintGolden = "ace8e30ad8b411c975bbc4d1420f5aa826aafa956658088f3b9977b118451d9c"

// oldFingerprint is the encoder that hashed every instruction, kept as
// the reference for which programs are equal: every constant and state
// word printed to a string of its own on the way into the hash, and the
// reset state read by name.
func oldFingerprint(p *Program) string {
	sum := sha256.New()
	h := bufio.NewWriter(sum)
	var buf [8]byte
	wlen := func(n int) {
		binary.LittleEndian.PutUint32(buf[:4], uint32(n))
		h.Write(buf[:4])
	}
	ws := func(s string) {
		wlen(len(s))
		h.WriteString(s)
	}
	wi := func(vs ...int) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	wb := func(b bool) {
		if b {
			wi(1)
		} else {
			wi(0)
		}
	}
	wvec := func(v *bv.Vector) {
		if v == nil {
			ws("<nil>")
			return
		}
		ws(fmt.Sprintf("%d'h%s", v.Width(), v.Hex()))
	}
	ws(p.Flat.Name)
	wi(len(p.Code))
	for i := range p.Code {
		op := &p.Code[i]
		wi(int(op.Kind), int(op.Dst), int(op.Width), int(op.Hi), int(op.Lo), int(op.N), int(op.Target), int(op.Aux))
		srcs := p.Srcs(op)
		wi(len(srcs))
		for _, s := range srcs {
			wi(int(s))
		}
		wb(op.Wide)
		wvec(p.Const(op))
	}
	wi(len(p.Slots))
	for _, s := range p.Slots {
		wi(s.Width)
		wb(s.Wide)
		if s.Var != nil {
			ws(s.Var.Name)
		} else {
			ws("")
		}
	}
	wi(len(p.VarSlot))
	wi(p.VarSlot...)
	wi(len(p.MemOf))
	wi(p.MemOf...)
	wi(len(p.Mems))
	for _, m := range p.Mems {
		ws(m.Var.Name)
		wi(m.Words, m.Width)
	}
	wi(len(p.Comb))
	for _, c := range p.Comb {
		wi(c.Entry)
	}
	wi(len(p.Seq))
	for _, sp := range p.Seq {
		wi(sp.Entry, len(sp.Edges))
		for _, e := range sp.Edges {
			wi(int(e.Kind), e.Var.Index)
		}
	}
	wi(len(p.Monitors))
	for _, m := range p.Monitors {
		wi(m.Entry)
	}
	wi(len(p.Tasks))
	for _, t := range p.Tasks {
		wi(int(t.Src.Kind))
		ws(t.Src.Format)
		wb(t.Monitor)
	}
	var names, memNames []string
	for _, v := range p.Flat.Vars {
		if v.IsArray() {
			memNames = append(memNames, v.Name)
		} else {
			names = append(names, v.Name)
		}
	}
	sort.Strings(names)
	wlen(len(names))
	for _, n := range names {
		ws(n)
		wvec(resetVar(p, n))
	}
	sort.Strings(memNames)
	wi(len(memNames))
	for _, n := range memNames {
		ws(n)
		words := resetMem(p, n)
		wi(len(words))
		for _, w := range words {
			wvec(w)
		}
	}
	h.Flush()
	return hex.EncodeToString(sum.Sum(nil))
}

// TestFingerprintEqualsOldEncoderClasses: the composed hash tells
// programs apart exactly as the encoder that hashed every instruction
// (oldFingerprint) does, on generated netlists of every shape the grammar
// has, on the two designs whose hashing is timed, and on a family that
// differs only in code (the same declarations, reset image and variable
// lists, an operator or a constant apart) — each compiled from scratch
// and, where its last item can be cut, from the program of the module
// without it, which relocates the rest.
func TestFingerprintEqualsOldEncoderClasses(t *testing.T) {
	srcs := []string{goldenSrc, pow.Generate(pow.DefaultConfig()), sessionSrc(150)}
	for seed := uint64(0); seed < 220; seed++ {
		srcs = append(srcs, vgen.Module(seed).String())
	}
	for _, op := range []string{"+", "-", "^", "&"} {
		for k := 1; k <= 3; k++ {
			srcs = append(srcs, fmt.Sprintf("module M(input wire clk, input wire [7:0] d, output reg [7:0] q);\n"+
				"  always @(posedge clk) q <= d %s 8'd%d;\nendmodule", op, k))
		}
	}
	var progs []*Program
	relocated := 0
	for _, src := range srcs {
		m := parseModule(t, src)
		f, err := elab.Elaborate(m, "dut", nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
		cut := *m
		cut.Items = m.Items[:len(m.Items)-1]
		fb, err := elab.Elaborate(&cut, "dut", nil)
		if err != nil {
			continue // the last item declares what an earlier one reads
		}
		base, err := Compile(fb)
		if err != nil {
			continue
		}
		if f, err = elab.ElaborateFrom(fb, m, "dut", nil); err != nil {
			t.Fatal(err)
		}
		if p, err = CompileFrom(base, f); err != nil {
			t.Fatal(err)
		}
		progs, relocated = append(progs, base, p), relocated+p.Relocated
	}
	if relocated == 0 {
		t.Fatal("no unit was relocated")
	}
	if got := oldFingerprint(progs[0]); got != oldFingerprintGolden {
		t.Fatalf("the reference encoder itself drifted: %s", got)
	}
	oldOf, newOf := map[string]string{}, map[string]string{}
	classes := 0
	for i, p := range progs {
		o, n := oldFingerprint(p), p.Fingerprint()
		if was, ok := newOf[o]; ok && was != n {
			t.Errorf("program %d: the old encoder calls it equal to an earlier program, Fingerprint does not", i)
		}
		if was, ok := oldOf[n]; ok && was != o {
			t.Errorf("program %d: Fingerprint calls it equal to an earlier program, the old encoder does not", i)
		}
		if _, ok := newOf[o]; !ok {
			classes++
		}
		oldOf[n], newOf[o] = o, n
	}
	if classes == len(progs) {
		t.Fatal("no two programs were equal: the oracle compared nothing it should join")
	}
}

// TestFingerprintBindsRelocatedUnits: a unit relocated out of its base
// keeps its digest, and the fingerprint still tells which variables it
// is bound to. The edit swaps two declarations under a process on p, so
// the relocated process moves to p's new slot; it is set beside the same
// declarations with the same process on q — the same digests, the same
// tables and reset image, only the binding differs.
func TestFingerprintBindsRelocatedUnits(t *testing.T) {
	const swapped = "module M(input wire clk);\n  reg [7:0] p = 1;\n  reg [7:0] q = 1;\n"
	a := parseModule(t, "module M(input wire clk);\n  reg [7:0] q = 1;\n  reg [7:0] p = 1;\n  always @(posedge clk) p <= p + 8'd1;\nendmodule")
	fa, err := elab.Elaborate(a, "dut", nil)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Compile(fa)
	if err != nil {
		t.Fatal(err)
	}
	b := parseModule(t, swapped+"endmodule")
	b.Items = append(b.Items, a.Items[len(a.Items)-1]) // the same process object
	fb, err := elab.ElaborateFrom(fa, b, "dut", nil)
	if err != nil {
		t.Fatal(err)
	}
	edit, err := CompileFrom(base, fb)
	if err != nil {
		t.Fatal(err)
	}
	other := mustCompile(t, swapped+"  always @(posedge clk) q <= q + 8'd1;\nendmodule")
	p := fb.VarIndex["p"]
	if edit.Relocated != 1 || edit.VarSlot[p] == base.VarSlot[fa.VarIndex["p"]] {
		t.Fatalf("relocated %d units, p's slot %d -> %d: the edit did not move a relocated unit", edit.Relocated, base.VarSlot[fa.VarIndex["p"]], edit.VarSlot[p])
	}
	if edit.Spans[0].Digest != base.Spans[0].Digest || edit.Spans[0].Digest != other.Spans[0].Digest {
		t.Fatal("the relocated unit, its base and the unit on q differ in digest")
	}
	if !reflect.DeepEqual(edit.Reset, other.Reset) || !reflect.DeepEqual(edit.VarSlot, other.VarSlot) {
		t.Fatal("the two programs differ in more than the binding")
	}
	if oldFingerprint(edit) == oldFingerprint(other) {
		t.Fatal("the two programs are the same netlist")
	}
	if edit.Fingerprint() == other.Fingerprint() {
		t.Error("a relocated unit bound to other slots leaves the fingerprint unchanged")
	}
}

// TestFingerprintAllocs: hashing allocates the hash state, its buffer,
// the digest and the digest's string — not a string per constant and
// state word.
func TestFingerprintAllocs(t *testing.T) {
	for name, src := range map[string]string{"miner": pow.Generate(pow.DefaultConfig()), "session": sessionSrc(150)} {
		p := mustCompile(t, src)
		if n := testing.AllocsPerRun(10, func() { p.Fingerprint() }); n > 8 {
			t.Errorf("%s: Fingerprint allocates %.0f times, want at most 8", name, n)
		}
	}
}

func BenchmarkFingerprintSession(b *testing.B) {
	p := mustCompile(b, sessionSrc(150))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Fingerprint()
	}
}

// lastEdit is the last eval of a 150-stage session (vgen.InlinedChain):
// the program of the 149 stages before it, and the design with the last
// stage added, elaborated from theirs as an eval elaborates it.
func lastEdit(t testing.TB) (base *Program, f *elab.Flat) {
	t.Helper()
	parse := func(src string) *verilog.Module {
		st, errs := verilog.ParseSourceText(src)
		if errs != nil {
			t.Fatalf("parse: %v", errs)
		}
		return st.Modules[0]
	}
	m, before := parse(vgen.InlinedChain(150)), len(parse(vgen.InlinedChain(149)).Items)
	cut := *m
	cut.Items = m.Items[:before]
	fb, err := elab.Elaborate(&cut, "dut", nil)
	if err != nil {
		t.Fatal(err)
	}
	if f, err = elab.ElaborateFrom(fb, m, "dut", nil); err != nil {
		t.Fatal(err)
	}
	if base, err = Compile(fb); err != nil {
		t.Fatal(err)
	}
	return base, f
}

// TestEditChainCounters: the host work of an eval, counted exactly along
// the 150 edits of an inlined session (vgen.InlinedChain), each stage
// elaborated and synthesized from the version before it as an eval does.
// At 50, 100 and 150 stages the record holds what the edit's synthesis
// compiled fresh and relocated, the bytes the digests of the units it
// compiled fed SHA-256, and the bytes Fingerprint fed it.
func TestEditChainCounters(t *testing.T) {
	const stages = 150
	items := func(n int) int { return len(parseModule(t, vgen.InlinedChain(n)).Items) }
	head, per := items(0), items(1)-items(0)
	m := parseModule(t, vgen.InlinedChain(stages))
	var f *elab.Flat
	var p *Program
	var rec strings.Builder
	fmt.Fprintf(&rec, "%-7s %6s %10s %9s %8s\n", "stages", "fresh", "relocated", "digested", "hashed")
	for n := 1; n <= stages; n++ {
		cut := *m
		cut.Items = m.Items[:head+n*per]
		var err error
		if f, err = elab.ElaborateFrom(f, &cut, "dut", nil); err != nil {
			t.Fatalf("stage %d: %v", n, err)
		}
		var digested int
		if p, digested, err = compileFromCounted(p, f); err != nil {
			t.Fatalf("stage %d: %v", n, err)
		}
		if n%50 == 0 {
			fmt.Fprintf(&rec, "%-7d %6d %10d %9d %8d\n", n, len(p.Spans)-p.Relocated, p.Relocated, digested, hashedBytes(p))
		}
	}
	golden.Check(t, "counters", rec.String())
}

// BenchmarkCompileFromEdit: synthesis of one eval at 150 stages, all
// but the new stage relocated out of the previous version's program.
func BenchmarkCompileFromEdit(b *testing.B) {
	base, f := lastEdit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompileFrom(base, f); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCompileFromAllocBudget: an eval's synthesis allocates what the
// program keeps and little scaffolding besides — no per-slot lists, no
// map of the base's spans, no append growth, no cloned reset state. It
// was 810 KB in 4 324 allocations at this size before the op lost its
// pointers and the link its scratch; the budgets are what it takes now
// plus a tenth.
func TestCompileFromAllocBudget(t *testing.T) {
	base, f := lastEdit(t)
	p, err := CompileFrom(base, f)
	if err != nil {
		t.Fatal(err)
	}
	if p.Relocated*10 < len(p.Spans)*9 {
		t.Fatalf("relocated %d of %d units", p.Relocated, len(p.Spans))
	}
	bytes, allocs := allocsPerCall(func() { CompileFrom(base, f) })
	t.Logf("CompileFrom: %d ops, %d slots: %d B and %d allocs per call", len(p.Code), len(p.Slots), bytes, allocs)
	if bytes > compileFromBytes || allocs > compileFromAllocs {
		t.Fatalf("CompileFrom allocates %d B in %d allocs per call, budget %d B in %d", bytes, allocs, compileFromBytes, compileFromAllocs)
	}
}

// CompileFrom's budget at the last of 150 edits.
const (
	compileFromBytes  = 463_000 // 420 744 B measured
	compileFromAllocs = 3_046   // 2 769 measured
)

// allocsPerCall is the bytes and allocations fn makes per call.
func allocsPerCall(fn func()) (bytes, allocs uint64) {
	const runs = 20
	fn() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs, (after.Mallocs - before.Mallocs) / runs
}

// TestOpHoldsNoPointers: a program's code is one block the collector
// never scans — an instruction names its sources and constant by index.
func TestOpHoldsNoPointers(t *testing.T) {
	var walk func(reflect.Type) string
	walk = func(ty reflect.Type) string {
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface, reflect.String, reflect.UnsafePointer:
			return ty.String()
		case reflect.Array:
			return walk(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if p := walk(ty.Field(i).Type); p != "" {
					return ty.Field(i).Name + " " + p
				}
			}
		}
		return ""
	}
	if p := walk(reflect.TypeOf(Op{})); p != "" {
		t.Fatalf("Op holds a pointer: %s", p)
	}
	if size := reflect.TypeOf(Op{}).Size(); size > 48 {
		t.Fatalf("Op is %d bytes, want at most 48", size)
	}
}
