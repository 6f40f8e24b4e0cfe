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
	"cascade/internal/imagetest"
	"cascade/internal/verilog"
	"cascade/internal/vgen"
	"cascade/internal/workloads/pow"
)

// fingerprintGolden is the digest of goldenSrc recorded with the
// original (encoding/binary.Write) hash. Cache keys, on-disk .bits
// entries and CI's .cascade-bits store are all addressed by it, so a
// faster Fingerprint must reproduce it byte for byte.
const fingerprintGolden = "ace8e30ad8b411c975bbc4d1420f5aa826aafa956658088f3b9977b118451d9c"

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

// oldFingerprint is the encoder Fingerprint replaced, kept as the
// reference: every constant and state word printed to a string of its
// own on the way into the hash, and the reset state read by name.
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

// TestFingerprintMatchesOldEncoder: the streaming hash feeds SHA-256 the
// bytes the string-building one did, on generated netlists of every
// shape the grammar has and on the two designs whose hashing is timed.
func TestFingerprintMatchesOldEncoder(t *testing.T) {
	progs := []*Program{mustCompile(t, goldenSrc), mustCompile(t, pow.Generate(pow.DefaultConfig())), mustCompile(t, sessionSrc(150))}
	if got := oldFingerprint(progs[0]); got != fingerprintGolden {
		t.Fatalf("the reference encoder itself drifted: %s", got)
	}
	for seed := uint64(0); seed < 220; seed++ {
		progs = append(progs, mustCompile(t, vgen.Module(seed).String()))
	}
	for i, p := range progs {
		if got, want := p.Fingerprint(), oldFingerprint(p); got != want {
			t.Errorf("program %d: Fingerprint = %s, the old encoder's %s", i, got, want)
		}
	}
}

// TestFingerprintAllocs: hashing allocates the hasher, its buffer, the
// sorted name list and the digest's string — not a string per constant
// and state word.
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
