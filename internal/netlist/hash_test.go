package netlist

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	bv "cascade/internal/bits"
	"cascade/internal/vgen"
	"cascade/internal/workloads/pow"
)

// fingerprintGolden is the digest of goldenSrc recorded with the
// original (encoding/binary.Write) hash. Cache keys, on-disk .bits
// entries and CI's .cascade-bits store are all addressed by it, so a
// faster Fingerprint must reproduce it byte for byte.
const fingerprintGolden = "ace8e30ad8b411c975bbc4d1420f5aa826aafa956658088f3b9977b118451d9c"

// goldenSrc covers every kind of field the hash walks: a narrow and a
// wider-than-64-bit register with initial values (ResetState), a memory
// with an initialised word (ResetMems), constants of both widths, and a
// system task with a format string.
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
	if !wide || mems == 0 || tasks == 0 || len(p.ResetMems) == 0 {
		t.Fatalf("golden module lost coverage: wide=%v mems=%d tasks=%d resetMems=%d", wide, mems, tasks, len(p.ResetMems))
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

// oldFingerprint is the encoder Fingerprint replaced, kept as the
// reference: every constant and state word printed to a string of its
// own on the way into the hash.
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
		wi(int(op.Kind), op.Dst, op.Width, op.Hi, op.Lo, op.N, op.Target, op.Aux)
		wi(len(op.Srcs))
		wi(op.Srcs...)
		wb(op.Wide)
		wvec(op.Const)
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
	names := make([]string, 0, len(p.ResetState))
	for n := range p.ResetState {
		names = append(names, n)
	}
	sort.Strings(names)
	wlen(len(names))
	for _, n := range names {
		ws(n)
		wvec(p.ResetState[n])
	}
	names = names[:0]
	for n := range p.ResetMems {
		names = append(names, n)
	}
	sort.Strings(names)
	wi(len(names))
	for _, n := range names {
		ws(n)
		wi(len(p.ResetMems[n]))
		for _, w := range p.ResetMems[n] {
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
