package regexgen

import (
	"math/rand"
	"regexp"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/netlist"
	"cascade/internal/sim"
	"cascade/internal/verilog"
)

// oracle counts positions where a match of pattern ends, using Go's
// regexp as an independent reference: position i counts if some substring
// s[j..i] matches the whole pattern.
func oracle(t *testing.T, pattern string, input []byte) int {
	t.Helper()
	re, err := regexp.Compile(`^(?s:` + pattern + `)$`)
	if err != nil {
		t.Fatalf("go regexp rejects %q: %v", pattern, err)
	}
	count := 0
	for i := 0; i < len(input); i++ {
		for j := 0; j <= i; j++ {
			if re.Match(input[j : i+1]) {
				count++
				break
			}
		}
	}
	return count
}

var testPatterns = []string{
	"abc",
	"a",
	"ab|cd",
	"a*b",
	"a+b?c",
	"(ab)+",
	"[a-c]x",
	"[^x]y",
	"h(el|al)+lo",
	"a.c",
	"x[0-9]+y",
	"(a|b)*abb",
	`GET /[a-z]*\.html`,
}

func randInput(r *rand.Rand, n int, alphabet string) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = alphabet[r.Intn(len(alphabet))]
	}
	return out
}

func TestDFAMatchesGoRegexp(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for _, pat := range testPatterns {
		d, err := CompileDFA(pat)
		if err != nil {
			t.Fatalf("%q: %v", pat, err)
		}
		for trial := 0; trial < 8; trial++ {
			in := randInput(r, 60, "abcdhelox0123GET /.tml")
			got := d.Run(in)
			want := oracle(t, pat, in)
			if got != want {
				t.Fatalf("pattern %q input %q: dfa=%d oracle=%d", pat, in, got, want)
			}
		}
	}
}

func TestDFAExactCases(t *testing.T) {
	d, err := CompileDFA("ab")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Run([]byte("xxabyyabab")); got != 3 {
		t.Fatalf("count=%d, want 3", got)
	}
	d, err = CompileDFA("a*")
	if err != nil {
		t.Fatal(err)
	}
	// Empty-match patterns accept at every position.
	if got := d.Run([]byte("bbb")); got != 3 {
		t.Fatalf("a* on bbb: %d, want 3", got)
	}
}

func TestParserErrors(t *testing.T) {
	for _, bad := range []string{"(", "[a", "a|*", "*a", "a\\", "[z-a]", "(a))"} {
		if _, err := CompileDFA(bad); err == nil {
			t.Fatalf("CompileDFA(%q) should fail", bad)
		}
	}
}

// verilogMatcher runs the generated module in the reference simulator.
type verilogMatcher struct {
	s                    *sim.Simulator
	clk, byteIn, validIn *elab.Var
}

func newVerilogMatcher(t *testing.T, pattern string) (*verilogMatcher, *DFA) {
	t.Helper()
	src, d, err := Generate(pattern)
	if err != nil {
		t.Fatal(err)
	}
	st, errs := verilog.ParseSourceText(src)
	if errs != nil {
		t.Fatalf("generated matcher does not parse: %v\n%s", errs, src)
	}
	f, err := elab.Elaborate(st.Modules[0], "rx", nil)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	m := &verilogMatcher{
		s:       sim.New(f, sim.Options{}),
		clk:     f.VarNamed("clk"),
		byteIn:  f.VarNamed("byte_in"),
		validIn: f.VarNamed("valid"),
	}
	m.settle()
	return m, d
}

func (m *verilogMatcher) settle() {
	for m.s.HasActive() || m.s.HasUpdates() {
		m.s.Evaluate()
		if m.s.HasUpdates() {
			m.s.Update()
		}
	}
}

func (m *verilogMatcher) feed(b byte) {
	m.s.SetInput(m.byteIn, bits.FromUint64(8, uint64(b)))
	m.s.SetInput(m.validIn, bits.FromUint64(1, 1))
	m.settle()
	m.s.SetInput(m.clk, bits.FromUint64(1, 1))
	m.settle()
	m.s.SetInput(m.clk, bits.FromUint64(1, 0))
	m.settle()
}

func (m *verilogMatcher) matches() uint64 { return m.s.Value("matches").Uint64() }

func TestVerilogMatcherAgainstDFA(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for _, pat := range []string{"abc", "(ab)+", "[a-c]x", "a.c"} {
		m, d := newVerilogMatcher(t, pat)
		in := randInput(r, 80, "abcx")
		for _, b := range in {
			m.feed(b)
		}
		if got, want := int(m.matches()), d.Run(in); got != want {
			t.Fatalf("pattern %q: verilog=%d dfa=%d (input %q)", pat, got, want, in)
		}
		if got := m.s.Value("consumed").Uint64(); got != uint64(len(in)) {
			t.Fatalf("consumed=%d, want %d", got, len(in))
		}
	}
}

func TestVerilogMatcherCompiledEngine(t *testing.T) {
	src, d, err := Generate("(a|b)*abb")
	if err != nil {
		t.Fatal(err)
	}
	st, errs := verilog.ParseSourceText(src)
	if errs != nil {
		t.Fatal(errs)
	}
	f, err := elab.Elaborate(st.Modules[0], "rx", nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := netlist.Compile(f)
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	m := netlist.NewMachine(prog)
	clk := f.VarNamed("clk")
	byteIn := f.VarNamed("byte_in")
	valid := f.VarNamed("valid")
	settle := func() {
		for m.HasActive() || m.HasUpdates() {
			m.Evaluate()
			if m.HasUpdates() {
				m.Update()
			}
		}
	}
	settle()
	in := []byte("ababbababbabbb")
	for _, b := range in {
		m.SetInput(byteIn, bits.FromUint64(8, uint64(b)))
		m.SetInput(valid, bits.FromUint64(1, 1))
		settle()
		m.SetInput(clk, bits.FromUint64(1, 1))
		settle()
		m.SetInput(clk, bits.FromUint64(1, 0))
		settle()
	}
	got := m.PeekVar(f.VarNamed("matches")).Clone().Uint64()
	if want := uint64(d.Run(in)); got != want {
		t.Fatalf("compiled matcher=%d, dfa=%d", got, want)
	}
}

func TestGenerateStreamingParses(t *testing.T) {
	prog, d, err := GenerateStreaming("GET /[a-z]*")
	if err != nil {
		t.Fatal(err)
	}
	if d.States() < 2 {
		t.Fatal("suspiciously small DFA")
	}
	mods, items, errs := verilog.ParseProgramFragment(prog)
	if errs != nil {
		t.Fatalf("streaming program: %v", errs)
	}
	if len(mods) != 1 || len(items) < 3 {
		t.Fatalf("unexpected shape: %d mods, %d items", len(mods), len(items))
	}
}

func TestDFAStateCap(t *testing.T) {
	// A pathological pattern that blows up subset construction.
	pat := "(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)"
	if _, err := CompileDFA(pat); err == nil {
		t.Skip("pattern fits; cap not exercised on this machine")
	}
}

func BenchmarkDFARun(b *testing.B) {
	d, err := CompileDFA("GET /[a-z]*")
	if err != nil {
		b.Fatal(err)
	}
	in := randInput(rand.New(rand.NewSource(1)), 4096, "GET /abcdefgh")
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Run(in)
	}
}
