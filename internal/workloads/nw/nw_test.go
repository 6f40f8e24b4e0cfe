package nw

import (
	"math/rand"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/netlist"
	"cascade/internal/sim"
	"cascade/internal/verilog"
)

func buildFlat(t *testing.T, c Config) *elab.Flat {
	t.Helper()
	src := Generate(c)
	st, errs := verilog.ParseSourceText(src)
	if errs != nil {
		t.Fatalf("generated NW does not parse: %v\n%s", errs, src)
	}
	f, err := elab.Elaborate(st.Modules[0], "nw", nil)
	if err != nil {
		t.Fatalf("elaborate: %v\n%s", err, src)
	}
	return f
}

func runToScore(t *testing.T, c Config, f *elab.Flat) int {
	t.Helper()
	s := sim.New(f, sim.Options{})
	clk := f.VarNamed("clk")
	settle := func() {
		for s.HasActive() || s.HasUpdates() {
			s.Evaluate()
			if s.HasUpdates() {
				s.Update()
			}
		}
	}
	settle()
	for i := 0; i < c.Cycles()+8; i++ {
		if s.Value("done").Uint64() == 1 {
			break
		}
		s.SetInput(clk, bits.FromUint64(1, 1))
		settle()
		s.SetInput(clk, bits.FromUint64(1, 0))
		settle()
	}
	if s.Value("done").Uint64() != 1 {
		t.Fatalf("NW did not finish in %d cycles", c.Cycles()+8)
	}
	if got, want := s.Value("cells").Uint64(), uint64(len(c.SeqA)*len(c.SeqB)); got != want {
		t.Fatalf("cells=%d, want %d", got, want)
	}
	return int(int16(s.Value("score").Uint64()))
}

func TestReferenceScore(t *testing.T) {
	// Wikipedia's GATTACA/GCATGCU example scores 0 with +1/-1/-1.
	c := DefaultConfig()
	if got := c.Score(); got != 0 {
		t.Fatalf("reference score=%d, want 0", got)
	}
	// Identical sequences score len*match.
	c2 := Config{SeqA: []byte("ACGT"), SeqB: []byte("ACGT"), Match: 2, Mismatch: -1, Gap: -2}
	if got := c2.Score(); got != 8 {
		t.Fatalf("identical score=%d, want 8", got)
	}
	// Aligning against empty-ish worst case: all gaps.
	c3 := Config{SeqA: []byte("AAAA"), SeqB: []byte("T"), Match: 1, Mismatch: -1, Gap: -1}
	if got := c3.Score(); got != -4 {
		t.Fatalf("gap-heavy score=%d, want -4", got)
	}
}

func TestVerilogMatchesReference(t *testing.T) {
	c := DefaultConfig()
	f := buildFlat(t, c)
	if got, want := runToScore(t, c, f), c.Score(); got != want {
		t.Fatalf("hardware score=%d, reference=%d", got, want)
	}
}

func TestVerilogRandomSequences(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	alphabet := []byte("ACGT")
	for trial := 0; trial < 10; trial++ {
		a := make([]byte, 2+r.Intn(9))
		b := make([]byte, 2+r.Intn(9))
		for i := range a {
			a[i] = alphabet[r.Intn(4)]
		}
		for i := range b {
			b[i] = alphabet[r.Intn(4)]
		}
		c := Config{SeqA: a, SeqB: b, Match: 1 + r.Intn(3), Mismatch: -1 - r.Intn(3), Gap: -1 - r.Intn(2)}
		f := buildFlat(t, c)
		if got, want := runToScore(t, c, f), c.Score(); got != want {
			t.Fatalf("trial %d (%s vs %s): hardware=%d reference=%d", trial, a, b, got, want)
		}
	}
}

func TestCompiledEngineMatches(t *testing.T) {
	c := DefaultConfig()
	f := buildFlat(t, c)
	prog, err := netlist.Compile(f)
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	m := netlist.NewMachine(prog)
	clk := f.VarNamed("clk")
	settle := func() {
		for m.HasActive() || m.HasUpdates() {
			m.Evaluate()
			if m.HasUpdates() {
				m.Update()
			}
		}
	}
	settle()
	for i := 0; i < c.Cycles()+8; i++ {
		if m.PeekVar(f.VarNamed("done")).Clone().Uint64() == 1 {
			break
		}
		m.SetInput(clk, bits.FromUint64(1, 1))
		settle()
		m.SetInput(clk, bits.FromUint64(1, 0))
		settle()
	}
	got := int(int16(m.PeekVar(f.VarNamed("score")).Clone().Uint64()))
	if want := c.Score(); got != want {
		t.Fatalf("compiled engine score=%d, want %d", got, want)
	}
}

func TestDisplayAndFinish(t *testing.T) {
	c := DefaultConfig()
	c.Display = true
	c.Finish = true
	f := buildFlat(t, c)
	var out string
	finished := false
	s := sim.New(f, sim.Options{
		Display: func(text string) { out += text },
		Finish:  func(int) { finished = true },
	})
	clk := f.VarNamed("clk")
	settle := func() {
		for s.HasActive() || s.HasUpdates() {
			s.Evaluate()
			if s.HasUpdates() {
				s.Update()
			}
		}
	}
	settle()
	for i := 0; i < c.Cycles()+8 && !finished; i++ {
		s.SetInput(clk, bits.FromUint64(1, 1))
		settle()
		s.SetInput(clk, bits.FromUint64(1, 0))
		settle()
	}
	if !finished {
		t.Fatal("did not finish")
	}
	if out == "" {
		t.Fatal("no display output")
	}
}

func TestGenerateProgramParses(t *testing.T) {
	mods, items, errs := verilog.ParseProgramFragment(GenerateProgram(DefaultConfig()))
	if errs != nil {
		t.Fatal(errs)
	}
	if len(mods) != 1 || len(items) < 4 {
		t.Fatalf("unexpected shape: %d mods %d items", len(mods), len(items))
	}
}
