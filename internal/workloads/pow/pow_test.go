package pow

import (
	"testing"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/netlist"
	"cascade/internal/sim"
	"cascade/internal/verilog"
)

func buildFlat(t *testing.T, cfg Config) *elab.Flat {
	t.Helper()
	src := Generate(cfg)
	st, errs := verilog.ParseSourceText(src)
	if errs != nil {
		t.Fatalf("parse generated miner: %v\n%s", errs, src)
	}
	f, err := elab.Elaborate(st.Modules[0], "pow", nil)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	return f
}

// driver runs the miner on either execution engine.
type driver interface {
	tick()
	val(name string) uint64
}

type simDriver struct {
	s   *sim.Simulator
	clk *elab.Var
}

func (d *simDriver) settle() {
	for d.s.HasActive() || d.s.HasUpdates() {
		d.s.Evaluate()
		if d.s.HasUpdates() {
			d.s.Update()
		}
	}
}

func (d *simDriver) tick() {
	d.s.SetInput(d.clk, bits.FromUint64(1, 1))
	d.settle()
	d.s.SetInput(d.clk, bits.FromUint64(1, 0))
	d.settle()
}

func (d *simDriver) val(name string) uint64 { return d.s.Value(name).Uint64() }

type hwDriver struct {
	m   *netlist.Machine
	clk *elab.Var
}

func (d *hwDriver) settle() {
	for d.m.HasActive() || d.m.HasUpdates() {
		d.m.Evaluate()
		if d.m.HasUpdates() {
			d.m.Update()
		}
	}
}

func (d *hwDriver) tick() {
	d.m.SetInput(d.clk, bits.FromUint64(1, 1))
	d.settle()
	d.m.SetInput(d.clk, bits.FromUint64(1, 0))
	d.settle()
}

func (d *hwDriver) val(name string) uint64 {
	return d.m.PeekVar(d.m.Prog().Flat.VarNamed(name)).Clone().Uint64()
}

// runHashes advances the miner until `hashes` reaches target.
func runHashes(t *testing.T, d driver, target uint64, maxTicks int) {
	t.Helper()
	for i := 0; i < maxTicks; i++ {
		if d.val("hashes") >= target {
			return
		}
		d.tick()
	}
	t.Fatalf("miner did not complete %d hashes in %d ticks (done %d)", target, maxTicks, d.val("hashes"))
}

func TestMinerMatchesCryptoSHA256(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Target = 0 // never found: just hash sequentially
	f := buildFlat(t, cfg)
	d := &simDriver{s: sim.New(f, sim.Options{}), clk: f.VarNamed("clk")}
	d.settle()
	for n := uint32(0); n < 3; n++ {
		runHashes(t, d, uint64(n+1), (int(n)+2)*CyclesPerHash+4)
		got := uint32(d.val("hash0"))
		want := cfg.refDigestWord0(n)
		if got != want {
			t.Fatalf("nonce %d: hardware hash0=%08x, crypto/sha256=%08x", n, got, want)
		}
	}
}

func TestMinerCompiledEngineMatches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Target = 0
	f := buildFlat(t, cfg)
	prog, err := netlist.Compile(f)
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	d := &hwDriver{m: netlist.NewMachine(prog), clk: f.VarNamed("clk")}
	d.settle()
	runHashes(t, d, 2, 3*CyclesPerHash)
	got := uint32(d.val("hash0"))
	want := cfg.refDigestWord0(1)
	if got != want {
		t.Fatalf("compiled engine hash0=%08x, want %08x", got, want)
	}
}

func TestMinerFindsNonce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Target = 0x10000000 // ~1/16 hashes solve
	wantNonce, ok := cfg.FindNonce(1000)
	if !ok {
		t.Fatal("reference search found nothing")
	}
	f := buildFlat(t, cfg)
	d := &simDriver{s: sim.New(f, sim.Options{}), clk: f.VarNamed("clk")}
	d.settle()
	maxTicks := (int(wantNonce-cfg.StartNonce) + 2) * CyclesPerHash
	for i := 0; i < maxTicks+10; i++ {
		if d.val("found") == 1 {
			break
		}
		d.tick()
	}
	if d.val("found") != 1 {
		t.Fatal("miner never found a solution")
	}
	if got := uint32(d.val("solution")); got != wantNonce {
		t.Fatalf("solution nonce=%d, want %d", got, wantNonce)
	}
}

func TestMinerDisplayAndFinish(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Target = 0xffffffff // first hash always solves
	cfg.Display = true
	cfg.FinishOnFind = true
	f := buildFlat(t, cfg)
	var out string
	finished := false
	s := sim.New(f, sim.Options{
		Display: func(text string) { out += text },
		Finish:  func(int) { finished = true },
	})
	d := &simDriver{s: s, clk: f.VarNamed("clk")}
	d.settle()
	for i := 0; i < CyclesPerHash+4 && !finished; i++ {
		d.tick()
	}
	if !finished {
		t.Fatal("miner did not $finish")
	}
	if out == "" || out[:5] != "FOUND" {
		t.Fatalf("display output wrong: %q", out)
	}
}

func TestMinerSynthesisStats(t *testing.T) {
	f := buildFlat(t, DefaultConfig())
	prog, err := netlist.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	st := prog.Stats
	// 16 schedule words + 8 working + digest/control: >900 FFs.
	if st.FFs < 900 {
		t.Fatalf("FF count %d implausibly small", st.FFs)
	}
	if st.Cells < 500 {
		t.Fatalf("cell count %d implausibly small", st.Cells)
	}
	t.Logf("pow stats: cells=%d ffs=%d crit=%d ops=%d", st.Cells, st.FFs, st.CritPath, st.CodeOps)
}
