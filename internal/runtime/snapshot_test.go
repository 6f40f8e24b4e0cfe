package runtime

import (
	"context"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"cascade/internal/fpga"
	"cascade/internal/imagetest"
	"cascade/internal/stdlib"
	"cascade/internal/vclock"
	"cascade/internal/workloads/pow"
)

func TestSnapshotRestoreContinuesExactly(t *testing.T) {
	src := `
reg [15:0] n = 0;
always @(posedge clk.val) n <= n + 3;
assign led.val = n[7:0];`
	a := newTestRuntime(t, Options{OpenLoopTargetPs: 10 * vclock.Us})
	a.MustEval(src)
	a.RunTicks(40)
	ledA := a.World().Led("main.led")
	snap := a.Snapshot()

	// Restore onto a different "machine": a bigger device, slower
	// toolchain.
	dev := fpga.NewDevice(200_000, 50_000_000)
	b := New(Options{Device: dev, Toolchain: fastToolchain(dev), OpenLoopTargetPs: 10 * vclock.Us})
	if err := b.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := b.World().Led("main.led"); got != ledA {
		t.Fatalf("led not restored: %d vs %d", got, ledA)
	}
	if b.Steps() != a.Steps() {
		t.Fatalf("$time discontinuity: %d vs %d", b.Steps(), a.Steps())
	}
	// Both continue obeying the program's invariant n = 3*posedges
	// (open-loop bursts advance the two runtimes by different tick
	// counts, so compare each against the invariant, not each other).
	a.RunTicks(10)
	b.RunTicks(10)
	for _, rt := range []*Runtime{a, b} {
		want := (3 * ((rt.Steps() + 1) / 2)) & 0xff
		if got := rt.World().Led("main.led"); got != want {
			t.Fatalf("invariant broken after migration: led=%d, want %d at step %d", got, want, rt.Steps())
		}
	}
	// The restored runtime's JIT climbs to hardware on the new device.
	if !b.WaitForPhase(PhaseOpenLoop, 20000) {
		t.Fatalf("restored runtime stuck in %v", b.Phase())
	}
}

func TestSnapshotRoundTripsThroughText(t *testing.T) {
	a := newTestRuntime(t, Options{Features: Features{DisableJIT: true}})
	a.MustEval(`
FIFO#(8, 16) fifo();
reg [7:0] sum = 0;
assign fifo.rreq = !fifo.empty;
always @(posedge clk.val) if (!fifo.empty) sum <= sum + fifo.rdata;`)
	a.World().Stream("main.fifo").Push(1, 2, 3, 4, 5, 6)
	a.RunTicks(6) // consume some, leave some queued in the FIFO

	blob := EncodeSnapshot(a.Snapshot())
	if !strings.HasPrefix(blob, "#cascade-snapshot") {
		t.Fatal("bad header")
	}
	snap, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	b := newTestRuntime(t, Options{Features: Features{DisableJIT: true}})
	// newTestRuntime evals the prelude; Restore needs a truly fresh one.
	dev := fpga.NewCycloneV()
	b = New(Options{Device: dev, Toolchain: fastToolchain(dev), Features: Features{DisableJIT: true}})
	if err := b.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	// The FIFO's queued words traveled inside the snapshot: finish the
	// sum on the new runtime.
	a.RunTicks(20)
	b.RunTicks(20)
	wantSum := uint64(1 + 2 + 3 + 4 + 5 + 6)
	stA := imagetest.Of(a.ver.execElabs["main"].Layout(), a.slotOf("main").c.GetState()).Scalar("sum").Uint64()
	stB := imagetest.Of(b.ver.execElabs["main"].Layout(), b.slotOf("main").c.GetState()).Scalar("sum").Uint64()
	if stA != wantSum || stB != wantSum {
		t.Fatalf("sums diverged: a=%d b=%d want %d", stA, stB, wantSum)
	}
}

func TestSnapshotPoWMigrationMidSearch(t *testing.T) {
	cfg := pow.DefaultConfig()
	cfg.Target = 0x10000000
	cfg.FinishOnFind = true
	wantNonce, ok := cfg.FindNonce(1000)
	if !ok {
		t.Fatal("no reference solution")
	}
	prog := pow.Generate(cfg) + `
wire [31:0] hashes, nonce, hash0, sol;
wire found;
Pow miner(.clk(clk.val), .hashes(hashes), .nonce(nonce),
          .found(found), .hash0(hash0), .solution(sol));
assign led.val = sol[7:0];
`
	a := newTestRuntime(t, Options{OpenLoopTargetPs: 10 * vclock.Us})
	a.MustEval(prog)
	// Run partway through the search, then migrate.
	a.RunTicks(uint64(wantNonce) * pow.CyclesPerHash / 2)
	snap := a.Snapshot()

	dev := fpga.NewCycloneV()
	b := New(Options{Device: dev, Toolchain: fastToolchain(dev), OpenLoopTargetPs: 10 * vclock.Us})
	if err := b.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if fin, err := b.RunUntilFinishCtx(context.Background(), uint64(wantNonce+4)*pow.CyclesPerHash*4); !fin || err != nil {
		t.Fatal("migrated miner never finished")
	}
	if got := b.World().Led("main.led"); got != uint64(wantNonce&0xff) {
		t.Fatalf("migrated miner found nonce %#x, want low byte of %#x", got, wantNonce)
	}
}

func TestRestoreReplacesRunningProgram(t *testing.T) {
	// Session A: a counter, advanced past zero, snapshotted.
	a := newTestRuntime(t, Options{Features: Features{DisableJIT: true}})
	a.MustEval("reg [7:0] n = 0; always @(posedge clk.val) n <= n + 1; assign led.val = n;")
	a.RunTicks(20)
	snap := a.Snapshot()

	// Session B runs a different program; Restore replaces it in place
	// (the REPL's :load on a live session).
	b := newTestRuntime(t, Options{Features: Features{DisableJIT: true}})
	b.MustEval("reg [7:0] m = 99; assign led.val = m;")
	b.RunTicks(4)
	if err := b.Restore(snap); err != nil {
		t.Fatalf("restore onto a used runtime: %v", err)
	}
	if b.Ticks() != a.Ticks() {
		t.Fatalf("restored tick count %d != %d", b.Ticks(), a.Ticks())
	}
	a.RunTicks(8)
	b.RunTicks(8)
	if la, lb := a.World().Led("main.led"), b.World().Led("main.led"); la != lb {
		t.Fatalf("replaced program diverged: %d != %d", la, lb)
	}
}

func TestRestoreFailureKeepsRunningProgram(t *testing.T) {
	r := newTestRuntime(t, Options{Features: Features{DisableJIT: true}})
	r.MustEval("reg [7:0] m = 42; assign led.val = m;")
	r.RunTicks(4)
	if err := r.Restore(&Snapshot{Source: "module Broken("}); err == nil {
		t.Fatal("corrupt snapshot should be rejected")
	}
	// The rejected restore never touched the running program.
	r.RunTicks(2)
	if led := r.World().Led("main.led"); led != 42 {
		t.Fatalf("program lost after failed restore: led=%d", led)
	}
}

func TestSnapshotCarriesBoardInputs(t *testing.T) {
	a := newTestRuntime(t, Options{Features: Features{DisableJIT: true}})
	a.MustEval(`
reg [7:0] n = 0;
always @(posedge clk.val) n <= n + pad.val;
assign led.val = n;`)
	a.World().PressPad("main.pad", 5)
	a.RunTicks(4)
	snap := a.Snapshot()

	dev := fpga.NewCycloneV()
	b := New(Options{Device: dev, Toolchain: fastToolchain(dev), Features: Features{DisableJIT: true}})
	if err := b.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	// The held-down pad traveled with the snapshot: without it the
	// restored counter would freeze.
	if got := b.World().Pad("main.pad"); got != 5 {
		t.Fatalf("pad state lost: %d, want 5", got)
	}
	a.RunTicks(6)
	b.RunTicks(6)
	if la, lb := a.World().Led("main.led"), b.World().Led("main.led"); la != lb {
		t.Fatalf("restored run diverged: led %d vs %d", lb, la)
	}
}

func TestSnapshotCarriesVirtualTime(t *testing.T) {
	a := newTestRuntime(t, Options{Features: Features{DisableJIT: true}})
	a.MustEval(`always @(posedge clk.val) ;`)
	a.RunTicks(50)
	snap := a.Snapshot()
	if snap.VTime.NowPs == 0 {
		t.Fatal("snapshot did not capture virtual time")
	}
	dev := fpga.NewCycloneV()
	b := New(Options{Device: dev, Toolchain: fastToolchain(dev), Features: Features{DisableJIT: true}})
	if err := b.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if b.VirtualNow() < snap.VTime.NowPs {
		t.Fatalf("virtual clock went backwards: %d < %d", b.VirtualNow(), snap.VTime.NowPs)
	}
}

func TestSnapshotDetectsCorruption(t *testing.T) {
	a := newTestRuntime(t, Options{Features: Features{DisableJIT: true}})
	a.MustEval(`reg [7:0] n = 0; always @(posedge clk.val) n <= n + 1; assign led.val = n;`)
	a.RunTicks(10)
	blob := EncodeSnapshot(a.Snapshot())

	// Flip bytes spread across the blob: decode must reject every one.
	for _, frac := range []int{3, 2} {
		bad := []byte(blob)
		bad[len(bad)/frac] ^= 0x20
		if _, err := DecodeSnapshot(string(bad)); err == nil {
			t.Fatalf("corruption at byte %d went undetected", len(bad)/frac)
		}
	}
	// Truncation at any point must be rejected, never half-decoded.
	for _, n := range []int{0, 1, len(blob) / 2, len(blob) - 1} {
		if _, err := DecodeSnapshot(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
}

func TestRestoreFailureLeavesRuntimeReusable(t *testing.T) {
	dev := fpga.NewCycloneV()
	r := New(Options{Device: dev, Toolchain: fastToolchain(dev), Features: Features{DisableJIT: true}})

	// A snapshot that fails validation must not consume the runtime's
	// freshness: each rejected restore leaves it ready for the next.
	for _, snap := range []*Snapshot{
		{Source: "module garbage("}, // parse error
		{Source: "Undefined u();"},  // build error
		{Source: "wire x;", Inputs: []stdlib.InputState{{Kind: "bogus", Path: "p"}}}, // bad input kind
	} {
		if err := r.Restore(snap); err == nil {
			t.Fatalf("restore of %q should fail", snap.Source)
		}
	}
	good := &Snapshot{Source: DefaultPrelude + " reg [7:0] n = 9; assign led.val = n;", Steps: 4}
	if err := r.Restore(good); err != nil {
		t.Fatalf("runtime unusable after failed restores: %v", err)
	}
	r.RunTicks(2)
	if got := r.World().Led("main.led"); got != 9 {
		t.Fatalf("restored program not running: led=%d", got)
	}
}

func TestResetFreshAllowsRestoreAfterUse(t *testing.T) {
	// resetFreshLocked is Restore's rollback for failures that strike
	// after the commit point; exercise it directly.
	r := newTestRuntime(t, Options{Features: Features{DisableJIT: true}})
	r.MustEval(`reg [7:0] n = 0; always @(posedge clk.val) n <= n + 1; assign led.val = n;`)
	r.RunTicks(10)
	r.mu.Lock()
	r.resetFreshLocked()
	r.mu.Unlock()
	if r.Steps() != 0 {
		t.Fatalf("reset runtime reports %d steps", r.Steps())
	}
	if err := r.Restore(&Snapshot{Source: DefaultPrelude + " assign led.val = 7;"}); err != nil {
		t.Fatalf("restore after reset: %v", err)
	}
	r.RunTicks(2)
	if got := r.World().Led("main.led"); got != 7 {
		t.Fatalf("led=%d after post-reset restore", got)
	}
}

// TestSnapshotsSharePrintedSource: a version's program is printed once, so
// every snapshot of it — each checkpoint, each :save — carries the same
// string; a refused eval keeps the version and its printed source, and an
// accepted one prints its new version afresh.
func TestSnapshotsSharePrintedSource(t *testing.T) {
	r := newTestRuntime(t, Options{Features: Features{DisableJIT: true}})
	r.MustEval(persistProgA)
	// The first asks race: snapshots and :program from several goroutines.
	srcs := make([]string, 4)
	var wg sync.WaitGroup
	for i := range srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				srcs[i] = r.Snapshot().Source
			} else {
				srcs[i] = r.ProgramSource()
			}
		}()
	}
	wg.Wait()
	r.RunTicks(10)
	a := r.Snapshot()
	for _, s := range append(srcs, r.Snapshot().Source) {
		if unsafe.StringData(a.Source) != unsafe.StringData(s) {
			t.Fatal("snapshots of one version printed the program more than once")
		}
	}
	if err := r.Eval("wire [7:0 oops"); err == nil {
		t.Fatal("malformed fragment accepted")
	}
	if c := r.ProgramSource(); unsafe.StringData(c) != unsafe.StringData(a.Source) {
		t.Fatal("a refused eval replaced the printed source")
	}
	r.MustEval("wire extra;")
	if d := r.Snapshot(); unsafe.StringData(d.Source) == unsafe.StringData(a.Source) || !strings.Contains(d.Source, "extra") {
		t.Fatalf("the new version's source is not its own:\n%s", d.Source)
	}
}

func TestDecodeSnapshotErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"not a snapshot",
		"#cascade-snapshot steps=zero\nrest",
		"#cascade-snapshot steps=1\n#bogus\n",
		// The pre-checksum v1 text blob: well-formed, and refused — nothing
		// decodes that cannot verify.
		"#cascade-snapshot steps=8\n#source\nwire x;\n",
	} {
		if _, err := DecodeSnapshot(bad); err == nil {
			t.Fatalf("DecodeSnapshot(%q) should fail", bad)
		}
	}
}

// TestRestoreRefusesMisfitState: a snapshot DecodeSnapshot accepts can
// still name state that does not fit the program it carries — a section
// cut short or grown, or one for a subprogram the program lacks. Restore
// refuses each before it commits, and the runtime stays usable: the
// snapshot as taken restores and runs on. An emptied section is no state
// (a hosted engine's failed read) and fits.
func TestRestoreRefusesMisfitState(t *testing.T) {
	a := newTestRuntime(t, Options{Features: Features{DisableJIT: true}})
	a.MustEval("Memory#(4, 16) mem();\nreg [7:0] n = 0;\nalways @(posedge clk.val) n <= n + 1;\n" +
		"assign mem.waddr = n[3:0];\nassign mem.wdata = {n, n};\nassign mem.wen = 1;\nassign led.val = n;\n")
	a.RunTicks(3)
	a.Step() // the Memory holds a sampled write
	good := a.Snapshot()
	misfits := map[string]func(map[string][]uint64){
		"unknown subprogram": func(s map[string][]uint64) { s["main.nowhere"] = []uint64{1} },
	}
	for path, img := range good.States {
		if len(img) > 1 {
			misfits[path+" cut short"] = func(s map[string][]uint64) { s[path] = s[path][:len(s[path])-1] }
		}
		misfits[path+" grown"] = func(s map[string][]uint64) { s[path] = append(s[path], 0) }
	}
	b := newTestRuntime(t, Options{Features: Features{DisableJIT: true}})
	for name, misfit := range misfits {
		bad := *good
		bad.States = make(map[string][]uint64, len(good.States))
		for p, img := range good.States {
			bad.States[p] = slices.Clone(img)
		}
		misfit(bad.States)
		snap, err := DecodeSnapshot(EncodeSnapshot(&bad))
		if err != nil {
			t.Fatalf("%s: the codec refused the snapshot: %v", name, err)
		}
		if err := b.Restore(snap); err == nil {
			t.Fatalf("%s: Restore accepted state that does not fit", name)
		}
	}
	for path := range good.States {
		emptied := *good
		emptied.States = maps.Clone(good.States)
		emptied.States[path] = []uint64{}
		if err := b.Restore(&emptied); err != nil {
			t.Fatalf("%s emptied: %v", path, err)
		}
	}
	if err := b.Restore(good); err != nil {
		t.Fatalf("the runtime that refused misfits cannot restore: %v", err)
	}
	a.RunTicks(5)
	b.RunTicks(5)
	if la, lb := a.World().Led("main.led"), b.World().Led("main.led"); la != lb {
		t.Fatalf("restored runtime diverged: led %d vs %d", lb, la)
	}
}
