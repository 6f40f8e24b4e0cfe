package runtime

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/persist"
	"cascade/internal/toolchain"
	"cascade/internal/workloads/pow"
)

// persistTestOptions builds Options for a persisted runtime: fast
// toolchain, buffered view, open loop disabled (open-loop burst sizing
// adapts to wall-clock time, so exact step-for-step replay is only
// guaranteed through the lock-step phases; see replay_test.go for the
// same exclusion).
func persistTestOptions(dir string, par int, inj *fault.Injector) (Options, *BufView) {
	view := &BufView{Quiet: true}
	dev := fpga.NewCycloneV()
	return Options{
		Device:      dev,
		Toolchain:   fastToolchain(dev),
		View:        view,
		Parallelism: par,
		Injector:    inj,
		Features:    Features{DisableOpenLoop: true},
		Persist:     &PersistOptions{Dir: dir, EverySteps: 64, SyncEveryRecord: true},
	}, view
}

// persistScript drives a deterministic session with display output,
// inputs, and a mid-run eval. Each op is applied through the same
// helper the recovery continuation uses, so reference and recovered
// runs are byte-comparable.
const persistProgA = `
reg [7:0] n = 0;
always @(posedge clk.val) begin
  n <= n + 1;
  if (n % 16 == 0) $display("n=%d pad=%d", n, pad.val);
end
assign led.val = n;`

const persistProgB = `
reg [7:0] m = 0;
always @(posedge clk.val) begin
  m <= m + 3;
  if (m % 32 == 1) $display("m=%d", m);
end`

type persistOp struct {
	kind  string // "eval", "pad", "ticks"
	src   string
	value uint64
	ticks uint64
}

func persistScriptOps() []persistOp {
	return []persistOp{
		{kind: "eval", src: DefaultPrelude},
		{kind: "eval", src: persistProgA},
		{kind: "ticks", ticks: 40},
		{kind: "pad", value: 5},
		{kind: "ticks", ticks: 60},
		{kind: "eval", src: persistProgB},
		{kind: "ticks", ticks: 50},
		{kind: "pad", value: 2},
		{kind: "ticks", ticks: 70},
	}
}

func applyPersistOp(r *Runtime, op persistOp) error {
	switch op.kind {
	case "eval":
		return r.Eval(op.src)
	case "pad":
		r.World().PressPad("main.pad", op.value)
		return nil
	case "ticks":
		r.RunTicks(op.ticks)
		return nil
	}
	return fmt.Errorf("unknown op %q", op.kind)
}

// copyDir snapshots a persistence directory (the moment of a simulated
// kill: everything durable survives, nothing else does).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	roundTrip(t, func(dir string) (Options, *BufView) { return persistTestOptions(dir, 1, nil) })
}

// roundTrip runs a session over a fresh directory, closes it, and has a
// new process over the same directory resume exactly and continue to the
// same future.
func roundTrip(t *testing.T, options func(dir string) (Options, *BufView)) {
	dir := t.TempDir()
	opts, view := options(dir)
	r, info, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if info.Recovered {
		t.Fatal("fresh dir reported recovery")
	}
	r.MustEval(DefaultPrelude)
	r.MustEval(persistProgA)
	r.World().PressPad("main.pad", 3)
	r.RunTicks(200) // crosses the 64-step checkpoint cadence
	st := r.Stats()
	if !st.Persist.Enabled || st.Persist.Checkpoints == 0 {
		t.Fatalf("no checkpoints written: %+v", st.Persist)
	}
	if st.Persist.Records == 0 || st.Persist.JournalBytes == 0 {
		t.Fatalf("journal not populated: %+v", st.Persist)
	}
	if opts.Remote != nil && st.Xport.RoundTrips == 0 {
		t.Fatalf("reference run metered no remote traffic: %+v", st.Xport)
	}
	wantSteps, wantLed, wantOut := r.Steps(), r.World().Led("main.led"), view.Output()
	if wantOut == "" {
		t.Fatal("reference run produced no output")
	}
	if err := r.ClosePersistence(); err != nil {
		t.Fatal(err)
	}
	r.CloseRemote()

	// A new process over the same directory resumes exactly (hosted engines
	// respawned on the daemon and restored over SetState).
	opts2, view2 := options(dir)
	r2, info2, err := Open(opts2)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.ClosePersistence()
	defer r2.CloseRemote()
	if !info2.Recovered {
		t.Fatal("recovery not detected")
	}
	if r2.Steps() != wantSteps {
		t.Fatalf("resumed at step %d, want %d", r2.Steps(), wantSteps)
	}
	if got := r2.World().Led("main.led"); got != wantLed {
		t.Fatalf("led after recovery = %d, want %d", got, wantLed)
	}
	if got := r2.World().Pad("main.pad"); got != 3 {
		t.Fatalf("pad state lost across recovery: %d", got)
	}
	// The recovered output stream continues the original's: checkpoint
	// offset + replayed bytes reconstruct a prefix of the reference.
	rebuilt := wantOut[:info2.OutputBytesAtCheckpoint] + view2.Output()
	if !strings.HasPrefix(wantOut, rebuilt) {
		t.Fatalf("replay output diverged:\nref  %q\ngot  %q", wantOut, rebuilt)
	}
	// Both continue to the same future.
	r.RunTicks(50)
	r2.RunTicks(50)
	if a, b := r.World().Led("main.led"), r2.World().Led("main.led"); a != b {
		t.Fatalf("post-recovery divergence: led %d vs %d", b, a)
	}
	if view.Output() != wantOut[:info2.OutputBytesAtCheckpoint]+view2.Output() {
		t.Fatalf("post-recovery output diverged")
	}
}

// TestRecoveryStopsAtLastJournaledStep: the crashed process journaled its
// steps in software (its compile was minutes of virtual time away); the
// recovering one finds the bitstream in a warm, zero-latency disk store,
// so it reaches the open-loop phase while still replaying. Replay must
// nevertheless stop on the journal's last step — an unclamped burst ran
// past it — and the two processes' output must splice into that of an
// uninterrupted run.
func TestRecoveryStopsAtLastJournaledStep(t *testing.T) {
	bits, dir := t.TempDir(), t.TempDir()
	warm := toolchain.DefaultOptions()
	warm.Scale, warm.BasePs, warm.CacheHitPs, warm.CacheDir = 1e9, 1, 1, bits
	options := func(tc toolchain.Options, persist bool) (Options, *BufView) {
		view := &BufView{Quiet: true}
		dev := fpga.NewCycloneV()
		o := Options{Device: dev, Toolchain: toolchain.New(dev, tc), View: view, Parallelism: 1}
		if persist {
			o.Persist = &PersistOptions{Dir: dir, EverySteps: 128, SyncEveryRecord: true}
		}
		return o, view
	}
	program := func(r *Runtime) {
		r.MustEval(DefaultPrelude)
		r.MustEval(persistProgA)
	}

	// Warm the store: a throwaway process takes the design to hardware.
	o, _ := options(warm, false)
	w := New(o)
	program(w)
	if !w.WaitForPhase(PhaseOpenLoop, 1000) {
		t.Fatalf("warm-up never reached open loop: %v", w.Phase())
	}

	// The crashed process: full-latency compile, no disk store.
	o, view1 := options(toolchain.DefaultOptions(), true)
	r1, _, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	program(r1)
	r1.RunTicks(150)
	if r1.Phase() != PhaseInlined {
		t.Fatalf("crashed process should still be in software, is in %v", r1.Phase())
	}
	killedAt := r1.Steps()

	// Recovery over the warm store.
	o, view2 := options(warm, true)
	r2, info, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.ClosePersistence()
	if r2.Phase() != PhaseOpenLoop {
		t.Fatalf("recovery should replay into open loop (else this test checks nothing), is in %v", r2.Phase())
	}
	if !info.Recovered || info.ResumedSteps != killedAt {
		t.Fatalf("resumed at step %d, last journaled step is %d", info.ResumedSteps, killedAt)
	}
	r2.RunTicks(100)

	o, ref := options(warm, false)
	o.Features.DisableJIT = true
	u := New(o)
	program(u)
	for u.Steps() < r2.Steps() {
		u.Step()
	}
	// The recovered view re-emits what replay re-executed, so it continues
	// the crashed process's stream from the checkpoint's output offset.
	if got := view1.Output()[:info.OutputBytesAtCheckpoint] + view2.Output(); got != ref.Output() {
		t.Fatalf("recovered output diverged from an uninterrupted run:\nref %q\ngot %q", ref.Output(), got)
	}
}

// TestCrashRecoveryAtEveryRecordBoundary is the crash-recovery property
// test: run a scripted session once as reference, snapshotting the
// persistence directory after every journal append (every possible
// kill point on a record boundary); then, for every snapshot, recover
// a fresh process from it, replay, finish the rest of the script, and
// require the full observable output and final state to be
// byte-identical to the reference. Mid-record kills are
// TestCrashRecoveryTornTail's subject.
func TestCrashRecoveryAtEveryRecordBoundary(t *testing.T) {
	configs := []struct {
		name string
		par  int
		inj  func() *fault.Injector
	}{
		{name: "serial", par: 1, inj: func() *fault.Injector { return nil }},
		{name: "parallel", par: 4, inj: func() *fault.Injector { return nil }},
		{name: "faults", par: 1, inj: func() *fault.Injector {
			return fault.New(fault.Config{Seed: 7, BusError: 0.02, MaxBusFaults: 3, CompileTransient: 0.3, MaxCompileFaults: 2})
		}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			refDir := t.TempDir()
			killRoot := t.TempDir()

			// Reference run: copy the directory at every record boundary
			// (every possible kill point) and note where the script
			// resumes for each — an eval or input record means its op is
			// durable and will be replayed (resume after it); an advance
			// record means a "ticks" op is mid-flight (resume inside it,
			// positionally).
			opts, refView := persistTestOptions(refDir, cfg.par, cfg.inj())
			ops := persistScriptOps()
			var kills []int // kill i -> script op index to resume from
			curOp := 0
			opts.Persist.hookAfterAppend = func(seq uint64, kind byte) {
				resume := curOp
				if kind == recKindEval || kind == recKindInput {
					resume = curOp + 1
				}
				kills = append(kills, resume)
				copyDir(t, refDir, filepath.Join(killRoot, fmt.Sprintf("k%06d", len(kills))))
			}
			ref, info, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			if info.Recovered {
				t.Fatal("fresh dir reported recovery")
			}
			stepsAfter := make([]uint64, len(ops))
			for i, op := range ops {
				curOp = i
				if err := applyPersistOp(ref, op); err != nil {
					t.Fatal(err)
				}
				stepsAfter[i] = ref.Steps()
			}
			ref.ClosePersistence()
			refOut := refView.Output()
			refSteps, refLed := ref.Steps(), ref.World().Led("main.led")
			if len(kills) < 20 {
				t.Fatalf("only %d kill points; journaling is not running", len(kills))
			}

			// Thin the kill set to keep runtime bounded while still
			// covering every op transition: always take boundaries where
			// the op index changes, plus every 17th.
			var take []int
			for i := range kills {
				if i == 0 || i == len(kills)-1 || kills[i] != kills[i-1] || i%17 == 0 {
					take = append(take, i)
				}
			}

			for _, i := range take {
				killDir := filepath.Join(killRoot, fmt.Sprintf("k%06d", i+1))
				opts2, view2 := persistTestOptions(killDir, cfg.par, cfg.inj())
				r2, info2, err := Open(opts2)
				if err != nil {
					t.Fatalf("kill %d: recovery: %v", i, err)
				}
				// Finish the script from the resume index. Ops before it
				// were replayed by Open; a "ticks" op runs positionally to
				// the step count the reference reached after it, so a
				// mid-op resume tops up exactly the missing steps.
				for j := kills[i]; j < len(ops); j++ {
					if ops[j].kind == "ticks" {
						for r2.Steps() < stepsAfter[j] {
							r2.Step()
						}
						continue
					}
					if err := applyPersistOp(r2, ops[j]); err != nil {
						t.Fatalf("kill %d: continue op %d %q: %v", i, j, ops[j].kind, err)
					}
				}
				if r2.Steps() != refSteps {
					t.Fatalf("kill %d: finished at step %d, want %d", i, r2.Steps(), refSteps)
				}
				if got := r2.World().Led("main.led"); got != refLed {
					t.Fatalf("kill %d: led %d, want %d", i, got, refLed)
				}
				got := refOut[:info2.OutputBytesAtCheckpoint] + view2.Output()
				if got != refOut {
					t.Fatalf("kill %d: output not byte-identical\nref %q\ngot %q", i, refOut, got)
				}
				r2.ClosePersistence()
			}
		})
	}
}

// TestCrashRecoveryTornTail kills mid-record: truncate the active
// journal segment at arbitrary byte offsets and require recovery to
// drop the torn tail cleanly and resume from the last whole record.
func TestCrashRecoveryTornTail(t *testing.T) {
	refDir := t.TempDir()
	opts, _ := persistTestOptions(refDir, 1, nil)
	r, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	r.MustEval(DefaultPrelude)
	r.MustEval(persistProgA)
	r.RunTicks(100)
	refSteps := r.Steps()
	r.ClosePersistence()

	// Find the newest journal segment and tear it at several offsets.
	wals, _ := filepath.Glob(filepath.Join(refDir, "wal-*.wal"))
	if len(wals) == 0 {
		t.Fatal("no journal segments")
	}
	active := wals[len(wals)-1]
	whole, err := os.ReadFile(active)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) < 64 {
		t.Fatalf("active segment too small to tear (%d bytes)", len(whole))
	}
	for _, cut := range []int{len(whole) - 1, len(whole) - 7, len(whole) / 2, 3} {
		tornDir := t.TempDir()
		copyDir(t, refDir, tornDir)
		if err := os.WriteFile(filepath.Join(tornDir, filepath.Base(active)), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		opts2, _ := persistTestOptions(tornDir, 1, nil)
		r2, info2, err := Open(opts2)
		if err != nil {
			t.Fatalf("cut=%d: recovery: %v", cut, err)
		}
		if !info2.Recovered {
			t.Fatalf("cut=%d: nothing recovered", cut)
		}
		if r2.Steps() > refSteps {
			t.Fatalf("cut=%d: recovered past the reference (%d > %d)", cut, r2.Steps(), refSteps)
		}
		// The torn runtime keeps working: it can still run and obey the
		// program's invariant led == step count low byte.
		r2.RunTicks(10)
		want := ((r2.Steps() + 1) / 2) & 0xff
		if got := r2.World().Led("main.led"); got != want {
			t.Fatalf("cut=%d: invariant broken after torn-tail recovery: led=%d want=%d", cut, got, want)
		}
		r2.ClosePersistence()
	}
}

// TestCrashRecoveryCorruptCheckpointFallsBack corrupts the newest
// checkpoint file and requires recovery to fall back to the previous
// one, replay through the gap, and reach the same state.
func TestCrashRecoveryCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	opts, _ := persistTestOptions(dir, 1, nil)
	opts.Persist.EverySteps = 32 // several checkpoints over the run
	r, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	r.MustEval(DefaultPrelude)
	r.MustEval(persistProgA)
	r.RunTicks(120)
	refSteps, refLed := r.Steps(), r.World().Led("main.led")
	r.ClosePersistence()

	ckpts, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if len(ckpts) < 2 {
		t.Fatalf("need ≥2 checkpoints, have %v", ckpts)
	}
	newest := ckpts[len(ckpts)-1]
	data, _ := os.ReadFile(newest)
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	opts2, _ := persistTestOptions(dir, 1, nil)
	r2, info2, err := Open(opts2)
	if err != nil {
		t.Fatalf("recovery with corrupt newest checkpoint: %v", err)
	}
	defer r2.ClosePersistence()
	if len(info2.CorruptCheckpoints) != 1 {
		t.Fatalf("corrupt checkpoint not reported: %+v", info2)
	}
	if r2.Steps() != refSteps {
		t.Fatalf("fallback recovery at step %d, want %d", r2.Steps(), refSteps)
	}
	if got := r2.World().Led("main.led"); got != refLed {
		t.Fatalf("fallback led %d, want %d", got, refLed)
	}
}

// TestOpenRefusesUnrecoverableDir: if every retained checkpoint is
// corrupt and the journal cannot replay from genesis, Open must fail
// loudly instead of silently starting fresh.
func TestOpenRefusesUnrecoverableDir(t *testing.T) {
	dir := t.TempDir()
	opts, _ := persistTestOptions(dir, 1, nil)
	opts.Persist.EverySteps = 16
	r, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	r.MustEval(DefaultPrelude)
	r.MustEval(persistProgA)
	r.RunTicks(200) // enough checkpoints that genesis segments are pruned
	r.ClosePersistence()

	ckpts, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if len(ckpts) < 2 {
		t.Fatalf("want pruned retention set, have %v", ckpts)
	}
	wals, _ := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	if g, _ := filepath.Glob(filepath.Join(dir, "wal-000000.wal")); len(g) != 0 {
		t.Fatalf("genesis segment still retained (%v); test needs pruning to have occurred", wals)
	}
	for _, c := range ckpts {
		if err := os.WriteFile(c, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	opts2, _ := persistTestOptions(dir, 1, nil)
	if _, _, err := Open(opts2); err == nil {
		t.Fatal("Open accepted an unrecoverable directory")
	}
}

// TestReplayRefusesMalformedRecords: replay refuses an advance or input
// record it cannot parse, naming the record's journal position.
func TestReplayRefusesMalformedRecords(t *testing.T) {
	for _, c := range []struct {
		kind byte
		data string
	}{
		{recKindAdvance, "12"},
		{recKindAdvance, "12 x"},
		{recKindAdvance, "-1 5"},
		{recKindAdvance, "18446744073709551616 5"}, // 2⁶⁴
		{recKindAdvance, "1 2 3"},
		{recKindInput, "pad main.pad"},
		{recKindInput, "pad 5"}, // no path
		{recKindInput, "pad main.pad x"},
		{recKindInput, "pad main.pad 18446744073709551616"},
	} {
		dir := t.TempDir()
		store, _, err := persist.Open(dir, func([]byte) (uint64, error) { return 0, fmt.Errorf("no checkpoints") })
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Append(1, c.kind, []byte(c.data)); err != nil {
			t.Fatal(err)
		}
		store.Close()
		opts, _ := persistTestOptions(dir, 1, nil)
		if _, _, err := Open(opts); err == nil || !strings.Contains(err.Error(), "(journal seq 1)") {
			t.Errorf("kind %d record %q: Open returned %v, want a refusal naming journal seq 1", c.kind, c.data, err)
		}
	}

	// A well-formed advance with no program before it has nothing to step:
	// recovery ends instead of spinning towards the target.
	dir := t.TempDir()
	store, _, err := persist.Open(dir, func([]byte) (uint64, error) { return 0, fmt.Errorf("no checkpoints") })
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Append(1, recKindAdvance, []byte("5 7")); err != nil {
		t.Fatal(err)
	}
	store.Close()
	opts, _ := persistTestOptions(dir, 1, nil)
	r, info, err := Open(opts)
	if err != nil || info.ResumedSteps != 0 {
		t.Fatalf("advance before any eval: %+v, %v", info, err)
	}
	r.ClosePersistence()
}

// minerProg is the proof-of-work miner of Figure 11, searching forever.
func minerProg() string {
	cfg := pow.DefaultConfig()
	cfg.Target = 0
	return pow.Generate(cfg) + `
wire [31:0] hashes, nonce, hash0, sol;
wire found;
Pow miner(.clk(clk.val), .hashes(hashes), .nonce(nonce),
          .found(found), .hash0(hash0), .solution(sol));`
}

// TestPersistedStepAllocFree: between checkpoints, journaling a software
// step costs no allocation — the advance record is built in a reused
// buffer and the journal appends by copying into its mapping — so a
// persisted Step allocates what an unpersisted one does: nothing.
func TestPersistedStepAllocFree(t *testing.T) {
	opts, _ := persistTestOptions(t.TempDir(), 1, nil)
	opts.Features.DisableJIT = true
	opts.Persist.EverySteps, opts.Persist.SyncEveryRecord = 1<<40, false
	r, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.ClosePersistence()
	r.MustEval(DefaultPrelude)
	r.MustEval(minerProg())
	r.RunTicks(8)
	before := r.Stats().Persist.Records
	if n := testing.AllocsPerRun(200, r.Step); n != 0 {
		t.Errorf("a persisted software Step allocates %.1f times", n)
	}
	if got := r.Stats().Persist.Records - before; got < 200 {
		t.Fatalf("only %d steps were journaled", got)
	}
}

// TestJournalDiskFullIsSticky: the segment a checkpoint rotates to sits on
// a full disk. Reserving room for the next record fails with an ordinary
// error — not a signal on a mapped page — which disables persistence once,
// visibly, while the program keeps running.
func TestJournalDiskFullIsSticky(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to stand in for a full disk")
	}
	dir := t.TempDir()
	opts, view := persistTestOptions(dir, 1, nil)
	opts.Persist.EverySteps = 32
	r, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.ClosePersistence()
	if err := os.Symlink("/dev/full", filepath.Join(dir, "wal-000001.wal")); err != nil {
		t.Skipf("symlink: %v", err)
	}
	r.MustEval(DefaultPrelude)
	r.MustEval(persistProgA)
	r.RunTicks(100)
	st := r.Stats().Persist
	if st.Err == "" || st.Checkpoints != 1 {
		t.Fatalf("persistence went on past a full disk: %+v", st)
	}
	if errs := view.Errors(); len(errs) != 1 {
		t.Fatalf("disk error reported %d times, want once: %v", len(errs), errs)
	}
	if want := ((r.Steps() + 1) / 2) & 0xff; r.World().Led("main.led") != want || r.Steps() < 200 {
		t.Fatalf("execution stopped with persistence: step %d, led %d", r.Steps(), r.World().Led("main.led"))
	}
}

func TestOpenRequiresPersistDir(t *testing.T) {
	if _, _, err := Open(Options{}); err == nil {
		t.Fatal("Open without Persist.Dir should fail")
	}
}
