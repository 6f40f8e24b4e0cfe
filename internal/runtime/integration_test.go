package runtime

import (
	"context"
	"strings"
	"testing"

	"cascade/internal/vclock"
	"cascade/internal/workloads/nw"
	"cascade/internal/workloads/pow"
)

// TestNWThroughFullJIT runs the class-study workload end to end: the
// score must match the Go reference no matter which engines executed
// which portion of the computation.
func TestNWThroughFullJIT(t *testing.T) {
	cfg := nw.Config{
		SeqA: []byte("GATTACA"), SeqB: []byte("GCATGCU"),
		Match: 1, Mismatch: -1, Gap: -1,
		Display: true,
	}
	view := &BufView{Quiet: true}
	r := newTestRuntime(t, Options{View: view, OpenLoopTargetPs: 10 * vclock.Us})
	r.MustEval(nw.GenerateProgram(cfg))
	r.RunTicks(uint64(cfg.Cycles()) + 16)
	want := cfg.Score()
	out := view.Output()
	if !strings.Contains(out, "NW score=") {
		t.Fatalf("no score display: %q", out)
	}
	// The displayed score (two's complement decimal of the 16-bit reg).
	if want == 0 && !strings.Contains(out, "score=0 ") {
		t.Fatalf("score mismatch: want %d, got %q", want, out)
	}
	if r.Phase() != PhaseOpenLoop {
		t.Fatalf("should have reached hardware: %v", r.Phase())
	}
}

// TestPoWThroughFullJIT verifies the miner finds the crypto/sha256
// predicted nonce even with engine migrations underneath it.
func TestPoWThroughFullJIT(t *testing.T) {
	cfg := pow.DefaultConfig()
	cfg.Target = 0x20000000 // ~1/8 hashes solve
	cfg.Display = true
	cfg.FinishOnFind = true
	wantNonce, ok := cfg.FindNonce(500)
	if !ok {
		t.Fatal("no reference solution")
	}
	view := &BufView{Quiet: true}
	r := newTestRuntime(t, Options{View: view, OpenLoopTargetPs: 10 * vclock.Us})
	r.MustEval(pow.Generate(cfg) + `
wire [31:0] hashes, nonce, hash0, sol;
wire found;
Pow miner(.clk(clk.val), .hashes(hashes), .nonce(nonce),
          .found(found), .hash0(hash0), .solution(sol));
`)
	budget := uint64((wantNonce + 2)) * pow.CyclesPerHash * 2
	if fin, err := r.RunUntilFinishCtx(context.Background(), budget*2); !fin || err != nil {
		t.Fatalf("miner never finished (budget %d steps)", budget*2)
	}
	if !strings.Contains(view.Output(), "FOUND nonce=") {
		t.Fatalf("no FOUND display: %q", view.Output())
	}
	// The displayed nonce is hex.
	if want := "FOUND nonce=" + hex8(wantNonce); !strings.Contains(view.Output(), want) {
		t.Fatalf("wrong nonce: want %q in %q", want, view.Output())
	}
}

func hex8(v uint32) string {
	const d = "0123456789abcdef"
	out := make([]byte, 8)
	for i := 7; i >= 0; i-- {
		out[i] = d[v&0xf]
		v >>= 4
	}
	return string(out)
}

// TestMemoryComponentThroughRuntime exercises the stdlib Memory with a
// program that writes then reads back.
func TestMemoryComponentThroughRuntime(t *testing.T) {
	r := newTestRuntime(t, Options{Features: Features{DisableJIT: true}})
	r.MustEval(`
Memory#(4, 8) mem();
reg [3:0] st = 0;
reg [7:0] got = 0;
assign mem.waddr = 4'd9;
assign mem.wdata = 8'h5a;
assign mem.wen = (st == 1);
assign mem.raddr = 4'd9;
always @(posedge clk.val) begin
  st <= st + 1;
  got <= mem.rdata;
end
assign led.val = got;
`)
	r.RunTicks(8)
	if got := r.World().Led("main.led"); got != 0x5a {
		t.Fatalf("memory readback=%#x, want 0x5a", got)
	}
}

// TestGPIOThroughRuntime drives GPIO inputs and observes outputs.
func TestGPIOThroughRuntime(t *testing.T) {
	r := newTestRuntime(t, Options{Features: Features{DisableJIT: true}})
	r.MustEval(`GPIO#(8) gp(); assign gp.out = {gp.in[3:0], gp.in[7:4]};`)
	r.World().DriveGPIO("main.gp", 0xa5)
	r.RunTicks(2)
	if got := r.World().GPIO("main.gp"); got != 0x5a {
		t.Fatalf("gpio swap=%#x, want 0x5a", got)
	}
}

// TestResetComponentThroughRuntime uses Reset to clear a counter.
func TestResetComponentThroughRuntime(t *testing.T) {
	r := newTestRuntime(t, Options{Features: Features{DisableJIT: true}})
	r.MustEval(`
Reset rst();
reg [7:0] n = 0;
always @(posedge clk.val)
  if (rst.val) n <= 0;
  else n <= n + 1;
assign led.val = n;
`)
	r.RunTicks(5)
	if got := r.World().Led("main.led"); got == 0 {
		t.Fatal("counter stuck")
	}
	r.World().SetReset("main.rst", true)
	r.RunTicks(3)
	if got := r.World().Led("main.led"); got != 0 {
		t.Fatalf("reset ignored: %d", got)
	}
	r.World().SetReset("main.rst", false)
	r.RunTicks(3)
	if got := r.World().Led("main.led"); got == 0 {
		t.Fatal("counter did not resume")
	}
}

// TestMonitorThroughRuntime checks $monitor re-display semantics.
func TestMonitorThroughRuntime(t *testing.T) {
	view := &BufView{Quiet: true}
	r := newTestRuntime(t, Options{View: view, Features: Features{DisableJIT: true}})
	r.MustEval(`
reg [3:0] x = 0;
initial $monitor("x=%d", x);
always @(posedge clk.val) if (x < 3) x <= x + 1;
`)
	r.RunTicks(8)
	out := view.Output()
	for _, want := range []string{"x=0\n", "x=1\n", "x=2\n", "x=3\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("monitor missing %q in %q", want, out)
		}
	}
	// x stops changing; no further lines.
	if strings.Count(out, "x=3") != 1 {
		t.Fatalf("monitor repeated without change: %q", out)
	}
}

// TestWriteTask checks $write concatenation (no newline).
func TestWriteTask(t *testing.T) {
	view := &BufView{Quiet: true}
	r := newTestRuntime(t, Options{View: view, Features: Features{DisableJIT: true}})
	r.MustEval(`
reg once = 0;
always @(posedge clk.val) if (!once) begin
  once <= 1;
  $write("a");
  $write("b");
  $display("c");
end
`)
	r.RunTicks(3)
	if !strings.Contains(view.Output(), "abc\n") {
		t.Fatalf("write/display composition wrong: %q", view.Output())
	}
}

// TestIncrementalEvalSequence grows a program across several evals, with
// engines migrating between each (the REPL usage pattern).
func TestIncrementalEvalSequence(t *testing.T) {
	r := newTestRuntime(t, Options{OpenLoopTargetPs: 10 * vclock.Us})
	steps := []string{
		`reg [7:0] a = 0;`,
		`always @(posedge clk.val) a <= a + 1;`,
		`reg [7:0] b = 100;`,
		`always @(posedge clk.val) b <= b - 1;`,
		`assign led.val = a + b;`,
	}
	for i, src := range steps {
		if err := r.Eval(src); err != nil {
			t.Fatalf("eval %d: %v", i, err)
		}
		r.RunTicks(20)
	}
	// From the moment both always blocks exist, a+b is invariant: a
	// counts up exactly as fast as b counts down. Any engine rebuild
	// that lost state would break it.
	sum := r.World().Led("main.led")
	if sum == 0 {
		t.Fatal("led never driven")
	}
	if !r.WaitForPhase(PhaseOpenLoop, 20000) {
		t.Fatalf("no open loop after eval sequence: %v", r.Phase())
	}
	for i := 0; i < 5; i++ {
		r.RunTicks(30)
		if got := r.World().Led("main.led"); got != sum {
			t.Fatalf("a+b invariant broken: %d -> %d", sum, got)
		}
	}
}

// TestProgramSourceEchoesEvals verifies :program's data source.
func TestProgramSourceEchoesEvals(t *testing.T) {
	r := newTestRuntime(t, Options{Features: Features{DisableJIT: true}})
	r.MustEval(`module Helper(input wire x, output wire y); assign y = !x; endmodule`)
	r.MustEval(`wire p, q; Helper h(.x(p), .y(q));`)
	src := r.ProgramSource()
	for _, want := range []string{"module Helper", "Helper h(", "root module items"} {
		if !strings.Contains(src, want) {
			t.Fatalf("program source missing %q:\n%s", want, src)
		}
	}
}
