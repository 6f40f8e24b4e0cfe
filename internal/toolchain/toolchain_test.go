package toolchain

import (
	"context"
	"strings"
	"testing"

	"cascade/internal/elab"
	"cascade/internal/fpga"
	"cascade/internal/vclock"
	"cascade/internal/verilog"
)

func flatFor(t *testing.T, src string) *elab.Flat {
	t.Helper()
	st, errs := verilog.ParseSourceText(src)
	if errs != nil {
		t.Fatal(errs)
	}
	f, err := elab.Elaborate(st.Modules[0], "dut", nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

const smallCounter = `
module M(input wire clk, output reg [7:0] q);
  always @(posedge clk) q <= q + 1;
endmodule`

const bigDatapath = `
module M(input wire clk, input wire [31:0] x);
  reg [31:0] a, b, c, d;
  always @(posedge clk) begin
    a <= x * x + a;
    b <= a * x + b;
    c <= b * a + c;
    d <= c * b + d;
  end
endmodule`

func TestLatencyGrowsSuperlinearly(t *testing.T) {
	tc := New(fpga.NewCycloneV(), DefaultOptions())
	small := tc.CompileSync(flatFor(t, smallCounter), false)
	big := tc.CompileSync(flatFor(t, bigDatapath), false)
	if small.Err != nil || big.Err != nil {
		t.Fatalf("errs: %v %v", small.Err, big.Err)
	}
	if big.RawAreaLEs <= small.RawAreaLEs {
		t.Fatalf("area ordering wrong: %d <= %d", big.RawAreaLEs, small.RawAreaLEs)
	}
	if big.DurationPs <= small.DurationPs {
		t.Fatalf("latency ordering wrong: %d <= %d", big.DurationPs, small.DurationPs)
	}
	// Superlinearity: latency ratio exceeds area ratio.
	areaRatio := float64(big.RawAreaLEs) / float64(small.RawAreaLEs)
	durRatio := float64(big.DurationPs-DefaultOptions().BasePs) / float64(small.DurationPs-DefaultOptions().BasePs)
	if durRatio <= areaRatio {
		t.Fatalf("latency should grow superlinearly: dur %.2fx vs area %.2fx", durRatio, areaRatio)
	}
}

func TestWrappedCostsAreaAndLittleLatency(t *testing.T) {
	tc := New(fpga.NewCycloneV(), DefaultOptions())
	f := flatFor(t, smallCounter)
	native := tc.CompileSync(f, false)
	wrapped := tc.CompileSync(f, true)
	if wrapped.AreaLEs <= native.RawAreaLEs {
		t.Fatal("wrapper should cost area")
	}
	if wrapped.DurationPs < native.DurationPs || wrapped.DurationPs > native.DurationPs*13/10 {
		t.Fatalf("wrapped latency should be a small constant over native: %d vs %d",
			wrapped.DurationPs, native.DurationPs)
	}
	if tc.Compiles() != 2 {
		t.Fatalf("compile count %d", tc.Compiles())
	}
}

func TestFitFailure(t *testing.T) {
	dev := fpga.NewDevice(10, 50_000_000)
	tc := New(dev, DefaultOptions())
	res := tc.CompileSync(flatFor(t, smallCounter), true)
	if res.Err == nil || !strings.Contains(res.Err.Error(), "does not fit") &&
		!strings.Contains(res.Err.Error(), "device has") {
		t.Fatalf("expected fit failure, got %v", res.Err)
	}
}

func TestTimingClosureFailure(t *testing.T) {
	// A long combinational divide chain cannot close 50 MHz timing.
	src := `
module M(input wire clk, input wire [31:0] x, output wire [31:0] y);
  wire [31:0] a, b;
  assign a = x / 7;
  assign b = a / 5;
  assign y = b / 3;
endmodule`
	tc := New(fpga.NewCycloneV(), DefaultOptions())
	res := tc.CompileSync(flatFor(t, src), false)
	if res.Err == nil || !strings.Contains(res.Err.Error(), "timing closure") {
		t.Fatalf("expected timing failure, got %v", res.Err)
	}
	// A faster device closes it.
	slow := fpga.NewDevice(110_000, 5_000_000) // 5 MHz
	res2 := New(slow, DefaultOptions()).CompileSync(flatFor(t, src), false)
	if res2.Err != nil {
		t.Fatalf("5 MHz device should close timing: %v", res2.Err)
	}
}

func TestSynthesisErrorSurfacesQuickly(t *testing.T) {
	src := `
module M(input wire clk);
  wire a, b;
  assign a = b;
  assign b = a | clk;
endmodule`
	tc := New(fpga.NewCycloneV(), DefaultOptions())
	res := tc.CompileSync(flatFor(t, src), true)
	if res.Err == nil {
		t.Fatal("combinational loop should fail synthesis")
	}
	if res.DurationPs >= DefaultOptions().BasePs {
		t.Fatal("front-end rejections should be fast")
	}
}

func TestJobReadiness(t *testing.T) {
	tc := New(fpga.NewCycloneV(), DefaultOptions())
	now := uint64(1000)
	job := tc.Submit(context.Background(), flatFor(t, smallCounter), true, now)
	job.Wait()
	if job.Ready(now) {
		t.Fatal("job ready immediately")
	}
	readyAt, ok := job.ReadyAt()
	if !ok {
		t.Fatal("job reported cancelled")
	}
	if !job.Ready(readyAt) {
		t.Fatal("job not ready at its deadline")
	}
	if readyAt-now != job.Result().DurationPs {
		t.Fatal("deadline arithmetic wrong")
	}
}

func TestBitstreamCacheHit(t *testing.T) {
	tc := New(fpga.NewCycloneV(), DefaultOptions())
	first := tc.Submit(context.Background(), flatFor(t, smallCounter), true, 0)
	readyAt, ok := first.ReadyAt()
	if !ok || !first.Ready(readyAt) {
		t.Fatal("first compile did not complete")
	}
	// The bitstream is published: an identical netlist submitted later is
	// served from the cache in near-zero virtual time.
	second := tc.Submit(context.Background(), flatFor(t, smallCounter), true, readyAt)
	res := second.Result()
	if res == nil || res.Err != nil {
		t.Fatalf("cached compile failed: %+v", res)
	}
	if !res.CacheHit {
		t.Fatal("second compile of identical netlist should hit the cache")
	}
	if res.DurationPs >= first.Result().DurationPs/1000 {
		t.Fatalf("cache hit should take ~zero virtual time: %d ps vs %d ps",
			res.DurationPs, first.Result().DurationPs)
	}
	st := tc.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// A different netlist misses.
	third := tc.Submit(context.Background(), flatFor(t, bigDatapath), true, readyAt)
	if third.Result().CacheHit {
		t.Fatal("different netlist must not hit the cache")
	}
}

func TestInFlightJoin(t *testing.T) {
	tc := New(fpga.NewCycloneV(), DefaultOptions())
	first := tc.Submit(context.Background(), flatFor(t, smallCounter), true, 0)
	firstReady, _ := first.ReadyAt()
	// Resubmitted mid-flight (virtual time before the original flow
	// completes, and never observed ready): the new job joins the
	// original flow and finishes exactly when it does.
	second := tc.Submit(context.Background(), flatFor(t, smallCounter), true, firstReady/2)
	secondReady, ok := second.ReadyAt()
	if !ok {
		t.Fatal("joined job reported cancelled")
	}
	if secondReady != firstReady {
		t.Fatalf("joined job should finish with the original flow: %d != %d", secondReady, firstReady)
	}
	if st := tc.Stats(); st.Joined != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCancelDiscardsJob(t *testing.T) {
	tc := New(fpga.NewCycloneV(), DefaultOptions())
	job := tc.Submit(context.Background(), flatFor(t, smallCounter), true, 0)
	job.Cancel()
	job.Wait()
	if job.Ready(^uint64(0)) {
		t.Fatal("cancelled job must never report ready")
	}
	if job.Result() != nil {
		t.Fatal("cancelled job must not report a result")
	}
	if !job.Canceled() {
		t.Fatal("job should know it was cancelled")
	}
}

// TestCancelledFlowBanksAtNextObservation: a cancelled job's flow still
// runs on a worker, at whatever wall-clock moment the host gets to it.
// Its counters must not reach Stats by that luck: they appear when the
// owner next observes one of its jobs, and not before — also when that
// observation is a Ready, before its ready time, of a job observed once
// already, which answers without a lock unless banking is owed.
func TestCancelledFlowBanksAtNextObservation(t *testing.T) {
	small, big := flatFor(t, smallCounter), flatFor(t, bigDatapath)
	for i := 0; i < 50; i++ {
		tc := New(fpga.NewCycloneV(), DefaultOptions())
		var watch *Job
		if i%4 >= 2 {
			watch = tc.Submit(context.Background(), big, true, 0)
			if watch.Ready(0) {
				t.Fatal("a compile ready at its submission time")
			}
		}
		base := tc.Stats() // watch's own flow, when there is one
		old := tc.Submit(context.Background(), small, true, 0)
		if i%2 == 1 {
			<-old.done // the flow has ended, unobserved: still not banked
		}
		old.Cancel()
		if st := tc.Stats(); st.Canceled != 1 || st.Synthesized != base.Synthesized || st.CacheMisses != base.CacheMisses {
			t.Fatalf("iteration %d: cancelled flow's counters visible before any observation: %+v", i, st)
		}
		if watch != nil {
			watch.Ready(0)
		} else {
			tc.Submit(context.Background(), big, true, 0).Wait()
		}
		if st := tc.Stats(); st.Synthesized != 2 || st.CacheMisses != 2 {
			t.Fatalf("iteration %d: want both flows banked after the observation: %+v", i, st)
		}
	}
}

func TestContextCancelAbortsJob(t *testing.T) {
	tc := New(fpga.NewCycloneV(), DefaultOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	job := tc.Submit(ctx, flatFor(t, smallCounter), true, 0)
	job.Wait()
	if !job.Canceled() {
		t.Fatal("job with cancelled context should abort")
	}
	if tc.Stats().Canceled != 1 {
		t.Fatalf("stats: %+v", tc.Stats())
	}
}

func TestScaleDividesLatency(t *testing.T) {
	dev := fpga.NewCycloneV()
	o := DefaultOptions()
	base := New(dev, o).CompileSync(flatFor(t, smallCounter), false)
	o.Scale = 100
	fast := New(dev, o).CompileSync(flatFor(t, smallCounter), false)
	ratio := float64(base.DurationPs) / float64(fast.DurationPs)
	if ratio < 80 || ratio > 120 {
		t.Fatalf("scale=100 should divide latency ~100x, got %.1fx", ratio)
	}
}

func TestPaperCalibration(t *testing.T) {
	// The calibration targets of DefaultOptions: a trivial design in
	// roughly a minute, documented in EXPERIMENTS.md.
	tc := New(fpga.NewCycloneV(), DefaultOptions())
	res := tc.CompileSync(flatFor(t, smallCounter), false)
	sec := float64(res.DurationPs) / float64(vclock.S)
	if sec < 30 || sec > 300 {
		t.Fatalf("trivial-design latency %.0fs out of calibration band", sec)
	}
}
