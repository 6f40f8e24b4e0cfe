package toolchain

import (
	"context"
	"testing"

	"cascade/internal/fault"
	"cascade/internal/fpga"
)

// The native tier's whole reason to exist: a compiled artifact ready in
// virtual milliseconds, while the fabric flow for the same design takes
// virtual minutes.
func TestNativeJobReadyBeforeFabric(t *testing.T) {
	tc := New(fpga.NewCycloneV(), DefaultOptions())
	f := flatFor(t, smallCounter)
	nj := tc.SubmitDesign(context.Background(), "", NewDesign(f), false, true, 0)
	fj := tc.Submit(context.Background(), f, true, 0)
	nAt, ok := nj.ReadyAt()
	if !ok {
		t.Fatal("native job canceled")
	}
	fAt, ok := fj.ReadyAt()
	if !ok {
		t.Fatal("fabric job canceled")
	}
	if nAt*100 > fAt {
		t.Fatalf("native tier should be ready orders of magnitude earlier: native %d ps vs fabric %d ps", nAt, fAt)
	}
	res := nj.Result()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.NativeGo || res.Wrapped {
		t.Fatalf("result should be marked native: %+v", res)
	}
	if res.AreaLEs != 0 {
		t.Fatalf("native artifact occupies no fabric, got %d LEs", res.AreaLEs)
	}
	if res.Prog == nil || res.RawAreaLEs == 0 {
		t.Fatal("native result should carry the synthesized netlist and its raw size")
	}
}

// Native artifacts ignore the fabric's fit and timing models: a design
// that overflows the device (or misses timing closure) still compiles
// for the native tier — that is what makes it a useful fallback.
func TestNativeTierSkipsFitAndTiming(t *testing.T) {
	tiny := fpga.NewDevice(10, 50_000_000) // 10 LEs: nothing fits
	tc := New(tiny, DefaultOptions())
	f := flatFor(t, bigDatapath)
	if res := tc.CompileSync(f, true); res.Err == nil {
		t.Fatal("sanity: fabric flow should fail fit on the tiny device")
	}
	res := tc.SubmitDesign(context.Background(), "", NewDesign(f), false, true, 0).Result()
	if res.Err != nil {
		t.Fatalf("native flow should ignore device capacity: %v", res.Err)
	}
}

// Native and fabric flows over the same netlist cache under distinct
// keys; identical native resubmissions hit.
func TestNativeCacheKeyedByTier(t *testing.T) {
	tc := New(fpga.NewCycloneV(), DefaultOptions())
	f := flatFor(t, smallCounter)
	first := tc.SubmitDesign(context.Background(), "", NewDesign(f), false, true, 0)
	at, _ := first.ReadyAt()
	if hit := first.Result(); hit.CacheHit {
		t.Fatal("first native compile cannot be a cache hit")
	}
	// A fabric submission after the native one must not be served the
	// native artifact.
	fres := tc.Submit(context.Background(), f, true, at).Result()
	if fres.CacheHit || fres.NativeGo {
		t.Fatalf("fabric flow collided with the native cache entry: %+v", fres)
	}
	// An identical native resubmission hits.
	again := tc.SubmitDesign(context.Background(), "", NewDesign(f), false, true, at).Result()
	if !again.CacheHit || !again.NativeGo {
		t.Fatalf("native resubmission should hit the tier cache: %+v", again)
	}
	if again.DurationPs >= first.Result().DurationPs {
		t.Fatal("cache hit should be cheaper than the original flow")
	}
}

// Compile-fault schedules never touch the native tier: its flow is an
// in-process pass, and its fault surface lives at runtime (region
// faults handled by eviction), not in the toolchain.
func TestNativeTierImmuneToCompileFaults(t *testing.T) {
	tc := New(fpga.NewCycloneV(), DefaultOptions())
	tc.SetFaults(fault.New(fault.Config{Seed: 1, CompilePermanent: 1, MaxCompileFaults: 100}))
	res := tc.SubmitDesign(context.Background(), "", NewDesign(flatFor(t, smallCounter)), false, true, 0).Result()
	if res.Err != nil {
		t.Fatalf("native flow consulted the compile-fault schedule: %v", res.Err)
	}
	if res.CacheHit || !res.NativeGo {
		t.Fatalf("unexpected result shape: %+v", res)
	}
}
