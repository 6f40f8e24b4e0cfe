package cascade

import (
	goruntime "runtime"
	"testing"

	"cascade/internal/engine/hweng"
	"cascade/internal/engine/sweng"
	"cascade/internal/fpga"
	"cascade/internal/ir"
	"cascade/internal/netlist"
	"cascade/internal/njit"
	"cascade/internal/runtime"
)

// stateHandoff builds the pow miner's inlined root on the three rungs a
// hot swap climbs — interpreter, native code, fabric — and returns the
// round that hands its state up them (the Figure 7 get_state/set_state
// pair, twice).
func stateHandoff(tb testing.TB) func() {
	tb.Helper()
	flat, err := runtime.ElaborateInlined(runtime.DefaultPrelude + powProg())
	if err != nil {
		tb.Fatal(err)
	}
	nl, err := netlist.Compile(flat)
	if err != nil {
		tb.Fatal(err)
	}
	sw := sweng.New(flat, nil, nil, false)
	ne := njit.New(ir.RootPath, nl, nil, nil, nil)
	hw, err := hweng.New(ir.RootPath, nl, fpga.NewCycloneV(), 1, nil, false, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		ne.SetState(sw.GetState())
		hw.SetState(ne.GetState())
	}
}

// BenchmarkStateHandoff is one interpreter -> native -> fabric state
// hand-off of the pow miner (CI gates its allocations).
func BenchmarkStateHandoff(b *testing.B) {
	round := stateHandoff(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// TestStateHandoffAllocBudget pins what a hand-off round allocates: the
// two images, nothing per variable. The counters are process-wide, so
// the least of a few measurements is the round's (a goroutine another
// test left finishing only adds to one).
func TestStateHandoffAllocBudget(t *testing.T) {
	round := stateHandoff(t)
	round() // warm up
	const runs = 50
	bytes, allocs := ^uint64(0), ^uint64(0)
	for k := 0; k < 5; k++ {
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			round()
		}
		goruntime.ReadMemStats(&after)
		bytes, allocs = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs), min(allocs, (after.Mallocs-before.Mallocs)/runs)
	}
	t.Logf("state hand-off: %d B in %d allocs per round", bytes, allocs)
	if bytes > handoffBytes || allocs > handoffAllocs {
		t.Fatalf("a state hand-off allocates %d B in %d allocs, budget %d B in %d", bytes, allocs, handoffBytes, handoffAllocs)
	}
}

// A hand-off round's budget: what it measures plus 10% (two images of
// 56 words; the round allocated 11 296 B in 234 allocs when state was
// named values).
const (
	handoffBytes  = 985 // 896 B measured
	handoffAllocs = 2   // 2 measured
)
