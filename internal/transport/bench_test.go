package transport

import (
	"testing"

	"cascade/internal/engine"
	"cascade/internal/engine/sweng"
)

// stepOnce runs one full scheduler step (half a clock period) against an
// engine through whatever dispatch path it presents.
func stepOnce(e engine.Engine, clk uint64) {
	e.Read(engine.Event{Var: "clk", Val: boolVec(clk)})
	for e.ThereAreEvals() {
		e.Evaluate()
	}
	for e.ThereAreUpdates() {
		e.Update()
	}
	e.EndStep()
	e.DrainWrites()
}

// BenchmarkEngineDirect is the baseline: the bare engine, direct method
// calls, the pre-protocol dispatch path.
func BenchmarkEngineDirect(b *testing.B) {
	e := sweng.New(elaborateCtr(b, "main.c"), nil, nil, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepOnce(e, uint64(i%2))
	}
}

// BenchmarkLocalTransportOverhead is the gate for the zero-copy claim:
// the same engine behind a local client. Compare ns/op against
// BenchmarkEngineDirect; the budget is 5%.
func BenchmarkLocalTransportOverhead(b *testing.B) {
	c := NewLocalClient(sweng.New(elaborateCtr(b, "main.c"), nil, nil, false), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepOnce(c, uint64(i%2))
	}
}
