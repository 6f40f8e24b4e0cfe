package obsv

import "testing"

// The disabled path is the one every user pays: a nil Observer threaded
// through the scheduler's hot loops. It must stay within a few ns/op and
// zero allocations — CI gates on these benchmarks (see
// .github/workflows/ci.yml), mirroring the local client fast-path
// gate.

func BenchmarkObsvDisabledEmit(b *testing.B) {
	var o *Observer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Emit(EvHotSwap, "root.x", "sw->hw")
	}
}

func BenchmarkObsvDisabledObserve(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}

func BenchmarkObsvDisabledCounter(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsvEnabledEmit(b *testing.B) {
	o := New(Options{TraceCap: 1024})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.EmitAt(uint64(i), EvHotSwap, "root.x", "sw->hw")
	}
}

func BenchmarkObsvEnabledObserve(b *testing.B) {
	o := New(Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.CompileLatency.Observe(uint64(i))
	}
}

// TestDisabledPathAllocFree asserts the nil fast paths allocate nothing;
// the ns/op bound is enforced by the CI benchmark gate where timing is
// meaningful.
func TestDisabledPathAllocFree(t *testing.T) {
	var o *Observer
	var h *Histogram
	var c *Counter
	allocs := testing.AllocsPerRun(1000, func() {
		o.Emit(EvHotSwap, "root.x", "sw->hw")
		o.EmitAt(7, EvFault, "root.y", "z")
		h.Observe(42)
		c.Inc()
		o.WallNow()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates: %v allocs/op", allocs)
	}
}
