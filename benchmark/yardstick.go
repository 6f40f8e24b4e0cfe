package main

import (
	goruntime "runtime"
	"time"
)

// The sandbox this benchmark runs in shares its memory system with other
// tenants. Measured over minutes, the simulator's wall time drifts by up
// to +45 % for minutes at a stretch while a compute-only kernel
// (SHA-256) drifts by 6 %: the slow periods are cache and memory
// contention, not lost cycles, and no amount of repetition inside a 12 s
// run averages them out. An allocation-heavy, pointer-chasing kernel
// tracks the simulator through those periods (correlation 0.98 between
// 12 s medians), so the benchmark runs that kernel - the yardstick -
// between its measurements and reports host times in *reference
// seconds*: wall time scaled by yardstickNominal over the run's
// lower-quartile yardstick time. On a quiet machine of this class the factor is ~1; in
// a slow period it takes the drift out. The yardstick shares no code
// with the system under test, so a change to the system cannot move it.

// yardstickNominal is the yardstick's lower-quartile time on the quiet
// 2-core box the baseline was recorded on.
const yardstickNominal = 16300 * time.Microsecond

type yardNode struct {
	next *yardNode
	v    [3]uint64
}

// yardSink keeps the kernel's result alive.
var yardSink uint64

// yardstick allocates 300 000 small nodes, links an eighth of them into a
// list and a map, and walks the list: what the interpreter does to the
// allocator, the caches and the garbage collector, in ~16 ms.
func yardstick() time.Duration {
	// Start every sample from a collected heap: how often the collector
	// runs during the kernel depends on the heap the last cycle left, and
	// a workload that retains 100 MB would otherwise buy the yardstick a
	// collection-free run.
	goruntime.GC()
	t0 := time.Now()
	index := map[uint64]*yardNode{}
	var head *yardNode
	x := uint64(1)
	for i := 0; i < 300_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		n := &yardNode{next: head}
		n.v[0] = x
		if i%8 == 0 {
			index[x>>40] = n
			head = n
		}
	}
	sum := uint64(len(index))
	for n := head; n != nil; n = n.next {
		sum += n.v[0]
	}
	yardSink = sum
	return time.Since(t0)
}

// yard collects yardstick samples across a run.
type yard struct{ samples []float64 }

// measure takes n yardstick samples.
func (y *yard) measure(n int) {
	for ; n > 0; n-- {
		y.samples = append(y.samples, float64(yardstick()))
	}
}

// low is the lower quartile of the samples, in ns: like every host time
// the benchmark reports (see putLow).
func (y *yard) low() float64 { return summarize(y.samples).Q1 }

// factor converts this run's wall times to reference time.
func (y *yard) factor() float64 { return float64(yardstickNominal) / y.low() }
