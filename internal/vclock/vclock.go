// Package vclock implements Cascade-Go's virtual-time accounting
// (paper §4.1, Figure 8). Engines occupy different physical clock
// domains — software in GHz, FPGA fabric in MHz — and the runtime's
// performance is defined by its virtual clock: the rate at which it
// dispatches scheduler iterations. Every unit of work (software
// interpreter ops, hardware cycles, data/control-plane messages, runtime
// dispatch) advances a shared virtual timeline by a cost drawn from a
// Model; the evaluation figures plot ticks against this timeline.
//
// Virtual time is measured in picoseconds so a 50 MHz fabric cycle
// (20,000 ps) and a multi-GHz CPU op can share one integer axis.
package vclock

// Picosecond multiples.
const (
	Ns uint64 = 1000
	Us uint64 = 1000 * Ns
	Ms uint64 = 1000 * Us
	S  uint64 = 1000 * Ms
)

// Model assigns virtual-time costs to the runtime's unit operations. The
// defaults approximate the paper's platform: an 800 MHz ARM host, a
// 50 MHz Cyclone V fabric, and a memory-mapped IO bus.
type Model struct {
	// SWEvalOpPs is the cost of one software-engine interpreter
	// operation (process execution, variable write).
	SWEvalOpPs uint64
	// HWCyclePs is one FPGA fabric cycle (20,000 ps at 50 MHz).
	HWCyclePs uint64
	// HWCyclesPerIter is the fabric cycles one ABI-wrapped scheduler
	// iteration costs in hardware (latch commit + clock toggle + task
	// check, per Figure 10). With 2 iterations per virtual tick this is
	// what bounds open-loop throughput below native.
	HWCyclesPerIter uint64
	// MsgPs is one data/control-plane message between the runtime and a
	// hardware-located engine (an MMIO round trip).
	MsgPs uint64
	// DispatchPs is the runtime's own per-iteration overhead.
	DispatchPs uint64
	// NativeOpPs is one compiled native-tier operation (internal/njit):
	// a fused closure over word-packed state, far cheaper than an
	// interpreted op but still software, so it cannot beat the fabric.
	NativeOpPs uint64
}

// DefaultModel returns costs calibrated to the paper's testbed.
func DefaultModel() Model {
	return Model{
		// ~12K ARM cycles per interpreted event (AST walk plus queue
		// management at 800 MHz) — calibrated so the PoW benchmark
		// simulates in the paper's sub-kHz band.
		SWEvalOpPs:      15 * Us,
		HWCyclePs:       20 * Ns,   // 50 MHz fabric
		HWCyclesPerIter: 3,         // ABI wrapper costs ~3 cycles per tick
		MsgPs:           1800 * Ns, // MMIO round trip (~560K transfers/s)
		DispatchPs:      300 * Ns,  // scheduler bookkeeping per iteration
		// ~240 ARM cycles per compiled closure at 800 MHz: ~50x faster
		// than the interpreter, ~15x slower than a fabric cycle.
		NativeOpPs: 300 * Ns,
	}
}

// Clock is a monotonically advancing virtual timeline with work counters.
type Clock struct {
	nowPs uint64

	// Counters partition elapsed time by cause (Figure 8's compute /
	// communication / overhead split).
	ComputePs  uint64
	CommPs     uint64
	OverheadPs uint64
	Messages   uint64
}

// Now returns the current virtual time in picoseconds.
func (c *Clock) Now() uint64 { return c.nowPs }

// AdvanceCompute advances the timeline by compute work.
func (c *Clock) AdvanceCompute(ps uint64) {
	c.nowPs += ps
	c.ComputePs += ps
}

// AdvanceComm advances the timeline by n messages at the model cost.
func (c *Clock) AdvanceComm(n uint64, m *Model) {
	ps := n * m.MsgPs
	c.nowPs += ps
	c.CommPs += ps
	c.Messages += n
}

// AdvanceOverhead advances the timeline by runtime overhead.
func (c *Clock) AdvanceOverhead(ps uint64) {
	c.nowPs += ps
	c.OverheadPs += ps
}

// AdvanceRaw advances the timeline without attribution (used for
// idle waits, e.g. waiting out a background compilation).
func (c *Clock) AdvanceRaw(ps uint64) { c.nowPs += ps }

// Breakdown is a stable snapshot of a clock's virtual-time accounting,
// partitioned by cause (Figure 8's compute / communication / overhead
// split). IdlePs is time that elapsed without attribution — waits on
// background compilations.
type Breakdown struct {
	NowPs      uint64
	ComputePs  uint64
	CommPs     uint64
	OverheadPs uint64
	IdlePs     uint64
	Messages   uint64
}

// Restore sets the clock to a previously captured breakdown (snapshot
// restore and crash recovery: the recovered timeline continues from the
// captured virtual time, so $time-relative behaviour and the JIT's
// compile-overlap accounting stay continuous across the gap).
func (c *Clock) Restore(b Breakdown) {
	c.nowPs = b.NowPs
	c.ComputePs = b.ComputePs
	c.CommPs = b.CommPs
	c.OverheadPs = b.OverheadPs
	c.Messages = b.Messages
}

// Breakdown snapshots the clock.
func (c *Clock) Breakdown() Breakdown {
	attributed := c.ComputePs + c.CommPs + c.OverheadPs
	idle := uint64(0)
	if c.nowPs > attributed {
		idle = c.nowPs - attributed
	}
	return Breakdown{
		NowPs:      c.nowPs,
		ComputePs:  c.ComputePs,
		CommPs:     c.CommPs,
		OverheadPs: c.OverheadPs,
		IdlePs:     idle,
		Messages:   c.Messages,
	}
}
