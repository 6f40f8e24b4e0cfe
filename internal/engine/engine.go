// Package engine defines Cascade-Go's target-specific engine ABI
// (paper §3.5, Figure 7). An engine is the runtime state of one
// subprogram; the runtime stays agnostic to whether an engine runs in
// software (internal/engine/sweng) or on the simulated FPGA
// (internal/engine/hweng) and migrates state between them through this
// interface. New backends are added by implementing Engine — this is not
// an interface exposed to Verilog programmers.
package engine

import "cascade/internal/bits"

// Location says where an engine executes.
type Location int

// Engine locations.
const (
	Software Location = iota
	Hardware
)

func (l Location) String() string {
	if l == Hardware {
		return "hardware"
	}
	return "software"
}

// Event is a data-plane message: a named subprogram input or output
// changed value.
type Event struct {
	Var string
	Val *bits.Vector
}

// IOHandler receives unsynthesizable side effects from an engine
// ($display text, $finish). The runtime's view implements it.
type IOHandler interface {
	Display(text string, newline bool)
	Finish(code int)
}

// Engine is the target-specific ABI. Method names follow Figure 7 of the
// paper, Go-cased.
//
// The lock-step loops rest on one contract (the quiet rule, DESIGN
// "Schedule table"): an engine's poll answers and its pending outputs
// change only when something calls into it — Read, Evaluate, Update,
// EndStep, SetState — never on their own, nor because the World moved
// (peripherals sample it at EndStep). So a "no", or an empty drain, stays
// true until the engine's next call, and a scheduler may skip asking again.
type Engine interface {
	// Name returns the subprogram's instance path (e.g. "main.r").
	Name() string
	// Loc reports where the engine executes. It is fixed for the engine's
	// life: a move between software and hardware builds another engine.
	Loc() Location

	// GetState returns the engine's state, a fresh image in its layout
	// (elab.Layout), so the runtime can migrate it; SetState installs one,
	// only reading it. Both are called only in observable states.
	GetState() []uint64
	SetState(img []uint64)

	// Read delivers an input change discovered on the data plane. ev.Val
	// is only lent: the engine copies what it needs before returning and
	// neither keeps the vector nor writes to it — the data plane hands
	// every consumer of an output the producer's own live value
	// (VisitWrites), which changes under it on the producer's next turn.
	Read(ev Event)
	// VisitWrites is the ABI's write method, the one drain: it calls fn
	// for each output changed since the previous drain, lending the live
	// value — fn must neither retain nor mutate it, which is what Read
	// promises of its argument. The first drain reports every output. A
	// fabric engine bills one bus read per output reported.
	VisitWrites(fn func(name string, val *bits.Vector))
	// DrainWrites is VisitWrites collected into events that own their
	// values: every engine implements it as Collect. Outside tests only
	// benchmark/layers.go calls it; drain with VisitWrites, or with
	// Collect to keep the events.
	DrainWrites() []Event

	// ThereAreEvals reports pending evaluation events; Evaluate performs
	// them all (EvalAll in the Cascade scheduler). The poll is pure: it
	// changes neither state nor pending outputs, and asked twice with no
	// call between it answers the same. (A fabric engine's poll is still
	// an MMIO transaction — billed, and a bus-fault trial — which is why a
	// scheduler never skips it.)
	ThereAreEvals() bool
	Evaluate()

	// ThereAreUpdates reports queued non-blocking updates; Update
	// commits them all. Pure, as ThereAreEvals is.
	ThereAreUpdates() bool
	Update()

	// EndStep runs between time steps when the interrupt queue is empty;
	// End runs at shutdown.
	EndStep()
	End()
}

// VerifyQuiet is a test-only switch: with it set, the lock-step loops
// (the runtime's rounds, the fabric model's forward group) re-issue every
// poll and drain the quiet rule let them skip, and panic if one had work.
// Only _test.go files may set it (scripts/check_scheduler_tables.sh).
var VerifyQuiet bool

// Usage is the work an engine performed since its last report, in the
// units the virtual clock bills: software interpreter operations,
// fabric clock cycles, and messages that crossed a serialized boundary
// (MMIO transactions for hardware engines, transport round-trips and
// state words for remote ones).
type Usage struct {
	Ops       uint64 // software interpreter operations
	Cycles    uint64 // hardware fabric cycles
	Msgs      uint64 // bus/transport messages
	NativeOps uint64 // compiled native-tier operations (internal/njit)
}

// Add accumulates o into u.
func (u *Usage) Add(o Usage) {
	u.Ops += o.Ops
	u.Cycles += o.Cycles
	u.Msgs += o.Msgs
	u.NativeOps += o.NativeOps
}

// UsageReporter is implemented by engines that meter their work. The
// runtime drains deltas when it settles batch and end-of-step costs;
// engines that do not implement it are billed nothing (stdlib
// components share the controller's heap).
type UsageReporter interface {
	// UsageDelta returns the work performed since the previous call and
	// resets the counters.
	UsageDelta() Usage
}

// Collect drains e into events that own their values (VisitWrites, each
// lent value cloned), for a caller that keeps them past the engine's next
// call. Its closure escapes through the interface call, so a caller that
// drains every step binds a sink of its own once (transport.Host).
func Collect(e Engine) []Event {
	var evs []Event
	e.VisitWrites(func(name string, val *bits.Vector) {
		evs = append(evs, Event{Var: name, Val: val.Clone()})
	})
	return evs
}
