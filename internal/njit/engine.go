package njit

import (
	"cascade/internal/bits"
	"cascade/internal/engine"
	"cascade/internal/fault"
	"cascade/internal/netlist"
)

// Engine puts the core behind the engine ABI as the native tier, so the
// runtime's JIT machinery hot-swaps it exactly like a bitstream:
// interpreter -> native is a promotion (state handoff, same as
// software -> hardware), and a seeded region fault demotes it back. It
// reports engine.Software — the native tier is still the CPU — so the
// runtime's phase logic (software/inlined until the fabric is ready)
// is untouched by its presence. Name, GetState (no bus billing: same
// heap), SetState, DrainWrites and Update are the core's own.
type Engine struct {
	Core
	lastMOps uint64
}

// New compiles prog for the native tier. now supplies $time; flt may be
// nil (or fault-free) outside fault-injection runs. The fault site is
// namespaced ("native:"+name) so the native tier rolls its own fault
// timeline and cannot consume trials scheduled for the fabric engine of
// the same subprogram.
func New(name string, prog *netlist.Program, io engine.IOHandler, flt *fault.Injector, now func() uint64) *Engine {
	return &Engine{Core: NewCore(name, "native:"+name, prog, io, flt, now)}
}

// Loc implements engine.Engine: the native tier runs in software.
func (e *Engine) Loc() engine.Location { return engine.Software }

// Read implements engine.Engine.
func (e *Engine) Read(ev engine.Event) { e.Input(ev) }

// VisitWrites implements engine.WriteVisitor (same heap: nothing billed).
func (e *Engine) VisitWrites(fn func(name string, val *bits.Vector)) { e.VisitChanged(fn) }

// ThereAreEvals implements engine.Engine.
func (e *Engine) ThereAreEvals() bool { return e.HasActive() }

// Evaluate implements engine.Engine: one compiled EvalAll batch.
func (e *Engine) Evaluate() {
	e.Eval.Evaluate()
	e.FlushTasks()
}

// ThereAreUpdates implements engine.Engine.
func (e *Engine) ThereAreUpdates() bool { return e.HasUpdates() }

// EndStep implements engine.Engine. The step boundary is also where the
// native tier's integrity is checked (a corrupted code cache surfaces
// here, the software analogue of a lost bitstream region).
func (e *Engine) EndStep() {
	e.Monitors()
	e.FlushTasks()
	e.CheckRegion()
}

// End implements engine.Engine.
func (e *Engine) End() {}

// UsageDelta implements engine.UsageReporter: compiled instructions are
// billed at the native rate. Work the wrapped machine did on the
// reference path (monitor units at end-of-step) is folded in at the same
// rate — it executes inside the native engine's process budget.
func (e *Engine) UsageDelta() engine.Usage {
	d := e.NativeOpsDelta()
	mo := e.m.Ops
	d += mo - e.lastMOps
	e.lastMOps = mo
	return engine.Usage{NativeOps: d}
}
