package njit

import (
	"cascade/internal/elab"
	"cascade/internal/engine"
	"cascade/internal/fault"
	"cascade/internal/netlist"
	"cascade/internal/sim"
)

// Engine wraps a compiled native evaluator behind the engine ABI, so
// the runtime's JIT machinery hot-swaps it exactly like a bitstream:
// interpreter -> native is a promotion (state handoff, same as
// software -> hardware), and a seeded region fault demotes it back. It
// reports engine.Software — the native tier is still the CPU — so the
// runtime's phase logic (software/inlined until the fabric is ready)
// is untouched by its presence.
type Engine struct {
	name string
	flat *elab.Flat
	m    *netlist.Machine
	ev   *Eval
	io   engine.IOHandler

	// Fault handling mirrors hweng: one region-integrity trial per step
	// boundary, first hit latched, runtime polls Fault() and evicts.
	// The site name is namespaced ("native:"+name) so the native tier
	// rolls its own fault timeline and cannot consume trials scheduled
	// for the fabric engine of the same subprogram.
	flt    *fault.Injector
	flterr error

	outs     engine.Outputs
	finished bool
	lastMOps uint64
}

// New compiles prog for the native tier. now supplies $time; flt may be
// nil (or fault-free) outside fault-injection runs.
func New(name string, prog *netlist.Program, io engine.IOHandler, flt *fault.Injector, now func() uint64) *Engine {
	m := netlist.NewMachine(prog)
	m.NowFn = now
	return &Engine{
		name: name,
		flat: prog.Flat,
		m:    m,
		ev:   Compile(m),
		io:   io,
		flt:  flt,
		outs: engine.NewOutputs(len(prog.Flat.Outputs)),
	}
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return e.name }

// Loc implements engine.Engine: the native tier runs in software.
func (e *Engine) Loc() engine.Location { return engine.Software }

// Flat exposes the engine's elaborated subprogram.
func (e *Engine) Flat() *elab.Flat { return e.flat }

// Finished reports whether $finish has executed.
func (e *Engine) Finished() bool { return e.finished }

// Fault returns the first injected native-tier fault observed by this
// engine (nil while healthy). The runtime polls it between time steps
// and responds with a native -> interpreter demotion.
func (e *Engine) Fault() error { return e.flterr }

func (e *Engine) checkRegion() {
	if e.flterr == nil {
		e.flterr = e.flt.Region("native:" + e.name)
	}
}

// GetState implements engine.Engine (no bus billing: same heap).
func (e *Engine) GetState() *sim.State { return e.m.GetState() }

// SetState implements engine.Engine. The wholesale state replacement
// invalidates the compiled evaluator's sensitivity bookkeeping.
func (e *Engine) SetState(st *sim.State) {
	e.m.SetState(st)
	e.ev.InvalidateAll()
}

// Read implements engine.Engine.
func (e *Engine) Read(ev engine.Event) {
	if v := e.flat.VarNamed(ev.Var); v != nil {
		e.m.SetInput(v, ev.Val)
	}
}

// DrainWrites implements engine.Engine: change-tracked output events.
func (e *Engine) DrainWrites() []engine.Event {
	var evs []engine.Event
	for i, v := range e.flat.Outputs {
		if cur := e.m.PeekVar(v); e.outs.Changed(i, cur) {
			evs = append(evs, engine.Event{Var: v.Name, Val: cur.Clone()})
		}
	}
	return evs
}

// ThereAreEvals implements engine.Engine.
func (e *Engine) ThereAreEvals() bool { return e.ev.HasActive() }

// Evaluate implements engine.Engine: one compiled EvalAll batch.
func (e *Engine) Evaluate() {
	e.ev.Evaluate()
	e.drainMachineEvents()
}

// ThereAreUpdates implements engine.Engine.
func (e *Engine) ThereAreUpdates() bool { return e.ev.HasUpdates() }

// Update implements engine.Engine: commits the machine's pending queue
// plus the native tier's coalesced non-blocking shadow buffer.
func (e *Engine) Update() { e.ev.Update() }

// EndStep implements engine.Engine. The step boundary is also where the
// native tier's integrity is checked (a corrupted code cache surfaces
// here, the software analogue of a lost bitstream region).
func (e *Engine) EndStep() {
	e.m.EndStep()
	e.drainMachineEvents()
	e.checkRegion()
}

// End implements engine.Engine.
func (e *Engine) End() {}

// UsageDelta implements engine.UsageReporter: compiled instructions are
// billed at the native rate. Work the wrapped machine did on the slow
// path (monitor units at end-of-step) is folded in at the same rate —
// it executes inside the native engine's process budget.
func (e *Engine) UsageDelta() engine.Usage {
	d := e.ev.NativeOpsDelta()
	mo := e.m.Ops
	d += mo - e.lastMOps
	e.lastMOps = mo
	return engine.Usage{NativeOps: d}
}

func (e *Engine) drainMachineEvents() {
	if _, fin := e.ev.FlushTasks(e.io); fin {
		e.finished = true
	}
}
