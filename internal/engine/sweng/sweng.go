// Package sweng implements Cascade-Go's software engines (paper §5.1):
// a subprogram held as an elaborated IR and executed by the event-driven
// interpreter in internal/sim. Software engines compile in microseconds —
// they are what lets eval'd code start running immediately — at the cost
// of interpreter-speed execution. They inhabit the same process as the
// runtime, so communication costs nothing.
package sweng

import (
	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/engine"
	"cascade/internal/sim"
)

// Engine is a software engine.
type Engine struct {
	name string
	flat *elab.Flat
	s    *sim.Simulator
	io   engine.IOHandler

	outs    engine.Outputs
	lastOps uint64
}

// New builds a software engine for an elaborated subprogram. now
// supplies virtual time for $time; io receives system-task side effects;
// eager selects the naive re-evaluation strategy (baseline/ablation).
func New(flat *elab.Flat, io engine.IOHandler, now func() uint64, eager bool) *Engine {
	e := &Engine{
		name: flat.Name,
		flat: flat,
		io:   io,
		outs: engine.NewOutputs(len(flat.Outputs)),
	}
	e.s = sim.New(flat, sim.Options{
		Display: func(text string) {
			if io != nil {
				newline := len(text) > 0 && text[len(text)-1] == '\n'
				if newline {
					text = text[:len(text)-1]
				}
				io.Display(text, newline)
			}
		},
		Finish: func(code int) {
			if io != nil {
				io.Finish(code)
			}
		},
		Now:   now,
		Eager: eager,
	})
	return e
}

// Flat exposes the engine's elaborated subprogram.
func (e *Engine) Flat() *elab.Flat { return e.flat }

// Name implements engine.Engine.
func (e *Engine) Name() string { return e.name }

// Loc implements engine.Engine.
func (e *Engine) Loc() engine.Location { return engine.Software }

// GetState implements engine.Engine.
func (e *Engine) GetState() *sim.State { return e.s.GetState() }

// SetState implements engine.Engine.
func (e *Engine) SetState(st *sim.State) { e.s.SetState(st) }

// Read implements engine.Engine.
func (e *Engine) Read(ev engine.Event) {
	e.s.SetInputByName(ev.Var, ev.Val)
}

// VisitWrites implements engine.WriteVisitor: fn sees every output port
// whose value changed since the last drain, lent from the simulator.
func (e *Engine) VisitWrites(fn func(name string, val *bits.Vector)) {
	for i, v := range e.flat.Outputs {
		if cur := e.s.VarValue(v); e.outs.Changed(i, cur) {
			fn(v.Name, cur)
		}
	}
}

// DrainWrites implements engine.Engine: VisitWrites, collected into
// events that own their values.
func (e *Engine) DrainWrites() []engine.Event {
	var evs []engine.Event
	e.VisitWrites(func(name string, val *bits.Vector) {
		evs = append(evs, engine.Event{Var: name, Val: val.Clone()})
	})
	return evs
}

// ThereAreEvals implements engine.Engine.
func (e *Engine) ThereAreEvals() bool { return e.s.HasActive() }

// Evaluate implements engine.Engine.
func (e *Engine) Evaluate() { e.s.Evaluate() }

// ThereAreUpdates implements engine.Engine.
func (e *Engine) ThereAreUpdates() bool { return e.s.HasUpdates() }

// Update implements engine.Engine.
func (e *Engine) Update() { e.s.Update() }

// EndStep implements engine.Engine.
func (e *Engine) EndStep() { e.s.EndStep() }

// End implements engine.Engine.
func (e *Engine) End() {}

// Finished reports whether the subprogram executed $finish.
func (e *Engine) Finished() bool { return e.s.Finished() }

// OpsDelta returns interpreter operations executed since the last call
// (the runtime's compute-cost feed).
func (e *Engine) OpsDelta() uint64 {
	total := e.s.EvalOps + e.s.WriteOps + e.s.UpdateOps
	d := total - e.lastOps
	e.lastOps = total
	return d
}

// UsageDelta implements engine.UsageReporter.
func (e *Engine) UsageDelta() engine.Usage {
	return engine.Usage{Ops: e.OpsDelta()}
}
