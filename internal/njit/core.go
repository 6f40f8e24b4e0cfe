package njit

import (
	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/engine"
	"cascade/internal/fault"
	"cascade/internal/netlist"
)

// Core is the netlist engine under both compiled rungs of the ladder:
// the machine that holds a program's state, the evaluator compiled over
// it (embedded, so HasActive/Evaluate/HasUpdates/Update are the raw
// compiled batches), and the bookkeeping every engine built on the pair
// needs the same way — the state round trip, input delivery, the
// change-tracked output drain, system-task forwarding with the $finish
// latch, and the first-fault latch. An engine embeds it by value and
// adds what is its own: the native tier its op billing, the fabric model
// (hweng) its bus billing, forward group and open loop.
type Core struct {
	*Eval
	name string
	io   engine.IOHandler

	// One fault per engine life: the first hit on the site's timeline is
	// latched and no further trial is rolled, so a faulted engine does
	// not consume the schedule of its successor.
	flt   *fault.Injector
	site  string
	fault error

	outs     engine.Outputs
	finished bool
}

// NewCore loads prog into a fresh machine and compiles it. now supplies
// $time; site names the engine's fault timeline on flt, which may be nil
// (or fault-free) outside fault-injection runs.
func NewCore(name, site string, prog *netlist.Program, io engine.IOHandler, flt *fault.Injector, now func() uint64) Core {
	m := netlist.NewMachine(prog)
	m.NowFn = now
	return Core{
		Eval: Compile(m),
		name: name,
		io:   io,
		flt:  flt,
		site: site,
		outs: engine.NewOutputs(len(prog.Flat.Outputs)),
	}
}

// Name implements engine.Engine.
func (c *Core) Name() string { return c.name }

// Flat exposes the engine's elaborated subprogram.
func (c *Core) Flat() *elab.Flat { return c.prog.Flat }

// Finished reports whether $finish has executed.
func (c *Core) Finished() bool { return c.finished }

// Fault returns the first injected fault this engine observed (nil while
// healthy). The owner polls it between time steps and demotes the engine.
func (c *Core) Fault() error { return c.fault }

// CheckBus runs one bus-fault trial, latching the first hit.
func (c *Core) CheckBus() {
	if c.fault == nil {
		c.fault = c.flt.Bus(c.site)
	}
}

// CheckRegion runs one region-integrity trial, latching the first hit.
func (c *Core) CheckRegion() {
	if c.fault == nil {
		c.fault = c.flt.Region(c.site)
	}
}

// GetState implements engine.Engine.
func (c *Core) GetState() []uint64 { return c.m.GetState() }

// SetState implements engine.Engine. Replacing the state wholesale
// invalidates the compiled evaluator's sensitivity bookkeeping.
func (c *Core) SetState(img []uint64) {
	c.m.SetState(img)
	c.InvalidateAll()
}

// SetInput drives an input variable; val is only read.
func (c *Core) SetInput(v *elab.Var, val *bits.Vector) { c.m.SetInput(v, val) }

// Input delivers a data-plane event and reports whether the subprogram
// has the variable it names.
func (c *Core) Input(ev engine.Event) bool {
	v := c.prog.Flat.VarNamed(ev.Var)
	if v != nil {
		c.m.SetInput(v, ev.Val)
	}
	return v != nil
}

// PeekOutput returns the current value of the i-th output, borrowed
// under netlist.Machine.PeekVar's rules.
func (c *Core) PeekOutput(i int) *bits.Vector { return c.m.PeekVar(c.prog.Flat.Outputs[i]) }

// VisitChanged calls fn for every output whose value differs from the one
// last drained, lending the machine's value (PeekOutput's rules), and
// returns how many there were. It is not named VisitWrites so that no
// engine inherits a drain by embedding: the fabric model bills a bus
// read per changed output, the native tier nothing.
func (c *Core) VisitChanged(fn func(name string, val *bits.Vector)) (n int) {
	for i, v := range c.prog.Flat.Outputs {
		if cur := c.m.PeekVar(v); c.outs.Changed(i, cur) {
			fn(v.Name, cur)
			n++
		}
	}
	return n
}

// Monitors re-evaluates the $monitor units (the machine's end-of-step),
// capturing changed lines for the next FlushTasks.
func (c *Core) Monitors() { c.m.EndStep() }

// FlushTasks forwards the captured $display/$finish side effects to the
// IO handler, in order, latches $finish, and reports whether there were
// any.
func (c *Core) FlushTasks() bool {
	evs := c.m.DrainEvents()
	for _, ev := range evs {
		switch {
		case ev.Finish:
			c.finished = true
			if c.io != nil {
				c.io.Finish(0)
			}
		case c.io != nil:
			c.io.Display(ev.Text, ev.Newline)
		}
	}
	return len(evs) > 0
}
