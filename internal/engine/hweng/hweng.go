// Package hweng implements Cascade-Go's hardware engines (paper §5.2).
// A hardware engine is a subprogram synthesized to a netlist "bitstream"
// executing on the simulated FPGA (internal/fpga), reached through an
// AXI-style memory-mapped stub that this package models: every ABI
// request and data-plane event crossing the host/fabric boundary is
// counted as a bus transaction and billed on the virtual clock.
//
// Hardware engines implement the two optional ABI capabilities that give
// Cascade its performance (paper §4.3–4.4): Forward absorbs
// standard-library component engines so the user-logic engine answers the
// runtime on their behalf, and OpenLoop runs many scheduler iterations
// entirely on the fabric, returning control only when the iteration
// budget is spent or a system task needs the runtime.
package hweng

import (
	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/engine"
	"cascade/internal/fpga"
	"cascade/internal/netlist"
	"cascade/internal/njit"
)

// dest is the consuming end of a data-plane wire inside the forward
// group: a user-logic input, or (v nil) a port of a forwarded component.
type dest struct {
	v    *elab.Var
	in   *member
	port string
}

// member is a forwarded component and the group-internal consumers of
// its outputs.
type member struct {
	e    *Engine
	name string
	eng  engine.Engine
	sink func(name string, val *bits.Vector) // deliver, bound once: a method value per drain would allocate
	outs []fanout

	// The quiet rule (engine.Engine): what the member answered since the
	// group last called into it — no evals, no updates, drained — holds
	// until the next call, so the group skips asking again. touch clears
	// them at every call the group makes into the member.
	noEvals, noUpdates, drained bool
}

type fanout struct {
	from string
	to   []dest
}

// touch records a call into the member: its answers may have changed.
func (g *member) touch() { g.noEvals, g.noUpdates, g.drained = false, false, false }

// evals is the member's ThereAreEvals under the quiet rule: a "no" since
// the group last called into it is not asked again (only re-asked, under
// engine.VerifyQuiet, to check it). Small enough to inline, so a skipped
// poll is a bit test in the group's loop.
func (g *member) evals() bool {
	if g.noEvals && !engine.VerifyQuiet {
		return false
	}
	return g.pollEvals()
}

func (g *member) pollEvals() bool {
	ev := g.eng.ThereAreEvals()
	if ev && g.noEvals {
		panic("hweng: forwarded " + g.name + " has evals its skipped poll missed")
	}
	g.noEvals = !ev
	return ev
}

// updates is evals for ThereAreUpdates.
func (g *member) updates() bool {
	if g.noUpdates && !engine.VerifyQuiet {
		return false
	}
	return g.pollUpdates()
}

func (g *member) pollUpdates() bool {
	up := g.eng.ThereAreUpdates()
	if up && g.noUpdates {
		panic("hweng: forwarded " + g.name + " has updates its skipped poll missed")
	}
	g.noUpdates = !up
	return up
}

// drain broadcasts the member's pending writes inside the group, unless
// it was drained since the group last called into it.
func (g *member) drain() {
	if !g.drained || engine.VerifyQuiet {
		g.visit()
	}
}

// visit is drain's slow path. The bit is set before the visit: a
// delivery back into the member clears it. A drained member's visit (the
// verify switch's) must find nothing.
func (g *member) visit() {
	fn := g.sink
	if g.drained {
		fn = missedWrite
	}
	g.drained = true
	g.eng.VisitWrites(fn)
}

func missedWrite(name string, _ *bits.Vector) {
	panic("hweng: a forwarded component's skipped drain missed its write of " + name)
}

// Engine is a hardware engine.
type Engine struct {
	// The fabric model executes on the netlist engine core the native
	// tier is built on: the machine holding the state, its compiled
	// evaluator, state round trip, drains, system tasks and the fault
	// latch. What is modelled here is what the fabric adds to it.
	njit.Core
	dev *fpga.Device

	// Native engines carry no ABI wrapper (paper §4.5): full fabric
	// speed, no state access, no system tasks.
	native bool

	// The forward group, and the group-internal wires out of the user
	// logic by output position (those out of a component are its outs).
	group []*member
	wires [][]dest

	// Change-tracking for the group-internal routing (drainGroup),
	// separate from the core's for the runtime-facing data plane
	// (VisitWrites): an internal delivery must not hide a change from the
	// runtime.
	lastInt engine.Outputs
	// stale: the user logic's outputs may have moved since drainGroup
	// last compared them (only evaluation, update and SetState move them).
	stale bool

	// Fault sites: the engine consults the device's injector on
	// control-plane transactions (bus faults) and at step boundaries
	// (region faults); the core latches the first hit. A latched fault
	// does not corrupt execution — detection happens on the MMIO
	// handshake, and the ABI wrapper's shadow registers (Figure 10) keep
	// the engine's state readable — it signals the runtime to evict this
	// engine back to software between steps (it polls Fault()).
	areaLEs int

	// Perf counters, drained by the runtime's virtual clock. Billing is
	// counted here, never taken from the executor.
	cycles uint64 // fabric cycles consumed
	msgs   uint64 // MMIO transactions
}

// New places a compiled program on the device and returns its engine.
func New(name string, prog *netlist.Program, dev *fpga.Device, areaLEs int, io engine.IOHandler, native bool, now func() uint64) (*Engine, error) {
	if err := dev.Place(name, areaLEs); err != nil {
		return nil, err
	}
	return &Engine{
		Core:    njit.NewCore(name, name, prog, io, dev.Faults(), now),
		dev:     dev,
		native:  native,
		areaLEs: areaLEs,
		wires:   make([][]dest, len(prog.Flat.Outputs)),
		lastInt: engine.NewOutputs(len(prog.Flat.Outputs)),
		stale:   true,
	}, nil
}

// Release frees the engine's fabric region.
func (e *Engine) Release() { e.dev.Release(e.Name()) }

// AreaLEs returns the fabric area this engine's region reserves.
func (e *Engine) AreaLEs() int { return e.areaLEs }

// Loc implements engine.Engine.
func (e *Engine) Loc() engine.Location { return engine.Hardware }

// CyclesDelta returns fabric cycles consumed since the last call.
func (e *Engine) CyclesDelta() uint64 {
	d := e.cycles
	e.cycles = 0
	return d
}

// MsgsDelta returns MMIO transactions since the last call.
func (e *Engine) MsgsDelta() uint64 {
	d := e.msgs
	e.msgs = 0
	return d
}

// UsageDelta implements engine.UsageReporter.
func (e *Engine) UsageDelta() engine.Usage {
	return engine.Usage{Cycles: e.CyclesDelta(), Msgs: e.MsgsDelta()}
}

// bill records one MMIO control transaction (and gives the fault
// schedule one shot at it).
func (e *Engine) bill() {
	e.msgs++
	e.dev.CountWrite(1)
	e.CheckBus()
}

// GetState implements engine.Engine. Reading state out of the fabric
// costs one bus read per 32-bit word of the layout.
func (e *Engine) GetState() []uint64 {
	words := e.Flat().Layout().Bus()
	e.msgs += words
	e.dev.CountRead(words)
	return e.Core.GetState()
}

// SetState implements engine.Engine (bus writes, symmetric to GetState).
func (e *Engine) SetState(img []uint64) {
	words := e.Flat().Layout().Bus()
	e.msgs += words
	e.dev.CountWrite(words)
	e.Core.SetState(img)
	e.stale = true
}

// Read implements engine.Engine: one bus write per input event.
func (e *Engine) Read(ev engine.Event) {
	if e.Input(ev) {
		e.msgs++
		e.dev.CountWrite(1)
	}
}

// VisitWrites implements engine.Engine: one bus read per changed output.
func (e *Engine) VisitWrites(fn func(name string, val *bits.Vector)) {
	if n := uint64(e.VisitChanged(fn)); n > 0 {
		e.msgs += n
		e.dev.CountRead(n)
	}
}

// DrainWrites implements engine.Engine.
func (e *Engine) DrainWrites() []engine.Event { return engine.Collect(e) }

// ThereAreEvals implements engine.Engine, answering for forwarded
// components as well (ABI forwarding, paper §4.3).
func (e *Engine) ThereAreEvals() bool {
	e.bill()
	if e.HasActive() {
		return true
	}
	for _, g := range e.group {
		if g.evals() {
			return true
		}
	}
	return false
}

// Evaluate implements engine.Engine: one fabric cycle plus recursive
// evaluation of forwarded components, with group-internal data routing.
func (e *Engine) Evaluate() {
	e.bill()
	e.cycles++
	e.evalGroup()
	e.FlushTasks()
}

// evalGroup runs one evaluation batch across the user logic and the
// forwarded components, routing data internally, and reports whether
// anything ran.
func (e *Engine) evalGroup() (ran bool) {
	if e.HasActive() {
		e.Eval.Evaluate()
		ran, e.stale = true, true
	}
	e.drainGroup()
	for _, g := range e.group {
		if g.evals() {
			g.touch()
			g.eng.Evaluate()
			ran = true
		}
	}
	e.drainGroup()
	return ran
}

// ThereAreUpdates implements engine.Engine.
func (e *Engine) ThereAreUpdates() bool {
	e.bill()
	if e.HasUpdates() {
		return true
	}
	for _, g := range e.group {
		if g.updates() {
			return true
		}
	}
	return false
}

// Update implements engine.Engine: one fabric cycle (the latch write of
// Figure 10) plus forwarded updates.
func (e *Engine) Update() {
	e.bill()
	e.cycles++
	e.updateGroup()
}

// updateGroup commits one update batch across the group and reports
// whether anything was committed.
func (e *Engine) updateGroup() (ran bool) {
	if e.HasUpdates() {
		e.Eval.Update()
		ran, e.stale = true, true
	}
	for _, g := range e.group {
		if g.updates() {
			g.touch()
			g.eng.Update()
			ran = true
		}
	}
	e.drainGroup()
	return ran
}

// EndStep implements engine.Engine. The step boundary is also where the
// region's integrity is checked (a lost bitstream surfaces here).
func (e *Engine) EndStep() {
	e.Monitors()
	e.FlushTasks()
	e.endGroup()
	e.CheckRegion()
}

// endGroup ends the step for every forwarded component.
func (e *Engine) endGroup() {
	for _, g := range e.group {
		g.touch()
		g.eng.EndStep()
	}
}

// End implements engine.Engine.
func (e *Engine) End() {
	for _, g := range e.group {
		g.touch()
		g.eng.End()
	}
}

// Forward attaches a contained standard-library component whose
// requests this engine now answers (ABI forwarding, paper §4.3); the
// runtime ceases direct interaction with it.
func (e *Engine) Forward(name string, inner engine.Engine) {
	g := e.member(name)
	if g == nil {
		g = &member{e: e, name: name}
		g.sink = g.deliver
		e.group = append(e.group, g)
	}
	g.touch()
	g.eng = inner
}

// ForwardWire registers a data-plane route internal to the forward
// group, used during open-loop execution. Engine names are instance
// paths, "" the user logic itself; both ends are resolved here, once, so
// a wire naming a component that has not been forwarded yet (or a
// variable the user logic lacks) carries nothing.
func (e *Engine) ForwardWire(fromName, fromVar, toName, toVar string) {
	d := dest{port: toVar}
	if toName == "" {
		d.v = e.Flat().VarNamed(toVar)
	} else {
		d.in = e.member(toName)
	}
	if d.v == nil && d.in == nil {
		return
	}
	e.stale = true // the new wire's first delivery
	if g := e.member(fromName); g != nil {
		g.wire(fromVar, d)
	} else if fromName == "" {
		for i, v := range e.Flat().Outputs {
			if v.Name == fromVar {
				e.wires[i] = append(e.wires[i], d)
			}
		}
	}
}

func (e *Engine) member(name string) *member {
	for _, g := range e.group {
		if g.name == name {
			return g
		}
	}
	return nil
}

func (g *member) wire(from string, d dest) {
	for i := range g.outs {
		if g.outs[i].from == from {
			g.outs[i].to = append(g.outs[i].to, d)
			return
		}
	}
	g.outs = append(g.outs, fanout{from, []dest{d}})
}

// send delivers one changed value, borrowed, to its destinations.
func (e *Engine) send(to []dest, val *bits.Vector) {
	for _, d := range to {
		if d.v != nil {
			e.SetInput(d.v, val)
		} else {
			d.in.touch()
			d.in.eng.Read(engine.Event{Var: d.port, Val: val})
		}
	}
}

// deliver is the member's sink: one of its outputs changed.
func (g *member) deliver(name string, val *bits.Vector) {
	for i := range g.outs {
		if g.outs[i].from == name {
			g.e.send(g.outs[i].to, val)
			return
		}
	}
}

// drainGroup broadcasts pending output changes inside the group: the
// user logic's wired outputs that changed value, then the pending writes
// of every component called since its last drain. Nothing here allocates
// or bills; with no group it touches nothing, so it never interferes
// with the runtime-facing VisitWrites tracking.
func (e *Engine) drainGroup() {
	if e.stale {
		e.stale = false
		for i, to := range e.wires {
			if len(to) == 0 {
				continue
			}
			if cur := e.PeekOutput(i); e.lastInt.Changed(i, cur) {
				e.send(to, cur)
			}
		}
	}
	for _, g := range e.group {
		g.drain()
	}
}

// OpenLoop is the open-loop scheduling capability (paper §4.4): it replicates the Cascade
// scheduler entirely inside the fabric for up to steps scheduler
// iterations (two iterations per clock tick), stopping early if a system
// task fires. It returns the number of iterations completed. The clock
// toggling comes from the forwarded Clock component's own updates, so
// the schedule is identical to the runtime's — only the per-iteration
// messages disappear, which is what lets the virtual clock approach
// fabric speed. clk names the engine's clock input and must exist.
func (e *Engine) OpenLoop(clk string, steps int) int {
	e.bill()
	e.CheckRegion() // one integrity trial per burst
	if e.Flat().VarNamed(clk) == nil {
		return 0
	}
	done := 0
	for done < steps {
		// One scheduler iteration: settle evaluations and updates, then
		// end the step for the whole group (the Clock re-arms here).
		e.settleGroup()
		e.Monitors()
		e.endGroup()
		e.drainGroup()
		done++
		if done%2 == 0 {
			// Native designs spend one fabric cycle per tick. The ABI
			// wrapper's latch commit + clock toggle + task check cost ~3
			// (Figure 10), the source of the paper's ~2.9x open-loop gap
			// to native.
			if e.native {
				e.cycles++
			} else {
				e.cycles += 3
			}
		}
		if e.FlushTasks() || e.Finished() {
			break
		}
	}
	return done
}

// settleGroup runs the evaluate/update fixpoint across the machine and
// forwarded components.
func (e *Engine) settleGroup() {
	for {
		for e.evalGroup() {
		}
		if !e.updateGroup() {
			return
		}
	}
}
