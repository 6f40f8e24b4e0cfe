package runtime

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"cascade/internal/bits"
	"cascade/internal/engine"
	"cascade/internal/engine/hweng"
	"cascade/internal/lifecycle"
	"cascade/internal/obsv"
	"cascade/internal/proto"
	"cascade/internal/stdlib"
	"cascade/internal/toolchain"
	"cascade/internal/transport"
)

// slot is one row of the schedule table: a scheduled engine and what the
// Figure 6 loop needs about it, resolved once by reschedule so that a
// step runs on indices — no path looked up, no key built, no allocation.
type slot struct {
	path   string
	c      *transport.Client
	p      *lifecycle.Placement // nil for stdlib peripherals
	routes []route              // wires out of this engine, in design order
	// idle has bit 1<<ph set when, this step, the engine answered "no" to
	// phase ph's poll and nothing has called into it since: the answer
	// still holds, and round does not ask again (the quiet rule).
	idle uint8
}

// route is a data-plane wire: output from feeds input port of slot to.
type route struct {
	from, port string
	to         int
}

// slotOf finds a path's row (nil when it is not scheduled: forwarded, or
// not built). The pointer is good until the table next changes.
func (r *Runtime) slotOf(path string) *slot {
	for i := range r.slots {
		if r.slots[i].path == path {
			return &r.slots[i]
		}
	}
	return nil
}

// reschedule resolves the table after rows were added, removed or
// reordered: the design's wires as routes between rows (a wire with an
// end that is not scheduled — forwarded, or not built yet — carries
// nothing), and the design's FIFO meters.
func (r *Runtime) reschedule() {
	r.fifos = r.fifos[:0]
	at := make(map[string]int, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		at[s.path] = i
		s.routes = nil
	}
	for _, w := range r.ver.exec.Wires {
		from, ok := at[w.From.Sub]
		if to, ok2 := at[w.To.Sub]; ok && ok2 {
			r.slots[from].routes = append(r.slots[from].routes, route{w.From.Port, w.To.Port, to})
		}
	}
	for _, sub := range r.ver.exec.StdSubs() {
		if f, ok := r.stdEngines[sub.Path].(*stdlib.FIFO); ok {
			r.fifos = append(r.fifos, f)
		}
	}
}

// Step executes one scheduler time step (Figure 6): evaluate batches to a
// fixed point, commit update batches, then — in the observable state —
// flush interrupts, run end-of-step work, advance time, and service the
// JIT state machine (hot swaps happen only here, where semantics cannot
// be disturbed). In the open-loop phase a Step instead runs a burst of
// iterations inside the hardware engine.
//
// Batches are the unit of billing (the paper batches requests so they
// can be issued asynchronously: a batch costs its makespan over
// Parallelism lanes) and of remote traffic. Within a round the
// controller polls engines in schedule order, runs every engine with
// pending work — in-process ones on its own goroutine, in schedule
// order, the ones a daemon hosts in a single frame that polls, runs and
// drains them there — and then drains buffered IO and routes outputs,
// again in schedule order. Engines only exchange values through that
// routing, so a round is a Jacobi iteration of the monotone fixpoint the
// serial Gauss-Seidel schedule computes, and by event-order independence
// the observable states are identical.
func (r *Runtime) Step() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.step()
}

// step is Step's body; callers hold r.mu.
func (r *Runtime) step() {
	if r.finished || r.ver.exec == nil {
		return
	}
	if r.phase == PhaseOpenLoop {
		r.openLoopBurst()
		r.persistAfterStep()
		return
	}

	// EvalAll over engines with evaluation events to a fixed point, then
	// one update batch, until neither has work. No "no" carries over from
	// the last step: its EndStep, and whatever ran between steps, reached
	// every engine.
	for i := range r.slots {
		r.slots[i].idle = 0
	}
	for r.round(proto.RoundEvals) || r.round(proto.RoundUpdates) {
	}

	// Observable state: flush the interrupt queue, end the step.
	r.flushDisplays()
	r.flushTransportErrs()
	var link *transport.Link
	ended := 0 // hosted slots below this row have had their end-step
	for i := range r.slots {
		if c := r.slots[i].c; c.Link() == nil {
			c.EndStep()
		} else if i >= ended {
			// One end-step frame for every hosted slot, at the first one's
			// turn: what the slots before it routed here is queued ahead.
			// (A slot the step boundary swapped cuts the frame short; the
			// rest get theirs once its announced outputs are routed.)
			link, ended = r.frame(proto.RoundEndStep, i)
		}
		r.drainLane(r.slots[i].p)
		r.route(i)
	}
	r.steps++
	r.ticks = r.steps / 2
	r.vclk.AdvanceOverhead(r.opts.Model.DispatchPs)
	if link != nil {
		link.Flush() // a step settles everything it caused
	}
	r.settleCosts()
	r.serviceFaults()
	r.serviceJIT()
	r.serviceSupervision()
	r.persistAfterStep()
}

// roundABI is the poll and the run of the two batch phases.
var roundABI = [...]struct {
	pending func(*transport.Client) bool
	run     func(*transport.Client)
}{
	proto.RoundEvals:   {(*transport.Client).ThereAreEvals, (*transport.Client).Evaluate},
	proto.RoundUpdates: {(*transport.Client).ThereAreUpdates, (*transport.Client).Update},
}

// round is one evaluate or update batch of Figure 6, and reports whether
// anything ran. In schedule order the controller polls the in-process
// slots (billing the control-plane traffic of asking), then has the
// daemon poll, run and drain every hosted slot in one frame; the
// in-process members then run on the controller, and the whole batch is
// drained, routed and settled in schedule order. The bill is the batch's
// makespan over Parallelism lanes (settleBatch), whatever ran it.
//
// The frame goes after every in-process poll, not at the first hosted
// slot's turn: a poll is pure or billed per call, and the daemon reads
// the clock those bills advance only at end-step, so the order cannot be
// seen. It lets an evals round that runs nothing in-process send the
// frame chained (proto.RoundChained): if the daemon's evals ran nobody
// either, it runs the updates round Figure 6 makes next in the same
// frame, and that round sends none.
//
// A poll is asked only when its answer can have changed (the quiet rule,
// engine.Engine): a software engine or a peripheral that said "no" this
// step and has not been called since is not asked again. A fabric
// engine's poll is an MMIO transaction with a bus-fault trial, so it is
// always asked. Either way the bus bills every poll the paper's scheduler
// makes, at the point it makes it — the ledger cannot tell.
func (r *Runtime) round(ph proto.RoundPhase) bool {
	abi := &roundABI[ph]
	bit := uint8(1) << ph
	r.batch = r.batch[:0]
	hosted := -1
	for i := range r.slots {
		s := &r.slots[i]
		if s.c.Link() != nil {
			if hosted < 0 {
				hosted = i
			}
			continue
		}
		bus := onBus(s.c)
		if bus {
			r.vclk.AdvanceComm(1, &r.opts.Model) // there_are_* poll, asked or owed
		}
		if s.idle&bit != 0 {
			if engine.VerifyQuiet {
				r.verifyQuiet(s, ph)
			}
			continue
		}
		if !abi.pending(s.c) {
			if s.p == nil || !bus { // pure: a peripheral, or a software rung
				s.idle |= bit
			}
			continue
		}
		if bus {
			r.vclk.AdvanceComm(1, &r.opts.Model) // the evaluate/update request itself
		}
		s.idle = 0 // the run is a call into it
		r.batch = append(r.batch, i)
	}
	var link *transport.Link
	if hosted >= 0 {
		fph := ph
		if ph == proto.RoundEvals && len(r.batch) == 0 { // nothing runs in-process
			fph = proto.RoundChained
		}
		link, _ = r.frame(fph, hosted)
		n := len(r.batch)
		for i := hosted; i < len(r.slots); i++ {
			if c := r.slots[i].c; c.Link() != nil && c.Ran() {
				r.batch = append(r.batch, i)
			}
		}
		if n > 0 && len(r.batch) > n {
			slices.Sort(r.batch) // back in schedule order
		}
	}
	if len(r.batch) == 0 {
		return false
	}
	for _, i := range r.batch {
		if c := r.slots[i].c; c.Link() == nil {
			abi.run(c)
		}
	}
	for _, i := range r.batch {
		r.drainLane(r.slots[i].p)
		r.route(i)
	}
	// A batch's makespan is not additive, so what a queued input costs a
	// member of this batch must be in hand before the batch is settled.
	for _, i := range r.batch {
		if r.slots[i].c.Queued() {
			link.Flush()
			break
		}
	}
	r.settleBatch(r.batch)
	return true
}

// frame sends the round's one frame to the daemon — phase ph for every
// hosted slot from row `from` on, in schedule order, behind the inputs
// queued since the last frame — and returns the link it went on (the
// runtime has one daemon, so one) and the row the frame stopped before.
func (r *Runtime) frame(ph proto.RoundPhase, from int) (*transport.Link, int) {
	r.hosted = r.hosted[:0]
	for i := from; i < len(r.slots); i++ {
		if c := r.slots[i].c; c.Link() != nil {
			r.hosted = append(r.hosted, c)
		}
	}
	link := r.hosted[0].Link()
	upto := len(r.slots)
	if done := link.Round(ph, r.hosted); done < len(r.hosted) {
		for upto = from; r.slots[upto].c != r.hosted[done]; upto++ {
		}
	}
	return link, upto
}

// verifyQuiet re-issues a poll the quiet rule skipped, to the engine
// itself rather than through its client (whose round-trip count tests
// pin), and panics if it had work (engine.VerifyQuiet; tests only).
func (r *Runtime) verifyQuiet(s *slot, ph proto.RoundPhase) {
	e := r.stdEngines[s.path]
	if s.p != nil {
		e = s.p.Engine()
	}
	if ph == proto.RoundEvals && e.ThereAreEvals() || ph == proto.RoundUpdates && e.ThereAreUpdates() {
		panic(fmt.Sprintf("runtime: %s has work in phase %d that its skipped poll missed", s.path, ph))
	}
}

// onBus reports whether talking to c crosses the memory-mapped bus: a
// local engine in hardware (software engines share the heap). Remote
// clients meter every ABI call — polls included — through Usage.Msgs,
// which settleBatch/settleCosts bill; billing here too would double-charge.
func onBus(c *transport.Client) bool { return !c.Remote() && c.Loc() == engine.Hardware }

// route broadcasts slot i's pending output writes along its routes,
// billing bus crossings; values are only lent (engine.Engine.Read).
func (r *Runtime) route(i int) {
	r.from = i
	r.slots[i].c.VisitWrites(r.deliverFn)
}

// deliver is route's visitor: output name of slot r.from changed to val.
// The Read is a call into the target, so its quiet bits go.
func (r *Runtime) deliver(name string, val *bits.Vector) {
	s := &r.slots[r.from]
	if onBus(s.c) {
		r.vclk.AdvanceComm(1, &r.opts.Model) // bus read of the changed output
	}
	for _, rt := range s.routes {
		if rt.from == name {
			target := &r.slots[rt.to]
			if onBus(target.c) {
				r.vclk.AdvanceComm(1, &r.opts.Model) // bus write of the input
			}
			target.idle = 0
			target.c.Read(engine.Event{Var: rt.port, Val: val})
		}
	}
}

// settleEngine drains one client's metered work, bills its serialized
// communication (messages cross the memory-mapped bus — or, for remote
// engines, the TCP transport, which the client meters per ABI call),
// and returns its compute cost in picoseconds for the caller's makespan
// arithmetic. Usage is location-agnostic: a remote subprogram reports
// interpreter ops while its host runs it in software and fabric cycles
// after the host promotes it, and the same conversion applies.
func (r *Runtime) settleEngine(c *transport.Client) uint64 {
	model := &r.opts.Model
	u := c.UsageDelta()
	if u.Msgs > 0 {
		r.vclk.AdvanceComm(u.Msgs, model)
	}
	return u.Ops*model.SWEvalOpPs + u.Cycles*model.HWCyclePs + u.NativeOps*model.NativeOpPs
}

// settleBatch converts the batch's engine work counters into virtual
// time. Compute is billed as the batch's makespan over Parallelism
// lanes, the width the modelled controller issues a batch across: when
// the batch fits in the lanes (len ≤ Parallelism) that is the slowest
// member, and when it does not, the lanes run multiple rounds and the
// bill is at least ceil(sum/lanes) — billing bare max there would
// pretend an unbounded number of lanes existed and under-charge. At
// Parallelism 1 the engines run back-to-back and the sum is the honest
// cost. Communication is always summed: the memory-mapped bus
// serializes transfers.
func (r *Runtime) settleBatch(batch []int) {
	var maxCompute, sumCompute uint64
	for _, i := range batch {
		c := r.settleEngine(r.slots[i].c)
		sumCompute += c
		if c > maxCompute {
			maxCompute = c
		}
	}
	span := batchMakespanPs(sumCompute, maxCompute, r.par)
	r.vclk.AdvanceCompute(span)
	if o := r.opts.Observer; o != nil {
		o.BatchMakespan.Observe(span)
		o.LaneOccupancy.Observe(uint64(len(batch)))
	}
	r.settleFIFOs()
}

// settleFIFOs bills FIFO host transfers, which cross the memory-mapped
// bridge whichever side the engine lives on (the Figure 12 bottleneck).
func (r *Runtime) settleFIFOs() {
	for _, f := range r.fifos {
		r.vclk.AdvanceComm(f.TransfersDelta(), &r.opts.Model)
	}
}

// batchMakespanPs is the compute bill for a batch with the given summed
// and maximum per-engine costs across `lanes` modelled lanes: the
// longest-running lane under any work-conserving assignment is at least
// max(maxCompute, ceil(sum/lanes)). One lane degenerates to the serial
// sum.
func batchMakespanPs(sumCompute, maxCompute uint64, lanes int) uint64 {
	if lanes <= 1 {
		return sumCompute
	}
	span := (sumCompute + uint64(lanes) - 1) / uint64(lanes)
	if span < maxCompute {
		span = maxCompute
	}
	return span
}

// settleCosts converts all engine work counters into virtual time (the
// end-of-step sweep; EndStep work is serial on the controller).
func (r *Runtime) settleCosts() {
	for i := range r.slots {
		r.vclk.AdvanceCompute(r.settleEngine(r.slots[i].c))
	}
	r.settleFIFOs()
}

// serviceJIT runs the Figure 9 state machine between time steps.
func (r *Runtime) serviceJIT() {
	if r.opts.Features.DisableJIT {
		return
	}
	// Hot swap any finished compilations.
	r.eachJob(func(p *lifecycle.Placement, t lifecycle.Tier, _ *toolchain.Job) {
		if tr, ok := p.Promote(t, r.vclk.Now()); ok {
			r.settle(p, tr)
		}
	})

	// Phase transitions once every user engine is in hardware. Location
	// is read from the clients, so it covers remote engines the daemon
	// promoted onto its own fabric as well as in-process hardware.
	if len(r.placed) == 0 || r.pending(lifecycle.Fabric) != 0 {
		return
	}
	for i := range r.slots {
		if s := &r.slots[i]; s.p != nil && s.c.Loc() != engine.Hardware {
			// A remote host evicts faulted engines on its own; the phase
			// retreats here, when the reply envelopes show the move, and
			// climbs again as the daemon recompiles. (Local evictions
			// retreat the phase in settle.)
			if r.phase == PhaseHardware || r.phase == PhaseNative {
				r.setSoftwarePhase()
			}
			return
		}
	}
	if r.phase == PhaseInlined || r.phase == PhaseSoftware {
		if r.opts.Features.Native {
			r.setPhase(PhaseNative)
		} else {
			r.setPhase(PhaseHardware)
		}
	}
	// ABI forwarding needs a single user engine (inlined designs) living
	// in this process: the forwarder absorbs stdlib engine objects, which
	// cannot cross the wire. Remote engines stay in lock-step hardware.
	if (r.phase == PhaseHardware || r.phase == PhaseNative) && len(r.placed) == 1 &&
		!r.opts.Features.DisableForwarding {
		if hw := r.placed[0].Fabric(); hw != nil {
			r.forwardStdlib(hw)
		}
	}
	// Open loop needs everything in one engine plus a known clock.
	if r.phase == PhaseForwarded && !r.opts.Features.DisableOpenLoop &&
		len(r.slots) == 1 && r.ver.clockVar != "" {
		r.setPhase(PhaseOpenLoop)
		r.opts.View.Info("entering open-loop scheduling on %s", r.ver.clockVar)
	}
}

// pending counts the compiles in flight for target tier t.
func (r *Runtime) pending(t lifecycle.Tier) int {
	n := 0
	for _, p := range r.placed {
		if p.Pending(t) != nil {
			n++
		}
	}
	return n
}

// setSoftwarePhase puts the JIT phase at software execution: where a
// program version starts, and where a fabric eviction retreats to.
func (r *Runtime) setSoftwarePhase() {
	if r.ver.inlined {
		r.setPhase(PhaseInlined)
	} else {
		r.setPhase(PhaseSoftware)
	}
}

// settle is the one place the runtime applies what a serviced transition
// costs, counts, prints and leaves owed: every row of the lifecycle table,
// and the promotions that moved nothing. Like the move it runs between
// steps. In order: a demotion reports the fault that forced it, and a
// forwarded (or open-loop) engine hands its absorbed stdlib components
// back to the schedule; the handoff is billed — the state words the
// fabric engine party to the move metered over the bus (on the way down,
// read through the ABI's shadow registers, which survive bus and region
// faults by design), and building a software engine, fast but not free,
// as a pass over its state (software rungs share the heap; a re-host is
// paid for in the spawn and state words its client meters); the move is
// counted and traced, and a fabric eviction retreats the JIT phase (a
// native demotion does not: the native tier lives inside the software
// phase); only then, on the post-bill clock, are the compiles the record
// says the move leaves owed submitted — served from the cache,
// re-promotion is cheap. A shed or a transient programming fault owes its
// compile again and keeps executing where it is; a permanent error is
// reported once.
func (r *Runtime) settle(p *lifecycle.Placement, tr lifecycle.Transition) {
	path, view, o, res, hw := p.Path, r.opts.View, r.obs(), tr.Result, tr.Fabric
	var kind obsv.EventKind
	var detail, recovery string
	switch {
	case tr.Cause == lifecycle.Shed:
		recovery = "compile shed under load: resubmitted"
		if tr.Owed[0] == lifecycle.Native {
			recovery = "native compile shed under load: resubmitted"
		} else if errors.Is(tr.Err, toolchain.ErrShardUnavailable) {
			recovery = "compile farm unreachable: resubmitted"
		}
	case tr.Cause == lifecycle.TransientFault:
		view.Error(tr.Err)
		recovery = "transient programming fault: compile resubmitted"
	case tr.Err != nil && tr.Cause == lifecycle.Recovered:
		view.Info("re-host of %s failed (%v); staying local", path, tr.Err)
	case tr.Err != nil:
		view.Error(tr.Err)
	case tr.To == lifecycle.Native:
		kind, detail = obsv.EvHotSwap, fmt.Sprintf("sw->native cacheHit=%v", res.CacheHit)
		view.Info("engine %s promoted to native code (%d cells compiled)", path, res.RawAreaLEs)
	case tr.To == lifecycle.Fabric:
		from := "sw"
		if tr.From == lifecycle.Native {
			from = "native"
		}
		kind, detail = obsv.EvHotSwap, fmt.Sprintf("%s->hw area=%dLEs cacheHit=%v", from, res.AreaLEs, res.CacheHit)
		if res.CacheHit {
			view.Info("engine %s moved to hardware (%d LEs, bitstream cache hit)", path, res.AreaLEs)
		} else {
			view.Info("engine %s moved to hardware (%d LEs, crit path %d levels)", path, res.AreaLEs, res.Stats.CritPath)
		}
	case tr.From == lifecycle.Fabric && tr.Cause == lifecycle.FaultLatched:
		o.Emit(obsv.EvFault, path, fmt.Sprintf("hardware fault latched: %v", tr.Fault))
		view.Info("hardware fault on %s (%v): degrading to software", path, tr.Fault)
		if r.phase == PhaseForwarded || r.phase == PhaseOpenLoop {
			r.unforward(path)
		}
		kind, detail = obsv.EvEviction, fmt.Sprintf("hw->sw area=%dLEs released", hw.AreaLEs())
		recovery = "eviction: compile resubmitted (bitstream cache warm)"
		view.Info("engine %s moved to software (%d LEs released), recompiling", path, hw.AreaLEs())
	case tr.Cause == lifecycle.FaultLatched:
		o.Emit(obsv.EvFault, path, fmt.Sprintf("native-tier fault latched: %v", tr.Fault))
		view.Info("native code fault on %s (%v): degrading to interpreter", path, tr.Fault)
		kind, detail = obsv.EvEviction, "native->sw code cache released"
		recovery = "demotion: native compile resubmitted (tier cache warm)"
		view.Info("engine %s moved to interpreter, recompiling native tier", path)
	case tr.Cause == lifecycle.BreakerTrip:
		kind, detail = obsv.EvFailover, "re-seeded locally from last committed state"
	case tr.Cause == lifecycle.Recovered:
		kind, detail = obsv.EvRehost, "re-hosted on "+r.opts.Remote.Addr
	}
	if tr.Err == nil {
		if hw != nil && tr.Cause != lifecycle.Restart { // a teardown hands nothing over
			r.vclk.AdvanceComm(hw.MsgsDelta(), &r.opts.Model)
		}
		if tr.To == lifecycle.Interpreter || tr.To == lifecycle.Native || tr.To == lifecycle.Hosted && tr.Cause == lifecycle.Restart {
			r.vclk.AdvanceOverhead(uint64(tr.StateVars+1) * r.opts.Model.DispatchPs / 4)
		}
		r.moves[tr.Cause][tr.From][tr.To]++
		if tr.To == lifecycle.Hosted {
			r.committed[path] = tr.State
		}
		if o != nil {
			if detail != "" {
				o.Emit(kind, path, detail)
			}
			switch tr.Cause {
			case lifecycle.JobLanded:
				o.Promotions.Inc()
			case lifecycle.FaultLatched:
				o.Evictions.Inc()
			case lifecycle.BreakerTrip:
				o.Failovers.Inc()
			case lifecycle.Recovered:
				o.Rehosts.Inc()
			}
			o.AreaLEs.Set(int64(r.AreaLEs()))
		}
		if tr.From == lifecycle.Fabric && tr.To == lifecycle.Interpreter {
			r.setSoftwarePhase() // the JIT retreats one phase and climbs again
		}
	}
	for _, t := range tr.Owed {
		if p.Submit(t, r.vclk.Now()) && recovery != "" {
			o.Emit(obsv.EvRecovery, path, recovery)
		}
	}
}

// serviceFaults runs between time steps, after costs settle: any
// fabric or native-tier engine that latched an injected fault during
// the step is demoted back to the interpreter — the reverse hot-swap.
// Execution degrades gracefully (the program keeps running, slower)
// instead of dying with the fabric.
func (r *Runtime) serviceFaults() {
	if r.opts.Injector == nil {
		return
	}
	for _, t := range [...]lifecycle.Tier{lifecycle.Fabric, lifecycle.Native} {
		// Collected first: demoting a forwarded engine rewrites r.slots.
		var faulted []*lifecycle.Placement
		for i := range r.slots {
			if p := r.slots[i].p; p != nil && p.Tier() == t && p.Fault() != nil {
				faulted = append(faulted, p)
			}
		}
		for _, p := range faulted {
			r.settle(p, p.Demote(lifecycle.FaultLatched, nil))
		}
	}
}

// unforward reverses forwardStdlib: absorbed stdlib engines return to
// the head of the schedule, re-wrapped (the engine objects themselves
// persisted in stdEngines, state intact), and group-internal wires to
// the table's routes, exactly as install would lay them out.
func (r *Runtime) unforward(owner string) {
	var std []slot
	for _, s := range r.ver.exec.StdSubs() {
		std = append(std, slot{path: s.Path, c: r.wrapLocal(s.Path, r.stdEngines[s.Path])})
	}
	r.slots = append(std, r.slots...)
	r.reschedule()
	r.opts.View.Info("stdlib components unforwarded from %s", owner)
}

// forwardStdlib absorbs stdlib engines into the user hardware engine
// (Figure 9.4): the runtime ceases direct interaction with them, and
// every route in the table — internal to the group, there being one user
// engine — goes to the forwarder, in schedule and design order.
func (r *Runtime) forwardStdlib(hw *hweng.Engine) {
	for _, s := range r.ver.exec.StdSubs() {
		hw.Forward(s.Path, r.stdEngines[s.Path])
	}
	member := func(s slot) string {
		if s.p != nil {
			return "" // the user logic itself
		}
		return s.path
	}
	for _, s := range r.slots {
		for _, rt := range s.routes {
			hw.ForwardWire(member(s), rt.from, member(r.slots[rt.to]), rt.port)
		}
		if s.p == nil {
			// The forwarder absorbed the bare engine; its transport client
			// retires (stats banked for when unforward re-wraps it).
			r.retireClient(s.path, s.c)
		}
	}
	r.slots = []slot{*r.slotOf(hw.Name())} // only the user engine stays scheduled
	r.reschedule()
	r.setPhase(PhaseForwarded)
	r.opts.View.Info("stdlib components forwarded into %s", hw.Name())
}

// openLoopBurst runs one adaptively-sized burst of scheduler iterations
// inside the hardware engine (Figure 9.5).
func (r *Runtime) openLoopBurst() {
	if len(r.placed) != 1 || r.placed[0].Fabric() == nil {
		r.setPhase(PhaseForwarded)
		return
	}
	p := r.placed[0] // forwarding needs, and leaves, one user engine
	hw := p.Fabric()
	model := &r.opts.Model
	r.vclk.AdvanceComm(1, model) // the open_loop request
	iters := r.olIters
	if iters > r.olWallCap {
		iters = r.olWallCap
	}
	// Journal replay must stop exactly at the journaled step.
	if r.stepCeil > 0 && uint64(iters) > r.stepCeil-r.steps {
		iters = int(r.stepCeil - r.steps)
	}
	// Wall time is read through the observer's clock, never time.Now
	// directly: burst sizing is the one place host wall time influences
	// scheduling (how many iterations run before control returns), so
	// routing it here lets tests pin the clock and prove the virtual
	// timeline is independent of the host (TestOpenLoopDeterministicWithPinnedWall).
	// Wall time still never reaches r.vclk — only iteration counts do.
	wallStart := r.obs().WallNow()
	done := hw.OpenLoop(r.ver.clockVar, iters)
	wall := r.obs().WallNow().Sub(wallStart)
	r.steps += uint64(done)
	r.ticks = r.steps / 2
	r.vclk.AdvanceCompute(hw.CyclesDelta() * model.HWCyclePs)
	r.vclk.AdvanceComm(hw.MsgsDelta(), model)
	r.settleFIFOs()
	r.vclk.AdvanceOverhead(model.DispatchPs)
	r.drainLane(p)
	r.flushDisplays()
	if hw.Finished() {
		r.finished = true
	}
	if hw.Fault() != nil {
		// A fault latched mid-burst: the reverse hot-swap, exactly as in
		// the lock-step phases (serviceFaults does not see open-loop
		// steps, which return before it runs).
		r.settle(p, p.Demote(lifecycle.FaultLatched, nil))
		return
	}
	if done == 0 {
		// No forward progress (e.g. missing clock): fall back.
		r.setPhase(PhaseForwarded)
		return
	}
	// Adaptive profiling: size the next burst so control returns to the
	// runtime after roughly OpenLoopTargetPs of virtual time.
	perIter := model.HWCyclesPerIter * model.HWCyclePs / 2
	if perIter == 0 {
		perIter = 1
	}
	target := int(r.opts.OpenLoopTargetPs / perIter)
	if target < 2 {
		target = 2
	}
	if target > 1<<22 {
		target = 1 << 22
	}
	target &^= 1 // whole clock ticks per burst
	r.olIters = target
	// Adaptive profiling also bounds real time so the runtime (and the
	// user's REPL) regains control regularly (paper: "a small number of
	// seconds"; we target tens of milliseconds for interactivity).
	switch {
	case wall > 120*time.Millisecond:
		r.olWallCap = done / 2
		if r.olWallCap < 64 {
			r.olWallCap = 64
		}
	case wall < 20*time.Millisecond && r.olWallCap < 1<<22:
		r.olWallCap *= 2
	}
}

// RunTicks advances until n more virtual clock ticks have elapsed.
func (r *Runtime) RunTicks(n uint64) { _ = r.RunTicksCtx(context.Background(), n) }

// RunTicksCtx is RunTicks with cancellation: it returns early (with
// ctx's error) if the context is cancelled between steps.
func (r *Runtime) RunTicksCtx(ctx context.Context, n uint64) error {
	goal := r.ticks + n
	for r.ticks < goal && !r.finished {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.Step()
	}
	return nil
}

// RunUntilFinishCtx steps until $finish or the step budget is exhausted,
// with cancellation between steps; it reports whether the program
// finished.
func (r *Runtime) RunUntilFinishCtx(ctx context.Context, maxSteps uint64) (bool, error) {
	start := r.steps
	for !r.finished && r.steps-start < maxSteps {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		r.Step()
	}
	r.flushDisplays()
	return r.finished, nil
}

// WaitForPhase steps until the runtime reaches the phase (or a step
// budget runs out); it reports success.
func (r *Runtime) WaitForPhase(p Phase, maxSteps uint64) bool {
	start := r.steps
	for r.phase != p && !r.finished && r.steps-start < maxSteps {
		r.Step()
	}
	return r.phase == p
}

// Idle advances virtual time without executing (used by benches to model
// a user thinking, or a program waiting out a compile). The advance is
// split at each pending compile job's ready point: the JIT is serviced
// at the moment its result becomes available, not after one raw jump to
// the far end — jumping past the ready point lumped the whole span into
// idle and kept vclock.Breakdown's idle-vs-hardware attribution wrong
// for everything that happened after the swap should have occurred.
func (r *Runtime) Idle(ps uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	end := r.vclk.Now() + ps
	for {
		now := r.vclk.Now()
		if now >= end {
			break
		}
		at, ok := r.earliestReady(now, end)
		if !ok {
			r.vclk.AdvanceRaw(end - now)
			break
		}
		r.vclk.AdvanceRaw(at - now)
		// Servicing may itself submit new work (a transient placement
		// fault resubmits the compile), so the loop re-scans for ready
		// points each pass.
		r.serviceJIT()
	}
	r.serviceJIT()
}

// earliestReady returns the earliest pending-compile ready point strictly
// inside (now, end), if any.
func (r *Runtime) earliestReady(now, end uint64) (uint64, bool) {
	var best uint64
	found := false
	r.eachJob(func(_ *lifecycle.Placement, _ lifecycle.Tier, j *toolchain.Job) {
		at, ok := j.ReadyAt()
		if !ok || at <= now || at >= end {
			return
		}
		if !found || at < best {
			best = at
		}
		found = true
	})
	return best, found
}
