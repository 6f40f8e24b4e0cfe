package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"cascade/internal/engine"
	"cascade/internal/engine/hweng"
	"cascade/internal/ir"
	"cascade/internal/lifecycle"
	"cascade/internal/obsv"
	"cascade/internal/stdlib"
	"cascade/internal/toolchain"
	"cascade/internal/transport"
)

// Step executes one scheduler time step (Figure 6): evaluate batches to a
// fixed point, commit update batches, then — in the observable state —
// flush interrupts, run end-of-step work, advance time, and service the
// JIT state machine (hot swaps happen only here, where semantics cannot
// be disturbed). In the open-loop phase a Step instead runs a burst of
// iterations inside the hardware engine.
//
// Batches are the unit of parallelism (the paper batches requests
// precisely so they can be issued asynchronously): within a round the
// controller polls engines serially in schedule order, dispatches every
// engine with pending work concurrently across up to Parallelism worker
// lanes, and then — back on the controller — drains buffered IO and
// routes outputs, again in schedule order. Because engines only exchange
// values through the controller's routing, a round is a Jacobi iteration
// of the same monotone fixpoint the serial Gauss-Seidel schedule
// computes, and by the event-order-independence invariant the observable
// states that result are identical.
func (r *Runtime) Step() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.step()
}

// step is Step's body; callers hold r.mu.
func (r *Runtime) step() {
	if r.finished || r.design == nil {
		return
	}
	if r.phase == PhaseOpenLoop {
		r.openLoopBurst()
		r.persistAfterStep()
		return
	}

	model := &r.opts.Model
	for {
		// EvalAll over engines with evaluation events.
		batch := r.poll((*transport.Client).ThereAreEvals)
		if len(batch) > 0 {
			r.runBatch(batch, false)
			continue
		}
		// Update batch.
		batch = r.poll((*transport.Client).ThereAreUpdates)
		if len(batch) == 0 {
			break
		}
		r.runBatch(batch, true)
	}

	// Observable state: flush the interrupt queue, end the step.
	r.flushDisplays()
	r.flushTransportErrs()
	for _, path := range r.sched {
		e := r.engines[path]
		e.EndStep()
		r.drainLane(path)
		r.route(path, e)
	}
	r.steps++
	r.ticks = r.steps / 2
	r.vclk.AdvanceOverhead(model.DispatchPs)
	r.settleCosts()
	r.serviceFaults()
	r.serviceJIT()
	r.serviceSupervision()
	r.persistAfterStep()
}

// poll collects the schedule-ordered batch of engines with pending work,
// billing the control-plane traffic of asking.
func (r *Runtime) poll(pending func(*transport.Client) bool) []string {
	var batch []string
	for _, path := range r.sched {
		e := r.engines[path]
		r.billCtrl(e) // there_are_* poll
		if !pending(e) {
			continue
		}
		r.billCtrl(e) // the evaluate/update request itself
		batch = append(batch, path)
	}
	return batch
}

// runBatch dispatches one evaluate or update batch across the worker
// lanes, then drains IO, routes outputs, and settles costs serially in
// schedule order on the controller goroutine.
func (r *Runtime) runBatch(batch []string, update bool) {
	work := func(e engine.Engine) {
		if update {
			e.Update()
		} else {
			e.Evaluate()
		}
	}
	if r.par > 1 && len(batch) > 1 {
		sem := make(chan struct{}, r.par)
		var wg sync.WaitGroup
		for _, path := range batch {
			e := r.engines[path]
			sem <- struct{}{}
			wg.Add(1)
			go func(e engine.Engine) {
				defer wg.Done()
				work(e)
				<-sem
			}(e)
		}
		wg.Wait()
	} else {
		for _, path := range batch {
			work(r.engines[path])
		}
	}
	for _, path := range batch {
		r.drainLane(path)
		r.route(path, r.engines[path])
	}
	r.settleBatch(batch)
}

// billCtrl charges one control-plane message for talking to a
// hardware-located engine (software engines share the heap). Remote
// engines are excluded: their clients meter every round-trip — polls
// included — through Usage.Msgs, which settleBatch/settleCosts convert
// to comm time; billing here too would double-charge.
func (r *Runtime) billCtrl(c *transport.Client) {
	if !c.Remote() && c.Loc() == engine.Hardware {
		r.vclk.AdvanceComm(1, &r.opts.Model)
	}
}

// route broadcasts an engine's pending output writes along the wires
// table, billing boundary crossings. As in billCtrl, remote endpoints
// are billed through their clients' per-round-trip meter, not here.
func (r *Runtime) route(fromPath string, c *transport.Client) {
	evs := c.DrainWrites()
	if len(evs) == 0 {
		return
	}
	model := &r.opts.Model
	fromHW := !c.Remote() && c.Loc() == engine.Hardware
	for _, ev := range evs {
		if fromHW {
			r.vclk.AdvanceComm(1, model) // bus read of the changed output
		}
		for _, w := range r.routesFrom[fromPath+"\x00"+ev.Var] {
			target, ok := r.engines[w.To.Sub]
			if !ok {
				continue // consumer was forwarded or removed
			}
			if !target.Remote() && target.Loc() == engine.Hardware {
				r.vclk.AdvanceComm(1, model) // bus write of the input
			}
			target.Read(engine.Event{Var: w.To.Port, Val: ev.Val})
		}
	}
}

// settleEngine drains one client's metered work, bills its serialized
// communication (messages cross the memory-mapped bus — or, for remote
// engines, the TCP transport, which the client meters per round-trip),
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
// time. With parallel lanes, compute is billed as the batch's makespan:
// when the batch fits in the lanes (len ≤ Parallelism) that is the
// slowest member, and when it does not, the lanes run multiple rounds
// and the bill is at least ceil(sum/lanes) — billing bare max there
// would pretend an unbounded number of lanes existed and under-charge
// (the PR 1 bug). In serial mode (Parallelism 1) the engines run
// back-to-back and the sum is the honest cost. Communication is always
// summed: the memory-mapped bus serializes transfers.
func (r *Runtime) settleBatch(batch []string) {
	model := &r.opts.Model
	var maxCompute, sumCompute uint64
	for _, path := range batch {
		c := r.settleEngine(r.engines[path])
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
	// FIFO host transfers cross the memory-mapped bridge regardless of
	// which side the engine lives on (the Figure 12 bottleneck).
	for _, e := range r.stdEngines {
		if f, ok := e.(*stdlib.FIFO); ok {
			r.vclk.AdvanceComm(f.TransfersDelta(), model)
		}
	}
}

// batchMakespanPs is the compute bill for a batch with the given summed
// and maximum per-engine costs across `lanes` worker lanes: the
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
	model := &r.opts.Model
	for _, path := range r.sched {
		r.vclk.AdvanceCompute(r.settleEngine(r.engines[path]))
	}
	for _, e := range r.stdEngines {
		if f, ok := e.(*stdlib.FIFO); ok {
			r.vclk.AdvanceComm(f.TransfersDelta(), model)
		}
	}
}

// serviceJIT runs the Figure 9 state machine between time steps.
func (r *Runtime) serviceJIT() {
	if r.opts.Features.DisableJIT {
		return
	}
	// Hot swap any finished compilations.
	r.eachJob(func(p *lifecycle.Placement, t lifecycle.Tier, _ *toolchain.Job) { r.promote(p, t) })

	// Phase transitions once every user engine is in hardware. Location
	// is read from the clients, so it covers remote engines the daemon
	// promoted onto its own fabric as well as in-process hardware.
	if len(r.placed) == 0 || r.pending(lifecycle.Fabric) != 0 {
		return
	}
	for _, path := range r.placed {
		if r.engines[path].Loc() != engine.Hardware {
			// A remote host evicts faulted engines on its own; the phase
			// retreats here, when the reply envelopes show the move, and
			// climbs again as the daemon recompiles. (Local evictions
			// retreat the phase in demote directly.)
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
		if hw := r.place[r.placed[0]].Fabric(); hw != nil {
			r.forwardStdlib(hw)
		}
	}
	// Open loop needs everything in one engine plus a known clock.
	if r.phase == PhaseForwarded && !r.opts.Features.DisableOpenLoop &&
		len(r.sched) == 1 && r.clockVar != "" {
		r.setPhase(PhaseOpenLoop)
		r.opts.View.Info("entering open-loop scheduling on %s", r.clockVar)
	}
}

// pending counts the compiles in flight for target tier t.
func (r *Runtime) pending(t lifecycle.Tier) int {
	n := 0
	for _, path := range r.placed {
		if r.place[path].Pending(t) != nil {
			n++
		}
	}
	return n
}

// setSoftwarePhase puts the JIT phase at software execution: where a
// program version starts, and where a fabric eviction retreats to.
func (r *Runtime) setSoftwarePhase() {
	if r.inlined {
		r.setPhase(PhaseInlined)
	} else {
		r.setPhase(PhaseSoftware)
	}
}

// promote services one pending compile: the lifecycle record hot-swaps
// the engine up to tier t (state handoff between steps), and the
// outcome is billed and reported here. The native rung replaces the
// interpreter with compiled closure-threaded Go (internal/njit) long
// before the fabric flow delivers a bitstream, and bills no bus traffic
// — both engines share the heap; the fabric swap takes over from
// whichever software rung holds the engine, and its state transfer
// crosses the bus.
func (r *Runtime) promote(p *lifecycle.Placement, t lifecycle.Tier) {
	tr, ok := p.Promote(t, r.vclk.Now())
	if !ok {
		return
	}
	path, res := p.Path, tr.Result
	switch {
	case tr.Cause == lifecycle.Shed:
		msg := "compile shed under load: resubmitted"
		if t == lifecycle.Native {
			msg = "native compile shed under load: resubmitted"
		} else if errors.Is(tr.Err, toolchain.ErrShardUnavailable) {
			msg = "compile farm unreachable: resubmitted"
		}
		r.obs().Emit(obsv.EvRecovery, path, msg)
	case tr.Err != nil:
		// Permanent errors are reported once and the engine stays where
		// it is; a transient programming fault keeps executing in
		// software while the resubmitted compile retries.
		r.opts.View.Error(tr.Err)
		if tr.Cause == lifecycle.TransientFault {
			r.obs().Emit(obsv.EvRecovery, path, "transient programming fault: compile resubmitted")
		}
	case tr.To == lifecycle.Native:
		// Compiling-in the state costs a pass over the slots, not bus
		// round-trips.
		r.vclk.AdvanceOverhead(uint64(tr.StateVars+1) * r.opts.Model.DispatchPs / 4)
		if o := r.opts.Observer; o != nil {
			o.Emit(obsv.EvHotSwap, path, fmt.Sprintf("sw->native cacheHit=%v", res.CacheHit))
			o.Promotions.Inc()
		}
		r.opts.View.Info("engine %s promoted to native code (%d cells compiled)", path, res.RawAreaLEs)
	default:
		r.vclk.AdvanceComm(tr.Fabric.MsgsDelta(), &r.opts.Model)
		r.areaLEs += res.AreaLEs
		if o := r.opts.Observer; o != nil {
			from := "sw"
			if tr.From == lifecycle.Native {
				from = "native"
			}
			o.Emit(obsv.EvHotSwap, path, fmt.Sprintf("%s->hw area=%dLEs cacheHit=%v", from, res.AreaLEs, res.CacheHit))
			o.Promotions.Inc()
			o.AreaLEs.Set(int64(r.areaLEs))
		}
		if res.CacheHit {
			r.opts.View.Info("engine %s moved to hardware (%d LEs, bitstream cache hit)",
				path, res.AreaLEs)
		} else {
			r.opts.View.Info("engine %s moved to hardware (%d LEs, crit path %d levels)",
				path, res.AreaLEs, res.Stats.CritPath)
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
		// Collected first: demoting a forwarded engine rewrites r.sched.
		var faulted []*lifecycle.Placement
		for _, path := range r.sched {
			if p := r.place[path]; p != nil && p.Tier() == t && p.Fault() != nil {
				faulted = append(faulted, p)
			}
		}
		for _, p := range faulted {
			r.demote(p)
		}
	}
}

// demote performs the reverse hot-swap for one faulted engine, fabric
// or native tier, back to the interpreter. Like the forward swap it
// runs between steps, where state movement cannot disturb program
// semantics: the lifecycle record reads the engine's state out (for the
// fabric through the ABI's shadow registers, which survive bus and
// region faults by design, billed as bus reads; for the native tier
// heap to heap), a fresh software engine inherits it, the fabric region
// is released, and the lost tier's compile is resubmitted so the JIT
// can climb back — served from the cache, re-promotion is cheap. A
// fabric eviction retreats the JIT phase; a native demotion does not —
// the native tier lives inside the software phase.
func (r *Runtime) demote(p *lifecycle.Placement) {
	path, from, flt := p.Path, p.Tier(), p.Fault()
	if from == lifecycle.Fabric {
		r.hwFaults++
		r.obs().Emit(obsv.EvFault, path, fmt.Sprintf("hardware fault latched: %v", flt))
		r.opts.View.Info("hardware fault on %s (%v): degrading to software", path, flt)
		// A forwarded (or open-loop) engine first hands its absorbed
		// stdlib components back to the runtime's schedule.
		if r.phase == PhaseForwarded || r.phase == PhaseOpenLoop {
			r.unforward(path)
		}
	} else {
		r.nativeFaults++
		r.obs().Emit(obsv.EvFault, path, fmt.Sprintf("native-tier fault latched: %v", flt))
		r.opts.View.Info("native code fault on %s (%v): degrading to interpreter", path, flt)
	}
	tr := p.Demote(lifecycle.FaultLatched, nil)
	r.billRebuild(tr)
	if hw := tr.Fabric; hw != nil {
		r.areaLEs -= hw.AreaLEs()
		r.evictions++
		if o := r.opts.Observer; o != nil {
			o.Emit(obsv.EvEviction, path, fmt.Sprintf("hw->sw area=%dLEs released", hw.AreaLEs()))
			o.Evictions.Inc()
			o.AreaLEs.Set(int64(r.areaLEs))
		}
		// The JIT retreats one phase and climbs again.
		r.setSoftwarePhase()
		if p.Submit(from, r.vclk.Now()) {
			r.obs().Emit(obsv.EvRecovery, path, "eviction: compile resubmitted (bitstream cache warm)")
		}
		r.opts.View.Info("engine %s moved to software (%d LEs released), recompiling", path, hw.AreaLEs())
		return
	}
	r.demotions++
	if o := r.opts.Observer; o != nil {
		o.Emit(obsv.EvEviction, path, "native->sw code cache released")
		o.Evictions.Inc()
	}
	if p.Submit(from, r.vclk.Now()) {
		r.obs().Emit(obsv.EvRecovery, path, "demotion: native compile resubmitted (tier cache warm)")
	}
	r.opts.View.Info("engine %s moved to interpreter, recompiling native tier", path)
}

// billRebuild charges a transition that rebuilt the subprogram on the
// interpreter: state pulled out of the fabric crossed the bus, and
// constructing a software engine is fast but not free.
func (r *Runtime) billRebuild(tr lifecycle.Transition) {
	if tr.Fabric != nil {
		r.vclk.AdvanceComm(tr.Fabric.MsgsDelta(), &r.opts.Model)
	}
	r.vclk.AdvanceOverhead(uint64(tr.StateVars+1) * r.opts.Model.DispatchPs / 4)
}

// unforward reverses forwardStdlib: absorbed stdlib engines return to
// the runtime's schedule and routing table (the engine objects
// themselves persisted in stdEngines, state intact), exactly as restart
// would lay them out.
func (r *Runtime) unforward(owner string) {
	r.sched = nil
	for _, s := range r.design.StdSubs() {
		e, ok := r.stdEngines[s.Path]
		if !ok {
			continue
		}
		r.engines[s.Path] = r.wrapLocal(s.Path, e)
		delete(r.groupOf, s.Path)
		r.sched = append(r.sched, s.Path)
	}
	for _, s := range r.design.UserSubs() {
		r.sched = append(r.sched, s.Path)
	}
	// Group-internal wires return from the forwarder to the runtime.
	r.rebuildRoutes()
	r.opts.View.Info("stdlib components unforwarded from %s", owner)
}

// forwardStdlib absorbs stdlib engines into the user hardware engine
// (Figure 9.4): the runtime ceases direct interaction with them and
// group-internal wires leave the runtime's routing table.
func (r *Runtime) forwardStdlib(hw *hweng.Engine) {
	group := map[string]bool{hw.Name(): true}
	for _, s := range r.design.StdSubs() {
		// The forwarder absorbs the bare stdlib engine; its transport
		// client retires (stats banked for when unforward re-wraps it).
		inner := r.stdEngines[s.Path]
		hw.Forward(s.Path, inner)
		group[s.Path] = true
		r.groupOf[s.Path] = hw.Name()
		if c, ok := r.engines[s.Path]; ok {
			r.retireClient(s.Path, c)
		}
		delete(r.engines, s.Path)
	}
	// Rebuild the schedule: only the user engine remains.
	r.sched = []string{hw.Name()}
	// Hand group-internal wires to the forwarder; keep the rest.
	kept := map[string][]ir.Wire{}
	for key, ws := range r.routesFrom {
		for _, w := range ws {
			if group[w.From.Sub] && group[w.To.Sub] {
				fromName, toName := w.From.Sub, w.To.Sub
				if fromName == hw.Name() {
					fromName = ""
				}
				if toName == hw.Name() {
					toName = ""
				}
				hw.ForwardWire(fromName, w.From.Port, toName, w.To.Port)
				continue
			}
			kept[key] = append(kept[key], w)
		}
	}
	r.routesFrom = kept
	r.setPhase(PhaseForwarded)
	r.opts.View.Info("stdlib components forwarded into %s", hw.Name())
}

// openLoopBurst runs one adaptively-sized burst of scheduler iterations
// inside the hardware engine (Figure 9.5).
func (r *Runtime) openLoopBurst() {
	p := r.place[ir.RootPath]
	if p == nil || p.Fabric() == nil {
		r.setPhase(PhaseForwarded)
		return
	}
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
	done := hw.OpenLoop(r.clockVar, iters)
	wall := r.obs().WallNow().Sub(wallStart)
	r.steps += uint64(done)
	r.ticks = r.steps / 2
	r.vclk.AdvanceCompute(hw.CyclesDelta() * model.HWCyclePs)
	r.vclk.AdvanceComm(hw.MsgsDelta(), model)
	for _, e := range r.stdEngines {
		if f, ok := e.(*stdlib.FIFO); ok {
			r.vclk.AdvanceComm(f.TransfersDelta(), model)
		}
	}
	r.vclk.AdvanceOverhead(model.DispatchPs)
	r.drainLane(hw.Name())
	r.flushDisplays()
	if hw.Finished() {
		r.finished = true
	}
	if hw.Fault() != nil {
		// A fault latched mid-burst: the reverse hot-swap, exactly as in
		// the lock-step phases (serviceFaults does not see open-loop
		// steps, which return before it runs).
		r.demote(p)
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
func (r *Runtime) RunTicks(n uint64) {
	goal := r.ticks + n
	for r.ticks < goal && !r.finished {
		r.Step()
	}
}

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

// RunVirtual advances until the virtual clock passes ps picoseconds.
func (r *Runtime) RunVirtual(ps uint64) {
	goal := r.vclk.Now() + ps
	for r.vclk.Now() < goal && !r.finished {
		r.Step()
	}
}

// RunUntilFinish steps until $finish or the step budget is exhausted; it
// reports whether the program finished.
func (r *Runtime) RunUntilFinish(maxSteps uint64) bool {
	start := r.steps
	for !r.finished && r.steps-start < maxSteps {
		r.Step()
	}
	r.flushDisplays()
	return r.finished
}

// RunUntilFinishCtx is RunUntilFinish with cancellation between steps.
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
