package runtime

import (
	"cascade/internal/lifecycle"
	"cascade/internal/obsv"
	"cascade/internal/proto"
	"cascade/internal/supervise"
)

// serviceSupervision runs the self-healing state machine between time
// steps (after serviceJIT, still in the observable part of the step).
// It feeds the breaker the round-trip failures the step observed, sends
// liveness probes on the virtual-time heartbeat cadence (immediately
// when the step saw failures — the daemon is likely gone, confirm now
// rather than waiting out the cadence; and as the half-open trial once
// the reopen timeout elapses), fails remote engines over to local
// software when the breaker trips, and re-hosts them when it closes
// again. Everything is billed on the virtual clock; no wall-clock
// reads, so a supervised run replays byte-identically.
func (r *Runtime) serviceSupervision() {
	if r.sup == nil || r.opts.Remote == nil || r.ver.exec == nil {
		return
	}
	vnow := r.vclk.Now()
	fails := r.supFails
	r.supFails = 0
	stale := r.supStale
	r.supStale = false
	tripped := false
	// A daemon restart (boot epoch changed on reconnect) or an engine the
	// daemon no longer holds is proof of state loss, not a mere
	// reachability blip: force the trip past the threshold. Counting it
	// as an ordinary failure would let a successful follow-up probe reset
	// the streak and strand the run on a latched, inert client serving
	// nothing.
	if stale {
		from, to := r.sup.ForceTrip(vnow)
		tripped = r.noteBreaker(from, to, "-> open (remote state lost or stale)")
	}
	for i := 0; i < fails; i++ {
		tripped = r.noteFailure(vnow) || tripped
	}
	if !tripped && r.remoteT != nil && (fails > 0 || r.sup.ShouldProbe(vnow)) {
		tripped = r.probeRemote(vnow)
	}
	if tripped {
		r.failoverRemote()
		return
	}
	// Healthy: commit this step's observable state. The committed
	// snapshot is the failover seed — its display side effects have
	// already been flushed, so an engine re-seeded from it continues the
	// output stream with no duplicates and no holes (a step lost to an
	// inert engine drops a clock edge, never an output line).
	if fails == 0 && r.sup.State() == supervise.Closed {
		r.commitRemoteStates()
	}
}

// breakerWhy says why the breaker makes each move it makes of its own
// accord (a forced trip names its proof instead).
var breakerWhy = map[[2]supervise.State]string{
	{supervise.Closed, supervise.Open}:     "tripped",
	{supervise.HalfOpen, supervise.Open}:   "trial failed",
	{supervise.Open, supervise.HalfOpen}:   "trial probe",
	{supervise.HalfOpen, supervise.Closed}: "recovered",
}

// noteBreaker traces the breaker move a supervisor call caused, if it
// caused one — under forced when the caller forced it — and reports
// whether it was a trip: the moment to fail over. A half-open trial
// failing re-opens the breaker but is no trip; its failover already
// happened.
func (r *Runtime) noteBreaker(from, to supervise.State, forced string) (tripped bool) {
	if from == to {
		return false
	}
	detail := forced
	if detail == "" {
		detail = from.String() + " -> " + to.String() + " (" + breakerWhy[[2]supervise.State{from, to}] + ")"
	}
	tripped = to == supervise.Open && (from == supervise.Closed || forced != "")
	r.obs().Emit(obsv.EvBreaker, "", detail)
	return tripped
}

// noteFailure counts one round-trip failure against the breaker and
// reports whether it tripped.
func (r *Runtime) noteFailure(vnow uint64) (tripped bool) {
	from, to := r.sup.NoteFailure(vnow)
	return r.noteBreaker(from, to, "")
}

// probeRemote sends one liveness probe (a KindPing round-trip, answered
// by the daemon before any engine lookup) and resolves it against the
// breaker. A successful half-open trial closes the breaker and re-hosts
// the failed-over engines. It reports whether the probe tripped the
// breaker.
func (r *Runtime) probeRemote(vnow uint64) (tripped bool) {
	from, to := r.sup.ProbeSent(vnow)
	r.noteBreaker(from, to, "")
	req := proto.Request{Kind: proto.KindPing, VNow: vnow}
	var rep proto.Reply
	cost, err := r.remoteT.Roundtrip(&req, &rep)
	// A probe is a protocol message like any other: one serialized
	// boundary crossing per attempt, billed in virtual time.
	r.vclk.AdvanceComm(1+cost.Retries, &r.opts.Model)
	outcome := "ok"
	if err != nil {
		outcome = "failed: " + err.Error()
	}
	r.obs().Emit(obsv.EvProbe, "", outcome)
	if err != nil {
		return r.noteFailure(vnow)
	}
	r.link.Flush() // the daemon answers: the ends it is owed go out now
	if from, to := r.sup.ProbeOK(vnow); to != from {
		r.noteBreaker(from, to, "")
		r.opts.View.Info("remote engine daemon recovered: re-hosting failed-over engines")
		r.rehostRemote()
	}
	return false
}

// commitRemoteStates snapshots every remote engine's end-of-step state
// into the committed map (the failover seed). Snapshot transfers are
// billed through the client's per-word MMIO meter like any state
// access. A snapshot that fails mid-transfer latches on the client and
// is counted against the breaker next step; the previous commit stays.
func (r *Runtime) commitRemoteStates() {
	for _, s := range r.slots {
		if !s.c.Remote() || s.c.Err() != nil {
			continue
		}
		st := s.c.GetState()
		if s.c.Err() != nil {
			continue
		}
		r.committed[s.path] = st
	}
}

// failoverRemote is the breaker-trip path: every hosted engine takes the
// BreakerTrip transition — replaced by a fresh local software engine
// re-seeded from its last committed state — and execution continues
// without the daemon. The JIT phase does not climb while failed over (the
// runtime's Compile callback declines the fabric); the native tier, when
// enabled, gives the engine its usual faster local rung.
func (r *Runtime) failoverRemote() {
	n := 0
	for _, s := range r.slots {
		if s.p != nil && s.p.Tier() == lifecycle.Hosted {
			r.settle(s.p, s.p.Demote(lifecycle.BreakerTrip, r.committed[s.path]))
			n++
		}
	}
	if n > 0 {
		r.opts.View.Info("remote engine daemon unreachable: %d engine(s) failed over to local software", n)
	}
}

// rehostRemote is the recovery path: once a half-open trial closes the
// breaker, every failed-over engine takes the Recovered transition back
// onto the daemon, carrying its current state, which becomes its first
// committed one there. A spawn or handoff that fails stops the sweep —
// that engine and the remaining ones stay local and the next recovery
// retries (the failure also counts against the breaker through the usual
// error path; the End a failed handoff's target is owed goes out with the
// next probe that is answered).
func (r *Runtime) rehostRemote() {
	n := 0
	for _, s := range r.slots {
		if s.p == nil || s.p.Tier() == lifecycle.Hosted {
			continue // a peripheral, or never failed over
		}
		tr := s.p.Rehost()
		r.settle(s.p, tr)
		if tr.Err != nil {
			break
		}
		n++
	}
	if n > 0 {
		r.opts.View.Info("%d engine(s) re-hosted on %s", n, r.opts.Remote.Addr)
	}
}
