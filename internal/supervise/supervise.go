// Package supervise is the self-healing layer for engine placements:
// a virtual-time heartbeat prober and a per-host circuit breaker. The
// paper's core promise is that the runtime always answers — the JIT
// ladder degrades to software rather than stalling — and supervision
// extends that promise across the process boundary: when a remote
// engine daemon hangs or dies, the breaker trips, the runtime re-seeds
// local engines from the last committed state and keeps stepping, and
// once the daemon answers probes again the engines are re-hosted.
//
// The supervisor is a pure state machine over the runtime's virtual
// clock: probe due-times, trip thresholds, and reopen timeouts are all
// virtual durations, so a supervised run replays byte-identically —
// no wall-clock reads, matching the PR 5 guarantee. All methods are
// nil-receiver safe no-ops, so supervision costs nothing when
// disabled.
package supervise

import (
	"cascade/internal/obsv"
	"cascade/internal/vclock"
)

// State is the circuit breaker's state.
type State int

// Breaker states: Closed (healthy: requests flow, probes at the
// heartbeat cadence), Open (tripped: the remote is presumed dead, all
// placements are local), HalfOpen (the reopen timeout elapsed: one
// trial probe decides between Closed and another Open period).
const (
	Closed State = iota
	Open
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "invalid"
}

// Options tunes a Supervisor. All durations are virtual picoseconds.
type Options struct {
	// ProbeIntervalPs is the heartbeat cadence while Closed (default
	// 100 virtual ms). Probes are billed as one protocol message on
	// the caller's virtual clock.
	ProbeIntervalPs uint64
	// FailThreshold is how many consecutive failures — failed probes
	// or round-trips the caller counts against the breaker — trip it
	// (default 2).
	FailThreshold int
	// ReopenPs is how long the breaker stays Open before a half-open
	// trial probe (default 2 virtual s).
	ReopenPs uint64
}

func (o *Options) fill() {
	if o.ProbeIntervalPs == 0 {
		o.ProbeIntervalPs = 100 * vclock.Ms
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 2
	}
	if o.ReopenPs == 0 {
		o.ReopenPs = 2 * vclock.S
	}
}

// Stats is a snapshot of a supervisor's counters. Failovers and Rehosts
// are engine moves, which the supervisor's owner makes and counts: it
// fills them in.
type Stats struct {
	Enabled       bool
	State         string
	Probes        uint64 // liveness probes sent
	ProbeFailures uint64 // probes or counted round-trips that failed
	Trips         uint64 // closed -> open transitions
	Failovers     uint64 // engines re-seeded locally after a trip
	Rehosts       uint64 // engines re-hosted remotely after recovery
}

// Supervisor is the per-host breaker. It is driven from the
// controller goroutine at step boundaries (the runtime's supervision
// service), so it needs no locking; Stats() snapshots are taken under
// the runtime's own mutex like every other counter.
type Supervisor struct {
	opts Options

	state       State
	lastProbePs uint64 // when the previous probe was sent
	openedAtPs  uint64 // when the breaker last tripped
	consecFails int

	// Each count is one obsv.Tally: the Stats figure and its /metrics
	// series move together.
	probes, probeFails, trips obsv.Tally
}

// New builds a supervisor with its breaker Closed, counting its probes,
// failures and trips into o's supervision series (nil: Stats alone).
func New(opts Options, o *obsv.Observer) *Supervisor {
	opts.fill()
	s := &Supervisor{opts: opts}
	if o != nil {
		s.probes.Series, s.probeFails.Series, s.trips.Series = o.Probes, o.ProbeFailures, o.BreakerTrips
	}
	return s
}

// State returns the breaker state (Closed for nil).
func (s *Supervisor) State() State {
	if s == nil {
		return Closed
	}
	return s.state
}

// ShouldProbe reports whether a liveness probe is due at virtual time
// vnow: the heartbeat cadence elapsed while Closed, or the reopen
// timeout elapsed while Open (the half-open trial). While HalfOpen a
// probe is always due — the trial is in flight until it resolves.
func (s *Supervisor) ShouldProbe(vnow uint64) bool {
	if s == nil {
		return false
	}
	switch s.state {
	case Closed:
		return vnow >= s.lastProbePs+s.opts.ProbeIntervalPs
	case Open:
		return vnow >= s.openedAtPs+s.opts.ReopenPs
	default: // HalfOpen
		return true
	}
}

// The mutators below return the breaker move they caused, from != to, or
// the state the breaker stayed in, twice. Out of Closed into Open is the
// moment to fail over; out of HalfOpen into Closed the moment to re-host.

// ProbeSent records that a probe left at vnow; from Open it is the
// half-open trial. Callers bill it as one protocol message on their
// virtual clock.
func (s *Supervisor) ProbeSent(vnow uint64) (from, to State) {
	if s == nil {
		return Closed, Closed
	}
	from = s.state
	s.probes.Inc()
	s.lastProbePs = vnow
	if s.state == Open {
		s.state = HalfOpen
	}
	return from, s.state
}

// ProbeOK resolves a probe as answered. From HalfOpen the breaker
// closes.
func (s *Supervisor) ProbeOK(vnow uint64) (from, to State) {
	if s == nil {
		return Closed, Closed
	}
	from = s.state
	s.consecFails = 0
	if s.state == HalfOpen {
		s.state = Closed
		s.lastProbePs = vnow
	}
	return from, s.state
}

// NoteFailure counts one failure — a failed probe, or a round-trip
// the caller observed fail against the host — at vnow. Reaching
// FailThreshold consecutive failures while Closed trips the breaker;
// any failure while HalfOpen re-opens it.
func (s *Supervisor) NoteFailure(vnow uint64) (from, to State) {
	if s == nil {
		return Closed, Closed
	}
	from = s.state
	s.probeFails.Inc()
	switch s.state {
	case Closed:
		s.consecFails++
		if s.consecFails >= s.opts.FailThreshold {
			s.trip(vnow)
		}
	case HalfOpen:
		// The trial failed: back to Open for another reopen period.
		// Not a fresh trip — the failover already happened.
		s.state = Open
		s.openedAtPs = vnow
		s.consecFails = 0
	}
	return from, s.state
}

// ForceTrip trips the breaker immediately, bypassing the consecutive-
// failure threshold. It exists for failures that carry their own proof
// of state loss — a daemon boot-epoch change means the remote's engine
// state is stale no matter how reachable it is, and counting toward a
// threshold (or letting a successful follow-up probe reset it) would
// leave the runtime running against a latched, inert client forever.
// It is a fresh trip from HalfOpen too, and nothing while already Open.
func (s *Supervisor) ForceTrip(vnow uint64) (from, to State) {
	from = s.State()
	if s != nil && from != Open {
		s.trip(vnow)
	}
	return from, s.State()
}

func (s *Supervisor) trip(vnow uint64) {
	s.state = Open
	s.openedAtPs = vnow
	s.consecFails = 0
	s.trips.Inc()
}

// Stats snapshots the counters (zero-valued, Enabled=false, for nil).
func (s *Supervisor) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Enabled:       true,
		State:         s.state.String(),
		Probes:        s.probes.N,
		ProbeFailures: s.probeFails.N,
		Trips:         s.trips.N,
	}
}
