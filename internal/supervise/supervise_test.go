package supervise

import (
	"testing"

	"cascade/internal/vclock"
)

// TestBreakerLifecycle walks the canonical trajectory: closed →
// (threshold failures) → open → reopen timeout → half-open trial →
// closed, with the counters and probe due-times pinned at every stop.
func TestBreakerLifecycle(t *testing.T) {
	s := New(Options{
		ProbeIntervalPs: 100 * vclock.Ms,
		FailThreshold:   2,
		ReopenPs:        vclock.S,
	}, nil)
	if s.State() != Closed {
		t.Fatalf("initial state = %v", s.State())
	}
	if s.ShouldProbe(50 * vclock.Ms) {
		t.Fatal("probe due before the heartbeat interval elapsed")
	}
	if !s.ShouldProbe(100 * vclock.Ms) {
		t.Fatal("probe not due at the heartbeat interval")
	}
	if from, to := s.ProbeSent(100 * vclock.Ms); from != Closed || to != Closed {
		t.Fatalf("closed-state probe moved the breaker %v -> %v", from, to)
	}
	if from, to := s.ProbeOK(100 * vclock.Ms); from != Closed || to != Closed {
		t.Fatalf("closed-state probe answered moved the breaker %v -> %v", from, to)
	}
	if s.ShouldProbe(150 * vclock.Ms) {
		t.Fatal("probe due again immediately after one was sent")
	}

	// One failure: under threshold, still closed.
	if from, to := s.NoteFailure(200 * vclock.Ms); from != Closed || to != Closed {
		t.Fatalf("below the threshold: %v -> %v", from, to)
	}
	if s.State() != Closed {
		t.Fatalf("state after one failure = %v", s.State())
	}
	// Second consecutive failure: trip.
	if from, to := s.NoteFailure(300 * vclock.Ms); from != Closed || to != Open {
		t.Fatalf("at the threshold: %v -> %v, want the trip", from, to)
	}
	if s.State() != Open {
		t.Fatalf("state after trip = %v", s.State())
	}

	// Open: no probe until the reopen timeout.
	if s.ShouldProbe(300*vclock.Ms + 999*vclock.Ms) {
		t.Fatal("probe due while open, before the reopen timeout")
	}
	reopenAt := 300*vclock.Ms + vclock.S
	if !s.ShouldProbe(reopenAt) {
		t.Fatal("half-open trial not due at the reopen timeout")
	}
	if from, to := s.ProbeSent(reopenAt); from != Open || to != HalfOpen {
		t.Fatalf("trial probe sent: %v -> %v", from, to)
	}
	if s.State() != HalfOpen {
		t.Fatalf("state after trial probe sent = %v", s.State())
	}

	// Trial fails: back to open, another full reopen period, no new trip.
	if from, to := s.NoteFailure(reopenAt); from != HalfOpen || to != Open {
		t.Fatalf("failed trial: %v -> %v", from, to)
	}
	if s.State() != Open {
		t.Fatalf("state after failed trial = %v", s.State())
	}
	if s.ShouldProbe(reopenAt + vclock.S - 1) {
		t.Fatal("probe due before the second reopen period elapsed")
	}
	secondTrial := reopenAt + vclock.S
	s.ProbeSent(secondTrial)
	if from, to := s.ProbeOK(secondTrial); from != HalfOpen || to != Closed {
		t.Fatalf("successful trial: %v -> %v, want the recovery", from, to)
	}
	if s.State() != Closed {
		t.Fatalf("state after recovery = %v", s.State())
	}

	st := s.Stats()
	want := Stats{Enabled: true, State: "closed", Probes: 3, ProbeFailures: 3, Trips: 1}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// TestFailuresMustBeConsecutive: a success between failures resets the
// streak — sporadic drops on a healthy link never trip the breaker.
func TestFailuresMustBeConsecutive(t *testing.T) {
	s := New(Options{FailThreshold: 2}, nil)
	s.NoteFailure(1)
	s.ProbeOK(2)
	if _, to := s.NoteFailure(3); to != Closed {
		t.Fatal("tripped on non-consecutive failures")
	}
	if s.State() != Closed {
		t.Fatalf("state = %v, want closed", s.State())
	}
}

// TestForceTrip: a forced trip bypasses the threshold (the caller has
// proof of state loss), counts as a real trip, and is idempotent while
// Open. From HalfOpen it re-opens as a fresh trip.
func TestForceTrip(t *testing.T) {
	s := New(Options{FailThreshold: 1 << 20, ReopenPs: 5}, nil)
	if from, to := s.ForceTrip(10); from != Closed || to != Open {
		t.Fatalf("forced trip below threshold: %v -> %v", from, to)
	}
	if s.State() != Open || s.Stats().Trips != 1 {
		t.Fatalf("after force-trip: state=%v stats=%+v", s.State(), s.Stats())
	}
	if from, to := s.ForceTrip(11); from != Open || to != Open {
		t.Fatalf("force-trip while already open reported %v -> %v", from, to)
	}
	if !s.ShouldProbe(15) {
		t.Fatal("reopen timeout did not arm the trial probe")
	}
	s.ProbeSent(15) // -> half-open
	if from, to := s.ForceTrip(16); from != HalfOpen || to != Open {
		t.Fatalf("force-trip from half-open: %v -> %v", from, to)
	}
	if s.State() != Open || s.Stats().Trips != 2 {
		t.Fatalf("after half-open force-trip: state=%v stats=%+v", s.State(), s.Stats())
	}
}

// TestNilSupervisorIsFree: every method is a nil-receiver no-op, so
// disabled supervision never probes, never trips, and reports zeroes.
func TestNilSupervisorIsFree(t *testing.T) {
	var s *Supervisor
	if s.ShouldProbe(1 << 60) {
		t.Fatal("nil supervisor wants to probe")
	}
	for name, mutate := range map[string]func(uint64) (State, State){
		"ProbeSent": s.ProbeSent, "ProbeOK": s.ProbeOK, "NoteFailure": s.NoteFailure, "ForceTrip": s.ForceTrip,
	} {
		if from, to := mutate(1); from != Closed || to != Closed {
			t.Fatalf("nil supervisor's %s moved the breaker %v -> %v", name, from, to)
		}
	}
	if s.State() != Closed {
		t.Fatalf("nil state = %v", s.State())
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
}

// TestDefaultsFilled pins the documented defaults.
func TestDefaultsFilled(t *testing.T) {
	s := New(Options{}, nil)
	if s.opts.ProbeIntervalPs != 100*vclock.Ms || s.opts.FailThreshold != 2 || s.opts.ReopenPs != 2*vclock.S {
		t.Fatalf("defaults = %+v", s.opts)
	}
}
