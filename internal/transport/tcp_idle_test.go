package transport

import (
	"testing"
	"time"

	"cascade/internal/obsv"
)

// TestTCPDeadlineClearedAfterIdle is the regression test for the
// per-call deadline leak: Roundtrip arms a read/write deadline for the
// call and must disarm it on success, so a connection that then sits
// idle longer than CallTimeout (a REPL user thinking, a runtime busy in
// software) carries no stale deadline into its next round-trip. The next
// call must succeed on the same connection without burning a drop or a
// retry from the budget.
func TestTCPDeadlineClearedAfterIdle(t *testing.T) {
	_, addr := loopbackHost(t, HostOptions{DisableJIT: true})
	obs := obsv.New(obsv.Options{})
	tcpT, err := DialTCP(addr, TCPOptions{
		CallTimeout: 150 * time.Millisecond,
		Retries:     1,
		Observer:    obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tcpT.Close()
	rec := &recorder{}
	c, err := Spawn(tcpT, SpawnSpec{Path: "main.c", Source: ctrSrc, Layout: ctrLayout}, rec, nil, nil, rec.onErr)
	if err != nil {
		t.Fatal(err)
	}
	drive(c, 1)
	if c.Err() != nil {
		t.Fatalf("pre-idle round-trips failed: %v", c.Err())
	}
	before := tcpT.Stats()

	// Idle well past CallTimeout: the deadline armed by the last call
	// would have expired by now if it were still on the conn.
	time.Sleep(400 * time.Millisecond)

	drive(c, 1)
	if c.Err() != nil {
		t.Fatalf("round-trip after idle gap failed: %v", c.Err())
	}
	if len(rec.errs) != 0 {
		t.Fatalf("transport errors surfaced: %v", rec.errs)
	}
	after := tcpT.Stats()
	if after.RoundTrips <= before.RoundTrips {
		t.Fatal("no round-trips performed after the idle gap; test is vacuous")
	}
	if after.Retries != 0 || after.Drops != 0 {
		t.Errorf("idle gap consumed the retry budget: %+v", after)
	}
	if got := obs.TransportErrors.Value(); got != 0 {
		t.Errorf("transport error counter = %d, want 0", got)
	}
	// Every successful round-trip records a wall RTT sample.
	if got := obs.TransportRTT.Count(); got != after.RoundTrips {
		t.Errorf("RTT histogram has %d samples, want %d (one per round-trip)",
			got, after.RoundTrips)
	}
}
