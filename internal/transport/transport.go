// Package transport carries the engine protocol (internal/proto)
// between the runtime and the engines a daemon hosts for it. One
// Transport ships: TCP, a length-prefixed framed connection to a remote
// engine daemon (cmd/cascade-engined) with deadlines, deterministic
// fault-injected drops, and reconnect-and-retry.
//
// The runtime talks to every scheduled engine through a Client, which
// implements engine.Engine — over a Transport, or, for an engine on the
// runtime's own heap, by calling it directly with no message at all
// (NewLocalClient) — so a caller that drives one engine cannot tell (and
// must not care) whether the subprogram lives on its own heap, in
// another process, or on another machine. That
// is the paper's Figure-7 ABI boundary made wire-real, and the
// prerequisite for the multi-host sharding direction SYNERGY explored.
// The one place that does care is the scheduler's round: the engines a
// daemon hosts share a Link, which carries a whole round for all of them
// in one frame instead of one frame per call per engine.
package transport

import (
	"cascade/internal/proto"
)

// Cost is the transport-level price of one round-trip, returned to the
// caller so per-engine accounting stays exact even when a transport is
// shared by many engines.
type Cost struct {
	BytesOut uint64
	BytesIn  uint64
	Drops    uint64 // fault-injected drops consumed by this call
	Retries  uint64 // reconnect/resend attempts beyond the first
}

// Stats are a transport's cumulative counters.
type Stats struct {
	RoundTrips uint64
	BytesOut   uint64
	BytesIn    uint64
	Drops      uint64
	Retries    uint64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.RoundTrips += o.RoundTrips
	s.BytesOut += o.BytesOut
	s.BytesIn += o.BytesIn
	s.Drops += o.Drops
	s.Retries += o.Retries
}

// WireActivity reports whether any real (non-Local) traffic is counted:
// bytes moved, frames dropped, or attempts retried. RoundTrips is
// deliberately excluded — Local clients meter their zero-copy fast-path
// calls as round-trips, so it is non-zero in every in-process session.
func (s Stats) WireActivity() bool {
	return s.BytesOut > 0 || s.BytesIn > 0 || s.Drops > 0 || s.Retries > 0
}

// Transport moves one request/reply pair at a time. Implementations are
// safe for concurrent Roundtrip calls (the engines a daemon hosts, its
// liveness probes and its compile-farm links share one).
type Transport interface {
	// Roundtrip sends req and fills rep with the response. A non-nil
	// error means the transport failed (the engine is unreachable);
	// engine-level failures travel inside rep.Err.
	Roundtrip(req *proto.Request, rep *proto.Reply) (Cost, error)
	// Kind names the transport ("tcp") for stats displays.
	Kind() string
	// Stats returns cumulative counters.
	Stats() Stats
	// Close releases the transport's resources.
	Close() error
}
