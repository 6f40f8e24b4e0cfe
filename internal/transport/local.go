package transport

import (
	"cascade/internal/engine"
	"cascade/internal/proto"
)

// Local is the in-process transport: it holds one engine for its
// Client, which calls it directly — vectors, events, and state snapshots
// cross as pointers, with no protocol structs, serialization or copying
// — so the message protocol costs nothing when the engine shares the
// runtime's heap (benchmark-gated: see BenchmarkLocalTransportOverhead).
//
// A Local carries exactly one engine. Spawn is not its job — the
// runtime constructs in-process engines itself and wraps them — and the
// engine may be swapped in place when the JIT migrates the subprogram
// between software and hardware.
type Local struct{ e engine.Engine }

// NewLocal wraps a pre-built engine in a transport.
func NewLocal(e engine.Engine) *Local { return &Local{e: e} }

// Engine returns the wrapped engine.
func (l *Local) Engine() engine.Engine { return l.e }

// Swap replaces the wrapped engine (the JIT's hot swap). Callers must
// not race Swap with engine calls; the runtime swaps only between steps,
// on the controller goroutine.
func (l *Local) Swap(e engine.Engine) { l.e = e }

// Kind implements Transport.
func (l *Local) Kind() string { return "local" }

// Stats implements Transport. Nothing crosses a Local; its client
// meters the direct calls itself.
func (l *Local) Stats() Stats { return Stats{} }

// Close implements Transport.
func (l *Local) Close() error { return nil }

// Roundtrip implements Transport by refusing: no protocol message
// travels over a Local. Its client answers every engine call from the
// wrapped engine (Client.local), and spawning and sessions are a
// daemon's job.
func (l *Local) Roundtrip(req *proto.Request, rep *proto.Reply) (Cost, error) {
	*rep = proto.Reply{Kind: req.Kind, Engine: req.Engine, Err: "local transport carries no protocol requests"}
	return Cost{}, nil
}
