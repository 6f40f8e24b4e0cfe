// Package proto defines the serializable message protocol spoken across
// the runtime↔engine boundary. The paper's engine ABI (§3.5, Figure 7)
// is target-agnostic by design; making each ABI request an explicit,
// versioned message is what lets a subprogram live behind a transport —
// in-process today, a TCP hop to a remote engine daemon tomorrow (the
// direction SYNERGY pushed the Cascade architecture in).
//
// A request/reply pair is one frame, and there are two framings of the
// same ABI calls. A per-call kind (KindRead … KindEnd) carries one call
// for one engine: spawn-time traffic, state transfers, and any caller
// that drives a lone engine. KindRound carries one scheduler round for
// every engine a runtime hosts on the daemon — the input deliveries
// queued since the last frame, then poll, evaluate-or-update and drain
// (or end-step and drain) per engine in schedule order — so a lock-step
// step crosses the wire once per round, not once per call per engine.
// The host runs both framings through the same per-call code. What the
// virtual clock prices is the ABI call (the paper's unit), however many
// of them one frame carried.
//
// Unsynthesizable side effects ($display, $finish) do not get their own
// callback channel: engines buffer them and every reply (every round
// member's result) piggybacks the buffered events, so IO is delivered
// on the goroutine that issued the request and the runtime's
// deterministic lane-drain ordering is preserved no matter which
// transport or framing carried the message.
//
// The binary codec (codec.go) is compact and allocation-bounded: vectors
// reuse the internal/bits little-endian byte encoding, engine state is a
// word image in the engine's layout (elab.Layout), frames are
// length-prefixed and capped, and every decode path is bounds-checked so
// malformed input yields an error, never a panic.
package proto

import (
	"cascade/internal/bits"
	"cascade/internal/engine"
)

// Version is the protocol version carried in every message. A peer
// rejects versions it does not speak. Version 2 added the session
// layer: KindSessionOpen/KindSessionClose and the Session, Quota, and
// Share request fields that let one daemon host independent tenants.
// Version 3 added KindPing liveness probes for supervision and
// half-open connection detection. Version 4 added the compile-farm
// kinds (KindCompileSubmit/Status/Cancel, KindCacheFetch/CachePut) and
// the Farm request/reply payloads, letting a daemon host the back half
// of compile flows and a replicated bitstream cache for remote clients.
// Version 5 added KindRound, the per-round framing of the scheduler's
// ABI calls; version 6 carries state as a word image, not named values.
// As with every bump, a daemon resumption journal's records written under
// an older version no longer decode and are skipped when the journal is
// replayed (transport.Host.EnableJournal).
const Version = 6

// Kind identifies the ABI request a message carries.
type Kind uint8

// Message kinds. KindSpawn instantiates a subprogram on the serving
// host from shipped source; the rest mirror Figure 7 of the paper.
const (
	KindSpawn Kind = iota + 1
	KindRead
	KindDrainWrites
	KindThereAreEvals
	KindEvaluate
	KindThereAreUpdates
	KindUpdate
	KindGetState
	KindSetState
	KindEndStep
	KindEnd
	// KindSessionOpen opens a tenant session on the daemon: the host
	// carves a fabric region of Quota LEs, registers the tenant on its
	// toolchain with a fair-share of Share workers, and replies with
	// the session ID. KindSessionClose tears the session down, ending
	// its engines and releasing its region. Engines spawned with a
	// non-zero Session field are owned by (and isolated to) that
	// session.
	KindSessionOpen
	KindSessionClose
	// KindPing is a liveness probe: the host answers immediately,
	// before any engine or session lookup, so the reply measures only
	// daemon reachability. The supervisor's heartbeat probes use it,
	// and the TCP transport sends one after every reconnect so a
	// socket that dialed but died (half-open) fails at probe cost
	// instead of burning the whole retry budget.
	KindPing
	// Compile-farm kinds (a daemon started as -compile-worker serves
	// them; see internal/toolchain's FarmBackend and Worker).
	// KindCompileSubmit runs the back half of one compile flow — cache
	// consultation, the place-and-route model, durable storage — against
	// the worker's shard-local cache tiers and returns the outcome.
	// KindCompileStatus polls a key's cache state without compiling.
	// KindCompileCancel is a no-op acknowledgement: like Job.Cancel, the
	// flow still runs to completion so the bitstream reaches the cache —
	// cancellation drops the subscription, never the artifact.
	// KindCacheFetch asks the worker's bitstream cache for a key (the
	// farm's peer-fetch tier); KindCachePut replicates a verified
	// outcome onto the worker.
	KindCompileSubmit
	KindCompileStatus
	KindCompileCancel
	KindCacheFetch
	KindCachePut
	// KindRound is one scheduler round for the engines a runtime hosts on
	// the daemon (Request.Phase, Inputs, Members; Reply.Round): the host
	// applies the inputs in order, then serves each member in order.
	KindRound
	kindMax
)

func (k Kind) String() string {
	switch k {
	case KindSpawn:
		return "spawn"
	case KindRead:
		return "read"
	case KindDrainWrites:
		return "drain_writes"
	case KindThereAreEvals:
		return "there_are_evals"
	case KindEvaluate:
		return "evaluate"
	case KindThereAreUpdates:
		return "there_are_updates"
	case KindUpdate:
		return "update"
	case KindGetState:
		return "get_state"
	case KindSetState:
		return "set_state"
	case KindEndStep:
		return "end_step"
	case KindEnd:
		return "end"
	case KindSessionOpen:
		return "session_open"
	case KindSessionClose:
		return "session_close"
	case KindPing:
		return "ping"
	case KindCompileSubmit:
		return "compile_submit"
	case KindCompileStatus:
		return "compile_status"
	case KindCompileCancel:
		return "compile_cancel"
	case KindCacheFetch:
		return "cache_fetch"
	case KindCachePut:
		return "cache_put"
	case KindRound:
		return "round"
	}
	return "invalid"
}

// RoundPhase selects what a KindRound frame does for each member after
// its inputs are applied.
type RoundPhase uint8

// Round phases, in the order Figure 6 visits them.
const (
	// RoundEvals: if ThereAreEvals { Evaluate; DrainWrites }.
	RoundEvals RoundPhase = iota + 1
	// RoundUpdates: if ThereAreUpdates { Update; DrainWrites }.
	RoundUpdates
	// RoundEndStep: EndStep (and the host's JIT service), then DrainWrites
	// on whichever engine the swap left. A member that had outputs to
	// drain ends the frame — the reply is short, and the sender routes
	// them before it asks for the rest: they may be inputs of the members
	// after it, due before those members' own end-step.
	RoundEndStep
	// RoundInputs delivers the inputs and runs nothing: the members are
	// the receivers, named so the reply carries their metered work.
	RoundInputs
	roundPhaseMax
)

// RoundInput is one queued Read: engine Engine's input Var takes Val.
type RoundInput struct {
	Engine uint32
	Var    string
	Val    *bits.Vector
}

// RoundResult is one member's share of a round reply, in the order the
// request named the members: what a per-call reply envelope carries
// (location, metered work, buffered IO, an engine-level error), whether
// the phase ran the engine, and the outputs drained if it did.
type RoundResult struct {
	Err    string
	Loc    engine.Location
	Usage  engine.Usage
	IO     []IOEvent
	Ran    bool
	Events []engine.Event
}

// IOKind classifies a piggybacked IO event.
type IOKind uint8

// IO event kinds ($display text and $finish).
const (
	IODisplay IOKind = iota + 1
	IOFinish
)

// IOEvent is one buffered unsynthesizable side effect, carried back to
// the requesting side on the next reply for its engine.
type IOEvent struct {
	Kind    IOKind
	Text    string // IODisplay
	Newline bool   // IODisplay
	Code    int    // IOFinish
}

// Request is one ABI request. Kind selects which fields are meaningful;
// unused fields are zero and occupy no space on the wire.
type Request struct {
	Kind   Kind
	Engine uint32 // host-assigned engine ID (0 for Spawn)
	Now    uint64 // $time feed: the runtime's current step counter
	VNow   uint64 // virtual time in ps (host-side JIT readiness)

	// Spawn: instantiate Source (a self-contained module declaration)
	// elaborated at instance path Path with parameter bindings Params.
	// Eager selects the naive re-evaluation ablation; JIT lets the host
	// promote the engine to its own fabric in the background.
	Path   string
	Source string
	Params map[string]*bits.Vector
	Eager  bool
	JIT    bool

	// Read: the input event being delivered.
	Var string
	Val *bits.Vector

	// SetState: the state image to install, in the engine's layout.
	State []uint64

	// Session scopes the request to a daemon-side tenant session:
	// Spawn binds the new engine to it, SessionClose names the session
	// to tear down. 0 is the legacy sessionless arrangement (the whole
	// daemon fabric is one tenant).
	Session uint32
	// SessionOpen: the requested fabric region size in LEs (0 takes
	// the daemon default) and compile-worker fair share (0: global
	// pool only). Path doubles as the requested tenant name.
	Quota uint64
	Share uint64

	// Farm carries the compile-farm kinds' payload (nil otherwise).
	Farm *FarmJob

	// Round: the phase, the input deliveries to apply first (in order),
	// and the hosted engines to serve, in schedule order.
	Phase   RoundPhase
	Inputs  []RoundInput
	Members []uint32
}

// FarmJob is the payload of the compile-farm request kinds. A
// CompileSubmit ships the cache key plus the synthesized netlist's
// summary — the toolchain's fit and timing models run from the summary
// alone, so the worker never sees (or re-synthesizes) source, and the
// client keeps the netlist for its own fabric. CacheFetch/Status/Cancel
// use only Key; CachePut adds the verified outcome being replicated.
type FarmJob struct {
	Key       string
	Name      string
	Wrapped   bool
	SubmitPs  uint64
	BackoffPs uint64

	// Netlist summary (CompileSubmit).
	Cells    int
	FFs      int
	MemBits  int
	CritPath int

	// Verified outcome (CachePut). Publish marks the key's bitstream
	// delivered instead of shipping a new outcome: the worker flips the
	// entry so identical submissions hit outright on any clock.
	AreaLEs    int
	RawAreaLEs int
	Publish    bool
}

// Reply is the response to one Request. Err is an engine-level failure
// rendered as text (transport-level failures surface as Go errors from
// the transport instead). Every reply carries the engine's current
// location, its metered work since the previous reply, and any buffered
// IO events.
type Reply struct {
	Kind   Kind
	Engine uint32 // Spawn: the assigned engine ID
	Err    string
	Loc    engine.Location
	Usage  engine.Usage
	IO     []IOEvent

	Bool   bool           // ThereAreEvals / ThereAreUpdates
	Events []engine.Event // DrainWrites
	State  []uint64       // GetState: the engine's state image

	// Epoch is the serving host's boot epoch, stamped on every reply: a
	// nonzero value that changes when the host process restarts. A
	// transport that sees the epoch change knows the daemon it
	// reconnected to is not the one that holds its engines' state — even
	// if a journal re-bound the engine IDs — and can fail the call with
	// a typed error instead of silently executing against stale state.
	// 0 means the host predates epochs or the reply is synthetic.
	Epoch uint32

	// Farm carries a compile-farm reply's payload (nil otherwise).
	Farm *FarmResult

	// Round holds one result per member of a KindRound request, in
	// request order. DecodeReply reuses its backing arrays, so a reply
	// decoded into repeatedly stops allocating them.
	Round []RoundResult
}

// FarmResult is the outcome of one compile-farm request. FlowErr is a
// design verdict (no fit, failed timing closure) as text — the client
// rewraps it so a farmed flow's error output matches a local run's byte
// for byte; transport failures surface as Go errors instead. Found
// reports a CacheFetch hit.
type FarmResult struct {
	AreaLEs    int
	RawAreaLEs int
	CritPath   int
	DurationPs uint64
	CacheHit   bool
	HitSource  string
	FlowErr    string
	Found      bool
}
