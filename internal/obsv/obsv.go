// Package obsv is Cascade-Go's observability layer: a lock-cheap
// structured event trace plus a metrics registry, threaded through the
// JIT lifecycle (parse → elaborate → compile-submit → cache-hit/miss →
// bitstream-ready → hot-swap → eviction → fault → recovery). The paper's
// value proposition — execution "simply gets faster" as modules migrate
// from software simulation into hardware — is invisible without a record
// of *when* those transitions happened and what they cost; SYNERGY's
// runtime-as-a-service direction makes the same point for the
// scheduler/compiler pipeline as a whole.
//
// Design rules:
//
//   - Disabled means free. A nil *Observer is valid everywhere; every
//     method (and every method on a nil Counter/Gauge/Histogram) no-ops
//     in a couple of nanoseconds with zero allocations, so call sites
//     need no guards and the scheduler's hot paths cost nothing when
//     observability is off (benchmark-gated, like the local client
//     fast path).
//
//   - Observation never feeds back into execution. Events carry both a
//     wall-clock and a virtual-time stamp, but nothing in this package
//     is ever *read* by the runtime's scheduling or billing decisions —
//     the byte-identical replay property cannot regress through it. The
//     one wall-clock the runtime does consume (open-loop burst sizing,
//     checkpoint timing) is routed through WallNow precisely so tests
//     can pin it and prove virtual time independent of it.
//
//   - Virtual stamps are explicit off the controller. Emit stamps events
//     with the installed virtual-clock func and therefore may only be
//     called from the controller goroutine (the one advancing the
//     clock); concurrent emitters — toolchain workers, transports, the
//     fault injector — use EmitAt with an explicit stamp (0 = unknown)
//     so no goroutine races the clock.
package obsv

import (
	"fmt"
	"io"
	"sync"
	"time"

	"cascade/internal/vclock"
)

// EventKind classifies one JIT lifecycle event.
type EventKind uint8

// The event taxonomy. The ordering follows the lifecycle of one
// subprogram: source enters (eval/elaborate), a compile is submitted and
// resolved against the bitstream cache, the bitstream lands, the engine
// hot-swaps into hardware — and, on the failure path, faults, evictions,
// and recoveries walk it back down.
const (
	EvEval           EventKind = iota // source fragment parsed and integrated
	EvElaborate                       // one subprogram elaborated (type-checked)
	EvCompileSubmit                   // background compilation submitted
	EvCacheHit                        // submission served from the bitstream cache
	EvCacheMiss                       // submission paid for place-and-route
	EvBitstreamReady                  // flow complete; bitstream available at the stamp
	EvCompileFailed                   // flow complete with an error
	EvHotSwap                         // engine migrated between software and hardware
	EvEviction                        // hardware→software reverse hot-swap
	EvFault                           // a fault was injected or observed
	EvRecovery                        // recovery action (resubmit, journal replay)
	EvPhase                           // runtime phase transition (Figure 9)
	EvCheckpoint                      // durable checkpoint written
	EvSpawn                           // engine spawned on a remote host
	EvTransportError                  // transport round-trip failed after retries
	EvProbe                           // supervision liveness probe sent (detail: outcome)
	EvBreaker                         // circuit breaker state transition
	EvFailover                        // remote engine re-seeded locally after a trip
	EvRehost                          // failed-over engine re-hosted on the remote
)

var eventKindNames = [...]string{
	EvEval:           "eval",
	EvElaborate:      "elaborate",
	EvCompileSubmit:  "compile-submit",
	EvCacheHit:       "cache-hit",
	EvCacheMiss:      "cache-miss",
	EvBitstreamReady: "bitstream-ready",
	EvCompileFailed:  "compile-failed",
	EvHotSwap:        "hot-swap",
	EvEviction:       "eviction",
	EvFault:          "fault",
	EvRecovery:       "recovery",
	EvPhase:          "phase",
	EvCheckpoint:     "checkpoint",
	EvSpawn:          "spawn",
	EvTransportError: "transport-error",
	EvProbe:          "probe",
	EvBreaker:        "breaker",
	EvFailover:       "failover",
	EvRehost:         "rehost",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one trace record: what happened, to which engine path, when
// on the wall clock, and when on the virtual timeline (0 when the
// emitter had no virtual stamp — e.g. a transport failure).
type Event struct {
	Seq    uint64
	WallNs int64 // wall-clock stamp, UnixNano
	VPs    uint64
	Kind   EventKind
	Path   string // engine/instance path; "" for runtime-global events
	Detail string
}

// String renders the event as one human-readable trace line (the REPL's
// :trace).
func (e Event) String() string {
	path := e.Path
	if path == "" {
		path = "-"
	}
	return fmt.Sprintf("%6d  vt=%-12s %-15s %-16s %s",
		e.Seq, fmt.Sprintf("%.6fs", float64(e.VPs)/float64(vclock.S)), e.Kind, path, e.Detail)
}

// jsonEscape escapes a string for a JSON string literal (the fields we
// emit are short; this avoids pulling encoding/json onto the path).
func jsonEscape(s string) string {
	var sb []byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			sb = append(sb, '\\', c)
		case c == '\n':
			sb = append(sb, '\\', 'n')
		case c == '\t':
			sb = append(sb, '\\', 't')
		case c < 0x20:
			sb = append(sb, fmt.Sprintf("\\u%04x", c)...)
		default:
			sb = append(sb, c)
		}
	}
	return string(sb)
}

// writeJSON renders the event as one JSONL record.
func (e Event) writeJSON(w io.Writer) {
	fmt.Fprintf(w, `{"seq":%d,"wall_ns":%d,"vps":%d,"kind":%q,"path":%q,"detail":"%s"}`+"\n",
		e.Seq, e.WallNs, e.VPs, e.Kind.String(), e.Path, jsonEscape(e.Detail))
}

// Options configures an Observer.
type Options struct {
	// Addr, when non-empty, is the TCP address StartHTTP serves
	// /metrics, /trace, and /debug/pprof on ("127.0.0.1:0" picks a free
	// port; read the result from HTTPAddr).
	Addr string
	// TraceCap bounds the event ring buffer (default 4096). When the
	// ring is full the oldest events are overwritten; the drop count is
	// exported as cascade_trace_dropped_total.
	TraceCap int
	// WallClock overrides the wall-clock source (tests pin it to prove
	// virtual-time determinism; default time.Now).
	WallClock func() time.Time
}

// Observer is the per-process observability hub: an event ring, a
// metrics registry, and (optionally) an HTTP endpoint. One Observer may
// be shared by a runtime, its toolchain, its transports, and its fault
// injector — or sit host-side inside cascade-engined.
type Observer struct {
	wall func() time.Time
	reg  registry

	mu   sync.Mutex
	vnow func() uint64 // virtual clock; Emit-only, controller goroutine
	seq  uint64
	ring []Event
	head int // next write position
	n    int // events currently buffered

	httpMu sync.Mutex
	addr   string
	srv    *httpServer

	// Core metric set. Everything here is pre-registered by New so
	// instrumentation is a field access plus one atomic op; additional
	// series can be registered with NewCounter/NewGauge/NewHistogram.
	Events          *Counter   // cascade_events_total
	TraceDropped    *Counter   // cascade_trace_dropped_total
	CompileLatency  *Histogram // cascade_compile_latency_virtual_seconds
	TransportRTT    *Histogram // cascade_transport_roundtrip_seconds (wall)
	BatchMakespan   *Histogram // cascade_settle_batch_makespan_virtual_seconds
	LaneOccupancy   *Histogram // cascade_batch_engines
	CheckpointWall  *Histogram // cascade_checkpoint_seconds (wall)
	CacheHits       *Counter   // cascade_compile_cache_hits_total
	CacheMisses     *Counter   // cascade_compile_cache_misses_total
	Promotions      *Counter   // cascade_promotions_total
	Evictions       *Counter   // cascade_evictions_total
	Faults          *Counter   // cascade_faults_injected_total
	TransportErrors *Counter   // cascade_transport_errors_total
	TransportDrops  *Counter   // cascade_transport_drops_total
	TransportRetry  *Counter   // cascade_transport_retries_total
	Checkpoints     *Counter   // cascade_checkpoints_total
	Probes          *Counter   // cascade_supervise_probes_total
	ProbeFailures   *Counter   // cascade_supervise_probe_failures_total
	BreakerTrips    *Counter   // cascade_supervise_breaker_trips_total
	Failovers       *Counter   // cascade_supervise_failovers_total
	Rehosts         *Counter   // cascade_supervise_rehosts_total
	Phase           *Gauge     // cascade_phase
	AreaLEs         *Gauge     // cascade_area_les
}

// New builds an Observer. It does not listen; call StartHTTP (idempotent
// — the runtime does it for you) to serve the endpoint named in
// Options.Addr.
func New(opts Options) *Observer {
	if opts.TraceCap <= 0 {
		opts.TraceCap = 4096
	}
	wall := opts.WallClock
	if wall == nil {
		wall = time.Now
	}
	o := &Observer{
		wall: wall,
		ring: make([]Event, opts.TraceCap),
		addr: opts.Addr,
	}
	o.Events = o.NewCounter("cascade_events_total", "Lifecycle events emitted into the trace ring.")
	o.TraceDropped = o.NewCounter("cascade_trace_dropped_total", "Trace events overwritten because the ring was full.")
	// Virtual compile latencies span ~1 virtual ms (cache hit) to hours
	// (paper-faithful place-and-route of large designs).
	o.CompileLatency = o.NewHistogram("cascade_compile_latency_virtual_seconds",
		"Virtual duration of background compilations as billed by the toolchain (cache hits included).",
		ExpBuckets(vclock.Ms, 4, 16), float64(vclock.S))
	// Wall round-trips: 1µs (loopback) up to ~4s.
	o.TransportRTT = o.NewHistogram("cascade_transport_roundtrip_seconds",
		"Wall-clock latency of transport round-trips to remote engines.",
		ExpBuckets(1000, 4, 12), 1e9)
	o.BatchMakespan = o.NewHistogram("cascade_settle_batch_makespan_virtual_seconds",
		"Virtual makespan billed per evaluate/update batch.",
		ExpBuckets(uint64(vclock.Ns), 4, 16), float64(vclock.S))
	o.LaneOccupancy = o.NewHistogram("cascade_batch_engines",
		"Engines dispatched per scheduler batch (lane occupancy).",
		[]uint64{1, 2, 4, 8, 16, 32, 64}, 1)
	o.CheckpointWall = o.NewHistogram("cascade_checkpoint_seconds",
		"Wall-clock cost of writing one durable checkpoint.",
		ExpBuckets(100_000, 4, 12), 1e9)
	o.CacheHits = o.NewCounter("cascade_compile_cache_hits_total", "Compilations served from the bitstream cache (ratio = hits / (hits+misses)).")
	o.CacheMisses = o.NewCounter("cascade_compile_cache_misses_total", "Compilations that paid for place-and-route.")
	o.Promotions = o.NewCounter("cascade_promotions_total", "Hot swaps up the JIT ladder (interpreter to native code or fabric, native code to fabric).")
	o.Evictions = o.NewCounter("cascade_evictions_total", "Fault demotions back to the interpreter, from the fabric or from native code.")
	o.Faults = o.NewCounter("cascade_faults_injected_total", "Faults injected across all surfaces.")
	o.TransportErrors = o.NewCounter("cascade_transport_errors_total", "Transport round-trips that failed after the retry budget.")
	o.TransportDrops = o.NewCounter("cascade_transport_drops_total", "Fault-injected frame drops consumed by transports.")
	o.TransportRetry = o.NewCounter("cascade_transport_retries_total", "Transport reconnect/resend attempts beyond the first.")
	o.Checkpoints = o.NewCounter("cascade_checkpoints_total", "Durable checkpoints written.")
	o.Probes = o.NewCounter("cascade_supervise_probes_total", "Supervision liveness probes sent to remote engine hosts.")
	o.ProbeFailures = o.NewCounter("cascade_supervise_probe_failures_total", "Supervision probes that failed (or round-trips counted against the breaker).")
	o.BreakerTrips = o.NewCounter("cascade_supervise_breaker_trips_total", "Circuit-breaker closed-to-open transitions.")
	o.Failovers = o.NewCounter("cascade_supervise_failovers_total", "Remote engines re-seeded onto local engines after a breaker trip.")
	o.Rehosts = o.NewCounter("cascade_supervise_rehosts_total", "Failed-over engines re-hosted on their remote once the breaker closed.")
	o.Phase = o.NewGauge("cascade_phase", "Current JIT phase (0=empty 1=software 2=inlined 3=hardware 4=forwarded 5=open-loop 6=native).")
	o.AreaLEs = o.NewGauge("cascade_area_les", "Fabric area of the current hardware engines, in logic elements.")
	return o
}

// Enabled reports whether o records anything (false for nil).
func (o *Observer) Enabled() bool { return o != nil }

// WallNow is the host-side wall clock every component consults instead
// of calling time.Now directly: with observability configured it is the
// (possibly test-pinned) Options.WallClock, and on a nil Observer it
// falls back to time.Now. Routing all wall reads through here is what
// lets the determinism tests *prove* wall time never leaks into virtual
// billing — pin the clock, replay, compare bytes.
func (o *Observer) WallNow() time.Time {
	if o == nil {
		return time.Now()
	}
	return o.wall()
}

// SetVirtualNow installs the virtual-clock source Emit stamps events
// with. The runtime installs its vclock at construction; components
// without one leave it unset and use EmitAt.
func (o *Observer) SetVirtualNow(fn func() uint64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.vnow = fn
	o.mu.Unlock()
}

// Emit records one event stamped with the installed virtual clock.
// Controller goroutine only (the virtual clock is not synchronized);
// concurrent emitters use EmitAt.
func (o *Observer) Emit(kind EventKind, path, detail string) {
	if o == nil {
		return
	}
	o.mu.Lock()
	vps := uint64(0)
	if o.vnow != nil {
		vps = o.vnow()
	}
	o.emitLocked(vps, kind, path, detail)
	o.mu.Unlock()
}

// EmitAt records one event with an explicit virtual stamp (0 when the
// emitter has none). Safe from any goroutine.
func (o *Observer) EmitAt(vps uint64, kind EventKind, path, detail string) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.emitLocked(vps, kind, path, detail)
	o.mu.Unlock()
}

// emitLocked appends to the ring; o.mu held.
func (o *Observer) emitLocked(vps uint64, kind EventKind, path, detail string) {
	o.seq++
	ev := Event{
		Seq:    o.seq,
		WallNs: o.wall().UnixNano(),
		VPs:    vps,
		Kind:   kind,
		Path:   path,
		Detail: detail,
	}
	if o.n == len(o.ring) {
		o.TraceDropped.Inc()
	} else {
		o.n++
	}
	o.ring[o.head] = ev
	o.head = (o.head + 1) % len(o.ring)
	o.Events.Inc()
}

// Trace returns the most recent n events, oldest first (n <= 0 or
// n > buffered returns everything buffered). Safe on a nil Observer.
func (o *Observer) Trace(n int) []Event {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if n <= 0 || n > o.n {
		n = o.n
	}
	out := make([]Event, 0, n)
	start := o.head - n
	if start < 0 {
		start += len(o.ring)
	}
	for i := 0; i < n; i++ {
		out = append(out, o.ring[(start+i)%len(o.ring)])
	}
	return out
}
