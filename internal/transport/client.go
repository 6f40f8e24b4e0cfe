package transport

import (
	"fmt"
	"strings"
	"sync"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/engine"
	"cascade/internal/obsv"
	"cascade/internal/proto"
)

// Client presents a Transport-backed engine to the runtime: it
// implements engine.Engine (plus engine.UsageReporter), so whoever
// drives an engine need not know where it lives. A client spawned on a
// Link additionally shares that daemon's rounds (link.go).
//
// IO ordering contract: replies piggyback the engine's buffered
// $display/$finish events, and the client delivers them to its
// IOHandler synchronously on the goroutine that issued the request —
// before the call, or the link's Round, returns. Remote engines
// therefore obey exactly the same lane-drain ordering as in-process
// ones; no transport goroutine ever touches a lane.
//
// Error model: a transport-level failure (daemon unreachable after the
// retry budget) latches, and so does an engine-level one — a reply whose
// Err is set on anything but a spawn, which is how a daemon says it no
// longer holds the engine (ErrEngineLost). The engine goes inert — polls
// answer false, drains answer nothing, GetState returns no words — and the
// error is reported once through onErr; so is, as ErrEngineLost, a state
// image that does not fit the engine's layout, and, as ErrNoLayout, a
// state transfer on a client spawned without one. This is
// deliberate degradation, mirroring the hardware fault path: the program
// limps rather than the runtime crashing mid-step.
type Client struct {
	t      Transport
	id     uint32
	name   string
	layout *elab.Layout // the hosted engine's state layout (SpawnSpec.Layout)
	io     engine.IOHandler
	onErr  func(error)
	nowFn  func() uint64
	vnowFn func() uint64

	// local is the in-process engine of a client made by NewLocalClient,
	// which has no transport: engine methods delegate straight to it — no
	// request/reply structs, no locks, nothing between the scheduler and
	// the engine but one pointer indirection and a round-trip counter
	// (benchmark-gated: BenchmarkLocalTransportOverhead). It is swapped
	// only between steps, on the controller goroutine (SwapLocal), which is
	// also when loc follows it: no engine kind changes location during its
	// life, so a local client's Loc is a field read. fastRT counts the
	// calls for Stats, as the engine's own counters do: by whichever
	// goroutine drives the engine — the controller, or the worker lane a
	// batch dispatched it on, joined before the controller goes on — and
	// read between steps, so a plain increment, not a locked one, per call.
	local  engine.Engine
	fastRT uint64 // fast-path round-trips (for Stats)

	// link is the daemon link a hosted client was spawned on (nil for a
	// lone client): Read queues on it, and its rounds leave the client's
	// share of each reply in the three fields below. Like the link they
	// belong to whichever goroutine drives it.
	link    *Link
	queued  bool           // has inputs on the link's queue
	ran     bool           // the last round ran this engine
	drained bool           // drain holds outputs nobody has visited yet
	drain   []engine.Event // lent by the link's reply until its next frame

	mu      sync.Mutex
	obs     *obsv.Observer
	req     proto.Request
	rep     proto.Reply
	loc     engine.Location // under mu for a remote client; a local one's is the controller's (SwapLocal)
	pending engine.Usage
	stats   Stats
	err     error
}

// SetObserver installs an observability hub on a remote client: location
// changes advertised by reply envelopes — the daemon promoting the
// engine onto its own fabric, or evicting a faulted one back to software
// — are traced as hot-swap events, so remote JIT activity flows back
// into the runtime's trace (the daemon's own /metrics counts them). The
// fast path of Local clients is untouched (local swaps are traced by the
// runtime's own serviceJIT).
func (c *Client) SetObserver(o *obsv.Observer) {
	c.mu.Lock()
	c.obs = o
	c.mu.Unlock()
}

// NewLocalClient wraps a pre-built in-process engine in a Client: no
// transport, no protocol message. onErr may be nil.
func NewLocalClient(e engine.Engine, onErr func(error)) *Client {
	return &Client{
		name:  e.Name(),
		loc:   e.Loc(),
		onErr: onErr,
		local: e,
	}
}

// SpawnSpec describes a subprogram to instantiate on a remote host.
type SpawnSpec struct {
	Path    string // instance path (the engine's name)
	Source  string // self-contained module declaration
	Params  map[string]*bits.Vector
	Eager   bool   // naive re-evaluation ablation
	JIT     bool   // let the host promote to its own fabric
	Session uint32 // owning daemon session (0: the legacy shared fabric)
	// Layout is the engine's state layout, Source's elaboration's: what
	// state transfers fit and bill by. Without it the client only runs the
	// engine; a state transfer latches ErrNoLayout.
	Layout *elab.Layout
}

// Spawn instantiates a subprogram on the host behind t and returns its
// client. io receives the engine's $display/$finish events (including
// those its initial blocks emit during construction, piggybacked on the
// spawn reply). now feeds $time; vnow feeds the host's JIT clock. Both
// may be nil when irrelevant. The client is a lone one: every engine
// call is its own frame. Link.Spawn makes one that shares rounds.
func Spawn(t Transport, spec SpawnSpec, io engine.IOHandler, now, vnow func() uint64, onErr func(error)) (*Client, error) {
	return spawn(t, nil, spec, io, now, vnow, onErr)
}

func spawn(t Transport, l *Link, spec SpawnSpec, io engine.IOHandler, now, vnow func() uint64, onErr func(error)) (*Client, error) {
	c := &Client{
		t:      t,
		link:   l,
		name:   spec.Path,
		layout: spec.Layout,
		io:     io,
		onErr:  onErr,
		nowFn:  now,
		vnowFn: vnow,
	}
	rep := c.call(proto.KindSpawn, func(req *proto.Request) {
		req.Path = spec.Path
		req.Source = spec.Source
		req.Params = spec.Params
		req.Eager = spec.Eager
		req.JIT = spec.JIT
		req.Session = spec.Session
	})
	if c.err != nil {
		return nil, c.err
	}
	if rep.Err != "" {
		return nil, &remoteError{rep.Err}
	}
	c.id = rep.Engine
	return c, nil
}

type remoteError struct{ msg string }

func (e *remoteError) Error() string { return "transport: remote: " + e.msg }

// Is matches the refusals the host words from a sentinel error.
func (e *remoteError) Is(target error) bool {
	return target == ErrUnknownSession && strings.HasPrefix(e.msg, ErrUnknownSession.Error())
}

// OpenSession opens a tenant session on the daemon behind t: the host
// carves a fabric region of quotaLEs (0 takes the daemon default),
// registers tenant name on its toolchain with a fair share of share
// compile workers (0: global pool only), and returns the session ID to
// stamp into SpawnSpec.Session. vnow feeds the host's virtual clock.
func OpenSession(t Transport, name string, quotaLEs, share int, vnow uint64) (uint32, error) {
	var rep proto.Reply
	req := proto.Request{Kind: proto.KindSessionOpen, VNow: vnow,
		Path: name, Quota: uint64(quotaLEs), Share: uint64(share)}
	if _, err := t.Roundtrip(&req, &rep); err != nil {
		return 0, err
	}
	if rep.Err != "" {
		return 0, &remoteError{rep.Err}
	}
	return rep.Engine, nil
}

// CloseSession tears down a daemon session opened with OpenSession,
// ending its engines and releasing its fabric region.
func CloseSession(t Transport, id uint32, vnow uint64) error {
	var rep proto.Reply
	req := proto.Request{Kind: proto.KindSessionClose, Session: id, VNow: vnow}
	if _, err := t.Roundtrip(&req, &rep); err != nil {
		return err
	}
	if rep.Err != "" {
		return &remoteError{rep.Err}
	}
	return nil
}

// SwapLocal replaces the engine behind a local client in place (the
// JIT's hot swap), preserving the client's cumulative transport stats.
// It panics on remote clients — remote promotion is the host's job.
func (c *Client) SwapLocal(e engine.Engine) {
	if c.local == nil {
		panic("transport: SwapLocal on a remote client")
	}
	c.local = e
	c.loc = e.Loc()
}

// Remote reports whether the engine lives on the far side of a real
// transport (its communication is billed per ABI call, whichever framing
// carried it) rather than in-process.
func (c *Client) Remote() bool { return c.local == nil }

// TransportKind names the transport for stats displays ("local" for an
// in-process engine, which has none).
func (c *Client) TransportKind() string {
	if c.local != nil {
		return "local"
	}
	return c.t.Kind()
}

// Stats returns the client's cumulative per-engine transport counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.RoundTrips += c.fastRT
	return st
}

// SeedStats pre-loads the cumulative counters (the runtime carries an
// engine's stats across program restarts, which rebuild clients).
func (c *Client) SeedStats(s Stats) {
	c.mu.Lock()
	c.stats.Add(s)
	c.mu.Unlock()
}

// Err returns the latched transport error, if any.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// call performs one lone round-trip. It returns the reply (valid until
// the next call) or nil when the client has latched an error. A hosted
// client's queued inputs — and its neighbours', the queue being the
// daemon's — go first, so per-engine order is the order of the calls.
func (c *Client) call(kind proto.Kind, build func(*proto.Request)) *proto.Reply {
	if c.link != nil {
		c.link.Flush()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil
	}
	c.req = proto.Request{Kind: kind, Engine: c.id}
	stamp(&c.req, c.nowFn, c.vnowFn)
	if build != nil {
		build(&c.req)
	}
	cost, err := c.t.Roundtrip(&c.req, &c.rep)
	c.book(1, cost)
	if err != nil {
		c.fail(err)
		return nil
	}
	if c.rep.Err != "" && kind != proto.KindSpawn {
		c.fail(lostError(c.name, c.rep.Err))
		return nil
	}
	c.absorb(c.rep.Loc, c.rep.Usage, c.rep.IO, c.req.VNow)
	// Every remote ABI call (and each retry) crosses a serialized
	// boundary: bill it like an MMIO transaction. State transfers
	// additionally cost one message per 32-bit word, matching the
	// hardware engines' shadow-register access model.
	c.pending.Msgs += 1 + cost.Retries
	if kind == proto.KindGetState {
		if len(c.rep.State) != c.layout.Len() {
			c.fail(lostError(c.name, fmt.Sprintf("state image of %d words does not fit the engine's layout", len(c.rep.State))))
			return nil
		}
		c.pending.Msgs += c.layout.Bus()
	}
	return &c.rep
}

// stamp fills a request's clocks: now feeds $time, vnow the host's JIT
// clock; either may be nil.
func stamp(req *proto.Request, now, vnow func() uint64) {
	if now != nil {
		req.Now = now()
	}
	if vnow != nil {
		req.VNow = vnow()
	}
}

// book adds frames round trips and their transport cost to the client's
// counters. Callers hold c.mu.
func (c *Client) book(frames uint64, cost Cost) {
	c.stats.RoundTrips += frames
	c.stats.BytesOut += cost.BytesOut
	c.stats.BytesIn += cost.BytesIn
	c.stats.Drops += cost.Drops
	c.stats.Retries += cost.Retries
}

// fail latches err, once, and reports it. Callers hold c.mu.
func (c *Client) fail(err error) {
	if c.err != nil {
		return
	}
	c.err = err
	c.ran, c.drained = false, false
	if c.onErr != nil {
		c.onErr(err)
	}
}

// absorb takes in what every answer about the engine carries, whichever
// framing brought it: buffered IO replayed on the calling goroutine into
// the engine's lane, a location flip traced with the frame's virtual
// stamp, metered work into pending. Callers hold c.mu.
func (c *Client) absorb(loc engine.Location, usage engine.Usage, io []proto.IOEvent, vnow uint64) {
	if c.io != nil {
		for _, ev := range io {
			switch ev.Kind {
			case proto.IODisplay:
				c.io.Display(ev.Text, ev.Newline)
			case proto.IOFinish:
				c.io.Finish(ev.Code)
			}
		}
	}
	if loc != c.loc && c.obs != nil {
		// The daemon moved the engine (its own Figure-9 machine): a
		// promotion onto its fabric, or an eviction back to software.
		// Traced here, counted only by the daemon that made the move
		// (Host.settle). Any goroutine may be issuing the call, so the
		// event carries the request's virtual stamp via EmitAt rather
		// than Emit.
		dir := "sw->hw"
		if loc != engine.Hardware {
			dir = "hw->sw"
		}
		c.obs.EmitAt(vnow, obsv.EvHotSwap, c.name, "remote "+dir)
	}
	c.loc = loc
	c.pending.Add(usage)
}

// engine.Engine ----------------------------------------------------------

// Name implements engine.Engine (no round-trip).
func (c *Client) Name() string { return c.name }

// Loc implements engine.Engine. Local clients return the location their
// engine had when it was wrapped or swapped in (an engine's location is
// fixed for its life); remote clients the one cached from the latest
// reply envelope. No round-trip either way — the scheduler asks per poll
// and per delivery.
func (c *Client) Loc() engine.Location {
	if c.local != nil {
		return c.loc
	}
	return c.remoteLoc()
}

func (c *Client) remoteLoc() engine.Location {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loc
}

// GetState implements engine.Engine, billed one message per 32-bit word
// of the layout; a latched error answers no words.
func (c *Client) GetState() []uint64 {
	if c.local != nil {
		c.fastRT++
		return c.local.GetState()
	}
	if c.hasLayout() {
		if rep := c.call(proto.KindGetState, nil); rep != nil {
			return rep.State
		}
	}
	return []uint64{}
}

// hasLayout reports whether a hosted client can transfer state, latching
// ErrNoLayout when it was spawned without a layout.
func (c *Client) hasLayout() bool {
	if c.layout != nil {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fail(ErrNoLayout)
	return false
}

// SetState implements engine.Engine, billed like GetState.
func (c *Client) SetState(img []uint64) {
	var bus uint64
	if c.layout != nil {
		bus = c.layout.Bus()
	}
	c.SetStateBus(img, bus)
}

// SetStateBus is SetState for a seed that bills bus words rather than
// the layout's: a state carried over from another version of the
// program bills what that version's state held (lifecycle.Seed).
func (c *Client) SetStateBus(img []uint64, bus uint64) {
	if c.local != nil {
		c.fastRT++
		c.local.SetState(img)
		return
	}
	if c.hasLayout() && c.call(proto.KindSetState, func(req *proto.Request) { req.State = img }) != nil {
		c.mu.Lock()
		c.pending.Msgs += bus
		c.mu.Unlock()
	}
}

// Read implements engine.Engine.
func (c *Client) Read(ev engine.Event) {
	if c.local != nil {
		c.fastRT++
		c.local.Read(ev)
		return
	}
	if c.link != nil {
		c.link.queue(c, ev)
		return
	}
	c.call(proto.KindRead, func(req *proto.Request) {
		req.Var = ev.Var
		req.Val = ev.Val
	})
}

// VisitWrites implements engine.Engine: one round trip, none when a round
// already drained the engine. A local engine lends its live values; a
// remote reply's events are lent until the client's next call or its
// link's next frame.
func (c *Client) VisitWrites(fn func(name string, val *bits.Vector)) {
	if c.local != nil {
		c.fastRT++
		c.local.VisitWrites(fn)
		return
	}
	var evs []engine.Event
	if c.drained {
		// The round that ran the engine drained it in the same frame.
		c.drained, evs = false, c.drain
	} else if rep := c.call(proto.KindDrainWrites, nil); rep != nil {
		evs = rep.Events
	}
	for _, ev := range evs {
		fn(ev.Var, ev.Val)
	}
}

// DrainWrites implements engine.Engine.
func (c *Client) DrainWrites() []engine.Event { return engine.Collect(c) }

// ThereAreEvals implements engine.Engine.
func (c *Client) ThereAreEvals() bool {
	if c.local != nil {
		c.fastRT++
		return c.local.ThereAreEvals()
	}
	rep := c.call(proto.KindThereAreEvals, nil)
	return rep != nil && rep.Bool
}

// Evaluate implements engine.Engine.
func (c *Client) Evaluate() {
	if c.local != nil {
		c.fastRT++
		c.local.Evaluate()
		return
	}
	c.call(proto.KindEvaluate, nil)
}

// ThereAreUpdates implements engine.Engine.
func (c *Client) ThereAreUpdates() bool {
	if c.local != nil {
		c.fastRT++
		return c.local.ThereAreUpdates()
	}
	rep := c.call(proto.KindThereAreUpdates, nil)
	return rep != nil && rep.Bool
}

// Update implements engine.Engine.
func (c *Client) Update() {
	if c.local != nil {
		c.fastRT++
		c.local.Update()
		return
	}
	c.call(proto.KindUpdate, nil)
}

// EndStep implements engine.Engine.
func (c *Client) EndStep() {
	if c.local != nil {
		c.fastRT++
		c.local.EndStep()
		return
	}
	c.call(proto.KindEndStep, nil)
}

// End implements engine.Engine. A hosted client that cannot reach its
// daemon — it latched an error, before this call or on it — leaves the
// End owed by its link (Link.Flush): a daemon that answers again, resumed
// from its journal or never gone, must not keep an engine nobody drives.
func (c *Client) End() {
	if c.local != nil {
		c.fastRT++
		c.local.End()
		return
	}
	if c.call(proto.KindEnd, nil) == nil && c.link != nil {
		c.link.owe(c.id)
	}
}

// UsageDelta implements engine.UsageReporter: the wrapped engine's own
// meter on the fast path, or work accumulated from reply envelopes
// (plus transport messages) for remote engines.
func (c *Client) UsageDelta() engine.Usage {
	if c.local != nil {
		if ur, ok := c.local.(engine.UsageReporter); ok {
			return ur.UsageDelta()
		}
		return engine.Usage{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	u := c.pending
	c.pending = engine.Usage{}
	return u
}
