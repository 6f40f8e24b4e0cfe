package toolchain

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/obsv"
	"cascade/internal/supervise"
	"cascade/internal/vclock"
)

// ErrShardUnavailable reports that a compile-farm submission could not
// be served because no shard was reachable (every shard down, or the
// routed shard and all its replicas failed). It travels inside the
// job's Result.Err; callers match it with errors.Is and resubmit after
// a virtual-time backoff — like ErrOverloaded, it is a verdict on the
// service's availability, never on the design.
var ErrShardUnavailable = errors.New("compile shard unavailable")

// FarmBackend is a compile farm: a router in front of N cache stacks
// with a replicated bitstream cache (DESIGN.md "The compile flow & the
// farm"). Jobs are rendezvous-hashed on the synthesized netlist's
// fingerprint; each shard runs a bounded queue, full queues steal to the
// idlest live shard, and a fully saturated farm sheds with
// ErrOverloaded exactly like admission control. Shards are in-process
// stacks (Workers) or remote cascade-engined compile workers, each
// wrapping one (Links, wired by internal/transport).
//
// Determinism (DESIGN.md key invariant 15): every quantity a route
// decision reads — per-shard queue depth, shard liveness, the hash ring
// — is a pure function of the submission order and the virtual
// timeline. Route decisions commit strictly in submission order (a
// turnstile over the farm lock); queue-depth releases are stamped with
// an event-sequence number when the owner settles the job and are
// applied by later routes only when they precede the routing job's own
// submission stamp. Cache serving is stack.serve, the code a local flow
// runs, peer hits bill exactly one cache-hit latency, and farm control
// messages are metered on a separate counter (FarmStats.Msgs/MsgPs) —
// modelled as fully overlapped with the flow's compile window — so a
// farm-backed run is byte-identical to a local run.
type FarmBackend struct {
	t    *Toolchain
	opts FarmOptions

	shards []*shard

	mu   sync.Mutex
	cond *sync.Cond
	// seqNext/esqNext stamp submissions and settles into one event
	// order; nextRoute is the turnstile: the submission sequence allowed
	// to commit its route next. routed counts committed route decisions
	// — the outage schedule's clock.
	seqNext   uint64
	esqNext   uint64
	nextRoute uint64
	routed    uint64
	pending   []settleEv
	keyHome   map[string]int
	stats     FarmStats

	gDepth []*obsv.Gauge
	// The countable farm events, guarded by mu. Each is one obsv.Tally,
	// so FarmStats and /metrics cannot disagree.
	stolen, rerouted, peerHits, shed, unavailable obsv.Tally
}

// FarmOptions configures a sharded compile farm (Toolchain.UseFarm).
type FarmOptions struct {
	// Workers is the number of in-process compile shards (default 2).
	// Ignored when Links is set.
	Workers int
	// Links connects the farm to remote compile workers (cascade-engined
	// -compile-worker daemons), one shard per link. Wire them with
	// internal/transport.DialFarm.
	Links []ShardLink
	// QueueDepth bounds each shard's queue of unobserved submissions
	// (default 8). A submission routed to a full shard is stolen by the
	// idlest live shard; when every live shard is full it is shed with
	// ErrOverloaded.
	QueueDepth int
	// Replicas is how many shards hold each bitstream (default 2,
	// clamped to the shard count): the acting home plus its successors
	// on the hash ring. Determinism across shard restarts is guaranteed
	// while fewer than Replicas shards are down at once.
	Replicas int
	// MsgPs is the virtual cost billed per farm control message
	// (compile-submit, status, cache-fetch, replication, publish) into
	// FarmStats.MsgPs — a separate meter, never the runtime's virtual
	// clock (default 50 virtual µs, divided by Options.Scale).
	MsgPs uint64
	// Outages is a deterministic shard-fault schedule on the route
	// clock: shard Target is down for every route decision whose ordinal
	// falls in [From, To), and restarts cold (empty memory cache) at To.
	// Keyed on route ordinals, not wall or virtual time, a schedule
	// replays exactly: the Nth route decision of a run always sees the
	// same shards alive. fault.Config.Outages plans seeded ones.
	Outages []fault.Window
	// PnRWallNs, when positive, burns that much wall-clock per
	// place-and-route a shard executes (virtual billing unchanged) —
	// modelling the real CPU cost of a CAD flow so cascade-bench can
	// demonstrate wall-clock throughput scaling across shards.
	PnRWallNs int64
	// Supervise tunes the per-shard circuit breaker used for remote
	// links (zero value: supervise defaults).
	Supervise supervise.Options
}

func (o *FarmOptions) fill() {
	if len(o.Links) > 0 {
		o.Workers = len(o.Links)
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 8
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.Replicas > o.Workers {
		o.Replicas = o.Workers
	}
	if o.MsgPs == 0 {
		o.MsgPs = 50 * vclock.Us
	}
}

// FarmStats snapshots the farm's counters.
type FarmStats struct {
	Shards      int
	Jobs        uint64 // submissions stamped into the farm's event order
	Routed      uint64 // route decisions committed
	Stolen      uint64 // jobs stolen from a full home shard by an idle one
	Rerouted    uint64 // jobs whose hash-preferred home was down
	Shed        uint64 // jobs shed with every live queue at its bound
	Unavailable uint64 // jobs failed with every shard down
	PeerHits    uint64 // submissions served from another shard's cache
	Replicated  uint64 // replica insertions pushed to peer shards
	Msgs        uint64 // farm control messages billed
	MsgPs       uint64 // their total virtual cost (separate meter)
	Depth       []int  // current per-shard queue depth
	Down        []bool // current per-shard outage state
}

// farmRoute is one farm submission's routing state, written at submit
// and by its route commit (both under the farm lock) and read by the
// job's own worker goroutine after the commit: the submission's commit
// sequence and event-sequence stamp, and — once routed — the shard whose
// queue depth it occupies plus the route-time view (acting home,
// rendezvous order, shard liveness) the compile executes against. A nil
// *farmRoute is a job the farm never saw.
type farmRoute struct {
	fb    *FarmBackend
	seq   uint64
	esq   uint64
	shard int // -1 before routing, and forever for jobs that died pre-route
	home  int
	order []int
	live  []bool
}

// settleEv is one queue-depth release awaiting application in event
// order. The shard is read from the route at apply time: the turnstile
// guarantees the job's own route committed before any later submission
// applies its settle.
type settleEv struct {
	esq uint64
	r   *farmRoute
}

// shard is one compile worker: an in-process cache stack (link nil) or
// a remote worker wrapping its own.
type shard struct {
	idx   int
	link  ShardLink
	cache *stack
	busy  sync.Mutex // held by the back half executing on it (in-process)
	brk   *supervise.Supervisor

	// Guarded by the farm mutex.
	depth     int
	schedDown bool // down per the outage schedule
	brkOpen   bool // down per the circuit breaker (remote links)
}

func (s *shard) down() bool { return s.schedDown || s.brkOpen }

// ShardSubmit is one back-half request — what stack.serve takes, and the
// wire form of a compile-submit to a remote worker: the cache key, the
// submission's virtual-time accounting, and the synthesized netlist's
// summary — the model's only inputs. The worker never re-synthesizes;
// the submitter keeps the netlist (the runtime needs it to program its
// own fabric) and the flow outcome is reproduced from the summary.
type ShardSubmit struct {
	Key       string
	Name      string
	Wrapped   bool
	SubmitPs  uint64
	BackoffPs uint64
	Cells     int
	FFs       int
	MemBits   int
	CritPath  int
	// native selects the native-tier model. It never crosses the wire:
	// native flows never farm out.
	native bool
}

// ShardOutcome is the one record of a served flow: what Toolchain.model
// computes, what the memory tier holds, and the wire form of a
// compile-submit's result. FlowErr carries a design verdict (no fit,
// failed timing) as text, so every path formats it byte for byte alike.
type ShardOutcome struct {
	AreaLEs    int
	RawAreaLEs int
	CritPath   int
	DurationPs uint64
	CacheHit   bool
	HitSource  string
	FlowErr    string
}

// meta is the outcome's durable projection: what the disk store and
// peer workers keep of it under key.
func (out ShardOutcome) meta(key string) BitMeta {
	return BitMeta{Key: key, AreaLEs: out.AreaLEs, RawAreaLEs: out.RawAreaLEs, CritPath: out.CritPath}
}

// ShardLink is the farm's connection to one remote compile worker.
// internal/transport implements it over the engine protocol's framing
// (proto kinds compile-submit, cache-put and ping); defining the
// interface here keeps the toolchain free of a transport dependency.
type ShardLink interface {
	// Submit runs the back half of a flow on the worker and returns its
	// outcome. An error is a transport failure (the shard is dead), not
	// a design verdict.
	Submit(spec ShardSubmit) (ShardOutcome, error)
	// Publish marks a key delivered on the worker.
	Publish(key string) error
	// Ping is the breaker's liveness probe.
	Ping() error
	// Close releases the connection.
	Close() error
}

// UseFarm installs a sharded compile farm for the toolchain's fabric
// flows and returns it. Native-tier jobs keep compiling on the
// toolchain's own stack. Install the farm before submitting work; jobs
// in flight stay on the path they were submitted to.
func (t *Toolchain) UseFarm(fo FarmOptions) *FarmBackend {
	fb := newFarmBackend(t, fo)
	t.mu.Lock()
	t.farm = fb
	t.mu.Unlock()
	return fb
}

// Farm returns the installed compile farm (nil when compiling locally).
func (t *Toolchain) Farm() *FarmBackend {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.farm
}

// FarmStats snapshots the installed farm's counters; ok is false when
// no farm is installed.
func (t *Toolchain) FarmStats() (FarmStats, bool) {
	fb := t.Farm()
	if fb == nil {
		return FarmStats{}, false
	}
	return fb.Stats(), true
}

func newFarmBackend(t *Toolchain, fo FarmOptions) *FarmBackend {
	fo.fill()
	fb := &FarmBackend{
		t:       t,
		opts:    fo,
		keyHome: map[string]int{},
		stats:   FarmStats{Shards: fo.Workers},
	}
	fb.cond = sync.NewCond(&fb.mu)
	obs := t.tenant("").snapshot().obs
	for i := 0; i < fo.Workers; i++ {
		// Shards share the toolchain's durable store: it is
		// content-addressed and written atomically, and sharing it keeps
		// disk-hit behaviour identical to a local flow's (invariant 15
		// with CacheDir).
		s := &shard{
			idx:   i,
			cache: newStack(t),
			brk:   supervise.New(fo.Supervise, nil),
		}
		if len(fo.Links) > 0 {
			s.link = fo.Links[i]
		}
		fb.shards = append(fb.shards, s)
		fb.gDepth = append(fb.gDepth, obs.NewLabeledGauge(
			"cascade_farm_queue_depth", "compile submissions occupying this shard's bounded queue",
			map[string]string{"shard": fmt.Sprint(i)}))
	}
	fb.stolen.Series = obs.NewCounter("cascade_farm_steals_total", "jobs stolen from a full home shard by an idle one")
	fb.rerouted.Series = obs.NewCounter("cascade_farm_reroutes_total", "jobs routed past a dead home shard")
	fb.peerHits.Series = obs.NewCounter("cascade_farm_peer_hits_total", "submissions served from another shard's bitstream cache")
	fb.shed.Series = obs.NewCounter("cascade_farm_shed_total", "jobs shed with every shard queue at its bound")
	fb.unavailable.Series = obs.NewCounter("cascade_farm_unavailable_total", "jobs failed with every shard down")
	return fb
}

// Stats snapshots the farm counters.
func (fb *FarmBackend) Stats() FarmStats {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	st := fb.stats
	st.Stolen, st.Rerouted, st.PeerHits = fb.stolen.N, fb.rerouted.N, fb.peerHits.N
	st.Shed, st.Unavailable = fb.shed.N, fb.unavailable.N
	st.Depth = make([]int, len(fb.shards))
	st.Down = make([]bool, len(fb.shards))
	for i, s := range fb.shards {
		st.Depth[i] = s.depth
		st.Down[i] = s.down()
	}
	return st
}

// msgPs is the virtual bill of one farm control message, scaled like
// every other toolchain latency.
func (fb *FarmBackend) msgPs() uint64 {
	ps := uint64(float64(fb.opts.MsgPs) / fb.t.opts.Scale)
	if ps == 0 {
		ps = 1
	}
	return ps
}

// billLocked meters n control messages. Callers hold fb.mu.
func (fb *FarmBackend) billLocked(n uint64) {
	fb.stats.Msgs += n
	fb.stats.MsgPs += n * fb.msgPs()
}

// noteSubmit stamps a submission into the farm's event order; called
// synchronously from submit so the order is the caller's deterministic
// submission order, not worker-goroutine scheduling.
func (fb *FarmBackend) noteSubmit() *farmRoute {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	r := &farmRoute{fb: fb, seq: fb.seqNext, esq: fb.esqNext, shard: -1, home: -1}
	fb.seqNext++
	fb.esqNext++
	fb.stats.Jobs++
	return r
}

// settle stamps the job's queue-depth release. It is applied by later
// route decisions whose submissions observed it (esq order), keeping
// depth a pure function of the virtual-order history.
func (r *farmRoute) settle() {
	if r == nil {
		return
	}
	fb := r.fb
	fb.mu.Lock()
	fb.pending = append(fb.pending, settleEv{esq: fb.esqNext, r: r})
	fb.esqNext++
	fb.mu.Unlock()
}

// applySettlesLocked releases the queue slots of every settle stamped
// before limit. Callers hold fb.mu inside the turnstile, so every
// affected job's route has already committed and its shard is final.
func (fb *FarmBackend) applySettlesLocked(limit uint64) {
	kept := fb.pending[:0]
	for _, ev := range fb.pending {
		if ev.esq >= limit {
			kept = append(kept, ev)
			continue
		}
		if sh := ev.r.shard; sh >= 0 {
			s := fb.shards[sh]
			if s.depth > 0 {
				s.depth--
			}
			fb.gDepth[sh].Set(int64(s.depth))
		}
	}
	fb.pending = kept
}

// applyOutagesLocked advances the outage schedule to the route ordinal
// about to be decided. A shard leaving an outage window restarts cold:
// its memory cache clears (replicas on its peers survive); the shared
// durable store is unaffected.
func (fb *FarmBackend) applyOutagesLocked() {
	n := fb.routed
	for _, s := range fb.shards {
		was := s.schedDown
		s.schedDown = false
		for _, o := range fb.opts.Outages {
			if o.Target == s.idx && o.From <= n && n < o.To {
				s.schedDown = true
				break
			}
		}
		if was && !s.schedDown {
			s.cache.entries.clear()
		}
	}
}

// probeLocked lets the breaker re-admit recovered remote shards.
func (fb *FarmBackend) probeLocked(vnow uint64) {
	for _, s := range fb.shards {
		if s.link == nil || !s.brkOpen || !s.brk.ShouldProbe(vnow) {
			continue
		}
		s.brk.ProbeSent(vnow)
		fb.billLocked(1)
		if err := s.link.Ping(); err == nil {
			s.brk.ProbeOK(vnow)
			s.brkOpen = false
		} else {
			s.brk.NoteFailure(vnow)
		}
	}
}

// rank orders the shards by rendezvous (highest-random-weight) hash of
// (shard, fingerprint): each fingerprint gets its own stable preference
// order over the shards, so losing one shard reroutes only that shard's
// keys and no others move (consistent hashing without a ring table).
func (fb *FarmBackend) rank(fingerprint string) []int {
	// FNV-1a over the fingerprint, then one splitmix round per shard.
	h := fault.HashString(fingerprint)
	type sw struct {
		idx int
		w   uint64
	}
	ws := make([]sw, len(fb.shards))
	for i := range fb.shards {
		r := fault.SplitMix(h ^ (uint64(i+1) * 0x9e3779b97f4a7c15))
		ws[i] = sw{idx: i, w: r.Next()}
	}
	sort.Slice(ws, func(a, b int) bool {
		if ws[a].w != ws[b].w {
			return ws[a].w > ws[b].w
		}
		return ws[a].idx < ws[b].idx
	})
	order := make([]int, len(ws))
	for i, w := range ws {
		order[i] = w.idx
	}
	return order
}

// commit commits the job's routing decision, in strict submission
// order. It picks the acting home (first live shard in rendezvous
// order), steals to the idlest live shard when the home queue is full,
// sheds with ErrOverloaded when every live queue is full, and fails with
// ErrShardUnavailable when no shard is live.
func (r *farmRoute) commit(submitPs uint64, fingerprint string) error {
	fb := r.fb
	fb.mu.Lock()
	defer fb.mu.Unlock()
	for fb.nextRoute != r.seq {
		fb.cond.Wait()
	}
	defer func() {
		fb.nextRoute++
		fb.cond.Broadcast()
	}()
	fb.applySettlesLocked(r.esq)
	fb.applyOutagesLocked()
	fb.probeLocked(submitPs)
	fb.routed++
	fb.stats.Routed = fb.routed
	fb.billLocked(2) // compile-submit + compile-status

	order := fb.rank(fingerprint)
	live := make([]bool, len(fb.shards))
	for i, s := range fb.shards {
		live[i] = !s.down()
	}
	home := -1
	for _, idx := range order {
		if live[idx] {
			home = idx
			break
		}
	}
	if home < 0 {
		fb.unavailable.Inc()
		return fmt.Errorf("toolchain: %w: all %d compile shards down", ErrShardUnavailable, len(fb.shards))
	}
	if home != order[0] {
		fb.rerouted.Inc()
	}
	exec := home
	if fb.shards[home].depth >= fb.opts.QueueDepth {
		// Job-steal: the idlest live shard takes the work (lowest index
		// breaks ties, so the choice is deterministic).
		best, bestDepth := -1, fb.opts.QueueDepth
		for idx, s := range fb.shards {
			if live[idx] && s.depth < bestDepth {
				best, bestDepth = idx, s.depth
			}
		}
		if best < 0 {
			fb.shed.Inc()
			return fmt.Errorf("toolchain: %w: every compile shard queue at its bound (%d)", ErrOverloaded, fb.opts.QueueDepth)
		}
		exec = best
		fb.stolen.Inc()
		fb.billLocked(1) // steal handoff
	}
	s := fb.shards[exec]
	s.depth++
	fb.gDepth[exec].Set(int64(s.depth))
	r.shard, r.home, r.order, r.live = exec, home, order, live
	return nil
}

// skip consumes the job's turnstile slot without a decision — jobs that
// die before routing (dead context, synthesis error) must still pass
// the turnstile or every later submission would wait forever.
func (r *farmRoute) skip() {
	if r == nil {
		return
	}
	fb := r.fb
	fb.mu.Lock()
	for fb.nextRoute != r.seq {
		fb.cond.Wait()
	}
	fb.nextRoute++
	fb.cond.Broadcast()
	fb.mu.Unlock()
}

// compile runs the back half of one flow on the shard commit picked. An
// in-process shard serves it from the acting home's stack — the code a
// local flow runs — widened by two farm-side steps: after the home's
// memory tier misses, the memory tiers of the shards live at route time
// are scanned in this fingerprint's rendezvous order (a peer hit bills
// one cache-hit latency, like any memory hit — which is what keeps
// invariant 15), and outcomes are inserted replicated. A non-nil error
// means the farm itself could not serve the request (no shard
// reachable) — not a verdict on the design.
func (r *farmRoute) compile(req ShardSubmit, dev *fpga.Device) (ShardOutcome, Stats, error) {
	fb := r.fb
	if fb.shards[r.shard].link != nil {
		return r.remoteCompile(req)
	}
	exec, home := fb.shards[r.shard], fb.shards[r.home]
	// A shard is one compile machine: it executes one back half at a
	// time, whichever shard's queue the job sits in.
	exec.busy.Lock()
	defer exec.busy.Unlock()

	out, flow := home.cache.serve(req, dev, farmHooks{
		peer: func() (ShardOutcome, bool) {
			// Adopting the peer's live entry (the same pointer) makes the
			// home a replica holder from now on — and lets a later publish
			// reach every holder at once.
			for _, idx := range r.order {
				if idx == r.home || !r.live[idx] {
					continue
				}
				p := &fb.shards[idx].cache.entries
				if out, ok := p.lookup(req.Key, req.SubmitPs, req.BackoffPs, fb.t.hitLatency()); ok {
					out.HitSource = HitPeer
					home.cache.entries.adopt(req.Key, p.get(req.Key))
					fb.mu.Lock()
					fb.peerHits.Inc()
					fb.billLocked(1) // cache-fetch
					fb.mu.Unlock()
					return out, true
				}
			}
			return ShardOutcome{}, false
		},
		insert: func(out ShardOutcome, published bool) {
			if !published && out.FlowErr == "" && fb.opts.PnRWallNs > 0 {
				// The modelled CAD flow's real CPU burn (bench realism);
				// the virtual bill is untouched.
				time.Sleep(time.Duration(fb.opts.PnRWallNs) * time.Nanosecond)
			}
			r.insertReplicated(req, out, published)
		},
	})
	return out, flow, nil
}

// insertReplicated lands a flow outcome on the acting home and adopts
// the same entry onto the next Replicas-1 live shards in rendezvous
// order, so the bitstream (and any join against it) survives the death
// of all but one holder.
func (r *farmRoute) insertReplicated(req ShardSubmit, out ShardOutcome, published bool) {
	fb := r.fb
	entry := fb.shards[r.home].cache.entries.insert(req.Key, out, published, req.SubmitPs)
	placed := 1
	for _, idx := range r.order {
		if placed >= fb.opts.Replicas {
			break
		}
		if idx == r.home || !r.live[idx] {
			continue
		}
		fb.shards[idx].cache.entries.adopt(req.Key, entry)
		placed++
	}
	fb.mu.Lock()
	fb.stats.Replicated += uint64(placed - 1)
	fb.billLocked(uint64(placed - 1)) // cache-put per replica
	fb.keyHome[req.Key] = r.home
	fb.mu.Unlock()
}

// remoteCompile ships the flow to the routed worker, failing over
// through the fingerprint's rendezvous order when shards die mid-call;
// failures feed the per-shard breaker (a dead shard is treated like a
// dead engine: reroute, don't strand). The submitter's cache-outcome
// counters come from the outcome's HitSource; the disk counters stay on
// the worker's own ledger, where the disk is.
func (r *farmRoute) remoteCompile(req ShardSubmit) (ShardOutcome, Stats, error) {
	fb := r.fb
	tried := map[int]bool{}
	for _, idx := range append([]int{r.shard}, r.order...) {
		if tried[idx] {
			continue
		}
		tried[idx] = true
		s := fb.shards[idx]
		fb.mu.Lock()
		dead := s.brkOpen
		fb.mu.Unlock()
		if dead && idx != r.shard {
			continue
		}
		out, err := s.link.Submit(req)
		fb.mu.Lock()
		if err != nil {
			if _, to := s.brk.NoteFailure(req.SubmitPs); to == supervise.Open {
				s.brkOpen = true
			}
			if idx == r.shard {
				// The routed shard died mid-call: the job is rerouted
				// (once, however many replicas it then falls through).
				fb.rerouted.Inc()
			}
			fb.mu.Unlock()
			continue
		}
		if _, to := s.brk.ProbeOK(req.SubmitPs); to == supervise.Closed {
			s.brkOpen = false
		}
		if out.HitSource == HitPeer {
			fb.peerHits.Inc()
		}
		fb.billLocked(2)
		fb.keyHome[req.Key] = idx
		fb.mu.Unlock()
		var flow Stats
		flow.countOutcome(out.HitSource)
		return out, flow, nil
	}
	fb.mu.Lock()
	fb.unavailable.Inc()
	fb.mu.Unlock()
	return ShardOutcome{}, Stats{}, fmt.Errorf("toolchain: %w: no compile shard of %d answered for %s",
		ErrShardUnavailable, len(fb.shards), req.Name)
}

// Publish marks a key's bitstream as delivered (the submission was
// observed ready in virtual time): identical submissions hit the cache
// outright from then on, on any clock. In-process, publishing the
// shared entry on any holder publishes every replica; remote, the home
// worker is told (best-effort — a missed publish only costs a join
// instead of an outright hit after a cold restart).
func (fb *FarmBackend) Publish(key string) {
	fb.mu.Lock()
	home, known := fb.keyHome[key]
	remote := len(fb.opts.Links) > 0
	fb.billLocked(1)
	fb.mu.Unlock()
	if remote {
		if known {
			fb.shards[home].link.Publish(key)
		}
		return
	}
	for _, s := range fb.shards {
		s.cache.entries.publish(key)
	}
}

// Close releases remote links.
func (fb *FarmBackend) Close() error {
	var first error
	for _, l := range fb.opts.Links {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
