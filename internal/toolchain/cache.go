package toolchain

import (
	"sync"

	"cascade/internal/fpga"
)

// The bitstream cache is layered (DESIGN.md "The compile flow & the
// farm"): the memory tier is a join cache over flow outcomes
// (ShardOutcome, the wire form) — it also mediates "join an in-flight
// flow" semantics — while the durable tiers behind it (disk store, peer
// fetch between compile workers) exchange the outcome's durable
// projection (BitMeta) and are consulted in order through the CacheTier
// interface once a miss has already paid for synthesis. No tier holds a
// netlist: every submitter keeps the one it synthesized, and its Result
// is assembled around that (ShardOutcome.result). One stack holds both
// layers, and stack.serve is the only code that orders them.

// Hit sources, carried in Result.HitSource. The empty string means the
// flow paid for the back half (place-and-route or native codegen).
const (
	HitMemory = "memory" // in-memory bitstream cache, published or past availability
	HitJoined = "joined" // joined an identical flow still in (virtual) flight
	HitDisk   = "disk"   // durable on-disk store (Options.CacheDir)
	HitPeer   = "peer"   // another compile shard's cache (FarmBackend)
)

// BitMeta is the durable record of one successful flow outcome — what
// the disk store persists and what compile shards exchange over the
// wire. Validity (fit, timing) is always re-checked against the live
// device by comparing these numbers to a fresh synthesis; the meta is
// never trusted on its own.
type BitMeta struct {
	Key        string
	AreaLEs    int
	RawAreaLEs int
	CritPath   int
}

// CacheTier is one rung of the durable bitstream-cache chain. Tiers are
// consulted in order after the memory tier misses; the first hit wins
// and is served at cache-hit latency. Store records a freshly built
// bitstream; tiers are accelerators — their failures never fail a flow.
// Both count what they did (DiskWrites, DiskCorrupt) into the calling
// flow's counters, never into a shared ledger.
type CacheTier interface {
	// Name identifies the tier ("disk", "peer") for hit attribution.
	Name() string
	// Lookup returns the recorded outcome for key, if the tier holds a
	// verified entry.
	Lookup(key string, flow *Stats) (BitMeta, bool)
	// Store durably records a successful outcome.
	Store(meta BitMeta, flow *Stats)
}

// lookupTiers consults a tier chain in order; the first hit wins.
func lookupTiers(tiers []CacheTier, key string, flow *Stats) (BitMeta, string, bool) {
	for _, tier := range tiers {
		if meta, ok := tier.Lookup(key, flow); ok {
			return meta, tier.Name(), true
		}
	}
	return BitMeta{}, "", false
}

// storeTiers records a successful outcome into every tier.
func storeTiers(tiers []CacheTier, meta BitMeta, flow *Stats) {
	for _, tier := range tiers {
		tier.Store(meta, flow)
	}
}

// metaMatches reports whether a durable entry's recorded outcome agrees
// with a fresh synthesis against the live device — the staleness guard
// every durable tier is checked through.
func metaMatches(meta BitMeta, out ShardOutcome) bool {
	return meta == out.meta(meta.Key)
}

// cacheEntry is one content-addressed bitstream: the outcome of the flow
// that built it, never the netlist it was built from.
type cacheEntry struct {
	out ShardOutcome
	// availAtPs is the virtual time the originating flow completes on
	// its submitter's clock; a resubmission landing earlier joins that
	// flow instead of restarting it.
	availAtPs uint64
	// published is set once an owning job was observed complete in
	// virtual time (the bitstream was actually delivered); published
	// entries hit regardless of the submitter's clock.
	published bool
}

// entryCache is the memory tier: flow outcomes keyed by content hash,
// with join-in-flight semantics. Each stack owns one.
type entryCache struct {
	mu sync.Mutex
	m  map[string]*cacheEntry
}

// lookup serves a submission from the memory tier. A published entry —
// or one whose originating flow already completed on the submitter's
// clock — hits at cache-hit latency (after any retry backoff the
// submission accrued first); an entry still in (virtual) flight is
// joined: the copy finishes when the original does, but never before
// the submission's own backoff elapsed. The returned outcome is the
// entry's with CacheHit set and HitSource distinguishing the two cases.
func (c *entryCache) lookup(key string, submitPs, backoffPs, hitPs uint64) (ShardOutcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	entry, ok := c.m[key]
	if !ok {
		return ShardOutcome{}, false
	}
	out := entry.out
	if entry.published || submitPs >= entry.availAtPs {
		out.DurationPs = backoffPs + hitPs
		out.HitSource = HitMemory
	} else {
		out.DurationPs = entry.availAtPs - submitPs
		if min := backoffPs + hitPs; out.DurationPs < min {
			out.DurationPs = min
		}
		out.HitSource = HitJoined
	}
	out.CacheHit = true
	return out, true
}

// insert records a flow's outcome under key and returns the entry (so a
// farm can replicate the same pointer onto peer shards).
func (c *entryCache) insert(key string, out ShardOutcome, published bool, submitPs uint64) *cacheEntry {
	entry := &cacheEntry{out: out, availAtPs: submitPs + out.DurationPs, published: published}
	c.mu.Lock()
	c.m[key] = entry
	c.mu.Unlock()
	return entry
}

// adopt shares an existing entry under key (farm replication: the same
// *cacheEntry lives in several shards' maps, so a join — and a later
// publish — survives any single shard's death).
func (c *entryCache) adopt(key string, entry *cacheEntry) {
	c.mu.Lock()
	c.m[key] = entry
	c.mu.Unlock()
}

// get returns the live entry for key (nil when absent).
func (c *entryCache) get(key string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[key]
}

// publish marks key's bitstream as delivered: from then on identical
// submissions hit outright, on any clock. Publishing a shared entry
// publishes it on every shard that adopted it.
func (c *entryCache) publish(key string) {
	c.mu.Lock()
	if entry, ok := c.m[key]; ok {
		entry.published = true
	}
	c.mu.Unlock()
}

// clear drops every entry — a restarted shard comes back with cold
// memory (its durable tiers are unaffected).
func (c *entryCache) clear() {
	c.mu.Lock()
	c.m = map[string]*cacheEntry{}
	c.mu.Unlock()
}

// stack is one cache stack: the memory join cache in front of a durable
// tier chain, over the toolchain whose model prices a miss. The
// toolchain owns one, each in-process farm shard owns one (sharing the
// toolchain's disk store), and a Worker wraps one.
type stack struct {
	t       *Toolchain
	entries entryCache
	tiers   []CacheTier
}

// newStack builds a stack over t's model and disk store.
func newStack(t *Toolchain) *stack {
	return &stack{
		t:       t,
		entries: entryCache{m: map[string]*cacheEntry{}},
		tiers:   []CacheTier{diskTier{dir: t.opts.CacheDir}},
	}
}

// farmHooks are the two steps of serve a compile farm widens beyond one
// stack; both are nil everywhere else. peer consults the other shards'
// memory tiers once this stack's missed; insert lands an outcome on this
// stack and its replicas instead of this stack alone.
type farmHooks struct {
	peer   func() (ShardOutcome, bool)
	insert func(out ShardOutcome, published bool)
}

// serve runs the back half of one flow — the only place that orders
// memory tier, model, durable tiers, insertion and durable storage. The
// request is the wire form and the only input: the local pool, an
// in-process shard and a daemon worker all make this call, with dev the
// device fit and timing close against (the submitting tenant's
// partition, or a worker's own). The returned outcome's DurationPs is
// the flow's total bill including req.BackoffPs; the returned counters
// (cache outcome, disk writes and rejected entries) are the flow's own,
// for the caller to bank with the rest of Job.flow.
func (s *stack) serve(req ShardSubmit, dev *fpga.Device, farm farmHooks) (ShardOutcome, Stats) {
	var flow Stats
	hitPs := s.t.hitLatency()
	out, ok := s.entries.lookup(req.Key, req.SubmitPs, req.BackoffPs, hitPs)
	if !ok && farm.peer != nil {
		out, ok = farm.peer()
	}
	if ok {
		flow.countOutcome(out.HitSource)
		return out, flow
	}

	// Apply the model, then consult the durable tiers. A verified entry
	// whose recorded outcome matches this synthesis — and which still
	// fits the live device — means the bitstream was fully built by an
	// earlier process: serve it at cache-hit latency. Anything less
	// (corrupt, stale, new device) pays for place-and-route as usual. The
	// native tier skips the durable tiers both ways: its artifact is
	// rebuilt from the netlist in negligible wall-clock time, so
	// persistence buys nothing.
	out = s.t.model(dev, req)
	durable := !req.native
	if durable {
		meta, src, found := lookupTiers(s.tiers, req.Key, &flow)
		if found && out.FlowErr == "" && metaMatches(meta, out) {
			out.DurationPs = hitPs
			out.CacheHit = true
			out.HitSource = src
		}
	}
	out.DurationPs += req.BackoffPs
	if farm.insert != nil {
		farm.insert(out, out.CacheHit)
	} else {
		s.entries.insert(req.Key, out, out.CacheHit, req.SubmitPs)
	}
	if durable && !out.CacheHit && out.FlowErr == "" {
		storeTiers(s.tiers, out.meta(req.Key), &flow)
	}
	flow.countOutcome(out.HitSource)
	return out, flow
}
