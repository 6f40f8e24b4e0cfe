package toolchain

// Worker is the worker side of a compile-farm shard: what a
// cascade-engined daemon started with -compile-worker hosts. It owns
// one shard's cache stack — a memory join cache, the durable disk tier
// (the daemon's CacheDir), and an optional peer-fetch tier wired to
// sibling workers — and reproduces the back half of a compile flow from
// a shipped netlist summary: clients never ship source, and the worker
// never re-synthesizes. A cold client process whose farm reaches a warm
// worker gets its bitstream at network-cache-hit latency — the paper's
// "standby" experience without any local state.
type Worker struct {
	t     *Toolchain
	cache *stack
}

// NewWorker builds the worker service over a toolchain (whose device,
// latency model, and CacheDir define this shard's behaviour).
func NewWorker(t *Toolchain) *Worker {
	return &Worker{t: t, cache: newStack(t)}
}

// disk is the durable tier this shard owns (its stack's first rung).
func (w *Worker) disk() CacheTier { return w.cache.tiers[0] }

// SetPeerTier installs a peer-fetch cache tier behind the disk store —
// the worker consults sibling workers before paying for place-and-route.
// Peers are fetch-only: a worker never writes through to them. Only
// Compile consults peers; Fetch answers from this shard's own state, so
// mutually peered workers never chase a miss around the ring.
func (w *Worker) SetPeerTier(lookup func(key string) (BitMeta, bool)) {
	w.cache.tiers = []CacheTier{w.disk(), &funcTier{lookup: lookup}}
}

// funcTier adapts the peer lookup callback to a read-only CacheTier (the
// transport wires peer workers through it without the toolchain
// importing the transport).
type funcTier struct {
	lookup func(key string) (BitMeta, bool)
}

func (f *funcTier) Name() string                                { return HitPeer }
func (f *funcTier) Lookup(key string, _ *Stats) (BitMeta, bool) { return f.lookup(key) }
func (f *funcTier) Store(BitMeta, *Stats)                       {}

// Compile serves one compile-submit: stack.serve on this shard's stack
// against the worker's device — the call a local flow makes, over the
// shipped netlist summary. The client assembles its Result around its
// own synthesized program. The flow's counters land on the worker
// toolchain's own ledger; the submitter counts its side from the
// outcome's HitSource.
func (w *Worker) Compile(spec ShardSubmit) ShardOutcome {
	out, flow := w.cache.serve(spec, w.t.dev, farmHooks{})
	w.bank(flow)
	return out
}

// bank adds counters to the worker toolchain's own (default-tenant)
// ledger, and so to the daemon's cache series.
func (w *Worker) bank(flow Stats) {
	w.t.tenant("").bank(flow)
}

// Fetch serves a peer cache-fetch: whether this worker itself holds a
// verified outcome for key (memory or durable tier), without running any
// model. Peers are deliberately not consulted, so a sibling's
// cache-fetch never fans back out across the ring; the asking shard
// re-checks validity against its own synthesis, like every durable-tier
// consumer.
func (w *Worker) Fetch(key string) (BitMeta, bool) {
	if entry := w.cache.entries.get(key); entry != nil && entry.out.FlowErr == "" {
		return entry.out.meta(key), true
	}
	var flow Stats
	meta, ok := w.disk().Lookup(key, &flow)
	w.bank(flow)
	return meta, ok
}

// Publish marks the key's memory entry delivered, so identical
// submissions hit outright on any clock.
func (w *Worker) Publish(key string) { w.cache.entries.publish(key) }
