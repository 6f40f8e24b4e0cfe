package toolchain

import (
	"context"
	"fmt"
	"sync/atomic"

	"cascade/internal/elab"
	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/obsv"
)

// Multi-tenant job service (cascade-engined's sessions): one Toolchain
// serves N tenants, each registered with its own fair-share slice of the
// worker pool, its own device (its fabric partition) for fit and timing
// checks, and its own stats mirror. Tenancy is an isolation contract:
//
//   - only the default tenant's jobs consult the fault injector and the
//     observer (SetFaults, SetObserver), so a fault schedule never
//     perturbs a session's compiles;
//   - cache keys are namespaced per tenant, so one tenant's earlier
//     compile never turns another tenant's first compile into a cache
//     hit — every tenant's JIT timeline is byte-identical to the same
//     program run against a private toolchain (the shared cache trades
//     cross-tenant hit throughput for that determinism);
//   - fit and timing close against the tenant's partition, not the
//     whole shared fabric;
//   - per-tenant stats mirror exactly what a private toolchain's global
//     counters would read.
//
// The empty tenant ID "" is the default tenant, a record like any other
// that New creates over the toolchain's own device: the single-user case
// (Submit, SetFaults, SetObserver, Stats) is N = 1, not a second code
// path. It has no fair-share bound and keeps bare cache keys, so the
// disk-store layout of a single-tenant process is unchanged.

// tenant is one consumer of a shared toolchain: the scope a flow runs
// under. Every field after id is guarded by t.mu.
type tenant struct {
	t      *Toolchain
	id     string
	sem    chan struct{} // fair-share compile slots (nil: global pool only)
	dev    *fpga.Device  // fit/timing target (its fabric partition)
	faults *fault.Injector
	obs    *obsv.Observer
	stats  Stats
	// discarded: cancelled jobs whose flows are not banked yet (Job.flow);
	// owed mirrors len(discarded) > 0 for lock-free readers (a pointer,
	// so snapshot copies the record).
	discarded []*Job
	owed      *atomic.Bool
}

// tenant returns the record for id, lazily creating one for IDs that
// were never explicitly registered (they get cache isolation and stats,
// but no quota or private device until RegisterTenant says otherwise).
func (t *Toolchain) tenant(id string) *tenant {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tenantLocked(id)
}

// tenantLocked is tenant for callers that hold t.mu.
func (t *Toolchain) tenantLocked(id string) *tenant {
	tn, ok := t.tenants[id]
	if !ok {
		tn = &tenant{t: t, id: id, dev: t.dev, owed: new(atomic.Bool)}
		t.tenants[id] = tn
	}
	return tn
}

// snapshot copies the record under the lock: how flows read the scope's
// settable state (device, injector, observer, fair-share slots).
func (tn *tenant) snapshot() tenant {
	tn.t.mu.Lock()
	defer tn.t.mu.Unlock()
	return *tn
}

// bank adds a flow's counters to the tenant's stats mirror and moves the
// tenant observer's cache series with them: the one increment site of
// cascade_compile_cache_hits_total (CacheHits + Joined) and
// cascade_compile_cache_misses_total, so Stats and /metrics count the
// same flows whichever goroutine served them.
func (tn *tenant) bank(flow Stats) {
	tn.t.mu.Lock()
	defer tn.t.mu.Unlock()
	tn.stats.add(flow)
	if o := tn.obs; o != nil {
		o.CacheHits.Add(uint64(flow.CacheHits + flow.Joined))
		o.CacheMisses.Add(uint64(flow.CacheMisses))
	}
}

// discard queues a cancelled job for banking at the owner's next
// observation; takeDiscarded hands the queue over.
func (tn *tenant) discard(j *Job) {
	tn.t.mu.Lock()
	tn.discarded = append(tn.discarded, j)
	tn.owed.Store(true)
	tn.t.mu.Unlock()
}

func (tn *tenant) takeDiscarded() []*Job {
	tn.t.mu.Lock()
	js := tn.discarded
	tn.discarded = nil
	tn.owed.Store(false)
	tn.t.mu.Unlock()
	return js
}

// cacheKey namespaces a content-addressed key per tenant. The default
// tenant keeps the bare key (and so the disk-store layout) unchanged.
func (tn *tenant) cacheKey(base string) string {
	if tn.id == "" {
		return base
	}
	return "tenant=" + tn.id + "|" + base
}

// acquire takes the tenant's fair-share slot (when bounded) and then a
// global worker slot, in that order — a tenant at its share must not
// camp on a global worker while it waits for its own quota. It returns
// the tenant slot it holds (nil when unbounded) for release, and false
// when ctx is cancelled before both slots are held.
func (tn *tenant) acquire(ctx context.Context) (chan struct{}, bool) {
	tsem := tn.snapshot().sem
	if tsem != nil {
		select {
		case <-ctx.Done():
			return nil, false
		case tsem <- struct{}{}:
		}
	}
	select {
	case <-ctx.Done():
		if tsem != nil {
			<-tsem
		}
		return nil, false
	case tn.t.sem <- struct{}{}:
	}
	return tsem, true
}

// release returns the slots acquire took, in reverse order.
func (tn *tenant) release(tsem chan struct{}) {
	<-tn.t.sem
	if tsem != nil {
		<-tsem
	}
}

// RegisterTenant registers (or re-configures) tenant id on the shared
// job service. workers bounds how many of the tenant's compilations may
// occupy workers concurrently — its fair share of the pool; 0 or
// negative leaves the tenant bounded only by the global pool. dev, when
// non-nil, is the device the tenant's flows check fit and timing
// against (the tenant's fabric partition) instead of the toolchain's
// own. Re-registering keeps the tenant's counters. Do not shrink or
// grow workers while the tenant has jobs in flight. The default tenant
// "" is fixed (the toolchain's device, the whole pool).
func (t *Toolchain) RegisterTenant(id string, workers int, dev *fpga.Device) {
	if id == "" {
		return
	}
	if dev == nil {
		dev = t.dev
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tn := t.tenantLocked(id)
	tn.dev = dev
	if workers > 0 {
		if tn.sem == nil || cap(tn.sem) != workers {
			tn.sem = make(chan struct{}, workers)
		}
	} else {
		tn.sem = nil
	}
}

// UnregisterTenant removes a tenant's registration. Jobs already
// submitted keep their snapshot of the tenant's state; the tenant's
// cache entries stay cached (a future re-registration of the same id
// finds its bitstreams published).
func (t *Toolchain) UnregisterTenant(id string) {
	if id == "" {
		return
	}
	t.mu.Lock()
	delete(t.tenants, id)
	t.mu.Unlock()
}

// SetFaults installs the default tenant's fault injector: only jobs
// submitted under "" consult it — a session tenant's compiles run
// fault-free, so one client's fault schedule never perturbs another's.
// Call before submitting work.
func (t *Toolchain) SetFaults(in *fault.Injector) {
	t.mu.Lock()
	t.tenantLocked("").faults = in
	t.mu.Unlock()
}

// SetObserver installs the default tenant's observability hub
// (internal/obsv): the job service traces its compile submissions, cache
// outcomes, and completions into it, and records each flow's billed
// virtual latency. Jobs run on worker goroutines, so every event is
// stamped with job virtual times via EmitAt — the workers never touch a
// live virtual clock. Nil (the default) disables instrumentation.
func (t *Toolchain) SetObserver(o *obsv.Observer) {
	t.mu.Lock()
	t.tenantLocked("").obs = o
	t.mu.Unlock()
}

// StatsFor snapshots one tenant's job-service counters. The counters
// mirror exactly what a private toolchain's Stats would read for the
// same submission sequence; an unknown tenant reads zero.
func (t *Toolchain) StatsFor(id string) Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tn, ok := t.tenants[id]; ok {
		return tn.stats
	}
	return Stats{}
}

// Stats is StatsFor the default tenant.
func (t *Toolchain) Stats() Stats { return t.StatsFor("") }

// Submit starts a background compilation of f for the default tenant at
// virtual time nowPs (SubmitDesign, over a fresh record).
func (t *Toolchain) Submit(ctx context.Context, f *elab.Flat, wrapped bool, nowPs uint64) *Job {
	return t.SubmitDesign(ctx, "", NewDesign(f), wrapped, false, nowPs)
}

// SubmitDesign starts a background compilation of d at virtual time
// nowPs, scoped to a tenant: the job draws on the tenant's fair-share
// worker quota, consults the tenant's fault injector and observer, checks
// fit and timing against the tenant's device, counts into the tenant's
// stats mirror, and caches under the tenant's namespace. The call returns
// immediately; the job runs on the service's worker pool and its result
// becomes visible once it has compiled and the caller's virtual clock
// passes its ready time. Cancelling ctx aborts the job if it has not yet
// reached a worker; Job.Cancel discards the result of an obsolete job at
// any point. A submitter that keeps its design's record shares one
// synthesis and one hash among every flow it submits over d, first or
// resubmitted.
//
// A native flow (wrapped is ignored) runs synthesis as usual, but its
// back half targets closure-threaded Go instead of the fabric — no fit or
// timing models, no disk store, and a latency bill in virtual
// milliseconds rather than minutes. The artifact caches under its own
// tier key, so native and fabric flows over the same netlist never
// collide. Native jobs never farm out: the artifact is in-process Go that
// cannot be shipped from a shard, and its virtual latency is milliseconds
// — there is nothing to farm out.
func (t *Toolchain) SubmitDesign(ctx context.Context, tenantID string, d *Design, wrapped, native bool, nowPs uint64) *Job {
	if ctx == nil {
		ctx = context.Background()
	}
	jctx, abort := context.WithCancel(ctx)
	j := &Job{t: t, name: d.Flat.Name, native: native, submitPs: nowPs, done: make(chan struct{}), abort: abort}
	t.mu.Lock()
	j.tn = t.tenantLocked(tenantID)
	j.tn.stats.Submitted++
	farm := t.farm
	// Admission control: with MaxQueue set, a submission arriving while
	// that many are already in flight is shed — it completes instantly
	// (in virtual terms, at cache-hit latency) with ErrOverloaded, and
	// the caller's JIT loop backs off and resubmits. In-flight means
	// "not yet observed ready on the virtual clock", so the decision is
	// a pure function of the submission/observation order the virtual
	// timeline dictates and replays deterministically.
	if t.opts.MaxQueue > 0 {
		if n := t.inflight; n >= t.opts.MaxQueue {
			j.tn.stats.Shed++
			t.mu.Unlock()
			abort()
			j.settled = true
			j.complete(&Result{
				Err:        fmt.Errorf("toolchain: %w: %d compiles in flight (max %d)", ErrOverloaded, n, t.opts.MaxQueue),
				DurationPs: t.hitLatency(),
			}, "")
			close(j.done)
			return j
		}
		t.inflight++
		j.tracked = true
	}
	t.mu.Unlock()
	// Fabric submissions on a compile farm are stamped into the farm's
	// event order here, on the submitting thread — the stamp order IS
	// the deterministic submission order the route turnstile replays.
	if farm != nil && !native {
		j.route = farm.noteSubmit()
	}
	detail := fmt.Sprintf("wrapped=%v", wrapped)
	if native {
		detail = "tier=native"
	}
	j.tn.snapshot().obs.EmitAt(nowPs, obsv.EvCompileSubmit, d.Flat.Name, detail)
	go j.run(jctx, d, wrapped)
	return j
}
