package toolchain

import (
	"context"
	"fmt"
	"sort"

	"cascade/internal/elab"
	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/obsv"
)

// Multi-tenant job service (the hypervisor direction): one Toolchain can
// be shared by N runtimes, each registered as a tenant with its own
// fair-share slice of the worker pool, its own device (its fabric
// partition) for fit and timing checks, its own fault injector and
// observer, and its own stats mirror. Tenancy is an isolation contract:
//
//   - a tenant's jobs consult only that tenant's fault injector, so one
//     tenant's seeded fault schedule never perturbs another's compiles;
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
// The empty tenant ID "" is the default tenant: its jobs use the
// toolchain's own device, injector, observer, stats, and unprefixed
// cache keys, so single-tenant callers (Submit) are untouched.

// tenant is one registered consumer of a shared toolchain.
type tenant struct {
	id     string
	sem    chan struct{} // fair-share compile slots (nil: global pool only)
	dev    *fpga.Device  // fit/timing target (nil: the toolchain's device)
	faults *fault.Injector
	obs    *obsv.Observer
	stats  Stats
	// discarded: cancelled jobs whose flows are not banked yet (Job.flow).
	discarded []*Job
}

// jobView resolves where one job's faults, observer, device, stats, and
// cache namespace come from: the tenant it was submitted under, or the
// toolchain's own (default-tenant) state when tn is nil.
type jobView struct {
	t  *Toolchain
	tn *tenant
}

// viewFor resolves the view for a tenant ID, lazily creating a tenant
// record for IDs that were never explicitly registered (they get cache
// isolation and stats, but no quota or private device until
// RegisterTenant says otherwise).
func (t *Toolchain) viewFor(id string) jobView {
	if id == "" {
		return jobView{t: t}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return jobView{t: t, tn: t.tenantLocked(id)}
}

// tenantLocked returns (creating if needed) the record for id. Callers
// hold t.mu.
func (t *Toolchain) tenantLocked(id string) *tenant {
	tn := t.tenants[id]
	if tn == nil {
		tn = &tenant{id: id}
		t.tenants[id] = tn
	}
	return tn
}

func (v jobView) device() *fpga.Device {
	if v.tn != nil && v.tn.dev != nil {
		return v.tn.dev
	}
	return v.t.dev
}

func (v jobView) faults() *fault.Injector {
	v.t.mu.Lock()
	defer v.t.mu.Unlock()
	if v.tn != nil {
		return v.tn.faults
	}
	return v.t.faults
}

func (v jobView) observer() *obsv.Observer {
	v.t.mu.Lock()
	defer v.t.mu.Unlock()
	if v.tn != nil {
		return v.tn.obs
	}
	return v.t.obs
}

// ledger returns the job's stats mirror and its queue of cancelled jobs
// awaiting banking: the tenant's, or the toolchain's own for the default
// tenant. Callers hold t.mu.
func (v jobView) ledger() (*Stats, *[]*Job) {
	if v.tn != nil {
		return &v.tn.stats, &v.tn.discarded
	}
	return &v.t.stats, &v.t.discarded
}

// bump applies a counter mutation to the job's stats mirror.
func (v jobView) bump(fn func(*Stats)) {
	v.t.mu.Lock()
	s, _ := v.ledger()
	fn(s)
	v.t.mu.Unlock()
}

// discard queues a cancelled job for banking at the owner's next
// observation; takeDiscarded hands the queue over.
func (v jobView) discard(j *Job) {
	v.t.mu.Lock()
	_, q := v.ledger()
	*q = append(*q, j)
	v.t.mu.Unlock()
}

func (v jobView) takeDiscarded() []*Job {
	v.t.mu.Lock()
	_, q := v.ledger()
	js := *q
	*q = nil
	v.t.mu.Unlock()
	return js
}

// cacheKey namespaces a content-addressed key per tenant. The default
// tenant keeps the bare key (and so the disk-store layout) unchanged.
func (v jobView) cacheKey(base string) string {
	if v.tn == nil {
		return base
	}
	return "tenant=" + v.tn.id + "|" + base
}

// acquire takes the tenant's fair-share slot (when bounded) and then a
// global worker slot, in that order — a tenant at its share must not
// camp on a global worker while it waits for its own quota. It returns
// the tenant slot it holds (nil when unbounded) for release, and false
// when ctx is cancelled before both slots are held.
func (v jobView) acquire(ctx context.Context) (chan struct{}, bool) {
	var tsem chan struct{}
	if v.tn != nil {
		v.t.mu.Lock()
		tsem = v.tn.sem
		v.t.mu.Unlock()
	}
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
	case v.t.sem <- struct{}{}:
	}
	return tsem, true
}

// release returns the slots acquire took, in reverse order.
func (v jobView) release(tsem chan struct{}) {
	<-v.t.sem
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
// grow workers while the tenant has jobs in flight.
func (t *Toolchain) RegisterTenant(id string, workers int, dev *fpga.Device) {
	if id == "" {
		return
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

// SetTenantFaults installs a tenant-scoped fault injector: only jobs
// submitted under id consult it. The toolchain-global injector
// (SetFaults) is never consulted for tenant jobs — one tenant's fault
// schedule must not perturb another's.
func (t *Toolchain) SetTenantFaults(id string, in *fault.Injector) {
	if id == "" {
		t.SetFaults(in)
		return
	}
	t.mu.Lock()
	t.tenantLocked(id).faults = in
	t.mu.Unlock()
}

// SetTenantObserver installs a tenant-scoped observability hub: only
// jobs submitted under id trace into it.
func (t *Toolchain) SetTenantObserver(id string, o *obsv.Observer) {
	if id == "" {
		t.SetObserver(o)
		return
	}
	t.mu.Lock()
	t.tenantLocked(id).obs = o
	t.mu.Unlock()
}

// StatsFor snapshots one tenant's job-service counters. The counters
// mirror exactly what a private toolchain's Stats would read for the
// same submission sequence; "" returns the default tenant's (global)
// counters, i.e. Stats().
func (t *Toolchain) StatsFor(id string) Stats {
	if id == "" {
		return t.Stats()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if tn := t.tenants[id]; tn != nil {
		return tn.stats
	}
	return Stats{}
}

// TenantShare returns a tenant's registered fair-share worker bound (0
// when unbounded or unknown).
func (t *Toolchain) TenantShare(id string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tn := t.tenants[id]; tn != nil && tn.sem != nil {
		return cap(tn.sem)
	}
	return 0
}

// Tenants lists the registered tenant IDs, sorted.
func (t *Toolchain) Tenants() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]string, 0, len(t.tenants))
	for id := range t.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// SubmitTenant is Submit scoped to a tenant: the job draws on the
// tenant's fair-share worker quota, consults the tenant's fault
// injector and observer, checks fit and timing against the tenant's
// device, counts into the tenant's stats mirror, and caches under the
// tenant's namespace. tenantID "" is exactly Submit.
func (t *Toolchain) SubmitTenant(ctx context.Context, tenantID string, f *elab.Flat, wrapped bool, nowPs uint64) *Job {
	return t.submitTenant(ctx, tenantID, f, wrapped, false, nowPs)
}

// SubmitNative starts a background native-tier compilation: synthesis
// runs as usual, but the back half targets closure-threaded Go instead
// of the fabric — no fit or timing models, no disk store, and a latency
// bill in virtual milliseconds rather than minutes. The artifact caches
// under its own tier key, so native and fabric flows over the same
// netlist never collide.
func (t *Toolchain) SubmitNative(ctx context.Context, f *elab.Flat, nowPs uint64) *Job {
	return t.submitTenant(ctx, "", f, false, true, nowPs)
}

// SubmitNativeTenant is SubmitNative scoped to a tenant's quota, stats,
// observer, and cache namespace.
func (t *Toolchain) SubmitNativeTenant(ctx context.Context, tenantID string, f *elab.Flat, nowPs uint64) *Job {
	return t.submitTenant(ctx, tenantID, f, false, true, nowPs)
}

func (t *Toolchain) submitTenant(ctx context.Context, tenantID string, f *elab.Flat, wrapped, native bool, nowPs uint64) *Job {
	if ctx == nil {
		ctx = context.Background()
	}
	jctx, abort := context.WithCancel(ctx)
	j := &Job{t: t, name: f.Name, native: native, submitPs: nowPs, done: make(chan struct{}), abort: abort,
		view: t.viewFor(tenantID)}
	j.view.bump(func(s *Stats) { s.Submitted++ })
	// Admission control: with MaxQueue set, a submission arriving while
	// that many are already in flight is shed — it completes instantly
	// (in virtual terms, at cache-hit latency) with ErrOverloaded, and
	// the caller's JIT loop backs off and resubmits. In-flight means
	// "not yet observed ready on the virtual clock", so the decision is
	// a pure function of the submission/observation order the virtual
	// timeline dictates and replays deterministically.
	if t.opts.MaxQueue > 0 {
		t.mu.Lock()
		if t.inflight >= t.opts.MaxQueue {
			n := t.inflight
			t.mu.Unlock()
			j.view.bump(func(s *Stats) { s.Shed++ })
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
		t.mu.Unlock()
	}
	// Fabric submissions on a compile farm are stamped into the farm's
	// event order here, on the submitting thread — the stamp order IS
	// the deterministic submission order the route turnstile replays.
	// Native jobs never farm out (backendFor), so they are not stamped.
	if !native {
		if fb, ok := t.Backend().(*FarmBackend); ok {
			fb.noteSubmit(j)
		}
	}
	detail := fmt.Sprintf("wrapped=%v", wrapped)
	if native {
		detail = "tier=native"
	}
	j.view.observer().EmitAt(nowPs, obsv.EvCompileSubmit, f.Name, detail)
	go j.run(jctx, f, wrapped)
	return j
}
