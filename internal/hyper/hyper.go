// Package hyper is Cascade's hypervisor: one shared FPGA and one shared
// vendor-toolchain job service, virtualized across N tenant sessions.
// The paper's runtime assumes one developer per device; hyper is the
// "millions of users" direction (SYNERGY) — the fabric is spatially
// partitioned into per-tenant regions, tenants whose regions do not all
// fit at once are time-multiplexed through a FIFO residency queue, and
// the compile pool is split by per-tenant fair-share quotas.
//
// The load-bearing invariant is *virtual-time isolation*: scheduling —
// which tenant is resident, who waits for a compile worker — only ever
// costs wall-clock time. Every tenant's virtual clock, observable
// output stream, and JIT phase trajectory is byte-identical to the same
// program run alone in a single-tenant runtime (the property test in
// isolation_test.go proves this against solo baselines, faults
// included). The pieces that make it true:
//
//   - each session's Runtime owns a *private* device sized to its
//     region quota, so placement, fit, and timing decisions never see
//     another tenant;
//   - every submitter of the shared Toolchain is a tenant record
//     (toolchain.Toolchain.SubmitDesign; internal/toolchain/tenant.go)
//     holding its own faults, observer, stats, and cache-key namespace —
//     a neighbour's warmed cache or seeded fault schedule cannot alter a
//     tenant's compile timeline;
//   - job readiness is purely virtual (readyAt = submit + duration), so
//     fair-share queueing delays only wall time;
//   - losing residency parks the session between quanta without
//     touching its runtime — no state moves, no virtual time passes.
package hyper

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"cascade/internal/fpga"
	"cascade/internal/obsv"
	"cascade/internal/runtime"
	"cascade/internal/toolchain"
)

// ErrClosed is returned by operations on a closed hypervisor or session.
var ErrClosed = errors.New("hyper: closed")

// Options configures a hypervisor. The zero value serves a fresh
// Cyclone V with a default toolchain, 64-tick scheduling quanta, and
// quarter-fabric default session quotas.
type Options struct {
	// Device is the shared fabric all tenant regions are carved from
	// (default: a fresh Cyclone V).
	Device *fpga.Device
	// Toolchain is the shared compile service (default: a standard
	// model over Device). Tenants are registered on it with their
	// fair-share quotas; the bitstream cache is shared storage but
	// namespaced per tenant.
	Toolchain *toolchain.Toolchain
	// ToolchainOptions tunes the default toolchain when Toolchain is
	// nil (ignored otherwise).
	ToolchainOptions *toolchain.Options
	// QuantumTicks is the time-multiplexing quantum: a session holds
	// fabric residency for at most this many virtual clock ticks before
	// yielding to waiting tenants. Default 64.
	QuantumTicks uint64
	// DefaultQuotaLEs is the region size sessions get when they do not
	// ask for one. Default: a quarter of the shared fabric.
	DefaultQuotaLEs int
	// DefaultCompileShare bounds each session's concurrent compile
	// workers when the session does not ask; 0 leaves sessions bounded
	// only by the global pool.
	DefaultCompileShare int
	// Observer receives hypervisor-level metrics: active-session count,
	// per-tenant residency gauges, and per-tenant quantum counters
	// (labeled series). Sessions carry their own observers for their
	// own pipelines; nil disables hypervisor metrics.
	Observer *obsv.Observer
}

// Option configures a hypervisor (hyper.New / cascade.Serve).
type Option func(*Options)

// WithDevice serves the given shared fabric instead of a fresh
// Cyclone V.
func WithDevice(d *fpga.Device) Option {
	return func(o *Options) { o.Device = d }
}

// WithToolchain shares an existing compile service instead of building
// one over the device.
func WithToolchain(tc *toolchain.Toolchain) Option {
	return func(o *Options) { o.Toolchain = tc }
}

// WithToolchainOptions tunes the toolchain the hypervisor builds when
// none is supplied.
func WithToolchainOptions(to toolchain.Options) Option {
	return func(o *Options) { o.ToolchainOptions = &to }
}

// WithQuantum sets the time-multiplexing quantum in virtual clock ticks
// (default 64).
func WithQuantum(ticks uint64) Option {
	return func(o *Options) { o.QuantumTicks = ticks }
}

// WithDefaultQuota sets the region size sessions get when they do not
// specify one (default: a quarter of the fabric).
func WithDefaultQuota(les int) Option {
	return func(o *Options) { o.DefaultQuotaLEs = les }
}

// WithDefaultCompileShare sets the default per-session bound on
// concurrent compile workers (default 0: global pool only).
func WithDefaultCompileShare(n int) Option {
	return func(o *Options) { o.DefaultCompileShare = n }
}

// WithObserver wires hypervisor-level metrics into an observability hub.
func WithObserver(ob *obsv.Observer) Option {
	return func(o *Options) { o.Observer = ob }
}

// Hypervisor owns one shared device and toolchain and hosts N tenant
// sessions over them.
type Hypervisor struct {
	opts Options
	dev  *fpga.Device
	tc   *toolchain.Toolchain

	mu       sync.Mutex
	cond     *sync.Cond
	nextID   int
	sessions map[string]*Session
	queue    []*Session // residency waiters, FIFO
	closed   bool

	obs       *obsv.Observer
	active    *obsv.Gauge
	residentG map[string]*obsv.Gauge   // per-tenant residency, cached across id reuse
	quantaC   map[string]*obsv.Counter // per-tenant quanta, cached across id reuse
}

// New builds a hypervisor.
func New(opts ...Option) (*Hypervisor, error) {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	if o.Device == nil {
		o.Device = fpga.NewCycloneV()
	}
	if o.Toolchain == nil {
		to := toolchain.DefaultOptions()
		if o.ToolchainOptions != nil {
			to = *o.ToolchainOptions
		}
		o.Toolchain = toolchain.New(o.Device, to)
	}
	if o.QuantumTicks == 0 {
		o.QuantumTicks = 64
	}
	if o.DefaultQuotaLEs <= 0 {
		o.DefaultQuotaLEs = o.Device.Capacity() / 4
	}
	if o.DefaultQuotaLEs <= 0 || o.DefaultQuotaLEs > o.Device.Capacity() {
		return nil, fmt.Errorf("hyper: default quota %d LEs outside device capacity %d",
			o.DefaultQuotaLEs, o.Device.Capacity())
	}
	hv := &Hypervisor{
		opts:      o,
		dev:       o.Device,
		tc:        o.Toolchain,
		sessions:  map[string]*Session{},
		obs:       o.Observer,
		residentG: map[string]*obsv.Gauge{},
		quantaC:   map[string]*obsv.Counter{},
	}
	hv.cond = sync.NewCond(&hv.mu)
	hv.active = o.Observer.NewGauge("cascade_sessions_active", "live hypervisor sessions")
	return hv, nil
}

// Device returns the shared fabric.
func (hv *Hypervisor) Device() *fpga.Device { return hv.dev }

// Toolchain returns the shared compile service.
func (hv *Hypervisor) Toolchain() *toolchain.Toolchain { return hv.tc }

// QuantumTicks returns the time-multiplexing quantum.
func (hv *Hypervisor) QuantumTicks() uint64 { return hv.opts.QuantumTicks }

// SessionCount returns the number of live sessions.
func (hv *Hypervisor) SessionCount() int {
	hv.mu.Lock()
	defer hv.mu.Unlock()
	return len(hv.sessions)
}

// SessionInfo is one live session's scheduling view, for tooling (the
// REPL's :sessions).
type SessionInfo struct {
	ID           string
	Phase        runtime.Phase
	QuotaLEs     int // region size on the shared fabric
	Resident     bool
	CompileShare int    // fair-share compile-worker bound (0: global pool)
	Quanta       uint64 // residency quanta consumed so far
	Ticks        uint64
}

// SessionInfos snapshots every live session, sorted by ID.
func (hv *Hypervisor) SessionInfos() []SessionInfo {
	hv.mu.Lock()
	ss := make([]*Session, 0, len(hv.sessions))
	for _, s := range hv.sessions {
		ss = append(ss, s)
	}
	hv.mu.Unlock()
	sort.Slice(ss, func(i, j int) bool { return ss[i].id < ss[j].id })
	infos := make([]SessionInfo, 0, len(ss))
	for _, s := range ss {
		infos = append(infos, s.Info())
	}
	return infos
}

// Session looks up a live session by ID (nil when absent).
func (hv *Hypervisor) Session(id string) *Session {
	hv.mu.Lock()
	defer hv.mu.Unlock()
	return hv.sessions[id]
}

// Close shuts every session down and closes the hypervisor. New
// sessions are refused afterwards.
func (hv *Hypervisor) Close() error {
	hv.mu.Lock()
	hv.closed = true
	ss := make([]*Session, 0, len(hv.sessions))
	for _, s := range hv.sessions {
		ss = append(ss, s)
	}
	hv.mu.Unlock()
	var err error
	for _, s := range ss {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// metricsFor returns (creating and caching on first use) the per-tenant
// labeled series for id. The cache survives session close so a reused
// ID does not re-register a duplicate series. Callers hold hv.mu.
func (hv *Hypervisor) metricsFor(id string) (*obsv.Gauge, *obsv.Counter) {
	if hv.obs == nil {
		return nil, nil
	}
	g, ok := hv.residentG[id]
	if !ok {
		g = hv.obs.NewLabeledGauge("cascade_tenant_resident",
			"1 while the tenant's region is placed on the shared fabric",
			map[string]string{"tenant": id})
		hv.residentG[id] = g
	}
	c, ok := hv.quantaC[id]
	if !ok {
		c = hv.obs.NewLabeledCounter("cascade_tenant_quanta_total",
			"fabric residency quanta granted to the tenant",
			map[string]string{"tenant": id})
		hv.quantaC[id] = c
	}
	return g, c
}

// reapIdleLocked releases the shared-fabric regions of sessions that
// are resident but not currently inside a quantum, making room for the
// queue head. Only shared-device bookkeeping moves: the reaped
// session's runtime, private device, and virtual clock are untouched,
// and it re-queues for residency on its next quantum. Callers hold
// hv.mu.
func (hv *Hypervisor) reapIdleLocked() {
	for _, s := range hv.sessions {
		if s.resident && !s.stepping {
			hv.dev.Release(s.region())
			s.resident = false
			s.residentG.Set(0)
		}
	}
}

// removeWaiterLocked drops s from the residency queue. Callers hold
// hv.mu.
func (hv *Hypervisor) removeWaiterLocked(s *Session) {
	for i, w := range hv.queue {
		if w == s {
			hv.queue = append(hv.queue[:i], hv.queue[i+1:]...)
			return
		}
	}
}
