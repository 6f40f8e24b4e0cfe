package runtime

import (
	"fmt"

	"cascade/internal/fault"
	"cascade/internal/lifecycle"
	"cascade/internal/supervise"
	"cascade/internal/toolchain"
	"cascade/internal/transport"
	"cascade/internal/vclock"
)

// EngineStat describes one scheduled engine: where it executes, which
// transport its ABI dispatches over, and the transport's cumulative
// counters for this path (carried across the restarts and hot swaps
// that rebuild clients).
type EngineStat struct {
	Path      string
	Location  string // "software" or "hardware"
	Transport string // "local" or "tcp"
	// Tier names the execution rung within the location for in-process
	// engines: "interpreter", "native" (closure-threaded Go), or
	// "fabric". Empty for stdlib peripherals and remote engines (the
	// daemon does not report its internal tier).
	Tier  string
	Xport transport.Stats
}

// Stats is a stable snapshot of the runtime's externally observable
// status: the JIT phase, where each engine lives, the virtual-time
// breakdown, and the compile service's counters. It is the single
// struct tooling (cmd/cascade-bench, the REPL status line) consumes
// instead of reaching into internals.
type Stats struct {
	Phase       Phase
	Steps       uint64
	Ticks       uint64
	Time        vclock.Breakdown
	AreaLEs     int
	Parallelism int
	Finished    bool

	// Engines lists the scheduled engines in schedule order (forwarded
	// stdlib components are absorbed and no longer listed).
	Engines []EngineStat

	// Compile snapshots the toolchain job service (cache hits/misses,
	// joins, cancellations, fault retries); PendingCompiles counts this
	// runtime's in-flight background jobs.
	Compile         toolchain.Stats
	PendingCompiles int

	// HWFaults counts hardware-engine faults the runtime observed;
	// Evictions counts the hardware→software reverse hot-swaps they
	// triggered. Faults snapshots the injector's own counters (zero when
	// running fault-free).
	HWFaults  int
	Evictions int
	Faults    fault.Stats

	// Native-tier counters (Features.NativeTier): in-flight native
	// compilations, native-engine faults observed, and the
	// native→interpreter demotions they triggered.
	PendingNative int
	NativeFaults  int
	Demotions     int

	// Persist counts the crash-safe persistence layer's work (journal
	// records, checkpoints, bytes, replay); Enabled is false on
	// runtimes without persistence.
	Persist PersistStats

	// Remote reports the shared daemon connection ("" when engines run
	// in-process); Xport sums the transport counters across every
	// scheduled engine, retired clients included.
	Remote string
	Xport  transport.Stats

	// Supervise snapshots the self-healing supervisor — breaker state,
	// probes, trips, failovers, re-hosts (Enabled=false when supervision
	// is off).
	Supervise supervise.Stats

	// Farm snapshots the sharded compile farm when one is installed on
	// the toolchain (Features.CompileFarm / cascade.WithCompileFarm);
	// Shards == 0 when compiles run on the local backend.
	Farm toolchain.FarmStats

	// Tenant is the runtime's tenant ID on a shared (hypervisor-owned)
	// toolchain; "" for a classic single-tenant runtime. RegionLEs is
	// the capacity of the runtime's fabric partition — its Device's
	// capacity, meaningful when a hypervisor carved it out of a shared
	// fabric. When Tenant is set, Compile is the tenant's own stats
	// mirror, not the shared service's global counters.
	Tenant    string
	RegionLEs int
}

// Stats snapshots the runtime. It takes the runtime lock, so monitoring
// goroutines may call it while the controller steps; the snapshot is a
// consistent between-steps state.
func (r *Runtime) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{
		Phase:           r.phase,
		Steps:           r.steps,
		Ticks:           r.ticks,
		Time:            r.vclk.Breakdown(),
		AreaLEs:         r.AreaLEs(),
		Parallelism:     r.par,
		Finished:        r.finished,
		Compile:         r.opts.Toolchain.StatsFor(r.opts.Tenant),
		PendingCompiles: r.pending(lifecycle.Fabric),
		PendingNative:   r.pending(lifecycle.Native),
		Faults:          r.opts.Injector.Stats(),
		Persist:         r.persistStats(),
		Supervise:       r.sup.Stats(),
	}
	// Every fault a fabric or native engine latched was settled as one
	// FaultLatched move, so each pair of counters is one row's count.
	st.HWFaults = r.moves[lifecycle.FaultLatched][lifecycle.Fabric][lifecycle.Interpreter]
	st.NativeFaults = r.moves[lifecycle.FaultLatched][lifecycle.Native][lifecycle.Interpreter]
	st.Evictions, st.Demotions = st.HWFaults, st.NativeFaults
	if st.Supervise.Enabled {
		st.Supervise.Failovers = uint64(r.moves[lifecycle.BreakerTrip][lifecycle.Hosted][lifecycle.Interpreter])
		st.Supervise.Rehosts = uint64(r.moves[lifecycle.Recovered][lifecycle.Interpreter][lifecycle.Hosted] +
			r.moves[lifecycle.Recovered][lifecycle.Native][lifecycle.Hosted])
	}
	if fs, ok := r.opts.Toolchain.FarmStats(); ok {
		st.Farm = fs
	}
	if r.opts.Remote != nil {
		st.Remote = r.opts.Remote.Addr
	}
	if r.opts.Tenant != "" {
		st.Tenant = r.opts.Tenant
		st.RegionLEs = r.opts.Device.Capacity()
	}
	for _, s := range r.slots {
		es := EngineStat{
			Path:      s.path,
			Location:  s.c.Loc().String(),
			Transport: s.c.TransportKind(),
			Xport:     s.c.Stats(),
		}
		// Remote engines and stdlib peripherals have no in-process rung.
		if s.p != nil {
			es.Tier = s.p.Tier().String()
		}
		st.Engines = append(st.Engines, es)
		st.Xport.Add(es.Xport)
	}
	// Counters banked from retired clients (paths currently forwarded or
	// mid-rebuild) still belong to the lifetime totals.
	for _, s := range r.xstats {
		st.Xport.Add(s)
	}
	return st
}

// Summary renders the snapshot as one status line (the REPL's :stats).
func (s Stats) Summary() string {
	sec := func(ps uint64) float64 { return float64(ps) / float64(vclock.S) }
	line := fmt.Sprintf(
		"phase=%v steps=%d ticks=%d vtime=%.3fs compute=%.3fs comm=%.3fs overhead=%.3fs idle=%.3fs messages=%d area=%d LEs lanes=%d compiles[pending=%d hits=%d misses=%d joined=%d canceled=%d retried=%d]",
		s.Phase, s.Steps, s.Ticks,
		sec(s.Time.NowPs), sec(s.Time.ComputePs), sec(s.Time.CommPs),
		sec(s.Time.OverheadPs), sec(s.Time.IdlePs), s.Time.Messages,
		s.AreaLEs, s.Parallelism,
		s.PendingCompiles, s.Compile.CacheHits, s.Compile.CacheMisses,
		s.Compile.Joined, s.Compile.Canceled, s.Compile.Retried)
	if s.Tenant != "" {
		line += fmt.Sprintf(" tenant[%s region=%dLEs]", s.Tenant, s.RegionLEs)
	}
	if s.PendingNative > 0 || s.NativeFaults > 0 || s.Demotions > 0 {
		line += fmt.Sprintf(" native[pending=%d faults=%d demotions=%d]",
			s.PendingNative, s.NativeFaults, s.Demotions)
	}
	if s.Faults.Injected > 0 || s.HWFaults > 0 || s.Evictions > 0 {
		line += fmt.Sprintf(" faults[injected=%d transient=%d permanent=%d hw=%d evictions=%d]",
			s.Faults.Injected, s.Faults.Transient, s.Faults.Permanent,
			s.HWFaults, s.Evictions)
	}
	// The remote segment keys on wire traffic, not on a configured
	// address: counters banked from retired clients (a session whose
	// remote engines were torn down, forwarded, or rebuilt mid-run) are
	// still lifetime totals the user asked for, and RoundTrips alone
	// cannot gate it — Local clients meter fast-path round-trips too, so
	// every in-process session has RoundTrips > 0 with zero wire bytes.
	if s.Remote != "" || s.Xport.WireActivity() {
		addr := s.Remote
		if addr == "" {
			addr = "(retired)"
		}
		line += fmt.Sprintf(" remote[%s roundtrips=%d out=%dB in=%dB drops=%d retries=%d]",
			addr, s.Xport.RoundTrips, s.Xport.BytesOut, s.Xport.BytesIn,
			s.Xport.Drops, s.Xport.Retries)
	}
	if s.Farm.Shards > 0 {
		line += fmt.Sprintf(" farm[shards=%d jobs=%d routed=%d stolen=%d rerouted=%d shed=%d unavailable=%d peerhits=%d replicated=%d msgs=%d]",
			s.Farm.Shards, s.Farm.Jobs, s.Farm.Routed, s.Farm.Stolen,
			s.Farm.Rerouted, s.Farm.Shed, s.Farm.Unavailable,
			s.Farm.PeerHits, s.Farm.Replicated, s.Farm.Msgs)
	}
	if s.Supervise.Enabled {
		line += fmt.Sprintf(" supervise[state=%s probes=%d fails=%d trips=%d failovers=%d rehosts=%d]",
			s.Supervise.State, s.Supervise.Probes, s.Supervise.ProbeFailures,
			s.Supervise.Trips, s.Supervise.Failovers, s.Supervise.Rehosts)
	}
	if s.Persist.Enabled {
		line += fmt.Sprintf(" persist[records=%d journal=%dB ckpts=%d ckptBytes=%d ckptMs=%d replayed=%d]",
			s.Persist.Records, s.Persist.JournalBytes, s.Persist.Checkpoints,
			s.Persist.CheckpointBytes, s.Persist.CheckpointNs/1e6, s.Persist.ReplayedRecords)
		if s.Persist.Err != "" {
			line += " persist-error=" + s.Persist.Err
		}
	}
	return line
}
