// Package fault is Cascade-Go's deterministic fault injector. The
// paper's value proposition — execution "simply gets faster" while
// compilation proceeds in the background — only holds if the runtime
// survives the failure modes a real vendor flow and a shared device
// exhibit: flaky compiles (license servers, filesystem hiccups,
// non-deterministic placement failures), MMIO bus errors, and fabric
// region faults that corrupt a loaded bitstream. SYNERGY (Landgraf et
// al.) shows the runtime/engine split supports movement in *both*
// directions; injecting faults is how we test the downward direction.
//
// The injector is deterministic by construction so that fault runs are
// replayable: whether operation number n at a named site faults is a
// pure function of (seed, op, site, n), computed with a splitmix64-style
// hash — never of goroutine interleaving or wall-clock time. Sites keep
// independent trial counters, and each site's operations occur in a
// deterministic order on its own timeline (compile attempts are
// sequential per job; a hardware engine is driven by one goroutine at a
// time in schedule order), so two runs with the same seed inject the
// same faults at the same points no matter how the host schedules
// threads.
//
// The same Config also plans outages (Config.Outages): the windows in
// which a remote daemon is killed and restarted, or compile-farm shards
// are down. Every seeded disturbance in a run is thus one value, and one
// seed replays all of it.
//
// A nil *Injector is valid everywhere and injects nothing, so callers
// (the toolchain, the device, hardware engines) never need a nil check
// at the call site.
package fault

import (
	"errors"
	"fmt"
	"sync"

	"cascade/internal/obsv"
)

// Op is the class of operation a fault can be injected into.
type Op uint8

// Operation classes.
const (
	// OpCompile is one vendor-flow compile attempt.
	OpCompile Op = iota
	// OpBus is an MMIO transaction between the runtime and a placed
	// hardware engine.
	OpBus
	// OpRegion is the integrity of a placed fabric region (a lost or
	// corrupted bitstream; checked at placement and per time step).
	OpRegion
	// OpNet is one transport round-trip to a remote engine (a dropped
	// frame; the transport retries deterministically).
	OpNet
)

func (o Op) String() string {
	switch o {
	case OpCompile:
		return "compile"
	case OpBus:
		return "bus"
	case OpRegion:
		return "region"
	case OpNet:
		return "net"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Error is one injected fault. Transient faults are expected to succeed
// on retry (the toolchain backs off and re-attempts; the runtime evicts
// the engine and re-places it); permanent faults are reported once and
// never re-queued.
type Error struct {
	Op        Op
	Site      string // engine path or compile-unit instance path
	Attempt   uint64 // 1-based ordinal of the faulted trial at this site
	Transient bool
}

// Error implements error.
func (e *Error) Error() string {
	class := "permanent"
	if e.Transient {
		class = "transient"
	}
	return fmt.Sprintf("fault: %s %s fault at %s (trial %d)", class, e.Op, e.Site, e.Attempt)
}

// IsFault reports whether err is (or wraps) an injected fault.
func IsFault(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// IsTransient reports whether err is (or wraps) an injected fault that
// is expected to succeed on retry.
func IsTransient(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Transient
}

// Config sets the per-trial fault probabilities and per-site caps. A
// probability of 1 with a cap of n makes exactly the first n trials at
// every site fault — the fully scripted mode tests use. A cap of 0
// means uncapped.
type Config struct {
	// Seed selects the deterministic fault schedule. Two injectors with
	// the same Config inject identical faults at identical points.
	Seed uint64

	// CompileTransient and CompilePermanent are per-attempt
	// probabilities for the two compile fault classes; their sum must
	// not exceed 1. MaxCompileFaults caps faults per compile site so
	// retry loops provably converge.
	CompileTransient float64
	CompilePermanent float64
	MaxCompileFaults int

	// BusError is the per-check probability of an MMIO fault on a
	// hardware engine, capped per engine by MaxBusFaults.
	BusError     float64
	MaxBusFaults int

	// RegionFault is the per-check probability that a placed fabric
	// region has lost its bitstream, capped per region by
	// MaxRegionFaults.
	RegionFault     float64
	MaxRegionFaults int

	// NetDrop is the per-attempt probability that a transport
	// round-trip to a remote engine is dropped before transmission,
	// capped per transport site by MaxNetFaults (so retry loops
	// provably converge).
	NetDrop      float64
	MaxNetFaults int
}

// Stats counts the injector's activity.
type Stats struct {
	Checks    uint64 // trials consulted
	Injected  uint64 // faults injected (all classes)
	Transient uint64 // injected faults retryable by backoff or re-place
	Permanent uint64 // injected faults that are final
	Compile   uint64 // injected compile faults
	Bus       uint64 // injected bus faults
	Region    uint64 // injected region faults
	Net       uint64 // injected transport drops
}

// site tracks one (op, site) timeline.
type site struct {
	trials   uint64 // operations consulted so far
	injected int    // faults injected so far (cap accounting)
}

// Injector decides deterministically whether operations fault. Safe for
// concurrent use; a nil Injector injects nothing.
type Injector struct {
	cfg Config

	mu    sync.Mutex
	sites map[string]*site
	stats Stats // Injected is read from injected
	// injected counts every injected fault into Stats.Injected and
	// cascade_faults_injected_total together.
	injected obsv.Tally
	obs      *obsv.Observer
}

// New returns an injector for the given config.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, sites: map[string]*site{}}
}

// Seed returns the injector's seed (for replay diagnostics).
func (in *Injector) Seed() uint64 {
	if in == nil {
		return 0
	}
	return in.cfg.Seed
}

// SetObserver installs an observability hub: every injected fault is
// traced and counted. Injection happens on whatever goroutine runs the
// faulted operation (toolchain workers, transport callers), so events
// carry no virtual stamp (EmitAt 0) — the schedule itself stays a pure
// function of (seed, op, site, trial) and observation changes nothing.
func (in *Injector) SetObserver(o *obsv.Observer) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.obs = o
	if o != nil {
		in.injected.Series = o.Faults
	}
	in.mu.Unlock()
}

// Stats returns a snapshot of the injector's counters.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.stats
	st.Injected = in.injected.N
	return st
}

// Compile consults the fault schedule for one compile attempt at the
// given site (an instance path). It returns nil or an *Error whose
// Transient field classifies the failure.
func (in *Injector) Compile(siteName string) error {
	if in == nil || (in.cfg.CompileTransient <= 0 && in.cfg.CompilePermanent <= 0) {
		return nil
	}
	return in.check(OpCompile, siteName, in.cfg.CompileTransient, in.cfg.CompilePermanent, in.cfg.MaxCompileFaults)
}

// Bus consults the fault schedule for one MMIO check at the given
// hardware engine. Bus faults are transient: the transfer is detected
// and the engine can be evicted with its state intact (the ABI
// wrapper's shadow registers remain readable).
func (in *Injector) Bus(siteName string) error {
	if in == nil || in.cfg.BusError <= 0 {
		return nil
	}
	return in.check(OpBus, siteName, in.cfg.BusError, 0, in.cfg.MaxBusFaults)
}

// Region consults the fault schedule for one region-integrity check.
// Region faults are transient: reprogramming the region (a resubmitted
// compile, served from the bitstream cache) clears them.
func (in *Injector) Region(siteName string) error {
	if in == nil || in.cfg.RegionFault <= 0 {
		return nil
	}
	return in.check(OpRegion, siteName, in.cfg.RegionFault, 0, in.cfg.MaxRegionFaults)
}

// Net consults the fault schedule for one transport round-trip attempt
// at the given site (a transport endpoint). Drops are transient by
// definition: the frame never left the host, so resending it is always
// safe (no duplicated side effects) and the transport retries until its
// attempt budget runs out.
func (in *Injector) Net(siteName string) error {
	if in == nil || in.cfg.NetDrop <= 0 {
		return nil
	}
	return in.check(OpNet, siteName, in.cfg.NetDrop, 0, in.cfg.MaxNetFaults)
}

// check runs one trial on the (op, site) timeline.
func (in *Injector) check(op Op, siteName string, pTransient, pPermanent float64, cap int) error {
	key := fmt.Sprintf("%d\x00%s", op, siteName)
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.sites[key]
	if s == nil {
		s = &site{}
		in.sites[key] = s
	}
	s.trials++
	in.stats.Checks++
	if cap > 0 && s.injected >= cap {
		return nil
	}
	p := in.roll(op, siteName, s.trials)
	var transient bool
	switch {
	case p < pTransient:
		transient = true
	case p < pTransient+pPermanent:
		transient = false
	default:
		return nil
	}
	s.injected++
	in.injected.Inc()
	if transient {
		in.stats.Transient++
	} else {
		in.stats.Permanent++
	}
	switch op {
	case OpCompile:
		in.stats.Compile++
	case OpBus:
		in.stats.Bus++
	case OpRegion:
		in.stats.Region++
	case OpNet:
		in.stats.Net++
	}
	err := &Error{Op: op, Site: siteName, Attempt: s.trials, Transient: transient}
	if o := in.obs; o != nil {
		o.EmitAt(0, obsv.EvFault, siteName, err.Error())
	}
	return err
}

// roll maps (seed, op, site, trial) to a uniform value in [0, 1).
func (in *Injector) roll(op Op, siteName string, trial uint64) float64 {
	h := in.cfg.Seed
	h = mix(h ^ (uint64(op) + 1))
	h = mix(h ^ HashString(siteName))
	h = mix(h ^ trial)
	return float64(h>>11) / float64(uint64(1)<<53)
}

// Window is one planned outage: Target is down for every ordinal in
// [From, To) of the clock its consumer counts (daemon steps, farm route
// decisions) and comes back at To.
type Window struct {
	Target   int
	From, To uint64
}

// Outages plans n outage windows over the ordinals [1, horizon) of one
// clock, each taking down one of `targets` (a daemon is one target, a
// compile farm's shards are its workers). The plan is a pure function of
// the seed and the arguments, so a disturbed run replays exactly.
//
// The horizon is cut into n equal slices holding at most one window
// each, so windows come out sorted, never overlap, and leave at least
// one free ordinal between them. Each length is drawn from [minLen,
// maxLen] and shrunk to fit its slice, never below minLen: a slice
// shorter than minLen+2 holds no window. The plan therefore has exactly
// n windows whenever horizon >= n*(minLen+2) (3n for minLen 1), and
// fewer only below that. Which target a window takes down is drawn only
// when targets > 1, salted per site like the injector's rolls.
func (c Config) Outages(site string, targets, n int, horizon, minLen, maxLen uint64) []Window {
	if targets <= 0 || n <= 0 {
		return nil
	}
	minLen = max(minLen, 1)
	maxLen = max(maxLen, minLen)
	r := SplitMix(c.Seed ^ 0xc4a5cade) // offset so windows and injector rolls decorrelate
	slice := horizon / uint64(n)
	var out []Window
	for i := 0; i < n; i++ {
		length := minLen + r.Next()%(maxLen-minLen+1)
		if length+2 > slice {
			if slice < minLen+2 {
				continue
			}
			length = slice - 2
		}
		from := uint64(i)*slice + 1 + r.Next()%(slice-length-1)
		w := Window{From: from, To: from + length}
		if targets > 1 {
			w.Target = int(mix(mix(c.Seed^HashString(site))^uint64(i+1)) % uint64(targets))
		}
		out = append(out, w)
	}
	return out
}

// SplitMix is a splitmix64 stream: tiny, seedable, and stable across
// platforms and Go versions. Every seeded schedule in the tree (fault
// rolls and outage windows here, the compile farm's rendezvous weights,
// internal/vgen's sessions) draws from it, so none depends on
// math/rand's version-varying streams.
type SplitMix uint64

// Next advances the stream and returns its next draw.
func (s *SplitMix) Next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mix is one splitmix64 round over z.
func mix(z uint64) uint64 {
	s := SplitMix(z)
	return s.Next()
}

// HashString is FNV-1a.
func HashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
