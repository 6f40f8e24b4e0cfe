// Package toolchain models the blackbox vendor compiler (Quartus in the
// paper) that Cascade hides behind its JIT. The model performs real
// synthesis — internal/netlist lowers the subprogram to a word-level RTL
// netlist — and then imposes the three observable behaviours of a vendor
// flow that the paper's design responds to:
//
//   - latency: compile time grows superlinearly with design size
//     (placement and routing are NP-hard; minutes for small designs,
//     hours for large ones),
//   - fit: designs beyond device capacity fail,
//   - timing closure: designs whose critical path exceeds the fabric
//     clock period fail late, after placement (§6.4's student
//     frustration).
//
// Compilations run as a background job service: Submit enqueues work on
// a bounded worker pool and returns immediately; completion is expressed
// in virtual time so the runtime's JIT state machine can overlap
// compilation with software execution deterministically. The service
// keeps a content-addressed bitstream cache keyed by a canonical hash of
// the synthesized netlist (netlist.Program.Fingerprint): resubmitting an
// unchanged design — an edit that undoes a change, or a Snapshot
// restored onto a same-shape device — skips the place-and-route model
// entirely, and a resubmission that lands while the original flow is
// still in (virtual) flight joins it instead of starting over. Obsolete
// jobs are cancelled with Job.Cancel (their results are discarded, but
// the flow still runs to the cache in the background); a cancelled
// context aborts jobs that have not yet reached a worker.
//
// There is one compile flow. Every submitter is a tenant record
// (tenant.go; the single-user case is the default tenant ""), the job
// service runs the front half under that record — admission, fair-share
// slots, the fault schedule, synthesis (job.go) — and the back half —
// cache consultation, the place-and-route model, durable storage — is
// stack.serve (cache.go) on a cache stack: the toolchain's own, or, with
// a compile farm installed (UseFarm, farm.go), the stack of the shard
// the farm routes the job to. The flow's data has one shape as well: the
// back half takes the wire form of the request (ShardSubmit), the model
// is one function of it (Toolchain.model), and what it returns, caches
// and ships is a ShardOutcome — no tier holds a netlist, and the job
// assembles its Result around its own design's program (Design, job.go:
// synthesized and hashed once, whichever of the design's flows asks
// first).
package toolchain

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"cascade/internal/elab"
	"cascade/internal/fpga"
	"cascade/internal/netlist"
	"cascade/internal/vclock"
)

// Options tunes the compile-latency model and the job service.
type Options struct {
	// SynthPsPerCell and PlacePs control the latency model:
	// synth = SynthPsPerCell * cells * log2(cells)
	// place = PlacePs * cells^1.2
	SynthPsPerCell uint64
	PlacePs        uint64
	// BasePs is the flow's fixed startup cost.
	BasePs uint64
	// LevelPs is the per-level logic delay used by the timing-closure
	// check: CritPath * LevelPs must fit in the fabric clock period.
	LevelPs uint64
	// Scale divides all latencies (interactive demos); 0 means 1.
	Scale float64
	// Workers bounds the job service's concurrent compilations; 0 means
	// one worker per CPU.
	Workers int
	// CacheHitPs is the virtual latency of serving a compilation from
	// the bitstream cache (the flow re-checks the netlist hash and
	// reloads the placed design; no place-and-route). 0 means the
	// default of 2 virtual milliseconds.
	CacheHitPs uint64
	// CacheDir, when set, backs the bitstream cache with a disk store:
	// successful flows are recorded there (atomically, checksummed) and
	// a fresh process over the same directory serves unchanged designs
	// at cache-hit latency instead of re-running place-and-route —
	// crash recovery re-reaches hardware almost immediately. Corrupt or
	// stale entries are detected and treated as misses; entry validity
	// (fit, timing) is re-checked against the live device on every hit.
	CacheDir string
	// MaxRetries bounds how many times a job re-attempts the flow after
	// a transient fault (a flaky license server, a filesystem hiccup)
	// before giving up; 0 means the default of 4. Retries back off
	// exponentially in virtual time: RetryBasePs doubling per attempt
	// up to RetryCapPs (defaults 5s and 60s, divided by Scale like
	// every other latency).
	MaxRetries  int
	RetryBasePs uint64
	RetryCapPs  uint64
	// MaxQueue bounds how many submissions may be in flight (submitted
	// and not yet observed ready or cancelled) before the service
	// load-sheds: excess submissions fail immediately with a result
	// wrapping ErrOverloaded instead of queueing without bound. The
	// bound is measured in virtual time — a job stays "in flight" until
	// its owner observes it ready on the virtual clock — so admission
	// decisions replay deterministically. 0 (the default) disables
	// admission control. Callers are expected to back off and resubmit
	// (the runtime and daemon JIT loops do, with virtual backoff).
	MaxQueue int
	// NativeBasePs and NativePsPerCell control the native-tier latency
	// model: compiling a netlist to closure-threaded Go is a linear pass
	// (no placement, no timing closure), so a native job is ready in
	// virtual milliseconds while the fabric flow for the same design
	// takes virtual minutes. 0 means the defaults of 250 virtual ms base
	// plus 150 virtual µs per cell (~0.5 virtual s for the paper's PoW
	// miner, against its ~10 virtual minute fabric compile).
	NativeBasePs    uint64
	NativePsPerCell uint64
}

// DefaultOptions calibrates the model so the paper's proof-of-work miner
// (~1.7K LEs of user logic) compiles in roughly ten virtual minutes —
// matching Figure 11 — and a 50-line program in about a minute, matching
// the user study's average per-build compile wait.
func DefaultOptions() Options {
	return Options{
		SynthPsPerCell:  12_000 * vclock.Us,
		PlacePs:         20_000 * vclock.Us,
		BasePs:          45 * vclock.S,
		LevelPs:         450, // ps per level: ~44 levels close timing at 50 MHz
		Scale:           1,
		CacheHitPs:      2 * vclock.Ms,
		MaxRetries:      4,
		RetryBasePs:     5 * vclock.S,
		RetryCapPs:      60 * vclock.S,
		NativeBasePs:    250 * vclock.Ms,
		NativePsPerCell: 150 * vclock.Us,
	}
}

// InfraLEs is the fixed infrastructure both flows instantiate around the
// user design: the memory-mapped bus bridge and IO glue (the paper's
// Avalon bus and Quartus FIFO IP on the native side).
const InfraLEs = 900

// Stats is a snapshot of the job service's counters.
type Stats struct {
	Submitted   int // jobs handed to Submit
	Synthesized int // flows that consumed a synthesized netlist (includes CompileSync)
	CacheHits   int // submissions served from the bitstream cache
	CacheMisses int // submissions that paid for place-and-route
	Joined      int // submissions that joined an in-flight identical flow
	Canceled    int // jobs aborted before completing

	// Fault-handling counters (internal/fault).
	Retried         int // flow attempts re-run after a transient fault
	TransientFaults int // transient compile faults observed
	PermanentFaults int // permanent compile faults observed (reported once)

	// Admission control (Options.MaxQueue) and farm backpressure.
	Shed int // submissions load-shed with ErrOverloaded

	// Disk bitstream-store counters (Options.CacheDir).
	DiskHits    int // submissions served from the on-disk store
	DiskWrites  int // entries durably written
	DiskCorrupt int // entries rejected by verification and evicted

	// PeerHits counts submissions served from another compile shard's
	// cache (FarmBackend peer fetch).
	PeerHits int
}

// add accumulates a flow's counters into s.
func (s *Stats) add(f Stats) {
	s.Synthesized += f.Synthesized
	s.CacheHits += f.CacheHits
	s.CacheMisses += f.CacheMisses
	s.Joined += f.Joined
	s.Canceled += f.Canceled
	s.Retried += f.Retried
	s.TransientFaults += f.TransientFaults
	s.PermanentFaults += f.PermanentFaults
	s.Shed += f.Shed
	s.DiskHits += f.DiskHits
	s.DiskWrites += f.DiskWrites
	s.DiskCorrupt += f.DiskCorrupt
	s.PeerHits += f.PeerHits
}

// countOutcome records one served flow's cache outcome from the tier
// that served it (Result.HitSource).
func (s *Stats) countOutcome(hitSource string) {
	switch hitSource {
	case "":
		s.CacheMisses++
	case HitJoined:
		s.Joined++
	case HitDisk:
		s.CacheHits++
		s.DiskHits++
	case HitPeer:
		s.CacheHits++
		s.PeerHits++
	default:
		s.CacheHits++
	}
}

// Toolchain is a blackbox compiler bound to a device, fronted by a
// background job service with a bitstream cache.
type Toolchain struct {
	dev   *fpga.Device
	opts  Options
	cache *stack // the toolchain's own cache stack (local flows, every native flow)

	compiles atomic.Int64 // real synthesis runs (Design.synthesize)

	mu       sync.Mutex
	farm     *FarmBackend // installed compile farm for fabric flows (nil: local)
	sem      chan struct{}
	tenants  map[string]*tenant // every scope, the default tenant "" included
	inflight int                // submissions not yet observed ready/cancelled (MaxQueue > 0)
}

// ErrOverloaded reports that the job service shed a submission under
// admission control (Options.MaxQueue), or that every shard queue of a
// compile farm was at its bound: too many compilations were already in
// flight. It travels inside the shed job's Result.Err; callers match it
// with errors.Is and resubmit after a virtual-time backoff rather than
// treating the design as uncompilable.
var ErrOverloaded = errors.New("toolchain overloaded")

// New returns a toolchain targeting dev.
func New(dev *fpga.Device, opts Options) *Toolchain {
	if opts.Scale == 0 {
		opts.Scale = 1
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.NumCPU()
	}
	if opts.CacheHitPs == 0 {
		opts.CacheHitPs = 2 * vclock.Ms
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 4
	}
	if opts.RetryBasePs == 0 {
		opts.RetryBasePs = 5 * vclock.S
	}
	if opts.RetryCapPs == 0 {
		opts.RetryCapPs = 60 * vclock.S
	}
	if opts.NativeBasePs == 0 {
		opts.NativeBasePs = 250 * vclock.Ms
	}
	if opts.NativePsPerCell == 0 {
		opts.NativePsPerCell = 150 * vclock.Us
	}
	t := &Toolchain{
		dev:     dev,
		opts:    opts,
		sem:     make(chan struct{}, opts.Workers),
		tenants: map[string]*tenant{},
	}
	t.cache = newStack(t)
	t.tenantLocked("") // no other goroutine can hold t yet
	return t
}

// backoffPs returns the virtual backoff before retry attempt n (0-based),
// capped exponential, scaled like every other flow latency.
func (t *Toolchain) backoffPs(attempt int) uint64 {
	d := t.opts.RetryBasePs
	for i := 0; i < attempt && d < t.opts.RetryCapPs; i++ {
		d <<= 1
	}
	if d > t.opts.RetryCapPs {
		d = t.opts.RetryCapPs
	}
	ps := uint64(float64(d) / t.opts.Scale)
	if ps == 0 {
		ps = 1
	}
	return ps
}

// Device returns the targeted device.
func (t *Toolchain) Device() *fpga.Device { return t.dev }

// Compiles returns how many synthesis runs this toolchain has executed:
// one per design, however many flows consumed its netlist
// (Stats.Synthesized counts those).
func (t *Toolchain) Compiles() int { return int(t.compiles.Load()) }

// Result is the outcome of one compilation.
type Result struct {
	Prog  *netlist.Program
	Stats netlist.Stats
	// AreaLEs is the fabric area of the synthesized design including
	// the ABI wrapper when Wrapped (paper reports 2.9x for PoW, 6.5x
	// for the regex benchmark).
	AreaLEs    int
	RawAreaLEs int // area without the ABI wrapper (native mode)
	Wrapped    bool
	DurationPs uint64
	// CacheHit reports that the flow was served from the bitstream
	// cache (no place-and-route ran); HitSource names the tier that
	// served it (HitMemory, HitJoined, HitDisk, HitPeer).
	CacheHit  bool
	HitSource string
	// NativeGo marks a native-tier artifact: the netlist compiled to
	// closure-threaded Go rather than a bitstream. It occupies no fabric
	// (AreaLEs is 0) and never consults the fit or timing models.
	NativeGo bool
	Err      error
}

// wrapperLEs models the Figure 10 ABI support logic plus the engine
// infrastructure Cascade always ships: shadow registers and access muxes
// over every state bit (~2.4 LE/bit), memory access ports, and the fixed
// AXI stub, masks, open-loop counter, and standard-component glue. The
// fixed part dominates small designs, which is why the paper's regex
// benchmark pays 6.5x while the larger PoW design pays 2.9x.
func wrapperLEs(st netlist.Stats) int {
	stateBits := st.FFs
	return (stateBits*12)/5 + st.MemBits/16 + 1100
}

// latency returns the virtual compile duration for a design with the
// given user-logic cell count. Placement difficulty is superlinear.
func (t *Toolchain) latency(cells int) uint64 {
	c := float64(cells + 16)
	synth := float64(t.opts.SynthPsPerCell) * c * math.Log2(c)
	place := float64(t.opts.PlacePs) * math.Pow(c, 1.3)
	total := (synth + place + float64(t.opts.BasePs)) / t.opts.Scale
	return uint64(total)
}

// nativeLatency returns the virtual compile duration of the native-tier
// flow: a linear translation pass, dominated by its fixed startup cost.
func (t *Toolchain) nativeLatency(cells int) uint64 {
	total := (float64(t.opts.NativeBasePs) + float64(t.opts.NativePsPerCell)*float64(cells)) / t.opts.Scale
	if total < 1 {
		total = 1
	}
	return uint64(total)
}

// hitLatency is the virtual duration of a cache-served flow.
func (t *Toolchain) hitLatency() uint64 {
	ps := uint64(float64(t.opts.CacheHitPs) / t.opts.Scale)
	if ps == 0 {
		ps = 1
	}
	return ps
}

// summarize opens a back-half request for a synthesized netlist: the
// summary is everything the model reads of it.
func summarize(st netlist.Stats, wrapped bool) ShardSubmit {
	return ShardSubmit{Wrapped: wrapped, Cells: st.Cells, FFs: st.FFs, MemBits: st.MemBits, CritPath: st.CritPath}
}

// model is the place-and-route half of the flow as a function of the
// request alone — all a daemon worker is ever shipped. The native tier
// bills its linear translation pass and stops: the artifact occupies no
// fabric, so there is no fit to check and no clock period to close. The
// fabric flow applies the area, fit, and timing models against dev — a
// tenant's fabric partition closes fit and timing against its own
// region, not the whole shared device.
func (t *Toolchain) model(dev *fpga.Device, req ShardSubmit) ShardOutcome {
	st := netlist.Stats{Cells: req.Cells, FFs: req.FFs, MemBits: req.MemBits, CritPath: req.CritPath}
	raw := st.LogicElements()
	out := ShardOutcome{RawAreaLEs: raw, CritPath: st.CritPath}
	if req.native {
		out.DurationPs = t.nativeLatency(raw)
		return out
	}
	// Compile latency is governed by the user logic (the wrapper and
	// infrastructure are regular, pre-characterized structures); the
	// wrapped flow pays a small constant factor for the extra routing.
	out.AreaLEs = raw + InfraLEs
	out.DurationPs = t.latency(raw)
	if req.Wrapped {
		out.AreaLEs = raw + wrapperLEs(st)
		out.DurationPs = out.DurationPs * 112 / 100
	}
	// Timing closure is only discovered after placement (late failure).
	if out.AreaLEs > dev.Capacity() {
		out.FlowErr = fmt.Sprintf("toolchain: design requires %d LEs, device has %d", out.AreaLEs, dev.Capacity())
	} else if uint64(st.CritPath)*t.opts.LevelPs > dev.CyclePs() {
		out.FlowErr = fmt.Sprintf("toolchain: timing closure failed: critical path %d levels (%d ps) exceeds %d ps clock period",
			st.CritPath, uint64(st.CritPath)*t.opts.LevelPs, dev.CyclePs())
	}
	return out
}

// result assembles the Result of a served flow around prog, the netlist
// of this submission's own design — the only place a Result gains a
// Prog. A cache tier never supplies one: Program.Fingerprint does not
// cover port directions, so two designs can share a key (and, rightly,
// an outcome — area and timing are functions of the netlist alone)
// while their engines must be built from different programs.
func (out ShardOutcome) result(prog *netlist.Program, req ShardSubmit) *Result {
	res := &Result{
		Prog: prog, Stats: prog.Stats,
		AreaLEs: out.AreaLEs, RawAreaLEs: out.RawAreaLEs, Wrapped: req.Wrapped,
		DurationPs: out.DurationPs, CacheHit: out.CacheHit, HitSource: out.HitSource,
		NativeGo: req.native,
	}
	if out.FlowErr != "" {
		res.Err = errors.New(out.FlowErr)
	}
	return res
}

// CompileSync synthesizes f and applies the fit and timing models,
// bypassing the job service and the cache (benches measure the raw
// flow). wrapped selects the ABI-wrapped flow (JIT engines) versus the
// native flow (§4.5). The returned result carries the virtual duration;
// callers decide when it "finishes" on their timeline.
func (t *Toolchain) CompileSync(f *elab.Flat, wrapped bool) *Result {
	t.tenant("").bank(Stats{Synthesized: 1})
	prog, _, err := NewDesign(f).synthesize(t)
	if err != nil {
		// Synthesis errors surface quickly (front-end rejects).
		return &Result{Err: err, DurationPs: t.opts.BasePs / 4}
	}
	req := summarize(prog.Stats, wrapped)
	return t.model(t.dev, req).result(prog, req)
}
