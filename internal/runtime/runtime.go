// Package runtime implements the Cascade runtime (paper §3.4, Figure 5):
// the controller/view pair, the ordered interrupt queue, the batched
// scheduler of Figure 6, and the JIT state machine of Figure 9 that
// carries a program from software engines through inlining, background
// hardware compilation, ABI forwarding, and open-loop scheduling.
//
// The runtime is driven by Step/Run calls from a single controller
// goroutine; within a Step the evaluate and update batches of Figure 6
// are dispatched to the scheduled engines in parallel (the batching
// exists precisely so requests can be issued asynchronously), while
// interrupt flushes, routing, and hot swaps stay on the controller.
// Work is billed on a virtual clock (internal/vclock) so JIT behaviour
// over time is deterministic and the evaluation's figures are
// reproducible.
package runtime

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/engine"
	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/ir"
	"cascade/internal/lifecycle"
	"cascade/internal/obsv"
	"cascade/internal/sim"
	"cascade/internal/stdlib"
	"cascade/internal/supervise"
	"cascade/internal/toolchain"
	"cascade/internal/transport"
	"cascade/internal/vclock"
	"cascade/internal/verilog"
)

// Phase is the JIT state of the user's program (Figure 9).
type Phase int

// JIT phases.
const (
	PhaseEmpty     Phase = iota
	PhaseSoftware        // user logic in per-module software engines (9.1)
	PhaseInlined         // user logic inlined into one software engine (9.2)
	PhaseHardware        // user logic on the fabric, stdlib separate (9.3)
	PhaseForwarded       // stdlib absorbed via ABI forwarding (9.4)
	PhaseOpenLoop        // open-loop bursts (9.5)
	PhaseNative          // native mode (§4.5)
)

func (p Phase) String() string {
	switch p {
	case PhaseSoftware:
		return "software"
	case PhaseInlined:
		return "software(inlined)"
	case PhaseHardware:
		return "hardware"
	case PhaseForwarded:
		return "hardware(forwarded)"
	case PhaseOpenLoop:
		return "hardware(open-loop)"
	case PhaseNative:
		return "native"
	}
	return "empty"
}

// View receives program output and runtime status (the V of Figure 5).
//
// Concurrency contract: the runtime invokes View methods only from the
// controller goroutine (the one calling Eval/Step/Run), never from the
// worker goroutines that execute engine batches — system-task output
// produced inside a batch is buffered per engine and flushed in
// deterministic schedule order once the batch has joined. A View
// therefore does not need to be safe against concurrent calls from the
// runtime; it only needs internal locking if the application itself
// reads it from other goroutines while the runtime runs (BufView locks
// for exactly that reason).
type View interface {
	Display(text string)
	Info(format string, args ...any)
	Error(err error)
}

// BufView is a View that records everything (tests and benches). It is
// safe for concurrent use: monitoring goroutines may read Output/Infos/
// Errors while the controller goroutine appends.
type BufView struct {
	// Quiet drops Info traffic.
	Quiet bool

	mu    sync.Mutex
	out   strings.Builder
	infos []string
	errs  []error
}

// Display implements View.
func (v *BufView) Display(text string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.out.WriteString(text)
}

// Info implements View.
func (v *BufView) Info(format string, args ...any) {
	if v.Quiet {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.infos = append(v.infos, fmt.Sprintf(format, args...))
}

// Error implements View.
func (v *BufView) Error(err error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.errs = append(v.errs, err)
}

// Output returns everything Display has written.
func (v *BufView) Output() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.out.String()
}

// Infos returns a copy of the Info lines seen so far.
func (v *BufView) Infos() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]string(nil), v.infos...)
}

// Errors returns a copy of the errors seen so far.
func (v *BufView) Errors() []error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]error(nil), v.errs...)
}

// DefaultPrelude declares the IO environment of the paper's testbed: a
// global clock, four buttons, and a bank of eight LEDs, implicitly
// instantiated when Cascade begins execution (paper §3.2, Figure 3).
const DefaultPrelude = "Clock clk(); Pad#(4) pad(); Led#(8) led();"

// Features selects the runtime's execution strategies. The zero value
// enables everything (the full JIT of Figure 9); each field disables one
// stage, matching the paper's ablations.
type Features struct {
	DisableJIT        bool // never leave software
	EagerSim          bool // naive eager re-evaluation (iVerilog baseline, §5.1)
	DisableInline     bool // compile subprograms separately (§4.2 ablation)
	DisableForwarding bool // keep stdlib engines scheduled (§4.3 ablation)
	DisableOpenLoop   bool // stay in lock-step hardware (§4.4 ablation)
	Native            bool // §4.5: compile exactly as written, no ABI
	// NativeTier stages the JIT through a middle rung: alongside the
	// fabric compile, each subprogram is also handed to the toolchain's
	// native tier, which lowers the synthesized netlist to
	// closure-threaded Go (internal/njit). The native job is ready in
	// virtual milliseconds, so the interpreter is replaced by compiled
	// code long before the bitstream arrives; the fabric swap then takes
	// over from the native engine, and a native-tier fault demotes back
	// to the interpreter. Off by default.
	NativeTier bool
}

// Options configures a runtime.
type Options struct {
	World     *stdlib.World
	Device    *fpga.Device
	Toolchain *toolchain.Toolchain
	Model     vclock.Model
	View      View

	// Features holds the ablation and mode switches; the zero value is
	// the full JIT.
	Features Features

	// Parallelism bounds how many engines an evaluate/update batch is
	// dispatched to concurrently within a Step. 0 means one lane per
	// CPU; 1 runs batches serially on the controller goroutine.
	Parallelism int

	// Observer receives JIT lifecycle trace events and metrics
	// (internal/obsv). Nil disables observability at near-zero cost: the
	// scheduler's instrumentation is nil-receiver no-ops. The runtime
	// also routes every host-side wall-clock read (open-loop burst
	// profiling, checkpoint timing) through Observer.WallNow, so a
	// test-pinned wall clock makes even the wall-adaptive paths
	// deterministic — and proves wall time never leaks into virtual
	// billing.
	Observer *obsv.Observer

	// Injector injects deterministic faults (internal/fault) into the
	// toolchain, the device, and the hardware engines: flaky compiles
	// are retried with virtual-time backoff, and a faulted hardware
	// engine is evicted back to software between steps (the reverse
	// hot-swap) instead of killing execution. Nil runs fault-free.
	Injector *fault.Injector

	// OpenLoopTargetPs is the adaptive profiling target: each open-loop
	// burst should stall the runtime for about this much virtual time.
	OpenLoopTargetPs uint64

	// Persist enables crash-safe persistence (durable checkpoints plus
	// a write-ahead side-effect journal) rooted at Persist.Dir. It is
	// honored by Open, which also recovers whatever state a previous
	// process left in the directory; New ignores it.
	Persist *PersistOptions

	// Remote, when set, hosts the user's engines on a cascade-engined
	// daemon instead of in-process: each subprogram is shipped over the
	// engine protocol at integration time, every ABI interaction is
	// billed as a message, and a scheduler round crosses the wire as one
	// frame for all of them. Stdlib engines (the peripherals)
	// always stay local — they are the board. JIT promotion happens on
	// the daemon's own fabric; forwarding and open-loop scheduling
	// require in-process hardware and are skipped.
	Remote *RemoteOptions

	// Supervise enables self-healing supervision of the remote engine
	// daemon (internal/supervise): virtual-time liveness probes over the
	// engine protocol, a per-host circuit breaker that trips after
	// consecutive round-trip failures, automatic failover of remote
	// engines onto local software engines re-seeded from their last
	// committed state, and automatic re-hosting once the daemon answers
	// probes again. Nil (the default) disables supervision at zero cost;
	// it only acts when Remote is also set.
	Supervise *supervise.Options

	// Farm installs a sharded compile farm as the toolchain's fabric
	// backend (toolchain.UseFarm): compile flows are rendezvous-hashed
	// across in-process shards (Workers) or remote compile-worker
	// daemons (Links), with a replicated bitstream cache, bounded
	// per-shard queues with job stealing, and deterministic outage
	// schedules. On a shared toolchain that already carries a farm (the
	// hypervisor arrangement, where every tenant runtime passes the same
	// Options), the existing farm is kept — installation is idempotent.
	// Nil (the default) keeps the in-process local backend.
	Farm *toolchain.FarmOptions

	// Tenant scopes this runtime on a *shared* Toolchain (the hypervisor
	// arrangement, internal/hyper): compiles are submitted under this
	// tenant ID, so they draw on the tenant's fair-share worker quota,
	// consult only the tenant's fault injector and observer, close fit
	// and timing against the tenant's Device (its fabric partition), and
	// count into the tenant's stats mirror. "" — the default — is the
	// classic single-tenant arrangement: the runtime owns its toolchain
	// and wires injector and observer globally onto it.
	Tenant string
}

// RemoteOptions configures the connection to a remote engine daemon.
type RemoteOptions struct {
	// Addr is the daemon's TCP address (host:port).
	Addr string
	// DialTimeout, CallTimeout, and Retries tune the transport; zero
	// values take the transport defaults.
	DialTimeout time.Duration
	CallTimeout time.Duration
	Retries     int
	// SessionQuotaLEs, when positive, opens a tenant session on the
	// daemon before the first spawn: the daemon carves a fabric region
	// of this many LEs and this runtime's engines promote onto it,
	// isolated from other clients of the same daemon. Zero keeps the
	// legacy sessionless arrangement (all clients share the daemon
	// fabric). SessionName names the tenant (default: daemon-assigned);
	// SessionShare bounds the session's concurrent compile workers on
	// the daemon toolchain (0: global pool only).
	SessionQuotaLEs int
	SessionShare    int
	SessionName     string
}

// Runtime executes one Cascade program.
type Runtime struct {
	// mu serializes the scheduler's mutation entry points (Step, Eval,
	// Idle, Restore) against Stats and Snapshot, so monitoring
	// goroutines can observe a consistent between-steps state while the
	// controller runs. Everything else remains controller-only.
	mu sync.Mutex

	opts Options
	par  int // resolved Parallelism
	vclk vclock.Clock

	// ver is the program version being executed (version.go): never nil,
	// replaced whole by install, its exec design nil until the first eval.
	ver *version

	// slots is the schedule table (scheduler.go): one row per scheduled
	// engine, in order, with its transport client — a direct in-process
	// call (a local client, zero-copy), or an engine hosted on a daemon,
	// whose share of each round travels in the daemon's one frame. The
	// engine behind a user subprogram's client, in-process or hosted,
	// belongs to its lifecycle record (placed), which makes every move. fifos
	// are the design's FIFO transfer meters, scheduled or forwarded; the
	// rest is the loop's working state.
	slots      []slot
	fifos      []*stdlib.FIFO
	batch      []int
	from       int                                 // slot whose outputs route is delivering
	deliverFn  func(name string, val *bits.Vector) // r.deliver, bound once: a method value per route would allocate
	cursor     atomic.Int64                        // next batch index a worker lane claims
	lanes      sync.WaitGroup
	stdEngines map[string]engine.Engine

	// remoteT is the shared connection to the remote engine daemon (nil
	// unless Options.Remote is set) and link the round framing over it
	// that every client spawned there shares — made and dropped together,
	// though the clients keep their link (and it the connection, which
	// redials) for as long as they are scheduled; hosted is the buffer a
	// round collects its members in. xstats accumulates per-path
	// transport counters across the restarts that retire and rebuild
	// clients, so :engines reports lifetime totals. xerrs collects the
	// errors clients latch mid-step, for the controller to report from
	// the observable part of the step, keeping the View single-threaded.
	remoteT    *transport.TCP
	link       *transport.Link
	hosted     []*transport.Client
	remoteSess uint32 // daemon session ID (0: sessionless)
	xstats     map[string]transport.Stats
	xerrMu     sync.Mutex
	xerrs      []error

	// sup is the self-healing supervisor for the daemon connection (nil:
	// supervision disabled). committed holds each remote engine's last
	// end-of-step state snapshot — the failover seed (an engine currently
	// re-seeded locally, awaiting re-host, is one whose lifecycle record
	// is off the Hosted rung although Options.Remote is set); supFails
	// counts the round-trip failures the current step latched against
	// the breaker (fed by flushTransportErrs, drained by
	// serviceSupervision, both controller-only).
	sup       *supervise.Supervisor
	committed map[string]*sim.State
	supFails  int
	// supStale marks that a latched failure was proof of state loss — the
	// daemon restarted (its state is journal-stale) or no longer holds an
	// engine — rather than of unreachability: the breaker is force-tripped
	// regardless of threshold.
	supStale bool

	// placed holds one lifecycle record per user subprogram of the
	// executing design — its elaboration, current engine and tier, and
	// pending compiles — sorted by path, the order the service pass visits
	// them in; a scheduled subprogram's row points at its record.
	placed  []*lifecycle.Placement
	evalCtx context.Context // context the current program version was eval'd under
	phase   Phase

	// moves counts the engine moves settle has applied, per row of the
	// lifecycle table — [cause][from][to]: the one book Stats' fault,
	// eviction, demotion, failover and re-host counters are read from.
	moves [lifecycle.Recovered + 1][lifecycle.Fabric + 1][lifecycle.Fabric + 1]int

	// pers is the crash-safe persistence attachment (nil when the
	// runtime was built with New rather than Open); outBytes counts
	// display-output bytes flushed to the view, the offset checkpoints
	// record so a recovered process continues the output stream exactly.
	pers     *persister
	outBytes uint64

	steps     uint64
	ticks     uint64
	finished  bool
	displayQ  []string
	olIters   int
	olWallCap int // wall-clock-adaptive burst bound (paper §4.4)
	// stepCeil, when nonzero, is the step journal replay must not run
	// past: open-loop bursts are clamped to end on it.
	stepCeil  uint64
	startupPs uint64 // virtual time at which execution first began
	// constructDisplays counts the display lines the previous build's
	// initial blocks emitted during engine construction: the program is
	// append-only, so on re-integration the same lines re-appear as a
	// prefix and are suppressed (the user already saw them), while
	// freshly eval'd initial blocks still print.
	constructDisplays int
}

// New creates a runtime. Missing options get paper-calibrated defaults.
func New(opts Options) *Runtime {
	if opts.World == nil {
		opts.World = stdlib.NewWorld()
	}
	if opts.Device == nil {
		opts.Device = fpga.NewCycloneV()
	}
	if opts.Toolchain == nil {
		opts.Toolchain = toolchain.New(opts.Device, toolchain.DefaultOptions())
	}
	if opts.Model == (vclock.Model{}) {
		opts.Model = vclock.DefaultModel()
	}
	if opts.View == nil {
		opts.View = &BufView{Quiet: true}
	}
	if opts.OpenLoopTargetPs == 0 {
		opts.OpenLoopTargetPs = 100 * vclock.Ms
	}
	if opts.Injector != nil {
		// One injector feeds all three fault surfaces: compile attempts
		// (toolchain), placements and region integrity (device), and
		// MMIO transactions (hardware engines, via the device). Under a
		// tenant ID the toolchain wiring is tenant-scoped — the shared
		// toolchain's global injector (another tenant's, or nobody's)
		// must never see this runtime's compiles, and vice versa. The
		// device is this runtime's own partition either way.
		opts.Toolchain.SetTenantFaults(opts.Tenant, opts.Injector)
		opts.Device.SetFaults(opts.Injector)
	}
	if opts.Observer != nil {
		// One observer sees the whole pipeline: the toolchain stamps
		// compile events with job virtual times, the injector reports
		// fault sites, and the runtime emits the controller-side
		// lifecycle (phases, hot swaps, evictions, checkpoints). Scoped
		// per tenant on a shared toolchain, like the injector.
		opts.Toolchain.SetTenantObserver(opts.Tenant, opts.Observer)
		if opts.Injector != nil {
			opts.Injector.SetObserver(opts.Observer)
		}
	}
	if opts.Farm != nil && opts.Toolchain.Farm() == nil {
		// Idempotent on shared toolchains: the first tenant runtime
		// installs the farm, later ones find it already in place.
		opts.Toolchain.UseFarm(*opts.Farm)
	}
	par := opts.Parallelism
	if par == 0 {
		par = goruntime.NumCPU()
	}
	if par < 1 {
		par = 1
	}
	r := &Runtime{
		opts:       opts,
		par:        par,
		ver:        emptyVersion(),
		stdEngines: map[string]engine.Engine{},
		xstats:     map[string]transport.Stats{},
		committed:  map[string]*sim.State{},
		olIters:    64,
		olWallCap:  1 << 14, // ramps up while bursts stay cheap
	}
	r.deliverFn = r.deliver
	if opts.Supervise != nil {
		r.sup = supervise.New(*opts.Supervise, opts.Observer)
	}
	// Emit (controller-only) stamps events off the runtime's virtual
	// clock; concurrent emitters (toolchain workers, transports, the
	// injector) use EmitAt and never touch this closure.
	opts.Observer.SetVirtualNow(func() uint64 { return r.vclk.Now() })
	// Serve /metrics, /trace, and /debug/pprof if the observer names an
	// address (no-op otherwise; idempotent if the caller already did).
	if err := opts.Observer.StartHTTP(); err != nil {
		opts.View.Error(err)
	} else if addr := opts.Observer.HTTPAddr(); addr != "" {
		opts.View.Info("observability endpoint on http://%s (/metrics, /trace, /debug/pprof)", addr)
	}
	return r
}

// Observer returns the configured observability hub (nil when disabled).
func (r *Runtime) Observer() *obsv.Observer { return r.opts.Observer }

// obs is shorthand for the (possibly nil) observer at instrumentation
// sites.
func (r *Runtime) obs() *obsv.Observer { return r.opts.Observer }

// compile is the placements' Compile callback: it starts a background
// compilation for the target tier — the fabric flow (Figure 9.2 -> 9.3),
// or in parallel with it the native tier's closure-threaded Go, a cheap
// artifact that replaces the interpreter within virtual milliseconds —
// under this runtime's tenant scope (the default tenant when
// Options.Tenant is ""), bound to the context the current program version
// was eval'd under (install records it before it builds a placement). It
// declines every tier with the JIT off, the native tier unless the
// feature is on, and the fabric while a daemon is configured: hosted
// engines compile on the daemon's toolchain (the spawn request carries
// the JIT flag), and a failed-over one takes the native rung only — the
// outage would abandon a fabric compile on re-host.
func (r *Runtime) compile(d *toolchain.Design, t lifecycle.Tier, now uint64) *toolchain.Job {
	f, native := r.opts.Features, t == lifecycle.Native
	if f.DisableJIT || native && !f.NativeTier || t == lifecycle.Fabric && r.opts.Remote != nil {
		return nil
	}
	return r.opts.Toolchain.SubmitDesign(r.evalCtx, r.opts.Tenant, d, !native && !f.Native, native, now)
}

// swapEngine is the placements' Swap callback. A hot swap between
// in-process rungs happens inside the path's local client, so its
// transport stats and the scheduler's dispatch route are untouched.
// Otherwise the engine brings a client of its own — a hosted one is the
// client Runtime.host spawned, an in-process one is wrapped — appended to
// the schedule on a fresh build (install resolves the table once every
// row is in), in the superseded client's row (its counters banked) when a
// failover or re-host moved it across the wire.
func (r *Runtime) swapEngine(p *lifecycle.Placement, e engine.Engine) {
	s := r.slotOf(p.Path)
	c, hosted := e.(*transport.Client)
	if s != nil && !hosted && !s.c.Remote() {
		s.c.SwapLocal(e)
		return
	}
	if !hosted {
		c = transport.NewLocalClient(e, r.noteTransportErr)
	}
	if s == nil {
		r.slots = append(r.slots, slot{path: p.Path, c: r.adopt(p.Path, c), p: p})
		return
	}
	r.retireClient(s.path, s.c)
	s.c = r.adopt(p.Path, c)
}

// newPlacement registers the lifecycle record for one user subprogram
// of the executing design, the successor of prev (nil: none).
func (r *Runtime) newPlacement(prev *lifecycle.Placement, path string, f *elab.Flat) *lifecycle.Placement {
	cfg := lifecycle.Config{
		Path:       path,
		Flat:       f,
		IO:         &laneIO{},
		Now:        r.now,
		Eager:      r.opts.Features.EagerSim,
		NativeMode: r.opts.Features.Native,
		Device:     r.opts.Device,
		Injector:   r.opts.Injector,
		Compile:    r.compile,
		Swap:       r.swapEngine,
		Discard:    r.discardLane,
	}
	if r.opts.Remote != nil {
		cfg.Host = r.host
	}
	p := lifecycle.NewFrom(prev, cfg)
	r.placed = append(r.placed, p)
	sort.Slice(r.placed, func(i, j int) bool { return r.placed[i].Path < r.placed[j].Path })
	return p
}

// eachJob visits every pending compile in service order: native targets
// first, then fabric, each in sorted path order — never map order,
// because with admission control on, observing a job ready frees its
// in-flight slot and a shed job's resubmit consumes one, so the visit
// order decides which engine wins the slot and must not vary run to run.
func (r *Runtime) eachJob(visit func(*lifecycle.Placement, lifecycle.Tier, *toolchain.Job)) {
	for _, t := range [...]lifecycle.Tier{lifecycle.Native, lifecycle.Fabric} {
		for _, p := range r.placed {
			if j := p.Pending(t); j != nil {
				visit(p, t, j)
			}
		}
	}
}

// teardown retires every engine of the executing design: lifecycle
// records cancel their now-obsolete compiles (finished flows stay in
// the toolchain's bitstream cache) and end their engine — an in-process
// one releasing its fabric, a hosted one over the protocol, which frees
// the daemon-side instance; the persistent stdlib peripherals are only
// unwrapped. Each client's counters are banked for its successor.
func (r *Runtime) teardown() {
	for _, p := range r.placed {
		r.settle(p, p.Teardown())
	}
	for _, s := range r.slots {
		r.retireClient(s.path, s.c)
	}
	r.slots, r.fifos, r.placed = nil, nil, nil // an empty table has nothing to resolve
}

// setPhase transitions the JIT phase, tracing the transition and
// updating the phase gauge. Controller goroutine only.
func (r *Runtime) setPhase(p Phase) {
	if r.phase == p {
		return
	}
	prev := r.phase
	r.phase = p
	if o := r.opts.Observer; o != nil {
		o.Emit(obsv.EvPhase, "", prev.String()+" -> "+p.String())
		o.Phase.Set(int64(p))
	}
}

// World returns the virtual peripheral board.
func (r *Runtime) World() *stdlib.World { return r.opts.World }

// Phase returns the current JIT phase.
func (r *Runtime) Phase() Phase { return r.phase }

// Ticks returns completed virtual clock ticks.
func (r *Runtime) Ticks() uint64 { return r.ticks }

// Steps returns completed scheduler time steps (two per tick); this is
// also the value of $time.
func (r *Runtime) Steps() uint64 { return r.steps }

// VirtualNow returns the virtual time in picoseconds.
func (r *Runtime) VirtualNow() uint64 { return r.vclk.Now() }

// Clock returns the virtual clock (cost breakdown for benches).
func (r *Runtime) Clock() *vclock.Clock { return &r.vclk }

// Finished reports whether the program executed $finish.
func (r *Runtime) Finished() bool { return r.finished }

// AreaLEs returns the fabric area of the current hardware engine(s).
func (r *Runtime) AreaLEs() int {
	area := 0
	for _, p := range r.placed {
		if hw := p.Fabric(); hw != nil {
			area += hw.AreaLEs()
		}
	}
	return area
}

// Parallelism returns the resolved engine-dispatch width.
func (r *Runtime) Parallelism() int { return r.par }

// StartupPs returns the virtual time between the first Eval and the
// first executed step (the "time to first instruction" the paper reports
// as under one second).
func (r *Runtime) StartupPs() uint64 { return r.startupPs }

// engine IO lanes --------------------------------------------------------

// laneIO is the engine.IOHandler handed to each engine. System-task side
// effects land in the engine's own lane — possibly from a worker lane
// while a batch executes in parallel — and the controller drains lanes in
// schedule order once the batch has joined, which keeps the interrupt
// queue's ordering deterministic and identical to a serial schedule.
//
// Flush-ordering contract (TestLaneFlushOrdering): one lane is appended
// to by at most one goroutine at a time — the worker lane its engine is
// dispatched on during a batch, or the controller between batches.
// Remote engines keep to this by construction: their $display/$finish
// events ride back on protocol replies and the transport client replays
// them on the goroutine that issued the frame (the controller, for a
// round), so no transport or daemon goroutine touches a lane. The mutex
// does not provide the ordering; it is the happens-before edge between a
// worker's appends and the controller's drain (the dispatcher's join is
// another, but drainLane must stay correct for an engine the current
// batch did not dispatch). full is set under the mutex with every append
// and read without it, so draining an empty lane — nearly every drain —
// takes no lock.
type laneIO struct {
	mu       sync.Mutex
	full     atomic.Bool
	displays []string
	finished bool
}

// Display implements engine.IOHandler.
func (l *laneIO) Display(text string, newline bool) {
	if newline {
		text += "\n"
	}
	l.mu.Lock()
	l.displays = append(l.displays, text)
	l.full.Store(true)
	l.mu.Unlock()
}

// Finish implements engine.IOHandler.
func (l *laneIO) Finish(code int) {
	l.mu.Lock()
	l.finished = true
	l.full.Store(true)
	l.mu.Unlock()
}

// take removes and returns the lane's buffered output.
func (l *laneIO) take() (displays []string, finished bool) {
	if !l.full.Load() {
		return nil, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	displays, finished = l.displays, l.finished
	l.displays, l.finished = nil, false
	l.full.Store(false)
	return displays, finished
}

// drainLane moves an engine's buffered system-task output onto the
// runtime's interrupt queue. Only user subprograms have lanes, held by
// their lifecycle records; stdlib peripherals emit nothing and pass nil.
// Controller goroutine only.
func (r *Runtime) drainLane(p *lifecycle.Placement) {
	if p == nil {
		return
	}
	displays, fin := p.IO.(*laneIO).take()
	r.displayQ = append(r.displayQ, displays...)
	if fin {
		r.finished = true
	}
}

// discardLane drops an engine's buffered, not-yet-drained output (the
// placements' Discard callback).
func (r *Runtime) discardLane(p *lifecycle.Placement) { p.IO.(*laneIO).take() }

func (r *Runtime) flushDisplays() {
	for _, t := range r.displayQ {
		r.opts.View.Display(t)
		r.outBytes += uint64(len(t))
	}
	r.displayQ = nil
}

// transport clients --------------------------------------------------------

// wrapLocal wraps an in-process engine in a local client.
func (r *Runtime) wrapLocal(path string, e engine.Engine) *transport.Client {
	return r.adopt(path, transport.NewLocalClient(e, r.noteTransportErr))
}

// adopt re-seeds a path's new client with any counters a retired client
// for the same path left behind.
func (r *Runtime) adopt(path string, c *transport.Client) *transport.Client {
	if s, ok := r.xstats[path]; ok {
		c.SeedStats(s)
		delete(r.xstats, path)
	}
	return c
}

// retireClient banks a client's cumulative transport counters before the
// client is dropped (install, forwarding, failover, re-host), so the
// path's lifetime totals survive into its replacement.
func (r *Runtime) retireClient(path string, c *transport.Client) {
	s := r.xstats[path]
	s.Add(c.Stats())
	r.xstats[path] = s
}

// noteTransportErr is the onErr hook handed to every client. Clients
// latch failures on whichever goroutine issued the frame, mid-step, so
// the error is queued here and reported by the controller from the
// observable part of the step, preserving the View's single-threaded
// contract.
func (r *Runtime) noteTransportErr(err error) {
	r.xerrMu.Lock()
	r.xerrs = append(r.xerrs, err)
	r.xerrMu.Unlock()
}

// flushTransportErrs reports queued transport errors. Controller only.
func (r *Runtime) flushTransportErrs() {
	r.xerrMu.Lock()
	errs := r.xerrs
	r.xerrs = nil
	r.xerrMu.Unlock()
	for _, err := range errs {
		// Failures to reach or be served by the daemon (dial failed, retry
		// budget exhausted, engine refused) count against the supervisor's
		// breaker; the ones that prove its state is gone trip it outright.
		if r.sup != nil && errors.Is(err, transport.ErrEngineUnavailable) {
			r.supFails++
			if errors.Is(err, transport.ErrDaemonRestarted) || errors.Is(err, transport.ErrEngineLost) {
				r.supStale = true
			}
		}
		r.opts.View.Error(err)
	}
}

// connectRemote dials the remote engine daemon and opens the tenant
// session (which bills nothing), once. Eval and Restore call it before
// anything is journaled or replaced, so an unreachable daemon refuses the
// request with the running program untouched. It is a no-op in-process,
// once connected, and while the breaker holds the daemon for dead (install
// then builds local engines and recovery re-hosts them).
func (r *Runtime) connectRemote() error {
	ro := r.opts.Remote
	if ro == nil || r.remoteT != nil || r.sup.State() != supervise.Closed {
		return nil
	}
	t, err := transport.DialTCP(ro.Addr, transport.TCPOptions{
		DialTimeout: ro.DialTimeout,
		CallTimeout: ro.CallTimeout,
		Retries:     ro.Retries,
		Injector:    r.opts.Injector,
		Observer:    r.opts.Observer,
	})
	if err != nil {
		return fmt.Errorf("remote engine: %w", err)
	}
	if ro.SessionQuotaLEs > 0 {
		sess, err := r.openSession(t)
		if err != nil {
			t.Close()
			return fmt.Errorf("remote session: %w", err)
		}
		r.remoteSess = sess
		r.obs().Emit(obsv.EvSpawn, "session",
			fmt.Sprintf("daemon session %d quota=%dLEs", sess, ro.SessionQuotaLEs))
	}
	r.remoteT = t
	r.link = transport.NewLink(t, r.now, r.vclk.Now)
	return nil
}

// openSession opens this runtime's tenant session on the daemon behind t.
func (r *Runtime) openSession(t *transport.TCP) (uint32, error) {
	ro := r.opts.Remote
	return transport.OpenSession(t, ro.SessionName, ro.SessionQuotaLEs, ro.SessionShare, r.vclk.Now())
}

// host is the placements' Host callback and the one place the runtime
// spawns on its daemon, for an install and a re-host alike: the module is
// printed back to Verilog, shipped with its parameter bindings over the
// shared link, and re-elaborated on the far side. The client's IO lands
// in the same lane an in-process engine would use — piggybacked on
// replies and replayed on the calling goroutine, so ordering is
// untouched. The daemon is connected: an install has Eval's or Restore's
// connectRemote in front, a re-host a probe. One that restarted without
// its journal no longer knows this runtime's session, so an
// ErrUnknownSession refusal opens a fresh one and tries once more (one
// resumed from a journal re-binds the old ID and the first spawn just
// works).
func (r *Runtime) host(p *lifecycle.Placement) (engine.Engine, error) {
	sub := r.ver.exec.Sub(p.Path)
	spec := transport.SpawnSpec{
		Path:    p.Path,
		Source:  verilog.Print(sub.Module),
		Params:  sub.Params,
		Eager:   r.opts.Features.EagerSim,
		JIT:     !r.opts.Features.DisableJIT,
		Session: r.remoteSess,
	}
	c, err := r.link.Spawn(spec, p.IO, r.noteTransportErr)
	if r.remoteSess != 0 && errors.Is(err, transport.ErrUnknownSession) {
		if sess, serr := r.openSession(r.remoteT); serr == nil {
			r.remoteSess, spec.Session = sess, sess
			r.opts.View.Info("daemon session re-opened as %d (previous session lost)", sess)
			c, err = r.link.Spawn(spec, p.IO, r.noteTransportErr)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("remote engine %s: %w", p.Path, err)
	}
	c.SetObserver(r.opts.Observer)
	r.obs().Emit(obsv.EvSpawn, p.Path, "remote engine on "+r.opts.Remote.Addr)
	return c, nil
}

// CloseRemote tears down the connection to the remote engine daemon, if
// one was ever established.
func (r *Runtime) CloseRemote() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.remoteT == nil {
		return nil
	}
	var err error
	if r.remoteSess != 0 {
		err = transport.CloseSession(r.remoteT, r.remoteSess, r.vclk.Now())
		r.remoteSess = 0
	}
	if cerr := r.remoteT.Close(); err == nil {
		err = cerr
	}
	r.remoteT, r.link = nil, nil
	return err
}

// Shutdown tears the runtime down for good: background compilations are
// cancelled, fabric regions released, every engine Ended (for remote
// engines that is a protocol round-trip freeing the daemon-side
// instance), the daemon connection closed, and persistence synced and
// closed. A hypervisor calls this when a session closes so the tenant's
// region and daemon state are actually reclaimed; the runtime must not
// be used afterwards.
func (r *Runtime) Shutdown() error {
	r.mu.Lock()
	r.resetFreshLocked()
	r.mu.Unlock()
	err := r.CloseRemote()
	if perr := r.ClosePersistence(); err == nil && perr != nil {
		err = perr
	}
	return err
}

// Eval integrates new source into the running program: module
// declarations enter the outer scope; items are appended to the implicit
// root module. The extended program goes through the whole front end
// first (integrate), so errors leave the running program untouched
// (paper §3.1). On success all user logic returns to software engines and
// JIT compilation restarts (§4.4).
func (r *Runtime) Eval(src string) error {
	return r.EvalCtx(context.Background(), src)
}

// EvalCtx is Eval with a context: background compilations kicked off for
// this program version are bound to ctx, so cancelling it aborts any
// still-queued compile jobs instead of leaking them.
func (r *Runtime) EvalCtx(ctx context.Context, src string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, err := integrate(r.ver, src, !r.opts.Features.DisableInline)
	if err != nil {
		return err
	}
	if err := r.connectRemote(); err != nil {
		return err
	}
	// Nothing below rejects source; only a journal disk error still refuses.
	for _, w := range verilog.Lint(v.mods, v.items) {
		r.opts.View.Info("%s", w)
	}
	if o := r.obs(); o != nil {
		o.Emit(obsv.EvEval, "", fmt.Sprintf("modules=%d items=%d bytes=%d", len(v.mods), len(v.items), len(src)))
		for _, s := range v.flat.UserSubs() {
			o.Emit(obsv.EvElaborate, s.Path, fmt.Sprintf("vars=%d", len(v.flatElabs[s.Path].Vars)))
		}
	}
	// Journaled before it is installed, so a crash in between replays an
	// eval the crashed process had accepted but not applied, never the
	// reverse — and replay, running the same pure front end over the same
	// source, accepts it again and reaches the same state.
	if err := r.persistEval(src); err != nil {
		return err
	}
	return r.install(ctx, v, r.captureStates())
}

// MustEval is Eval for known-good source; it panics on error.
func (r *Runtime) MustEval(src string) {
	if err := r.Eval(src); err != nil {
		panic(err)
	}
}

// captureStates snapshots per-subprogram state from the current engines,
// keyed by flat subprogram path (un-inlining names when necessary).
func (r *Runtime) captureStates() map[string]*sim.State {
	out := map[string]*sim.State{}
	if r.ver.exec == nil {
		return out
	}
	for _, s := range r.ver.exec.UserSubs() {
		if sl := r.slotOf(s.Path); sl != nil {
			out[s.Path] = sl.c.GetState()
		}
	}
	if merged := out[ir.RootPath]; r.ver.inlined && merged != nil {
		return r.ver.split(merged)
	}
	return out
}

// install makes v the executing version: it retires every engine of the
// previous one and builds v's — Figure 9 phase 1 (or 2 when inlined) —
// seeded from saved, releasing any hardware, cancelling now-obsolete
// background compilations and submitting fresh ones bound to ctx. It only
// builds engines: everything that can reject a program ran in integrate,
// before the caller committed. The errors left are a daemon that is
// reachable (connectRemote ran) yet refuses a spawn, and stdlib.New on a
// component type ir.Build already checked; neither can be shown to occur,
// so nothing is rolled back — Eval reports it, Restore resets to fresh.
func (r *Runtime) install(ctx context.Context, v *version, saved map[string]*sim.State) error {
	r.evalCtx = ctx // evictions resubmit compiles under the same context
	// Each new placement's synthesis starts from the netlist of the one it
	// replaces at the same path, so it pays for what the version changed.
	prev := make(map[string]*lifecycle.Placement, len(r.placed))
	for _, p := range r.placed {
		prev[p.Path] = p
	}
	r.teardown()
	r.ver = v
	r.committed = map[string]*sim.State{}
	evalStart := r.vclk.Now()
	if v.inlined {
		// Inlining costs a pass over the program.
		r.vclk.AdvanceOverhead(uint64(len(v.execElabs[ir.RootPath].Vars)) * r.opts.Model.DispatchPs / 8)
	}

	// Stdlib engines persist across versions; a new one starts from its
	// saved state if there is one (a restore), so the initial data-plane
	// broadcast below carries the snapshot's values: user engines (whose
	// restored inputs already match) see no change, no fabricated clock edge.
	for _, s := range v.exec.StdSubs() {
		e, ok := r.stdEngines[s.Path]
		if !ok {
			var err error
			e, err = stdlib.New(s.Path, s.StdType, s.Params, r.opts.World)
			if err != nil {
				return err
			}
			if st := saved[s.Path]; st != nil {
				e.SetState(st)
			}
			r.stdEngines[s.Path] = e
		}
		r.slots = append(r.slots, slot{path: s.Path, c: r.wrapLocal(s.Path, e)})
	}

	// User engines start in software with preserved state. On
	// re-integration, initial blocks re-execute inside the fresh
	// engines; their variable effects are overwritten by the restored
	// state and the display side effects the user has already seen — a
	// deterministic prefix, because the program is append-only — are
	// suppressed. Initial blocks in freshly eval'd code still print.
	qMark := len(r.displayQ)
	for _, s := range v.exec.UserSubs() {
		p := r.newPlacement(prev[s.Path], s.Path, v.execElabs[s.Path])
		// The engine starts on the daemon when there is one — unless a
		// tripped breaker presumes it dead: a re-integration mid-outage
		// builds failed-over software engines and lets recovery re-host
		// them later. (A nil supervisor always reports Closed.)
		tier := lifecycle.Interpreter
		if r.opts.Remote != nil && r.sup.State() == supervise.Closed {
			tier = lifecycle.Hosted
		}
		tr := p.Start(tier, v.seed(saved, s.Path))
		if tr.Err != nil {
			return tr.Err
		}
		r.settle(p, tr)
		r.drainLane(p) // initial-block output emitted at construction
	}
	constructed := len(r.displayQ) - qMark
	if drop := min(r.constructDisplays, constructed); drop > 0 {
		r.displayQ = append(r.displayQ[:qMark], r.displayQ[qMark+drop:]...)
	}
	r.constructDisplays = constructed
	r.reschedule()
	// Initial data-plane broadcast: every engine announces its output
	// values before the first scheduler iteration, so no engine acts on
	// a zero-valued input that the producer never actually drove.
	for i := range r.slots {
		r.route(i)
	}
	if r.phase == PhaseEmpty {
		r.startupPs = r.vclk.Now() - evalStart
	}
	r.setSoftwarePhase()
	return nil
}

// ProgramSource renders the current program as Verilog (the source a
// user has eval'd so far, echoed back by the REPL's :program command).
func (r *Runtime) ProgramSource() string { return r.ver.source() }

// CompileReadyAt returns the virtual time at which the latest pending
// background compilation finishes, and whether one is pending.
func (r *Runtime) CompileReadyAt() (uint64, bool) {
	var latest uint64
	found := false
	r.eachJob(func(_ *lifecycle.Placement, _ lifecycle.Tier, j *toolchain.Job) {
		if at, ok := j.ReadyAt(); ok {
			if at > latest {
				latest = at
			}
			found = true
		}
	})
	return latest, found
}

func (r *Runtime) now() uint64 { return r.steps }
