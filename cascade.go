// Package cascade is a JIT compiler and runtime for Verilog, a Go
// reproduction of "Just-in-Time Compilation for Verilog: A New Technique
// for Improving the FPGA Programming Experience" (Schkufza, Wei,
// Rossbach — ASPLOS 2019).
//
// Code eval'd into a Runtime begins executing immediately in a software
// simulator while a (virtual) vendor toolchain compiles a hardware
// engine in the background; when it finishes, execution migrates onto
// the simulated FPGA and simply gets faster — printf debugging, IO side
// effects on the virtual peripheral board, and mid-run code additions
// keep working throughout.
//
// Quick start:
//
//	rt := cascade.New() // paper-calibrated defaults; see Option for knobs
//	rt.MustEval(cascade.DefaultPrelude) // Clock clk; Pad#(4) pad; Led#(8) led
//	rt.MustEval(`
//	    reg [7:0] cnt = 1;
//	    always @(posedge clk.val) cnt <= (cnt == 8'h80) ? 1 : (cnt << 1);
//	    assign led.val = cnt;
//	`)
//	rt.RunTicks(1000)
//	fmt.Printf("leds: %08b, engine: %v\n", rt.World().Led("main.led"), rt.Phase())
//
// Runtimes are configured with functional options (cascade.WithDevice,
// cascade.WithParallelism, cascade.DisableOpenLoop, …); an Options
// struct literal works too, via WithOptions. Stats returns a stable
// snapshot of the runtime's status, and EvalCtx/RunTicksCtx accept a
// context for cancellation — cancelling aborts in-flight background
// compilations.
//
// The package is a thin facade over the implementation in internal/:
// see internal/runtime (scheduler and JIT state machine), internal/sim
// (reference event-driven interpreter), internal/netlist (synthesis and
// the compiled evaluator), internal/toolchain and internal/fpga (the
// blackbox vendor-flow and device models), and internal/repl (the
// interactive interface).
package cascade

import (
	"io"

	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/hyper"
	"cascade/internal/obsv"
	"cascade/internal/repl"
	"cascade/internal/runtime"
	"cascade/internal/stdlib"
	"cascade/internal/supervise"
	"cascade/internal/toolchain"
	"cascade/internal/transport"
	"cascade/internal/vclock"
)

// Core types, re-exported.
type (
	// Runtime executes one Cascade program (paper §3.4).
	Runtime = runtime.Runtime
	// Options configures a Runtime; construct one directly for
	// WithOptions or let the functional options fill one in.
	Options = runtime.Options
	// Features holds the ablation and mode switches (zero value = full JIT).
	Features = runtime.Features
	// Stats is a stable status snapshot (phase, engine locations,
	// virtual-time breakdown, compile-cache counters).
	Stats = runtime.Stats
	// EngineStat describes one scheduled engine inside Stats.
	EngineStat = runtime.EngineStat
	// CompileStats counts the toolchain job service's work (cache
	// hits/misses, joins, cancellations).
	CompileStats = toolchain.Stats
	// Phase is the JIT state of the program (paper Figure 9).
	Phase = runtime.Phase
	// View receives program output and runtime status.
	View = runtime.View
	// BufView is a View that records output (tests, tooling).
	BufView = runtime.BufView
	// World is the virtual peripheral board: buttons, LEDs, streams.
	World = stdlib.World
	// Device is the simulated FPGA.
	Device = fpga.Device
	// Toolchain is the blackbox vendor-compiler model.
	Toolchain = toolchain.Toolchain
	// ToolchainOptions tunes the compile-latency model.
	ToolchainOptions = toolchain.Options
	// TimeModel assigns virtual-time costs to runtime work.
	TimeModel = vclock.Model
	// REPL is the interactive read-eval-print interface (paper §3.1).
	REPL = repl.REPL
	// Snapshot is a portable capture of a running program (paper §9's
	// virtual-machine-migration direction): take one with
	// Runtime.Snapshot, ship it (EncodeSnapshot/DecodeSnapshot), and
	// Restore it onto a fresh runtime on another device.
	Snapshot = runtime.Snapshot
	// FaultInjector deterministically injects compile, bus, and region
	// faults (internal/fault); wire one in with WithFaultInjector to
	// exercise the runtime's degradation paths: transient compile
	// failures retry with virtual-time backoff, and a faulted hardware
	// engine is evicted back to software between steps.
	FaultInjector = fault.Injector
	// FaultConfig selects a fault schedule: a seed plus per-surface
	// probabilities and caps (probability 1 with a cap scripts exact
	// fault counts). Its Outages method plans seeded outage windows from
	// the same seed (for FarmOptions.Outages).
	FaultConfig = fault.Config
	// FaultStats counts the injector's decisions.
	FaultStats = fault.Stats
	// PersistOptions configures crash-safe persistence: the directory,
	// the checkpoint cadence, and the journal fsync policy.
	PersistOptions = runtime.PersistOptions
	// PersistStats counts the persistence layer's work (journal
	// records, checkpoints, replay).
	PersistStats = runtime.PersistStats
	// RecoveryInfo describes what Open recovered from a persistence
	// directory: the checkpoint used, the journal records replayed, and
	// the resumed position.
	RecoveryInfo = runtime.RecoveryInfo
	// RemoteOptions configures the connection to a cascade-engined
	// daemon hosting the program's user engines (WithRemoteEngine).
	RemoteOptions = runtime.RemoteOptions
	// SuperviseOptions tunes the self-healing supervisor
	// (WithSupervision): probe cadence, breaker failure threshold, and
	// reopen timeout — all in virtual time.
	SuperviseOptions = supervise.Options
	// SuperviseStats counts the supervisor's work inside Stats: breaker
	// state, probes, trips, failovers, re-hosts.
	SuperviseStats = supervise.Stats
	// Observer is the observability hub (internal/obsv): a bounded JIT
	// lifecycle trace ring, a Prometheus-text metrics registry, and an
	// optional HTTP endpoint. Wire one in with WithObservability (builds
	// one) or WithObserver (shares an existing one); a nil Observer
	// disables observability at near-zero cost.
	Observer = obsv.Observer
	// ObservabilityOptions configures an Observer: the HTTP address, the
	// trace-ring capacity, and (for tests) a pinned wall clock.
	ObservabilityOptions = obsv.Options
	// TraceEvent is one recorded lifecycle event: what happened, to
	// which engine path, stamped with both wall and virtual time.
	TraceEvent = obsv.Event
	// TraceEventKind classifies a TraceEvent (compile-submit, cache-hit,
	// hot-swap, eviction, fault, recovery, …).
	TraceEventKind = obsv.EventKind
	// TransportStats counts one transport's protocol traffic:
	// round-trips, bytes each way, injected drops, and retries.
	TransportStats = transport.Stats
	// EngineHost is the serving side of the engine protocol — the core
	// of cmd/cascade-engined, embeddable for in-process loopback setups.
	EngineHost = transport.Host
	// EngineHostOptions configures an EngineHost (device, toolchain,
	// fault injector, JIT switch).
	EngineHostOptions = transport.HostOptions
	// Hypervisor virtualizes one shared Device and Toolchain across N
	// tenant Sessions (internal/hyper): fabric spatially partitioned into
	// per-tenant regions, tenants time-multiplexed when regions do not
	// all fit, compile workers split by fair share. Build one with Serve.
	Hypervisor = hyper.Hypervisor
	// Session is one hypervisor tenant: the Eval/RunTicks/Stats/Snapshot
	// surface of a Runtime over a private fabric partition, plus Close.
	// Neighbours cost it wall time only — its virtual clock and output
	// are byte-identical to running solo.
	Session = hyper.Session
	// SessionInfo is one live session's scheduling view (ID, phase,
	// region, compile share, quanta).
	SessionInfo = hyper.SessionInfo
	// ServeOption configures a Hypervisor (cascade.Serve).
	ServeOption = hyper.Option
	// SessionOption configures a Session (Hypervisor.NewSession).
	SessionOption = hyper.SessionOption
	// FarmOptions configures the sharded compile farm
	// (WithCompileFarm): worker count or remote links, per-shard queue
	// depth, cache replication factor, and deterministic outage
	// schedules for testing.
	FarmOptions = toolchain.FarmOptions
	// FarmStats counts the farm's routing work inside Stats: jobs
	// routed, steals, reroutes, sheds, peer cache hits, replication
	// placements, and control-message traffic.
	FarmStats = toolchain.FarmStats
	// ShardOutage is one deterministic shard-down window on the farm's
	// route-decision clock (FarmOptions.Outages): Target is the shard,
	// [From, To) the route ordinals it is down for. FaultConfig.Outages
	// plans seeded ones.
	ShardOutage = fault.Window
	// ShardLink is one farm worker endpoint: in-process by default,
	// or a cascade-engined -compile-worker daemon via DialCompileFarm.
	ShardLink = toolchain.ShardLink
)

// Typed failure sentinels, matchable with errors.Is through any number
// of wrapping layers.
var (
	// ErrEngineUnavailable reports that a remote engine's retry budget
	// was exhausted without a successful round-trip. With supervision
	// enabled (WithSupervision) the runtime fails over instead of
	// surfacing it; without, the run degrades permanently.
	ErrEngineUnavailable = transport.ErrEngineUnavailable
	// ErrDaemonRestarted reports that the engine daemon's boot epoch
	// changed mid-connection: the process serving this session died and
	// a different incarnation answered. Errors carrying it also match
	// ErrEngineUnavailable.
	ErrDaemonRestarted = transport.ErrDaemonRestarted
	// ErrOverloaded reports that the toolchain's admission control shed
	// a compile submission (ToolchainOptions.MaxQueue); callers back off
	// and resubmit rather than treating the design as uncompilable.
	ErrOverloaded = toolchain.ErrOverloaded
	// ErrShardUnavailable reports that a compile farm could not place a
	// flow on any shard — every worker down or unreachable. Like
	// ErrOverloaded it is a placement verdict, not a compile verdict:
	// the runtime resubmits after a virtual-time backoff and the flow
	// runs once a shard returns.
	ErrShardUnavailable = toolchain.ErrShardUnavailable
)

// NewEngineHost builds an engine-protocol host; serve it on a listener
// with its ServeListener method (see cmd/cascade-engined).
func NewEngineHost(opts EngineHostOptions) *EngineHost { return transport.NewHost(opts) }

// DialCompileFarm connects one ShardLink per address — each a
// cascade-engined daemon started with -compile-worker — for
// FarmOptions.Links / WithCompileFarm. On any dial failure the links
// already made are closed and the error names the failing worker.
func DialCompileFarm(addrs []string) ([]ShardLink, error) {
	return transport.DialFarm(addrs, transport.TCPOptions{})
}

// NewObserver builds a standalone observability hub (see Observer). Most
// callers use WithObservability instead; build one directly to share it
// between a runtime and an embedded EngineHost, or to serve its HTTP
// endpoint (StartHTTP) without a runtime.
func NewObserver(oo ObservabilityOptions) *Observer { return obsv.New(oo) }

// EncodeSnapshot renders a snapshot as a self-contained text blob.
func EncodeSnapshot(s *Snapshot) string { return runtime.EncodeSnapshot(s) }

// DecodeSnapshot parses EncodeSnapshot's format.
func DecodeSnapshot(text string) (*Snapshot, error) { return runtime.DecodeSnapshot(text) }

// JIT phases (paper Figure 9).
const (
	PhaseEmpty     = runtime.PhaseEmpty
	PhaseSoftware  = runtime.PhaseSoftware
	PhaseInlined   = runtime.PhaseInlined
	PhaseHardware  = runtime.PhaseHardware
	PhaseForwarded = runtime.PhaseForwarded
	PhaseOpenLoop  = runtime.PhaseOpenLoop
	PhaseNative    = runtime.PhaseNative
)

// DefaultPrelude declares the standard IO environment (paper §3.2).
const DefaultPrelude = runtime.DefaultPrelude

// New creates a runtime configured by functional options, with
// paper-calibrated defaults for everything left unset: a Cyclone V-sized
// device, the default toolchain model, the default time model, and one
// scheduler lane per CPU.
func New(opts ...Option) *Runtime { return runtime.New(buildOptions(opts)) }

// Serve boots a hypervisor: one shared device and toolchain,
// virtualized across the tenant sessions opened with hv.NewSession.
// Defaults: a fresh Cyclone V, the default toolchain model, 64-tick
// scheduling quanta, quarter-fabric session quotas.
//
//	hv, _ := cascade.Serve()
//	s, _ := hv.NewSession(cascade.SessionQuota(20_000))
//	s.MustEval(cascade.DefaultPrelude)
//	s.MustEval(`reg [7:0] cnt = 0; always @(posedge clk.val) cnt <= cnt + 1; assign led.val = cnt;`)
//	s.RunTicks(1000)
//	defer s.Close()
func Serve(opts ...ServeOption) (*Hypervisor, error) { return hyper.New(opts...) }

// Hypervisor options (cascade.Serve).
var (
	// ServeDevice serves the given shared fabric instead of a fresh
	// Cyclone V.
	ServeDevice = hyper.WithDevice
	// ServeToolchain shares an existing compile service (and its
	// bitstream cache) instead of building one over the device.
	ServeToolchain = hyper.WithToolchain
	// ServeToolchainOptions tunes the toolchain the hypervisor builds
	// when none is supplied.
	ServeToolchainOptions = hyper.WithToolchainOptions
	// ServeQuantum sets the time-multiplexing quantum in virtual clock
	// ticks (default 64).
	ServeQuantum = hyper.WithQuantum
	// ServeDefaultQuota sets the region size sessions get when they do
	// not specify one (default: a quarter of the fabric).
	ServeDefaultQuota = hyper.WithDefaultQuota
	// ServeDefaultCompileShare sets the default per-session bound on
	// concurrent compile workers (default 0: global pool only).
	ServeDefaultCompileShare = hyper.WithDefaultCompileShare
	// ServeObserver wires hypervisor-level metrics (active sessions,
	// per-tenant residency and quanta) into an observability hub.
	ServeObserver = hyper.WithObserver
)

// Session options (Hypervisor.NewSession).
var (
	// SessionID names the session's tenant ID (default "s1", "s2", ...).
	SessionID = hyper.WithID
	// SessionQuota sets the session's fabric region size in logic
	// elements (default: the hypervisor's default quota).
	SessionQuota = hyper.WithQuota
	// SessionCompileShare bounds the session's concurrent compile
	// workers (its fair share of the shared pool).
	SessionCompileShare = hyper.WithCompileShare
	// SessionView directs the session's program output to a View.
	SessionView = hyper.WithView
)

// SessionRuntime seeds the session runtime's configuration from the
// same functional options New accepts (view, features, observer,
// injector, parallelism, ...). Device, Toolchain, and Tenant are owned
// by the hypervisor and overwritten.
func SessionRuntime(opts ...Option) SessionOption {
	return hyper.WithRuntime(buildOptions(opts))
}

// Open creates a runtime with crash-safe persistence (configure it with
// WithPersistence / WithPersistenceOptions) and recovers whatever state
// a previous process left in the persistence directory: the newest
// checkpoint that verifies clean, rolled forward by replaying the
// write-ahead journal. When info.Recovered is true the runtime is
// already mid-execution — skip the usual prelude/program evals and
// continue ticking.
func Open(opts ...Option) (*Runtime, *RecoveryInfo, error) {
	return runtime.Open(buildOptions(opts))
}

// NewWorld creates an empty virtual peripheral board.
func NewWorld() *World { return stdlib.NewWorld() }

// NewCycloneV returns the paper's device: 110K LEs at 50 MHz.
func NewCycloneV() *Device { return fpga.NewCycloneV() }

// NewDevice returns a device with the given capacity and clock.
func NewDevice(capacityLEs int, clockHz uint64) *Device {
	return fpga.NewDevice(capacityLEs, clockHz)
}

// NewToolchain returns a vendor-flow model bound to dev.
func NewToolchain(dev *Device, opts ToolchainOptions) *Toolchain {
	return toolchain.New(dev, opts)
}

// DefaultToolchainOptions returns the paper-calibrated latency model.
func DefaultToolchainOptions() ToolchainOptions { return toolchain.DefaultOptions() }

// NewFaultInjector builds a deterministic fault injector: the same
// config replays the same fault schedule, so failing sessions reproduce
// byte for byte.
func NewFaultInjector(cfg FaultConfig) *FaultInjector { return fault.New(cfg) }

// IsFaultTransient reports whether err is an injected fault the system
// may recover from by retrying (transient compile failures, bus errors,
// region faults); permanent faults report false.
func IsFaultTransient(err error) bool { return fault.IsTransient(err) }

// NewREPL builds an interactive session over a fresh runtime configured
// by opts; program output and status go to out.
func NewREPL(out io.Writer, opts ...Option) (*REPL, error) {
	return repl.New(buildOptions(opts), out)
}

// NewSessionREPL builds an interactive session as a tenant of hv: evals
// and clock ticks route through the hypervisor's residency scheduler,
// and the REPL's :sessions and :stats commands show the multi-tenant
// view. Program output and status go to out. Closing the REPL closes
// its session; the hypervisor and any other tenants keep running.
func NewSessionREPL(hv *Hypervisor, out io.Writer, opts ...SessionOption) (*REPL, error) {
	return repl.NewSession(hv, out, opts...)
}
