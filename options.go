package cascade

import "cascade/internal/obsv"

// Option configures a Runtime at construction (cascade.New). Options
// compose left to right; everything left unset gets a paper-calibrated
// default. The same knobs remain reachable through an Options struct
// literal passed as WithOptions, which composes with the other options.
type Option func(*Options)

// buildOptions folds a list of functional options into an Options value.
func buildOptions(opts []Option) Options {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithOptions overlays a whole Options struct (escape hatch for callers
// that already hold one); later options still apply on top. Default:
// the zero Options. Replaces everything set so far, Features included.
func WithOptions(o Options) Option {
	return func(dst *Options) { *dst = o }
}

// WithWorld supplies the virtual peripheral board the program's stdlib
// components (LEDs, pads, streams) attach to. Default: a fresh empty
// World. Independent of Features.
func WithWorld(w *World) Option {
	return func(o *Options) { o.World = w }
}

// WithDevice targets a specific simulated FPGA. Default: a Cyclone V
// (110K LEs at 50 MHz, the paper's board). With Features.DisableJIT
// the device is never programmed but still bounds area accounting.
func WithDevice(d *Device) Option {
	return func(o *Options) { o.Device = d }
}

// WithToolchain supplies the vendor-flow model (and its bitstream
// cache); sharing one Toolchain across runtimes shares the cache.
// Default: a fresh toolchain with paper-calibrated latencies over the
// runtime's device. Unused when Features.DisableJIT is set.
func WithToolchain(tc *Toolchain) Option {
	return func(o *Options) { o.Toolchain = tc }
}

// WithTimeModel overrides the virtual-time cost model. Default: the
// paper-calibrated model (vclock.DefaultModel). Applies in every
// Features mode — ablations change which costs occur, not their rates.
func WithTimeModel(m TimeModel) Option {
	return func(o *Options) { o.Model = m }
}

// WithView directs program output and runtime status to v. Default: a
// quiet BufView that records output without printing. Independent of
// Features.
func WithView(v View) Option {
	return func(o *Options) { o.View = v }
}

// WithFeatures overlays the whole feature/ablation switch block,
// replacing any previously applied DisableJIT/EagerSim/DisableInline/
// DisableForwarding/DisableOpenLoop/Native. Default: the zero Features
// — full JIT, quiet-state simulation, inlining, forwarding, open loop.
func WithFeatures(f Features) Option {
	return func(o *Options) { o.Features = f }
}

// WithParallelism bounds how many engines a scheduler batch dispatches
// to concurrently. Default 0: one lane per CPU; 1 runs batches
// serially. Moot once Features.Native or inlining collapses the
// program to a single engine.
func WithParallelism(n int) Option {
	return func(o *Options) { o.Parallelism = n }
}

// WithOpenLoopTarget sets the adaptive open-loop profiling target: each
// burst should stall the runtime for about this much virtual time.
// Default: 100 virtual milliseconds. Irrelevant when
// Features.DisableOpenLoop (or DisableJIT) keeps the runtime in
// lock-step scheduling.
func WithOpenLoopTarget(ps uint64) Option {
	return func(o *Options) { o.OpenLoopTargetPs = ps }
}

// WithPersistence enables crash-safe persistence rooted at dir: durable
// checkpoints on the default cadence plus a write-ahead side-effect
// journal between them. Only cascade.Open honors it — Open also
// recovers whatever state a previous process left in dir. Use
// WithPersistenceOptions to tune cadence and sync policy.
// Default: no persistence. Works in every Features mode except Native,
// which has no state-capture surface to checkpoint.
func WithPersistence(dir string) Option {
	return func(o *Options) {
		if o.Persist == nil {
			o.Persist = &PersistOptions{}
		}
		o.Persist.Dir = dir
	}
}

// WithPersistenceOptions overlays the whole persistence configuration
// (directory, checkpoint cadence, fsync policy). Default:
// no persistence; Features caveats as for WithPersistence.
func WithPersistenceOptions(po PersistOptions) Option {
	return func(o *Options) { o.Persist = &po }
}

// WithRemoteEngine hosts the program's user engines on a cascade-engined
// daemon at addr (host:port) instead of in-process: subprograms are
// shipped over the engine protocol at integration time, every ABI
// interaction becomes a billed TCP round-trip, and JIT promotion happens
// on the daemon's own fabric. Stdlib peripherals always stay local.
// Tune timeouts and the retry budget with WithRemoteEngineOptions.
// Default: no remote — engines run in-process. Features.EagerSim and
// DisableJIT ship to the daemon with each spawn; forwarding and
// open-loop phases require in-process hardware and are skipped.
func WithRemoteEngine(addr string) Option {
	return func(o *Options) {
		if o.Remote == nil {
			o.Remote = &RemoteOptions{}
		}
		o.Remote.Addr = addr
	}
}

// WithRemoteEngineOptions overlays the whole remote-engine configuration
// (address, dial/call timeouts, retry budget, session quota). Default:
// no remote — engines run in-process. Combine with WithFeatures as for
// WithRemoteEngine.
func WithRemoteEngineOptions(ro RemoteOptions) Option {
	return func(o *Options) { o.Remote = &ro }
}

// WithRemoteSession opts the remote-engine connection into a private
// daemon session: before the first spawn the daemon carves a fabric
// region of quotaLEs for this runtime's engines and bounds its compile
// workers to share (0: global pool only), isolating it from the
// daemon's other clients. Default: sessionless — all clients of the
// daemon share its fabric. Requires WithRemoteEngine (it has no effect
// on in-process engines); Features apply as for WithRemoteEngine.
func WithRemoteSession(quotaLEs, share int) Option {
	return func(o *Options) {
		if o.Remote == nil {
			o.Remote = &RemoteOptions{}
		}
		o.Remote.SessionQuotaLEs = quotaLEs
		o.Remote.SessionShare = share
	}
}

// WithSupervision makes the remote-engine placement self-healing
// (internal/supervise): virtual-time liveness probes over the engine
// protocol, a per-host circuit breaker that opens after consecutive
// round-trip failures, automatic failover of remote engines onto local
// software engines re-seeded from their last committed state, and
// automatic re-hosting once the daemon answers probes again. A zero
// SuperviseOptions takes the defaults: 100 virtual ms probe cadence,
// 2-failure trip threshold, 2 virtual s reopen timeout. Default: no
// supervision — remote engines fail hard once the retry budget is
// spent. Only acts alongside WithRemoteEngine; Features apply as for
// WithRemoteEngine.
func WithSupervision(so SuperviseOptions) Option {
	return func(o *Options) { o.Supervise = &so }
}

// WithObservability builds a fresh observability hub from oo and wires
// it through the whole pipeline: the runtime's lifecycle (phase
// transitions, hot swaps, evictions, checkpoints), the toolchain's
// compile events and latency histogram, the fault injector's sites, and
// every transport's round-trip counters. When oo.Addr is non-empty the
// runtime serves /metrics (Prometheus text), /trace (JSONL), and
// /debug/pprof there as soon as it is constructed — read the bound
// address from rt.Observer().HTTPAddr() (use "127.0.0.1:0" to pick a
// free port). A nil observer — the default — disables all of it at
// near-zero cost. Observability is pure measurement: it works
// identically in every Features mode and never perturbs virtual time.
func WithObservability(oo ObservabilityOptions) Option {
	return func(o *Options) { o.Observer = obsv.New(oo) }
}

// WithObserver wires an existing Observer instead of building one: share
// a hub (and its metrics registry) across several runtimes, or between a
// runtime and an embedded EngineHost. Default: nil (observability
// disabled); Features interaction as for WithObservability.
func WithObserver(ob *Observer) Option {
	return func(o *Options) { o.Observer = ob }
}

// WithFaultInjector wires a deterministic fault injector into the
// toolchain, the device, and the hardware engines: flaky compiles retry
// with capped virtual-time backoff, and a faulted hardware engine
// degrades back to software between steps (the reverse hot-swap) while
// the JIT recompiles. Same seed, same fault schedule, same session.
// Default: nil (no faults). With Features.DisableJIT only the bus and
// network surfaces can fire — no compiles or placements happen.
func WithFaultInjector(inj *FaultInjector) Option {
	return func(o *Options) { o.Injector = inj }
}

// DisableJIT keeps the program in software engines forever (the paper's
// simulation-only baseline). Default: off — full JIT. Sets
// Features.DisableJIT; the later feature switches DisableInline,
// DisableForwarding, and DisableOpenLoop become moot (they ablate
// stages the JIT never reaches).
func DisableJIT() Option {
	return func(o *Options) { o.Features.DisableJIT = true }
}

// EagerSim switches the software engines to naive eager re-evaluation
// (the iVerilog-style baseline of §5.1). Default: off — quiet-state
// event-driven simulation. Sets Features.EagerSim; composes with every
// other switch (it changes only the software engines' inner loop).
func EagerSim() Option {
	return func(o *Options) { o.Features.EagerSim = true }
}

// DisableInline compiles subprograms separately instead of inlining them
// into one engine (§4.2 ablation). Default: off — subprograms inline.
// Sets Features.DisableInline; no effect under DisableJIT or Native.
func DisableInline() Option {
	return func(o *Options) { o.Features.DisableInline = true }
}

// DisableForwarding keeps stdlib engines directly scheduled instead of
// absorbing them into the user hardware engine (§4.3 ablation).
// Default: off — peripherals forward. Sets Features.DisableForwarding;
// no effect under DisableJIT or Native, and it implicitly prevents the
// open-loop phase (which requires a fully forwarded program).
func DisableForwarding() Option {
	return func(o *Options) { o.Features.DisableForwarding = true }
}

// DisableOpenLoop stays in lock-step hardware scheduling (§4.4
// ablation). Default: off — a fully forwarded program enters open-loop
// bursts. Sets Features.DisableOpenLoop; no effect under DisableJIT,
// DisableForwarding, or Native.
func DisableOpenLoop() Option {
	return func(o *Options) { o.Features.DisableOpenLoop = true }
}

// Native compiles the program exactly as written, with no ABI wrapper
// (§4.5): full fabric speed, no mid-run Eval, no state migration.
// Default: off. Sets Features.Native, which supersedes every other
// Features switch — there is no software phase to ablate.
func Native() Option {
	return func(o *Options) { o.Features.Native = true }
}

// WithCompileFarm shards the runtime's fabric compile flows across a
// farm of workers: rendezvous-hash routing on netlist fingerprints, a
// replicated bitstream cache with peer fetch, bounded per-shard queues
// with deterministic job-steal, and deterministic shard outages
// (FarmOptions.Outages, planned by FaultConfig.Outages) for testing. A zero FarmOptions takes the
// defaults — two in-process workers, depth-8 queues, two cache
// replicas; set Links (DialCompileFarm) to shard onto remote
// cascade-engined -compile-worker daemons instead. The farm installs
// on the runtime's Toolchain; on a shared toolchain that already
// carries one (WithToolchain across runtimes, or a hypervisor) the
// existing farm is kept. Default: no farm — the in-process local
// backend compiles everything. Works in every Features mode that
// compiles (moot under DisableJIT); Features.NativeTier jobs always
// compile locally — only fabric flows shard.
func WithCompileFarm(fo FarmOptions) Option {
	return func(o *Options) { o.Farm = &fo }
}

// WithNativeTier adds a middle rung to the JIT ladder: alongside the
// fabric flow, each subprogram is compiled to closure-threaded Go
// (internal/njit) and hot-swapped in place of the interpreter within
// virtual milliseconds, long before the bitstream arrives; a
// native-tier fault demotes the engine back to the interpreter.
// Default: off — the classic interpreter-until-hardware ladder. Sets
// Features.NativeTier; no effect under DisableJIT (no compiles run) or
// with a remote engine daemon (tiering happens daemon-side).
func WithNativeTier() Option {
	return func(o *Options) { o.Features.NativeTier = true }
}
