package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cascade/internal/fpga"
	"cascade/internal/runtime"
	"cascade/internal/toolchain"
	"cascade/internal/transport"
	"cascade/internal/vclock"
	"cascade/internal/workloads/pow"
)

// workload is one benchmark workload: a seeded input generator with its
// oracle, and the closed-loop body that one controller goroutine drives
// against a fresh runtime.
type workload struct {
	name string
	why  string
	// prepare generates the inputs and computes the oracle.
	prepare func(seed uint64, size float64) (instance, error)
}

// instance is one workload with its inputs fixed.
type instance interface {
	// program is the Verilog the cold starts and the layer replay use.
	program() string
	// fresh builds everything a runtime needs that must not be shared
	// between repetitions (device, toolchain and its caches, daemon,
	// directories) and returns the options plus a release function.
	fresh() (runtime.Options, func(), error)
	// body is the timed part: first Eval to workload end. It returns the
	// runtime that finished the workload (durable_replay swaps it).
	body(p *probe, rt *runtime.Runtime) (*runtime.Runtime, error)
	// check compares what the body observed with the oracle and returns
	// one description per failed check out of attempted.
	check(p *probe, rt *runtime.Runtime) (attempted int, failed []string)
}

// openLoopTarget sizes open-loop bursts at 60 scheduler iterations (30
// ticks). The runtime caps a burst by host time as well - the cap halves
// when a burst takes more than 120 ms of wall clock - and with bursts of
// a few hundred ticks one descheduling of the sandbox per few hundred
// repetitions split a burst and moved the virtual ledger by two bus
// messages. The cap never drops below 64 iterations, so bursts no larger
// than that cannot be split and host time cannot reach the ledger.
const openLoopTarget = 1800 * vclock.Ns

// localOptions returns options for an in-process runtime with its own
// device and toolchain.
func localOptions(tc toolchain.Options, f runtime.Features, par int) runtime.Options {
	dev := fpga.NewCycloneV()
	return runtime.Options{
		Device:           dev,
		Toolchain:        toolchain.New(dev, tc),
		View:             &runtime.BufView{Quiet: true},
		Features:         f,
		Parallelism:      par,
		OpenLoopTargetPs: openLoopTarget,
	}
}

var workloads = []*workload{
	{
		name: "pow_ladder",
		why:  "compute-bound SHA-256 miner climbing interpreter, native and fabric tiers: evaluator tick cost dominates",
		prepare: func(seed uint64, size float64) (instance, error) {
			return &ladder{in: genLadder(seed, uint32(scaled(ladderHashes, size))), size: size}, nil
		},
	},
	{
		name: "regex_stream",
		why:  "bus-bound byte stream through the stdlib FIFO with a mid-stream eval: scheduler, Local transport and ABI cost dominate",
		prepare: func(seed uint64, size float64) (instance, error) {
			in, err := genStream(seed, int(scaled(streamBytes/tapPeriod, size))*tapPeriod)
			return &stream{in: in, size: size}, err
		},
	},
	{
		name: "edit_session",
		why:  "REPL session of 150 incremental evals with save/load: parse, IR, elaboration and synthesis dominate, ticks are few",
		prepare: func(seed uint64, size float64) (instance, error) {
			return &session{in: genEdits(seed, int(scaled(sessionEdits, size)), sessionTicks)}, nil
		},
	},
	{
		name: "remote_lockstep",
		why:  "three miners hosted behind a loopback TCP daemon on two lanes: proto codec, transport and host dispatch dominate",
		prepare: func(seed uint64, size float64) (instance, error) {
			ticks := scaled(lockstepTicks, size)
			return &lockstep{in: genLockstep(seed, lockstepMiners, ticks), ticks: ticks, size: size}, nil
		},
	},
	{
		name: "durable_replay",
		why:  "journaled miner killed and recovered from checkpoint, journal and disk bitstream store: the persistence write path",
		prepare: func(seed uint64, size float64) (instance, error) {
			return &durable{in: genLadder(seed, uint32(scaled(durableHashes, size))), size: size}, nil
		},
	},
}

// scaled shrinks a full-size count for the tests' miniature runs. The
// workloads divide their toolchain latencies by the same factor, so a
// miniature run visits the same phases in the same proportions.
func scaled(n int, size float64) uint64 {
	if v := uint64(float64(n)*size + 0.5); v > 1 {
		return v
	}
	return 1
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// expectOutput is the oracle check shared by every workload: the
// program finished (or not) as intended and printed exactly want.
func expectOutput(got, want string) []string {
	if got == want {
		return nil
	}
	return []string{fmt.Sprintf("output differs from oracle: got %d bytes %.80q, want %d bytes %.80q",
		len(got), got, len(want), want)}
}

// --- pow_ladder -----------------------------------------------------------

// ladderHashes places $finish at attempt 1900 (125 400 ticks). The
// toolchain latencies below then split the run's wall time roughly in
// thirds: ~20 K interpreted ticks until the native artifact lands at 25
// virtual s, ~60 K native ticks until the bitstream lands at ~32
// virtual s, and the remaining ~45 K ticks in open loop on the fabric
// model.
const ladderHashes = 1900

const ladderScale = 21.5

func ladderToolchain(size float64) toolchain.Options {
	o := toolchain.DefaultOptions()
	o.Scale = ladderScale / size
	o.NativeBasePs = uint64(25 * float64(vclock.S) * ladderScale) // Scale divides it back to 25 virtual s
	return o
}

type ladder struct {
	in   ladderInput
	size float64
}

func (l *ladder) program() string { return l.in.program }

func (l *ladder) fresh() (runtime.Options, func(), error) {
	return localOptions(ladderToolchain(l.size), runtime.Features{NativeTier: true}, 1), func() {}, nil
}

func (l *ladder) body(p *probe, rt *runtime.Runtime) (*runtime.Runtime, error) {
	if err := p.eval(rt, runtime.DefaultPrelude); err != nil {
		return rt, err
	}
	if err := p.eval(rt, l.in.program); err != nil {
		return rt, err
	}
	p.run(rt, l.in.ticks+pow.CyclesPerHash) // a hash attempt of slack; ends at $finish
	return rt, nil
}

func (l *ladder) check(p *probe, rt *runtime.Runtime) (int, []string) {
	failed := expectOutput(p.output(rt), l.in.want)
	if !rt.Finished() {
		failed = append(failed, "miner did not $finish")
	}
	return 2, failed
}

// --- regex_stream -----------------------------------------------------------

// streamBytes is the log size; the matcher consumes one byte per tick.
const streamBytes = 144 * 1024

// streamTapTick is when the tap is eval'd, half way: the toolchain scale
// below lands each bitstream about 45 K ticks after its eval, so the
// eval forces hardware -> software -> hardware and the run spends ~60 %
// of its ticks in lock-step software and the rest in open loop.
const streamTapTick = 72_000

func streamToolchain(size float64) toolchain.Options {
	o := toolchain.DefaultOptions()
	o.Scale = 10 / size
	return o
}

type stream struct {
	in   streamInput
	size float64
	// consumedAtTap is how many bytes the device FIFO had taken when the
	// tap was eval'd (bounds where the first tap line may appear).
	consumedAtTap uint64
}

func (s *stream) program() string { return s.in.program }

func (s *stream) fresh() (runtime.Options, func(), error) {
	return localOptions(streamToolchain(s.size), runtime.Features{}, 1), func() {}, nil
}

func (s *stream) body(p *probe, rt *runtime.Runtime) (*runtime.Runtime, error) {
	if err := p.eval(rt, runtime.DefaultPrelude); err != nil {
		return rt, err
	}
	if err := p.eval(rt, s.in.program); err != nil {
		return rt, err
	}
	fifo := rt.World().Stream("main.fifo")
	fifo.PushBytes(s.in.log)
	p.run(rt, scaled(streamTapTick, s.size))
	s.consumedAtTap = fifo.Consumed
	if err := p.eval(rt, s.in.tap); err != nil {
		return rt, err
	}
	p.run(rt, uint64(len(s.in.log))) // ends at $finish, well inside the budget
	return rt, nil
}

// check verifies every tap line against the DFA oracle, that the lines
// are gapless from the first one to the end of the log, that the first
// one appears within a period of the eval, and the final line.
func (s *stream) check(p *probe, rt *runtime.Runtime) (int, []string) {
	var failed []string
	lines := strings.SplitAfter(p.output(rt), "\n")
	if n := len(lines); n > 0 && lines[n-1] == "" {
		lines = lines[:n-1]
	}
	attempted := 3
	if len(lines) == 0 || lines[len(lines)-1] != s.in.final {
		failed = append(failed, fmt.Sprintf("final line: got %q, want %q", lines, s.in.final))
	} else {
		lines = lines[:len(lines)-1]
	}
	if !rt.Finished() {
		failed = append(failed, "stream did not $finish")
	}
	next := -1
	for _, ln := range lines {
		attempted++
		var k, m uint32
		if _, err := fmt.Sscanf(ln, "tap consumed=%d matches=%d\n", &k, &m); err != nil || k%tapPeriod != 0 ||
			int(k/tapPeriod) >= len(s.in.matches) {
			failed = append(failed, fmt.Sprintf("malformed tap line %q", ln))
			continue
		}
		if next >= 0 && int(k) != next {
			failed = append(failed, fmt.Sprintf("tap line for %d bytes, expected %d", k, next))
		}
		next = int(k) + tapPeriod
		if want := s.in.matches[k/tapPeriod]; m != want {
			failed = append(failed, fmt.Sprintf("tap at %d bytes: %d matches, oracle %d", k, m, want))
		}
	}
	first := next - len(lines)*tapPeriod
	if len(lines) == 0 || uint64(first) > s.consumedAtTap+tapPeriod || next+tapPeriod <= len(s.in.log) {
		failed = append(failed, fmt.Sprintf("tap lines cover [%d,%d) of %d bytes, tap eval'd at %d",
			first, next, len(s.in.log), s.consumedAtTap))
	}
	return attempted, failed
}

// --- edit_session -----------------------------------------------------------

const (
	sessionEdits = 150
	sessionTicks = 32 // ticks between edits
)

// sessionToolchain lands the native artifact a few ticks after every
// eval (so each edit also pays njit compilation and a swap) and keeps
// the fabric out of reach until the session's final wait.
func sessionToolchain() toolchain.Options {
	o := toolchain.DefaultOptions()
	o.NativeBasePs = 2 * vclock.Ms
	o.NativePsPerCell = 1 * vclock.Us
	return o
}

type session struct{ in editScript }

func (s *session) program() string { return s.in.full }

func (s *session) fresh() (runtime.Options, func(), error) {
	return localOptions(sessionToolchain(), runtime.Features{NativeTier: true}, 1), func() {}, nil
}

func (s *session) body(p *probe, rt *runtime.Runtime) (*runtime.Runtime, error) {
	if err := p.eval(rt, runtime.DefaultPrelude); err != nil {
		return rt, err
	}
	if err := p.eval(rt, s.in.base); err != nil {
		return rt, err
	}
	// Four times a session (every 30th edit at full size) the user runs
	// :save and :load, which resubmits an unchanged design.
	save := len(s.in.edits) / 4
	if save < 2 {
		save = 2
	}
	for i, e := range s.in.edits {
		if err := p.eval(rt, e); err != nil {
			return rt, fmt.Errorf("edit %d: %w", i, err)
		}
		if i%save == save-1 {
			if err := p.saveAndLoad(rt); err != nil {
				return rt, fmt.Errorf("save/load after edit %d: %w", i, err)
			}
		}
		p.run(rt, sessionTicks)
	}
	// The user stops typing: wait out the fabric compile of the final
	// program and take the hot swap, so eval-to-hardware is measured.
	if at, ok := rt.CompileReadyAt(); ok && at > rt.VirtualNow() {
		rt.Idle(at - rt.VirtualNow() + s.in.pausePs)
	}
	p.untilFabric(rt, maxExtra)
	return rt, nil
}

func (s *session) check(p *probe, rt *runtime.Runtime) (int, []string) {
	// The wait for the fabric ran on past the last edit's ticks; the model
	// predicts the stream for however many rising edges there were (they
	// fall on odd scheduler steps).
	extra := (rt.Steps()+1)/2 - uint64(len(s.in.edits))*sessionTicks
	failed := expectOutput(p.output(rt), s.in.displays(extra))
	if rt.Phase() < runtime.PhaseHardware {
		failed = append(failed, fmt.Sprintf("final program never reached the fabric (phase %v)", rt.Phase()))
	}
	return 2, failed
}

// --- remote_lockstep ------------------------------------------------------

const (
	lockstepMiners = 3
	lockstepTicks  = 800
)

// lockstepToolchain is the daemon's: it promotes the hosted miners about
// two thirds of the way through the run.
func lockstepToolchain(size float64) toolchain.Options {
	o := toolchain.DefaultOptions()
	o.Scale = 650 / size
	return o
}

type lockstep struct {
	in    lockstepInput
	ticks uint64
	size  float64
}

func (l *lockstep) program() string { return l.in.program }

// fresh starts an engine daemon on a loopback listener; the runtime
// dials it on its first spawn, so the run uses one TCP connection.
func (l *lockstep) fresh() (runtime.Options, func(), error) {
	dev := fpga.NewCycloneV()
	addr, stop, err := serveHost(transport.NewHost(transport.HostOptions{
		Device:    dev,
		Toolchain: toolchain.New(dev, lockstepToolchain(l.size)),
	}))
	if err != nil {
		return runtime.Options{}, nil, err
	}
	o := localOptions(toolchain.DefaultOptions(), runtime.Features{DisableInline: true}, 2)
	o.Remote = &runtime.RemoteOptions{Addr: addr}
	return o, stop, nil
}

// serveHost serves an engine host on a loopback listener; stop closes the
// listener and waits for the accept loop to return.
func serveHost(host *transport.Host) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = host.ServeListener(ln) // returns when the listener closes
	}()
	return ln.Addr().String(), func() {
		_ = ln.Close()
		<-served
	}, nil
}

func (l *lockstep) body(p *probe, rt *runtime.Runtime) (*runtime.Runtime, error) {
	if err := p.eval(rt, runtime.DefaultPrelude); err != nil {
		return rt, err
	}
	if err := p.eval(rt, l.in.program); err != nil {
		return rt, err
	}
	p.run(rt, l.ticks)
	return rt, nil
}

func (l *lockstep) check(p *probe, rt *runtime.Runtime) (int, []string) {
	failed := expectOutput(p.output(rt), l.in.want)
	if rt.Phase() < runtime.PhaseHardware {
		failed = append(failed, fmt.Sprintf("daemon never promoted the miners (phase %v)", rt.Phase()))
	}
	for _, err := range p.errors(rt) {
		failed = append(failed, "transport: "+err.Error())
	}
	return 3, failed
}

// --- durable_replay -------------------------------------------------------

// durableHashes places $finish at attempt 780 (51 480 ticks). The process
// is killed at tick durableKill, still in software (the fabric flow
// would land at 86 virtual s, the kill comes at ~45) and 1000 steps past
// its last checkpoint, so recovery restores a checkpoint, replays a
// journal suffix, and re-promotes from the disk bitstream store, which
// the first process's finished flow had already written. A checkpoint
// every 1024 steps keeps fsync, whose latency on a shared disk no
// yardstick can correct for, to a few percent of the body; the journal
// append per step is the write path this workload is about.
const (
	durableHashes = 780
	durableKill   = 36_340
	durableEvery  = 1024 // checkpoint cadence in scheduler steps
)

func durableToolchain(cacheDir string, size float64) toolchain.Options {
	o := toolchain.DefaultOptions()
	o.Scale = 8 / size
	o.CacheDir = cacheDir
	// Reloading a placed design takes 1 virtual s: longer than replaying
	// the journal suffix (<= 1023 software steps, ~0.64 virtual s), so the
	// recovered process is still in lock-step software when replay ends
	// and resumes on exactly the step the first one was killed at.
	o.CacheHitPs = uint64(float64(vclock.S) * o.Scale)
	return o
}

type durable struct {
	in   ladderInput
	size float64
	dir  string // the current repetition's directory

	killedAtSteps uint64
	firstOutput   string
	seen          persistence
}

func (d *durable) program() string { return d.in.program }

func (d *durable) options() runtime.Options {
	o := localOptions(durableToolchain(filepath.Join(d.dir, "bits"), d.size), runtime.Features{}, 1)
	o.Persist = &runtime.PersistOptions{Dir: filepath.Join(d.dir, "ckpt"), EverySteps: durableEvery}
	return o
}

func (d *durable) fresh() (runtime.Options, func(), error) {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return runtime.Options{}, nil, err
	}
	dir, err := os.MkdirTemp(scratchDir, "durable-")
	if err != nil {
		return runtime.Options{}, nil, err
	}
	d.dir = dir
	return d.options(), func() { _ = os.RemoveAll(dir) }, nil
}

func (d *durable) body(p *probe, rt *runtime.Runtime) (*runtime.Runtime, error) {
	if err := p.eval(rt, runtime.DefaultPrelude); err != nil {
		return rt, err
	}
	if err := p.eval(rt, d.in.program); err != nil {
		return rt, err
	}
	p.run(rt, scaled(durableKill, d.size))
	// Crash: the first process is abandoned with its journal unsynced
	// and unclosed; only what it wrote is left for the second.
	d.killedAtSteps, d.firstOutput = rt.Steps(), p.output(rt)
	d.seen.first = rt.Stats().Persist
	t0 := time.Now()
	rt2, info, err := p.reopen(d.options())
	if err != nil {
		return rt, err
	}
	d.seen.recover, d.seen.recovered = time.Since(t0), info
	p.run(rt2, d.in.ticks)
	return rt2, nil
}

func (d *durable) persisted() *persistence { return &d.seen }

func (d *durable) check(p *probe, rt *runtime.Runtime) (int, []string) {
	failed := expectOutput(d.firstOutput+p.output(rt), d.in.want)
	if !rt.Finished() {
		failed = append(failed, "recovered miner did not $finish")
	}
	if info := d.seen.recovered; info == nil || !info.Recovered || info.ResumedSteps != d.killedAtSteps {
		failed = append(failed, fmt.Sprintf("recovery resumed at %+v, killed at step %d", info, d.killedAtSteps))
	}
	if st := rt.Stats(); st.Compile.DiskHits == 0 {
		failed = append(failed, "recovery did not re-promote from the disk bitstream store")
	}
	return 4, failed
}
