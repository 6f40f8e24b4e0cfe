package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/engine"
	"cascade/internal/engine/hweng"
	"cascade/internal/engine/sweng"
	"cascade/internal/fpga"
	"cascade/internal/ir"
	"cascade/internal/netlist"
	"cascade/internal/njit"
	"cascade/internal/obsv"
	"cascade/internal/persist"
	"cascade/internal/proto"
	"cascade/internal/runtime"
	"cascade/internal/stdlib"
	"cascade/internal/toolchain"
	"cascade/internal/transport"
	"cascade/internal/verilog"
)

// The layer replay feeds one workload's program through each layer's
// public entry point, in pipeline order, timing the call from outside.
// Evaluators are driven through the engine ABI by toggling the design's
// clock input; other inputs stay at zero, which keeps every workload's
// logic active on every tick (the miner hashes, the matcher consumes
// zero bytes, the edit chain iterates).

// layers collects per-layer metric values by name.
type layers struct {
	tr     *tracer
	budget time.Duration // wall budget of one timed operation
	vals   map[string]float64

	evalWhole float64 // wall of one Eval of the whole program, ms
}

func (l *layers) set(name string, v float64) { l.vals[name] = v }

// timeOp calls fn in batches until the budget is spent or maxCalls is
// reached and returns the median per-call wall time in ns over batches,
// and heap allocations per call.
func (l *layers) timeOp(name string, maxCalls int, fn func()) (ns, allocs float64) {
	id := l.tr.begin("layer:" + name)
	defer l.tr.end(id)
	t0 := time.Now()
	fn()
	first := time.Since(t0)
	batch := 1
	if first < 200*time.Microsecond {
		batch = int(200*time.Microsecond/(first+1)) + 1
	}
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	var per []float64
	calls := 1
	for start := time.Now(); calls < maxCalls && (len(per) < 5 || time.Since(start) < l.budget); {
		if calls+batch > maxCalls {
			batch = maxCalls - calls
		}
		b0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(b0))/float64(batch))
		calls += batch
	}
	goruntime.ReadMemStats(&m1)
	if len(per) == 0 {
		return float64(first), 0
	}
	return median(per), float64(m1.Mallocs-m0.Mallocs) / float64(calls-1)
}

const unlimited = 1 << 30

// maxTicks bounds how far one evaluator instance is driven, well short
// of any workload's $finish.
const maxTicks = 20_000

type discardIO struct{}

func (discardIO) Display(string, bool) {}
func (discardIO) Finish(int)           {}

func zeroNow() uint64 { return 0 }

// frontEnd is the workload's program after each front-end stage.
type frontEnd struct {
	design  *ir.Design // inlined
	root    *ir.SubProgram
	flat    *elab.Flat
	prog    *netlist.Program
	clk     string // the root engine's clock input
	clkPath string // the stdlib Clock feeding it
}

// replayFrontEnd runs parse -> ir.Build -> ir.Inline -> elab.Elaborate ->
// netlist.Compile -> njit.Compile -> toolchain.Submit on the source.
func (l *layers) replayFrontEnd(src string) (*frontEnd, error) {
	src = runtime.DefaultPrelude + "\n" + src
	l.set("verilog.src_kb", float64(len(src))/1024)

	mods, items, errs := verilog.ParseProgramFragment(src)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	ns, _ := l.timeOp("verilog.parse", unlimited, func() { verilog.ParseProgramFragment(src) })
	l.set("verilog.parse_us", ns/1e3)

	p := ir.NewProgram()
	for _, m := range mods {
		if err := p.DeclareModule(m); err != nil {
			return nil, err
		}
	}
	p.AddRootItems(items...)
	design, err := ir.Build(p, stdlib.Registry())
	if err != nil {
		return nil, err
	}
	ns, _ = l.timeOp("ir.build", unlimited, func() { ir.Build(p, stdlib.Registry()) })
	l.set("ir.build_us", ns/1e3)

	inl, err := ir.Inline(design)
	if err != nil {
		return nil, err
	}
	ns, _ = l.timeOp("ir.inline", unlimited, func() { ir.Inline(design) })
	l.set("ir.inline_us", ns/1e3)

	fe := &frontEnd{design: inl, root: inl.Sub(ir.RootPath)}
	fe.flat, err = elab.Elaborate(fe.root.Module, ir.RootPath, nil)
	if err != nil {
		return nil, err
	}
	ns, _ = l.timeOp("elab.elaborate", unlimited, func() { elab.Elaborate(fe.root.Module, ir.RootPath, nil) })
	l.set("elab.elaborate_us", ns/1e3)
	l.set("elab.vars", float64(len(fe.flat.Vars)))

	fe.prog, err = netlist.Compile(fe.flat)
	if err != nil {
		return nil, err
	}
	ns, _ = l.timeOp("netlist.compile", unlimited, func() { netlist.Compile(fe.flat) })
	l.set("netlist.compile_us", ns/1e3)
	l.set("netlist.cells", float64(fe.prog.Stats.Cells))
	ns, _ = l.timeOp("netlist.fingerprint", unlimited, func() { fe.prog.Fingerprint() })
	l.set("netlist.fingerprint_us", ns/1e3)
	ns, _ = l.timeOp("njit.compile", unlimited, func() { njit.Compile(netlist.NewMachine(fe.prog)) })
	l.set("njit.compile_us", ns/1e3)

	// A miss pays synthesis plus the place-and-route model on a worker
	// goroutine; a hit re-synthesizes and finds the published bitstream.
	ctx := context.Background()
	var tc *toolchain.Toolchain
	ns, _ = l.timeOp("toolchain.submit_miss", unlimited, func() {
		tc = toolchain.New(fpga.NewCycloneV(), toolchain.DefaultOptions())
		tc.Submit(ctx, fe.flat, true, 0).Result()
	})
	l.set("toolchain.submit_miss_us", ns/1e3)
	j := tc.Submit(ctx, fe.flat, true, 0)
	if at, ok := j.ReadyAt(); !ok || !j.Ready(at) { // observing it ready publishes the bitstream
		return nil, errors.New("layer replay: compile never became ready")
	}
	var hit bool
	ns, _ = l.timeOp("toolchain.submit_hit", unlimited, func() {
		hit = tc.Submit(ctx, fe.flat, true, 0).Result().CacheHit
	})
	if !hit {
		return nil, errors.New("layer replay: resubmission missed the bitstream cache")
	}
	l.set("toolchain.submit_hit_us", ns/1e3)

	for _, w := range inl.Wires {
		if from := inl.Sub(w.From.Sub); from != nil && from.StdType == "Clock" && w.To.Sub == ir.RootPath {
			fe.clk, fe.clkPath = w.To.Port, w.From.Sub
			break
		}
	}
	if fe.clk == "" {
		return nil, errors.New("layer replay: program has no clock input")
	}
	return fe, nil
}

var (
	clkHigh = bits.FromUint64(1, 1)
	clkLow  = bits.FromUint64(1, 0)
)

// settle runs one engine's evaluate/update fixpoint and ends the step,
// the way the scheduler does for a single engine.
func settle(e engine.Engine) {
	for {
		if e.ThereAreEvals() {
			e.Evaluate()
		} else if e.ThereAreUpdates() {
			e.Update()
		} else {
			break
		}
	}
	e.EndStep()
	e.DrainWrites()
}

// tick drives one clock tick (two scheduler steps) through the ABI.
func tick(e engine.Engine, clk string) {
	e.Read(engine.Event{Var: clk, Val: clkHigh})
	settle(e)
	e.Read(engine.Event{Var: clk, Val: clkLow})
	settle(e)
}

// replayEvaluators measures one clock tick on every evaluator, the state
// hand-off across tiers, and the stdlib FIFO.
func (l *layers) replayEvaluators(fe *frontEnd) error {
	sw := sweng.New(fe.flat, discardIO{}, zeroNow, false)
	ns, allocs := l.timeOp("sim.tick", maxTicks, func() { tick(sw, fe.clk) })
	l.set("sim.tick_ns", ns)
	l.set("sim.allocs_per_tick", allocs)

	m := netlist.NewMachine(fe.prog)
	clkVar := fe.flat.VarNamed(fe.clk)
	ns, allocs = l.timeOp("netlist.machine_tick", maxTicks, func() {
		for _, v := range [2]*bits.Vector{clkHigh, clkLow} {
			m.SetInput(clkVar, v)
			for {
				if m.HasActive() {
					m.Evaluate()
				} else if m.HasUpdates() {
					m.Update()
				} else {
					break
				}
			}
			m.EndStep()
			m.DrainEvents()
		}
	})
	l.set("netlist.machine_tick_ns", ns)
	l.set("netlist.machine_allocs_per_tick", allocs)

	ne := njit.New(ir.RootPath, fe.prog, discardIO{}, nil, zeroNow)
	ns, allocs = l.timeOp("njit.tick", maxTicks, func() { tick(ne, fe.clk) })
	l.set("njit.tick_ns", ns)
	l.set("njit.allocs_per_tick", allocs)

	dev := fpga.NewCycloneV()
	hw, err := hweng.New(ir.RootPath, fe.prog, dev, 1, discardIO{}, false, zeroNow)
	if err != nil {
		return err
	}
	ns, _ = l.timeOp("hweng.lockstep_tick", maxTicks, func() { tick(hw, fe.clk) })
	l.set("hweng.lockstep_tick_ns", ns)

	// Open loop needs the clock inside the engine: forward a stdlib Clock
	// the way the runtime does when it enters the forwarded phase.
	hw.Forward(fe.clkPath, stdlib.NewClock(fe.clkPath))
	hw.ForwardWire(fe.clkPath, "val", "", fe.clk)
	const burst = 64 // ticks per OpenLoop call
	ns, _ = l.timeOp("hweng.openloop_tick", maxTicks/burst, func() {
		for todo := 2 * burst; todo > 0; {
			done := hw.OpenLoop(fe.clk, todo) // returns early on a $display
			if done == 0 {
				return
			}
			todo -= done
		}
	})
	l.set("hweng.openloop_tick_ns", ns/burst)

	// The hot swap's state hand-off, up the ladder: interpreter ->
	// native -> fabric.
	ns, _ = l.timeOp("engine.state_roundtrip", unlimited, func() {
		ne.SetState(sw.GetState())
		hw.SetState(ne.GetState())
	})
	l.set("engine.state_roundtrip_us", ns/1e3)

	world := stdlib.NewWorld()
	fifo := stdlib.NewFIFO("f", 8, 64, world)
	fifo.Read(engine.Event{Var: "rreq", Val: clkHigh})
	feed := make([]byte, 4096)
	ns, _ = l.timeOp("stdlib.fifo_byte", unlimited, func() {
		if world.Stream("f").PendingIn() == 0 {
			world.Stream("f").PushBytes(feed)
		}
		settle(fifo) // rising edge: sample the pop
		settle(fifo) // falling edge: apply it, refill from the host
	})
	l.set("stdlib.fifo_byte_ns", ns)
	return nil
}

// replayTransport measures the ABI over each transport: the Local fast
// path, a loopback TCP connection to an in-process host, the host's
// dispatch without a socket, and the codec alone.
func (l *layers) replayTransport(fe *frontEnd) error {
	sw := sweng.New(fe.flat, discardIO{}, zeroNow, false)
	local := transport.NewLocalClient(sw, nil)
	ns, allocs := l.timeOp("transport.local_rt", unlimited, func() { local.ThereAreEvals() })
	l.set("transport.local_rt_ns", ns)
	l.set("transport.local_allocs", allocs)

	host := transport.NewHost(transport.HostOptions{DisableJIT: true})
	addr, stop, err := serveHost(host)
	if err != nil {
		return err
	}
	defer stop()
	tcp, err := transport.DialTCP(addr, transport.TCPOptions{})
	if err != nil {
		return err
	}
	defer tcp.Close()
	spec := transport.SpawnSpec{Path: ir.RootPath, Source: verilog.Print(fe.root.Module)}
	remote, err := transport.Spawn(tcp, spec, discardIO{}, zeroNow, zeroNow, nil)
	if err != nil {
		return err
	}
	id := l.tr.begin("layer:transport.tcp_rt")
	var rts []float64
	for start := time.Now(); len(rts) < 200 || (time.Since(start) < l.budget && len(rts) < 20_000); {
		t0 := time.Now()
		remote.ThereAreEvals()
		rts = append(rts, float64(time.Since(t0)))
	}
	l.tr.end(id)
	if err := remote.Err(); err != nil {
		return err
	}
	l.set("transport.tcp_rt_p50_us", percentile(rts, 50)/1e3)
	l.set("transport.tcp_rt_p99_us", percentile(rts, 99)/1e3)

	// The same request straight into the host: a second engine, spawned
	// and addressed by hand.
	var rep proto.Reply
	host.Handle(&proto.Request{Kind: proto.KindSpawn, Path: ir.RootPath, Source: spec.Source}, &rep)
	if rep.Err != "" {
		return errors.New(rep.Err)
	}
	poll := &proto.Request{Kind: proto.KindThereAreEvals, Engine: rep.Engine}
	ns, _ = l.timeOp("transport.host_handle", unlimited, func() { host.Handle(poll, &rep) })
	l.set("transport.host_handle_ns", ns)

	// One data-plane exchange on the wire: a Read request carrying a
	// 32-bit value and a DrainWrites reply carrying one.
	req := &proto.Request{Kind: proto.KindRead, Engine: 1, Now: 1 << 20, VNow: 1 << 40,
		Var: "miner_nonce", Val: bits.FromUint64(32, 0xdeadbeef)}
	drain := &proto.Reply{Kind: proto.KindDrainWrites, Engine: 1, Loc: engine.Hardware,
		Usage:  engine.Usage{Cycles: 3, Msgs: 2},
		Events: []engine.Event{{Var: "miner_nonce", Val: bits.FromUint64(32, 0xdeadbeef)}}}
	var reqBuf, repBuf []byte
	ns, _ = l.timeOp("proto.encode", unlimited, func() {
		reqBuf = proto.EncodeRequest(reqBuf[:0], req)
		repBuf = proto.EncodeReply(repBuf[:0], drain)
	})
	l.set("proto.encode_ns", ns)
	var derr error
	ns, _ = l.timeOp("proto.decode", unlimited, func() {
		if _, err := proto.DecodeRequest(reqBuf); err != nil {
			derr = err
		}
		if err := proto.DecodeReply(repBuf, &rep); err != nil {
			derr = err
		}
	})
	l.set("proto.decode_ns", ns)
	return derr
}

// replaySnapshot measures :save/:load on a local runtime running the
// program: capture, encode, decode, restore.
func (l *layers) replaySnapshot(src string) error {
	rt := runtime.New(localOptions(toolchain.DefaultOptions(), runtime.Features{}, 1))
	if err := rt.Eval(runtime.DefaultPrelude); err != nil {
		return err
	}
	t0 := time.Now()
	if err := rt.Eval(src); err != nil {
		return err
	}
	l.evalWhole = float64(time.Since(t0)) / 1e6
	rt.RunTicks(64)
	var snap *runtime.Snapshot
	var text string
	var err error
	ns, _ := l.timeOp("runtime.snapshot", unlimited, func() { snap = rt.Snapshot() })
	l.set("runtime.snapshot_us", ns/1e3)
	ns, _ = l.timeOp("runtime.snapshot_encode", unlimited, func() { text = runtime.EncodeSnapshot(snap) })
	l.set("runtime.snapshot_encode_us", ns/1e3)
	ns, _ = l.timeOp("runtime.snapshot_decode", unlimited, func() { snap, err = runtime.DecodeSnapshot(text) })
	l.set("runtime.snapshot_decode_us", ns/1e3)
	if err != nil {
		return err
	}
	ns, _ = l.timeOp("runtime.restore", unlimited, func() {
		if rerr := rt.Restore(snap); rerr != nil {
			err = rerr
		}
	})
	l.set("runtime.restore_ms", ns/1e6)
	if err != nil {
		return err
	}
	return rt.Shutdown()
}

// persistence is what a run observed of the persistence layer.
type persistence struct {
	first     runtime.PersistStats // the killed process, at the kill
	recover   time.Duration        // runtime.Open on the crashed directory
	recovered *runtime.RecoveryInfo
}

// replayPersistence measures a journal append on a bare store and, when
// the workload did not persist itself, runs its program durably in
// miniature: a few checkpoints, a kill, a recovery.
func (l *layers) replayPersistence(src string, seen *persistence) error {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchDir, "layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	store, _, err := persist.Open(filepath.Join(dir, "wal"), func([]byte) (uint64, error) {
		return 0, errors.New("no checkpoints here")
	})
	if err != nil {
		return err
	}
	id := l.tr.begin("layer:persist.append")
	rec := []byte("123456 7890123456789") // an advance record: "steps vnow"
	var appends []float64
	for seq := uint64(1); seq <= 4000; seq++ {
		t0 := time.Now()
		if err := store.Append(seq, 3, rec); err != nil {
			return err
		}
		appends = append(appends, float64(time.Since(t0)))
	}
	l.tr.end(id)
	if err := store.Close(); err != nil {
		return err
	}
	l.set("persist.append_us", median(appends)/1e3)

	if seen == nil {
		id := l.tr.begin("layer:persist.mini_run")
		seen, err = miniDurable(src, filepath.Join(dir, "ckpt"))
		l.tr.end(id)
		if err != nil {
			return err
		}
	}
	ps := seen.first
	if ps.Checkpoints == 0 {
		return errors.New("layer replay: durable run took no checkpoint")
	}
	l.set("persist.checkpoint_ms", float64(ps.CheckpointNs)/float64(ps.Checkpoints)/1e6)
	l.set("persist.checkpoint_kb", float64(ps.CheckpointBytes)/1024)
	l.set("persist.journal_kb", float64(ps.JournalBytes)/1024)
	l.set("persist.recover_ms", float64(seen.recover)/1e6)
	l.set("persist.replayed_records", float64(seen.recovered.ReplayedRecords))
	return nil
}

// miniDurable runs src for 1300 ticks with a checkpoint every 1024 steps,
// abandons the runtime and recovers it.
func miniDurable(src, dir string) (*persistence, error) {
	opts := func() runtime.Options {
		o := localOptions(toolchain.DefaultOptions(), runtime.Features{}, 1)
		o.Persist = &runtime.PersistOptions{Dir: dir, EverySteps: durableEvery}
		return o
	}
	rt, _, err := runtime.Open(opts())
	if err != nil {
		return nil, err
	}
	if err := rt.Eval(runtime.DefaultPrelude); err != nil {
		return nil, err
	}
	if err := rt.Eval(src); err != nil {
		return nil, err
	}
	rt.RunTicks(1300)
	seen := &persistence{first: rt.Stats().Persist}
	t0 := time.Now()
	rt2, info, err := runtime.Open(opts())
	if err != nil {
		return nil, err
	}
	seen.recover, seen.recovered = time.Since(t0), info
	if info.ResumedSteps != rt.Steps() {
		return nil, fmt.Errorf("layer replay: recovery resumed at step %d, killed at %d", info.ResumedSteps, rt.Steps())
	}
	return seen, rt2.Shutdown()
}

// replayObserver measures one event emission into the trace ring.
func (l *layers) replayObserver() {
	o := obsv.New(obsv.Options{})
	ns, _ := l.timeOp("obsv.emit", unlimited, func() { o.Emit(obsv.EvPhase, ir.RootPath, "software -> hardware") })
	l.set("obsv.emit_ns", ns)
}
