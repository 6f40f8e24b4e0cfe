package runtime

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/obsv"
	"cascade/internal/toolchain"
	"cascade/internal/transport"
	"cascade/internal/vclock"
	"cascade/internal/vgen"
)

// This file is the one harness behind DESIGN.md's "X is invisible"
// invariants (9–11, 13–16): a session (internal/vgen) is run under an arm —
// a configuration — and a schedule — a seeded plan of disturbances — and
// everything a user could observe of the run is recorded; a row of the
// table names two arms, a schedule, the observed fields that must be
// byte-identical between them and a witness that the disturbance actually
// happened.

// --- the daemon --------------------------------------------------------

// testDaemon is a restartable stand-in for cascade-engined: a
// transport.Host served on a loopback listener whose address survives
// kill/restart cycles. kill severs the listener and every live
// connection (what a SIGKILL does to the process's sockets); restart
// builds a fresh host on the same address, resuming from the journal
// when one is configured. Kills happen between steps in these tests, so
// no request is mid-Handle when the old host's journal goes quiet.
type testDaemon struct {
	t       testing.TB
	addr    string
	journal string // "" disables daemon-side session resumption
	jit     bool

	mu      sync.Mutex
	l       net.Listener
	conns   []net.Conn
	host    *transport.Host
	resumed int // engines the current host resumed from the journal
}

func newTestDaemon(t testing.TB, journal string, jit bool) *testDaemon {
	d := &testDaemon{t: t, journal: journal, jit: jit}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d.addr = l.Addr().String()
	d.serve(l)
	t.Cleanup(d.kill)
	return d
}

// roomy is the testbed's fabric at its clock with room for anything a
// generator writes: a design that does not fit stays in software, and a
// comparison of two runs that never leave software shows little.
func roomy() *fpga.Device { return fpga.NewDevice(1<<22, 50_000_000) }

func (d *testDaemon) serve(l net.Listener) {
	dev := roomy()
	host := transport.NewHost(transport.HostOptions{Device: dev, Toolchain: fastToolchain(dev), DisableJIT: !d.jit})
	resumed := 0
	if d.journal != "" {
		var err error
		if _, resumed, err = host.EnableJournal(d.journal); err != nil {
			d.t.Fatal(err)
		}
	}
	d.mu.Lock()
	d.l, d.host, d.resumed = l, host, resumed
	d.mu.Unlock()
	go host.ServeListener(tracked{l, d})
}

// tracked notes every connection the daemon accepts, for kill to sever.
type tracked struct {
	net.Listener
	d *testDaemon
}

func (l tracked) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.d.mu.Lock()
		l.d.conns = append(l.d.conns, conn)
		l.d.mu.Unlock()
	}
	return conn, err
}

// kill drops the daemon mid-run.
func (d *testDaemon) kill() {
	d.mu.Lock()
	l, conns := d.l, d.conns
	d.l, d.conns = nil, nil
	d.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

// restart brings the daemon back on the same address.
func (d *testDaemon) restart() {
	l, err := net.Listen("tcp", d.addr)
	if err != nil {
		d.t.Fatal(err)
	}
	d.serve(l)
}

// live is the host serving now.
func (d *testDaemon) live() *transport.Host {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.host
}

// --- arm, schedule, observed -------------------------------------------

// arm is how a session is run: what the invariants' tests vary, spelled
// with the options the product already has.
type arm struct {
	feats Features
	lanes int // 0 runs serially

	hosted    bool // user engines live on a loopback daemon…
	daemonJIT bool // …which promotes them onto its own fabric,
	journal   bool // journals them for restarts,
	session   bool // and serves them in a tenant session;
	retries   int  // the transport's retry budget
	supervise bool // breaker, failover and re-host around the daemon

	durable bool                  // Open over a directory: journal and checkpoints
	farm    toolchain.FarmOptions // Workers > 0 shards compiles over a farm
	scale   float64               // toolchain pacing (toolchain.Options.Scale); 0 compiles near-instantly

	// finish drives the session to its own $finish — every fragment
	// first, pads left alone — instead of tick by tick: the one way a run
	// that loses clock edges to an outage can be compared.
	finish bool
}

// schedule is one seeded plan of everything that may disturb a run.
type schedule struct {
	faults     fault.Config // its seed plans everything: compile, bus, region and net faults, and the outages below
	outages    int          // daemon kill/restart cycles (fault.Config.Outages over steps)
	shardsDown int          // compile-farm shard outages (fault.Config.Outages over route decisions)
	maxQueue   int          // the toolchain's admission bound: submissions beyond it are shed
	refuse     string       // a fragment attempted refuseAt ticks in, which must be refused
	refuseAt   int
}

// farmRoutes is the horizon of farm outages, in route decisions: a
// session's few fabric flows are routed early, so the windows must fall
// among its first routes for a downed shard to be anyone's home.
const farmRoutes = 6

// observed is everything a user could see of a run.
type observed struct {
	Display  string            // the $display stream
	Leds     []uint64          // the LED bank after each tick of the script
	Phases   []Phase           // the JIT phase after each tick (each step, run to $finish)
	Snapshot string            // the final snapshot, encoded
	States   map[string]string // final state per subprogram path
	Time     vclock.Breakdown  // the virtual-time ledger
	Records  uint64            // journal records appended
	Faults   fault.Stats       // the injector's decisions (probe count aside)
	Stats    Stats             // for witnesses
}

// pinnedWall freezes the observer's wall clock, so the one wall-adaptive
// path (open-loop burst sizing) is deterministic and open-loop phases are
// part of every comparison.
var pinnedWall = time.Unix(1_700_000_000, 0)

// start builds the runtime arm describes, disturbed as sch plans, with the
// prelude evaluated; stop releases what it holds.
func (a arm) start(t testing.TB, sch schedule) (r *Runtime, view *BufView, d *testDaemon, kills []fault.Window, stop func(), err error) {
	kills = sch.faults.Outages("daemon", 1, sch.outages, 100, 2, 5)
	view = &BufView{Quiet: true}
	dev := roomy()
	tco := toolchain.DefaultOptions()
	if tco.Scale = a.scale; a.scale == 0 {
		tco.Scale, tco.BasePs = 1e9, 1
	}
	tco.MaxQueue, tco.LevelPs = sch.maxQueue, 1 // timing closes on anything, as fastToolchain
	opts := Options{View: view, Device: dev, Toolchain: toolchain.New(dev, tco), Features: a.feats,
		Parallelism: max(a.lanes, 1), OpenLoopTargetPs: 1, // one tick a burst, so ticks can be counted
		Observer: obsv.New(obsv.Options{WallClock: func() time.Time { return pinnedWall }})}
	if sch.faults != (fault.Config{Seed: sch.faults.Seed}) { // a bare seed plans outages only
		opts.Injector = fault.New(sch.faults)
	}
	if a.farm.Workers > 0 {
		farm := a.farm
		farm.Outages = append(farm.Outages, sch.faults.Outages("farm", farm.Workers, sch.shardsDown, farmRoutes, 1, 2)...)
		opts.Farm = &farm
	}
	stop = func() {}
	if a.hosted {
		journal := ""
		if a.journal {
			journal = filepath.Join(t.TempDir(), "host.journal")
		}
		d = newTestDaemon(t, journal, a.daemonJIT)
		stop = d.kill
		opts.Remote = &RemoteOptions{Addr: d.addr, DialTimeout: time.Second, CallTimeout: time.Second, Retries: a.retries}
		if a.session {
			opts.Remote.SessionQuotaLEs, opts.Remote.SessionShare, opts.Remote.SessionName = dev.Capacity()/2, 1, "repl"
		}
		if a.supervise {
			opts.Supervise = supTestOptions()
		}
	}
	if a.durable {
		opts.Persist = &PersistOptions{Dir: t.TempDir(), EverySteps: 48}
		if r, _, err = Open(opts); err != nil {
			return nil, nil, nil, kills, stop, err
		}
	} else {
		r = New(opts)
	}
	halt := stop
	stop = func() { r.CloseRemote(); r.ClosePersistence(); halt() }
	return r, view, d, kills, stop, r.Eval(DefaultPrelude)
}

// drive runs s on r, recording the LEDs and the phase as it goes.
func (a arm) drive(r *Runtime, d *testDaemon, kills []fault.Window, sch schedule, s vgen.Script, o *observed) error {
	sample := func() {
		o.Leds = append(o.Leds, r.World().Led("main.led"))
		o.Phases = append(o.Phases, r.Phase())
	}
	ticks := 0
	for _, st := range s.Steps {
		if st.Pad >= 0 && !a.finish {
			r.World().PressPad("main.pad", uint64(st.Pad))
		}
		if src := st.Source(); src != "" {
			if err := r.Eval(src); err != nil {
				return err
			}
		}
		for i := 0; i < st.Ticks && !a.finish; i++ {
			if sch.refuse != "" && ticks == sch.refuseAt && r.Eval(sch.refuse) == nil {
				return fmt.Errorf("eval(%q) should be refused", sch.refuse)
			}
			r.RunTicks(1)
			ticks++
			sample()
		}
	}
	// Run to $finish. Outages land between steps — where a SIGKILL lands
	// between two served frames — at the schedule's step offsets: killed
	// after step From, restarted after step To.
	step0, next := r.steps, 0
	for i := 0; a.finish && i < 20000 && !r.Finished(); i++ {
		r.Step()
		if next < len(kills) {
			switch w := kills[next]; r.steps - step0 {
			case w.From:
				d.kill()
			case w.To:
				d.restart()
				next++
			}
		}
		sample()
	}
	if a.finish && !r.Finished() {
		return errors.New("the session never reached $finish")
	}
	return nil
}

// observe runs s under a and sch and returns what could be seen of it. What
// must hold of any run of an arm is checked here, whichever row asked: a
// daemon-hosted run reports its daemon, books every frame of the shared
// connection to the engines it carried, and leaves no session behind.
func observe(t testing.TB, a arm, sch schedule, s vgen.Script) (o observed, err error) {
	r, view, d, kills, stop, err := a.start(t, sch)
	defer stop()
	if err == nil {
		err = a.drive(r, d, kills, sch, s, &o)
	}
	if err != nil {
		return o, err
	}
	r.flushDisplays()
	snap := r.Snapshot()
	o.Display, o.Snapshot, o.States = view.Output(), EncodeSnapshot(snap), map[string]string{}
	for path, state := range snap.States {
		if _, user := r.ver.flatElabs[path]; user {
			o.States[path] = fmt.Sprint(state)
		}
	}
	st := r.Stats()
	o.Time, o.Records, o.Stats, o.Faults = st.Time, st.Persist.Records, st, st.Faults
	o.Faults.Checks = 0 // engines spend a lane-dependent number of steps being probed
	if errs := view.Errors(); len(errs) > 0 && sch == (schedule{}) {
		return o, fmt.Errorf("undisturbed run reported %v", errs)
	}
	if !a.hosted {
		return o, nil
	}
	if st.Remote != d.addr {
		return o, fmt.Errorf("stats remote = %q, want %q", st.Remote, d.addr)
	}
	if !a.session && !a.supervise {
		var tcp transport.Stats
		for _, e := range st.Engines {
			if e.Transport == "tcp" {
				tcp.Add(e.Xport)
			}
		}
		if conn := r.remoteT.Stats(); tcp != conn || conn.RoundTrips == 0 || conn.BytesOut == 0 {
			return o, fmt.Errorf("tcp engines' books %+v do not sum to the connection's %+v", tcp, conn)
		}
	}
	if a.session && d.live().Sessions() != 1 {
		return o, fmt.Errorf("daemon sessions = %d, want 1", d.live().Sessions())
	}
	if err := r.CloseRemote(); err != nil {
		return o, fmt.Errorf("close remote: %v", err)
	}
	if n := d.live().Sessions(); n != 0 {
		return o, fmt.Errorf("%d sessions left on the daemon after CloseRemote", n)
	}
	return o, nil
}

// differ names the first of fields in which o and p differ ("" if none).
func (o observed) differ(p observed, fields []string) string {
	for _, f := range fields {
		a, b := reflect.ValueOf(o).FieldByName(f).Interface(), reflect.ValueOf(p).FieldByName(f).Interface()
		if !reflect.DeepEqual(a, b) {
			return fmt.Sprintf("%s differs:\nA: %+v\nB: %+v", f, a, b)
		}
	}
	return ""
}

// --- the table ----------------------------------------------------------

// row is one "A ≡ B" claim. B runs under sched; A runs undisturbed, or —
// both — under sched too (a replay, another width). inv is the invariant's
// number in DESIGN.md (a letter marks the rows that keep a test name of
// their own); group and name are the subtest the row runs as, one of them
// mentioning the session ($S).
type row struct {
	inv, group, name string
	a, b             arm
	sched            schedule
	both             bool
	same             []string                 // fields of observed that must be identical
	witness          func(a, b observed) bool // what must have happened, on at least one session
}

// What may be compared: ticks line up only between arms in lock step, and
// ledgers only between arms that bill the same work.
var (
	seen    = []string{"Display", "Leds", "States"}
	ledger  = []string{"Display", "Leds", "Phases", "States", "Time"}
	exactly = []string{"Display", "Leds", "Phases", "Snapshot", "States", "Time", "Records"}
)

func rows() []row {
	var out []row
	add := func(inv, group, name string, a, b arm, sched schedule, both bool, same []string, witness func(a, b observed) bool) {
		out = append(out, row{inv, group, name, a, b, sched, both, same, witness})
	}
	flat := Features{DisableInline: true} // one engine per module: what lanes, daemons and farms spread out
	quiet := Features{DisableInline: true, DisableJIT: true}
	lockstep := Features{DisableOpenLoop: true} // inlined and forwarded, but ticks still line up
	lanes := func(a arm, n int) arm { a.lanes = n; return a }

	// 3. Inlining is invisible — across evals too: a re-eval carries every
	// subprogram's state through the split of the merged root and back.
	apart := arm{feats: quiet}
	add("3", "$S", "inlined", apart, arm{feats: Features{DisableJIT: true}}, schedule{}, false, seen, nil)
	add("3", "$S", "inlined jit", apart, arm{feats: Features{DisableForwarding: true}}, schedule{}, false, seen, nil)
	add("3", "$S", "forwarded", apart, arm{feats: lockstep}, schedule{}, false, seen, nil)

	// 9. Parallel-schedule equivalence: serial ≡ 2, 3 and 8 lanes — below,
	// at and above the batch size — without and with mid-run migration.
	// 11. Transports are invisible: ≡ daemon-hosted, the daemon's JIT
	// promoting engines mid-run and the client seeing only locations flip.
	for _, jit := range []bool{false, true} {
		group := fmt.Sprintf("$S_jit%v", jit)
		serial := arm{feats: Features{DisableInline: true, DisableJIT: !jit}}
		for _, n := range []int{2, 3, 8} {
			add("9", group, fmt.Sprintf("lanes%d", n), serial, lanes(serial, n), schedule{}, false, seen, nil)
		}
		add("11", group, "daemon", serial, arm{feats: serial.feats, lanes: 8, hosted: true, daemonJIT: jit}, schedule{}, false, seen,
			func(_, b observed) bool { return b.Stats.Xport.RoundTrips > 0 })
	}
	add("11s", "$S", "session", arm{feats: flat}, arm{feats: flat, lanes: 4, hosted: true, daemonJIT: true, session: true}, schedule{}, false, seen, nil)
	// Capped drops are absorbed by the retry budget: billed, never seen.
	drops := schedule{faults: fault.Config{Seed: 11, NetDrop: 1, MaxNetFaults: 3}}
	add("11d", "$S", "drops", arm{feats: quiet}, arm{feats: quiet, lanes: 4, hosted: true, retries: 3}, drops, false, seen,
		func(_, b observed) bool { return b.Stats.Xport.Drops == 3 && b.Stats.Xport.Retries == 3 })

	// 10. Faults are invisible: flaky compiles are retried, a region fault
	// on the first placement resubmits, a bus error in an engine's first
	// hardware step evicts it to software and the cache re-promotes it.
	// Injector decisions are per-site counters, so they do not depend on
	// the width either.
	faults := schedule{faults: fault.Config{Seed: 1, CompileTransient: 1, MaxCompileFaults: 2,
		RegionFault: 1, MaxRegionFaults: 1, BusError: 1, MaxBusFaults: 1}}
	evicted := func(_, b observed) bool {
		st := b.Stats
		return st.Compile.Retried > 0 && st.Compile.TransientFaults > 0 && st.HWFaults > 0 && st.Evictions > 0 && st.Faults.Injected > 0
	}
	add("10", "$S", "serial", arm{feats: flat}, arm{feats: flat}, faults, false, seen, evicted)
	add("10", "$S", "parallel", arm{feats: flat}, arm{feats: flat, lanes: 8}, faults, false, seen, evicted)
	add("10", "$S", "decisions", arm{feats: flat}, arm{feats: flat, lanes: 8}, faults, true, append([]string{"Faults"}, seen...), nil)
	add("10", "$S", "forwarded", arm{feats: lockstep}, arm{feats: lockstep}, faults, false, seen, evicted)

	// 13. Tiering is invisible: interpreter ≡ the full ladder, and the
	// ladder climbed back down under faults (region faults hit the native
	// code cache's sites too).
	interp, ladder := arm{feats: quiet}, arm{feats: Features{DisableInline: true, NativeTier: true}}
	climbed := func(_, b observed) bool { return b.Stats.Compile.Submitted >= 2 }
	add("13", "$S", "ladder", interp, ladder, schedule{}, false, seen, climbed)
	add("13", "$S", "parallel", interp, lanes(ladder, 8), schedule{}, false, seen, climbed)
	add("13", "$S", "faults", interp, ladder, schedule{faults: fault.Config{Seed: 1, RegionFault: 1, MaxRegionFaults: 2, BusError: 1, MaxBusFaults: 1}},
		false, seen, func(_, b observed) bool { return b.Stats.NativeFaults > 0 && b.Stats.Demotions > 0 })

	// 14. Supervision is invisible: a journaled daemon killed and restarted
	// twice, frames dropped, and — two engines failing over into a
	// toolchain that admits one submission — compiles shed. Output is the
	// fault-free run's; clocks are not compared against it or across
	// widths (failover re-billing is real work, batch makespan depends on
	// the lanes), but a replay at a fixed width reproduces them.
	chaotic := schedule{outages: 2, maxQueue: 1, faults: fault.Config{Seed: 1777, NetDrop: 1, MaxNetFaults: 2}}
	calm := arm{feats: Features{DisableJIT: true}, finish: true}
	stormy := arm{feats: Features{DisableInline: true, NativeTier: true}, hosted: true, journal: true, supervise: true, finish: true}
	healed := func(_, b observed) bool {
		sup := b.Stats.Supervise
		return sup.Trips > 0 && sup.Failovers > 0 && sup.Rehosts > 0 && b.Stats.Faults.Injected > 0 && b.Stats.Compile.Shed > 0
	}
	add("14", "$S", "serial", calm, stormy, chaotic, false, []string{"Display"}, healed)
	add("14", "$S", "parallel", calm, lanes(stormy, 4), chaotic, false, []string{"Display"}, healed)
	add("14", "$S", "replay", stormy, stormy, chaotic, true, []string{"Display", "Phases", "Time"}, healed)

	// 15. The compile farm is invisible: where a flow runs changes, what
	// the program observes and is billed does not — routed plainly, stolen
	// under queue pressure (seven depth-1 shards for at most six flows: pressure steals, never
	// sheds), rerouted around seeded shard outages, and replayed.
	local, plain := arm{feats: flat}, arm{feats: flat, farm: toolchain.FarmOptions{Workers: 2}}
	routed := func(_, b observed) bool { return b.Stats.Farm.Jobs >= 4 && b.Stats.Farm.Routed >= 4 }
	add("15", "$S", "farm", local, plain, schedule{}, false, ledger, routed)
	add("15", "$S", "parallel", lanes(local, 4), lanes(plain, 4), schedule{}, false, ledger, routed)
	add("15", "$S", "replay", plain, plain, schedule{}, true, ledger, routed)
	add("15", "$S", "steal", local, arm{feats: flat, farm: toolchain.FarmOptions{Workers: 7, QueueDepth: 1}}, schedule{}, false, ledger,
		func(_, b observed) bool { return b.Stats.Farm.Stolen > 0 })
	down, dark := arm{feats: flat, farm: toolchain.FarmOptions{Workers: 3}}, schedule{faults: fault.Config{Seed: 0xcab1e}, shardsDown: 2}
	rerouted := func(_, b observed) bool { return b.Stats.Farm.Rerouted > 0 }
	add("15", "$S", "outages", local, down, dark, false, ledger, rerouted)
	add("15", "$S", "outage replay", down, down, dark, true, ledger, rerouted)

	// 16. A rejected eval is invisible: for every way the front end can
	// refuse a fragment, in every configuration, a session that attempts it
	// — in the software phase, the fabric compile in flight, on the very
	// tick before the hot swap lands (compare finds it in the reference
	// run): a refusal that cancelled or re-billed anything moves the
	// trajectory — is the session that never did, open-loop bursts and
	// journal length included.
	for cfg := 0; cfg < 16; cfg++ {
		a := arm{feats: Features{DisableInline: cfg&1 != 0, NativeTier: cfg&2 != 0}, durable: cfg&4 != 0, lanes: 1 + 3*(cfg>>3), scale: 4e6}
		group := fmt.Sprintf("inline=%v native=%v durable=%v par=%d", !a.feats.DisableInline, a.feats.NativeTier, a.durable, a.lanes)
		for _, f := range refusals {
			if f.inlinedOnly && a.feats.DisableInline {
				continue // accepted: nothing is renamed (TestRejectedInlineLeavesProgramRunning)
			}
			add("16", group, "$S "+f.class, a, a, schedule{refuse: f.src}, false, exactly, func(ref, _ observed) bool {
				return ref.Display != "" && swapAt(ref) < len(ref.Phases) && a.durable == (ref.Records != 0)
			})
		}
	}
	return out
}

// swapAt is how many ticks o ran before the one that ended in hardware.
func swapAt(o observed) int {
	for i, p := range o.Phases {
		if p >= PhaseHardware {
			return i
		}
	}
	return len(o.Phases)
}

// refusals are the ways the front end can refuse a fragment. $I is an
// instance of the session, $V a variable of it nothing reads from outside.
var refusals = []struct {
	class, src  string
	inlinedOnly bool
}{
	{"duplicate driver", `assign led.val = 1; assign led.val = 2;`, false}, // double-drives through the promotion, whoever drove it first
	{"parse error", `wire [3:0] w = ;`, false},
	{"undeclared identifier", `assign q = missing;`, false},
	{"duplicate module", "module Rol(); endmodule\nmodule Rol(); endmodule", false},
	{"elaboration error in a declared module", `module Bad(input wire c, output wire [3:0] o);
	   wire [3:0] q = 4'd5; assign o = q[7:4]; endmodule
	 wire [3:0] bo; Bad b(.c(clk.val), .o(bo));`, false},
	{"inline name collision", `reg [7:0] $I__$V = 3;`, true},
}

// outcome is one observation, or why there is none.
type outcome struct {
	o   observed
	err error
}

// compare runs row r on s — A taken from base when a row already observed
// it: a baseline is run once per session and arm — and reports how B
// diverged from A ("" if it did not), an error if either could not be run,
// and whether the row's witness fired.
func compare(t testing.TB, r row, s vgen.Script, base map[string]outcome) (diverged string, witnessed bool, err error) {
	collision := "a__x" // twoModules' instance a, its register x
	if strings.HasPrefix(s.Name, "vgen") {
		collision = "u0__r0" // a generated session's first instance, its register 0
	}
	r.sched.refuse = strings.ReplaceAll(r.sched.refuse, "$I__$V", collision)
	sa := schedule{}
	if r.both {
		sa = r.sched
	}
	key := fmt.Sprintf("%s|%+v|%+v", s.Name, r.a, sa)
	a, ok := base[key]
	if !ok {
		a.o, a.err = observe(t, r.a, sa, s)
		base[key] = a
	}
	if a.err != nil {
		return "", false, fmt.Errorf("A: %w", a.err)
	}
	if r.sched.refuseAt = swapAt(a.o); r.sched.refuseAt == len(a.o.Phases) {
		r.sched.refuseAt = 3 // never swapped: anywhere will do
	}
	b, err := observe(t, r.b, r.sched, s)
	if err != nil {
		return "", false, fmt.Errorf("B: %w", err)
	}
	if d := a.o.differ(b, r.same); d != "" {
		return d, false, nil
	}
	return "", r.witness == nil || r.witness(a.o, b), nil
}

// known are the row × session pairs that diverge for a reason on record
// (ROADMAP item 3 carries each with its shrunk session): skipped by name,
// and their rows left to the table's seeds by FuzzInvisible.
var known = map[[2]string]string{
	// Rows 3 and 10 "forwarded": whenever one arm is in forwarded lock-step
	// at a press and the other is not.
	{"forwarded", "latePad"}: "forwarded lock-step hands the user logic a pad press one step late",
}

// check is compare as a test: a divergence on a generated session is
// reported on the smallest session vgen.Shrink can find that still shows one.
func check(t *testing.T, r row, s vgen.Script, base map[string]outcome) (witnessed bool) {
	if why, ok := known[[2]string{r.name, s.Name}]; ok {
		t.Skip(why)
	}
	d, witnessed, err := compare(t, r, s, base)
	if err != nil {
		t.Fatalf("%v\nsession:\n%s", err, s)
	}
	if d == "" {
		return witnessed
	}
	small := vgen.Shrink(s, func(c vgen.Script) bool {
		d, _, err := compare(t, r, c, map[string]outcome{})
		return err == nil && d != ""
	})
	d, _, _ = compare(t, r, small, map[string]outcome{})
	t.Errorf("B is not A: %s\nsession (shrunk from %s):\n%s", d, s.Name, small)
	return false
}

// invisible runs the rows of invariant inv over sessions, as subtests
// <group>/<name>. Every row's witness must fire on at least one session: a
// comparison whose disturbance never happened shows nothing.
func invisible(t *testing.T, inv string, sessions []vgen.Script) {
	var rs []row
	for _, r := range rows() {
		if r.inv == inv {
			rs = append(rs, r)
		}
	}
	fired, base := make([]bool, len(rs)), map[string]outcome{}
	for i, j := 0, 0; i < len(rs); i = j {
		for j = i; j < len(rs) && rs[j].group == rs[i].group; j++ {
		}
		// A group that names the session is a subtest per session; one that
		// does not holds every session's rows.
		group := func(t *testing.T, ss []vgen.Script) {
			for _, s := range ss {
				for k := i; k < j && (!rs[k].a.finish || strings.Contains(s.String(), "$finish")); k++ {
					t.Run(strings.ReplaceAll(rs[k].name, "$S", s.Name), func(t *testing.T) { fired[k] = check(t, rs[k], s, base) || fired[k] })
				}
			}
		}
		if !strings.Contains(rs[i].group, "$S") {
			t.Run(rs[i].group, func(t *testing.T) { group(t, sessions) })
			continue
		}
		for _, s := range sessions {
			t.Run(strings.ReplaceAll(rs[i].group, "$S", s.Name), func(t *testing.T) { group(t, []vgen.Script{s}) })
		}
	}
	for i, r := range rs {
		if !fired[i] && !t.Failed() {
			t.Errorf("row %s %s %s: its witness fired on none of %d sessions", r.inv, r.group, r.name, len(sessions))
		}
	}
}

// chaosProg is two independent counters, so failover, re-host and the
// overload path (two simultaneous native submissions into a toolchain that
// admits one) all have more than one engine to disagree about; farmProg is
// four, all distinct, so a farm has as many netlist fingerprints to route,
// steal and replicate. Both $finish, so every arm runs to the same
// functional endpoint no matter how many clock edges chaos eats on the way.
const finishAt40 = "always @(posedge clk.val) if (g0.out == 8'd40) $finish;\n"

var (
	chaosProg = counters("chaosProg", [4]int{8, 0, 1, 1}, [4]int{8, 0, 1, 1}).Steps[0].Src + finishAt40
	farmProg  = counters("farmProg", [4]int{8, 0, 1, 1}, [4]int{10, 0, 2, 1}, [4]int{12, 0, 3, 1}, [4]int{14, 0, 5, 1}).Steps[0].Src + finishAt40
)

// The sessions each invariant's test was written on, kept by name so each
// witness still fires: frozen (remote_round_test.go) are the four programs
// of independent counters the remote ledger was pinned on.
var (
	programs = append(append([]vgen.Script{}, frozen...), vgen.Program("figure3", figure3, 48), vgen.Program("twoModules", twoModules, 48),
		// Shrunk from a generated session under "3 forwarded", and skipped
		// there (known): absorbed into the fabric engine, the pad hands the
		// user logic a press one step later than it does in software.
		vgen.Script{Name: "latePad", Steps: []vgen.Step{{Pad: -1, Ticks: 1, Src: `wire [31:0] w = pad.val;
always @(negedge clk.val) $display("w=%h", w);`}, {Pad: 5, Ticks: 1}}},
		// Shrunk from a generated session under "11s session": a daemon is shipped
		// printed source, and the printer wrote ~(&x) as the nand ~&x.
		vgen.Program("nestedUnary", "wire [3:0] nu = ~(&4'd0);\nassign led.val = nu;", 4))
	finite = []vgen.Script{vgen.Program("chaosProg", chaosProg, 48), vgen.Program("farmProg", farmProg, 48)}
)

// Each invariant keeps the name of the test it was written as, over the
// hand-written sessions; TestInvisible runs the whole table over generated
// ones.
func TestInliningIsInvisible(t *testing.T)             { invisible(t, "3", programs) }
func TestSerialParallelEquivalence(t *testing.T)       { invisible(t, "9", programs) }
func TestFaultDeterminismProperty(t *testing.T)        { invisible(t, "10", programs) }
func TestSerialParallelRemoteEquivalence(t *testing.T) { invisible(t, "11", programs) }
func TestRemoteSessionEquivalence(t *testing.T)        { invisible(t, "11s", programs) }
func TestRemoteEquivalenceWithNetDrops(t *testing.T)   { invisible(t, "11d", programs) }
func TestNativeTierEquivalenceProperty(t *testing.T)   { invisible(t, "13", programs) }
func TestChaosInvariant14(t *testing.T)                { invisible(t, "14", finite) }
func TestFarmInvariant15(t *testing.T)                 { invisible(t, "15", finite) }
func TestEvalErrorLeavesProgramIntact(t *testing.T)    { invisible(t, "16", programs[5:6]) }

func TestInvisible(t *testing.T) {
	var generated []vgen.Script
	for seed := uint64(0); seed < 8; seed++ {
		generated = append(generated, vgen.Session(seed))
	}
	for _, inv := range []string{"3", "9", "10", "11", "11s", "11d", "13", "14", "15", "16"} {
		t.Run(inv, func(t *testing.T) { invisible(t, inv, generated) })
	}
}

// FuzzInvisible is the table with the seed free: any generated session must
// satisfy any row (witnesses aside — a seed need not provoke every
// disturbance).
func FuzzInvisible(f *testing.F) {
	table := rows()
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed, uint(seed)*17)
	}
	f.Fuzz(func(t *testing.T, seed uint64, i uint) {
		r := table[i%uint(len(table))]
		for k := range known {
			if k[0] == r.name {
				t.Skip(known[k])
			}
		}
		check(t, r, vgen.Session(seed), map[string]outcome{})
	})
}
