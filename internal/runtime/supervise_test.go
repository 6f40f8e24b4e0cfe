package runtime

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cascade/internal/proto"
	"cascade/internal/supervise"
	"cascade/internal/transport"
	"cascade/internal/vclock"
)

// hosted counts the engines st shows on the daemon.
func hosted(st Stats) (n int) {
	for _, e := range st.Engines {
		if e.Transport == "tcp" {
			n++
		}
	}
	return n
}

// supCtrProg prints its counter on every posedge, so any state lost or
// duplicated across a failover shows up as a hole or a repeat in the
// output stream.
const supCtrProg = `
module Ctr(input wire c, output wire [7:0] out);
  reg [7:0] n = 0;
  always @(posedge c) begin
    n <= n + 1;
    $display("n=%d", n);
  end
  assign out = n;
endmodule
Ctr ctr(.c(clk.val));
assign led.val = ctr.out;
`

// supTestOptions are the aggressive supervision timings the tests use:
// near-instant reopen so recovery is probed on the next step, and a
// heartbeat well inside the run's virtual span.
func supTestOptions() *supervise.Options {
	return &supervise.Options{
		ProbeIntervalPs: 10 * vclock.Us,
		FailThreshold:   2,
		ReopenPs:        1,
	}
}

func supRemoteOptions(addr string) *RemoteOptions {
	return &RemoteOptions{
		Addr:        addr,
		DialTimeout: time.Second,
		CallTimeout: time.Second,
	}
}

// checkContinuousCounter parses "n=<k>" display lines and fails on any
// hole or duplicate: the sequence a fault-free run prints. Lost clock
// edges during an outage shift the values to later ticks but must never
// tear the sequence itself.
func checkContinuousCounter(t *testing.T, out string, minLines int) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < minLines {
		t.Fatalf("only %d output lines, want at least %d:\n%s", len(lines), minLines, out)
	}
	prev := -1
	for _, ln := range lines {
		var v int
		if _, err := fmt.Sscanf(ln, "n=%d", &v); err != nil {
			t.Fatalf("unparsable output line %q: %v", ln, err)
		}
		if prev >= 0 && v != prev+1 {
			t.Fatalf("output discontinuity: %d follows %d (hole or duplicate)\n%s", v, prev, out)
		}
		prev = v
	}
}

// TestSupervisedFailoverAndRehost drives the full self-healing loop
// against a real daemon: healthy remote execution, daemon killed
// mid-run (breaker trips, engines fail over to local software re-seeded
// from the last committed state, output continues), daemon restarted
// (half-open trial closes the breaker, engines re-host). The counter
// stream must stay continuous across both transitions.
func TestSupervisedFailoverAndRehost(t *testing.T) {
	d := newTestDaemon(t, filepath.Join(t.TempDir(), "host.journal"), false)
	view := &BufView{Quiet: true}
	r := newTestRuntime(t, Options{
		View:      view,
		Features:  Features{DisableJIT: true},
		Remote:    supRemoteOptions(d.addr),
		Supervise: supTestOptions(),
	})
	defer r.CloseRemote()
	r.MustEval(supCtrProg)

	r.RunTicks(8)
	st := r.Stats()
	if !st.Supervise.Enabled || st.Supervise.State != "closed" {
		t.Fatalf("healthy supervision stats = %+v", st.Supervise)
	}
	if st.Supervise.Trips != 0 {
		t.Fatalf("breaker tripped on a healthy daemon: %+v", st.Supervise)
	}
	if hosted(st) == 0 {
		t.Fatalf("no remote engines before the outage: %+v", st.Engines)
	}

	d.kill()
	r.RunTicks(8)
	st = r.Stats()
	if st.Supervise.Trips == 0 {
		t.Fatalf("breaker did not trip after daemon death: %+v", st.Supervise)
	}
	if st.Supervise.Failovers == 0 {
		t.Fatalf("no failover after trip: %+v", st.Supervise)
	}
	if hosted(st) != 0 {
		t.Fatalf("engines still on tcp after failover: %+v", st.Engines)
	}
	if got := r.World().Led("main.led"); got == 0 {
		t.Fatal("counter frozen after failover: led still 0")
	}

	d.restart()
	r.RunTicks(8)
	st = r.Stats()
	if st.Supervise.Rehosts == 0 {
		t.Fatalf("no re-host after daemon recovery: %+v", st.Supervise)
	}
	if st.Supervise.State != "closed" {
		t.Fatalf("breaker not closed after recovery: %+v", st.Supervise)
	}
	remoteEngines := hosted(st)
	if remoteEngines == 0 {
		t.Fatalf("engines not re-hosted after recovery: %+v", st.Engines)
	}
	if got := d.live().Engines(); got != remoteEngines {
		t.Fatalf("resumed daemon holds %d engines for %d hosted after the re-host", got, remoteEngines)
	}

	// The whole trajectory — remote, local, remote again — printed one
	// continuous counter sequence.
	checkContinuousCounter(t, view.Output(), 12)

	if !strings.Contains(st.Summary(), "supervise[state=closed") {
		t.Fatalf("summary missing supervise segment: %s", st.Summary())
	}
}

// TestSupervisedSessionReopenAfterRestart: the daemon restarts WITHOUT
// a journal, so the runtime's session ID is gone. The re-host sweep
// must detect the "unknown session" refusal, open a fresh session, and
// land the engines in it — not stay local forever.
func TestSupervisedSessionReopenAfterRestart(t *testing.T) {
	d := newTestDaemon(t, "", false)
	view := &BufView{} // not Quiet: the reopen notice is asserted below
	ro := supRemoteOptions(d.addr)
	ro.SessionQuotaLEs = 5000
	ro.SessionName = "alice"
	r := newTestRuntime(t, Options{
		View:      view,
		Features:  Features{DisableJIT: true},
		Remote:    ro,
		Supervise: supTestOptions(),
	})
	defer r.CloseRemote()
	r.MustEval(supCtrProg)

	r.RunTicks(4)
	if d.live().Sessions() != 1 {
		t.Fatalf("daemon sessions before outage = %d, want 1", d.live().Sessions())
	}
	d.kill()
	r.RunTicks(6)
	d.restart()
	if d.live().Sessions() != 0 {
		t.Fatalf("journalless restart kept %d sessions", d.live().Sessions())
	}
	// The refusal the re-host sweep keys on is an error value, not a
	// message: a second connection names the lost session and gets it.
	side, err := transport.DialTCP(d.addr, transport.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer side.Close()
	if err := transport.CloseSession(side, r.remoteSess, 0); !errors.Is(err, transport.ErrUnknownSession) {
		t.Fatalf("closing the lost session: %v, want ErrUnknownSession", err)
	}
	r.RunTicks(6)

	st := r.Stats()
	if st.Supervise.Rehosts == 0 {
		t.Fatalf("no re-host after restart: %+v", st.Supervise)
	}
	if d.live().Sessions() != 1 {
		t.Fatalf("re-host did not re-open a session: %d", d.live().Sessions())
	}
	reopened := false
	for _, in := range view.Infos() {
		if strings.Contains(in, "session re-opened") {
			reopened = true
		}
	}
	if !reopened {
		t.Fatalf("missing session-reopen notice in infos: %v", view.Infos())
	}
	checkContinuousCounter(t, view.Output(), 8)
}

// TestSupervisedRestartEpochDetection: a daemon killed and restarted
// within the same inter-step gap — with its journal — re-binds the SAME
// engine IDs, so every retry would succeed... against state that is
// journal-stale (the journal replays spawns and the last SetState, not
// execution progress). The transport must catch the boot-epoch change
// on its reconnect probe and fail fast with ErrDaemonRestarted, and the
// supervisor must force-trip PAST an absurdly high failure threshold:
// one "failure" whose follow-up probe succeeds would otherwise never
// trip, stranding the run on a latched client. The failover re-seeds
// from committed state, recovery re-hosts, and the counter stream stays
// continuous — no repeats from the stale daemon state, no holes. The
// copy the journal resumed is superseded by the re-host and must be ended
// there: left alone it would be respawned by every later restart over the
// same journal (and, with the JIT on, compile and take fabric each time).
func TestSupervisedRestartEpochDetection(t *testing.T) {
	d := newTestDaemon(t, filepath.Join(t.TempDir(), "host.journal"), false)
	view := &BufView{Quiet: true}
	ro := supRemoteOptions(d.addr)
	ro.Retries = 4 // plenty of budget: fail-fast must beat it
	r := newTestRuntime(t, Options{
		View:     view,
		Features: Features{DisableJIT: true},
		Remote:   ro,
		Supervise: &supervise.Options{
			ProbeIntervalPs: 10 * vclock.Us,
			FailThreshold:   1 << 20, // only a forced trip can open it
			ReopenPs:        1,
		},
	})
	defer r.CloseRemote()
	r.MustEval(supCtrProg)

	r.RunTicks(6)
	// Kill and restart within the same inter-step gap: the next
	// round-trip's retry loop redials into the resumed daemon, whose
	// journal re-bound the old engine IDs under a new boot epoch.
	d.kill()
	d.restart()
	r.RunTicks(8)

	st := r.Stats()
	if st.Supervise.Trips == 0 {
		t.Fatalf("epoch change did not force-trip the breaker: %+v", st.Supervise)
	}
	if st.Supervise.Failovers == 0 {
		t.Fatalf("no failover from committed state after forced trip: %+v", st.Supervise)
	}
	if st.Supervise.Rehosts == 0 {
		t.Fatalf("no re-host onto the reborn daemon: %+v", st.Supervise)
	}
	if st.Supervise.State != "closed" {
		t.Fatalf("breaker not closed after recovery: %+v", st.Supervise)
	}
	if hosted(st) == 0 {
		t.Fatalf("engines not back on the daemon: %+v", st.Engines)
	}
	if got := d.live().Engines(); got != 1 {
		t.Fatalf("daemon holds %d engines for a 1-engine program after the re-host", got)
	}
	// Again over the same journal: what it resumes does not grow.
	for cycle := 2; cycle <= 3; cycle++ {
		d.kill()
		d.restart()
		if d.resumed != 1 {
			t.Fatalf("restart %d resumed %d engines from the journal, want 1", cycle, d.resumed)
		}
		r.RunTicks(8)
		if st := r.Stats().Supervise; st.Rehosts != uint64(cycle) || st.State != "closed" {
			t.Fatalf("cycle %d did not re-host: %+v", cycle, st)
		}
		if got := d.live().Engines(); got != 1 {
			t.Fatalf("daemon holds %d engines after re-host %d, want 1", got, cycle)
		}
	}
	// The stale daemon state never reached the output: one continuous
	// count across every kill, restart, failover, and re-host.
	checkContinuousCounter(t, view.Output(), 10)
}

// TestSupervisedInitialOutputOnce: an engine rebuilt by a failover, and
// spawned afresh by the re-host, runs its initial blocks again each time.
// The user saw their output when the program first integrated; both moves
// discard it (the re-host used to print it again).
func TestSupervisedInitialOutputOnce(t *testing.T) {
	d := newTestDaemon(t, filepath.Join(t.TempDir(), "host.journal"), false)
	view := &BufView{Quiet: true}
	r := newTestRuntime(t, Options{
		View:      view,
		Features:  Features{DisableJIT: true},
		Remote:    supRemoteOptions(d.addr),
		Supervise: supTestOptions(),
	})
	defer r.CloseRemote()
	r.MustEval("reg [7:0] n = 0;\ninitial $display(\"boot\");\n" +
		"always @(posedge clk.val) n <= n + 1;\nassign led.val = n;\n")
	r.RunTicks(8)
	d.kill()
	r.RunTicks(8)
	d.restart()
	r.RunTicks(8)
	if st := r.Stats().Supervise; st.Failovers != 1 || st.Rehosts != 1 {
		t.Fatalf("no failover and re-host: %+v", st)
	}
	if got := view.Output(); got != "boot\n" {
		t.Fatalf("output %q, want the initial block's line once", got)
	}
}

// TestCheckpointOfLatchedEngineReopens: a hosted engine whose daemon is
// gone latches, and until the breaker trips it limps with no state to
// read, so a checkpoint taken then holds an empty image for it. The
// directory still opens: that engine starts from its initial state, the
// rest of the program from the checkpoint. A Snapshot taken in the same
// window restores too.
func TestCheckpointOfLatchedEngineReopens(t *testing.T) {
	d := newTestDaemon(t, "", false)
	dir := t.TempDir()
	opts, _ := persistTestOptions(dir, 1, nil)
	opts.Features.DisableJIT = true
	opts.Remote = supRemoteOptions(d.addr)
	opts.Supervise = &supervise.Options{ProbeIntervalPs: 10 * vclock.Us, FailThreshold: 1 << 20, ReopenPs: 1}
	r, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	r.MustEval(DefaultPrelude)
	r.MustEval(supCtrProg)
	r.RunTicks(8)
	d.kill()
	r.RunTicks(2)
	if st := r.Stats(); st.Supervise.Trips != 0 || hosted(st) == 0 {
		t.Fatalf("want a latched hosted engine below the breaker threshold: %+v %+v", st.Supervise, st.Engines)
	}
	snap := r.Snapshot()
	empty := 0
	for _, img := range snap.States {
		if len(img) == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("the latched engine's state was read")
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := r.ClosePersistence(); err != nil {
		t.Fatal(err)
	}
	r.CloseRemote()

	opts2, view2 := persistTestOptions(dir, 1, nil)
	opts2.Features.DisableJIT = true
	r2, info, err := Open(opts2)
	if err != nil {
		t.Fatalf("reopening a checkpoint of a latched engine: %v", err)
	}
	defer r2.ClosePersistence()
	if !info.Recovered || r2.Steps() != snap.Steps {
		t.Fatalf("recovered=%v at step %d, want step %d", info.Recovered, r2.Steps(), snap.Steps)
	}
	view3 := &BufView{Quiet: true}
	r3 := newTestRuntime(t, Options{View: view3, Features: Features{DisableJIT: true}})
	if err := r3.Restore(snap); err != nil {
		t.Fatalf("restoring a snapshot of a latched engine: %v", err)
	}
	for _, run := range []struct {
		r    *Runtime
		view *BufView
	}{{r2, view2}, {r3, view3}} {
		run.r.RunTicks(4)
		if out := run.view.Output(); !strings.HasPrefix(out, "n=0\n") {
			t.Fatalf("the counter did not start over from its initial state:\n%s", out)
		}
		checkContinuousCounter(t, run.view.Output(), 3)
	}
}

// TestSupervisedRehostHandoffFailure: the daemon comes back, the re-host
// sweep hands the first of three failed-over engines over, and the second
// one's state frame is lost mid-handoff. The sweep stops there: that
// engine and the third keep running locally, the first runs hosted, the
// output is the undisturbed run's — and the engine spawned for the failed
// handoff, half-seeded and about to compile, is ended, not left on the
// daemon for a client that has dropped it.
func TestSupervisedRehostHandoffFailure(t *testing.T) {
	run := func(disturb bool) (string, Stats, []string, int) {
		view := &BufView{}
		d := newTestDaemon(t, "", false)
		r, link := tapped(t, Options{
			View:      view,
			Features:  Features{DisableInline: true, DisableJIT: true},
			Remote:    supRemoteOptions(d.addr),
			Supervise: supTestOptions(),
		})
		r.MustEval(chaosProg)
		r.RunTicks(10)
		if disturb {
			d.kill()
			r.RunTicks(4)
			if st := r.Stats().Supervise; st.Failovers != 3 {
				t.Fatalf("no failover before the re-host under test: %+v", st)
			}
			// The second SetState from here on — the handoff of the second
			// re-host — is lost.
			before := link.frames[proto.KindSetState]
			link.lose = func(req *proto.Request) bool {
				return req.Kind == proto.KindSetState && link.frames[proto.KindSetState] == before+2
			}
			d.restart()
		}
		if !r.RunUntilFinish(2000) {
			t.Fatal("run never finished")
		}
		return view.Output(), r.Stats(), view.Infos(), d.live().Engines()
	}
	want, _, _, _ := run(false)
	got, st, infos, held := run(true)
	if got != want {
		t.Errorf("output diverged after a failed handoff:\n%s\nundisturbed:\n%s", got, want)
	}
	if st.Supervise.Rehosts != 1 || st.Supervise.State != "closed" {
		t.Errorf("want one engine re-hosted and the breaker closed: %+v", st.Supervise)
	}
	if n := hosted(st); n != 1 || held != 1 {
		t.Errorf("runtime drives %d hosted engine(s), daemon holds %d, want 1 and 1", n, held)
	}
	stayed := false
	for _, in := range infos {
		stayed = stayed || (strings.Contains(in, "re-host of") && strings.Contains(in, "staying local"))
	}
	if !stayed {
		t.Errorf("no notice of the failed re-host in %v", infos)
	}
}
