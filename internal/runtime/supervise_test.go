package runtime

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/supervise"
	"cascade/internal/transport"
	"cascade/internal/vclock"
)

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
	// faults, when non-zero, gives each host incarnation its own
	// injector (compile faults, region faults on the daemon fabric).
	// Restarts rebuild the injector at trial zero — scripted restarts
	// therefore reset the fault timeline at the same points every run.
	faults fault.Config

	mu    sync.Mutex
	l     net.Listener
	conns map[net.Conn]bool
	host  *transport.Host
}

func newTestDaemon(t testing.TB, journal string, jit bool) *testDaemon {
	return newChaosDaemon(t, journal, jit, fault.Config{})
}

func newChaosDaemon(t testing.TB, journal string, jit bool, faults fault.Config) *testDaemon {
	d := &testDaemon{t: t, journal: journal, jit: jit, faults: faults, conns: map[net.Conn]bool{}}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d.addr = l.Addr().String()
	d.serve(l)
	t.Cleanup(d.kill)
	return d
}

func (d *testDaemon) serve(l net.Listener) {
	dev := fpga.NewCycloneV()
	var inj *fault.Injector
	if d.faults != (fault.Config{}) {
		inj = fault.New(d.faults)
	}
	host := transport.NewHost(transport.HostOptions{
		Device:     dev,
		Toolchain:  fastToolchain(dev),
		DisableJIT: !d.jit,
		Injector:   inj,
	})
	if d.journal != "" {
		if _, _, err := host.EnableJournal(d.journal); err != nil {
			d.t.Fatal(err)
		}
	}
	d.mu.Lock()
	d.l, d.host = l, host
	d.mu.Unlock()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			d.mu.Lock()
			d.conns[conn] = true
			d.mu.Unlock()
			go func() {
				host.ServeConn(conn)
				d.mu.Lock()
				delete(d.conns, conn)
				d.mu.Unlock()
			}()
		}
	}()
}

// kill drops the daemon mid-run.
func (d *testDaemon) kill() {
	d.mu.Lock()
	l := d.l
	d.l = nil
	conns := make([]net.Conn, 0, len(d.conns))
	for c := range d.conns {
		conns = append(conns, c)
	}
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

// sessions reports the live host's session count.
func (d *testDaemon) sessions() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.host.Sessions()
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
	remoteEngines := 0
	for _, e := range st.Engines {
		if e.Transport == "tcp" {
			remoteEngines++
		}
	}
	if remoteEngines == 0 {
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
	for _, e := range st.Engines {
		if e.Transport == "tcp" {
			t.Fatalf("engine %s still on tcp after failover: %+v", e.Path, st.Engines)
		}
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
	remoteEngines = 0
	for _, e := range st.Engines {
		if e.Transport == "tcp" {
			remoteEngines++
		}
	}
	if remoteEngines == 0 {
		t.Fatalf("engines not re-hosted after recovery: %+v", st.Engines)
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
	if d.sessions() != 1 {
		t.Fatalf("daemon sessions before outage = %d, want 1", d.sessions())
	}
	d.kill()
	r.RunTicks(6)
	d.restart()
	if d.sessions() != 0 {
		t.Fatalf("journalless restart kept %d sessions", d.sessions())
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
	if d.sessions() != 1 {
		t.Fatalf("re-host did not re-open a session: %d", d.sessions())
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
// continuous — no repeats from the stale daemon state, no holes.
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
	remote := 0
	for _, e := range st.Engines {
		if e.Transport == "tcp" {
			remote++
		}
	}
	if remote == 0 {
		t.Fatalf("engines not back on the daemon: %+v", st.Engines)
	}
	// The stale daemon state never reached the output: one continuous
	// count across kill, restart, failover, and re-host.
	checkContinuousCounter(t, view.Output(), 10)
}
