package runtime

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"

	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/sim"
	"cascade/internal/transport"
)

// loopbackDaemon stands in for cascade-engined: a transport.Host with its
// own device and fast toolchain, served on a loopback listener. Returns
// the address to point Options.Remote at.
func loopbackDaemon(t testing.TB, disableJIT bool) string {
	t.Helper()
	dev := fpga.NewCycloneV()
	host := transport.NewHost(transport.HostOptions{
		Device:     dev,
		Toolchain:  fastToolchain(dev),
		DisableJIT: disableJIT,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go host.ServeListener(l)
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

// runEquivRemote is runEquiv with the user engines hosted on a loopback
// daemon: same program, same observables, every scheduler round a frame.
// It also returns the runtime's stats and the daemon connection's own.
func runEquivRemote(t *testing.T, prog string, feats Features, par, n int, ro *RemoteOptions, inj *fault.Injector) (string, []uint64, map[string]*sim.State, Stats, transport.Stats) {
	t.Helper()
	view := &BufView{Quiet: true}
	r := newTestRuntime(t, Options{View: view, Features: feats, Parallelism: par, Remote: ro, Injector: inj})
	defer r.CloseRemote()
	r.MustEval(prog)
	leds := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		r.RunTicks(1)
		leds = append(leds, r.World().Led("main.led"))
	}
	states := r.captureStates()
	return view.Output(), leds, states, r.Stats(), r.remoteT.Stats()
}

// TestSerialParallelRemoteEquivalence extends the scheduler-equivalence
// property to the third schedule: for random multi-engine programs, a
// runtime whose user engines live behind the TCP engine protocol must be
// observationally indistinguishable from the in-process serial one —
// identical display output in identical order, identical LED trace at
// every tick, identical final engine state. Odd seeds leave the JIT on,
// so the daemon promotes engines onto its own fabric mid-trace and the
// client only sees the location flip; observables still may not change.
func TestSerialParallelRemoteEquivalence(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		feats := Features{DisableInline: true}
		if seed%2 == 0 {
			feats.DisableJIT = true
		}
		t.Run(fmt.Sprintf("seed%d_jit%v", seed, !feats.DisableJIT), func(t *testing.T) {
			prog := genEquivProgram(rand.New(rand.NewSource(seed)))
			outS, ledS, stS := runEquiv(t, prog, feats, 1, 48)

			addr := loopbackDaemon(t, feats.DisableJIT)
			ro := &RemoteOptions{Addr: addr}
			outR, ledR, stR, stats, conn := runEquivRemote(t, prog, feats, 8, 48, ro, nil)

			if outS != outR {
				t.Errorf("display output diverged:\nserial: %q\nremote: %q\nprogram:\n%s", outS, outR, prog)
			}
			if !reflect.DeepEqual(ledS, ledR) {
				t.Errorf("LED trace diverged:\nserial: %v\nremote: %v\nprogram:\n%s", ledS, ledR, prog)
			}
			if !reflect.DeepEqual(stS, stR) {
				t.Errorf("final states diverged:\nserial: %v\nremote: %v\nprogram:\n%s", stS, stR, prog)
			}
			if stats.Remote != addr {
				t.Errorf("stats remote = %q, want %q", stats.Remote, addr)
			}
			// Sessionless and unsupervised, every frame on the connection
			// carried an engine, and a shared frame's cost is booked to the
			// engines it carried without loss or double count.
			var tcp transport.Stats
			for _, e := range stats.Engines {
				if e.Transport == "tcp" {
					tcp.Add(e.Xport)
				}
			}
			if tcp != conn || conn.RoundTrips == 0 || conn.BytesOut == 0 {
				t.Errorf("tcp engines' books %+v do not sum to the connection's %+v", tcp, conn)
			}
		})
	}
}

// TestRemoteSessionEquivalence reruns the remote-equivalence property
// with the runtime opted into a daemon session: engines spawn bound to
// a tenant region instead of the shared daemon fabric, observables are
// still byte-identical to the serial baseline, and closing the remote
// connection tears the session down on the daemon.
func TestRemoteSessionEquivalence(t *testing.T) {
	prog := genEquivProgram(rand.New(rand.NewSource(3)))
	feats := Features{DisableInline: true}
	outS, ledS, stS := runEquiv(t, prog, feats, 1, 48)

	dev := fpga.NewCycloneV()
	host := transport.NewHost(transport.HostOptions{
		Device:    dev,
		Toolchain: fastToolchain(dev),
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go host.ServeListener(l)
	defer l.Close()

	ro := &RemoteOptions{Addr: l.Addr().String(),
		SessionQuotaLEs: dev.Capacity() / 2, SessionShare: 1, SessionName: "repl"}
	view := &BufView{Quiet: true}
	r := newTestRuntime(t, Options{View: view, Features: feats, Parallelism: 4, Remote: ro})
	r.MustEval(prog)
	leds := make([]uint64, 0, 48)
	for i := 0; i < 48; i++ {
		r.RunTicks(1)
		leds = append(leds, r.World().Led("main.led"))
	}
	outR, stR := view.Output(), r.captureStates()

	if host.Sessions() != 1 {
		t.Fatalf("daemon sessions = %d, want 1", host.Sessions())
	}
	if outS != outR {
		t.Errorf("display output diverged in session:\nserial: %q\nremote: %q", outS, outR)
	}
	if !reflect.DeepEqual(ledS, leds) {
		t.Errorf("LED trace diverged in session:\nserial: %v\nremote: %v", ledS, leds)
	}
	if !reflect.DeepEqual(stS, stR) {
		t.Errorf("final states diverged in session")
	}
	if err := r.CloseRemote(); err != nil {
		t.Fatalf("close remote: %v", err)
	}
	if host.Sessions() != 0 {
		t.Fatalf("session leaked on daemon after CloseRemote: %d", host.Sessions())
	}
}

// TestRemoteEquivalenceWithNetDrops re-runs the remote schedule under
// deterministic network-fault injection: a capped number of injected
// message drops, each absorbed by the transport's retry budget. Drops
// must be billed (visible in the transport counters) but must not change
// a single observable byte.
func TestRemoteEquivalenceWithNetDrops(t *testing.T) {
	prog := genEquivProgram(rand.New(rand.NewSource(1)))
	feats := Features{DisableInline: true, DisableJIT: true}
	outS, ledS, stS := runEquiv(t, prog, feats, 1, 48)

	addr := loopbackDaemon(t, true)
	inj := fault.New(fault.Config{Seed: 11, NetDrop: 1, MaxNetFaults: 3})
	ro := &RemoteOptions{Addr: addr, Retries: 3}
	outR, ledR, stR, stats, _ := runEquivRemote(t, prog, feats, 4, 48, ro, inj)

	if outS != outR {
		t.Errorf("display output diverged under drops:\nserial: %q\nremote: %q", outS, outR)
	}
	if !reflect.DeepEqual(ledS, ledR) {
		t.Errorf("LED trace diverged under drops:\nserial: %v\nremote: %v", ledS, ledR)
	}
	if !reflect.DeepEqual(stS, stR) {
		t.Errorf("final states diverged under drops")
	}
	if stats.Xport.Drops != 3 {
		t.Errorf("injected drops not fully exercised: %d, want 3", stats.Xport.Drops)
	}
	if stats.Xport.Retries != 3 {
		t.Errorf("drops must be absorbed by retries: %d retries for %d drops",
			stats.Xport.Retries, stats.Xport.Drops)
	}
}

// TestLaneFlushOrdering is the -race regression for the laneIO contract
// (see the type comment in runtime.go): engines dispatched on worker
// lanes append $display output concurrently with other lanes, and the
// controller's schedule-order drain must still produce output
// byte-identical to a fully serial run. The program makes every engine
// print on every posedge so lanes are hot on each batch; widths 2 and 3
// put fewer lanes than the six members under the batch, so each lane
// claims several members from the dispatcher's cursor.
func TestLaneFlushOrdering(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&sb, "module Chat%d(input wire c, output wire [7:0] out);\n", i)
		fmt.Fprintf(&sb, "  reg [7:0] n = %d;\n", i+1)
		fmt.Fprintf(&sb, "  always @(posedge c) begin n <= n + %d; $display(\"e%d=%%d\", n); end\n", i+1, i)
		fmt.Fprintf(&sb, "  assign out = n;\nendmodule\nChat%d ch%d(.c(clk.val));\n", i, i)
	}
	sb.WriteString("assign led.val = ch0.out ^ ch1.out ^ ch2.out ^ ch3.out ^ ch4.out;\n")
	prog := sb.String()
	feats := Features{DisableInline: true, DisableJIT: true}

	outSerial, _, _ := runEquiv(t, prog, feats, 1, 64)
	if strings.Count(outSerial, "\n") < 5*64 {
		t.Fatalf("program did not chat enough: %d lines", strings.Count(outSerial, "\n"))
	}
	for trial, par := range []int{8, 2, 3, 8} {
		outPar, _, _ := runEquiv(t, prog, feats, par, 64)
		if outPar != outSerial {
			t.Fatalf("trial %d (%d lanes): parallel drain order diverged from serial:\nserial:   %q\nparallel: %q",
				trial, par, outSerial, outPar)
		}
	}
}

// TestRemoteRecovery checks that crash-safe persistence composes with
// remote engines: program state flows back over GetState for
// checkpoints, a new process recovers from the directory, respawns its
// engines on the daemon, restores them over SetState, and continues to
// the same future as an uninterrupted reference.
func TestRemoteRecovery(t *testing.T) {
	addr := loopbackDaemon(t, true)
	remoteOpts := func(dir string) (Options, *BufView) {
		opts, view := persistTestOptions(dir, 1, nil)
		opts.Remote = &RemoteOptions{Addr: addr}
		return opts, view
	}

	dir := t.TempDir()
	opts, view := remoteOpts(dir)
	r, info, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if info.Recovered {
		t.Fatal("fresh dir reported recovery")
	}
	r.MustEval(DefaultPrelude)
	r.MustEval(persistProgA)
	r.World().PressPad("main.pad", 3)
	r.RunTicks(200) // crosses the 64-step checkpoint cadence
	st := r.Stats()
	if st.Persist.Checkpoints == 0 {
		t.Fatalf("no checkpoints written: %+v", st.Persist)
	}
	if st.Xport.RoundTrips == 0 {
		t.Fatalf("reference run metered no remote traffic: %+v", st.Xport)
	}
	wantSteps, wantLed, wantOut := r.Steps(), r.World().Led("main.led"), view.Output()
	if wantOut == "" {
		t.Fatal("reference run produced no output")
	}
	if err := r.ClosePersistence(); err != nil {
		t.Fatal(err)
	}
	r.CloseRemote()

	// A new process over the same directory resumes exactly, engines
	// respawned on the daemon and restored over SetState.
	opts2, view2 := remoteOpts(dir)
	r2, info2, err := Open(opts2)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.ClosePersistence()
	defer r2.CloseRemote()
	if !info2.Recovered {
		t.Fatal("recovery not detected")
	}
	if r2.Steps() != wantSteps {
		t.Fatalf("resumed at step %d, want %d", r2.Steps(), wantSteps)
	}
	if got := r2.World().Led("main.led"); got != wantLed {
		t.Fatalf("led after recovery = %d, want %d", got, wantLed)
	}
	rebuilt := wantOut[:info2.OutputBytesAtCheckpoint] + view2.Output()
	if !strings.HasPrefix(wantOut, rebuilt) {
		t.Fatalf("replay output diverged:\nref %q\ngot %q", wantOut, rebuilt)
	}
	// Both continue to the same future.
	r.RunTicks(50)
	r2.RunTicks(50)
	if a, b := r.World().Led("main.led"), r2.World().Led("main.led"); a != b {
		t.Fatalf("post-recovery divergence: led %d vs %d", b, a)
	}
}
