package transport

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/engine"
	"cascade/internal/engine/sweng"
	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/toolchain"
	"cascade/internal/verilog"
)

// Compile-time conformance: clients are engines, transports are
// transports.
var (
	_ engine.Engine        = (*Client)(nil)
	_ engine.UsageReporter = (*Client)(nil)
	_ Transport            = (*TCP)(nil)
)

const ctrSrc = `module Ctr(input wire clk, output wire [7:0] out);
  reg [7:0] n = 1;
  always @(posedge clk) begin
    n <= n + 3;
    $display("n=%d", n);
  end
  assign out = n;
endmodule`

// recorder is an engine.IOHandler that logs everything.
type recorder struct {
	mu   sync.Mutex
	out  strings.Builder
	fins int
	errs []error
}

func (r *recorder) Display(text string, newline bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.out.WriteString(text)
	if newline {
		r.out.WriteByte('\n')
	}
}

func (r *recorder) Finish(code int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fins++
}

func (r *recorder) onErr(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.errs = append(r.errs, err)
}

func (r *recorder) output() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.out.String()
}

// ctrLayout is the state layout of a spawned Ctr: what its clients'
// state transfers fit and bill by.
var ctrLayout = func() *elab.Layout {
	st, _ := verilog.ParseSourceText(ctrSrc)
	f, err := elab.Elaborate(st.Modules[0], "main.c", nil)
	if err != nil {
		panic(err)
	}
	return f.Layout()
}()

func elaborateCtr(t testing.TB, path string) *elab.Flat {
	t.Helper()
	st, errs := verilog.ParseSourceText(ctrSrc)
	if errs != nil {
		t.Fatalf("parse: %v", errs)
	}
	f, err := elab.Elaborate(st.Modules[0], path, nil)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	return f
}

// drive runs the scheduler's per-step ABI sequence against an engine for
// n clock ticks and returns the drained data-plane trace plus the final
// state signature — everything observable through the protocol.
func drive(e engine.Engine, ticks int) (trace string, sig string) {
	var sb strings.Builder
	for i := 0; i < 2*ticks; i++ {
		clk := uint64(i % 2)
		e.Read(engine.Event{Var: "clk", Val: boolVec(clk)})
		for e.ThereAreEvals() {
			e.Evaluate()
		}
		for e.ThereAreUpdates() {
			e.Update()
		}
		e.EndStep()
		for _, ev := range engine.Collect(e) {
			fmt.Fprintf(&sb, "%d:%s=%s;", i, ev.Var, ev.Val)
		}
	}
	return sb.String(), fmt.Sprint(e.GetState())
}

func boolVec(v uint64) *bits.Vector { return bits.FromUint64(1, v) }

// loopbackHost starts a Host behind a real TCP listener and returns its
// address (the listener closes with the test).
func loopbackHost(t testing.TB, opts HostOptions) (*Host, string) {
	t.Helper()
	h := NewHost(opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go h.ServeListener(l)
	return h, l.Addr().String()
}

// TestTransportEquivalence drives the same subprogram through a bare
// engine, a Local client, and a loopback-TCP client and asserts
// byte-identical $display output, data-plane traces, and snapshots.
func TestTransportEquivalence(t *testing.T) {
	const ticks = 25

	// Baseline: the bare engine, direct method calls.
	recBare := &recorder{}
	bare := sweng.New(elaborateCtr(t, "main.c"), recBare, nil, false)
	traceBare, sigBare := drive(bare, ticks)

	// Local client.
	recLocal := &recorder{}
	local := NewLocalClient(sweng.New(elaborateCtr(t, "main.c"), recLocal, nil, false), nil)
	traceLocal, sigLocal := drive(local, ticks)

	// Loopback TCP.
	_, addr := loopbackHost(t, HostOptions{DisableJIT: true})
	tcpT, err := DialTCP(addr, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcpT.Close()
	recTCP := &recorder{}
	remote, err := Spawn(tcpT, SpawnSpec{Path: "main.c", Source: ctrSrc, Layout: ctrLayout}, recTCP, nil, nil, recTCP.onErr)
	if err != nil {
		t.Fatal(err)
	}
	traceTCP, sigTCP := drive(remote, ticks)

	if got := recLocal.output(); got != recBare.output() {
		t.Errorf("local display output diverges:\n%q\n%q", got, recBare.output())
	}
	if got := recTCP.output(); got != recBare.output() {
		t.Errorf("tcp display output diverges:\n%q\n%q", got, recBare.output())
	}
	if traceLocal != traceBare || traceTCP != traceBare {
		t.Errorf("data-plane traces diverge:\nbare  %s\nlocal %s\ntcp   %s", traceBare, traceLocal, traceTCP)
	}
	if sigLocal != sigBare || sigTCP != sigBare {
		t.Errorf("state signatures diverge:\nbare  %s\nlocal %s\ntcp   %s", sigBare, sigLocal, sigTCP)
	}
	if recBare.output() == "" {
		t.Fatal("test program produced no output; the comparison is vacuous")
	}

	// The remote engine metered its interpreter work and the transport
	// round-trips.
	u := remote.UsageDelta()
	if u.Ops == 0 || u.Msgs == 0 {
		t.Errorf("remote usage not metered: %+v", u)
	}
	st := tcpT.Stats()
	if st.RoundTrips == 0 || st.BytesOut == 0 || st.BytesIn == 0 {
		t.Errorf("tcp stats not counted: %+v", st)
	}
}

// TestTCPInjectedDropsRetry checks the deterministic drop/retry path:
// with a capped always-drop schedule the round-trip succeeds after
// exactly the scripted number of drops, and a second transport with the
// same seed sees the identical schedule.
func TestTCPInjectedDropsRetry(t *testing.T) {
	_, addr := loopbackHost(t, HostOptions{DisableJIT: true})
	run := func() (Stats, string) {
		inj := fault.New(fault.Config{Seed: 7, NetDrop: 1, MaxNetFaults: 2})
		tcpT, err := DialTCP(addr, TCPOptions{Injector: inj, Retries: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer tcpT.Close()
		rec := &recorder{}
		c, err := Spawn(tcpT, SpawnSpec{Path: "main.c", Source: ctrSrc, Layout: ctrLayout}, rec, nil, nil, rec.onErr)
		if err != nil {
			t.Fatalf("spawn did not survive capped drops: %v", err)
		}
		_, sig := drive(c, 5)
		return tcpT.Stats(), sig
	}
	st1, sig1 := run()
	st2, sig2 := run()
	if st1.Drops != 2 || st1.Retries != 2 {
		t.Errorf("expected exactly 2 scripted drops and 2 retries, got %+v", st1)
	}
	if st1.Drops != st2.Drops || st1.Retries != st2.Retries || sig1 != sig2 {
		t.Errorf("fault schedule not deterministic: %+v vs %+v", st1, st2)
	}
}

// TestTCPUnreachableLatches checks the degradation contract: when the
// daemon becomes unreachable the client reports the error once and goes
// inert instead of wedging the caller.
func TestTCPUnreachableLatches(t *testing.T) {
	h := NewHost(HostOptions{DisableJIT: true})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go h.ServeListener(l)
	tcpT, err := DialTCP(l.Addr().String(), TCPOptions{Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	c, err := Spawn(tcpT, SpawnSpec{Path: "main.c", Source: ctrSrc, Layout: ctrLayout}, rec, nil, nil, rec.onErr)
	if err != nil {
		t.Fatal(err)
	}
	// Take the daemon away: no listener, no live connection.
	l.Close()
	tcpT.Close()

	c.Evaluate()
	if c.Err() == nil {
		t.Fatal("transport failure did not latch")
	}
	if c.ThereAreEvals() || c.ThereAreUpdates() || engine.Collect(c) != nil {
		t.Error("latched client is not inert")
	}
	if st := c.GetState(); st == nil || len(st) != 0 {
		t.Error("latched GetState should return an empty image")
	}
	if len(rec.errs) != 1 {
		t.Errorf("error should be reported exactly once, got %d", len(rec.errs))
	}
}

// TestHostSpawnRejectsBadSource checks engine-level errors travel in
// the reply, not as transport failures.
func TestHostSpawnRejectsBadSource(t *testing.T) {
	_, addr := loopbackHost(t, HostOptions{DisableJIT: true})
	tcpT, err := DialTCP(addr, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcpT.Close()
	if _, err := Spawn(tcpT, SpawnSpec{Path: "x", Source: "module broken("}, nil, nil, nil, nil); err == nil {
		t.Fatal("bad spawn source accepted")
	}
	if _, err := Spawn(tcpT, SpawnSpec{Path: "x", Source: ""}, nil, nil, nil, nil); err == nil {
		t.Fatal("empty spawn source accepted")
	}
	// The transport survives: a good spawn still works.
	if _, err := Spawn(tcpT, SpawnSpec{Path: "main.c", Source: ctrSrc, Layout: ctrLayout}, nil, nil, nil, nil); err != nil {
		t.Fatalf("transport did not survive a rejected spawn: %v", err)
	}
}

// TestHostSessions exercises the daemon session layer end to end over
// loopback TCP: sessions carve fabric regions, engines spawned into a
// session promote onto its region (not the shared fabric), compile
// stats are tenant-scoped, and close ends owned engines and frees the
// region.
func TestHostSessions(t *testing.T) {
	dev := fpga.NewDevice(10_000, 50_000_000)
	o := toolchain.DefaultOptions()
	o.Scale = 1e9
	o.BasePs = 1
	tc := toolchain.New(dev, o)
	h, addr := loopbackHost(t, HostOptions{Device: dev, Toolchain: tc})
	tcpT, err := DialTCP(addr, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcpT.Close()

	a, err := OpenSession(tcpT, "a", 4_000, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSession(tcpT, "b", 4_000, 1, 0); err != nil {
		t.Fatal(err)
	}
	if used := dev.Used(); used != 8_000 {
		t.Fatalf("two 4k regions should hold 8k LEs, got %d", used)
	}
	if _, err := OpenSession(tcpT, "a", 1_000, 0, 0); err == nil {
		t.Error("duplicate session name accepted")
	}
	if _, err := OpenSession(tcpT, "c", 4_000, 0, 0); err == nil {
		t.Error("session beyond fabric capacity accepted")
	}

	vnow := uint64(0)
	rec := &recorder{}
	c, err := Spawn(tcpT, SpawnSpec{Path: "main.c", Source: ctrSrc, Layout: ctrLayout, JIT: true, Session: a},
		rec, nil, func() uint64 { return vnow }, rec.onErr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Spawn(tcpT, SpawnSpec{Path: "x", Source: ctrSrc, Layout: ctrLayout, Session: 99}, nil, nil, nil, nil); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("spawn into unknown session: %v, want ErrUnknownSession", err)
	}
	vnow = 1 << 62
	promoted := false
	for i := 0; i < 200; i++ {
		drive(c, 1)
		if c.Loc() == engine.Hardware {
			promoted = true
			break
		}
	}
	if !promoted {
		t.Fatal("session engine never promoted")
	}
	// The promotion landed on session a's private region device: the
	// shared fabric still accounts exactly the two session regions.
	if used := dev.Used(); used != 8_000 {
		t.Errorf("promotion leaked onto the shared fabric: %d LEs used", used)
	}
	if got := tc.StatsFor("a").Submitted; got == 0 {
		t.Error("tenant a's compile not scoped to its stats")
	}
	if got := tc.StatsFor("b").Submitted; got != 0 {
		t.Errorf("tenant b inherited %d submissions", got)
	}

	if err := CloseSession(tcpT, a, vnow); err != nil {
		t.Fatal(err)
	}
	if n := h.Engines(); n != 0 {
		t.Errorf("session close left %d engines hosted", n)
	}
	if n := h.Sessions(); n != 1 {
		t.Errorf("session count = %d, want 1", n)
	}
	if used := dev.Used(); used != 4_000 {
		t.Errorf("closed session's region leaked: %d LEs used", used)
	}
	if err := CloseSession(tcpT, a, vnow); err == nil {
		t.Error("double session close accepted")
	}
}

// TestHostJITPromotion checks the host-side slice of the Figure-9 state
// machine: a spawn with JIT requested is promoted to the host's fabric
// once its background compile is ready, and the reply envelopes
// advertise the flip.
func TestHostJITPromotion(t *testing.T) {
	dev := fpga.NewCycloneV()
	o := toolchain.DefaultOptions()
	o.Scale = 1e9
	o.BasePs = 1
	_, addr := loopbackHost(t, HostOptions{Device: dev, Toolchain: toolchain.New(dev, o)})
	tcpT, err := DialTCP(addr, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcpT.Close()
	vnow := uint64(0)
	rec := &recorder{}
	c, err := Spawn(tcpT, SpawnSpec{Path: "main.c", Source: ctrSrc, Layout: ctrLayout, JIT: true}, rec,
		nil, func() uint64 { return vnow }, rec.onErr)
	if err != nil {
		t.Fatal(err)
	}
	if c.Loc() != engine.Software {
		t.Fatal("hosted engine should start in software")
	}
	// Give the background compile real time to finish, then pass its
	// virtual ready point; the next EndStep promotes.
	deadline := 200
	vnow = 1 << 62
	promoted := false
	for i := 0; i < deadline; i++ {
		drive(c, 1)
		if c.Loc() == engine.Hardware {
			promoted = true
			break
		}
	}
	if !promoted {
		t.Fatal("hosted engine never promoted to hardware")
	}
	// Post-promotion execution still works and meters fabric cycles.
	_, sig := drive(c, 3)
	if sig == "" {
		t.Fatal("no state after promotion")
	}
	u := c.UsageDelta()
	if u.Cycles == 0 {
		t.Errorf("promoted engine billed no cycles: %+v", u)
	}
}

// TestClientRefusesMisfitState: state crosses the wire as an image in
// the engine's layout, and neither end installs one of another length.
// A GetState reply that does not fit the client's layout latches as
// ErrEngineLost (the daemon holds some other engine) and answers no
// words; a SetState image the host's engine does not fit is refused
// there, leaving that engine's state as it was.
func TestClientRefusesMisfitState(t *testing.T) {
	_, addr := loopbackHost(t, HostOptions{DisableJIT: true})
	tcpT, err := DialTCP(addr, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcpT.Close()
	wider := elab.NewLayout(append(slices.Clone(ctrLayout.Vars), &elab.Var{Name: "x", Index: len(ctrLayout.Vars), Width: 8}), nil)
	rec := &recorder{}
	c, err := Spawn(tcpT, SpawnSpec{Path: "main.c", Source: ctrSrc, Layout: wider}, rec, nil, nil, rec.onErr)
	if err != nil {
		t.Fatal(err)
	}
	if img := c.GetState(); len(img) != 0 || !errors.Is(c.Err(), ErrEngineLost) {
		t.Fatalf("a misfit GetState reply answered %d words, error %v", len(img), c.Err())
	}

	ok, err := Spawn(tcpT, SpawnSpec{Path: "main.c", Source: ctrSrc, Layout: ctrLayout}, rec, nil, nil, rec.onErr)
	if err != nil {
		t.Fatal(err)
	}
	want := ok.GetState()
	for _, img := range [][]uint64{want[:len(want)-1], append(slices.Clone(want), 7)} {
		bad, err := Spawn(tcpT, SpawnSpec{Path: "main.c", Source: ctrSrc, Layout: ctrLayout}, rec, nil, nil, rec.onErr)
		if err != nil {
			t.Fatal(err)
		}
		bad.SetState(img)
		if !errors.Is(bad.Err(), ErrEngineLost) {
			t.Fatalf("a %d-word image for a %d-word layout was not refused: %v", len(img), len(want), bad.Err())
		}
	}
	if got := ok.GetState(); !slices.Equal(got, want) || ok.Err() != nil {
		t.Fatalf("state moved: %v, want %v (%v)", got, want, ok.Err())
	}

	// A client spawned without a layout runs its engine, and a state
	// transfer on it latches ErrNoLayout without a frame or a bill.
	for name, transfer := range map[string]func(*Client){
		"GetState": func(c *Client) { c.GetState() },
		"SetState": func(c *Client) { c.SetState(want) },
	} {
		bare, err := Spawn(tcpT, SpawnSpec{Path: "main.c", Source: ctrSrc}, rec, nil, nil, rec.onErr)
		if err != nil {
			t.Fatal(err)
		}
		bare.EndStep()
		trips, msgs := bare.Stats().RoundTrips, bare.UsageDelta().Msgs
		transfer(bare)
		if !errors.Is(bare.Err(), ErrNoLayout) || bare.Stats().RoundTrips != trips || bare.UsageDelta().Msgs != 0 || msgs == 0 {
			t.Fatalf("%s without a layout: error %v, %d round trips after %d", name, bare.Err(), bare.Stats().RoundTrips, trips)
		}
	}
}
