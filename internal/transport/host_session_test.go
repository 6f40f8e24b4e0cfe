package transport

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"cascade/internal/elab"
	"cascade/internal/engine"
	"cascade/internal/fpga"
	"cascade/internal/toolchain"
	"cascade/internal/verilog"
)

// sessionHost serves a host over a capacity-LE fabric on loopback TCP
// with a toolchain whose flows take no virtual time to speak of; workers
// bounds its compile pool (0: the default).
func sessionHost(t *testing.T, capacity, workers int) (*Host, *fpga.Device, *toolchain.Toolchain, *TCP) {
	t.Helper()
	dev := fpga.NewDevice(capacity, 50_000_000)
	o := toolchain.DefaultOptions()
	o.Scale = 1e9
	o.BasePs = 1
	if workers > 0 {
		o.Workers = workers
	}
	tc := toolchain.New(dev, o)
	h, addr := loopbackHost(t, HostOptions{Device: dev, Toolchain: tc})
	tcpT, err := DialTCP(addr, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tcpT.Close() })
	return h, dev, tc, tcpT
}

// spawnCtr spawns src, a module with ctrSrc's ports, into session sess
// with JIT requested, on the virtual clock *vnow.
func spawnCtr(t *testing.T, tcpT *TCP, sess uint32, src string, vnow *uint64) *Client {
	t.Helper()
	st, errs := verilog.ParseSourceText(src)
	if errs != nil {
		t.Fatalf("parse: %v", errs)
	}
	f, err := elab.Elaborate(st.Modules[0], "main.c", nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	c, err := Spawn(tcpT, SpawnSpec{Path: "main.c", Source: src, Layout: f.Layout(), JIT: true, Session: sess},
		rec, nil, func() uint64 { return *vnow }, rec.onErr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// promote moves the clock past the ready point of every compile
// submitted so far and steps c until the host swaps it onto its fabric.
func promote(t *testing.T, c *Client, vnow *uint64) {
	t.Helper()
	*vnow += 1 << 50
	for i := 0; i < 200; i++ {
		drive(c, 1)
		if c.Loc() == engine.Hardware {
			return
		}
	}
	t.Fatal("session engine never promoted")
}

// slowVariant is a counter by step beside a pipeline of 48 16-bit
// multipliers: a netlist of its own, so its compile is a cache miss, and
// one big enough that a close sent straight after its spawn finds it
// still queued or compiling.
func slowVariant(step int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module Ctr(input wire clk, output wire [7:0] out);\n  reg [7:0] n = 1;\n")
	for k := 0; k < 48; k++ {
		fmt.Fprintf(&sb, "  reg [15:0] m%d = %d;\n", k, k+1)
	}
	fmt.Fprintf(&sb, "  always @(posedge clk) begin\n    n <= n + %d;\n    m0 <= m0 * {8'd0, n};\n", step)
	for k := 1; k < 48; k++ {
		fmt.Fprintf(&sb, "    m%d <= m%d * m%d;\n", k, k, k-1)
	}
	sb.WriteString("  end\n  assign out = n;\nendmodule")
	return sb.String()
}

// TestSessionValidation: the host refuses what it cannot honour — a
// second session of an open name, a region the fabric has no room for, a
// spawn into or a close of a session that is not open — and a refusal
// takes nothing: the fabric and the session count read as before it. A
// session that names no quota gets the daemon's default region.
func TestSessionValidation(t *testing.T) {
	h, dev, _, tcpT := sessionHost(t, 10_000, 0)
	a, err := OpenSession(tcpT, "a", 4_000, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSession(tcpT, "a", 1_000, 0, 0); err == nil {
		t.Error("duplicate session name accepted")
	}
	if _, err := OpenSession(tcpT, "c", 20_000, 0, 0); err == nil {
		t.Error("session beyond fabric capacity accepted")
	}
	if n, used := h.Sessions(), dev.Used(); n != 1 || used != 4_000 {
		t.Errorf("refused opens left %d sessions and %d LEs placed, want 1 and 4000", n, used)
	}
	d, err := OpenSession(tcpT, "", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if used := dev.Used(); used != 4_000+10_000/4 {
		t.Errorf("a session without a quota should get a quarter of the fabric: %d LEs used", used)
	}
	if _, err := Spawn(tcpT, SpawnSpec{Path: "x", Source: ctrSrc, Layout: ctrLayout, Session: 99}, nil, nil, nil, nil); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("spawn into unknown session: %v, want ErrUnknownSession", err)
	}
	for _, id := range []uint32{a, d} {
		if err := CloseSession(tcpT, id, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := CloseSession(tcpT, a, 0); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("double session close: %v, want ErrUnknownSession", err)
	}
	if n, used := h.Sessions(), dev.Used(); n != 0 || used != 0 {
		t.Errorf("closing every session left %d sessions and %d LEs placed", n, used)
	}
}

// TestSessionStatsTenantScoped: a session's compiles count in its
// tenant's stats and nowhere else, and its cache namespace is its own —
// a neighbour's first compile of the same program is a miss, not a hit
// on the bitstream the first session published.
func TestSessionStatsTenantScoped(t *testing.T) {
	_, _, tc, tcpT := sessionHost(t, 10_000, 0)
	a, err := OpenSession(tcpT, "a", 4_000, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenSession(tcpT, "b", 4_000, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	vnow := uint64(0)
	promote(t, spawnCtr(t, tcpT, a, ctrSrc, &vnow), &vnow)
	if got := tc.StatsFor("a").Submitted; got == 0 {
		t.Error("tenant a's compile not scoped to its stats")
	}
	if got := tc.StatsFor("b").Submitted; got != 0 {
		t.Errorf("tenant b inherited %d submissions", got)
	}
	if got := tc.Stats().Submitted; got != 0 {
		t.Errorf("the default tenant counted %d of a session's submissions", got)
	}
	promote(t, spawnCtr(t, tcpT, b, ctrSrc, &vnow), &vnow)
	if st := tc.StatsFor("b"); st.Submitted == 0 || st.CacheHits+st.Joined != 0 {
		t.Errorf("tenant b's first compile of a's program: %+v, want a submission and no cache hit", st)
	}
}

// TestCloseFreesFabric: closing a session ends the engines it owns and
// gives its region back, so a newcomer the fabric had no room for opens,
// and its engine promotes onto the freed fabric.
func TestCloseFreesFabric(t *testing.T) {
	h, dev, _, tcpT := sessionHost(t, 10_000, 0)
	first, err := OpenSession(tcpT, "first", 8_000, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	vnow := uint64(0)
	promote(t, spawnCtr(t, tcpT, first, ctrSrc, &vnow), &vnow)
	if _, err := OpenSession(tcpT, "second", 9_000, 0, vnow); err == nil {
		t.Fatal("a 9k region opened beside an 8k one on a 10k fabric")
	}
	if err := CloseSession(tcpT, first, vnow); err != nil {
		t.Fatal(err)
	}
	if n := h.Engines(); n != 0 {
		t.Errorf("session close left %d engines hosted", n)
	}
	if used := dev.Used(); used != 0 {
		t.Errorf("closed session's region leaked: %d LEs used", used)
	}
	second, err := OpenSession(tcpT, "second", 9_000, 0, vnow)
	if err != nil {
		t.Fatalf("the closed session's region was not given back: %v", err)
	}
	promote(t, spawnCtr(t, tcpT, second, ctrSrc, &vnow), &vnow)
}

// TestCloseRacesPendingCompile pins the teardown contract of a session
// closed while its compiles are still in flight: no job leaks its
// fair-share slot or the global worker slot. The toolchain runs one
// worker and every round closes its session straight after three spawns,
// so the close lands on jobs queued for the worker and on the one it
// runs; a leaked slot turns the probe's compile into a hang. Every round
// reuses one tenant name, so a registration carried across a close shows
// as well, and a fresh variant of the program for every spawn keeps each
// compile a cache miss that really occupies the worker.
func TestCloseRacesPendingCompile(t *testing.T) {
	h, _, tc, tcpT := sessionHost(t, 1_000_000, 1)
	const rounds = 6
	vnow := uint64(0)
	for i := 0; i < rounds; i++ {
		s, err := OpenSession(tcpT, "racer", 500_000, 1, vnow)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		for k := 0; k < 3; k++ {
			spawnCtr(t, tcpT, s, slowVariant(5+3*i+k), &vnow)
		}
		if err := CloseSession(tcpT, s, vnow); err != nil {
			t.Fatalf("round %d: close: %v", i, err)
		}
	}
	if n, e := h.Sessions(), h.Engines(); n != 0 || e != 0 {
		t.Fatalf("%d sessions and %d engines survived their close", n, e)
	}
	probe, err := OpenSession(tcpT, "racer", 500_000, 1, vnow)
	if err != nil {
		t.Fatal(err)
	}
	c := spawnCtr(t, tcpT, probe, slowVariant(5+3*rounds), &vnow)
	vnow = 1 << 62
	done, stop := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for c.Loc() != engine.Hardware {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			drive(c, 1)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		close(stop)
		<-done
		t.Fatalf("the probe's compile hung: a raced close leaked a worker or fair-share slot (probe stats %+v)", tc.StatsFor("racer"))
	}
	if got := tc.StatsFor("racer").Submitted; got != 1 {
		t.Errorf("the reopened tenant counts %d submissions, want its own 1", got)
	}
}
