package engine_test

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/engine"
	"cascade/internal/engine/hweng"
	"cascade/internal/engine/sweng"
	"cascade/internal/fpga"
	"cascade/internal/netlist"
	"cascade/internal/stdlib"
	"cascade/internal/transport"
	"cascade/internal/verilog"
)

// Compile-time conformance: every engine implementation satisfies the
// ABI (transport clients included — a remote engine is indistinguishable
// through this interface), and hardware engines provide the optional
// capabilities.
var (
	_ engine.Engine     = (*sweng.Engine)(nil)
	_ engine.Engine     = (*hweng.Engine)(nil)
	_ engine.Engine     = (*transport.Client)(nil)
	_ engine.OpenLooper = (*hweng.Engine)(nil)
	_ engine.Forwarder  = (*hweng.Engine)(nil)
	_ engine.Engine     = (*stdlib.Clock)(nil)
	_ engine.Engine     = (*stdlib.Pad)(nil)
	_ engine.Engine     = (*stdlib.Led)(nil)
	_ engine.Engine     = (*stdlib.Reset)(nil)
	_ engine.Engine     = (*stdlib.GPIO)(nil)
	_ engine.Engine     = (*stdlib.Memory)(nil)
	_ engine.Engine     = (*stdlib.FIFO)(nil)

	_ engine.WriteVisitor = (*stdlib.Clock)(nil)
	_ engine.WriteVisitor = (*stdlib.FIFO)(nil)
)

// TestOutputsTracksByValue: the tracker every engine's DrainWrites shares
// reports an output the first time it sees it (the first drain broadcasts
// everything), then only when its value differs from the one last
// reported, and keeps its own copy, so a borrowed or reused vector works.
func TestOutputsTracksByValue(t *testing.T) {
	o := engine.NewOutputs(2)
	cur := bits.FromUint64(8, 5)
	wide := bits.FromUint64(96, 7)
	if !o.Changed(0, cur) || !o.Changed(1, wide) {
		t.Fatal("first sight of an output must report a change")
	}
	if o.Changed(0, cur) || o.Changed(1, wide) {
		t.Fatal("an unchanged value reported as changed")
	}
	cur.SetUint64(6) // the caller reuses its vector
	if !o.Changed(0, cur) {
		t.Fatal("a new value in a reused vector went unnoticed: the tracker aliases its input")
	}
	wide.SetBit(80, 1) // beyond the first word
	if !o.Changed(1, wide) || o.Changed(1, wide) {
		t.Fatal("wide values must compare on every word")
	}
	if got := testing.AllocsPerRun(100, func() { o.Changed(0, cur); o.Changed(1, wide) }); got != 0 {
		t.Fatalf("steady-state comparison allocates: %v", got)
	}
}

// TestLocations checks the location taxonomy the scheduler's billing
// depends on.
func TestLocations(t *testing.T) {
	st, errs := verilog.ParseSourceText(`module M(input wire clk); endmodule`)
	if errs != nil {
		t.Fatal(errs)
	}
	f, err := elab.Elaborate(st.Modules[0], "m", nil)
	if err != nil {
		t.Fatal(err)
	}
	sw := sweng.New(f, nil, nil, false)
	if sw.Loc() != engine.Software || sw.Loc().String() != "software" {
		t.Fatal("sweng location")
	}
	prog, err := netlist.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := hweng.New("m", prog, fpga.NewCycloneV(), 10, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hw.Loc() != engine.Hardware || hw.Loc().String() != "hardware" {
		t.Fatal("hweng location")
	}
	w := stdlib.NewWorld()
	c, err := stdlib.New("p", "Clock", nil, w)
	if err != nil {
		t.Fatal(err)
	}
	if c.Loc() != engine.Hardware {
		t.Fatal("stdlib engines are pre-compiled hardware")
	}
}

// conformSrc is the subprogram the cross-transport conformance cases
// drive: state, a blocking display on every posedge, an output port, and
// a $finish once the counter wraps — every observable the ABI carries.
const conformSrc = `module Walk(input wire clk, output wire [7:0] out);
  reg [7:0] n = 1;
  always @(posedge clk) begin
    n <= {n[6:0], n[7]};
    $display("walk=%b", n);
    if (n == 8'h80) $finish;
  end
  assign out = n;
endmodule`

// conformIO records display/finish side effects for byte comparison.
type conformIO struct {
	out  strings.Builder
	fins int
}

func (c *conformIO) Display(text string, newline bool) {
	c.out.WriteString(text)
	if newline {
		c.out.WriteByte('\n')
	}
}

func (c *conformIO) Finish(code int) { c.fins++ }

// newConformSW elaborates conformSrc into a fresh software engine.
func newConformSW(t *testing.T, io engine.IOHandler) *sweng.Engine {
	t.Helper()
	st, errs := verilog.ParseSourceText(conformSrc)
	if errs != nil {
		t.Fatal(errs)
	}
	f, err := elab.Elaborate(st.Modules[0], "main.w", nil)
	if err != nil {
		t.Fatal(err)
	}
	return sweng.New(f, io, nil, false)
}

// driveABI runs the scheduler's per-step Figure-7 sequence for n ticks
// and returns the drained data-plane trace.
func driveABI(e engine.Engine, ticks int) string {
	var sb strings.Builder
	for i := 0; i < 2*ticks; i++ {
		e.Read(engine.Event{Var: "clk", Val: bits.FromUint64(1, uint64(i%2))})
		for e.ThereAreEvals() {
			e.Evaluate()
		}
		for e.ThereAreUpdates() {
			e.Update()
		}
		e.EndStep()
		for _, ev := range e.DrainWrites() {
			fmt.Fprintf(&sb, "%d:%s=%s;", i, ev.Var, ev.Val)
		}
	}
	return sb.String()
}

// TestConformanceAcrossTransports runs the full ABI conformance sequence
// against the same subprogram hosted three ways — a bare software
// engine, a Local-transport client, and a client behind a loopback-TCP
// engine host — and requires byte-identical $display output, identical
// $finish counts, identical data-plane traces, and identical state
// snapshots. The transports must be invisible.
func TestConformanceAcrossTransports(t *testing.T) {
	const ticks = 10

	ioBare := &conformIO{}
	bare := newConformSW(t, ioBare)
	traceBare := driveABI(bare, ticks)
	sigBare := bare.GetState().Signature()

	ioLocal := &conformIO{}
	local := transport.NewLocalClient(newConformSW(t, ioLocal), nil)
	traceLocal := driveABI(local, ticks)
	sigLocal := local.GetState().Signature()

	host := transport.NewHost(transport.HostOptions{DisableJIT: true})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go host.ServeListener(l)
	tcpT, err := transport.DialTCP(l.Addr().String(), transport.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcpT.Close()
	ioTCP := &conformIO{}
	remote, err := transport.Spawn(tcpT, transport.SpawnSpec{Path: "main.w", Source: conformSrc}, ioTCP, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	traceTCP := driveABI(remote, ticks)
	sigTCP := remote.GetState().Signature()

	if ioLocal.out.String() != ioBare.out.String() {
		t.Errorf("local display output diverges:\nbare:  %q\nlocal: %q", ioBare.out.String(), ioLocal.out.String())
	}
	if ioTCP.out.String() != ioBare.out.String() {
		t.Errorf("tcp display output diverges:\nbare: %q\ntcp:  %q", ioBare.out.String(), ioTCP.out.String())
	}
	if ioBare.out.Len() == 0 {
		t.Error("conformance program produced no display output")
	}
	if ioLocal.fins != ioBare.fins || ioTCP.fins != ioBare.fins {
		t.Errorf("$finish counts diverge: bare=%d local=%d tcp=%d", ioBare.fins, ioLocal.fins, ioTCP.fins)
	}
	if traceLocal != traceBare {
		t.Errorf("local data-plane trace diverges:\nbare:  %q\nlocal: %q", traceBare, traceLocal)
	}
	if traceTCP != traceBare {
		t.Errorf("tcp data-plane trace diverges:\nbare: %q\ntcp:  %q", traceBare, traceTCP)
	}
	if sigLocal != sigBare || sigTCP != sigBare {
		t.Errorf("state snapshots diverge: bare=%s local=%s tcp=%s", sigBare, sigLocal, sigTCP)
	}

	// State migration through each transport: install the bare engine's
	// snapshot into a fresh remote engine and require the signatures to
	// agree — SetState/GetState must round-trip over the wire.
	fresh, err := transport.Spawn(tcpT, transport.SpawnSpec{Path: "main.w2", Source: conformSrc}, &conformIO{}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh.SetState(bare.GetState())
	if got := fresh.GetState().Signature(); got != sigBare {
		t.Errorf("SetState/GetState did not round-trip over TCP: %s vs %s", got, sigBare)
	}
	remote.End()
	fresh.End()
}
