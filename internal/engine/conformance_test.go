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
	"cascade/internal/njit"
	"cascade/internal/stdlib"
	"cascade/internal/transport"
	"cascade/internal/verilog"
)

// Compile-time conformance: every engine implementation satisfies the
// ABI (transport clients included — a remote engine is indistinguishable
// through this interface).
var (
	_ engine.Engine = (*sweng.Engine)(nil)
	_ engine.Engine = (*njit.Engine)(nil)
	_ engine.Engine = (*hweng.Engine)(nil)
	_ engine.Engine = (*transport.Client)(nil)
	_ engine.Engine = (*stdlib.Clock)(nil)
	_ engine.Engine = (*stdlib.Pad)(nil)
	_ engine.Engine = (*stdlib.Led)(nil)
	_ engine.Engine = (*stdlib.Reset)(nil)
	_ engine.Engine = (*stdlib.GPIO)(nil)
	_ engine.Engine = (*stdlib.Memory)(nil)
	_ engine.Engine = (*stdlib.FIFO)(nil)
)

// TestOutputsTracksByValue: the tracker the user tiers' VisitWrites shares
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
	f := flat(t, `module M(input wire clk); endmodule`, "m")
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
	return sweng.New(flat(t, conformSrc, "main.w"), io, nil, false)
}

// flat parses src and elaborates its first module as instance name.
func flat(t *testing.T, src, name string) *elab.Flat {
	t.Helper()
	st, errs := verilog.ParseSourceText(src)
	if errs != nil {
		t.Fatal(errs)
	}
	f, err := elab.Elaborate(st.Modules[0], name, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
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
// engine, a local client, and a client behind a loopback-TCP
// engine host — and requires byte-identical $display output, identical
// $finish counts, identical data-plane traces, and identical state
// snapshots. The transports must be invisible.
func TestConformanceAcrossTransports(t *testing.T) {
	const ticks = 10

	ioBare := &conformIO{}
	bare := newConformSW(t, ioBare)
	traceBare := driveABI(bare, ticks)
	sigBare := fmt.Sprint(bare.GetState())

	ioLocal := &conformIO{}
	local := transport.NewLocalClient(newConformSW(t, ioLocal), nil)
	traceLocal := driveABI(local, ticks)
	sigLocal := fmt.Sprint(local.GetState())

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
	remote, err := transport.Spawn(tcpT, transport.SpawnSpec{Path: "main.w", Source: conformSrc, Layout: bare.Flat().Layout()}, ioTCP, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	traceTCP := driveABI(remote, ticks)
	sigTCP := fmt.Sprint(remote.GetState())

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
	fresh, err := transport.Spawn(tcpT, transport.SpawnSpec{Path: "main.w2", Source: conformSrc, Layout: bare.Flat().Layout()}, &conformIO{}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh.SetState(bare.GetState())
	if got := fmt.Sprint(fresh.GetState()); got != sigBare {
		t.Errorf("SetState/GetState did not round-trip over TCP: %s vs %s", got, sigBare)
	}
	remote.End()
	fresh.End()
}

// drainSrc is the user subprogram of the drain table: a narrow and a
// wide output (the compiled tiers lend a scratch vector for the one and
// the live backing vector for the other) and a data input.
const drainSrc = `module Mix(input wire clk, input wire [7:0] d,
                             output wire [7:0] a, output wire [71:0] b);
  reg [7:0] n = 1;
  reg [71:0] w = 0;
  always @(posedge clk) begin
    n <= n + d;
    w <= {w[63:0], n};
  end
  assign a = n;
  assign b = w;
endmodule`

// drainCase builds one engine of the drain table, fresh each call (the
// twins must not share a world or a device): the engine, what it has
// billed so far, and its stimulus for step k, delivered through send.
type drainCase struct {
	name string
	outs int // output ports: the size of the first drain
	mk   func(t *testing.T) (e engine.Engine, billed func() string, poke func(k int, send func(name string, width int, val uint64)))
}

func drainCases() []drainCase {
	mix := func(t *testing.T) (*elab.Flat, *netlist.Program) {
		t.Helper()
		f := flat(t, drainSrc, "main.m")
		prog, err := netlist.Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		return f, prog
	}
	pokeMix := func(k int, send func(string, int, uint64)) {
		send("d", 8, uint64(k)*37)
		send("clk", 1, uint64(k%2))
	}
	usage := func(e engine.Engine) func() string {
		return func() string { return fmt.Sprintf("%+v", e.(engine.UsageReporter).UsageDelta()) }
	}
	fabric := func(native bool) func(t *testing.T) (engine.Engine, func() string, func(int, func(string, int, uint64))) {
		return func(t *testing.T) (engine.Engine, func() string, func(int, func(string, int, uint64))) {
			_, prog := mix(t)
			dev := fpga.NewCycloneV()
			e, err := hweng.New("main.m", prog, dev, 10, nil, native, nil)
			if err != nil {
				t.Fatal(err)
			}
			return e, func() string {
				rd, wr := dev.BusTransactions()
				return fmt.Sprintf("%+v bus reads=%d writes=%d", e.UsageDelta(), rd, wr)
			}, pokeMix
		}
	}
	cases := []drainCase{
		{"sweng", 2, func(t *testing.T) (engine.Engine, func() string, func(int, func(string, int, uint64))) {
			f, _ := mix(t)
			e := sweng.New(f, nil, nil, false)
			return e, usage(e), pokeMix
		}},
		{"njit", 2, func(t *testing.T) (engine.Engine, func() string, func(int, func(string, int, uint64))) {
			_, prog := mix(t)
			e := njit.New("main.m", prog, nil, nil, nil)
			return e, usage(e), pokeMix
		}},
		{"hweng", 2, fabric(false)},
		{"hweng-native", 2, fabric(true)},
	}
	// Every stdlib engine, each with the stimulus that moves its outputs.
	stim := map[string]func(w *stdlib.World, k int, send func(string, int, uint64)){
		"Clock": func(*stdlib.World, int, func(string, int, uint64)) {},
		"Pad":   func(w *stdlib.World, k int, _ func(string, int, uint64)) { w.PressPad("p", uint64(k/2%16)) },
		"Reset": func(w *stdlib.World, k int, _ func(string, int, uint64)) { w.SetReset("p", k%3 == 0) },
		"Led":   func(_ *stdlib.World, k int, send func(string, int, uint64)) { send("val", 8, uint64(k)*5) },
		"GPIO": func(w *stdlib.World, k int, send func(string, int, uint64)) {
			w.DriveGPIO("p", uint64(k/3)*7)
			send("out", 8, uint64(k)*3)
		},
		"Memory": func(_ *stdlib.World, k int, send func(string, int, uint64)) {
			send("waddr", 10, uint64(k%4))
			send("wdata", 32, uint64(k)*0x01010101)
			send("wen", 1, uint64(k/2%2)) // held across a rising-edge step
			send("raddr", 10, uint64((k+3)%4))
		},
		"FIFO": func(w *stdlib.World, k int, send func(string, int, uint64)) {
			if k%4 == 0 {
				w.Stream("p").Push(uint64(k), uint64(k+1))
			}
			send("rreq", 1, uint64(k/2%2))
			send("wdata", 8, uint64(k)*9)
			send("wreq", 1, uint64(k/3%2))
		},
	}
	for typ, spec := range stdlib.Registry() {
		typ, outs := typ, 0
		for _, port := range spec.Ports {
			if port.Dir == verilog.Output {
				outs++
			}
		}
		cases = append(cases, drainCase{typ, outs, func(t *testing.T) (engine.Engine, func() string, func(int, func(string, int, uint64))) {
			poke, ok := stim[typ]
			if !ok {
				t.Fatalf("stdlib component %s has no stimulus in the drain table", typ)
			}
			w := stdlib.NewWorld()
			e, err := stdlib.New("p", typ, nil, w)
			if err != nil {
				t.Fatal(err)
			}
			return e, func() string { return "" }, func(k int, send func(string, int, uint64)) { poke(w, k, send) }
		}})
	}
	return cases
}

// runDrainCase drives a fresh engine of the case through the scheduler's
// per-step ABI sequence and returns the data plane it reported — drained
// through VisitWrites or DrainWrites — with the size of its first drain,
// its final state and its bill. With scribble set every vector handed to
// Read is overwritten as soon as Read returns; without it the vector
// must come back unchanged.
func runDrainCase(t *testing.T, c drainCase, visit, scribble bool) (trace string, first int, state, billed string) {
	t.Helper()
	e, bill, poke := c.mk(t)
	var sb strings.Builder
	step, n := -1, 0
	record := func(name string, val *bits.Vector) {
		fmt.Fprintf(&sb, "%d:%s=%s;", step, name, val)
		n++
	}
	drain := func() {
		if visit {
			e.VisitWrites(record)
			return
		}
		for _, ev := range e.DrainWrites() {
			record(ev.Var, ev.Val)
		}
	}
	send := func(name string, width int, val uint64) {
		v := bits.FromUint64(width, val)
		e.Read(engine.Event{Var: name, Val: v})
		if !v.Equal(bits.FromUint64(width, val)) {
			t.Errorf("%s: Read(%s) mutated the value it was lent", c.name, name)
		}
		if scribble {
			v.SetUint64(^val)
		}
	}
	drain()
	first = n
	for step = 0; step < 24; step++ {
		poke(step, send)
		for {
			if e.ThereAreEvals() {
				e.Evaluate()
			} else if e.ThereAreUpdates() {
				e.Update()
			} else {
				break
			}
			drain()
		}
		e.EndStep()
		drain()
	}
	return sb.String(), first, fmt.Sprint(e.GetState()), bill()
}

// TestVisitWritesMatchesDrainWrites holds the ABI's one drain and its
// collected form (engine.Collect) together on every engine the scheduler
// drains — the three user tiers (the fabric model wrapped and native) and
// every stdlib component: a twin drained through VisitWrites reports the
// same (name, value) sequence as one drained through DrainWrites, ends in
// the same state and leaves the same bill (UsageDelta, and the device's
// bus counters for the fabric model, which charges one bus read per
// changed output either way), and the first drain broadcasts every
// output.
//
// The third twin checks the borrow contract of Engine.Read from the
// lender's side: its inputs are overwritten the moment Read returns, so
// an engine that kept the pointer instead of the value diverges.
func TestVisitWritesMatchesDrainWrites(t *testing.T) {
	for _, c := range drainCases() {
		t.Run(c.name, func(t *testing.T) {
			want, first, state, billed := runDrainCase(t, c, false, false)
			if first != c.outs {
				t.Errorf("first drain reported %d outputs, want all %d", first, c.outs)
			}
			if c.outs > 0 && strings.Count(want, ";") <= first {
				t.Fatalf("the stimulus never moved an output: %q", want)
			}
			got, vfirst, vstate, vbilled := runDrainCase(t, c, true, false)
			if got != want || vfirst != first {
				t.Errorf("data plane diverges:\nDrainWrites: %q\nVisitWrites: %q", want, got)
			}
			if vstate != state {
				t.Errorf("state diverges:\nDrainWrites: %s\nVisitWrites: %s", state, vstate)
			}
			if vbilled != billed {
				t.Errorf("bill diverges:\nDrainWrites: %s\nVisitWrites: %s", billed, vbilled)
			}
			got, _, vstate, _ = runDrainCase(t, c, true, true)
			if got != want || vstate != state {
				t.Errorf("engine followed a vector it was only lent by Read:\nclean:     %q %s\nscribbled: %q %s", want, state, got, vstate)
			}
		})
	}
}

// groupSrc is the user logic of a fabric engine forwarding stdlib
// components: a clock, pad and reset it samples, a FIFO it pops, a memory
// it addresses from its state, and an LED bank it drives.
const groupSrc = `module G(input wire clk, input wire [3:0] pad, input wire rst,
                           input wire [7:0] rdata, input wire empty, input wire [31:0] q,
                           output wire rreq, output wire [7:0] led, output wire [9:0] raddr,
                           output wire [9:0] waddr, output wire [31:0] wdata, output wire wen);
  reg [7:0] acc = 0;
  always @(posedge clk)
    if (rst) acc <= 0;
    else if (!empty) acc <= acc + rdata + pad + q[7:0];
  assign rreq = !empty;
  assign led = acc;
  assign raddr = acc[3:0];
  assign waddr = acc[5:2];
  assign wdata = {24'd0, acc} ^ 32'h5a;
  assign wen = acc[0];
endmodule`

// forwardingCase is a fabric engine answering for forwarded components,
// as Runtime.forwardStdlib leaves it, stimulated only through the World.
func forwardingCase() drainCase {
	return drainCase{"hweng-forwarding", 6, func(t *testing.T) (engine.Engine, func() string, func(int, func(string, int, uint64))) {
		prog, err := netlist.Compile(flat(t, groupSrc, "main"))
		if err != nil {
			t.Fatal(err)
		}
		e, err := hweng.New("main", prog, fpga.NewCycloneV(), 10, nil, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		w := stdlib.NewWorld()
		for _, m := range [][2]string{{"c", "Clock"}, {"p", "Pad"}, {"r", "Reset"}, {"f", "FIFO"}, {"m", "Memory"}, {"l", "Led"}} {
			inner, err := stdlib.New(m[0], m[1], nil, w)
			if err != nil {
				t.Fatal(err)
			}
			e.Forward(m[0], inner)
		}
		for _, wire := range [][4]string{
			{"c", "val", "", "clk"}, {"p", "val", "", "pad"}, {"r", "val", "", "rst"},
			{"f", "rdata", "", "rdata"}, {"f", "empty", "", "empty"},
			{"", "rreq", "f", "rreq"}, {"", "led", "l", "val"},
			{"", "raddr", "m", "raddr"}, {"", "waddr", "m", "waddr"}, {"", "wdata", "m", "wdata"},
			{"", "wen", "m", "wen"}, {"m", "rdata", "", "q"},
		} {
			e.ForwardWire(wire[0], wire[1], wire[2], wire[3])
		}
		return e, func() string { return "" }, func(k int, _ func(string, int, uint64)) {
			if k%5 == 0 {
				w.Stream("f").Push(uint64(k), uint64(3*k))
			}
			w.PressPad("p", uint64(k/3%16))
			w.SetReset("r", k%11 == 0)
		}
	}}
}

// TestQuietRule holds every engine a lock-step loop polls to the contract
// the loops skip work on (engine.Engine): ThereAreEvals and
// ThereAreUpdates are pure — asked again they answer the same and move
// neither state nor pending outputs — and between two calls into an
// engine nothing, World input included, changes their answers or leaves
// anything new to drain; and Loc is fixed for the engine's life. The
// cases are the drain table's — the three user tiers and every stdlib
// component, each with the World input its stimulus makes between steps
// (FIFO stream pushes, pad presses, reset) — and a fabric engine
// forwarding stdlib components, whose polls answer for its group.
func TestQuietRule(t *testing.T) {
	for _, c := range append(drainCases(), forwardingCase()) {
		t.Run(c.name, func(t *testing.T) {
			e, _, poke := c.mk(t)
			loc := e.Loc()
			var evals, updates, drained bool // as of the last call into e
			moved := 0                       // outputs drained after the first drain
			called := func(what string) {
				t.Helper()
				if e.Loc() != loc {
					t.Fatalf("%s moved the engine from %v to %v", what, loc, e.Loc())
				}
				evals, updates, drained = e.ThereAreEvals(), e.ThereAreUpdates(), false
			}
			drain := func() (n int) {
				e.VisitWrites(func(string, *bits.Vector) { n++ })
				return n
			}
			// quiet checks what holds between two calls into e.
			quiet := func(when string) {
				t.Helper()
				sig := fmt.Sprint(e.GetState())
				for i := 0; i < 2; i++ {
					if ev, up := e.ThereAreEvals(), e.ThereAreUpdates(); ev != evals || up != updates {
						t.Fatalf("%s: polls answer (%v, %v), but (%v, %v) since the last call", when, ev, up, evals, updates)
					}
				}
				if fmt.Sprint(e.GetState()) != sig {
					t.Fatalf("%s: polling moved the state", when)
				}
				if drained && drain() != 0 {
					t.Fatalf("%s: outputs to drain appeared without a call", when)
				}
				if e.Loc() != loc {
					t.Fatalf("%s: the engine moved from %v to %v", when, loc, e.Loc())
				}
			}
			called("New")
			drain()
			drained = true
			quiet("first drain")
			for step := 0; step < 24; step++ {
				var reads []engine.Event
				poke(step, func(name string, width int, val uint64) {
					reads = append(reads, engine.Event{Var: name, Val: bits.FromUint64(width, val)})
				})
				quiet(fmt.Sprintf("step %d: World input", step))
				for _, ev := range reads {
					e.Read(ev)
					called("Read")
					quiet(fmt.Sprintf("step %d: after Read(%s)", step, ev.Var))
				}
				for evals || updates {
					if evals {
						e.Evaluate()
						called("Evaluate")
					} else {
						e.Update()
						called("Update")
					}
					quiet(fmt.Sprintf("step %d: after a batch", step))
					moved += drain()
					drained = true
					quiet(fmt.Sprintf("step %d: after a drain", step))
				}
				e.EndStep()
				called("EndStep")
				moved += drain()
				drained = true
				quiet(fmt.Sprintf("step %d: end of step", step))
			}
			if c.outs > 0 && moved == 0 {
				t.Fatal("the stimulus never moved an output")
			}
		})
	}
}
