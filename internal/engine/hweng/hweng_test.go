package hweng

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/engine"
	"cascade/internal/engine/sweng"
	"cascade/internal/fpga"
	"cascade/internal/golden"
	"cascade/internal/imagetest"
	"cascade/internal/ir"
	"cascade/internal/netlist"
	"cascade/internal/stdlib"
	"cascade/internal/verilog"
	"cascade/internal/workloads/pow"
	"cascade/internal/workloads/regexgen"
)

type recordIO struct {
	out      strings.Builder
	finished bool
}

func (r *recordIO) Display(text string, newline bool) {
	r.out.WriteString(text)
	if newline {
		r.out.WriteString("\n")
	}
}
func (r *recordIO) Finish(code int) { r.finished = true }

func compile(t *testing.T, src string) *netlist.Program {
	t.Helper()
	st, errs := verilog.ParseSourceText(src)
	if errs != nil {
		t.Fatal(errs)
	}
	f, err := elab.Elaborate(st.Modules[0], "main", nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := netlist.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The inlined running-example shape: clock input from a forwarded Clock,
// counter state, LED output, and a display task.
const mainSrc = `
module main(input wire clk__val, input wire [3:0] pad__val, output wire [7:0] led__val);
  reg [7:0] cnt = 1;
  always @(posedge clk__val)
    if (pad__val == 0)
      cnt <= (cnt == 8'h80) ? 1 : (cnt << 1);
    else
      $display("paused %d", cnt);
  assign led__val = cnt;
endmodule`

func newHW(t *testing.T, io engine.IOHandler) (*Engine, *fpga.Device) {
	t.Helper()
	dev := fpga.NewCycloneV()
	e, err := New("main", compile(t, mainSrc), dev, 500, io, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e, dev
}

func TestPlacementAndRelease(t *testing.T) {
	e, dev := newHW(t, nil)
	if dev.Used() != 500 {
		t.Fatalf("placement: %d", dev.Used())
	}
	e.Release()
	if dev.Used() != 0 {
		t.Fatalf("release: %d", dev.Used())
	}
}

func TestLockStepTickAndBilling(t *testing.T) {
	e, dev := newHW(t, nil)
	e.MsgsDelta()
	e.CyclesDelta()
	r0, w0 := dev.BusTransactions()
	for _, c := range []uint64{1, 0} {
		e.Read(engine.Event{Var: "clk__val", Val: bits.FromUint64(1, c)})
		for e.ThereAreEvals() || e.ThereAreUpdates() {
			e.Evaluate()
			if e.ThereAreUpdates() {
				e.Update()
			}
		}
		e.EndStep()
		engine.Collect(e)
	}
	if msgs := e.MsgsDelta(); msgs == 0 {
		t.Fatal("lock-step interaction should cost bus messages")
	}
	if cyc := e.CyclesDelta(); cyc == 0 {
		t.Fatal("evaluation should cost fabric cycles")
	}
	r1, w1 := dev.BusTransactions()
	if r1 == r0 && w1 == w0 {
		t.Fatal("device bus counters untouched")
	}
	st := imagetest.Of(e.Flat().Layout(), e.GetState())
	if st.Scalar("cnt").Uint64() != 2 {
		t.Fatalf("cnt=%d after one tick", st.Scalar("cnt").Uint64())
	}
}

func TestStateAccessBillsPerWord(t *testing.T) {
	e, _ := newHW(t, nil)
	e.MsgsDelta()
	st := e.GetState()
	if got := e.MsgsDelta(); got == 0 {
		t.Fatal("get_state should cost bus reads")
	}
	e.SetState(st)
	if got := e.MsgsDelta(); got == 0 {
		t.Fatal("set_state should cost bus writes")
	}
}

func TestForwardedOpenLoop(t *testing.T) {
	io := &recordIO{}
	e, _ := newHW(t, io)
	clock := stdlib.NewClock("main.clk")
	e.Forward("main.clk", clock)
	e.ForwardWire("main.clk", "val", "", "clk__val")
	done := e.OpenLoop("clk__val", 20)
	if done != 20 {
		t.Fatalf("open loop ran %d iterations, want 20", done)
	}
	// 20 iterations = 10 ticks: cnt rotated 10 times from 1.
	st := imagetest.Of(e.Flat().Layout(), e.GetState())
	if got := st.Scalar("cnt").Uint64(); got != 1<<(10%8) {
		t.Fatalf("cnt=%#x after 10 open-loop ticks", got)
	}
	// Wrapped open loop costs ~3 cycles per tick.
	cyc := e.CyclesDelta()
	if cyc < 25 || cyc > 40 {
		t.Fatalf("open-loop cycles %d, want ~30 for 10 ticks", cyc)
	}
}

func TestOpenLoopStopsOnSystemTask(t *testing.T) {
	io := &recordIO{}
	e, _ := newHW(t, io)
	clock := stdlib.NewClock("main.clk")
	e.Forward("main.clk", clock)
	e.ForwardWire("main.clk", "val", "", "clk__val")
	// Press the pad: the display task must pull control back.
	e.Read(engine.Event{Var: "pad__val", Val: bits.FromUint64(4, 1)})
	done := e.OpenLoop("clk__val", 1000)
	if done >= 1000 {
		t.Fatal("open loop should stop early on a system task")
	}
	if !strings.Contains(io.out.String(), "paused") {
		t.Fatalf("display not forwarded: %q", io.out.String())
	}
}

func TestOpenLoopUnknownClockRefuses(t *testing.T) {
	e, _ := newHW(t, nil)
	if got := e.OpenLoop("nope", 100); got != 0 {
		t.Fatalf("unknown clock should run 0 iterations, ran %d", got)
	}
}

func TestNativeCyclesPerTick(t *testing.T) {
	dev := fpga.NewCycloneV()
	e, err := New("main", compile(t, mainSrc), dev, 300, nil, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	clock := stdlib.NewClock("main.clk")
	e.Forward("main.clk", clock)
	e.ForwardWire("main.clk", "val", "", "clk__val")
	e.CyclesDelta()
	e.OpenLoop("clk__val", 20)
	if cyc := e.CyclesDelta(); cyc != 10 {
		t.Fatalf("native open loop should cost 1 cycle/tick: %d for 10 ticks", cyc)
	}
}

func TestFinishFromHardware(t *testing.T) {
	io := &recordIO{}
	dev := fpga.NewCycloneV()
	src := `
module main(input wire clk__val);
  reg [3:0] n = 0;
  always @(posedge clk__val) begin
    n <= n + 1;
    if (n == 5) $finish;
  end
endmodule`
	e, err := New("main", compile(t, src), dev, 100, io, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	clock := stdlib.NewClock("main.clk")
	e.Forward("main.clk", clock)
	e.ForwardWire("main.clk", "val", "", "clk__val")
	e.OpenLoop("clk__val", 1000)
	if !e.Finished() || !io.finished {
		t.Fatal("$finish not surfaced from hardware")
	}
}

// --- The forward group ---

const prelude = "Clock clk(); Pad#(4) pad(); Led#(8) led();\n"

// design is a program lowered the way the runtime lowers it before it
// forwards: the inlined root subprogram and the stdlib components wired
// to it.
type design struct {
	d    *ir.Design
	flat *elab.Flat
	prog *netlist.Program
	clk  string // the root's clock input
}

func lower(t testing.TB, src string) *design {
	t.Helper()
	mods, items, errs := verilog.ParseProgramFragment(prelude + src)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	p := ir.NewProgram()
	for _, m := range mods {
		if err := p.DeclareModule(m); err != nil {
			t.Fatal(err)
		}
	}
	p.AddRootItems(items...)
	built, err := ir.Build(p, stdlib.Registry())
	if err != nil {
		t.Fatal(err)
	}
	d := &design{}
	if d.d, err = ir.Inline(built); err != nil {
		t.Fatal(err)
	}
	if d.flat, err = elab.Elaborate(d.d.Sub(ir.RootPath).Module, ir.RootPath, nil); err != nil {
		t.Fatal(err)
	}
	if d.prog, err = netlist.Compile(d.flat); err != nil {
		t.Fatal(err)
	}
	for _, w := range d.d.Wires {
		if from := d.d.Sub(w.From.Sub); from.StdType == "Clock" && w.To.Sub == ir.RootPath {
			d.clk = w.To.Port
		}
	}
	if d.clk == "" {
		t.Fatal("design has no clock input")
	}
	return d
}

// rig is one running instance of a design: the root engine, its stdlib
// components on a private world, and what the root has printed and
// written so far.
type rig struct {
	d     *design
	root  engine.Engine
	std   []engine.Engine // in d.d.StdSubs() order
	world *stdlib.World
	feed  []byte // what the host pushed into the FIFO
	io    recordIO
	outs  map[string]string // latest value of every root output event
}

func newRig(t testing.TB, d *design, feed []byte) *rig {
	t.Helper()
	r := &rig{d: d, world: stdlib.NewWorld(), feed: feed, outs: map[string]string{}}
	for _, s := range d.d.StdSubs() {
		e, err := stdlib.New(s.Path, s.StdType, s.Params, r.world)
		if err != nil {
			t.Fatal(err)
		}
		r.std = append(r.std, e)
		if s.StdType == "FIFO" {
			r.world.Stream(s.Path).PushBytes(feed)
		}
	}
	return r
}

// forwarded builds the rig's root on the fabric model and forwards every
// stdlib component into it, as Runtime.forwardStdlib does.
func forwarded(t testing.TB, d *design, feed []byte) (*rig, *Engine) {
	t.Helper()
	r := newRig(t, d, feed)
	hw, err := New(ir.RootPath, d.prog, fpga.NewCycloneV(), 1, &r.io, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.root = hw
	for i, s := range d.d.StdSubs() {
		hw.Forward(s.Path, r.std[i])
	}
	local := func(sub string) string {
		if sub == ir.RootPath {
			return ""
		}
		return sub
	}
	for _, w := range d.d.Wires {
		hw.ForwardWire(local(w.From.Sub), w.From.Port, local(w.To.Sub), w.To.Port)
	}
	return r, hw
}

// forwardedFrom builds a forwarded rig that continues where the loose rig
// src stands, the way a hot swap hands over at an observable state: every
// engine's state, the bytes the FIFO has not taken yet, and the
// transcript so far.
func forwardedFrom(t testing.TB, src *rig) (*rig, *Engine) {
	t.Helper()
	rest := src.feed
	for _, s := range src.d.d.StdSubs() {
		if s.StdType == "FIFO" {
			rest = rest[src.world.Stream(s.Path).Consumed:]
		}
	}
	r, hw := forwarded(t, src.d, rest)
	hw.SetState(src.root.GetState())
	for i, e := range src.std {
		r.std[i].SetState(e.GetState())
	}
	r.io.out.WriteString(src.io.out.String())
	for k, v := range src.outs {
		r.outs[k] = v
	}
	return r, hw
}

// loose builds the rig's root in software and leaves the components
// outside it, to be scheduled and routed by step.
func loose(t testing.TB, d *design, feed []byte) *rig {
	t.Helper()
	r := newRig(t, d, feed)
	r.root = sweng.New(d.flat, &r.io, nil, false)
	return r
}

func (r *rig) note(evs []engine.Event) {
	for _, ev := range evs {
		r.outs[ev.Var] = ev.Val.String()
	}
}

// step is one scheduler time step in lock-step, the way Runtime.step runs
// it: evaluate batches to a fixed point, then update batches, routing
// every engine's writes after its batch, then end the step. A forwarded
// root answers for its group, so only it is scheduled.
func (r *rig) step() {
	sched := []engine.Engine{r.root}
	paths := []string{ir.RootPath}
	if _, fwd := r.root.(*Engine); !fwd {
		sched, paths = nil, nil
		for i, s := range r.d.d.StdSubs() {
			sched, paths = append(sched, r.std[i]), append(paths, s.Path)
		}
		sched, paths = append(sched, r.root), append(paths, ir.RootPath)
	}
	route := func(i int) {
		evs := engine.Collect(sched[i])
		if sched[i] == r.root {
			r.note(evs)
		}
		for _, ev := range evs {
			for _, w := range r.d.d.Wires {
				if w.From.Sub != paths[i] || w.From.Port != ev.Var {
					continue
				}
				for j, p := range paths {
					if p == w.To.Sub {
						sched[j].Read(engine.Event{Var: w.To.Port, Val: ev.Val})
					}
				}
			}
		}
	}
	for {
		var batch []int
		update := false
		for i, e := range sched {
			if e.ThereAreEvals() {
				batch = append(batch, i)
			}
		}
		if len(batch) == 0 {
			update = true
			for i, e := range sched {
				if e.ThereAreUpdates() {
					batch = append(batch, i)
				}
			}
		}
		if len(batch) == 0 {
			break
		}
		for _, i := range batch {
			if update {
				sched[i].Update()
			} else {
				sched[i].Evaluate()
			}
		}
		for _, i := range batch {
			route(i)
		}
	}
	for i, e := range sched {
		e.EndStep()
		route(i)
	}
}

// observe renders everything the property compares: root and component
// state, display text, the finished flag and the latest output values.
func (r *rig) observe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "root %x\n", r.root.GetState())
	for i, s := range r.d.d.StdSubs() {
		fmt.Fprintf(&sb, "%s %x\n", s.Path, r.std[i].GetState())
	}
	names := make([]string, 0, len(r.outs))
	for n := range r.outs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "out %s=%s\n", n, r.outs[n])
	}
	fmt.Fprintf(&sb, "finished=%v display=%q", r.io.finished, r.io.out.String())
	return sb.String()
}

func powGroup() string {
	cfg := pow.DefaultConfig()
	cfg.Target = 1 << 29 // one attempt in eight solves
	cfg.Display = true
	return pow.Generate(cfg) + `
wire [31:0] hashes, nonce, hash0, sol;
wire found;
Pow miner(.clk(clk.val), .hashes(hashes), .nonce(nonce),
          .found(found), .hash0(hash0), .solution(sol));
assign led.val = hashes[7:0];
always @(posedge clk.val) if (hashes == 40) $finish;
`
}

func regexGroup(t testing.TB, size int) (string, []byte) {
	prog, _, err := regexgen.GenerateStreaming(`GET /[a-z]*\.html`)
	if err != nil {
		t.Fatal(err)
	}
	prog += fmt.Sprintf(`
assign led.val = matches[7:0];
always @(posedge clk.val) begin
  if (mtch) $display("match %%d at %%d", matches, consumed);
  if (consumed == 32'd%d) $finish;
end
`, size)
	var feed []byte
	rnd := rand.New(rand.NewSource(12))
	for len(feed) < size {
		feed = append(feed, "GET /"...)
		for n := rnd.Intn(6); n > 0; n-- {
			feed = append(feed, byte('a'+rnd.Intn(26)))
		}
		feed = append(feed, []string{".html ", ".php ", "_.html "}[rnd.Intn(3)]...)
	}
	return prog, feed[:size]
}

// TestForwardGroupEquivalence: a forward group run in open-loop bursts of
// random sizes reaches, at every burst boundary, the state the same group
// reaches in forwarded lock-step and the state a software root with loose
// components reaches: engine and component state, $display text in order,
// the latest value of every root output, and $finish.
func TestForwardGroupEquivalence(t *testing.T) {
	regexSrc, feed := regexGroup(t, 700)
	for _, tc := range []struct {
		name, src string
		feed      []byte
		steps     int
	}{
		{"pow", powGroup(), nil, 2 * 66 * 44},
		{"regexstream", regexSrc, feed, 1600},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := lower(t, tc.src)
			soft := loose(t, d, tc.feed)
			for i := 0; i < 101; i++ { // hand over mid-tick, with the clock high
				soft.step()
			}
			open, hw := forwardedFrom(t, soft)
			lock, _ := forwardedFrom(t, soft)
			rnd := rand.New(rand.NewSource(7))
			total := 101
			for total < tc.steps && !open.io.finished {
				done := hw.OpenLoop(d.clk, 1+rnd.Intn(97))
				if done == 0 {
					t.Fatalf("open loop made no progress at step %d", total)
				}
				open.note(engine.Collect(hw))
				for i := 0; i < done; i++ {
					lock.step()
					soft.step()
				}
				total += done
				want := soft.observe()
				if got := lock.observe(); got != want {
					t.Fatalf("step %d: forwarded lock-step diverged from software\n got %s\nwant %s", total, got, want)
				}
				if got := open.observe(); got != want {
					t.Fatalf("step %d: open loop diverged from software\n got %s\nwant %s", total, got, want)
				}
			}
			if !open.io.finished || !hw.Finished() {
				t.Fatalf("no $finish within %d steps", tc.steps)
			}
			if open.io.out.Len() == 0 {
				t.Fatal("the program printed nothing: the property compared no display text")
			}
		})
	}
}

// billing drives a fixed script over the regex group and renders the
// engine's cycle and message deltas after each stage, one line per stage.
func billing(t *testing.T) string {
	src, feed := regexGroup(t, 300)
	d := lower(t, src)
	r := newRig(t, d, feed)
	hw, err := New(ir.RootPath, d.prog, fpga.NewCycloneV(), 1, &r.io, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.root = hw
	var sb strings.Builder
	mark := func(stage string) {
		fmt.Fprintf(&sb, "%s: cycles=%d msgs=%d\n", stage, hw.CyclesDelta(), hw.MsgsDelta())
	}
	settle := func() {
		for {
			if hw.ThereAreEvals() {
				hw.Evaluate()
			} else if hw.ThereAreUpdates() {
				hw.Update()
			} else {
				break
			}
		}
		hw.EndStep()
		engine.Collect(hw)
	}
	// Lock-step, nothing forwarded: ten ticks driven through Read.
	for i := 0; i < 20; i++ {
		hw.Read(engine.Event{Var: d.clk, Val: bits.FromUint64(1, uint64(1-i%2))})
		settle()
	}
	mark("lock-step, 10 ticks")
	hw.SetState(hw.GetState())
	mark("state round trip")
	// Forwarded lock-step, then open loop to $finish.
	r2, fw := forwarded(t, d, feed)
	hw = fw
	for i := 0; i < 40; i++ {
		r2.step()
	}
	mark("forwarded lock-step, 40 steps")
	for _, n := range []int{2, 64, 7, 200} {
		hw.OpenLoop(d.clk, n)
		engine.Collect(hw)
		mark(fmt.Sprintf("open loop, %d iterations", n))
	}
	for i := 0; i < 100 && !hw.Finished(); i++ {
		hw.OpenLoop(d.clk, 1000) // returns at every $display
	}
	if !hw.Finished() {
		t.Fatal("script did not reach $finish")
	}
	mark("open loop to $finish")
	return sb.String()
}

// TestBillingGolden pins the cycles and messages the fabric model bills
// for a fixed script (testdata/TestBillingGolden). The record was made
// with the interpreted netlist.Machine as the executor: billing comes from
// the engine's own counters and must not move with the executor or the
// data plane.
func TestBillingGolden(t *testing.T) {
	golden.Check(t, "regex-group", billing(t))
}

// TestSetStateInvalidatesCompiledSensitivity: a state installed from
// outside bypasses every compiled write, so nothing marks the
// combinational units that read it; SetState must schedule a full pass,
// or the outputs keep showing the state that was replaced.
func TestSetStateInvalidatesCompiledSensitivity(t *testing.T) {
	e, _ := newHW(t, nil)
	tick := func() {
		for _, c := range []uint64{1, 0} {
			e.Read(engine.Event{Var: "clk__val", Val: bits.FromUint64(1, c)})
			for e.ThereAreEvals() || e.ThereAreUpdates() {
				e.Evaluate()
				if e.ThereAreUpdates() {
					e.Update()
				}
			}
			e.EndStep()
		}
	}
	tick() // consumes the full pass every fresh engine starts with
	if got := engine.Collect(e); len(got) != 1 || got[0].Val.Uint64() != 2 {
		t.Fatalf("after one tick: %v", got)
	}
	st := e.GetState()
	imagetest.Of(e.Flat().Layout(), st).Set("cnt", bits.FromUint64(8, 0x20))
	e.SetState(st)
	if !e.ThereAreEvals() {
		t.Fatal("a replaced state must schedule evaluation")
	}
	e.Evaluate()
	if got := engine.Collect(e); len(got) != 1 || got[0].Var != "led__val" || got[0].Val.Uint64() != 0x20 {
		t.Fatalf("led__val did not follow the installed state: %v", got)
	}
	tick()
	if got := imagetest.Of(e.Flat().Layout(), e.GetState()).Scalar("cnt").Uint64(); got != 0x40 {
		t.Fatalf("cnt=%#x one tick after SetState(0x20)", got)
	}
}

// TestOpenLoopBurstAllocFree: with the FIFO quiescent, a 64-tick burst —
// compiled evaluation, clock toggles, every group-internal delivery and
// the end-of-step sampling of the components — allocates nothing.
func TestOpenLoopBurstAllocFree(t *testing.T) {
	src, _ := regexGroup(t, 1)
	d := lower(t, src)
	_, hw := forwarded(t, d, nil)
	hw.OpenLoop(d.clk, 128) // first broadcast, lazily built scratch vectors
	if got := testing.AllocsPerRun(20, func() {
		if done := hw.OpenLoop(d.clk, 128); done != 128 {
			t.Fatalf("burst ran %d of 128 iterations", done)
		}
	}); got != 0 {
		t.Fatalf("open-loop burst allocates: %v allocs per 64 ticks", got)
	}
}

// counted wraps a forwarded component and counts what the group asks of
// it: polls, drains, and every other call.
type counted struct {
	engine.Engine
	n *memberCalls
}

type memberCalls struct{ polls, drains, calls int }

func (c counted) ThereAreEvals() bool   { c.n.polls++; return c.Engine.ThereAreEvals() }
func (c counted) ThereAreUpdates() bool { c.n.polls++; return c.Engine.ThereAreUpdates() }
func (c counted) VisitWrites(fn func(string, *bits.Vector)) {
	c.n.drains++
	c.Engine.VisitWrites(fn)
}
func (c counted) Read(ev engine.Event) { c.n.calls++; c.Engine.Read(ev) }
func (c counted) Evaluate()            { c.n.calls++; c.Engine.Evaluate() }
func (c counted) Update()              { c.n.calls++; c.Engine.Update() }
func (c counted) EndStep()             { c.n.calls++; c.Engine.EndStep() }

// TestForwardGroupCallsPerStep pins what the forward group asks of its
// members — the regex group's clock, pad, LED and FIFO, streaming bytes
// that never match — over 64 forwarded lock-step steps and over 64
// open-loop iterations: a member is polled or drained only when its answer
// can have changed since the group last called into it (the quiet rule).
// Before the rule every batch polled and drained every member: lock-step
// polls 1728, drains 1152; open loop polls 1664, drains 2944. Calls are
// the work itself and did not move.
func TestForwardGroupCallsPerStep(t *testing.T) {
	// The verify switch re-issues what the rule skips; counted, those would
	// be the very calls this test pins as saved.
	engine.VerifyQuiet = false
	defer func() { engine.VerifyQuiet = true }()
	src, _ := regexGroup(t, 1<<20)
	d := lower(t, src)
	r, hw := forwarded(t, d, bytes.Repeat([]byte("GET /x.php "), 64))
	var n memberCalls
	for i, s := range d.d.StdSubs() {
		hw.Forward(s.Path, counted{r.std[i], &n})
	}
	for i := 0; i < 40; i++ {
		r.step()
	}
	n = memberCalls{}
	for i := 0; i < 64; i++ {
		r.step()
	}
	if want := (memberCalls{832, 256, 384}); n != want {
		t.Errorf("forwarded lock-step, 64 steps: %+v, want %+v", n, want)
	}
	n = memberCalls{}
	if done := hw.OpenLoop(d.clk, 64); done != 64 {
		t.Fatalf("burst ran %d of 64 iterations", done)
	}
	if want := (memberCalls{768, 388, 384}); n != want {
		t.Errorf("open loop, 64 iterations: %+v, want %+v", n, want)
	}
}
