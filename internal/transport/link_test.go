package transport

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/engine"
	"cascade/internal/engine/sweng"
	"cascade/internal/fpga"
	"cascade/internal/imagetest"
	"cascade/internal/proto"
	"cascade/internal/toolchain"
	"cascade/internal/verilog"
)

// kindCount wraps a transport and counts the frames it carries by kind,
// round frames also by phase, and the results of the last round reply.
type kindCount struct {
	Transport
	frames  map[proto.Kind]int
	phases  map[proto.RoundPhase]int
	results int
}

func (k *kindCount) Roundtrip(req *proto.Request, rep *proto.Reply) (Cost, error) {
	k.frames[req.Kind]++
	if req.Kind == proto.KindRound && k.phases != nil {
		k.phases[req.Phase]++
	}
	cost, err := k.Transport.Roundtrip(req, rep)
	k.results = len(rep.Round)
	return cost, err
}

// clkReads is a counter's inputs at half-tick i: its clock.
func clkReads(i int) []engine.Event {
	return []engine.Event{{Var: "clk", Val: boolVec(uint64(i % 2))}}
}

// driveSteps runs the scheduler's step of Figure 6 against one engine,
// call by call — reads(i) delivered, evaluate to a fixed point, one update
// batch, again until neither has work, end the step; outputs drained
// after everything that ran — and returns the drained data-plane trace.
func driveSteps(e engine.Engine, ticks int, reads func(i int) []engine.Event) string {
	var sb strings.Builder
	for i := 0; i < 2*ticks; i++ {
		collect := func() {
			for _, ev := range engine.Collect(e) {
				fmt.Fprintf(&sb, "%d:%s=%s;", i, ev.Var, ev.Val)
			}
		}
		for _, ev := range reads(i) {
			e.Read(ev)
		}
		for {
			if e.ThereAreEvals() {
				e.Evaluate()
				collect()
				continue
			}
			if !e.ThereAreUpdates() {
				break
			}
			e.Update()
			collect()
		}
		e.EndStep()
		collect()
	}
	return sb.String()
}

// driveRounds is driveSteps for the clients of one link, as the runtime
// runs hosted engines: inputs queued, one frame per round for all of
// them, an evals round chained to the updates round behind it. It
// returns each client's trace.
func driveRounds(l *Link, cs []*Client, ticks int, reads func(i int) []engine.Event) []string {
	sbs := make([]strings.Builder, len(cs))
	collect := func(i int) {
		for k, c := range cs {
			for _, ev := range engine.Collect(c) {
				fmt.Fprintf(&sbs[k], "%d:%s=%s;", i, ev.Var, ev.Val)
			}
		}
	}
	ran := func() bool {
		any := false
		for _, c := range cs {
			any = any || c.Ran()
		}
		return any
	}
	for i := 0; i < 2*ticks; i++ {
		for _, c := range cs {
			for _, ev := range reads(i) {
				c.Read(ev)
			}
		}
		for {
			if l.Round(proto.RoundChained, cs); ran() {
				collect(i)
				continue
			}
			if l.Round(proto.RoundUpdates, cs); !ran() {
				break
			}
			collect(i)
		}
		for done := 0; done < len(cs); {
			done += l.Round(proto.RoundEndStep, cs[done:])
		}
		collect(i)
	}
	out := make([]string, len(cs))
	for k := range sbs {
		out[k] = sbs[k].String()
	}
	return out
}

// TestLinkRoundsMatchCalls: three engines driven by the round over one
// link are, each, indistinguishable from the bare engine driven call by
// call — display output, data-plane trace, final state — and are billed
// exactly what a lone client making those calls one frame each is
// billed, while the wire carries nothing but round frames (and far fewer
// of them) whose cost is booked to the clients without loss or double
// count.
func TestLinkRoundsMatchCalls(t *testing.T) {
	const ticks = 25
	recBare := &recorder{}
	bare := sweng.New(elaborateCtr(t, "main.c"), recBare, nil, false)
	traceBare := driveSteps(bare, ticks, clkReads)
	sigBare := fmt.Sprint(bare.GetState())

	_, addr := loopbackHost(t, HostOptions{DisableJIT: true})
	loneT, err := DialTCP(addr, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer loneT.Close()
	lone, err := Spawn(loneT, SpawnSpec{Path: "main.c", Source: ctrSrc, Layout: ctrLayout}, &recorder{}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := driveSteps(lone, ticks, clkReads); got != traceBare {
		t.Fatalf("lone client trace diverges:\nbare %s\nlone %s", traceBare, got)
	}
	billLone := lone.UsageDelta()

	tcpT, err := DialTCP(addr, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcpT.Close()
	counted := &kindCount{Transport: tcpT, frames: map[proto.Kind]int{}}
	l := NewLink(counted, nil, nil)
	recs := []*recorder{{}, {}, {}}
	var cs []*Client
	for i, rec := range recs {
		c, err := l.Spawn(SpawnSpec{Path: fmt.Sprintf("main.c%d", i), Source: ctrSrc, Layout: ctrLayout}, rec, rec.onErr)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	traces := driveRounds(l, cs, ticks, clkReads)
	for k, c := range cs {
		if got := recs[k].output(); got != recBare.output() {
			t.Errorf("client %d display output diverges:\n%q\n%q", k, got, recBare.output())
		}
		if traces[k] != traceBare {
			t.Errorf("client %d trace diverges:\nbare  %s\nround %s", k, traceBare, traces[k])
		}
		if bill := c.UsageDelta(); bill != billLone || bill.Msgs == 0 || bill.Ops == 0 {
			t.Errorf("client %d billed %+v by the round, %+v call by call", k, bill, billLone)
		}
		if sig := fmt.Sprint(c.GetState()); sig != sigBare {
			t.Errorf("client %d state diverges:\nbare  %s\nround %s", k, sigBare, sig)
		}
		if len(recs[k].errs) != 0 {
			t.Errorf("client %d latched %v", k, recs[k].errs)
		}
	}
	for kind, n := range counted.frames {
		switch kind {
		case proto.KindRound, proto.KindSpawn, proto.KindGetState:
		default:
			t.Errorf("%d %v frames on the wire", n, kind)
		}
	}
	// A step of this counter is under four frames, its end-step included,
	// however many engines share them (an evals round that runs nobody
	// carries the updates round); call by call it was ~11 frames per
	// engine.
	if n := counted.frames[proto.KindRound]; n == 0 || n > 2*ticks*4 {
		t.Errorf("%d round frames for %d steps", n, 2*ticks)
	}
	var sum Stats
	for _, c := range cs {
		sum.Add(c.Stats())
	}
	if sum != tcpT.Stats() {
		t.Errorf("clients' books %+v do not sum to the connection's %+v", sum, tcpT.Stats())
	}
}

// mixSrc has inputs of two widths and outputs of three, which change at
// different steps: mixReads delivers the 8-bit input before the clock on
// every third half-tick, so one queue slot of the link takes either width,
// and a drain reports the 1-bit output first only when it changed, so one
// drain slot of the host holds any of the three.
const mixSrc = `module Mix(input wire clk, input wire [7:0] d, output wire b, output wire [99:0] w, output wire [7:0] out);
  reg [7:0] n = 1;
  always @(posedge clk) begin
    n <= n + d + 8'd1;
    $display("n=%d", n);
  end
  assign b = n[2];
  assign w = {n[1], 91'd0, n};
  assign out = n;
endmodule`

func mixReads(i int) []engine.Event {
	if i%3 != 0 {
		return clkReads(i)
	}
	return append([]engine.Event{{Var: "d", Val: bits.FromUint64(8, uint64(i*37))}}, clkReads(i)...)
}

// TestLinkRoundsMixedWidths: where a slot of the link's input queue or of
// the host's drain takes vectors of other widths from one round to the
// next — reusing the vector it held when that has the room — two engines
// over one link stay the bare engine driven call by call: trace, display
// output and final state.
func TestLinkRoundsMixedWidths(t *testing.T) {
	const ticks = 25
	st, errs := verilog.ParseSourceText(mixSrc)
	if errs != nil {
		t.Fatal(errs)
	}
	f, err := elab.Elaborate(st.Modules[0], "main.m", nil)
	if err != nil {
		t.Fatal(err)
	}
	recBare := &recorder{}
	bare := sweng.New(f, recBare, nil, false)
	traceBare := driveSteps(bare, ticks, mixReads)
	for _, w := range []string{"1'h", "8'h", "100'h"} {
		if !strings.Contains(traceBare, w) {
			t.Fatalf("no %s output in the trace: %s", w, traceBare)
		}
	}
	_, addr := loopbackHost(t, HostOptions{DisableJIT: true})
	tcpT, err := DialTCP(addr, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcpT.Close()
	l := NewLink(tcpT, nil, nil)
	recs := []*recorder{{}, {}}
	var cs []*Client
	for i, rec := range recs {
		c, err := l.Spawn(SpawnSpec{Path: fmt.Sprintf("main.m%d", i), Source: mixSrc, Layout: f.Layout()}, rec, rec.onErr)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	traces := driveRounds(l, cs, ticks, mixReads)
	sigBare := fmt.Sprint(bare.GetState())
	for k, c := range cs {
		if traces[k] != traceBare {
			t.Errorf("client %d trace diverges:\nbare  %s\nround %s", k, traceBare, traces[k])
		}
		if got := recs[k].output(); got != recBare.output() {
			t.Errorf("client %d display output diverges:\n%q\n%q", k, got, recBare.output())
		}
		if sig := fmt.Sprint(c.GetState()); sig != sigBare {
			t.Errorf("client %d state diverges:\nbare  %s\nround %s", k, sigBare, sig)
		}
		if len(recs[k].errs) != 0 {
			t.Errorf("client %d latched %v", k, recs[k].errs)
		}
	}
}

// linkArm spawns n counters on a link of their own, over its own
// connection to the daemon at addr, and counts that link's frames.
func linkArm(t *testing.T, addr string, n int) (*Link, *kindCount, []*Client, []*recorder) {
	t.Helper()
	tcpT, err := DialTCP(addr, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tcpT.Close() })
	w := &kindCount{Transport: tcpT, frames: map[proto.Kind]int{}, phases: map[proto.RoundPhase]int{}}
	l := NewLink(w, nil, nil)
	var cs []*Client
	var recs []*recorder
	for i := 0; i < n; i++ {
		rec := &recorder{}
		c, err := l.Spawn(SpawnSpec{Path: fmt.Sprintf("main.c%d", i), Source: ctrSrc, Layout: ctrLayout}, rec, rec.onErr)
		if err != nil {
			t.Fatal(err)
		}
		cs, recs = append(cs, c), append(recs, rec)
	}
	return l, w, cs, recs
}

// TestLinkChainedFrameBillsBothPhases: two arms of counters step in
// lock-step, one sending an evals frame and an updates frame, the other a
// chained frame and no updates frame whenever its evals phase ran nobody.
// After every round each client of the chained arm has run, drained and
// been billed what its twin has — poll 1 at the evals round, poll 1 plus
// 2 when the engine ran at the updates round — and its display output is
// the same.
func TestLinkChainedFrameBillsBothPhases(t *testing.T) {
	_, addr := loopbackHost(t, HostOptions{DisableJIT: true})
	sepL, _, sep, sepRecs := linkArm(t, addr, 2)
	chL, chW, ch, chRecs := linkArm(t, addr, 2)
	// check compares the twins after a round; the drains the round lent
	// are compared where it made them (at end-step, or where it ran the
	// engine), so no lone drain goes on the wire.
	check := func(at string, endStep bool, msgs func(*Client) uint64) {
		t.Helper()
		for k := range sep {
			a, b := sep[k], ch[k]
			if a.Ran() != b.Ran() {
				t.Errorf("%s: client %d ran %v by the chained frame, %v by its own", at, k, b.Ran(), a.Ran())
			}
			ua, ub := a.UsageDelta(), b.UsageDelta()
			if ua != ub || msgs != nil && ub.Msgs != msgs(b) {
				t.Errorf("%s: client %d billed %+v by the chained frame, %+v by its own", at, k, ub, ua)
			}
			if !endStep && !a.Ran() {
				continue
			}
			if da, db := fmt.Sprint(engine.Collect(a)), fmt.Sprint(engine.Collect(b)); da != db {
				t.Errorf("%s: client %d drained %s by the chained frame, %s by its own", at, k, db, da)
			}
		}
	}
	chained := 0
	for i := 0; i < 12; i++ {
		for k := range sep {
			sep[k].Read(engine.Event{Var: "clk", Val: boolVec(uint64(i % 2))})
			ch[k].Read(engine.Event{Var: "clk", Val: boolVec(uint64(i % 2))})
		}
		for {
			sepL.Round(proto.RoundEvals, sep)
			chL.Round(proto.RoundChained, ch)
			frames, results := chW.frames[proto.KindRound], chW.results
			check(fmt.Sprintf("step %d evals", i), false, nil)
			if ch[0].Ran() {
				continue
			}
			if results != 2*len(ch) {
				t.Fatalf("step %d: a chained frame whose evals ran nobody answered %d results for %d members",
					i, results, len(ch))
			}
			chained++
			sepL.Round(proto.RoundUpdates, sep)
			chL.Round(proto.RoundUpdates, ch)
			if chW.frames[proto.KindRound] != frames {
				t.Fatalf("step %d: the updates round behind a chained frame sent a frame", i)
			}
			check(fmt.Sprintf("step %d updates", i), false, func(c *Client) uint64 {
				if c.Ran() {
					return 1 + 2
				}
				return 1
			})
			if !ch[0].Ran() {
				break
			}
		}
		sepL.Round(proto.RoundEndStep, sep)
		chL.Round(proto.RoundEndStep, ch)
		check(fmt.Sprintf("step %d end-step", i), true, nil)
	}
	if chained < 12 || chW.phases[proto.RoundUpdates] != 0 {
		t.Errorf("%d chained frames carried the updates round, %d updates frames sent", chained, chW.phases[proto.RoundUpdates])
	}
	for k := range sep {
		if a, b := sepRecs[k].output(), chRecs[k].output(); a != b || a == "" {
			t.Errorf("client %d printed %q by chained frames, %q by their own", k, b, a)
		}
	}
}

// TestLinkChainedFrameThatRanCarriesNoUpdates: a chained frame whose
// evals phase ran a member is an evals frame, one result per member, and
// an updates round after it sends its own frame.
func TestLinkChainedFrameThatRanCarriesNoUpdates(t *testing.T) {
	_, addr := loopbackHost(t, HostOptions{DisableJIT: true})
	l, w, cs, _ := linkArm(t, addr, 2)
	for _, c := range cs {
		c.Read(engine.Event{Var: "clk", Val: boolVec(1)})
	}
	l.Round(proto.RoundChained, cs)
	if !cs[0].Ran() || !cs[1].Ran() || w.results != len(cs) {
		t.Fatalf("posedge chained frame: ran %v %v, %d results for %d members",
			cs[0].Ran(), cs[1].Ran(), w.results, len(cs))
	}
	l.Round(proto.RoundUpdates, cs)
	if w.phases[proto.RoundUpdates] != 1 || !cs[0].Ran() || !cs[1].Ran() {
		t.Errorf("updates round: %d updates frames, ran %v %v", w.phases[proto.RoundUpdates], cs[0].Ran(), cs[1].Ran())
	}
	// The spawn, the Read, the evals poll, run and drain, the updates
	// poll, run and drain.
	for _, c := range cs {
		if u := c.UsageDelta(); u.Msgs != 1+1+3+3 {
			t.Errorf("%s billed %d messages, want 8", c.name, u.Msgs)
		}
	}
}

// TestLinkChainedFrameLatchesUnknownMemberAlone: a member the host does
// not hold answers both phases of a chained frame with its own error, the
// members around it are served both; on the link it latches, once, and
// the others take their updates results without another frame.
func TestLinkChainedFrameLatchesUnknownMemberAlone(t *testing.T) {
	h, addr := loopbackHost(t, HostOptions{DisableJIT: true})
	var ids []uint32
	for i := 0; i < 2; i++ {
		var rep proto.Reply
		h.Handle(&proto.Request{Kind: proto.KindSpawn, Path: fmt.Sprintf("main.h%d", i), Source: ctrSrc}, &rep)
		if rep.Err != "" {
			t.Fatal(rep.Err)
		}
		ids = append(ids, rep.Engine)
	}
	clk := boolVec(1)
	var rep proto.Reply
	h.Handle(&proto.Request{Kind: proto.KindRound, Phase: proto.RoundEvals,
		Inputs:  []proto.RoundInput{{Engine: ids[0], Var: "clk", Val: clk}, {Engine: ids[1], Var: "clk", Val: clk}},
		Members: ids}, &rep)
	h.Handle(&proto.Request{Kind: proto.KindRound, Phase: proto.RoundChained,
		Members: []uint32{ids[0], 99, ids[1]}}, &rep)
	if rep.Err != "" || len(rep.Round) != 6 {
		t.Fatalf("chained reply: err %q, %d results", rep.Err, len(rep.Round))
	}
	for k, res := range rep.Round {
		switch unknown := k%3 == 1; {
		case unknown && (res.Err == "" || res.Ran):
			t.Errorf("result %d: unknown member answered %+v", k, res)
		case !unknown && (res.Err != "" || res.Ran != (k >= 3)):
			t.Errorf("result %d: member around the unknown engine answered %+v", k, res)
		}
	}

	l, w, cs, recs := linkArm(t, addr, 3)
	for _, c := range cs {
		c.Read(engine.Event{Var: "clk", Val: clk})
	}
	l.Round(proto.RoundEvals, cs)
	h.Handle(&proto.Request{Kind: proto.KindEnd, Engine: cs[1].id}, &rep)
	l.Round(proto.RoundChained, cs)
	if w.results != 2*len(cs) {
		t.Fatalf("chained frame answered %d results for %d members", w.results, len(cs))
	}
	frames := w.frames[proto.KindRound]
	l.Round(proto.RoundUpdates, cs)
	if w.frames[proto.KindRound] != frames {
		t.Error("the updates round behind a chained frame sent a frame")
	}
	if !errors.Is(cs[1].Err(), ErrEngineLost) || len(recs[1].errs) != 1 || cs[1].Ran() {
		t.Errorf("unknown member: latched %v, reported %d times, ran %v", cs[1].Err(), len(recs[1].errs), cs[1].Ran())
	}
	for _, k := range []int{0, 2} {
		if cs[k].Err() != nil || len(recs[k].errs) != 0 || !cs[k].Ran() {
			t.Errorf("%s: err %v, ran %v", cs[k].name, cs[k].Err(), cs[k].Ran())
		}
	}
}

// TestLinkLoneCallFlushesQueue: a Read on a hosted client is only queued,
// so a lone call on any client of the link delivers the queue first — the
// daemon sees, per engine, the order the calls were made in.
func TestLinkLoneCallFlushesQueue(t *testing.T) {
	_, addr := loopbackHost(t, HostOptions{DisableJIT: true})
	tcpT, err := DialTCP(addr, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcpT.Close()
	counted := &kindCount{Transport: tcpT, frames: map[proto.Kind]int{}}
	l := NewLink(counted, nil, nil)
	a, err := l.Spawn(SpawnSpec{Path: "main.a", Source: ctrSrc, Layout: ctrLayout}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Spawn(SpawnSpec{Path: "main.b", Source: ctrSrc, Layout: ctrLayout}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Read(engine.Event{Var: "clk", Val: boolVec(1)})
	b.Read(engine.Event{Var: "clk", Val: boolVec(1)})
	if !a.Queued() || !b.Queued() || counted.frames[proto.KindRound] != 0 {
		t.Fatalf("reads not queued: %v %v, %d frames", a.Queued(), b.Queued(), counted.frames[proto.KindRound])
	}
	// The lone call is on a; b's input was queued behind a's and goes too.
	if got := imagetest.Of(ctrLayout, a.GetState()).Scalar("clk"); got == nil || got.Uint64() != 1 {
		t.Errorf("GetState did not see the input queued before it: clk=%v", got)
	}
	if a.Queued() || b.Queued() || counted.frames[proto.KindRound] != 1 {
		t.Errorf("queue not flushed by one inputs-only frame: %v %v, %d frames",
			a.Queued(), b.Queued(), counted.frames[proto.KindRound])
	}
	if !b.ThereAreEvals() {
		t.Error("b never got the input queued before a's lone call")
	}
	// Billed: the spawn, the Read when it was queued, the lone call (and
	// for GetState the state's three words); the flush frame nothing.
	if ua, ub := a.UsageDelta(), b.UsageDelta(); ua.Msgs != 3+3 || ub.Msgs != 3 {
		t.Errorf("billed a %+v b %+v", ua, ub)
	}
}

// TestLinkEndStepStopsBehindSwap: an engine the step boundary promotes
// announces every output, and those may be inputs of the members after
// it — due before their own end-step — so the end-step frame stops
// behind it: Round is done with fewer members than it was given, and
// the caller's next frame serves the rest. Nothing is lost on the way.
func TestLinkEndStepStopsBehindSwap(t *testing.T) {
	dev := fpga.NewCycloneV()
	o := toolchain.DefaultOptions()
	o.Scale, o.BasePs = 1e9, 1
	_, addr := loopbackHost(t, HostOptions{Device: dev, Toolchain: toolchain.New(dev, o)})
	tcpT, err := DialTCP(addr, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcpT.Close()
	var vnow uint64
	l := NewLink(tcpT, nil, func() uint64 { return vnow })
	var cs []*Client
	for i := 0; i < 3; i++ {
		c, err := l.Spawn(SpawnSpec{Path: fmt.Sprintf("main.c%d", i), Source: ctrSrc, Layout: ctrLayout, JIT: true}, &recorder{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	vnow = 1 << 62 // past every compile's ready point
	short := 0
	for i := 0; i < 8; i++ {
		for done := 0; done < len(cs); {
			n := l.Round(proto.RoundEndStep, cs[done:])
			if n == 0 {
				t.Fatal("an end-step frame served nobody")
			}
			if done += n; done < len(cs) {
				short++
				if !cs[done-1].drained || len(cs[done-1].drain) == 0 {
					t.Errorf("frame stopped behind %s, which has no outputs to route", cs[done-1].name)
				}
			}
		}
	}
	for _, c := range cs {
		if c.Loc() != engine.Hardware {
			t.Errorf("%s never promoted", c.name)
		}
	}
	// Three promotions, each announcing its output: the first two cut a
	// frame short, the last member's had nobody behind it.
	if short != 2 {
		t.Errorf("%d short end-step frames, want 2", short)
	}
}

// TestHostRoundServesAroundUnknownEngine: a member the host does not
// hold answers with its own error; the members around it are served.
func TestHostRoundServesAroundUnknownEngine(t *testing.T) {
	h := NewHost(HostOptions{DisableJIT: true})
	var ids []uint32
	for i := 0; i < 2; i++ {
		var rep proto.Reply
		h.Handle(&proto.Request{Kind: proto.KindSpawn, Path: fmt.Sprintf("main.c%d", i), Source: ctrSrc}, &rep)
		if rep.Err != "" {
			t.Fatal(rep.Err)
		}
		ids = append(ids, rep.Engine)
	}
	clk := boolVec(1)
	req := &proto.Request{Kind: proto.KindRound, Phase: proto.RoundEvals,
		Inputs: []proto.RoundInput{{Engine: ids[0], Var: "clk", Val: clk},
			{Engine: 99, Var: "clk", Val: clk}, {Engine: ids[1], Var: "clk", Val: clk}},
		Members: []uint32{ids[0], 99, ids[1]}}
	var rep proto.Reply
	h.Handle(req, &rep)
	if rep.Err != "" || len(rep.Round) != 3 {
		t.Fatalf("round reply: err %q, %d results", rep.Err, len(rep.Round))
	}
	if !rep.Round[0].Ran || !rep.Round[2].Ran || rep.Round[0].Err != "" || rep.Round[2].Err != "" {
		t.Errorf("members around the unknown engine not served: %+v", rep.Round)
	}
	if rep.Round[1].Err == "" || rep.Round[1].Ran {
		t.Errorf("unknown member answered %+v", rep.Round[1])
	}
}

// TestLostEngineLatches is the satellite bug: a reply-level error on an
// engine call used to be dropped — the client read Bool and Events off an
// empty reply and the program stopped advancing without a word. The
// engine is ended behind the client's back (what a SessionClose from
// another connection, or a daemon resumed without the engine, does); the
// client must report exactly one ErrEngineLost and go inert, called
// alone or as a member of a round — whose other member carries on.
func TestLostEngineLatches(t *testing.T) {
	h, addr := loopbackHost(t, HostOptions{DisableJIT: true})
	tcpT, err := DialTCP(addr, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcpT.Close()
	end := func(c *Client) {
		var rep proto.Reply
		h.Handle(&proto.Request{Kind: proto.KindEnd, Engine: c.id}, &rep)
	}
	check := func(name string, c *Client, rec *recorder) {
		t.Helper()
		if c.ThereAreEvals() || c.ThereAreUpdates() || c.Ran() || engine.Collect(c) != nil {
			t.Errorf("%s: lost client is not inert", name)
		}
		c.Evaluate()
		err := c.Err()
		if !errors.Is(err, ErrEngineLost) || !errors.Is(err, ErrEngineUnavailable) {
			t.Errorf("%s: latched %v, want ErrEngineLost wrapping ErrEngineUnavailable", name, err)
		}
		if len(rec.errs) != 1 {
			t.Errorf("%s: error reported %d times, want once", name, len(rec.errs))
		}
	}

	rec := &recorder{}
	lone, err := Spawn(tcpT, SpawnSpec{Path: "main.lone", Source: ctrSrc, Layout: ctrLayout}, rec, nil, nil, rec.onErr)
	if err != nil {
		t.Fatal(err)
	}
	end(lone)
	check("lone call", lone, rec)

	l := NewLink(tcpT, nil, nil)
	recA, recB := &recorder{}, &recorder{}
	a, err := l.Spawn(SpawnSpec{Path: "main.a", Source: ctrSrc, Layout: ctrLayout}, recA, recA.onErr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Spawn(SpawnSpec{Path: "main.b", Source: ctrSrc, Layout: ctrLayout}, recB, recB.onErr)
	if err != nil {
		t.Fatal(err)
	}
	end(a)
	traces := driveRounds(l, []*Client{a, b}, 3, clkReads)
	check("round member", a, recA)
	if traces[0] != "" {
		t.Errorf("lost member produced outputs: %s", traces[0])
	}
	if b.Err() != nil || traces[1] == "" || recB.output() == "" {
		t.Errorf("surviving member did not carry on: err %v trace %q", b.Err(), traces[1])
	}
}

// cutHost is a transport straight into a Host — whichever one the test
// points it at — that can be cut: the daemon as a link sees it die,
// answer again, or come back as another incarnation.
type cutHost struct {
	h    *Host
	down bool
}

func (c *cutHost) Roundtrip(req *proto.Request, rep *proto.Reply) (Cost, error) {
	if c.down {
		return Cost{}, fmt.Errorf("cut: %w", ErrEngineUnavailable)
	}
	c.h.Handle(req, rep)
	return Cost{}, nil
}

func (c *cutHost) Kind() string { return "tcp" }
func (c *cutHost) Stats() Stats { return Stats{} }
func (c *cutHost) Close() error { return nil }

// TestLinkEndsOwedBeforeSpawn: a hosted client ended while it cannot
// reach its daemon leaves the End owed by the link, and the link pays
// before the next spawn. A daemon that answers again still holding the
// engines loses them there and then; one that came back without its
// journal, handing IDs out from 1 again, refuses the old ID before it
// reuses it — so no engine spawned afresh is ever ended in an old one's
// name.
func TestLinkEndsOwedBeforeSpawn(t *testing.T) {
	old := NewHost(HostOptions{DisableJIT: true})
	wire := &cutHost{h: old}
	l := NewLink(wire, nil, nil)
	spawn := func(path string) *Client {
		t.Helper()
		c, err := l.Spawn(SpawnSpec{Path: path, Source: ctrSrc, Layout: ctrLayout}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := spawn("main.a"), spawn("main.b")
	wire.down = true
	driveRounds(l, []*Client{a, b}, 1, clkReads)
	if a.Err() == nil || b.Err() == nil {
		t.Fatal("a cut wire latched nothing")
	}
	a.End()
	b.End()
	if n := old.Engines(); n != 2 {
		t.Fatalf("daemon holds %d engines behind a cut wire, want 2", n)
	}

	wire.down = false
	c := spawn("main.c")
	if n := old.Engines(); n != 1 {
		t.Errorf("daemon that answers again holds %d engines after the next spawn, want the new one only", n)
	}

	wire.down = true
	c.GetState()
	c.End()
	fresh := NewHost(HostOptions{DisableJIT: true})
	wire.h, wire.down = fresh, false
	reborn := []*Client{spawn("main.d"), spawn("main.e"), spawn("main.f")}
	if reborn[2].id != c.id {
		t.Fatalf("test premise: the fresh daemon did not reuse engine ID %d (gave %d)", c.id, reborn[2].id)
	}
	l.Flush()
	if n := fresh.Engines(); n != 3 {
		t.Errorf("fresh daemon holds %d of the 3 engines spawned on it", n)
	}
	for _, c := range reborn {
		if c.ThereAreEvals(); c.Err() != nil {
			t.Errorf("%s: %v", c.Name(), c.Err())
		}
	}
}
