package transport

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cascade/internal/engine"
	"cascade/internal/engine/sweng"
	"cascade/internal/fpga"
	"cascade/internal/imagetest"
	"cascade/internal/proto"
	"cascade/internal/toolchain"
)

// kindCount wraps a transport and counts the frames it carries by kind.
type kindCount struct {
	Transport
	frames map[proto.Kind]int
}

func (k *kindCount) Roundtrip(req *proto.Request, rep *proto.Reply) (Cost, error) {
	k.frames[req.Kind]++
	return k.Transport.Roundtrip(req, rep)
}

// driveSteps runs the scheduler's step of Figure 6 against one engine,
// call by call — evaluate to a fixed point, one update batch, again until
// neither has work, end the step; outputs drained after everything that
// ran — and returns the drained data-plane trace.
func driveSteps(e engine.Engine, ticks int) string {
	var sb strings.Builder
	for i := 0; i < 2*ticks; i++ {
		collect := func() {
			for _, ev := range engine.Collect(e) {
				fmt.Fprintf(&sb, "%d:%s=%s;", i, ev.Var, ev.Val)
			}
		}
		e.Read(engine.Event{Var: "clk", Val: boolVec(uint64(i % 2))})
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
// them. It returns each client's trace.
func driveRounds(l *Link, cs []*Client, ticks int) []string {
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
			c.Read(engine.Event{Var: "clk", Val: boolVec(uint64(i % 2))})
		}
		for {
			if l.Round(proto.RoundEvals, cs); ran() {
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
	traceBare := driveSteps(bare, ticks)
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
	if got := driveSteps(lone, ticks); got != traceBare {
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
	traces := driveRounds(l, cs, ticks)
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
	// A step of this counter is 5 rounds and an end-step, however many
	// engines share them; call by call it was ~11 frames per engine.
	if n := counted.frames[proto.KindRound]; n == 0 || n > 2*ticks*7 {
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
	traces := driveRounds(l, []*Client{a, b}, 3)
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
	driveRounds(l, []*Client{a, b}, 1)
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
