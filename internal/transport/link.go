package transport

import (
	"fmt"
	"sync"

	"cascade/internal/engine"
	"cascade/internal/proto"
)

// Link makes the scheduler's round, not the ABI call, the unit that
// crosses the wire to one daemon. The clients spawned on it share it:
// a Read on one of them is queued instead of sent, and Round sends one
// proto.KindRound frame — the queue, then poll, evaluate-or-update and
// drain (or end-step and drain) for every member in schedule order —
// and hands each member its share of the reply exactly as a lone call
// would have: IO replayed on the calling goroutine, location flip
// traced, metered work into the client's pending usage.
//
// Ordering contract. Per engine, the daemon sees what it saw when every
// call was its own frame: queued inputs travel at the head of the next
// frame, and a lone call on any client of the link (GetState, SetState,
// End, a drain outside a round) flushes the queue first. What a frame
// moves is when the *answer* to a Read — the work it cost the receiver —
// comes back: with the next frame's reply rather than at once. The
// caller that settles costs by batch therefore flushes before it settles
// a batch a receiver is in (Client.Queued) and before it settles a step:
// a batch's makespan is not additive, so work that arrives a batch late
// is billed differently, not just later.
//
// Billing. The virtual clock keeps pricing one message per ABI call —
// the paper's unit; the frame is this transport's artefact — counted per
// call carried: a poll 1, an evaluate or update 1 and its drain 1 when
// the engine ran, an end-step 1 and its drain 1, a Read 1 when it is
// queued, and 1 per retried frame. An inputs-only frame bills nothing.
// The frame's transport cost (one round trip, its bytes, drops, retries)
// is booked to the clients it carried, so their counters still sum to
// the connection's.
//
// Ends owed. A member that cannot reach the daemon when it is ended
// leaves its engine's ID here, and Flush — so every lone call, a spawn
// included — first ends the engines owed, while the daemon answers. What
// it still holds of them is thus gone before anything new is spawned
// there, and an ID it hands out afresh (a daemon restarted without its
// journal starts over at 1) is never ended for an old engine's sake.
// Nothing is billed — no client is left to bill, as for the engines
// CloseSession ends — and a refusal settles the debt like an answer.
//
// A link is driven by one goroutine at a time (the runtime's controller);
// the mutex is the happens-before edge between drivers, as the clients'
// own is.
type Link struct {
	t      Transport
	nowFn  func() uint64
	vnowFn func() uint64

	mu      sync.Mutex
	owed    []uint32           // engines whose End could not be delivered
	inputs  []proto.RoundInput // queued Reads; values copied when queued
	rcv     []*Client          // their distinct receivers, in first-queued order
	carried []*Client          // the members of the frame in flight
	req     proto.Request
	rep     proto.Reply // a round's results, lent to its members until the next round
	ack     proto.Reply // an inputs-only frame's, so a flush disturbs no lent drain
}

// NewLink returns a link to the daemon behind t. now feeds $time and vnow
// the host's JIT clock on every frame and on the lone calls of the
// clients spawned on it; either may be nil.
func NewLink(t Transport, now, vnow func() uint64) *Link {
	return &Link{t: t, nowFn: now, vnowFn: vnow}
}

// Spawn is transport.Spawn for a client that shares the link's rounds.
func (l *Link) Spawn(spec SpawnSpec, io engine.IOHandler, onErr func(error)) (*Client, error) {
	return spawn(l.t, l, spec, io, l.nowFn, l.vnowFn, onErr)
}

// Link returns the link a hosted client was spawned on, nil for a lone
// or in-process one.
func (c *Client) Link() *Link { return c.link }

// Queued reports whether inputs for this engine wait on its link's queue.
func (c *Client) Queued() bool { return c.queued }

// Ran reports whether the link's last evals or updates round ran this
// engine (its outputs then wait in VisitWrites).
func (c *Client) Ran() bool { return c.ran }

// queue is Read on a hosted client. The value is only lent
// (engine.Engine.Read), so it is copied, into the slot's previous vector
// when the widths agree.
func (l *Link) queue(c *Client, ev engine.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c.mu.Lock()
	inert := c.err != nil
	if !inert {
		c.pending.Msgs++ // the Read, billed when queued
	}
	c.mu.Unlock()
	if inert {
		return
	}
	if !c.queued {
		c.queued = true
		l.rcv = append(l.rcv, c)
	}
	n := len(l.inputs)
	if n < cap(l.inputs) {
		l.inputs = l.inputs[:n+1]
	} else {
		l.inputs = append(l.inputs, proto.RoundInput{})
	}
	in := &l.inputs[n]
	in.Engine, in.Var = c.id, ev.Var
	if in.Val != nil && in.Val.Width() == ev.Val.Width() {
		in.Val.CopyFrom(ev.Val)
	} else {
		in.Val = ev.Val.Clone()
	}
}

// owe records that engine id is still to be ended on the daemon.
func (l *Link) owe(id uint32) {
	l.mu.Lock()
	l.owed = append(l.owed, id)
	l.mu.Unlock()
}

// Flush delivers the ends owed, for as long as the daemon answers, then
// the queued inputs, in a frame of their own whose reply carries the
// receivers' metered work. No-op when there are neither.
func (l *Link) Flush() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.owed) > 0 {
		req := proto.Request{Kind: proto.KindEnd, Engine: l.owed[0]}
		stamp(&req, l.nowFn, l.vnowFn)
		if _, err := l.t.Roundtrip(&req, &l.ack); err != nil {
			break
		}
		l.owed = l.owed[1:]
	}
	if len(l.inputs) > 0 {
		l.send(proto.RoundInputs, l.rcv, &l.ack)
	}
}

// Round sends one frame: the queued inputs, then phase ph for members in
// order. Latched members are left out; they stay inert. It returns how
// many leading members the frame is done with: all of them, except that
// an end-step frame stops behind a member whose end-step left outputs
// to drain (proto.RoundEndStep) — the caller routes those and sends the
// rest their own frame.
func (l *Link) Round(ph proto.RoundPhase, members []*Client) (done int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range members {
		c.ran, c.drained = false, false
	}
	return l.send(ph, members, &l.rep)
}

// send is one frame, request to distribution. Callers hold l.mu.
func (l *Link) send(ph proto.RoundPhase, members []*Client, rep *proto.Reply) (done int) {
	l.req = proto.Request{Kind: proto.KindRound, Phase: ph,
		Inputs: l.inputs, Members: l.req.Members[:0]}
	stamp(&l.req, l.nowFn, l.vnowFn)
	l.carried = l.carried[:0]
	for _, c := range members {
		if c.Err() == nil {
			l.carried = append(l.carried, c)
			l.req.Members = append(l.req.Members, c.id)
		}
	}
	for _, c := range l.rcv {
		c.queued = false
	}
	l.rcv, l.inputs = l.rcv[:0], l.inputs[:0]
	if len(l.carried) == 0 {
		return len(members) // everyone latched: whatever was queued has no receiver
	}

	cost, err := l.t.Roundtrip(&l.req, rep)
	served := l.carried
	if err == nil {
		switch got := len(rep.Round); {
		case rep.Err != "":
			err = lostError("round", rep.Err)
		case got == len(served):
		case got > 0 && got < len(served) && ph == proto.RoundEndStep:
			served = served[:got] // the frame stopped behind a member with outputs
		default:
			err = lostError("round", fmt.Sprintf("%d results for %d members", got, len(served)))
		}
	}
	done = len(members)
	if len(served) < len(l.carried) {
		for done = 0; members[done] != l.carried[len(served)]; done++ {
		}
	}
	n := uint64(len(served))
	for k, c := range served {
		// The frame's cost, split without loss: bytes evenly, and what
		// cannot be split — the round trip, a drop, a retry, the odd
		// bytes — to the first member.
		share := Cost{BytesOut: cost.BytesOut / n, BytesIn: cost.BytesIn / n}
		frames := uint64(0)
		if k == 0 {
			share.BytesOut += cost.BytesOut % n
			share.BytesIn += cost.BytesIn % n
			share.Drops, share.Retries = cost.Drops, cost.Retries
			frames = 1
		}
		c.mu.Lock()
		c.book(frames, share)
		if err != nil {
			c.fail(err)
		} else {
			c.pending.Msgs += share.Retries
			c.take(ph, &rep.Round[k], l.req.VNow)
		}
		c.mu.Unlock()
	}
	return done
}

// take is a member's share of a round reply. Callers hold c.mu.
func (c *Client) take(ph proto.RoundPhase, res *proto.RoundResult, vnow uint64) {
	if res.Err != "" {
		c.fail(lostError(c.name, res.Err))
		return
	}
	c.absorb(res.Loc, res.Usage, res.IO, vnow)
	switch ph {
	case proto.RoundEvals, proto.RoundUpdates:
		c.pending.Msgs++ // the poll
		if res.Ran {
			c.pending.Msgs += 2 // the evaluate or update, and its drain
		}
		c.ran, c.drained, c.drain = res.Ran, res.Ran, res.Events
	case proto.RoundEndStep:
		c.pending.Msgs += 2 // the end-step and its drain
		c.drained, c.drain = true, res.Events
	}
}
