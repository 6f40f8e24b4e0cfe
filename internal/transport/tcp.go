package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"cascade/internal/fault"
	"cascade/internal/obsv"
	"cascade/internal/proto"
)

// TCPOptions tunes a TCP transport.
type TCPOptions struct {
	// DialTimeout bounds each connection attempt (default 3s).
	DialTimeout time.Duration
	// CallTimeout bounds each round-trip, send to reply (default 10s).
	CallTimeout time.Duration
	// Retries is how many additional attempts a failed round-trip gets
	// before the error is surfaced (default 2). Each retry reconnects.
	Retries int
	// ProbeTimeout bounds the liveness ping sent on every reconnect
	// (default 1s, clamped to CallTimeout). A dial can succeed against
	// a dead peer — the kernel completes the handshake and then the
	// socket just never answers — so each fresh connection is probed
	// under this short deadline before the real request is resent;
	// without it one dead socket costs a full CallTimeout per retry.
	ProbeTimeout time.Duration
	// Injector, when set, is consulted once per attempt: an injected
	// drop loses the frame before transmission (deterministically, so
	// fault runs replay) and counts against the attempt budget.
	Injector *fault.Injector
	// Observer, when set, records wall-clock round-trip latency and
	// drop/retry/error counters, and traces round-trips that fail after
	// the retry budget. Nil costs nothing.
	Observer *obsv.Observer
}

func (o *TCPOptions) fill() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 3 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 10 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = time.Second
	}
	if o.ProbeTimeout > o.CallTimeout {
		o.ProbeTimeout = o.CallTimeout
	}
}

// TCP is a framed connection to a remote engine daemon. One TCP
// transport multiplexes every engine the runtime hosts at that address;
// round-trips are serialized on the connection (the protocol is
// strictly request/reply), mirroring the serialized memory-mapped bus
// the virtual-time model bills.
type TCP struct {
	addr string
	opts TCPOptions
	site string // fault-injection site name

	mu   sync.Mutex // serializes round-trips on the connection
	conn net.Conn
	br   *bufio.Reader // over conn, made and dropped with it: one read per frame
	wbuf []byte
	rbuf []byte
	// epoch latches the first nonzero boot epoch seen in a reply. A
	// later reply carrying a different epoch means the daemon restarted
	// between round-trips; the call fails with ErrDaemonRestarted (and
	// the latch moves to the new epoch, so post-failover probes reach
	// the reborn daemon cleanly). Guarded by mu.
	epoch uint32

	stMu    sync.Mutex
	statsSn Stats // cumulative counters, guarded by stMu for concurrent Stats()
	// drops and retries are statsSn's Drops and Retries, each counted
	// with its /metrics series; guarded by stMu.
	drops, retries obsv.Tally
}

// DialTCP connects to a remote engine daemon. The initial dial is
// eager so a bad address fails fast; later disconnects redial lazily.
func DialTCP(addr string, opts TCPOptions) (*TCP, error) {
	opts.fill()
	t := &TCP{addr: addr, opts: opts, site: "tcp:" + addr}
	if o := opts.Observer; o != nil {
		t.drops.Series, t.retries.Series = o.TransportDrops, o.TransportRetry
	}
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	t.setConn(conn)
	return t, nil
}

// setConn adopts a connection (nil drops the current one) together with
// its buffered reader, so no byte buffered from one connection is ever
// read as another's. Callers hold t.mu or own t exclusively.
func (t *TCP) setConn(conn net.Conn) {
	t.conn, t.br = conn, nil
	if conn != nil {
		t.br = bufio.NewReader(conn)
	}
}

// Kind implements Transport.
func (t *TCP) Kind() string { return "tcp" }

// Addr returns the daemon address.
func (t *TCP) Addr() string { return t.addr }

// Stats implements Transport.
func (t *TCP) Stats() Stats {
	t.stMu.Lock()
	defer t.stMu.Unlock()
	st := t.statsSn
	st.Drops, st.Retries = t.drops.N, t.retries.N
	return st
}

// Close implements Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.conn != nil {
		err := t.conn.Close()
		t.setConn(nil)
		return err
	}
	return nil
}

// Roundtrip implements Transport: encode, frame, send, await the reply
// frame, decode. Failed attempts (injected drops, IO errors, decode
// errors) reconnect and retry until the budget runs out.
func (t *TCP) Roundtrip(req *proto.Request, rep *proto.Reply) (Cost, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	obs := t.opts.Observer
	var rttStart time.Time
	if obs != nil {
		rttStart = obs.WallNow()
	}
	var cost Cost
	var lastErr error
	for attempt := 0; attempt <= t.opts.Retries; attempt++ {
		if attempt > 0 {
			cost.Retries++
		}
		if err := t.opts.Injector.Net(t.site); err != nil {
			// The frame is dropped before it leaves the host: nothing
			// reached the daemon, so resending cannot duplicate side
			// effects. The connection itself is fine.
			cost.Drops++
			lastErr = err
			continue
		}
		c, err := t.attempt(req, rep, &cost)
		if err == nil {
			// The per-call deadline must not outlive the call: the conn is
			// shared and long-lived, and an armed deadline from this
			// round-trip would fire mid-write on the next one after an
			// idle gap longer than CallTimeout (TestTCPDeadlineClearedAfterIdle).
			if derr := c.SetDeadline(time.Time{}); derr != nil {
				// The call itself succeeded; a failed disarm means the
				// conn is going bad — drop it so the next call redials.
				c.Close()
				t.setConn(nil)
			}
			t.settle(cost, true)
			if obs != nil {
				if ns := obs.WallNow().Sub(rttStart).Nanoseconds(); ns > 0 {
					obs.TransportRTT.Observe(uint64(ns))
				} else {
					obs.TransportRTT.Observe(0) // pinned test clock
				}
			}
			return cost, nil
		}
		lastErr = err
		if c != nil {
			c.Close()
		}
		t.setConn(nil) // force redial on the next attempt
		if errors.Is(err, ErrDaemonRestarted) {
			// Fail fast, never retry: the latch already moved to the new
			// epoch, so a retry WOULD succeed — against journal-resumed
			// state missing everything since the last snapshot. Surfacing
			// the typed error is the whole point; the supervisor fails
			// over from its committed state instead.
			break
		}
	}
	t.settle(cost, false)
	err := fmt.Errorf("transport: %s: round-trip failed after %d attempts: %w: %w",
		t.addr, t.opts.Retries+1, ErrEngineUnavailable, lastErr)
	if obs != nil {
		obs.TransportErrors.Inc()
		// Stamped with the caller's virtual clock from the request
		// header (0 for un-clocked callers); Roundtrip runs on worker
		// goroutines, so Emit is off-limits.
		obs.EmitAt(req.VNow, obsv.EvTransportError, t.site, err.Error())
	}
	return cost, err
}

// attempt performs one send/receive on the current (or a fresh)
// connection, accounting bytes into cost.
func (t *TCP) attempt(req *proto.Request, rep *proto.Reply, cost *Cost) (net.Conn, error) {
	if t.conn == nil {
		conn, err := net.DialTimeout("tcp", t.addr, t.opts.DialTimeout)
		if err != nil {
			return nil, err
		}
		// A successful dial proves nothing about the peer: the kernel
		// completes the handshake even if the daemon died an instant
		// later (a half-open socket). Ping it under the short probe
		// deadline before spending a full CallTimeout on the real
		// request — a dead reconnect now fails at probe cost.
		t.setConn(conn)
		if err := t.probe(conn, req.VNow, cost); err != nil {
			conn.Close()
			t.setConn(nil)
			return nil, err
		}
	}
	c := t.conn
	deadline := time.Now().Add(t.opts.CallTimeout)
	if err := c.SetDeadline(deadline); err != nil {
		return c, err
	}
	if err := t.writeFrame(c, req, cost); err != nil {
		return c, err
	}
	return c, t.readReply(rep, cost)
}

// probe sends one KindPing round-trip on a freshly dialed connection
// under ProbeTimeout. Probe traffic counts into cost's byte totals
// (it is real wire traffic) but carries no engine payload.
func (t *TCP) probe(c net.Conn, vnow uint64, cost *Cost) error {
	if err := c.SetDeadline(time.Now().Add(t.opts.ProbeTimeout)); err != nil {
		return err
	}
	ping := proto.Request{Kind: proto.KindPing, VNow: vnow}
	if err := t.writeFrame(c, &ping, cost); err != nil {
		return fmt.Errorf("reconnect probe: %w", err)
	}
	var pong proto.Reply
	if err := t.readReply(&pong, cost); err != nil {
		return fmt.Errorf("reconnect probe: %w", err)
	}
	return nil
}

// writeFrame encodes req and writes it as one length-prefixed frame.
func (t *TCP) writeFrame(c net.Conn, req *proto.Request, cost *Cost) error {
	var err error
	if t.wbuf, err = proto.AppendFrame(t.wbuf[:0], proto.EncodeRequest, req); err != nil {
		return err
	}
	if _, err := c.Write(t.wbuf); err != nil {
		return err
	}
	cost.BytesOut += uint64(len(t.wbuf))
	return nil
}

// readReply reads one reply frame off the current connection and decodes
// it into rep.
func (t *TCP) readReply(rep *proto.Reply, cost *Cost) error {
	buf, err := proto.ReadFrame(t.br, t.rbuf)
	if err != nil {
		return err
	}
	t.rbuf = buf[:cap(buf)]
	cost.BytesIn += uint64(len(buf) + 4)
	if err := proto.DecodeReply(buf, rep); err != nil {
		return err
	}
	return t.checkEpoch(rep.Epoch)
}

// checkEpoch latches the host's boot epoch and detects restarts. Every
// decoded reply passes through here — probe pongs included, so a
// restart is caught on the very first frame after a reconnect.
func (t *TCP) checkEpoch(e uint32) error {
	if e == 0 || e == t.epoch {
		return nil
	}
	if t.epoch == 0 {
		t.epoch = e
		return nil
	}
	prev := t.epoch
	t.epoch = e
	return fmt.Errorf("boot epoch changed %d -> %d: %w", prev, e, ErrDaemonRestarted)
}

// settle folds one call's cost into the cumulative stats snapshot.
func (t *TCP) settle(cost Cost, ok bool) {
	t.stMu.Lock()
	defer t.stMu.Unlock()
	if ok {
		t.statsSn.RoundTrips++
	}
	t.statsSn.BytesOut += cost.BytesOut
	t.statsSn.BytesIn += cost.BytesIn
	t.drops.Add(cost.Drops)
	t.retries.Add(cost.Retries)
}
