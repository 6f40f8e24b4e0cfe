package transport

import (
	"errors"
	"fmt"
	"sync"

	"cascade/internal/proto"
	"cascade/internal/toolchain"
)

// FarmLink is the client side of one compile-farm shard: it implements
// toolchain.ShardLink over the engine protocol's TCP transport, so a
// FarmBackend routes compile flows to cascade-engined daemons started
// with -compile-worker. A worker restart surfaces through the transport
// epoch latch as ErrDaemonRestarted exactly once; unlike engine state,
// a compile worker's state is a cache — safe to retry against cold —
// so the link absorbs the typed error and retries the call on the new
// epoch (worst case: a cache miss that recompiles).
type FarmLink struct {
	tcp *TCP
}

// DialFarm connects one FarmLink per address (each a compile-worker
// daemon), for FarmOptions.Links. On any dial failure the links already
// made are closed and the error names the failing worker.
func DialFarm(addrs []string, opts TCPOptions) ([]toolchain.ShardLink, error) {
	var links []toolchain.ShardLink
	for _, addr := range addrs {
		tcp, err := DialTCP(addr, opts)
		if err != nil {
			for _, l := range links {
				l.Close()
			}
			return nil, fmt.Errorf("transport: compile worker %s: %w", addr, err)
		}
		links = append(links, &FarmLink{tcp: tcp})
	}
	return links, nil
}

// call runs one farm round-trip, absorbing a single daemon-restart
// latch (see the type comment) and converting host-level errors to Go
// errors.
func (l *FarmLink) call(req *proto.Request, rep *proto.Reply) error {
	_, err := l.tcp.Roundtrip(req, rep)
	if errors.Is(err, ErrDaemonRestarted) {
		_, err = l.tcp.Roundtrip(req, rep)
	}
	if err != nil {
		return err
	}
	if rep.Err != "" {
		return fmt.Errorf("transport: compile worker %s: %s", l.tcp.Addr(), rep.Err)
	}
	return nil
}

// Submit implements toolchain.ShardLink.
func (l *FarmLink) Submit(spec toolchain.ShardSubmit) (toolchain.ShardOutcome, error) {
	req := &proto.Request{Kind: proto.KindCompileSubmit, VNow: spec.SubmitPs, Farm: &proto.FarmJob{
		Key: spec.Key, Name: spec.Name, Wrapped: spec.Wrapped,
		SubmitPs: spec.SubmitPs, BackoffPs: spec.BackoffPs,
		Cells: spec.Cells, FFs: spec.FFs, MemBits: spec.MemBits, CritPath: spec.CritPath,
	}}
	var rep proto.Reply
	if err := l.call(req, &rep); err != nil {
		return toolchain.ShardOutcome{}, err
	}
	if rep.Farm == nil {
		return toolchain.ShardOutcome{}, fmt.Errorf("transport: compile worker %s: reply missing farm payload", l.tcp.Addr())
	}
	f := rep.Farm
	return toolchain.ShardOutcome{
		AreaLEs: f.AreaLEs, RawAreaLEs: f.RawAreaLEs, CritPath: f.CritPath,
		DurationPs: f.DurationPs, CacheHit: f.CacheHit, HitSource: f.HitSource,
		FlowErr: f.FlowErr,
	}, nil
}

// Fetch asks the worker's cache for a key: the peer-fetch tier a
// worker's peerRing consults.
func (l *FarmLink) Fetch(key string) (toolchain.BitMeta, bool, error) {
	req := &proto.Request{Kind: proto.KindCacheFetch, Farm: &proto.FarmJob{Key: key}}
	var rep proto.Reply
	if err := l.call(req, &rep); err != nil {
		return toolchain.BitMeta{}, false, err
	}
	if rep.Farm == nil || !rep.Farm.Found {
		return toolchain.BitMeta{}, false, nil
	}
	return toolchain.BitMeta{Key: key, AreaLEs: rep.Farm.AreaLEs,
		RawAreaLEs: rep.Farm.RawAreaLEs, CritPath: rep.Farm.CritPath}, true, nil
}

// Publish implements toolchain.ShardLink.
func (l *FarmLink) Publish(key string) error {
	req := &proto.Request{Kind: proto.KindCachePut, Farm: &proto.FarmJob{Key: key}}
	var rep proto.Reply
	return l.call(req, &rep)
}

// Ping implements toolchain.ShardLink (the breaker's probe).
func (l *FarmLink) Ping() error {
	req := &proto.Request{Kind: proto.KindPing}
	var rep proto.Reply
	return l.call(req, &rep)
}

// Close implements toolchain.ShardLink.
func (l *FarmLink) Close() error { return l.tcp.Close() }

// peerRing is the worker-side peer-fetch tier: lazy links to sibling
// compile workers, consulted in order. Dials happen on first use and
// failures are misses — daemons start in any order, and a dead sibling
// must never fail a flow (tiers are accelerators).
type peerRing struct {
	addrs []string
	opts  TCPOptions

	mu    sync.Mutex
	links map[string]*FarmLink
}

func newPeerRing(addrs []string, opts TCPOptions) *peerRing {
	return &peerRing{addrs: addrs, opts: opts, links: map[string]*FarmLink{}}
}

func (p *peerRing) link(addr string) *FarmLink {
	p.mu.Lock()
	defer p.mu.Unlock()
	if l, ok := p.links[addr]; ok {
		return l
	}
	tcp, err := DialTCP(addr, p.opts)
	if err != nil {
		return nil
	}
	l := &FarmLink{tcp: tcp}
	p.links[addr] = l
	return l
}

// Lookup consults each sibling in order; the first verified entry wins.
func (p *peerRing) Lookup(key string) (toolchain.BitMeta, bool) {
	for _, addr := range p.addrs {
		l := p.link(addr)
		if l == nil {
			continue
		}
		meta, ok, err := l.Fetch(key)
		if err != nil {
			// Drop the link so the next lookup redials a restarted peer.
			p.mu.Lock()
			delete(p.links, addr)
			p.mu.Unlock()
			l.Close()
			continue
		}
		if ok {
			return meta, true
		}
	}
	return toolchain.BitMeta{}, false
}
