package transport

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/engine"
	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/lifecycle"
	"cascade/internal/obsv"
	"cascade/internal/persist"
	"cascade/internal/proto"
	"cascade/internal/toolchain"
	"cascade/internal/verilog"
)

// HostOptions configures an engine host.
type HostOptions struct {
	// Device is the host's own fabric (default: a fresh Cyclone V).
	// Remote engines are promoted onto it, not onto the runtime's.
	Device *fpga.Device
	// Toolchain compiles hosted subprograms (default: the standard
	// model over Device).
	Toolchain *toolchain.Toolchain
	// DisableJIT pins hosted engines to software even when a spawn
	// requests promotion.
	DisableJIT bool
	// Injector, when set, wires the host's fault surfaces (compiles,
	// bus, regions) exactly as runtime.Options.Injector does locally.
	Injector *fault.Injector
	// Observer, when set, receives the daemon-side lifecycle: spawns,
	// the host's own promotions and evictions, and (via the toolchain)
	// compile events — so cascade-engined can serve its own /metrics.
	// Events are stamped with the virtual clock the requesting runtime
	// ships in each request header.
	Observer *obsv.Observer
	// DefaultSessionQuotaLEs is the fabric region granted to a
	// session-open request that does not name a quota. Default: a
	// quarter of the host device.
	DefaultSessionQuotaLEs int
	// CompileWorker enables the compile-farm service: the daemon hosts
	// the worker side of compile flows (KindCompileSubmit and the cache
	// kinds) against its toolchain's cache stack, so remote FarmBackends
	// can shard flows onto it.
	CompileWorker bool
	// Peers lists sibling compile workers' addresses. A submission that
	// misses this worker's memory and disk tiers consults the peers
	// before paying for place-and-route — the replicated-cache fetch
	// path. Dials are lazy and failures are misses, so daemons start in
	// any order.
	Peers []string
}

// Host is the serving side of the engine protocol: the core of
// cmd/cascade-engined, and directly embeddable for loopback tests. It
// keeps a registry of hosted engines keyed by the IDs it assigns at
// spawn, executes ABI requests against them, and — when a spawn asks
// for it — JIT-promotes hosted software engines onto its own fabric in
// the background, flipping the location the reply envelopes advertise.
type Host struct {
	opts HostOptions

	// epoch is this host's boot epoch, stamped into every reply. It is
	// nonzero and differs between host instances, so a transport that
	// reconnects after a daemon restart sees the change and can refuse
	// to run against journal-resumed (stale) engine state. Wall-clock
	// derived, which is fine: hosts are outside the runtime's
	// virtual-time determinism contract, and clients react only to
	// "changed", never to the value.
	epoch uint32

	// worker is the compile-farm service (nil unless CompileWorker).
	worker *toolchain.Worker

	mu       sync.Mutex
	nextID   uint32
	nextSess uint32
	engines  map[uint32]*hosted
	sessions map[uint32]*hostSession

	// Session-resumption journal (EnableJournal). Guarded by jmu, not
	// h.mu: appends happen on serving goroutines after the registry
	// mutation they record.
	jmu       sync.Mutex
	jr        *persist.Journal
	jseq      uint64
	replaying bool
}

// hostSession is one daemon-side tenant: a region carved out of the
// host fabric for the session's lifetime, a private device of exactly
// that size its engines promote onto, and a tenant registration on the
// shared toolchain scoping compile stats, cache keys, and fair share.
// Sessions are purely spatial: opening one fails when the fabric has no
// room rather than queueing for residency.
type hostSession struct {
	id     uint32
	tenant string
	dev    *fpga.Device
}

// hosted is one engine and its host-side bookkeeping. The lifecycle
// record p holds the engine itself, its elaboration and the pending
// background promotion; its Device and Compile callback carry the
// session binding — promotions land on the owning session's region-sized
// device (the whole host fabric when sessionless) and compiles are
// scoped to the session's tenant on the shared toolchain.
type hosted struct {
	mu      sync.Mutex
	p       *lifecycle.Placement
	io      *bufIO
	now     atomic.Uint64 // $time feed, updated from request headers
	session uint32

	// A drain collects into out through keep, bound once into collect: a
	// closure handed to VisitWrites per drain would allocate.
	out     []engine.Event
	collect func(name string, val *bits.Vector)
}

// keep is the engine's drain sink. A drain reuses the slice and, where
// they have the room, the vectors of the drain before it, so the events a
// reply carries are lent: they hold until that engine's next call or
// frame, which the reply is encoded before.
func (hd *hosted) keep(name string, val *bits.Vector) {
	n := len(hd.out)
	if n < cap(hd.out) {
		hd.out = hd.out[:n+1]
	} else {
		hd.out = append(hd.out, engine.Event{})
	}
	ev := &hd.out[n]
	ev.Var = name
	ev.Val = bits.Reuse(ev.Val, val.Width())
	ev.Val.CopyFrom(val)
}

// bufIO buffers an engine's IO events for piggybacking on replies.
type bufIO struct {
	mu  sync.Mutex
	evs []proto.IOEvent
}

// Display implements engine.IOHandler.
func (b *bufIO) Display(text string, newline bool) {
	b.mu.Lock()
	b.evs = append(b.evs, proto.IOEvent{Kind: proto.IODisplay, Text: text, Newline: newline})
	b.mu.Unlock()
}

// Finish implements engine.IOHandler.
func (b *bufIO) Finish(code int) {
	b.mu.Lock()
	b.evs = append(b.evs, proto.IOEvent{Kind: proto.IOFinish, Code: code})
	b.mu.Unlock()
}

func (b *bufIO) drain() []proto.IOEvent {
	b.mu.Lock()
	evs := b.evs
	b.evs = nil
	b.mu.Unlock()
	return evs
}

// NewHost builds an engine host.
func NewHost(opts HostOptions) *Host {
	if opts.Device == nil {
		opts.Device = fpga.NewCycloneV()
	}
	if opts.Toolchain == nil {
		opts.Toolchain = toolchain.New(opts.Device, toolchain.DefaultOptions())
	}
	if opts.Injector != nil {
		opts.Toolchain.SetFaults(opts.Injector)
		opts.Device.SetFaults(opts.Injector)
	}
	if opts.Observer != nil {
		opts.Toolchain.SetObserver(opts.Observer)
		if opts.Injector != nil {
			opts.Injector.SetObserver(opts.Observer)
		}
	}
	if opts.DefaultSessionQuotaLEs <= 0 {
		opts.DefaultSessionQuotaLEs = opts.Device.Capacity() / 4
	}
	h := &Host{
		opts:     opts,
		epoch:    newEpoch(),
		engines:  map[uint32]*hosted{},
		sessions: map[uint32]*hostSession{},
	}
	if opts.CompileWorker {
		h.worker = toolchain.NewWorker(opts.Toolchain)
		if len(opts.Peers) > 0 {
			// Fetch-only: a worker never writes through to its peers, so
			// the ring cannot loop.
			h.worker.SetPeerTier(newPeerRing(opts.Peers, TCPOptions{}).Lookup)
		}
	}
	return h
}

// epochSeq breaks ties between hosts built in the same nanosecond (the
// loopback tests build several per process).
var epochSeq atomic.Uint32

// newEpoch derives a nonzero boot epoch distinct from any other host
// this process — or a quickly restarted predecessor — produced.
func newEpoch() uint32 {
	for {
		e := uint32(time.Now().UnixNano()) ^ (epochSeq.Add(1) * 0x9e3779b9)
		if e != 0 {
			return e
		}
	}
}

// Handle executes one protocol request, filling rep. Transport servers
// (and loopback tests) call it once per decoded frame; it never
// panics on hostile input — unknown engines and bad spawns surface
// through rep.Err. rep.Round's backing arrays are reused, so a serving
// loop that hands Handle the same Reply stops allocating them; the output
// events a reply carries are lent, until that engine's next call or frame.
func (h *Host) Handle(req *proto.Request, rep *proto.Reply) {
	*rep = proto.Reply{Kind: req.Kind, Engine: req.Engine, Epoch: h.epoch, Round: rep.Round[:0]}
	switch req.Kind {
	case proto.KindPing:
		// Liveness probe: answer before any engine or session lookup,
		// so the reply measures daemon reachability and nothing else.
		return
	case proto.KindSpawn:
		h.spawn(req, rep, 0)
		return
	case proto.KindSessionOpen:
		h.sessionOpen(req, rep, 0)
		return
	case proto.KindSessionClose:
		h.sessionClose(req, rep)
		return
	case proto.KindCompileSubmit, proto.KindCacheFetch, proto.KindCachePut:
		h.handleFarm(req, rep)
		return
	case proto.KindRound:
		h.round(req, rep)
		return
	}
	hd := h.lookup(req.Engine)
	if hd == nil {
		rep.Err = unknownEngine(req.Engine)
		return
	}
	hd.mu.Lock()
	defer hd.mu.Unlock()
	hd.now.Store(req.Now)
	e := hd.p.Engine()
	switch req.Kind {
	case proto.KindGetState:
		rep.State = e.GetState()
	case proto.KindSetState:
		if n := hd.p.Flat.Layout().Len(); req.State != nil && len(req.State) != n {
			rep.Err = fmt.Sprintf("state image of %d words for a layout of %d", len(req.State), n)
			return
		}
		if req.State != nil {
			e.SetState(req.State)
			h.journalReq(req, 0)
		}
	case proto.KindEnd:
		hd.p.Teardown()
		h.mu.Lock()
		delete(h.engines, req.Engine)
		h.mu.Unlock()
		h.journalReq(req, 0)
	default:
		var ok bool
		rep.Bool, rep.Events, ok = h.abi(hd, req.Kind, engine.Event{Var: req.Var, Val: req.Val}, req.VNow)
		if !ok {
			rep.Err = fmt.Sprintf("unsupported request kind %d", req.Kind)
			return
		}
	}
	// EndStep may have moved the engine to another rung; End left none,
	// and its reply describes the engine that was.
	if cur := hd.p.Engine(); cur != nil {
		e = cur
	}
	rep.Loc, rep.Usage, rep.IO = h.envelope(hd, e)
}

// lookup finds a hosted engine by the ID its spawn assigned (nil if the
// host does not hold it).
func (h *Host) lookup(id uint32) *hosted {
	h.mu.Lock()
	hd := h.engines[id]
	h.mu.Unlock()
	return hd
}

func unknownEngine(id uint32) string { return fmt.Sprintf("unknown engine %d", id) }

// abi runs one of the scheduler's seven ABI calls on a hosted engine: the
// one executor behind both framings, a per-call request and a member of
// a round. in is the delivery for a Read; the answer is a poll's flag or
// a drain's events. ok is false for any other kind. Callers hold hd.mu.
func (h *Host) abi(hd *hosted, kind proto.Kind, in engine.Event, vnow uint64) (flag bool, out []engine.Event, ok bool) {
	e := hd.p.Engine()
	switch kind {
	case proto.KindRead:
		e.Read(in)
	case proto.KindDrainWrites:
		hd.out = hd.out[:0]
		e.VisitWrites(hd.collect)
		out = hd.out
	case proto.KindThereAreEvals:
		flag = e.ThereAreEvals()
	case proto.KindEvaluate:
		e.Evaluate()
	case proto.KindThereAreUpdates:
		flag = e.ThereAreUpdates()
	case proto.KindUpdate:
		e.Update()
	case proto.KindEndStep:
		e.EndStep()
		h.serviceJIT(hd, vnow)
	default:
		return false, nil, false
	}
	return flag, out, true
}

// round serves one KindRound frame: the inputs in order, then each
// member in order — poll, run if pending, drain if run; or end-step and
// drain whichever engine the JIT service left — each through abi under
// the engine's own lock. A chained frame serves the members twice, evals
// then updates, when its evals phase ran nobody. A member or receiver the
// host does not hold answers (or is skipped) on its own; the rest are
// served.
func (h *Host) round(req *proto.Request, rep *proto.Reply) {
	for i := range req.Inputs {
		in := &req.Inputs[i]
		if hd := h.lookup(in.Engine); hd != nil {
			hd.mu.Lock()
			hd.now.Store(req.Now)
			h.abi(hd, proto.KindRead, engine.Event{Var: in.Var, Val: in.Val}, req.VNow)
			hd.mu.Unlock()
		}
	}
	if req.Phase != proto.RoundChained {
		h.serve(req, rep, req.Phase)
	} else if !h.serve(req, rep, proto.RoundEvals) {
		h.serve(req, rep, proto.RoundUpdates)
	}
}

// serve appends phase ph's result for each member of a round to
// rep.Round, and reports whether it ran any. An end-step phase ends
// behind a member that had outputs to drain (an engine the step boundary
// swapped announces all of them): they may be inputs of the members after
// it, which must see them before their own end-step, as they do when
// every call is its own frame.
func (h *Host) serve(req *proto.Request, rep *proto.Reply, ph proto.RoundPhase) (ran bool) {
	var none engine.Event
	poll, run := proto.KindThereAreEvals, proto.KindEvaluate
	if ph == proto.RoundUpdates {
		poll, run = proto.KindThereAreUpdates, proto.KindUpdate
	}
	for _, id := range req.Members {
		k := len(rep.Round)
		if k < cap(rep.Round) {
			rep.Round = rep.Round[:k+1]
		} else {
			rep.Round = append(rep.Round, proto.RoundResult{})
		}
		res := &rep.Round[k]
		*res = proto.RoundResult{}
		hd := h.lookup(id)
		if hd == nil {
			res.Err = unknownEngine(id)
			continue
		}
		hd.mu.Lock()
		hd.now.Store(req.Now)
		switch ph {
		case proto.RoundEvals, proto.RoundUpdates:
			if res.Ran, _, _ = h.abi(hd, poll, none, req.VNow); res.Ran {
				h.abi(hd, run, none, req.VNow)
				_, res.Events, _ = h.abi(hd, proto.KindDrainWrites, none, req.VNow)
				ran = true
			}
		case proto.RoundEndStep:
			h.abi(hd, proto.KindEndStep, none, req.VNow)
			_, res.Events, _ = h.abi(hd, proto.KindDrainWrites, none, req.VNow)
		}
		res.Loc, res.Usage, res.IO = h.envelope(hd, hd.p.Engine())
		hd.mu.Unlock()
		if ph == proto.RoundEndStep && len(res.Events) > 0 {
			return ran
		}
	}
	return ran
}

// envelope is what every answer about an engine carries: its location,
// its metered work since the last answer, its buffered IO.
func (h *Host) envelope(hd *hosted, e engine.Engine) (loc engine.Location, usage engine.Usage, io []proto.IOEvent) {
	if ur, ok := e.(engine.UsageReporter); ok {
		usage = ur.UsageDelta()
	}
	return e.Loc(), usage, hd.io.drain()
}

// spawn parses and elaborates the shipped source, builds a software
// engine, and (when requested) submits its background compilation.
// forced, when non-zero, pins the assigned engine ID (journal replay
// re-creating an engine under the ID the original client holds).
func (h *Host) spawn(req *proto.Request, rep *proto.Reply, forced uint32) {
	mods, items, errs := verilog.ParseProgramFragment(req.Source)
	if len(errs) > 0 {
		rep.Err = fmt.Sprintf("parse spawn source: %v", errs[0])
		return
	}
	if len(mods) != 1 || len(items) != 0 {
		rep.Err = fmt.Sprintf("spawn source must be exactly one module declaration (got %d modules, %d items)",
			len(mods), len(items))
		return
	}
	flat, err := elab.Elaborate(mods[0], req.Path, req.Params)
	if err != nil {
		rep.Err = fmt.Sprintf("elaborate %s: %v", req.Path, err)
		return
	}
	hd := &hosted{io: &bufIO{}, session: req.Session}
	hd.collect = hd.keep
	dev, tenant := h.opts.Device, ""
	if req.Session != 0 {
		h.mu.Lock()
		sess := h.sessions[req.Session]
		h.mu.Unlock()
		if sess == nil {
			rep.Err = fmt.Sprintf("%v %d", ErrUnknownSession, req.Session)
			return
		}
		dev, tenant = sess.dev, sess.tenant
	}
	hd.now.Store(req.Now)
	jit := req.JIT && !h.opts.DisableJIT
	hd.p = lifecycle.New(lifecycle.Config{
		Path:   req.Path,
		Flat:   flat,
		IO:     hd.io,
		Now:    func() uint64 { return hd.now.Load() },
		Eager:  req.Eager,
		Device: dev,
		// The host offers the fabric, to a spawn that asked for promotion;
		// it has no native tier.
		Compile: func(d *toolchain.Design, t lifecycle.Tier, vnow uint64) *toolchain.Job {
			if !jit || t != lifecycle.Fabric {
				return nil
			}
			return h.opts.Toolchain.SubmitDesign(context.Background(), tenant, d, true, false, vnow)
		},
		// The runtime side saw a rebuilt engine's initial-block output
		// when the engine first spawned.
		Discard: func(*lifecycle.Placement) { hd.io.drain() },
	})
	h.settle(hd.p, hd.p.Start(lifecycle.Interpreter, nil), req.VNow)
	h.mu.Lock()
	var id uint32
	if forced != 0 {
		id = forced
		if id > h.nextID {
			h.nextID = id
		}
	} else {
		h.nextID++
		id = h.nextID
	}
	h.engines[id] = hd
	h.mu.Unlock()
	h.opts.Observer.EmitAt(req.VNow, obsv.EvSpawn, req.Path,
		fmt.Sprintf("hosted engine %d jit=%v", id, jit))
	rep.Engine = id
	h.journalReq(req, id)
	rep.Loc, rep.Usage, rep.IO = h.envelope(hd, hd.p.Engine())
}

// sessionOpen carves a tenant session out of the host: a fabric region
// of the requested quota (held for the session's lifetime), a private
// device of that size its engines promote onto, and a toolchain tenant
// registration scoping compile stats, cache namespace, and fair share.
// forced, when non-zero, pins the session ID (journal replay).
func (h *Host) sessionOpen(req *proto.Request, rep *proto.Reply, forced uint32) {
	quota := int(req.Quota)
	if quota <= 0 {
		quota = h.opts.DefaultSessionQuotaLEs
	}
	// Name, region and registration are taken under one hold of h.mu (and
	// given up under one, in sessionClose): Device.Place replaces a
	// same-named region, so two opens racing past the name check would
	// share one region, and closing either release it under the other.
	h.mu.Lock()
	var id uint32
	if forced != 0 {
		id = forced
		if id > h.nextSess {
			h.nextSess = id
		}
	} else {
		h.nextSess++
		id = h.nextSess
	}
	tenant := req.Path
	if tenant == "" {
		tenant = fmt.Sprintf("s%d", id)
	}
	for _, s := range h.sessions {
		if s.tenant == tenant {
			h.mu.Unlock()
			rep.Err = fmt.Sprintf("session name %q already open", tenant)
			return
		}
	}
	if err := h.opts.Device.Place("session:"+tenant, quota); err != nil {
		h.mu.Unlock()
		rep.Err = fmt.Sprintf("open session %s: %v", tenant, err)
		return
	}
	sess := &hostSession{id: id, tenant: tenant,
		dev: fpga.NewDevice(quota, h.opts.Device.ClockHz())}
	h.opts.Toolchain.RegisterTenant(tenant, int(req.Share), sess.dev)
	h.sessions[id] = sess
	h.mu.Unlock()
	h.opts.Observer.EmitAt(req.VNow, obsv.EvSpawn, tenant,
		fmt.Sprintf("session %d open quota=%dLEs share=%d", id, quota, req.Share))
	rep.Engine = id
	h.journalReq(req, id)
}

// sessionClose tears a session down: ends every engine it owns,
// releases its fabric region, and unregisters its toolchain tenant.
func (h *Host) sessionClose(req *proto.Request, rep *proto.Reply) {
	h.mu.Lock()
	sess := h.sessions[req.Session]
	if sess == nil {
		h.mu.Unlock()
		rep.Err = fmt.Sprintf("%v %d", ErrUnknownSession, req.Session)
		return
	}
	delete(h.sessions, req.Session)
	var owned []*hosted
	for id, hd := range h.engines {
		if hd.session == req.Session {
			owned = append(owned, hd)
			delete(h.engines, id)
		}
	}
	h.opts.Device.Release("session:" + sess.tenant)
	h.opts.Toolchain.UnregisterTenant(sess.tenant) // submitted jobs keep their snapshot of it
	h.mu.Unlock()
	for _, hd := range owned {
		hd.mu.Lock()
		hd.p.Teardown()
		hd.mu.Unlock()
	}
	h.opts.Observer.EmitAt(req.VNow, obsv.EvSpawn, sess.tenant,
		fmt.Sprintf("session %d closed (%d engines ended)", sess.id, len(owned)))
	h.journalReq(req, 0)
}

// handleFarm serves the compile-farm kinds against the daemon's worker
// service. A daemon not started as a compile worker answers every farm
// kind with a reply-level error (the client's breaker treats it like
// any shard failure).
func (h *Host) handleFarm(req *proto.Request, rep *proto.Reply) {
	if h.worker == nil {
		rep.Err = "daemon is not a compile worker (start cascade-engined with -compile-worker)"
		return
	}
	f := req.Farm
	if f == nil {
		rep.Err = "farm request missing payload"
		return
	}
	switch req.Kind {
	case proto.KindCompileSubmit:
		h.opts.Observer.EmitAt(req.VNow, obsv.EvCompileSubmit, f.Name,
			fmt.Sprintf("farm worker flow wrapped=%v", f.Wrapped))
		out := h.worker.Compile(toolchain.ShardSubmit{
			Key: f.Key, Name: f.Name, Wrapped: f.Wrapped,
			SubmitPs: f.SubmitPs, BackoffPs: f.BackoffPs,
			Cells: f.Cells, FFs: f.FFs, MemBits: f.MemBits, CritPath: f.CritPath,
		})
		rep.Farm = &proto.FarmResult{
			AreaLEs: out.AreaLEs, RawAreaLEs: out.RawAreaLEs, CritPath: out.CritPath,
			DurationPs: out.DurationPs, CacheHit: out.CacheHit, HitSource: out.HitSource,
			FlowErr: out.FlowErr,
		}
	case proto.KindCacheFetch:
		meta, ok := h.worker.Fetch(f.Key)
		rep.Farm = &proto.FarmResult{Found: ok, AreaLEs: meta.AreaLEs,
			RawAreaLEs: meta.RawAreaLEs, CritPath: meta.CritPath}
	case proto.KindCachePut:
		h.worker.Publish(f.Key)
		rep.Farm = &proto.FarmResult{}
	}
}

// Sessions returns the number of currently open sessions.
func (h *Host) Sessions() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.sessions)
}

// hostJournalRequest is the single journal record kind: the payload is
// a proto-encoded Request, with the host-assigned ID stuffed into the
// Engine field for spawn/session-open so replay can pin it.
const hostJournalRequest byte = 1

// EnableJournal arms session resumption: registry-mutating requests
// (session-open/close, spawn, set-state, end) are journaled via
// internal/persist, and any records already in the file are replayed
// first — sessions re-open their fabric regions and tenants, engines
// respawn from their journaled source under the *same* IDs the
// original clients hold, and the last journaled state reinstalls. A
// client that reconnects after the daemon was SIGKILLed therefore
// re-binds to live engines instead of erroring with "unknown engine";
// state written since the last SetState is re-seeded by the client's
// supervisor on re-host rather than recovered here.
//
// Call it once, before serving. It returns the number of sessions and
// engines resumed from the journal.
func (h *Host) EnableJournal(path string) (sessions, engines int, err error) {
	jr, recs, err := persist.OpenJournal(path)
	if err != nil {
		return 0, 0, err
	}
	h.replaying = true
	for _, rec := range recs {
		if rec.Kind != hostJournalRequest {
			continue
		}
		req, derr := proto.DecodeRequest(rec.Data)
		if derr != nil {
			continue // a record from an older protocol: skip, keep going
		}
		h.replayReq(req)
	}
	h.replaying = false
	h.jmu.Lock()
	h.jr = jr
	h.jseq = jr.LastSeq()
	h.jmu.Unlock()
	return h.Sessions(), h.Engines(), nil
}

// CloseJournal syncs and closes the journal EnableJournal opened (a no-op
// without one); registry mutations after it are not journaled.
func (h *Host) CloseJournal() error {
	h.jmu.Lock()
	defer h.jmu.Unlock()
	if h.jr == nil {
		return nil
	}
	err := h.jr.Close()
	h.jr = nil
	return err
}

// replayReq re-executes one journaled request against the fresh
// registry. Replies are discarded: a record that no longer applies
// (e.g. the fabric shrank) is skipped, never fatal.
func (h *Host) replayReq(req *proto.Request) {
	var rep proto.Reply
	switch req.Kind {
	case proto.KindSpawn:
		rep = proto.Reply{Kind: req.Kind}
		h.spawn(req, &rep, req.Engine)
	case proto.KindSessionOpen:
		rep = proto.Reply{Kind: req.Kind}
		h.sessionOpen(req, &rep, req.Engine)
	case proto.KindSetState, proto.KindEnd, proto.KindSessionClose:
		h.Handle(req, &rep)
	}
}

// journalReq appends one registry-mutating request to the journal (if
// armed). assigned, when non-zero, replaces req.Engine in the record
// so replay can pin the host-assigned ID.
func (h *Host) journalReq(req *proto.Request, assigned uint32) {
	h.jmu.Lock()
	defer h.jmu.Unlock()
	if h.jr == nil || h.replaying {
		return
	}
	jc := *req
	if assigned != 0 {
		jc.Engine = assigned
	}
	h.jseq++
	if err := h.jr.Append(h.jseq, hostJournalRequest, proto.EncodeRequest(nil, &jc)); err != nil {
		return
	}
	h.jr.Sync()
}

// serviceJIT runs the host-side slice of the Figure-9 state machine for
// one engine at a step boundary, through its lifecycle record: evict a
// faulted hardware engine back to software, or promote a finished
// compilation onto the host's fabric. A compile that failed or found no
// fabric room leaves the engine in software — a hosted engine never kills
// the run. Callers hold hd.mu.
func (h *Host) serviceJIT(hd *hosted, vnow uint64) {
	if hd.p.Fault() != nil {
		h.settle(hd.p, hd.p.Demote(lifecycle.FaultLatched, nil), vnow)
	} else if tr, ok := hd.p.Promote(lifecycle.Fabric, vnow); ok {
		h.settle(hd.p, tr, vnow)
	}
}

// settle is the one place the host applies what a serviced transition
// counts, reports and leaves owed — the runtime's settle without a clock:
// the requesting runtime bills a move's bus traffic from the Usage its
// reply envelope carries, so the fabric engine's meter is left undrained
// here. The compiles the record says a move (or a shed, or a transient
// programming fault) leaves owed are submitted at the request's virtual
// time; a permanent error is reported once.
func (h *Host) settle(p *lifecycle.Placement, tr lifecycle.Transition, vnow uint64) {
	o := h.opts.Observer
	recovery := ""
	switch {
	case tr.Cause == lifecycle.Shed:
		recovery = "compile shed under load: resubmitted"
	case tr.Cause == lifecycle.TransientFault:
		recovery = "transient programming fault: compile resubmitted"
	case tr.Err != nil:
		o.EmitAt(vnow, obsv.EvFault, p.Path, tr.Err.Error())
	case tr.Cause == lifecycle.FaultLatched && o != nil:
		o.EmitAt(vnow, obsv.EvEviction, p.Path, fmt.Sprintf("host hw->sw: %v", tr.Fault))
		o.Evictions.Inc()
	case tr.Cause == lifecycle.JobLanded && o != nil:
		o.EmitAt(vnow, obsv.EvHotSwap, p.Path, fmt.Sprintf("host sw->hw area=%dLEs", tr.Result.AreaLEs))
		o.Promotions.Inc()
	}
	for _, t := range tr.Owed {
		if p.Submit(t, vnow) && recovery != "" {
			o.EmitAt(vnow, obsv.EvRecovery, p.Path, recovery)
		}
	}
}

// Engines returns the number of currently hosted engines.
func (h *Host) Engines() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.engines)
}

// ServeListener accepts connections until the listener closes, serving
// each on its own goroutine. All connections share the host's engine
// registry, so a runtime that reconnects finds its engines intact.
func (h *Host) ServeListener(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go h.ServeConn(conn)
	}
}

// ServeConn runs the frame loop on one connection: read a request
// frame, execute it, write the reply frame. It returns when the peer
// disconnects or sends bytes that do not decode (a desynchronized
// stream cannot be re-synchronized, so the connection drops and the
// client's retry path redials).
func (h *Host) ServeConn(conn net.Conn) {
	defer conn.Close()
	// One buffered reader for the connection's life: a frame's length and
	// payload normally arrive in one read. The request and reply are
	// reused too, for the arrays their round fields keep.
	br := bufio.NewReader(conn)
	var rbuf, wbuf []byte
	var req proto.Request
	var rep proto.Reply
	for {
		payload, err := proto.ReadFrame(br, rbuf)
		if err != nil {
			return
		}
		rbuf = payload[:cap(payload)]
		if err := proto.DecodeRequestInto(payload, &req); err != nil {
			return
		}
		h.Handle(&req, &rep)
		if wbuf, err = proto.AppendFrame(wbuf[:0], proto.EncodeReply, &rep); err != nil {
			return
		}
		if _, err := conn.Write(wbuf); err != nil {
			return
		}
	}
}
