package toolchain

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"cascade/internal/elab"
	"cascade/internal/fault"
	"cascade/internal/netlist"
	"cascade/internal/obsv"
	"cascade/internal/vclock"
)

// Design is the front half of every flow over one elaborated design: its
// netlist, fingerprint and synthesis error, computed by whichever flow
// asks first and shared by the rest (the program is read-only once
// synthesized). The record belongs to its submitter — a
// lifecycle.Placement keeps one — and to nothing else: neither the Flat
// nor the toolchain points at it.
//
// A design may start from a base: the program of the design it replaces
// (NewDesignFrom), which synthesis relocates unchanged units out of
// (netlist.CompileFrom). The base is a program, never a design, and the
// record drops it once it has synthesized, so a record keeps at most one
// earlier program alive — and none once its own netlist exists — and no
// chain of versions builds up behind a long session.
type Design struct {
	Flat *elab.Flat

	base atomic.Pointer[netlist.Program] // relocation source until synthesized
	done atomic.Pointer[netlist.Program] // the netlist, once synthesized

	once        sync.Once
	prog        *netlist.Program
	fingerprint string
	err         error
}

// NewDesign opens the record for f; nothing is synthesized until a flow
// needs the netlist.
func NewDesign(f *elab.Flat) *Design { return NewDesignFrom(nil, f) }

// NewDesignFrom opens the record for f, the successor of prev (nil:
// none): its synthesis starts from prev's netlist if prev has one by now,
// else from the base prev itself would have started from. It never waits
// for prev's synthesis.
func NewDesignFrom(prev *Design, f *elab.Flat) *Design {
	d := &Design{Flat: f}
	if prev != nil {
		base := prev.done.Load()
		if base == nil {
			base = prev.base.Load()
		}
		d.base.Store(base)
	}
	return d
}

// synthesize returns the design's netlist and fingerprint, running
// synthesis the first time it is asked. It takes no worker slot and no
// lock.
func (d *Design) synthesize() (*netlist.Program, string, error) {
	d.once.Do(func() {
		if d.prog, d.err = netlist.CompileFrom(d.base.Swap(nil), d.Flat); d.err == nil {
			d.fingerprint = d.prog.Fingerprint()
			d.done.Store(d.prog)
		}
	})
	return d.prog, d.fingerprint, d.err
}

// Job is a background compilation tracked in virtual time.
type Job struct {
	t        *Toolchain
	tn       *tenant    // the scope the flow runs under
	route    *farmRoute // the farm's routing state (nil: the flow is served locally)
	name     string     // subprogram path, for trace events
	native   bool       // native-tier flow (closure-threaded Go, not a bitstream)
	submitPs uint64
	done     chan struct{}

	// canceled is written under mu and read without it (Canceled). Once
	// observed is set the flow has ended and been banked, so res and
	// readyAtPs are fixed: Ready before the ready time takes no lock.
	canceled atomic.Bool
	observed atomic.Bool

	mu        sync.Mutex
	settled   bool // left the in-flight count (admission control)
	tracked   bool // counted into Toolchain.inflight at submit
	res       *Result
	readyAtPs uint64
	pubKey    string // cache key to publish on first observed readiness ("" means none)
	abort     context.CancelFunc

	// flow holds the counters of the flow itself (synthesis, fault
	// retries, cache outcome). The flow runs on a worker whenever the
	// host gets to it, so its counters stay here until a point the
	// owner's timeline orders, and are banked into the stats mirror
	// then: when the owner first observes the flow's end (Wait, ReadyAt,
	// Result, Ready), or, for a job cancelled before that — whose flow
	// still completes to the cache — when the owner next observes any of
	// its jobs. Stats read between two such points never depend on how
	// far the workers got.
	flow   Stats
	banked bool
}

// count records one of the flow's counters (see Job.flow).
func (j *Job) count(fn func(*Stats)) {
	j.mu.Lock()
	fn(&j.flow)
	j.mu.Unlock()
}

// observe blocks until the flow has ended and banks its counters, after
// those of every job of the same owner cancelled before this point.
func (j *Job) observe() {
	<-j.done
	for _, d := range j.tn.takeDiscarded() {
		<-d.done
		d.bank()
	}
	j.bank()
	j.observed.Store(true)
}

// bank adds the ended flow's counters to the stats mirror, once.
func (j *Job) bank() {
	j.mu.Lock()
	flow, banked := j.flow, j.banked
	j.banked = true
	j.mu.Unlock()
	if !banked {
		j.tn.bank(flow)
	}
}

// run executes the flow: the front half under the job's tenant record,
// then the back half on the cache stack that serves it.
func (j *Job) run(ctx context.Context, d *Design, wrapped bool) {
	defer close(j.done)
	defer j.abort() // release the derived context once the flow ends
	t := j.t
	// A context dead before any work was attempted aborts the job
	// deterministically. After this point the flow runs to completion
	// even if the owner Cancels it: whether the worker goroutine had
	// started when the cancel landed is a wall-clock race, and letting
	// that race decide the Synthesized/CacheMisses counters (or whether
	// the bitstream reaches the cache) would make otherwise-identical
	// runs diverge. Cancellation discards the subscription, not the flow.
	if ctx.Err() != nil {
		j.route.skip()
		j.markCanceled()
		return
	}

	// Farm jobs synthesize before taking a worker slot: the router needs
	// the netlist fingerprint, and route decisions commit strictly in
	// submission order (the farm turnstile) — an ordered commit must
	// never wait behind a later submission's worker slot, or the
	// turnstile deadlocks (Design.synthesize waits for neither a slot nor
	// a lock). Local jobs keep the classic order (slot, faults,
	// synthesis) untouched.
	var prog *netlist.Program
	var fingerprint string // the farm's routing hash and the cache key's content address
	if j.route != nil {
		var err error
		prog, fingerprint, err = j.synth(d)
		if err != nil {
			j.route.skip()
			j.complete(&Result{Err: err, DurationPs: t.opts.BasePs / 4}, "")
			return
		}
		if err := j.route.commit(j.submitPs, fingerprint); err != nil {
			// Every shard queue at its bound (ErrOverloaded) or every
			// shard down (ErrShardUnavailable): shed the submission like
			// admission control does — instant in virtual terms, callers
			// back off and resubmit.
			j.count(func(s *Stats) { s.Shed++ })
			j.complete(&Result{Err: err, DurationPs: t.hitLatency()}, "")
			return
		}
	}

	// Wait for the tenant's fair-share slot, then a global worker; a
	// context cancelled while queued aborts the job before any work is
	// done.
	tsem, ok := j.tn.acquire(ctx)
	if !ok {
		j.markCanceled()
		return
	}
	defer j.tn.release(tsem)

	// Consult the fault schedule for this attempt. Transient faults are
	// retried with capped exponential backoff accumulated in *virtual*
	// time (the flow's wall-clock is already virtual; retries just make
	// the job ready later); permanent faults fail the job once and are
	// never re-queued. The backoff accrued by a flaky flow is carried
	// into the result's duration, cache hit or not. The schedule is the
	// submitting tenant's own — another tenant's injector never fires
	// here.
	// The native tier never consults the compile-fault schedule: the
	// flow is an in-process translation pass with no license server or
	// vendor toolchain to flake. Its fault surface is at runtime instead
	// (region faults against the compiled code cache, which the runtime
	// answers with a native -> interpreter demotion).
	var backoff uint64
	for attempt := 0; !j.native; attempt++ {
		err := j.tn.snapshot().faults.Compile(d.Flat.Name)
		if err == nil {
			break
		}
		if fault.IsTransient(err) && attempt < t.opts.MaxRetries {
			backoff += t.backoffPs(attempt)
			j.count(func(s *Stats) {
				s.Retried++
				s.TransientFaults++
			})
			continue
		}
		transient := fault.IsTransient(err)
		j.count(func(s *Stats) {
			if transient {
				s.TransientFaults++
			} else {
				s.PermanentFaults++
			}
		})
		j.complete(&Result{
			Err:        fmt.Errorf("toolchain: flow failed: %w", err),
			DurationPs: backoff + t.opts.BasePs/4,
		}, "")
		return
	}

	if prog == nil {
		var err error
		prog, fingerprint, err = j.synth(d)
		if err != nil {
			j.complete(&Result{Err: err, DurationPs: backoff + t.opts.BasePs/4}, "")
			return
		}
	}
	req := summarize(prog.Stats, wrapped)
	req.Key = j.tn.cacheKey(fmt.Sprintf("%s|wrapped=%v", fingerprint, wrapped))
	req.Name, req.SubmitPs, req.BackoffPs = j.name, j.submitPs, backoff
	if j.native {
		req.Key = j.tn.cacheKey(fingerprint + "|tier=native")
		req.native = true
	}
	dev := j.tn.snapshot().dev

	var out ShardOutcome
	var flow Stats
	if j.route != nil {
		var err error
		if out, flow, err = j.route.compile(req, dev); err != nil {
			// The farm itself failed the request (no shard reachable) —
			// not a verdict on the design. Complete with the typed error
			// so the caller's JIT loop backs off and resubmits once shards
			// reopen.
			j.complete(&Result{Err: err, DurationPs: backoff + t.hitLatency()}, "")
			return
		}
	} else {
		out, flow = t.cache.serve(req, dev, farmHooks{})
	}
	j.count(func(s *Stats) { s.add(flow) })
	j.traceOutcome(out.HitSource)
	j.complete(out.result(prog, req), req.Key)
}

// traceOutcome traces a served flow's cache outcome to the tenant's
// observability hub, attributing the hit source. The cache series move
// when the flow is banked (tenant.bank).
func (j *Job) traceOutcome(hitSource string) {
	obs := j.tn.snapshot().obs
	if obs == nil {
		return
	}
	kind, detail := obsv.EvCacheHit, "memory"
	switch hitSource {
	case HitJoined:
		detail = "joined in-flight flow"
	case HitDisk:
		detail = "disk store"
	case HitPeer:
		detail = "peer cache"
	case "":
		kind, detail = obsv.EvCacheMiss, "place-and-route"
		if j.native {
			detail = "native codegen"
		}
	}
	obs.EmitAt(j.submitPs, kind, j.name, detail)
}

// synth counts the flow as one that consumed a netlist, whichever flow of
// the design its record synthesizes for.
func (j *Job) synth(d *Design) (*netlist.Program, string, error) {
	j.count(func(s *Stats) { s.Synthesized++ })
	return d.synthesize()
}

// markCanceled marks the job cancelled. The stats counter
// increments exactly once per job, on the first transition — whether the
// worker noticed the abort or the owner called Cancel first is a
// wall-clock race, and racy accounting would make otherwise-identical
// sessions diverge in :stats.
func (j *Job) markCanceled() {
	j.mu.Lock()
	already, banked := j.canceled.Swap(true), j.banked
	j.mu.Unlock()
	if already {
		return
	}
	j.tn.bank(Stats{Canceled: 1})
	if !banked {
		j.tn.discard(j)
	}
	j.settle()
}

// settle removes the job from the in-flight count, exactly once. A job
// settles when its owner observes it ready on the virtual clock or
// cancels it — the moments the submission stops occupying the bounded
// queue admission control meters. On a farm the settle also frees the
// job's slot in its shard's bounded queue, stamped into the farm's
// event order so later route decisions observe it deterministically.
func (j *Job) settle() {
	j.mu.Lock()
	already := j.settled
	j.settled = true
	tracked := j.tracked
	j.mu.Unlock()
	if already {
		return
	}
	j.route.settle()
	if !tracked {
		return
	}
	j.t.mu.Lock()
	if j.t.inflight > 0 {
		j.t.inflight--
	}
	j.t.mu.Unlock()
}

func (j *Job) complete(res *Result, pubKey string) {
	j.mu.Lock()
	j.res = res
	j.readyAtPs = j.submitPs + res.DurationPs
	j.pubKey = pubKey
	readyAt := j.readyAtPs
	j.mu.Unlock()
	if o := j.tn.snapshot().obs; o != nil {
		// The histogram records exactly the virtual duration the flow
		// bills (TestObserverRecordsBilledLatency pins the two together);
		// the completion event is stamped at the flow's virtual finish.
		o.CompileLatency.Observe(res.DurationPs)
		switch {
		case res.Err != nil:
			o.EmitAt(readyAt, obsv.EvCompileFailed, j.name, res.Err.Error())
		case res.NativeGo:
			o.EmitAt(readyAt, obsv.EvBitstreamReady, j.name,
				fmt.Sprintf("tier=native virtual=%.3fs cacheHit=%v", float64(res.DurationPs)/float64(vclock.S), res.CacheHit))
		default:
			o.EmitAt(readyAt, obsv.EvBitstreamReady, j.name,
				fmt.Sprintf("area=%dLEs virtual=%.3fs cacheHit=%v", res.AreaLEs, float64(res.DurationPs)/float64(vclock.S), res.CacheHit))
		}
	}
}

// Cancel marks the job obsolete: its result will never be reported
// ready. The flow itself still runs to completion in the background and
// its bitstream reaches the cache — cancellation drops the
// subscription, not the artifact. (Aborting the worker here would race
// its startup: whether the flow had begun when the cancel landed is
// wall-clock scheduling, and the stats counters and cache warmth must
// not depend on it. Abandoning queued work promptly is what the submit
// context is for.)
func (j *Job) Cancel() {
	j.markCanceled()
}

// Wait blocks until the job has left the worker pool (compiled,
// cancelled, or failed).
func (j *Job) Wait() { j.observe() }

// Canceled reports whether the job was cancelled.
func (j *Job) Canceled() bool { return j.canceled.Load() }

// ReadyAt blocks until the flow's duration is known and returns the
// virtual time at which the job finishes; ok is false for cancelled
// jobs.
func (j *Job) ReadyAt() (ps uint64, ok bool) {
	j.observe()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.canceled.Load() || j.res == nil {
		return 0, false
	}
	return j.readyAtPs, true
}

// Result blocks until the job completes and returns its result (nil for
// cancelled jobs).
func (j *Job) Result() *Result {
	j.observe()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.canceled.Load() {
		return nil
	}
	return j.res
}

// Ready reports whether the job has finished by virtual time nowPs. It
// blocks until the flow's virtual duration is known — the design's one
// synthesis and hash, which the first Step after an eval waits out — so
// that readiness depends only on virtual time: the JIT timeline stays
// deterministic no matter how fast the host steps. For an eval's design
// synthesized from its predecessor's netlist that wait is mostly the
// link's copy of the program: the hash reads each unit's cached digest,
// not its code (netlist.Program.Fingerprint). The first time a job is observed ready its bitstream is
// published: from then on identical submissions hit the cache outright,
// on any clock (the mechanism behind restoring a Snapshot onto a
// same-shape device without re-running place-and-route).
//
// Asked again before the ready time (or once cancelled), it answers from
// the first observation without a lock — unless the owner has cancelled
// jobs whose counters this observation must bank, exactly where it
// always did.
func (j *Job) Ready(nowPs uint64) bool {
	if j.observed.Load() && (j.canceled.Load() || nowPs < j.readyAtPs) && !j.tn.owed.Load() {
		return false
	}
	j.observe()
	j.mu.Lock()
	if j.canceled.Load() || j.res == nil || nowPs < j.readyAtPs {
		j.mu.Unlock()
		return false
	}
	pubKey := j.pubKey
	j.mu.Unlock()
	switch {
	case pubKey == "":
	case j.route != nil:
		j.route.fb.Publish(pubKey)
	default:
		j.t.cache.entries.publish(pubKey)
	}
	j.settle()
	return true
}
