package toolchain

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/netlist"
	"cascade/internal/vclock"
)

// backHalf is one of the three doors to stack.serve: the toolchain's own
// stack, an in-process farm shard's, and a Worker's (what a remote shard
// runs). Each takes the wire form and nothing else.
type backHalf interface {
	compile(req ShardSubmit) ShardOutcome
	publish(key string)
}

type localPath struct{ tc *Toolchain }

func (p localPath) compile(req ShardSubmit) ShardOutcome {
	out, _ := p.tc.cache.serve(req, p.tc.dev, farmHooks{})
	return out
}
func (p localPath) publish(key string) { p.tc.cache.entries.publish(key) }

type shardPath struct{ tc *Toolchain }

func (p shardPath) compile(req ShardSubmit) ShardOutcome {
	r := p.tc.Farm().noteSubmit()
	if err := r.commit(req.SubmitPs, req.Key); err != nil {
		return ShardOutcome{FlowErr: err.Error()}
	}
	defer r.settle()
	out, _, err := r.compile(req, p.tc.dev)
	if err != nil {
		return ShardOutcome{FlowErr: err.Error()}
	}
	return out
}
func (p shardPath) publish(key string) { p.tc.Farm().Publish(key) }

type workerPath struct{ w *Worker }

func (p workerPath) compile(req ShardSubmit) ShardOutcome { return p.w.Compile(req) }
func (p workerPath) publish(key string)                   { p.w.Publish(key) }

// TestBackHalfPathsAgree drives one scenario list through all three
// routes and requires identical outcomes, field for field: they are one
// function behind three doors, and this is the test that keeps it so.
func TestBackHalfPathsAgree(t *testing.T) {
	stats := map[string]netlist.Stats{}
	for design, src := range map[string]string{"small": smallCounter, "big": bigDatapath, "other": farmPrograms(t, 3)[2]} {
		prog, err := netlist.Compile(flatFor(t, src))
		if err != nil {
			t.Fatal(err)
		}
		stats[design] = prog.Stats
	}
	reqFor := func(design string, submitPs, backoffPs uint64) ShardSubmit {
		req := summarize(stats[design], true)
		req.Key, req.Name = design+"|wrapped=true", "dut"
		req.SubmitPs, req.BackoffPs = submitPs, backoffPs
		return req
	}
	nativeReq := summarize(stats["small"], false)
	nativeReq.Key, nativeReq.Name, nativeReq.native = "small|tier=native", "dut", true

	const backoff = 7 * vclock.S
	const clockHz = 50_000_000
	cyclone := fpga.NewCycloneV().Capacity()
	ref := New(fpga.NewCycloneV(), DefaultOptions())
	// miss is what a flow that pays for its back half on a device of the
	// given capacity must return; hit is the same outcome cache-served.
	miss := func(req ShardSubmit, capacity int) ShardOutcome {
		out := ref.model(fpga.NewDevice(capacity, clockHz), req)
		out.DurationPs += req.BackoffPs
		return out
	}
	hit := func(req ShardSubmit, durationPs uint64, source string) ShardOutcome {
		out := miss(req, cyclone)
		out.DurationPs, out.CacheHit, out.HitSource = durationPs, true, source
		return out
	}
	// The expectations come from the model; pin what the three kinds of
	// miss must say so a model that broke everywhere at once cannot agree
	// with itself.
	coldMiss, noFit, nativeMiss := miss(reqFor("small", 0, 0), cyclone), miss(reqFor("big", 0, 0), 4), miss(nativeReq, cyclone)
	full := coldMiss.DurationPs
	hitPs := ref.hitLatency()
	if w := coldMiss; w.AreaLEs <= w.RawAreaLEs || w.RawAreaLEs == 0 || w.CritPath == 0 || w.FlowErr != "" {
		t.Fatalf("cold miss expectation is not a wrapped fabric flow: %+v", w)
	}
	if !strings.HasPrefix(noFit.FlowErr, "toolchain: design requires ") || !strings.HasSuffix(noFit.FlowErr, " LEs, device has 4") {
		t.Fatalf("no-fit expectation carries the wrong verdict: %q", noFit.FlowErr)
	}
	if w := nativeMiss; w.AreaLEs != 0 || w.DurationPs != ref.nativeLatency(w.RawAreaLEs) || w.DurationPs >= full {
		t.Fatalf("native expectation is not the native bill: %+v", w)
	}

	// A step optionally restarts the process (cold memory over the same
	// store, on a device of the given capacity), prepares the store, then
	// compiles one request.
	type step struct {
		name    string
		restart int // LEs of the fresh process's device (0: keep the process)
		prepare func(store diskTier, p backHalf)
		req     ShardSubmit
		want    ShardOutcome
		check   func(t *testing.T, store diskTier)
		// offWire marks a request no wire carries (the native tier never
		// farms out): the worker door is skipped.
		offWire bool
	}
	absent := func(key string) func(*testing.T, diskTier) {
		return func(t *testing.T, store diskTier) {
			if _, ok := store.Lookup(key, new(Stats)); ok {
				t.Errorf("%s reached the durable store", key)
			}
		}
	}
	steps := []step{
		{name: "cold miss", restart: cyclone, req: reqFor("small", 0, 0), want: coldMiss},
		{name: "join in flight", req: reqFor("small", full/2, 0),
			want: hit(reqFor("small", full/2, 0), full-full/2, HitJoined)},
		{name: "memory hit after publish", req: reqFor("small", 1, 0),
			prepare: func(_ diskTier, p backHalf) { p.publish(reqFor("small", 0, 0).Key) },
			want:    hit(reqFor("small", 1, 0), hitPs, HitMemory)},
		{name: "disk hit", restart: cyclone, req: reqFor("small", 0, 0),
			want: hit(reqFor("small", 0, 0), hitPs, HitDisk)},
		{name: "stale disk entry rejected", restart: cyclone, req: reqFor("small", 0, 0),
			prepare: func(store diskTier, _ backHalf) {
				store.Store(BitMeta{Key: reqFor("small", 0, 0).Key, AreaLEs: 1, RawAreaLEs: 1, CritPath: 1}, new(Stats))
			},
			want: coldMiss},
		{name: "no-fit error not stored", restart: 4, req: reqFor("big", 0, 0),
			want: noFit, check: absent(reqFor("big", 0, 0).Key)},
		{name: "backoff carried into a miss", restart: cyclone, req: reqFor("other", 0, backoff),
			want: miss(reqFor("other", 0, backoff), cyclone)},
		{name: "backoff carried into a hit", restart: cyclone, req: reqFor("other", 0, backoff),
			want: hit(reqFor("other", 0, backoff), hitPs+backoff, HitDisk)},
		{name: "native miss never durable", restart: cyclone, req: nativeReq, offWire: true,
			want: nativeMiss, check: absent(nativeReq.Key)},
		{name: "native memory hit", req: nativeReq, offWire: true,
			prepare: func(_ diskTier, p backHalf) { p.publish(nativeReq.Key) },
			want:    hit(nativeReq, hitPs, HitMemory)},
	}

	paths := []struct {
		name  string
		wire  bool // reached only over the wire
		start func(tc *Toolchain) backHalf
	}{
		{"local stack", false, func(tc *Toolchain) backHalf { return localPath{tc} }},
		{"farm shard", false, func(tc *Toolchain) backHalf {
			tc.UseFarm(FarmOptions{Workers: 1})
			return shardPath{tc}
		}},
		{"worker", true, func(tc *Toolchain) backHalf { return workerPath{NewWorker(tc)} }},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			store := diskTier{dir: t.TempDir()}
			var p backHalf
			for _, s := range steps {
				if s.offWire && path.wire {
					continue
				}
				if s.restart > 0 {
					p = path.start(New(fpga.NewDevice(s.restart, clockHz), diskCacheOptions(store.dir)))
				}
				if s.prepare != nil {
					s.prepare(store, p)
				}
				if got := p.compile(s.req); got != s.want {
					t.Errorf("%s:\n got  %+v\n want %+v", s.name, got, s.want)
				}
				if s.check != nil {
					s.check(t, store)
				}
			}
		})
	}
}

// TestDefaultTenantIsATenant replays one submission sequence — misses,
// a join, published hits, a cancel, disk writes, and a seeded
// compile-fault schedule — under the default tenant and under a named
// one, each on a fresh toolchain: the single-user case is N = 1 of the
// tenant path, so the ledgers and every job's ready time must agree.
func TestDefaultTenantIsATenant(t *testing.T) {
	srcs := append(farmPrograms(t, 4), smallCounter)
	run := func(tenant string) (Stats, []uint64) {
		tc := New(fpga.NewCycloneV(), diskCacheOptions(t.TempDir()))
		tc.SetTenantFaults(tenant, fault.New(fault.Config{Seed: 11, CompileTransient: 0.4, MaxCompileFaults: 3}))
		var ready []uint64
		now := uint64(0)
		for round := 0; round < 2; round++ {
			for i, src := range srcs {
				j := tc.SubmitDesign(context.Background(), tenant, NewDesign(flatFor(t, src)), true, false, now)
				if round == 0 && i == 1 {
					// Resubmit while the original is in (virtual) flight — a
					// join, once the original's flow has reached the cache —
					// and cancel the original.
					j.Wait()
					dup := tc.SubmitDesign(context.Background(), tenant, NewDesign(flatFor(t, src)), true, false, now+1)
					j.Cancel()
					j = dup
				}
				at, ok := j.ReadyAt()
				if !ok {
					t.Fatalf("tenant %q: job %d/%d cancelled", tenant, round, i)
				}
				ready = append(ready, at)
				if i%2 == 0 {
					j.Ready(at) // publish: round 1 hits outright
					now = at
				}
			}
		}
		return tc.StatsFor(tenant), ready
	}
	defStats, defReady := run("")
	t1Stats, t1Ready := run("t1")
	if defStats != t1Stats {
		t.Errorf("ledgers differ:\n  \"\":   %+v\n  \"t1\": %+v", defStats, t1Stats)
	}
	if !reflect.DeepEqual(defReady, t1Ready) {
		t.Errorf("ready times differ:\n  \"\":   %v\n  \"t1\": %v", defReady, t1Ready)
	}
	if defStats.DiskWrites == 0 || defStats.Joined == 0 || defStats.Retried == 0 || defStats.Canceled != 1 {
		t.Errorf("the sequence no longer exercises what it claims to: %+v", defStats)
	}
}

// TestTenantLedgerCountsDiskWrites: disk-store counters are the flow's,
// so they reach the submitting tenant's mirror at banking time like
// every other counter (they used to bump the default ledger straight
// from the worker goroutine, and a tenant always read 0).
func TestTenantLedgerCountsDiskWrites(t *testing.T) {
	tc := New(fpga.NewCycloneV(), diskCacheOptions(t.TempDir()))
	res := tc.SubmitDesign(context.Background(), "t1", NewDesign(flatFor(t, smallCounter)), true, false, 0).Result()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if st := tc.StatsFor("t1"); st.DiskWrites != 1 {
		t.Errorf("tenant ledger: DiskWrites = %d, want 1 (%+v)", st.DiskWrites, st)
	}
	if st := tc.Stats(); st.DiskWrites != 0 {
		t.Errorf("default ledger counted another tenant's disk write: %+v", st)
	}
}

// TestSeededSchedulesGolden pins every schedule drawn from the shared
// splitmix64/FNV-1a pair (fault.SplitMix, fault.HashString) to values
// recorded before the three private copies were folded into it: no
// seeded schedule may move. The farm row is the one exception, re-pinned
// when farm outages moved onto fault.Config.Outages: the farm's own
// generator could plan overlapping windows (two shards down at once).
func TestSeededSchedulesGolden(t *testing.T) {
	outages := fault.Config{Seed: 7}.Outages("farm", 4, 3, 64, 1, 2)
	wantOutages := []fault.Window{{Target: 1, From: 1, To: 2}, {Target: 3, From: 22, To: 24}, {Target: 3, From: 60, To: 62}}
	if !reflect.DeepEqual(outages, wantOutages) {
		t.Errorf("farm outages = %+v, want %+v", outages, wantOutages)
	}
	sched := fault.Config{Seed: 1777}.Outages("daemon", 1, 2, 100, 2, 5)
	wantChaos := []fault.Window{{From: 32, To: 35}, {From: 80, To: 84}}
	if !reflect.DeepEqual(sched, wantChaos) {
		t.Errorf("daemon outages = %+v, want %+v", sched, wantChaos)
	}
	fb := New(fpga.NewCycloneV(), DefaultOptions()).UseFarm(FarmOptions{Workers: 5})
	if order := fb.rank("cascade-golden-fingerprint"); !reflect.DeepEqual(order, []int{4, 0, 2, 1, 3}) {
		t.Errorf("rank order = %v, want [4 0 2 1 3]", order)
	}
}
