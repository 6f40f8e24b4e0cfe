package toolchain

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"cascade/internal/chaos"
	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/netlist"
	"cascade/internal/vclock"
)

// backHalf is one of the three routes a request takes to stack.serve:
// the toolchain's own stack, an in-process farm shard's, and a Worker's
// (what a remote shard runs over the shipped netlist summary).
type backHalf interface {
	compile(req ShardSubmit, prog *netlist.Program) *Result
	publish(key string)
}

type localPath struct{ tc *Toolchain }

func (p localPath) compile(req ShardSubmit, prog *netlist.Program) *Result {
	res, _ := p.tc.cache.serve(req, func() *Result { return p.tc.finishOn(p.tc.dev, prog, req.Wrapped) }, farmHooks{})
	return res
}
func (p localPath) publish(key string) { p.tc.cache.entries.publish(key) }

type shardPath struct{ tc *Toolchain }

func (p shardPath) compile(req ShardSubmit, prog *netlist.Program) *Result {
	r := p.tc.Farm().noteSubmit()
	if err := r.commit(req.SubmitPs, prog.Fingerprint()); err != nil {
		return &Result{Err: err}
	}
	defer r.settle()
	res, _, err := r.compile(req, prog, func() *Result { return p.tc.finishOn(p.tc.dev, prog, req.Wrapped) })
	if err != nil {
		return &Result{Err: err}
	}
	return res
}
func (p shardPath) publish(key string) { p.tc.Farm().Publish(key) }

type workerPath struct{ w *Worker }

func (p workerPath) compile(req ShardSubmit, _ *netlist.Program) *Result {
	out := p.w.Compile(req)
	res := &Result{DurationPs: out.DurationPs, CacheHit: out.CacheHit, HitSource: out.HitSource}
	if out.FlowErr != "" {
		res.Err = errors.New(out.FlowErr)
	}
	return res
}
func (p workerPath) publish(key string) { p.w.Put(BitMeta{Key: key}, true) }

// TestBackHalfPathsAgree drives one scenario list through all three
// routes and requires identical rows: they are one function behind three
// doors, and this is the test that keeps it so.
func TestBackHalfPathsAgree(t *testing.T) {
	progFor := func(src string) *netlist.Program {
		prog, err := netlist.Compile(flatFor(t, src))
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	small, big, other := progFor(smallCounter), progFor(bigDatapath), progFor(farmPrograms(t, 3)[2])
	reqFor := func(prog *netlist.Program, submitPs, backoffPs uint64) ShardSubmit {
		st := prog.Stats
		return ShardSubmit{
			Key: prog.Fingerprint() + "|wrapped=true", Name: "dut", Wrapped: true,
			SubmitPs: submitPs, BackoffPs: backoffPs,
			Cells: st.Cells, FFs: st.FFs, MemBits: st.MemBits, CritPath: st.CritPath,
		}
	}
	ref := New(fpga.NewCycloneV(), DefaultOptions())
	full := ref.finishOn(ref.dev, small, true).DurationPs
	hitPs := ref.hitLatency()
	const backoff = 7 * vclock.S

	type row struct {
		DurationPs uint64
		CacheHit   bool
		HitSource  string
		Failed     bool
	}
	// A step optionally restarts the process (cold memory over the same
	// store, on a device of the given capacity), prepares the store, then
	// compiles one request.
	type step struct {
		name    string
		restart int // LEs of the fresh process's device (0: keep the process)
		prepare func(store diskTier, p backHalf)
		prog    *netlist.Program
		req     ShardSubmit
		want    row
		check   func(t *testing.T, store diskTier)
	}
	cyclone := fpga.NewCycloneV().Capacity()
	steps := []step{
		{name: "cold miss", restart: cyclone, prog: small, req: reqFor(small, 0, 0),
			want: row{DurationPs: full}},
		{name: "join in flight", prog: small, req: reqFor(small, full/2, 0),
			want: row{DurationPs: full - full/2, CacheHit: true, HitSource: HitJoined}},
		{name: "memory hit after publish", prog: small, req: reqFor(small, 1, 0),
			prepare: func(_ diskTier, p backHalf) { p.publish(reqFor(small, 0, 0).Key) },
			want:    row{DurationPs: hitPs, CacheHit: true, HitSource: HitMemory}},
		{name: "disk hit", restart: cyclone, prog: small, req: reqFor(small, 0, 0),
			want: row{DurationPs: hitPs, CacheHit: true, HitSource: HitDisk}},
		{name: "stale disk entry rejected", restart: cyclone, prog: small, req: reqFor(small, 0, 0),
			prepare: func(store diskTier, _ backHalf) {
				store.Store(BitMeta{Key: reqFor(small, 0, 0).Key, AreaLEs: 1, RawAreaLEs: 1, CritPath: 1}, new(Stats))
			},
			want: row{DurationPs: full}},
		{name: "no-fit error not stored", restart: 4, prog: big, req: reqFor(big, 0, 0),
			want: row{DurationPs: ref.finishOn(ref.dev, big, true).DurationPs, Failed: true},
			check: func(t *testing.T, store diskTier) {
				if _, ok := store.Lookup(reqFor(big, 0, 0).Key, new(Stats)); ok {
					t.Error("a failed fit reached the durable store")
				}
			}},
		{name: "backoff carried into a miss", restart: cyclone, prog: other, req: reqFor(other, 0, backoff),
			want: row{DurationPs: ref.finishOn(ref.dev, other, true).DurationPs + backoff}},
		{name: "backoff carried into a hit", restart: cyclone, prog: other, req: reqFor(other, 0, backoff),
			want: row{DurationPs: hitPs + backoff, CacheHit: true, HitSource: HitDisk}},
	}

	paths := []struct {
		name  string
		start func(tc *Toolchain) backHalf
	}{
		{"local stack", func(tc *Toolchain) backHalf { return localPath{tc} }},
		{"farm shard", func(tc *Toolchain) backHalf {
			tc.UseFarm(FarmOptions{Workers: 1})
			return shardPath{tc}
		}},
		{"worker", func(tc *Toolchain) backHalf { return workerPath{NewWorker(tc)} }},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			store := diskTier{dir: t.TempDir()}
			var p backHalf
			for _, s := range steps {
				if s.restart > 0 {
					p = path.start(New(fpga.NewDevice(s.restart, 50_000_000), diskCacheOptions(store.dir)))
				}
				if s.prepare != nil {
					s.prepare(store, p)
				}
				res := p.compile(s.req, s.prog)
				got := row{res.DurationPs, res.CacheHit, res.HitSource, res.Err != nil}
				if got != s.want {
					t.Errorf("%s: got %+v, want %+v", s.name, got, s.want)
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
				j := tc.SubmitTenant(context.Background(), tenant, flatFor(t, src), true, now)
				if round == 0 && i == 1 {
					// Resubmit while the original is in (virtual) flight — a
					// join, once the original's flow has reached the cache —
					// and cancel the original.
					j.Wait()
					dup := tc.SubmitTenant(context.Background(), tenant, flatFor(t, src), true, now+1)
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
	res := tc.SubmitTenant(context.Background(), "t1", flatFor(t, smallCounter), true, 0).Result()
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
// seeded schedule may move.
func TestSeededSchedulesGolden(t *testing.T) {
	outages := SeededOutages(7, 4, 64, 3)
	wantOutages := []ShardOutage{{3, 0, 7}, {2, 28, 31}, {0, 51, 56}}
	if !reflect.DeepEqual(outages, wantOutages) {
		t.Errorf("SeededOutages(7,4,64,3) = %+v, want %+v", outages, wantOutages)
	}
	sched := chaos.Config{Seed: 1777, Steps: 100, DaemonOutages: 2, MinDownSteps: 2, MaxDownSteps: 5}.Schedule()
	wantChaos := []chaos.Outage{{KillAtStep: 32, RestartAtStep: 35}, {KillAtStep: 80, RestartAtStep: 84}}
	if !reflect.DeepEqual(sched.Outages, wantChaos) {
		t.Errorf("chaos schedule = %+v, want %+v", sched.Outages, wantChaos)
	}
	fb := New(fpga.NewCycloneV(), DefaultOptions()).UseFarm(FarmOptions{Workers: 5})
	if order := fb.rank("cascade-golden-fingerprint"); !reflect.DeepEqual(order, []int{4, 0, 2, 1, 3}) {
		t.Errorf("rank order = %v, want [4 0 2 1 3]", order)
	}
}
