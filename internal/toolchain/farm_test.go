package toolchain

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/vclock"
)

// farmPrograms returns n structurally distinct flats (distinct
// fingerprints, so each routes independently).
func farmPrograms(t *testing.T, n int) []string {
	t.Helper()
	var srcs []string
	for i := 0; i < n; i++ {
		srcs = append(srcs, fmt.Sprintf(`
module M(input wire clk, output reg [%d:0] q);
  always @(posedge clk) q <= q + %d;
endmodule`, 7+i%4, i+1))
	}
	return srcs
}

func TestFarmMatchesLocalBackend(t *testing.T) {
	srcs := farmPrograms(t, 6)
	type outcome struct {
		dur  uint64
		area int
		hit  bool
		err  bool
	}
	run := func(farm bool) []outcome {
		tc := New(fpga.NewCycloneV(), DefaultOptions())
		if farm {
			tc.UseFarm(FarmOptions{Workers: 3})
		}
		var out []outcome
		now := uint64(0)
		for _, src := range srcs {
			j := tc.Submit(context.Background(), flatFor(t, src), false, now)
			res := j.Result()
			out = append(out, outcome{dur: res.DurationPs, area: res.AreaLEs, hit: res.CacheHit, err: res.Err != nil})
			ready, _ := j.ReadyAt()
			j.Ready(ready)
			now = ready
		}
		// Resubmit the first program: published, must hit on both paths.
		j := tc.Submit(context.Background(), flatFor(t, srcs[0]), false, now)
		res := j.Result()
		out = append(out, outcome{dur: res.DurationPs, area: res.AreaLEs, hit: res.CacheHit, err: res.Err != nil})
		return out
	}
	local, farm := run(false), run(true)
	for i := range local {
		if local[i] != farm[i] {
			t.Fatalf("job %d diverged: local=%+v farm=%+v", i, local[i], farm[i])
		}
	}
	if !farm[len(farm)-1].hit {
		t.Fatal("resubmission should hit the cache")
	}
}

func TestFarmRoutingIsDeterministic(t *testing.T) {
	srcs := farmPrograms(t, 8)
	route := func() []int {
		tc := New(fpga.NewCycloneV(), DefaultOptions())
		fb := tc.UseFarm(FarmOptions{Workers: 4})
		var shards []int
		for _, src := range srcs {
			j := tc.Submit(context.Background(), flatFor(t, src), false, 0)
			j.Wait()
			shards = append(shards, j.route.shard)
		}
		_ = fb
		return shards
	}
	a, b := route(), route()
	spread := map[int]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("routing diverged at job %d: %d vs %d", i, a[i], b[i])
		}
		spread[a[i]] = true
	}
	if len(spread) < 2 {
		t.Fatalf("8 distinct fingerprints should spread over >1 of 4 shards, got %v", a)
	}
}

func TestFarmStealsFromFullHomeAndShedsWhenSaturated(t *testing.T) {
	tc := New(fpga.NewCycloneV(), DefaultOptions())
	tc.UseFarm(FarmOptions{Workers: 2, QueueDepth: 2})
	src := farmPrograms(t, 1)[0]
	// Five submissions of one fingerprint, none observed ready: the home
	// queue (depth 2) fills, two land on the idle shard by steal, and the
	// fifth finds every queue at its bound and is shed.
	var jobs []*Job
	for i := 0; i < 5; i++ {
		jobs = append(jobs, tc.Submit(context.Background(), flatFor(t, src), false, 0))
	}
	for _, j := range jobs {
		j.Wait()
	}
	st, ok := tc.FarmStats()
	if !ok {
		t.Fatal("farm stats missing")
	}
	if st.Stolen != 2 || st.Shed != 1 {
		t.Fatalf("want 2 steals + 1 shed, got %+v", st)
	}
	last := jobs[4].Result()
	if last.Err == nil || !errors.Is(last.Err, ErrOverloaded) {
		t.Fatalf("saturated farm should shed with ErrOverloaded, got %v", last.Err)
	}
	if last.DurationPs != tc.hitLatency() {
		t.Fatalf("shed should be instant in virtual terms: %d", last.DurationPs)
	}
}

func TestFarmOutageReroutesThenServesFromPeer(t *testing.T) {
	src := farmPrograms(t, 1)[0]
	// Find the fingerprint's preferred home with a throwaway farm.
	probe := New(fpga.NewCycloneV(), DefaultOptions())
	pfb := probe.UseFarm(FarmOptions{Workers: 2})
	pj := probe.Submit(context.Background(), flatFor(t, src), false, 0)
	pj.Wait()
	home := pj.route.shard
	_ = pfb

	tc := New(fpga.NewCycloneV(), DefaultOptions())
	tc.UseFarm(FarmOptions{Workers: 2, Outages: []fault.Window{{Target: home, From: 0, To: 1}}})
	// Route 0: home down, job reroutes to the replica shard and builds
	// there.
	j1 := tc.Submit(context.Background(), flatFor(t, src), false, 0)
	ready, ok := j1.ReadyAt()
	if !ok || !j1.Ready(ready) {
		t.Fatal("first job should complete")
	}
	// Route 1: home restarts cold; the resubmission routes home, misses
	// its empty memory tier, and is served from the peer's cache.
	j2 := tc.Submit(context.Background(), flatFor(t, src), false, ready)
	res := j2.Result()
	if res.Err != nil || !res.CacheHit || res.HitSource != HitPeer {
		t.Fatalf("want a peer-cache hit, got err=%v hit=%v src=%q", res.Err, res.CacheHit, res.HitSource)
	}
	if res.DurationPs != tc.hitLatency() {
		t.Fatalf("peer hit should bill one cache-hit latency, got %d", res.DurationPs)
	}
	st, _ := tc.FarmStats()
	if st.Rerouted != 1 || st.PeerHits != 1 {
		t.Fatalf("want 1 reroute + 1 peer hit, got %+v", st)
	}
	if tc.Stats().PeerHits != 1 {
		t.Fatalf("tenant stats should bank the peer hit: %+v", tc.Stats())
	}
}

func TestFarmReplicationSurvivesHomeDeath(t *testing.T) {
	src := farmPrograms(t, 1)[0]
	probe := New(fpga.NewCycloneV(), DefaultOptions())
	probe.UseFarm(FarmOptions{Workers: 3})
	pj := probe.Submit(context.Background(), flatFor(t, src), false, 0)
	pj.Wait()
	home := pj.route.shard

	tc := New(fpga.NewCycloneV(), DefaultOptions())
	// Build (route 0) with every shard alive — the bitstream lands on the
	// home plus one replica — then kill the home for the resubmission.
	tc.UseFarm(FarmOptions{Workers: 3, Replicas: 2,
		Outages: []fault.Window{{Target: home, From: 1, To: 2}}})
	j1 := tc.Submit(context.Background(), flatFor(t, src), false, 0)
	ready, _ := j1.ReadyAt()
	if !j1.Ready(ready) {
		t.Fatal("first job should publish")
	}
	j2 := tc.Submit(context.Background(), flatFor(t, src), false, ready)
	res := j2.Result()
	if res.Err != nil || !res.CacheHit {
		t.Fatalf("replica should serve the published bitstream: err=%v hit=%v", res.Err, res.CacheHit)
	}
	if res.DurationPs != tc.hitLatency() {
		t.Fatalf("published replica hit bills one cache-hit latency, got %d", res.DurationPs)
	}
	st, _ := tc.FarmStats()
	if st.Rerouted != 1 {
		t.Fatalf("dead home should count one reroute: %+v", st)
	}
}

func TestFarmAllShardsDownIsTypedUnavailable(t *testing.T) {
	tc := New(fpga.NewCycloneV(), DefaultOptions())
	tc.UseFarm(FarmOptions{Workers: 2, Outages: []fault.Window{
		{Target: 0, From: 0, To: 1},
		{Target: 1, From: 0, To: 1},
	}})
	j := tc.Submit(context.Background(), flatFor(t, farmPrograms(t, 1)[0]), false, 0)
	res := j.Result()
	if res.Err == nil || !errors.Is(res.Err, ErrShardUnavailable) {
		t.Fatalf("want ErrShardUnavailable, got %v", res.Err)
	}
	st, _ := tc.FarmStats()
	if st.Unavailable != 1 {
		t.Fatalf("want 1 unavailable, got %+v", st)
	}
}

func TestFarmSerialAndParallelSubmissionsAgree(t *testing.T) {
	srcs := farmPrograms(t, 8)
	type outcome struct {
		dur  uint64
		area int
		err  bool
	}
	serial := func() []outcome {
		tc := New(fpga.NewCycloneV(), DefaultOptions())
		tc.UseFarm(FarmOptions{Workers: 4})
		var out []outcome
		for _, src := range srcs {
			j := tc.Submit(context.Background(), flatFor(t, src), false, 0)
			res := j.Result()
			out = append(out, outcome{res.DurationPs, res.AreaLEs, res.Err != nil})
		}
		return out
	}()
	parallel := func() []outcome {
		tc := New(fpga.NewCycloneV(), DefaultOptions())
		tc.UseFarm(FarmOptions{Workers: 4})
		var jobs []*Job
		for _, src := range srcs {
			jobs = append(jobs, tc.Submit(context.Background(), flatFor(t, src), false, 0))
		}
		var out []outcome
		for _, j := range jobs {
			res := j.Result()
			out = append(out, outcome{res.DurationPs, res.AreaLEs, res.Err != nil})
		}
		return out
	}()
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("job %d diverged: serial=%+v parallel=%+v", i, serial[i], parallel[i])
		}
	}
}

func TestFarmBillsControlMessagesOnSeparateMeter(t *testing.T) {
	tc := New(fpga.NewCycloneV(), DefaultOptions())
	tc.UseFarm(FarmOptions{Workers: 2, MsgPs: 100 * vclock.Us})
	j := tc.Submit(context.Background(), flatFor(t, farmPrograms(t, 1)[0]), false, 0)
	res := j.Result()
	local := New(fpga.NewCycloneV(), DefaultOptions()).CompileSync(flatFor(t, farmPrograms(t, 1)[0]), false)
	if res.DurationPs != local.DurationPs {
		t.Fatalf("farm messages must never bill the flow's virtual clock: farm=%d local=%d",
			res.DurationPs, local.DurationPs)
	}
	st, _ := tc.FarmStats()
	if st.Msgs == 0 || st.MsgPs != st.Msgs*100*vclock.Us {
		t.Fatalf("message meter wrong: %+v", st)
	}
}

// TestSeededOutagesAreStableAndBounded: a seeded farm plan (3 shards,
// 100 routes, 4 windows) is stable, names only real shards, and never
// has two shards down at one route, so a 3-worker farm always keeps a
// live replica.
func TestSeededOutagesAreStableAndBounded(t *testing.T) {
	a := fault.Config{Seed: 42}.Outages("farm", 3, 4, 100, 1, 2)
	b := fault.Config{Seed: 42}.Outages("farm", 3, 4, 100, 1, 2)
	if len(a) != 4 {
		t.Fatalf("want 4 windows, got %d", len(a))
	}
	down := map[uint64]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule not stable at %d: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Target < 0 || a[i].Target >= 3 || a[i].To <= a[i].From {
			t.Fatalf("window %d malformed: %+v", i, a[i])
		}
		for r := a[i].From; r < a[i].To; r++ {
			if down[r]++; down[r] > 1 {
				t.Fatalf("two shards down at route %d: %+v", r, a)
			}
		}
	}
	if c := (fault.Config{Seed: 43}).Outages("farm", 3, 4, 100, 1, 2); fmt.Sprint(c) == fmt.Sprint(a) {
		t.Fatal("different seeds should differ")
	}
	tc := New(fpga.NewCycloneV(), DefaultOptions())
	tc.UseFarm(FarmOptions{Workers: 3, Outages: a})
	if res := tc.Submit(context.Background(), flatFor(t, farmPrograms(t, 1)[0]), false, 0).Result(); res.Err != nil {
		t.Fatalf("farm under a seeded plan failed a flow: %v", res.Err)
	}
}

func TestFarmCapabilitiesAndBackendSwap(t *testing.T) {
	tc := New(fpga.NewCycloneV(), DefaultOptions())
	fb := tc.UseFarm(FarmOptions{Workers: 3})
	if tc.Farm() != fb {
		t.Fatal("Farm() should return the installed backend")
	}
	// Native jobs stay on the local backend even with a farm installed.
	j := tc.SubmitDesign(context.Background(), "", NewDesign(flatFor(t, farmPrograms(t, 1)[0])), false, true, 0)
	res := j.Result()
	if res.Err != nil || !res.NativeGo {
		t.Fatalf("native flow broken under farm: %+v", res)
	}
	st, _ := tc.FarmStats()
	if st.Jobs != 0 {
		t.Fatalf("native job must not be stamped into the farm order: %+v", st)
	}
}
