package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cascade/internal/elab"
	"cascade/internal/fpga"
	"cascade/internal/obsv"
	"cascade/internal/toolchain"
	"cascade/internal/verilog"
)

func farmFlat(t *testing.T) *elab.Flat {
	t.Helper()
	src := `
module M(input wire clk, output reg [7:0] q);
  always @(posedge clk) q <= q + 1;
endmodule`
	st, errs := verilog.ParseSourceText(src)
	if errs != nil {
		t.Fatal(errs)
	}
	f, err := elab.Elaborate(st.Modules[0], "dut", nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// startWorker spins up one compile-worker daemon on a loopback listener
// and returns its address plus a stop function.
func startWorker(t *testing.T, cacheDir string, peers []string) (string, func()) {
	t.Helper()
	opts := toolchain.DefaultOptions()
	opts.CacheDir = cacheDir
	h := NewHost(HostOptions{
		Toolchain:     toolchain.New(fpga.NewCycloneV(), opts),
		CompileWorker: true,
		Peers:         peers,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go h.ServeListener(l)
	return l.Addr().String(), func() { l.Close() }
}

func TestFarmOverTCPMatchesLocal(t *testing.T) {
	addrA, stopA := startWorker(t, "", nil)
	defer stopA()
	addrB, stopB := startWorker(t, "", nil)
	defer stopB()

	links, err := DialFarm([]string{addrA, addrB}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tc := toolchain.New(fpga.NewCycloneV(), toolchain.DefaultOptions())
	fb := tc.UseFarm(toolchain.FarmOptions{Links: links})
	defer fb.Close()

	local := toolchain.New(fpga.NewCycloneV(), toolchain.DefaultOptions()).CompileSync(farmFlat(t), true)

	j := tc.Submit(context.Background(), farmFlat(t), true, 0)
	res := j.Result()
	if res.Err != nil {
		t.Fatalf("remote flow failed: %v", res.Err)
	}
	if res.DurationPs != local.DurationPs || res.AreaLEs != local.AreaLEs {
		t.Fatalf("remote flow diverged from local: dur %d vs %d, area %d vs %d",
			res.DurationPs, local.DurationPs, res.AreaLEs, local.AreaLEs)
	}
	if res.Prog == nil {
		t.Fatal("client must keep its own netlist on remote flows")
	}
	ready, _ := j.ReadyAt()
	if !j.Ready(ready) {
		t.Fatal("job should publish")
	}

	// An identical submission is served from the worker's (published)
	// memory cache at cache-hit latency.
	j2 := tc.Submit(context.Background(), farmFlat(t), true, ready)
	res2 := j2.Result()
	if res2.Err != nil || !res2.CacheHit {
		t.Fatalf("resubmission should hit the worker cache: err=%v hit=%v", res2.Err, res2.CacheHit)
	}
}

func TestFarmWorkerPeerFetchServesColdWorker(t *testing.T) {
	dirA := t.TempDir()
	addrA, stopA := startWorker(t, dirA, nil)
	defer stopA()

	// Warm worker A through a first client.
	linksA, err := DialFarm([]string{addrA}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tcA := toolchain.New(fpga.NewCycloneV(), toolchain.DefaultOptions())
	tcA.UseFarm(toolchain.FarmOptions{Links: linksA})
	jA := tcA.Submit(context.Background(), farmFlat(t), true, 0)
	if res := jA.Result(); res.Err != nil || res.CacheHit {
		t.Fatalf("warmup should be a miss: %+v", res)
	}

	// Worker B is cold but peers with A: a client farm pointed only at B
	// gets its bitstream through B's peer-fetch tier.
	addrB, stopB := startWorker(t, "", []string{addrA})
	defer stopB()
	linksB, err := DialFarm([]string{addrB}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tcB := toolchain.New(fpga.NewCycloneV(), toolchain.DefaultOptions())
	tcB.UseFarm(toolchain.FarmOptions{Links: linksB})
	jB := tcB.Submit(context.Background(), farmFlat(t), true, 0)
	res := jB.Result()
	if res.Err != nil || !res.CacheHit || res.HitSource != toolchain.HitPeer {
		t.Fatalf("cold worker should serve from its peer: err=%v hit=%v src=%q",
			res.Err, res.CacheHit, res.HitSource)
	}
	if res.DurationPs != toolchain.New(fpga.NewCycloneV(), toolchain.DefaultOptions()).CompileSync(farmFlat(t), true).DurationPs {
		// A peer hit bills cache-hit latency, which is far below a full
		// flow — sanity-check it is not a full recompile bill.
		if res.DurationPs >= 45e12 {
			t.Fatalf("peer hit billed like a full flow: %d", res.DurationPs)
		}
	}
}

// TestFarmMutuallyPeeredWorkersDoNotRecurse pins the deployment shape
// farm_smoke.sh uses: every worker peered with every other. A miss used
// to chase itself around the ring forever (A's fetch consulted A's peer
// tier, which asked B, whose fetch asked A, ...). A compile on a cold
// key must terminate — peers answer fetches from their own state only —
// and a warmed sibling must still serve a genuine peer hit.
func TestFarmMutuallyPeeredWorkersDoNotRecurse(t *testing.T) {
	// Addresses are needed before the workers exist, so reserve both
	// listeners first and wire the hosts to them.
	mk := func() (net.Listener, string) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return l, l.Addr().String()
	}
	lA, addrA := mk()
	lB, addrB := mk()
	defer lA.Close()
	defer lB.Close()
	hA := NewHost(HostOptions{
		Toolchain:     toolchain.New(fpga.NewCycloneV(), toolchain.DefaultOptions()),
		CompileWorker: true, Peers: []string{addrB},
	})
	hB := NewHost(HostOptions{
		Toolchain:     toolchain.New(fpga.NewCycloneV(), toolchain.DefaultOptions()),
		CompileWorker: true, Peers: []string{addrA},
	})
	go hA.ServeListener(lA)
	go hB.ServeListener(lB)

	links, err := DialFarm([]string{addrA}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tcA := toolchain.New(fpga.NewCycloneV(), toolchain.DefaultOptions())
	tcA.UseFarm(toolchain.FarmOptions{Links: links})

	done := make(chan *toolchain.Result, 1)
	go func() {
		done <- tcA.Submit(context.Background(), farmFlat(t), true, 0).Result()
	}()
	select {
	case res := <-done:
		if res.Err != nil || res.CacheHit {
			t.Fatalf("cold compile through the ring should be a plain miss: %+v", res)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cold compile never returned: peer fetch is recursing around the ring")
	}

	// B never compiled the design; a client pointed only at B is served
	// across the ring from A.
	linksB, err := DialFarm([]string{addrB}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tcB := toolchain.New(fpga.NewCycloneV(), toolchain.DefaultOptions())
	tcB.UseFarm(toolchain.FarmOptions{Links: linksB})
	res := tcB.Submit(context.Background(), farmFlat(t), true, 0).Result()
	if res.Err != nil || !res.CacheHit || res.HitSource != toolchain.HitPeer {
		t.Fatalf("warmed sibling should serve a peer hit: err=%v hit=%v src=%q",
			res.Err, res.CacheHit, res.HitSource)
	}
}

func TestFarmRejectsNonWorkerDaemon(t *testing.T) {
	// A plain engine daemon (no -compile-worker) answers farm kinds with
	// a reply-level error, which the link surfaces as a Go error.
	h := NewHost(HostOptions{Toolchain: toolchain.New(fpga.NewCycloneV(), toolchain.DefaultOptions())})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go h.ServeListener(l)
	links, err := DialFarm([]string{l.Addr().String()}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer links[0].Close()
	if _, err := links[0].Submit(toolchain.ShardSubmit{Key: "k", Name: "m"}); err == nil {
		t.Fatal("submit to a non-worker daemon should fail")
	}
	if err := links[0].Ping(); err != nil {
		t.Fatalf("ping must still work on any daemon: %v", err)
	}
}

func TestFarmLinkRetriesAcrossWorkerRestart(t *testing.T) {
	opts := toolchain.DefaultOptions()
	h1 := NewHost(HostOptions{Toolchain: toolchain.New(fpga.NewCycloneV(), opts), CompileWorker: true})
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l1.Addr().String()
	go h1.ServeListener(l1)
	links, err := DialFarm([]string{addr}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer links[0].Close()
	if err := links[0].Ping(); err != nil {
		t.Fatal(err)
	}

	// Restart the worker on the same address: a new Host (new epoch)
	// behind a new listener. The epoch latch fires ErrDaemonRestarted
	// once; the link absorbs it — a compile worker's state is a cache,
	// safe to retry against cold.
	l1.Close()
	h2 := NewHost(HostOptions{Toolchain: toolchain.New(fpga.NewCycloneV(), opts), CompileWorker: true})
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer l2.Close()
	go h2.ServeListener(l2)

	if _, err := links[0].Submit(toolchain.ShardSubmit{
		Key: "k", Name: "m", Cells: 10, FFs: 8, CritPath: 2}); err != nil {
		t.Fatalf("submit should survive a worker restart: %v", err)
	}
}

// flakyLink fails Submit while the shared budget lasts — a shard dying
// mid-call, whichever shard the job was routed to.
type flakyLink struct {
	toolchain.ShardLink
	failures *atomic.Int32
}

func (l flakyLink) Submit(spec toolchain.ShardSubmit) (toolchain.ShardOutcome, error) {
	if l.failures.Add(-1) >= 0 {
		return toolchain.ShardOutcome{}, errors.New("shard died mid-call")
	}
	return l.ShardLink.Submit(spec)
}

// TestFarmBooksAgreeAfterMidCallFailure: every countable farm event has
// one increment site, so /metrics and FarmStats tell the same story. The
// routed shard and the next replica both die mid-call and the third
// serves the job from its peer: one reroute (per job, not per dead
// link) and one peer hit, in both books.
func TestFarmBooksAgreeAfterMidCallFailure(t *testing.T) {
	addrA, stopA := startWorker(t, t.TempDir(), nil)
	defer stopA()
	linksA, err := DialFarm([]string{addrA}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warm := toolchain.New(fpga.NewCycloneV(), toolchain.DefaultOptions())
	defer warm.UseFarm(toolchain.FarmOptions{Links: linksA}).Close()
	if res := warm.Submit(context.Background(), farmFlat(t), true, 0).Result(); res.Err != nil {
		t.Fatal(res.Err)
	}

	var addrs []string
	for i := 0; i < 3; i++ {
		addr, stop := startWorker(t, "", []string{addrA})
		defer stop()
		addrs = append(addrs, addr)
	}
	links, err := DialFarm(addrs, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var failures atomic.Int32
	failures.Store(2)
	for i, l := range links {
		links[i] = flakyLink{ShardLink: l, failures: &failures}
	}
	obs := obsv.New(obsv.Options{})
	tc := toolchain.New(fpga.NewCycloneV(), toolchain.DefaultOptions())
	tc.SetObserver(obs)
	fb := tc.UseFarm(toolchain.FarmOptions{Links: links, Replicas: 3})
	defer fb.Close()

	res := tc.Submit(context.Background(), farmFlat(t), true, 0).Result()
	if res.Err != nil || res.HitSource != toolchain.HitPeer {
		t.Fatalf("third shard should serve from its peer: err=%v src=%q", res.Err, res.HitSource)
	}
	st := fb.Stats()
	if st.Rerouted != 1 || st.PeerHits != 1 {
		t.Errorf("FarmStats: rerouted=%d peerHits=%d, want 1 and 1", st.Rerouted, st.PeerHits)
	}
	metrics := obs.MetricsText()
	for series, want := range map[string]uint64{
		"cascade_farm_steals_total":      st.Stolen,
		"cascade_farm_reroutes_total":    st.Rerouted,
		"cascade_farm_peer_hits_total":   st.PeerHits,
		"cascade_farm_shed_total":        st.Shed,
		"cascade_farm_unavailable_total": st.Unavailable,
	} {
		if line := fmt.Sprintf("\n%s %d\n", series, want); !strings.Contains(metrics, line) {
			t.Errorf("/metrics disagrees with FarmStats: want %q", strings.TrimSpace(line))
		}
	}
}

// TestWorkerFlowsReachDaemonMetrics: a daemon's compile worker banks each
// flow it serves into the daemon's toolchain, and so into the daemon's
// /metrics — the same books its Stats read. Two cold clients submit one
// design at the same virtual time: the worker pays for the first and joins
// the second to it.
func TestWorkerFlowsReachDaemonMetrics(t *testing.T) {
	obs := obsv.New(obsv.Options{})
	worker := toolchain.New(fpga.NewCycloneV(), toolchain.DefaultOptions())
	h := NewHost(HostOptions{Toolchain: worker, CompileWorker: true, Observer: obs})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go h.ServeListener(l)
	for i := 0; i < 2; i++ {
		links, err := DialFarm([]string{l.Addr().String()}, TCPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tc := toolchain.New(fpga.NewCycloneV(), toolchain.DefaultOptions())
		fb := tc.UseFarm(toolchain.FarmOptions{Links: links})
		res := tc.Submit(context.Background(), farmFlat(t), true, 0).Result()
		fb.Close()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	st := worker.Stats()
	if st.CacheMisses != 1 || st.Joined != 1 {
		t.Errorf("worker Stats: misses=%d joined=%d, want 1 and 1", st.CacheMisses, st.Joined)
	}
	if hits, misses := obs.CacheHits.Value(), obs.CacheMisses.Value(); hits != uint64(st.CacheHits+st.Joined) || misses != uint64(st.CacheMisses) {
		t.Errorf("daemon /metrics: hits=%d misses=%d, Stats: hits=%d joined=%d misses=%d",
			hits, misses, st.CacheHits, st.Joined, st.CacheMisses)
	}
}
