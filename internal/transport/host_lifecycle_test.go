package transport

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"cascade/internal/engine"
	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/obsv"
	"cascade/internal/proto"
	"cascade/internal/toolchain"
)

// faultyHost starts a loopback host whose fabric and toolchain share
// the given fault schedule. The toolchain keeps its default latencies:
// even a cache hit takes virtual time, so a test that holds the JIT
// clock still holds a resubmitted compile off.
func faultyHost(t *testing.T, cfg fault.Config) *TCP {
	t.Helper()
	dev := fpga.NewCycloneV()
	_, addr := loopbackHost(t, HostOptions{Device: dev,
		Toolchain: toolchain.New(dev, toolchain.DefaultOptions()), Injector: fault.New(cfg)})
	tcpT, err := DialTCP(addr, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tcpT.Close() })
	return tcpT
}

// stepUntil runs scheduler steps, advancing the host's JIT clock by
// vstep each, until the engine reports loc.
func stepUntil(t *testing.T, c *Client, vnow *uint64, vstep uint64, loc engine.Location) {
	t.Helper()
	for i := 0; c.Loc() != loc; i++ {
		if i == 400 {
			t.Fatalf("hosted engine never reached %v", loc)
		}
		*vnow += vstep
		stepOnce(c, uint64(i%2))
	}
}

// TestHostRetriesTransientProgrammingFault: a bitstream lost on the way
// to the host's fabric is a transient fault, so the host resubmits the
// compile and promotes on the retry, as the runtime's own ladder does.
// (The host used to drop the job and strand the engine in software.)
func TestHostRetriesTransientProgrammingFault(t *testing.T) {
	tcpT := faultyHost(t, fault.Config{Seed: 1, RegionFault: 1, MaxRegionFaults: 1})
	var vnow uint64
	rec := &recorder{}
	c, err := Spawn(tcpT, SpawnSpec{Path: "main.c", Source: ctrSrc, Layout: ctrLayout, JIT: true}, rec,
		nil, func() uint64 { return vnow }, rec.onErr)
	if err != nil {
		t.Fatal(err)
	}
	stepUntil(t, c, &vnow, 1<<50, engine.Hardware)
}

// TestHostReportsFailedPromotions: a hosted promotion that does not
// happen leaves a line in the daemon's trace — the error, once, when the
// bitstream finds no room on the fabric, and a recovery event each time a
// compile shed under load is resubmitted — as the runtime's own ladder
// reports them. (The host used to say nothing: the engine sat in software
// with no word of why.)
func TestHostReportsFailedPromotions(t *testing.T) {
	cases := []struct {
		name    string
		squat   bool // the fabric is full before the bitstream lands
		queue   int  // toolchain admission bound
		engines int
		kind    obsv.EventKind
		detail  string
	}{
		{"no room", true, 0, 1, obsv.EvFault, "does not fit"},
		{"shed", false, 1, 2, obsv.EvRecovery, "compile shed under load: resubmitted"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev := fpga.NewCycloneV()
			opts := toolchain.DefaultOptions()
			opts.MaxQueue = tc.queue
			obs := obsv.New(obsv.Options{})
			_, addr := loopbackHost(t, HostOptions{Device: dev, Toolchain: toolchain.New(dev, opts), Observer: obs})
			tcpT, err := DialTCP(addr, TCPOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer tcpT.Close()
			if tc.squat {
				dev.Place("squatter", dev.Capacity())
			}
			var vnow uint64
			rec := &recorder{}
			var last *Client
			for i := 0; i < tc.engines; i++ {
				last, err = Spawn(tcpT, SpawnSpec{Path: fmt.Sprintf("main.c%d", i), Source: ctrSrc, Layout: ctrLayout, JIT: true}, rec,
					nil, func() uint64 { return vnow }, rec.onErr)
				if err != nil {
					t.Fatal(err)
				}
			}
			vnow = 1 << 50 // every compile that was admitted has landed
			stepOnce(last, 1)
			reported := 0
			for _, ev := range obs.Trace(0) {
				if ev.Path == last.Name() && ev.Kind == tc.kind && strings.Contains(ev.Detail, tc.detail) {
					reported++
				}
			}
			if reported != 1 {
				t.Fatalf("daemon trace reports %q for %s %d times, want once:\n%v", tc.detail, last.Name(), reported, obs.Trace(0))
			}
			if last.Loc() != engine.Software {
				t.Fatalf("engine is in %v after a promotion that did not happen", last.Loc())
			}
		})
	}
}

// TestHostEvictionKeepsEagerFlag: an engine spawned with the eager
// ablation must still be eager after the host evicts it from a faulted
// fabric region. (The host used to rebuild it lazy.) Eagerness is
// observed through the protocol as interpreter work: from the same
// state and inputs, the evicted engine must bill exactly what a
// never-promoted eager engine bills — and not what a lazy one does.
func TestHostEvictionKeepsEagerFlag(t *testing.T) {
	tcpT := faultyHost(t, fault.Config{Seed: 1, BusError: 1, MaxBusFaults: 1})
	var vnow uint64
	rec := &recorder{}
	spawn := func(eager, jit bool) *Client {
		c, err := Spawn(tcpT, SpawnSpec{Path: "main.c", Source: ctrSrc, Layout: ctrLayout, Eager: eager, JIT: jit}, rec,
			nil, func() uint64 { return vnow }, rec.onErr)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := spawn(true, true)
	stepUntil(t, c, &vnow, 1<<50, engine.Hardware)
	// The first bus transaction latches a fault; the next step boundary
	// evicts. Holding the JIT clock still keeps the resubmitted compile
	// from landing, so the engine stays in software to be measured.
	stepUntil(t, c, &vnow, 0, engine.Software)
	drive(c, 1) // leave the clock input high, as drive leaves the references'
	st := c.GetState()
	ops := func(c *Client) uint64 {
		c.SetState(st)
		c.UsageDelta()
		drive(c, 5)
		return c.UsageDelta().Ops
	}
	eagerRef, lazyRef := spawn(true, false), spawn(false, false)
	drive(eagerRef, 1)
	drive(lazyRef, 1)
	got, eager, lazy := ops(c), ops(eagerRef), ops(lazyRef)
	if c.Loc() != engine.Software {
		t.Fatal("engine re-promoted mid-measurement")
	}
	if eager == lazy {
		t.Fatalf("test cannot tell eager from lazy: both bill %d ops", eager)
	}
	if got != eager {
		t.Fatalf("evicted engine bills %d ops over 5 ticks; an eager engine bills %d, a lazy one %d", got, eager, lazy)
	}
}

// TestHostConcurrentSessionOpen: a session's name, its fabric region and
// its registration change hands together. Opens of one name racing each
// other — and, from the second round on, the close of the previous
// holder — admit at most one, and the fabric accounts exactly the
// regions of the sessions that are open. (The name used to be checked
// and the session registered under separate holds of the host lock with
// Device.Place, which replaces a same-named region, in between: two
// opens shared one region, and a close released it under the survivor.)
func TestHostConcurrentSessionOpen(t *testing.T) {
	dev := fpga.NewCycloneV()
	h := NewHost(HostOptions{Device: dev, Toolchain: toolchain.New(dev, toolchain.DefaultOptions())})
	const quota, racers, rounds = 1000, 8, 40
	var holder uint32
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		start := make(chan struct{})
		won := make([]uint32, racers)
		for i := range won {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				var rep proto.Reply
				h.Handle(&proto.Request{Kind: proto.KindSessionOpen, Path: "alice", Quota: quota}, &rep)
				if rep.Err == "" {
					won[i] = rep.Engine
				}
			}(i)
		}
		if holder != 0 {
			wg.Add(1)
			go func(id uint32) {
				defer wg.Done()
				<-start
				var rep proto.Reply
				h.Handle(&proto.Request{Kind: proto.KindSessionClose, Session: id}, &rep)
				if rep.Err != "" {
					t.Errorf("round %d: closing session %d: %s", round, id, rep.Err)
				}
			}(holder)
		}
		close(start)
		wg.Wait()
		open := 0
		for _, id := range won {
			if id != 0 {
				open++
				holder = id
			}
		}
		if open > 1 || (open == 0 && round == 0) {
			t.Fatalf("round %d: %d of %d concurrent opens of one name succeeded", round, open, racers)
		}
		if open == 0 {
			holder = 0 // every open lost to the holder, which has closed since
		}
		if n, used := h.Sessions(), dev.Used(); n != open || used != open*quota {
			t.Fatalf("round %d: %d session(s) open and %d LEs placed, want %d and %d", round, n, used, open, open*quota)
		}
	}
}
