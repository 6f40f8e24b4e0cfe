package toolchain

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/engine"
	"cascade/internal/engine/hweng"
	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/netlist"
	"cascade/internal/njit"
	"cascade/internal/verilog"
)

// workerLink is a ShardLink straight into a Worker: the remote-shard
// path without a transport.
type workerLink struct{ w *Worker }

func (l workerLink) Submit(spec ShardSubmit) (ShardOutcome, error) { return l.w.Compile(spec), nil }
func (l workerLink) Fetch(key string) (BitMeta, bool, error) {
	meta, ok := l.w.Fetch(key)
	return meta, ok, nil
}
func (l workerLink) Put(meta BitMeta) error   { l.w.Put(meta, false); return nil }
func (l workerLink) Publish(key string) error { l.w.Put(BitMeta{Key: key}, true); return nil }
func (l workerLink) Ping() error              { return nil }
func (l workerLink) Addr() string             { return "in-process" }
func (l workerLink) Close() error             { return nil }

// overWorker returns a toolchain whose farm is one Worker behind a link.
func overWorker(opts Options) *Toolchain {
	tc := New(fpga.NewCycloneV(), opts)
	tc.UseFarm(FarmOptions{Links: []ShardLink{workerLink{NewWorker(New(fpga.NewCycloneV(), opts))}}})
	return tc
}

// Two designs the fingerprint cannot tell apart: the netlists are the
// same, but y is an internal wire in one and an output port in the
// other, so an engine built for the second from the first's program has
// no output to drive.
const (
	collideWire = `
module M(input wire clk);
  wire [7:0] y;
  reg [7:0] a = 0;
  always @(posedge clk) begin a <= a + 1; $display("%h", y); end
  assign y = a;
endmodule`
	collidePort = `
module M(input wire clk, output wire [7:0] y);
  reg [7:0] a = 0;
  always @(posedge clk) begin a <= a + 1; $display("%h", y); end
  assign y = a;
endmodule`
)

// TestHitCarriesSubmittersNetlist: whichever tier serves a flow, the
// Result is assembled around the netlist synthesized from that
// submission — never around the program of whoever filled the cache.
func TestHitCarriesSubmittersNetlist(t *testing.T) {
	ctx := context.Background()
	// build runs the first design to a delivered (published) bitstream and
	// returns the virtual time it was observed ready.
	build := func(t *testing.T, tc *Toolchain, f *elab.Flat) uint64 {
		j := tc.Submit(ctx, f, true, 0)
		at, ok := j.ReadyAt()
		if !ok || !j.Ready(at) {
			t.Fatal("first flow never became ready")
		}
		return at
	}
	cases := []struct {
		name   string
		source string
		second func(t *testing.T, first, second *elab.Flat) *Result
	}{
		{"memory after publish", HitMemory, func(t *testing.T, first, second *elab.Flat) *Result {
			tc := New(fpga.NewCycloneV(), DefaultOptions())
			at := build(t, tc, first)
			return tc.Submit(ctx, second, true, at).Result()
		}},
		{"joined in flight", HitJoined, func(t *testing.T, first, second *elab.Flat) *Result {
			tc := New(fpga.NewCycloneV(), DefaultOptions())
			tc.Submit(ctx, first, true, 0).Wait()
			return tc.Submit(ctx, second, true, 1).Result()
		}},
		{"disk after a cold restart", HitDisk, func(t *testing.T, first, second *elab.Flat) *Result {
			dir := t.TempDir()
			build(t, New(fpga.NewCycloneV(), diskCacheOptions(dir)), first)
			return New(fpga.NewCycloneV(), diskCacheOptions(dir)).Submit(ctx, second, true, 0).Result()
		}},
		{"farm peer adoption", HitPeer, func(t *testing.T, first, second *elab.Flat) *Result {
			// As in TestFarmOutageReroutesThenServesFromPeer: the home is
			// down for the build and restarts cold for the resubmission.
			probe := New(fpga.NewCycloneV(), DefaultOptions())
			probe.UseFarm(FarmOptions{Workers: 2})
			pj := probe.Submit(ctx, first, true, 0)
			pj.Wait()
			tc := New(fpga.NewCycloneV(), DefaultOptions())
			tc.UseFarm(FarmOptions{Workers: 2, Outages: []fault.Window{{Target: pj.route.shard, From: 0, To: 1}}})
			at := build(t, tc, first)
			return tc.Submit(ctx, second, true, at).Result()
		}},
		{"worker behind a link", HitMemory, func(t *testing.T, first, second *elab.Flat) *Result {
			tc := overWorker(DefaultOptions())
			at := build(t, tc, first)
			return tc.Submit(ctx, second, true, at).Result()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			first, second := flatFor(t, collideWire), flatFor(t, collidePort)
			if a, b := mustFingerprint(t, first), mustFingerprint(t, second); a != b {
				t.Fatalf("the two designs no longer collide: %s vs %s", a, b)
			}
			res := c.second(t, first, second)
			if res.Err != nil || !res.CacheHit || res.HitSource != c.source {
				t.Fatalf("want a %q hit, got err=%v hit=%v source=%q", c.source, res.Err, res.CacheHit, res.HitSource)
			}
			if res.Prog.Flat != second {
				t.Errorf("hit served another submission's netlist (%d outputs, want %d)",
					len(res.Prog.Flat.Outputs), len(second.Outputs))
			}
		})
	}
}

func mustFingerprint(t *testing.T, f *elab.Flat) string {
	t.Helper()
	prog, err := netlist.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Fingerprint()
}

// TestMemoryTierRetainsNoNetlist: the memory tier is bounded by
// construction — an entry is a flow outcome, a few machine words — so a
// long session's cache holds no netlist (and through it no elaboration)
// once the jobs that submitted them are gone. No LRU, no budget.
func TestMemoryTierRetainsNoNetlist(t *testing.T) {
	const designs = 64
	ctx := context.Background()
	kinds := []struct {
		name  string
		start func() *Toolchain
	}{
		{"local stack", func() *Toolchain { return New(fpga.NewCycloneV(), DefaultOptions()) }},
		{"farm shards", func() *Toolchain {
			tc := New(fpga.NewCycloneV(), DefaultOptions())
			tc.UseFarm(FarmOptions{Workers: 2, Replicas: 2})
			return tc
		}},
		{"worker", func() *Toolchain { return overWorker(DefaultOptions()) }},
	}
	// observe submits one design and observes it ready (publishing the
	// bitstream and freeing its queue slot), keeping nothing of the job.
	observe := func(t *testing.T, tc *Toolchain, src string, nowPs uint64) *Result {
		j := tc.Submit(ctx, flatFor(t, src), true, nowPs)
		res := j.Result()
		if at, ok := j.ReadyAt(); res.Err != nil || !ok || !j.Ready(at) {
			t.Fatalf("flow failed: %v", res.Err)
		}
		return res
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			tc := k.start()
			srcs := farmPrograms(t, designs)
			var freed atomic.Int32
			for _, src := range srcs {
				runtime.SetFinalizer(observe(t, tc, src, 0).Prog, func(*netlist.Program) { freed.Add(1) })
			}
			deadline := time.Now().Add(5 * time.Second)
			for freed.Load() < designs && time.Now().Before(deadline) {
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			if n := freed.Load(); n < designs {
				t.Errorf("%d of %d submitted netlists are still reachable from the cache", designs-n, designs)
			}
			// The cache itself is alive and warm: every design still hits.
			for _, src := range srcs {
				if res := observe(t, tc, src, 1); res.HitSource != HitMemory {
					t.Fatalf("cache lost an entry: %+v", res)
				}
			}
		})
	}
}

type quietIO struct{}

func (quietIO) Display(string, bool) {}
func (quietIO) Finish(int)           {}

// clock drives e through n ticks of its clk input.
func clock(e engine.Engine, n int) {
	for i := 0; i < 2*n; i++ {
		e.Read(engine.Event{Var: "clk", Val: bits.FromUint64(1, uint64(i%2))})
		for e.ThereAreEvals() || e.ThereAreUpdates() {
			e.Evaluate()
			if e.ThereAreUpdates() {
				e.Update()
			}
		}
		e.EndStep()
		engine.Collect(e)
	}
}

// shareable has everything an engine could be tempted to keep a pointer
// into its program for: a register wider than a word with a reset value,
// wide constants, and a memory with an initialised word.
const shareable = `
module M(input wire clk, output wire [15:0] rdata);
  reg [3:0] addr = 0;
  reg [99:0] wide = 100'h123456789abcdef0123456789;
  reg [15:0] mem [0:15];
  initial mem[3] = 16'hbeef;
  assign rdata = mem[addr] ^ 16'h00ff;
  always @(posedge clk) begin
    addr <= addr + 4'd3;
    wide <= {wide[98:0], wide[99]} ^ 100'hfedcba9876543210fedcba987;
    mem[addr] <= wide[15:0];
  end
endmodule`

// TestOneSynthesisPerDesign: the native and the fabric flow of a design,
// a submission shed under load and its resubmission, and a flow retried
// after a transient fault all ask one Design record for the netlist, so
// synthesis and the hash run once — on the local stack, on a farm (which
// synthesizes before it takes a slot) and behind a worker link — while
// every flow still counts as one that consumed a netlist. Each Result is
// assembled around the record's program, over the submitter's own Flat,
// and the program is only read from then on: an engine of each tier runs
// off the one copy at once.
func TestOneSynthesisPerDesign(t *testing.T) {
	ctx := context.Background()
	opts := DefaultOptions()
	opts.MaxQueue = 2
	kinds := map[string]func() *Toolchain{
		"local stack": func() *Toolchain { return New(fpga.NewCycloneV(), opts) },
		"farm shards": func() *Toolchain {
			tc := New(fpga.NewCycloneV(), opts)
			tc.UseFarm(FarmOptions{Workers: 2})
			return tc
		},
		"worker": func() *Toolchain { return overWorker(opts) },
	}
	for name, start := range kinds {
		t.Run(name, func(t *testing.T) {
			tc := start()
			tc.SetFaults(fault.New(fault.Config{Seed: 1, CompileTransient: 1, MaxCompileFaults: 1}))
			flat := flatFor(t, shareable)
			d := NewDesign(flat)
			native := tc.SubmitDesign(ctx, "", d, false, true, 0)
			fabric := tc.SubmitDesign(ctx, "", d, true, false, 0)
			shed := tc.SubmitDesign(ctx, "", d, true, false, 0)
			if res := shed.Result(); !errors.Is(res.Err, ErrOverloaded) {
				t.Fatalf("third submission in flight was not shed: %+v", res)
			}
			var at uint64
			for _, j := range []*Job{native, fabric} {
				ready, ok := j.ReadyAt()
				if !ok || !j.Ready(ready) || j.Result().Err != nil {
					t.Fatalf("flow failed: %+v", j.Result())
				}
				at = max(at, ready)
			}
			again := tc.SubmitDesign(ctx, "", d, true, false, at)
			if res := again.Result(); res.Err != nil || !res.CacheHit {
				t.Fatalf("resubmission after the shed: %+v", res)
			}
			if n := tc.Compiles(); n != 1 {
				t.Errorf("synthesis ran %d times for one design", n)
			}
			if st := tc.Stats(); st.Synthesized != 3 || st.Shed != 1 || st.Retried != 1 || st.Submitted != 4 {
				t.Errorf("stats %+v, want 3 flows that consumed a netlist, 1 shed, 1 retried, of 4 submitted", st)
			}
			for _, j := range []*Job{native, fabric, again} {
				if res := j.Result(); res.Prog != d.prog || res.Prog.Flat != flat {
					t.Errorf("a Result was assembled around another program than its design's")
				}
			}

			// Both tiers' engines over the one program, at once.
			dev := fpga.NewCycloneV()
			hw, err := hweng.New("dut", fabric.Result().Prog, dev, fabric.Result().AreaLEs, quietIO{}, false, func() uint64 { return 0 })
			if err != nil {
				t.Fatal(err)
			}
			nat := njit.New("dut", native.Result().Prog, quietIO{}, nil, func() uint64 { return 0 })
			var wg sync.WaitGroup
			for _, e := range []engine.Engine{hw, nat} {
				wg.Add(1)
				go func(e engine.Engine) {
					defer wg.Done()
					clock(e, 200)
				}(e)
			}
			wg.Wait()
			if a, b := fmt.Sprint(hw.GetState()), fmt.Sprint(nat.GetState()); a != b {
				t.Errorf("the tiers diverged over one program:\n%s\n%s", a, b)
			}
		})
	}
}

// TestDesignBase: a design opened as the successor of another starts its
// synthesis from the predecessor's netlist when there is one, from the
// base the predecessor itself held when not, and never waits; once
// synthesized it holds no base. The successors here are opened while
// their predecessor synthesizes on another goroutine.
func TestDesignBase(t *testing.T) {
	tc := New(fpga.NewCycloneV(), DefaultOptions())
	flat := flatFor(t, shareable)
	for i := 0; i < 20; i++ {
		first := NewDesign(flat)
		done := make(chan struct{})
		go func() {
			defer close(done)
			first.synthesize(tc)
		}()
		pending := NewDesignFrom(first, flat) // racing first's synthesis
		<-done
		skipped := NewDesignFrom(pending, flat) // pending never synthesizes
		if base := skipped.base.Load(); base != nil && base != first.prog {
			t.Fatal("a successor's base is not its predecessor's program")
		}
		if after := NewDesignFrom(first, flat); after.base.Load() != first.prog {
			t.Fatal("a successor opened after its predecessor synthesized does not start from its program")
		}
		prog, fp, err := skipped.synthesize(tc)
		if err != nil || fp != first.fingerprint || prog.Flat != flat {
			t.Fatalf("the successor's netlist differs: %v", err)
		}
		if skipped.base.Load() != nil {
			t.Fatal("a synthesized design still holds its base")
		}
	}
}

// TestDesignFromASkippedVersion: a design whose predecessor never
// synthesized starts from the program two versions back (NewDesignFrom).
// The predecessor elaborated the process again — the port d it names
// changed direction — and the design relocated it from there, so
// synthesis compiles it again rather than take the older program's; the
// assign, relocated along the whole chain, is relocated out of that
// program. Either way the netlist is the one synthesized from scratch.
func TestDesignFromASkippedVersion(t *testing.T) {
	const shared = `
  always @(posedge clk) q <= d + 8'd1;
  assign w = q[7:0] ^ 8'h5a;
endmodule`
	parse := func(src string) *verilog.Module {
		st, errs := verilog.ParseSourceText(src)
		if errs != nil {
			t.Fatal(errs)
		}
		return st.Modules[0]
	}
	m0 := parse("module M(input wire clk, output reg [15:0] q, output wire [7:0] w, input wire [7:0] d);" + shared)
	m1 := parse("module M(input wire clk, output reg [15:0] q, output wire [7:0] w, output wire [7:0] d);\nendmodule")
	m1.Items = m0.Items // the same objects
	m2 := *m1
	var flats []*elab.Flat
	var prev *elab.Flat
	for _, m := range []*verilog.Module{m0, m1, &m2} {
		f, err := elab.ElaborateFrom(prev, m, "dut", nil)
		if err != nil {
			t.Fatal(err)
		}
		flats, prev = append(flats, f), f
	}

	tc := New(fpga.NewCycloneV(), DefaultOptions())
	first := NewDesign(flats[0])
	if _, _, err := first.synthesize(tc); err != nil {
		t.Fatal(err)
	}
	skipped := NewDesignFrom(NewDesignFrom(first, flats[1]), flats[2])
	prog, fp, err := skipped.synthesize(tc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := netlist.Compile(flats[2])
	if err != nil {
		t.Fatal(err)
	}
	if fp != want.Fingerprint() || !reflect.DeepEqual(prog.Code, want.Code) || !reflect.DeepEqual(prog.Spans, want.Spans) {
		t.Fatal("the netlist synthesized from two versions back differs from scratch")
	}
	if prog.Relocated != 1 {
		t.Fatalf("relocated %d of %d units, want 1: the assign", prog.Relocated, len(prog.Spans))
	}
}
