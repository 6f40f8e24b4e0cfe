package runtime

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cascade/internal/golden"
	"cascade/internal/imagetest"
	"cascade/internal/proto"
	"cascade/internal/supervise"
	"cascade/internal/transport"
	"cascade/internal/vclock"
	"cascade/internal/vgen"
)

// counters is a program of independent counter modules Gen0.. — each given
// as width, initial value, increment and whether it prints — instantiated
// g0.., the root printing g0.out and the LED showing their xor.
func counters(name string, mods ...[4]int) vgen.Script {
	var sb strings.Builder
	led := "g0.out"
	for i, m := range mods {
		fmt.Fprintf(&sb, "module Gen%d(input wire c, output wire [%d:0] out);\n  reg [%d:0] acc = %d;\n", i, m[0]-1, m[0]-1, m[1])
		fmt.Fprintf(&sb, "  always @(posedge c) begin\n    acc <= acc + %d;\n", m[2])
		if m[3] != 0 {
			fmt.Fprintf(&sb, "    $display(\"m%d=%%d\", acc);\n", i)
		}
		fmt.Fprintf(&sb, "  end\n  assign out = acc;\nendmodule\nGen%d g%d(.c(clk.val));\n", i, i)
		if i > 0 {
			led += fmt.Sprintf(" ^ g%d.out", i)
		}
	}
	fmt.Fprintf(&sb, "always @(posedge clk.val) $display(\"root=%%d\", g0.out);\nassign led.val = %s;\n", led)
	return vgen.Program(name, sb.String(), 48)
}

// frozen are the four programs the remote ledger was pinned on — what the
// generator this package used to keep produced for seeds 0 to 3 — spelled
// out, so the pinned records need no re-pinning (and hold the spelling to
// the text they were recorded over).
var frozen = []vgen.Script{
	counters("seed0", [4]int{8, 249, 5, 1}, [4]int{5, 15, 1, 1}),
	counters("seed1", [4]int{6, 7, 1, 0}, [4]int{7, 57, 6, 1}, [4]int{4, 6, 7, 1}, [4]int{8, 88, 5, 0}),
	counters("seed2", [4]int{5, 28, 4, 1}, [4]int{8, 2, 2, 1}, [4]int{5, 14, 1, 0}),
	counters("seed3", [4]int{6, 32, 7, 0}, [4]int{8, 172, 3, 1}, [4]int{6, 34, 5, 1}),
}

// TestRemoteLedgerPinned: frozen[seed] hosted on a loopback daemon, at a
// lane count and with the daemon's JIT off or on, prints Stats().Time
// after each of 48 ticks into testdata/TestRemoteLedgerPinned, one line
// per tick. The records are the ones of the commit before remote
// lock-step went by the round (commit ef86e99), when every ABI call was
// its own frame. The virtual ledger prices ABI calls, not frames, so it
// must not have moved; more than one lane is what exposes a Read's cost
// settled in the wrong batch (makespan is not additive), the JIT what
// exposes a Read delivered on the wrong side of the receiver's promotion.
func TestRemoteLedgerPinned(t *testing.T) {
	for seed := range frozen {
		for _, par := range []int{1, 2, 8} {
			for _, jit := range []bool{false, true} {
				name := fmt.Sprintf("seed%d-lanes%d-nojit", seed, par)
				if jit {
					name = fmt.Sprintf("seed%d-lanes%d-jit", seed, par)
				}
				t.Run(name, func(t *testing.T) {
					r := newTestRuntime(t, Options{View: &BufView{Quiet: true}, Parallelism: par,
						Features: Features{DisableInline: true, DisableJIT: !jit},
						Remote:   &RemoteOptions{Addr: newTestDaemon(t, "", jit).addr}})
					r.MustEval(frozen[seed].Steps[0].Src)
					var sb strings.Builder
					for i := 0; i < 48; i++ {
						r.RunTicks(1)
						fmt.Fprintf(&sb, "%+v\n", r.Stats().Time)
					}
					r.CloseRemote()
					golden.Check(t, name, sb.String())
				})
			}
		}
	}
}

// tap wraps the daemon connection: it counts frames by kind and loses the
// ones lose picks — such a frame never leaves, as when injected drops
// outlast the retry budget, and the daemon stays up.
type tap struct {
	transport.Transport
	frames map[proto.Kind]int
	lose   func(*proto.Request) bool
}

func (f *tap) Roundtrip(req *proto.Request, rep *proto.Reply) (transport.Cost, error) {
	if f.frames[req.Kind]++; f.lose != nil && f.lose(req) {
		return transport.Cost{}, fmt.Errorf("frame lost: %w", transport.ErrEngineUnavailable)
	}
	return f.Transport.Roundtrip(req, rep)
}

// tapped builds a runtime whose daemon link runs over a tap of its TCP
// transport.
func tapped(t *testing.T, opts Options) (*Runtime, *tap) {
	t.Helper()
	r := newTestRuntime(t, opts)
	if err := r.connectRemote(); err != nil {
		t.Fatal(err)
	}
	fc := &tap{Transport: r.remoteT, frames: map[proto.Kind]int{}}
	r.link = transport.NewLink(fc, r.now, r.vclk.Now)
	t.Cleanup(func() { r.CloseRemote() })
	return r, fc
}

// TestRemoteFramesPerStep: what crosses the wire during RunTicks is the
// round — one frame per daemon per scheduler round, the same number of
// them whether the daemon hosts one counter of the program, three or six
// (beside its root, which hands them the clock and is hosted too), every
// one a KindRound and none of the seven per-call kinds.
func TestRemoteFramesPerStep(t *testing.T) {
	const ticks = 40
	frames := map[int]int{}
	for _, counters := range []int{1, 3, 6} {
		var sb strings.Builder
		sb.WriteString("module Ctr(input wire c);\n  reg [7:0] n = 1;\n  wire [7:0] nn = n + 3;\n" +
			"  always @(posedge c) n <= nn;\nendmodule\n")
		for i := 0; i < counters; i++ {
			fmt.Fprintf(&sb, "Ctr c%d(.c(clk.val));\n", i)
		}
		sb.WriteString("reg [7:0] n = 1;\nalways @(posedge clk.val) n <= n + 1;\nassign led.val = n;\n")
		r, fc := tapped(t, Options{Parallelism: 2,
			Features: Features{DisableInline: true, DisableJIT: true},
			Remote:   &RemoteOptions{Addr: newTestDaemon(t, "", false).addr}})
		r.MustEval(sb.String())
		hosted := hosted(r.Stats())
		if hosted != counters+1 {
			t.Fatalf("%d hosted engines, want %d", hosted, counters+1)
		}
		for k := range fc.frames {
			delete(fc.frames, k) // spawn-time traffic is by the call
		}
		r.RunTicks(ticks)
		if got := r.World().Led("main.led"); got != 1+ticks {
			t.Fatalf("%d hosted: led %d after %d ticks", hosted, got, ticks)
		}
		for kind, n := range fc.frames {
			if kind != proto.KindRound {
				t.Errorf("%d hosted: %d %v frames during RunTicks", hosted, n, kind)
			}
		}
		frames[counters] = fc.frames[proto.KindRound]
	}
	if frames[1] == 0 || frames[3] != frames[1] || frames[6] != frames[1] {
		t.Errorf("frames over %d ticks depend on the number of hosted counters: %v", ticks, frames)
	}
	if per := float64(frames[1]) / (2 * ticks); per > 9 {
		t.Errorf("%.1f frames per step, want at most 9", per)
	}
}

// TestRemoteSnapshotBetweenSteps: a snapshot is made of lone GetState
// calls, and a lone call must see every input queued before it — right
// after an eval, when the initial broadcast has just queued some, as
// after any tick. Hosted or in-process, the program is in the same state.
func TestRemoteSnapshotBetweenSteps(t *testing.T) {
	prog := vgen.Session(1).Steps[0].Source()
	feats := Features{DisableInline: true, DisableJIT: true}
	local := newTestRuntime(t, Options{Features: feats, Parallelism: 1})
	remote := newTestRuntime(t, Options{Features: feats, Parallelism: 2,
		Remote: &RemoteOptions{Addr: newTestDaemon(t, "", false).addr}})
	defer remote.CloseRemote()
	local.MustEval(prog)
	remote.MustEval(prog)
	for tick := 0; tick <= 24; tick++ {
		a, b := local.Snapshot(), remote.Snapshot()
		a.VTime, b.VTime = vclock.Breakdown{}, vclock.Breakdown{} // the ledgers differ by design
		if ea, eb := EncodeSnapshot(a), EncodeSnapshot(b); ea != eb {
			t.Fatalf("tick %d: hosted snapshot differs from the in-process one:\n%s\n---\n%s", tick, eb, ea)
		}
		local.RunTicks(1)
		remote.RunTicks(1)
	}
}

// TestSupervisedEngineLost: the daemon stops holding one of three hosted
// engines (ended behind the runtime's back — what a SessionClose from
// another connection, or a daemon resumed without it, does). The daemon
// still answers pings, so only the forced trip — the failure threshold
// here is out of reach — gets the run off the inert client: it fails
// over from the committed states, re-hosts, and prints the undisturbed
// run's output (invariant 14's comparison). The loss lands where the
// chaos tests land their kills: before a step that prints nothing (the
// failover seed is the previous step boundary for every engine, so the
// engines still served during a step that prints would print it again).
// The two engines the daemon still held when the breaker tripped are
// superseded by the re-host like the lost one, and ended there: it is
// left holding the program's three, not five.
func TestSupervisedEngineLost(t *testing.T) {
	run := func(lose bool) (string, Stats, []error) {
		view := &BufView{Quiet: true}
		d := newTestDaemon(t, "", false)
		r := newTestRuntime(t, Options{
			View:     view,
			Features: Features{DisableInline: true, DisableJIT: true},
			Remote:   supRemoteOptions(d.addr),
			Supervise: &supervise.Options{
				ProbeIntervalPs: 10 * vclock.Us,
				FailThreshold:   1 << 20,
				ReopenPs:        1,
			},
		})
		defer r.CloseRemote()
		r.MustEval(chaosProg)
		r.RunTicks(10)
		r.Step() // a posedge step; the next one is silent
		if lose {
			// The engine spawned last — counter b, a leaf — has the highest ID.
			var rep proto.Reply
			for id := uint32(16); id > 0 && d.host.Engines() == 3; id-- {
				d.host.Handle(&proto.Request{Kind: proto.KindEnd, Engine: id}, &rep)
			}
			if d.host.Engines() != 2 {
				t.Fatalf("daemon holds %d engines after losing one of 3", d.host.Engines())
			}
		}
		if !r.RunUntilFinish(2000) {
			t.Fatal("run never finished")
		}
		if got := d.live().Engines(); got != 3 {
			t.Errorf("daemon holds %d engines for a 3-engine program (lose=%v)", got, lose)
		}
		return view.Output(), r.Stats(), view.Errors()
	}
	want, _, _ := run(false)
	got, st, errs := run(true)
	if got != want {
		t.Errorf("output diverged after losing an engine:\n%s\nundisturbed:\n%s", got, want)
	}
	lost := 0
	for _, err := range errs {
		if errors.Is(err, transport.ErrEngineLost) {
			lost++
		}
	}
	if lost != 1 {
		t.Errorf("lost engine reported %d times, want once: %v", lost, errs)
	}
	if sup := st.Supervise; sup.Trips != 1 || sup.Failovers != 3 || sup.Rehosts != 3 || sup.State != "closed" {
		t.Errorf("supervisor did not force-trip, fail over and re-host: %+v", sup)
	}
}

// TestRestoreHostedLedgerPinned: a snapshot taken mid-tick, with the
// FIFO holding host words and the Memory between sampling a write and
// committing it, Restored onto a runtime whose inlined root is hosted on
// a daemon. The merged root's seed carries every peripheral entry under
// its inlined name, the in-flight ones included, and the hosted hand-off
// bills them per bus word: Stats().Time after the restore and after each
// of 6 ticks is pinned in testdata/TestRestoreHostedLedgerPinned. The
// record was made when state crossed as named values; an image must bill
// the words they did.
func TestRestoreHostedLedgerPinned(t *testing.T) {
	const src = "FIFO#(8, 16) fifo();\nMemory#(4, 16) mem();\n" +
		"reg [7:0] n = 3;\nalways @(posedge clk.val) n <= n + 1;\n" +
		"assign mem.waddr = n[3:0];\nassign mem.wdata = {n, 8'h5a};\nassign mem.wen = 1;\n" +
		"assign mem.raddr = n[3:0] - 1;\nassign fifo.rreq = n[2];\n" +
		"assign led.val = mem.rdata[7:0] ^ fifo.rdata;\n"
	src0 := newTestRuntime(t, Options{Features: Features{DisableJIT: true}})
	src0.MustEval(src)
	src0.World().Stream("main.fifo").PushBytes([]byte("restored"))
	src0.RunTicks(5)
	src0.Step() // rising edge: the Memory has sampled a write it has not committed
	snap := src0.Snapshot()
	if n := fifoDepthOf(src0, snap, "main.fifo"); n == 0 || n == 16 {
		t.Fatal("snapshot FIFO is empty or full")
	}
	if !memoryMidWrite(src0, snap, "main.mem") {
		t.Fatal("snapshot Memory holds no in-flight write")
	}
	r := newTestRuntime(t, Options{Features: Features{DisableJIT: true},
		Remote: &RemoteOptions{Addr: newTestDaemon(t, "", false).addr}})
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%+v\n", r.Stats().Time)
	for i := 0; i < 6; i++ {
		r.RunTicks(1)
		fmt.Fprintf(&sb, "%+v\n", r.Stats().Time)
	}
	r.CloseRemote()
	golden.Check(t, "restore", sb.String())
}

// fifoDepthOf reads how many words the FIFO at path holds in a snapshot
// of r.
func fifoDepthOf(r *Runtime, snap *Snapshot, path string) uint64 {
	return imagetest.Of(r.ver.layoutOf(path), snap.States[path]).Scalar("#n").Uint64()
}

// memoryMidWrite reports whether the Memory at path holds, in a snapshot
// of r, a sampled write it has not committed.
func memoryMidWrite(r *Runtime, snap *Snapshot, path string) bool {
	return imagetest.Of(r.ver.layoutOf(path), snap.States[path]).Scalar("#sampled").Uint64() != 0
}
