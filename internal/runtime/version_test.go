package runtime

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cascade/internal/fpga"
	"cascade/internal/toolchain"
	"cascade/internal/vclock"
)

// twoModules is a two-subprogram program: instance a of M counts in a.x,
// which inlining renames a__x (ir.PrefixOf), and the root adds its own
// counter and drives the LEDs from both.
const twoModules = `
module M(input wire c, output wire [7:0] o);
  reg [7:0] x = 1;
  always @(posedge c) x <= x + 1;
  assign o = x;
endmodule
wire [7:0] w;
M a(.c(clk.val), .o(w));
reg [7:0] n = 0;
always @(posedge clk.val) begin
  n <= n + 2;
  if (n[2:0] == 0) $display("n=%d x=%d", n, w);
end
assign led.val = w + n;
`

// inlineCollision is legal Verilog whose root declaration meets a.x's
// inlined name: refused when the runtime inlines, accepted when it does
// not (DESIGN.md "Program versions").
const inlineCollision = `reg [7:0] a__x = 3;`

// TestRejectedInlineLeavesProgramRunning: a fragment that only the
// merged root's elaboration can refuse used to be refused after the eval
// had been journaled, the program replaced and every engine torn down —
// leaving an empty schedule that ticked on, failing every later eval,
// and a journal that could never be replayed.
func TestRejectedInlineLeavesProgramRunning(t *testing.T) {
	check := func(t *testing.T, r *Runtime) {
		t.Helper()
		r.RunTicks(5)
		st, phase, src := r.Stats(), r.Phase(), r.ProgramSource()
		err := r.Eval(inlineCollision)
		if err == nil {
			t.Fatal("colliding fragment accepted")
		}
		if msg := err.Error(); !strings.Contains(msg, "3:13: duplicate declaration of a__x") || strings.Contains(msg, "module") {
			t.Fatalf("error should name the declaration and its position, not print the merged module: %v", err)
		}
		if got := r.Stats(); len(got.Engines) != len(st.Engines) || got.Persist.Records != st.Persist.Records {
			t.Fatalf("refusal left %d engines, %d journal records, want %d, %d",
				len(got.Engines), got.Persist.Records, len(st.Engines), st.Persist.Records)
		}
		if r.Phase() != phase || r.ProgramSource() != src {
			t.Fatalf("refusal moved the program: phase %v -> %v\n%s", phase, r.Phase(), r.ProgramSource())
		}
		before := r.World().Led("main.led")
		r.RunTicks(1)
		if got := r.World().Led("main.led"); got != (before+3)&0xff {
			t.Fatalf("program stopped counting: led %d -> %d", before, got)
		}
		if err := r.Eval("reg [3:0] z = 0;"); err != nil {
			t.Fatalf("eval after the refusal: %v", err)
		}
	}

	t.Run("memory", func(t *testing.T) {
		// Lock-step throughout, so a tick is a tick (as persistTestOptions).
		r := newTestRuntime(t, Options{Features: Features{DisableOpenLoop: true}})
		r.MustEval(twoModules)
		check(t, r)
	})

	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		opts, _ := persistTestOptions(dir, 1, nil)
		r, _, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		r.MustEval(DefaultPrelude)
		r.MustEval(twoModules)
		check(t, r)
		led := r.World().Led("main.led")
		if err := r.ClosePersistence(); err != nil {
			t.Fatal(err)
		}
		opts, _ = persistTestOptions(dir, 1, nil)
		r2, info, err := Open(opts)
		if err != nil {
			t.Fatalf("reopen after a refused eval: %v", err)
		}
		defer r2.ClosePersistence()
		if !info.Recovered || r2.World().Led("main.led") != led {
			t.Fatalf("recovered=%v led=%d, want led %d", info.Recovered, r2.World().Led("main.led"), led)
		}
	})

	// Without inlining nothing is renamed, so the name is free.
	t.Run("accepted without inlining", func(t *testing.T) {
		r := newTestRuntime(t, Options{Features: Features{DisableInline: true}})
		r.MustEval(twoModules)
		r.RunTicks(5)
		if err := r.Eval(inlineCollision); err != nil {
			t.Fatalf("flat design refused a free name: %v", err)
		}
		before := r.World().Led("main.led")
		r.RunTicks(1)
		if got := r.World().Led("main.led"); got != (before+3)&0xff || len(r.Stats().Engines) != 5 {
			t.Fatalf("led %d -> %d, engines %d", before, got, len(r.Stats().Engines))
		}
	})
}

// TestUnreachableDaemonRejectsEvalCleanly: the daemon is dialled before
// an eval commits, so with nobody listening the eval is refused with
// nothing installed — it used to commit first, and the retry then failed
// with "duplicate instance name clk".
func TestUnreachableDaemonRejectsEvalCleanly(t *testing.T) {
	d := newTestDaemon(t, "", false)
	d.kill()
	dev := fpga.NewCycloneV()
	r := New(Options{Device: dev, Toolchain: fastToolchain(dev), Remote: &RemoteOptions{Addr: d.addr}})
	defer r.CloseRemote()
	if err := r.Eval(DefaultPrelude); err == nil {
		t.Fatal("eval succeeded with no daemon listening")
	}
	if n := len(r.Stats().Engines); n != 0 || r.ProgramSource() != "" || r.Phase() != PhaseEmpty {
		t.Fatalf("refused eval left engines=%d phase=%v source=%q", n, r.Phase(), r.ProgramSource())
	}
	d.restart()
	if err := r.Eval(DefaultPrelude); err != nil {
		t.Fatalf("the same eval once the daemon listens: %v", err)
	}
	if n := len(r.Stats().Engines); n != 4 {
		t.Fatalf("engines = %d, want the root and three peripherals", n)
	}
}

// evalRun is everything observable about a session: invariant 16 demands
// it be identical whether or not a refused eval was attempted mid-run.
type evalRun struct {
	Display  string
	Leds     []uint64
	Phases   []Phase
	Snapshot string
	Time     vclock.Breakdown
	Records  uint64 // journal records appended (0 when not durable)
}

// runAttempting runs twoModules for 3 ticks, attempts fragment ("" for
// the reference run), which must be refused, and runs 21 ticks more. The
// toolchain is paced so the attempt lands in the software phase with the
// fabric compile in flight and the hot swap lands afterwards: a refusal
// that cancelled or re-billed anything moves the trajectory. Lock step
// throughout: open-loop bursts are sized by the host's wall clock.
func runAttempting(t *testing.T, feats Features, par int, durable bool, fragment string) evalRun {
	t.Helper()
	feats.DisableOpenLoop = true
	view := &BufView{Quiet: true}
	dev := fpga.NewCycloneV()
	pace := toolchain.DefaultOptions()
	pace.Scale = 40_000
	opts := Options{Device: dev, Toolchain: toolchain.New(dev, pace), View: view, Parallelism: par, Features: feats}
	var r *Runtime
	if durable {
		opts.Persist = &PersistOptions{Dir: t.TempDir(), EverySteps: 16}
		var err error
		if r, _, err = Open(opts); err != nil {
			t.Fatal(err)
		}
		defer r.ClosePersistence()
	} else {
		r = New(opts)
	}
	r.MustEval(DefaultPrelude)
	r.MustEval(twoModules)
	var run evalRun
	tick := func(n int) {
		for i := 0; i < n; i++ {
			r.RunTicks(1)
			run.Leds = append(run.Leds, r.World().Led("main.led"))
			run.Phases = append(run.Phases, r.Phase())
		}
	}
	tick(3)
	if fragment != "" {
		if err := r.Eval(fragment); err == nil {
			t.Fatalf("eval(%q) should fail", fragment)
		}
	}
	tick(21)
	st := r.Stats()
	run.Display, run.Snapshot = view.Output(), EncodeSnapshot(r.Snapshot())
	run.Time, run.Records = st.Time, st.Persist.Records
	return run
}

// TestEvalErrorLeavesProgramIntact is DESIGN.md key invariant 16, "a
// rejected eval is invisible": for every way the front end can refuse a
// fragment, in every configuration, a session that attempts the fragment
// is byte-identical — display output, LED trace, phase trajectory, final
// snapshot, virtual-time ledger, journal length — to one that never did.
func TestEvalErrorLeavesProgramIntact(t *testing.T) {
	fragments := []struct{ class, src string }{
		{"duplicate driver", `assign led.val = 1;`}, // would double-drive through promotion collision
		{"parse error", `wire [3:0] w = ;`},
		{"undeclared identifier", `assign q = missing;`},
		{"duplicate module", `module Rol(); endmodule
		 module Rol(); endmodule`},
		{"elaboration error in a declared module", `module Bad(input wire c, output wire [3:0] o);
		   wire [3:0] q = 4'd5; assign o = q[7:4]; endmodule
		 wire [3:0] bo; Bad b(.c(clk.val), .o(bo));`},
		{"inline name collision", inlineCollision},
	}
	for cfg := 0; cfg < 16; cfg++ {
		feats := Features{DisableInline: cfg&1 != 0, NativeTier: cfg&2 != 0}
		durable, par := cfg&4 != 0, 1+3*(cfg>>3)
		t.Run(fmt.Sprintf("inline=%v native=%v durable=%v par=%d", !feats.DisableInline, feats.NativeTier, durable, par), func(t *testing.T) {
			want := runAttempting(t, feats, par, durable, "")
			if len(want.Display) == 0 || want.Phases[2] >= PhaseHardware || want.Phases[23] < PhaseHardware || durable == (want.Records == 0) {
				t.Fatalf("reference run should print, swap to hardware after tick 3 and journal iff durable: %+v", want)
			}
			for _, f := range fragments {
				if f.src == inlineCollision && feats.DisableInline {
					continue // accepted: nothing is renamed (TestRejectedInlineLeavesProgramRunning)
				}
				if got := runAttempting(t, feats, par, durable, f.src); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: the refused eval is visible:\n got %+v\nwant %+v", f.class, got, want)
				}
			}
		})
	}
}
