package runtime

import (
	"strings"
	"testing"

	"cascade/internal/fpga"
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
