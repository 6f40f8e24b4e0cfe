package repl

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cascade/internal/fpga"
	"cascade/internal/runtime"
	"cascade/internal/supervise"
	"cascade/internal/toolchain"
	"cascade/internal/workloads/ledswitch"
)

func newTestREPL(t *testing.T, opts runtime.Options) (*REPL, *strings.Builder) {
	t.Helper()
	var out strings.Builder
	if opts.Device == nil {
		opts.Device = fpga.NewCycloneV()
	}
	if opts.Toolchain == nil {
		o := toolchain.DefaultOptions()
		o.Scale = 1e9
		o.BasePs = 1
		opts.Toolchain = toolchain.New(opts.Device, o)
	}
	r, err := New(opts, &out)
	if err != nil {
		t.Fatal(err)
	}
	return r, &out
}

func TestInputComplete(t *testing.T) {
	complete := []string{
		"wire x;",
		"assign led.val = cnt;",
		"module M(); endmodule",
		"always @(posedge clk.val) begin cnt <= cnt + 1; end",
		"reg [7:0] a = 1;",
	}
	incomplete := []string{
		"module M(",
		"module M();",
		"always @(posedge clk.val) begin",
		"assign x = (a +",
		"case (s)",
		"wire x", // no semicolon
	}
	for _, s := range complete {
		if !InputComplete(s) {
			t.Errorf("should be complete: %q", s)
		}
	}
	for _, s := range incomplete {
		if InputComplete(s) {
			t.Errorf("should be incomplete: %q", s)
		}
	}
}

func TestBatchRunsFigure1Style(t *testing.T) {
	r, out := newTestREPL(t, runtime.Options{})
	err := r.Batch(ledswitch.Figure3WithTasks, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Run some ticks, press a button, expect the display + finish.
	r.Runtime().World().PressPad("main.pad", 1)
	for i := 0; i < 10 && !r.Runtime().Finished(); i++ {
		r.Runtime().RunTicks(1)
	}
	if !r.Runtime().Finished() {
		t.Fatal("button press should have triggered $finish")
	}
	if !strings.Contains(out.String(), "\n") {
		t.Fatalf("no display output: %q", out.String())
	}
}

func TestInteractSession(t *testing.T) {
	r, out := newTestREPL(t, runtime.Options{})
	session := strings.NewReader(`
module Rol(input wire [7:0] x, output wire [7:0] y);
  assign y = (x == 8'h80) ? 1 : (x << 1);
endmodule
reg [7:0] cnt = 1;
Rol r(.x(cnt));
always @(posedge clk.val)
  if (pad.val == 0)
    cnt <= r.y;
assign led.val = cnt;
:run 16
:leds
:phase
:stats
:pad 1
:quit
`)
	if err := r.Interact(session); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "CASCADE >>>") {
		t.Fatal("no prompt")
	}
	if !strings.Contains(text, "led=") {
		t.Fatalf(":leds output missing:\n%s", text)
	}
	if !strings.Contains(text, "phase=") {
		t.Fatalf(":phase output missing:\n%s", text)
	}
	if !strings.Contains(text, "pad=1") {
		t.Fatalf(":pad output missing:\n%s", text)
	}
}

func TestEnginesCommand(t *testing.T) {
	r, out := newTestREPL(t, runtime.Options{Features: runtime.Features{DisableJIT: true}})
	session := strings.NewReader(`
reg [7:0] cnt = 1;
always @(posedge clk.val) cnt <= cnt + 1;
assign led.val = cnt;
:run 8
:engines
:quit
`)
	if err := r.Interact(session); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "TRANSPORT") {
		t.Fatalf(":engines header missing:\n%s", text)
	}
	if !strings.Contains(text, "local") {
		t.Fatalf(":engines should list local transports:\n%s", text)
	}
	if !strings.Contains(text, "software") {
		t.Fatalf(":engines should list engine locations:\n%s", text)
	}
}

// TestHealthCommand pins the :health rendering in both arrangements —
// the golden companion to TestStatsSummaryGolden's supervise[] case.
func TestHealthCommand(t *testing.T) {
	// Supervision off: the command says so instead of rendering zeros.
	r, out := newTestREPL(t, runtime.Options{})
	if err := r.Interact(strings.NewReader(":health\n:quit\n")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "supervision off") {
		t.Fatalf(":health without supervision should say so:\n%s", out.String())
	}

	// Supervision on: the breaker status line, exactly as formatted.
	r, out = newTestREPL(t, runtime.Options{Supervise: &supervise.Options{}})
	if err := r.Interact(strings.NewReader(":health\n:quit\n")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(),
		"breaker=closed probes=0 failures=0 trips=0 failovers=0 rehosts=0") {
		t.Fatalf(":health breaker line missing or drifted:\n%s", out.String())
	}
}

func TestInteractReportsErrors(t *testing.T) {
	r, out := newTestREPL(t, runtime.Options{Features: runtime.Features{DisableJIT: true}})
	session := strings.NewReader("assign q = nothing;\n:quit\n")
	if err := r.Interact(session); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "error:") {
		t.Fatalf("expected an error report:\n%s", out.String())
	}
}

func TestMultiLineInput(t *testing.T) {
	r, out := newTestREPL(t, runtime.Options{Features: runtime.Features{DisableJIT: true}})
	session := strings.NewReader(`
reg [3:0] n = 0;
always @(posedge clk.val) begin
  n <= n + 1;
  if (n == 3)
    $display("three");
end
:run 12
:quit
`)
	if err := r.Interact(session); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "three") {
		t.Fatalf("multi-line always block did not execute:\n%s", out.String())
	}
	// The continuation prompt must have been shown.
	if !strings.Contains(out.String(), "... ") {
		t.Fatalf("no continuation prompt:\n%s", out.String())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "session.snap")

	// Session A: build up state, save, keep running past the save point.
	a, _ := newTestREPL(t, runtime.Options{Features: runtime.Features{DisableOpenLoop: true}})
	session := strings.NewReader(
		"reg [7:0] n = 0; always @(posedge clk.val) n <= n + 1; assign led.val = n;\n" +
			":run 24\n:save " + path + "\n:run 10\n:quit\n")
	if err := a.Interact(session); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	if _, err := runtime.DecodeSnapshot(string(blob)); err != nil {
		t.Fatalf(":save wrote an undecodable snapshot: %v", err)
	}
	// The background scheduler may tick before the counter is eval'd, so
	// the counter trails the tick count by a fixed lag the restored
	// session must reproduce.
	lag := func(r *REPL) uint64 {
		return (r.Runtime().Steps()/2 - r.Runtime().World().Led("main.led")) % 256
	}

	// Session B: :load replaces the fresh program with the saved one and
	// execution continues from the saved tick count.
	b, out := newTestREPL(t, runtime.Options{Features: runtime.Features{DisableOpenLoop: true}})
	if err := b.Interact(strings.NewReader(":load " + path + "\n:run 8\n:quit\n")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "snapshot loaded") {
		t.Fatalf(":load did not confirm:\n%s", out.String())
	}
	if got := b.Runtime().Ticks(); got < 24 {
		t.Fatalf("loaded session should resume past the save point, at tick %d", got)
	}
	if lag(b) != lag(a) {
		t.Fatalf("restored counter out of sync: led=%d steps=%d (lag %d, saved session's %d)",
			b.Runtime().World().Led("main.led"), b.Runtime().Steps(), lag(b), lag(a))
	}
}

func TestLoadRejectsCorruptSnapshotAndKeepsSession(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, out := newTestREPL(t, runtime.Options{Features: runtime.Features{DisableJIT: true}})
	session := strings.NewReader(
		"reg [7:0] n = 3; assign led.val = n;\n:run 4\n:load " + path + "\n:run 4\n:leds\n:quit\n")
	if err := r.Interact(session); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "load failed") {
		t.Fatalf("corrupt snapshot should be rejected:\n%s", out.String())
	}
	// The running program survived the failed load.
	if led := r.Runtime().World().Led("main.led"); led != 3 {
		t.Fatalf("program lost after failed :load: led=%d", led)
	}
}
