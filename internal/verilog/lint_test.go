package verilog

import (
	"strings"
	"testing"
)

func lintSrc(t *testing.T, src string) []Warning {
	t.Helper()
	mods, items, errs := ParseProgramFragment(src)
	if errs != nil {
		t.Fatal(errs)
	}
	return Lint(mods, items)
}

func hasWarning(ws []Warning, substr string) bool {
	for _, w := range ws {
		if strings.Contains(w.Msg, substr) {
			return true
		}
	}
	return false
}

func TestLintBlockingInClockedBlock(t *testing.T) {
	ws := lintSrc(t, `
module M(input wire clk);
  reg [3:0] q;
  always @(posedge clk) q = q + 1;
endmodule`)
	if !hasWarning(ws, "blocking assignment in a clocked") {
		t.Fatalf("missing warning: %v", ws)
	}
}

func TestLintNonblockingInCombBlock(t *testing.T) {
	ws := lintSrc(t, `
module M(input wire a);
  reg q;
  always @(*) q <= a;
endmodule`)
	if !hasWarning(ws, "non-blocking assignment in a combinational") {
		t.Fatalf("missing warning: %v", ws)
	}
}

func TestLintIncompleteSensitivityList(t *testing.T) {
	ws := lintSrc(t, `
module M(input wire a, input wire b);
  reg q;
  always @(a) q = a & b;
endmodule`)
	if !hasWarning(ws, "missing from the sensitivity list") {
		t.Fatalf("missing warning: %v", ws)
	}
	// Complete lists and @* are clean.
	ws = lintSrc(t, `
module M(input wire a, input wire b);
  reg q, p;
  always @(a or b) q = a & b;
  always @(*) p = a | b;
endmodule`)
	if hasWarning(ws, "sensitivity") {
		t.Fatalf("false positive: %v", ws)
	}
}

func TestLintUnusedVariable(t *testing.T) {
	ws := lintSrc(t, `
module M(input wire a);
  wire ghost;
  wire used;
  assign used = a;
endmodule
wire root_ghost;`)
	if !hasWarning(ws, "ghost is declared but never used") {
		t.Fatalf("missing module-scope warning: %v", ws)
	}
	if !hasWarning(ws, "root_ghost is declared but never used") {
		t.Fatalf("missing root-scope warning: %v", ws)
	}
	if hasWarning(ws, "used is declared") {
		t.Fatalf("false positive on used: %v", ws)
	}
}

func TestLintCleanProgramIsQuiet(t *testing.T) {
	ws := lintSrc(t, `
module Rol(input wire [7:0] x, output wire [7:0] y);
  assign y = (x == 8'h80) ? 1 : (x << 1);
endmodule
reg [7:0] cnt = 1;
Rol r(.x(cnt));
always @(posedge clk.val) cnt <= r.y;
assign led.val = cnt;`)
	// clk/led are prelude instances unknown to the linter's scope — only
	// structural warnings matter; there must be none.
	if len(ws) != 0 {
		t.Fatalf("clean program warned: %v", ws)
	}
}

// TestLintSourceOrder: one eval's warnings print in source order, the
// same on every call (they were built by ranging over maps).
func TestLintSourceOrder(t *testing.T) {
	mods, items, errs := ParseProgramFragment(`wire a; wire b; wire c; wire d; wire e;
reg [3:0] x = 0;
always @(a) x = b + c + d;`)
	if errs != nil {
		t.Fatal(errs)
	}
	want := []string{
		"1:38: warning: e is declared but never used in the root module",
		"3:17: warning: b is read but missing from the sensitivity list in the root module (simulation and hardware may diverge; use @*)",
		"3:21: warning: c is read but missing from the sensitivity list in the root module (simulation and hardware may diverge; use @*)",
		"3:25: warning: d is read but missing from the sensitivity list in the root module (simulation and hardware may diverge; use @*)",
	}
	for i := 0; i < 200; i++ {
		ws := Lint(mods, items)
		got := make([]string, len(ws))
		for j, w := range ws {
			got[j] = w.String()
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("call %d:\n%s\nwant:\n%s", i, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}
