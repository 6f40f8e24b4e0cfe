package verilog

import (
	"reflect"
	"testing"
)

// FuzzParseFragment is the native fuzz target the CI smoke-runs: no
// input, however mangled, may panic the lexer or any parser entry
// point, and whatever ParseProgramFragment accepts must print to a
// fixpoint that re-parses to the same tree: for every module and root
// item, Print(parse(Print(x))) == Print(x) and parse(Print(x)) equals x
// but for positions (the REPL echoes programs back through Print, and
// snapshots, checkpoints and the engine daemon are fed with it).
func FuzzParseFragment(f *testing.F) {
	seeds := []string{
		"",
		"wire x;",
		"module M(input wire c, output wire [7:0] y); assign y = c ? 1 : 0; endmodule",
		"reg [7:0] cnt = 1;\nalways @(posedge clk.val) cnt <= (cnt == 8'h80) ? 1 : (cnt << 1);",
		"always @(posedge clk.val) begin $display(\"n=%d\", n); if (n == 9) $finish; end",
		"case (s) 2'b00: x = 1; default: x = 0; endcase",
		"assign led.val = g0.out ^ g1.out;",
		"module M(; endmodule",
		"8'hZZ 4'bxx01 {a, b[3:0], 2'd3}",
		"// comment\n/* block */ wire y;",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// The golden's inputs seed it too, but for the generated programs: the
	// golden covers those whole, and a fuzzer that mutates tens of
	// kilobytes spends its time minimizing them.
	for _, in := range textLayerInputs(f) {
		if len(in.src) <= 2048 {
			f.Add(in.src)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		LexAll(src)
		ParseSourceText(src)
		ParseItems(src)
		ParseExpr(src)
		mods, items, errs := ParseProgramFragment(src)
		if len(errs) > 0 {
			return
		}
		for _, m := range mods {
			printed := Print(m)
			st, es := ParseSourceText(printed)
			if len(es) > 0 || len(st.Modules) != 1 {
				t.Fatalf("printed module does not parse back to one module: %v\n%s", es, printed)
			}
			requireRoundTrip(t, m, st.Modules[0], printed)
		}
		for _, it := range items {
			printed := Print(it)
			again, es := ParseItems(printed)
			if len(es) > 0 || len(again) != 1 {
				t.Fatalf("printed item does not parse back to one item: %v\n%s", es, printed)
			}
			requireRoundTrip(t, it, again[0], printed)
		}
	})
}

// requireRoundTrip fails unless reparsed, parsed from printed = Print(n),
// prints to printed again and equals n but for positions.
func requireRoundTrip(t *testing.T, n, reparsed Node, printed string) {
	t.Helper()
	if again := Print(reparsed); again != printed {
		t.Fatalf("Print is no fixpoint:\n%s\nprints again as\n%s", printed, again)
	}
	stripPos(reflect.ValueOf(&n))
	stripPos(reflect.ValueOf(&reparsed))
	if !reflect.DeepEqual(n, reparsed) {
		t.Fatalf("printed source parses to another tree:\n%s", printed)
	}
}
