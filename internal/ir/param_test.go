package ir

import (
	"fmt"
	"testing"

	"cascade/internal/elab"
	"cascade/internal/verilog"
)

// TestParameterExpressions: a parameter's default, its override at the
// instantiation and a range bound are constant expressions like any other,
// so Build takes every operator the elaborator folds — it used to keep an
// evaluator of its own that refused xnor, concatenation, replication and
// reductions — and both passes reach the same value: the subprogram's
// header parameters and the width of the port sized by them.
func TestParameterExpressions(t *testing.T) {
	for _, c := range []struct {
		name, param, override string
		want                  uint64 // P as the child sees it
	}{
		{"xnor", "P = 8'd3 ~^ 8'd5", "", 0xf9},
		{"concat", "P = {4'd1, 4'd2}", "", 0x12},
		{"replication", "P = {2{3'd5}}", "", 0x2d},
		{"reduction", "P = &4'hf + ^3'b110", "", 1},
		{"ternary", "P = (2 > 1) ? 6'd33 : 6'd4", "", 33},
		{"override: xnor", "P = 1", "#({1'b1, 3'd2} ~^ 4'd5)", 0x0},
		{"override: reduction of a parent constant", "P = 1", "#({3{|K}})", 7},
		// The range is part of a ranged parameter's context (IEEE 1364
		// §4.4): the carry out of four bits is kept, then cut to the range.
		{"ranged: carry kept", "[7:0] P = 4'd15 + 4'd1", "", 16},
		{"ranged: cut to range", "[3:0] P = 8'd250 + 8'd9", "", 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			mods, items, errs := verilog.ParseProgramFragment(fmt.Sprintf(`
module Child#(parameter %s)(input wire c, output wire [P+HALF-1:0] o);
  localparam HALF = 8 / 2;
  assign o = P;
endmodule
Clock clk(); localparam K = 2'd2; wire [300:0] w; Child%s ch(.c(clk.val), .o(w));`, c.param, c.override))
			if errs != nil {
				t.Fatal(errs)
			}
			p := NewProgram()
			if err := p.DeclareModule(mods[0]); err != nil {
				t.Fatal(err)
			}
			p.AddRootItems(items...)
			d, err := Build(p, testRegistry())
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			sub := d.Sub("main.ch")
			f, err := elab.Elaborate(sub.Module, sub.Path, sub.Params)
			if err != nil {
				t.Fatalf("elaborate: %v", err)
			}
			if a, b := sub.Params["P"].Uint64(), f.Params["P"].Uint64(); a != c.want || b != c.want {
				t.Errorf("Build evaluates P to %#x, Elaborate to %#x, want %#x", a, b, c.want)
			}
			// The root's promoted input for ch.o is as wide as Build thinks
			// the port is; the child's port as wide as Elaborate does.
			root, err := elab.Elaborate(d.Sub("main").Module, "main", nil)
			if err != nil {
				t.Fatalf("elaborate root: %v", err)
			}
			if a, b := root.VarNamed("ch__o").Width, f.VarNamed("o").Width; a != b || b != int(c.want)+4 {
				t.Errorf("port o: %d bits in the parent, %d in the child, want %d", a, b, c.want+4)
			}
		})
	}
}
