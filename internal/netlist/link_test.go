package netlist

import (
	"reflect"
	"testing"

	"cascade/internal/elab"
	"cascade/internal/verilog"
	"cascade/internal/vgen"
)

// sameProgram fails unless got and want are the same netlist field for
// field.
func sameProgram(t *testing.T, what string, got, want *Program) {
	t.Helper()
	for _, fd := range []struct {
		name      string
		got, want any
	}{
		{"Fingerprint", got.Fingerprint(), want.Fingerprint()},
		{"Code", got.Code, want.Code},
		{"Slots", got.Slots, want.Slots},
		{"VarSlot", got.VarSlot, want.VarSlot},
		{"MemOf", got.MemOf, want.MemOf},
		{"Comb", got.Comb, want.Comb},
		{"Seq", got.Seq, want.Seq},
		{"Monitors", got.Monitors, want.Monitors},
		{"Tasks", got.Tasks, want.Tasks},
		{"Stats", got.Stats, want.Stats},
		{"Spans", got.Spans, want.Spans},
	} {
		if !reflect.DeepEqual(fd.got, fd.want) {
			t.Fatalf("%s: programs differ in %s", what, fd.name)
		}
	}
}

// TestOptimizeIsCompilesCleanup: the cleanup Compile runs per unit is
// Optimize's — the ablation pair differs only in the dead code.
func TestOptimizeIsCompilesCleanup(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		f := flatten(t, vgen.Module(seed).String())
		raw, err := CompileRaw(f)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		sameProgram(t, vgen.Module(seed).String(), Optimize(raw), opt)
	}
}

// parseModule parses one module declaration.
func parseModule(t *testing.T, src string) *verilog.Module {
	t.Helper()
	st, errs := verilog.ParseSourceText(src)
	if errs != nil {
		t.Fatalf("parse: %v\n%s", errs, src)
	}
	return st.Modules[0]
}

// TestCompileFromKeyMutations: a unit is relocated only while what its
// code was compiled against is unchanged. Each pair elaborates the very
// same item objects — a clocked process reading d, K and m, an assign
// reading d, a $monitor reading w — against two versions of their
// declarations: the units that read the changed one are compiled again,
// the others relocated, and either way the program is the one Compile
// builds from scratch.
func TestCompileFromKeyMutations(t *testing.T) {
	const shared = `
  always @(posedge clk) begin
    q <= d + K + m[3];
    if (q[0]) $display("q=%d", q);
  end
  assign w = d ^ 8'h5a;
  initial $monitor("w=%d", w);
endmodule`
	const ports = "module M(input wire clk, output reg [15:0] q, output wire [7:0] w"
	base := ports + ", output reg [7:0] d);\n  localparam K = 3;\n  reg [7:0] m [0:3];\n"
	for _, tc := range []struct {
		name, decls string
		relocated   int
	}{
		{"a read declaration changes width", ports + ", output reg [11:0] d);\n  localparam K = 3;\n  reg [7:0] m [0:3];\n", 1},
		{"a port flips from reg to wire", ports + ", output wire [7:0] d);\n  localparam K = 3;\n  reg [7:0] m [0:3];\n", 1},
		{"a memory's bounds move", ports + ", output reg [7:0] d);\n  localparam K = 3;\n  reg [7:0] m [2:5];\n", 2},
		{"a parameter changes value", ports + ", output reg [7:0] d);\n  localparam K = 4;\n  reg [7:0] m [0:3];\n", 0},
		{"nothing changes", base, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := parseModule(t, base+shared)
			b := parseModule(t, tc.decls+"endmodule")
			b.Items = append(b.Items, a.Items[len(a.Items)-3:]...) // the same objects
			fa, err := elab.Elaborate(a, "dut", nil)
			if err != nil {
				t.Fatal(err)
			}
			fb, err := elab.Elaborate(b, "dut", nil)
			if err != nil {
				t.Fatal(err)
			}
			pa, err := Compile(fa)
			if err != nil {
				t.Fatal(err)
			}
			got, err := CompileFrom(pa, fb)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Compile(fb)
			if err != nil {
				t.Fatal(err)
			}
			sameProgram(t, tc.name, got, want)
			if got.Relocated != tc.relocated {
				t.Fatalf("relocated %d of %d units, want %d", got.Relocated, len(got.Spans), tc.relocated)
			}
		})
	}
}

// TestCompileFromChain: along a chain of growing generated modules that
// share every earlier item object, each version linked from the last is
// the version compiled from scratch.
func TestCompileFromChain(t *testing.T) {
	relocated := 0
	for seed := uint64(0); seed < 40; seed++ {
		m := parseModule(t, vgen.Module(seed).String())
		var prev *Program
		for n := 0; n <= len(m.Items); n++ {
			cut := &verilog.Module{NamePos: m.NamePos, Name: m.Name, Params: m.Params, Ports: m.Ports, Items: m.Items[:n]}
			f, err := elab.Elaborate(cut, "dut", nil)
			if err != nil {
				continue // a prefix may read what a later item declares
			}
			want, err := Compile(f)
			if err != nil {
				continue
			}
			got, err := CompileFrom(prev, f)
			if err != nil {
				t.Fatalf("seed %d prefix %d: %v", seed, n, err)
			}
			sameProgram(t, "chain", got, want)
			prev, relocated = got, relocated+got.Relocated
		}
	}
	if relocated == 0 {
		t.Fatal("no unit was ever relocated")
	}
}
