package elab

import (
	"strings"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/verilog"
)

func parseOne(t *testing.T, src string) *verilog.Module {
	t.Helper()
	st, errs := verilog.ParseSourceText(src)
	if errs != nil {
		t.Fatalf("parse: %v", errs)
	}
	return st.Modules[0]
}

func elaborate(t *testing.T, src string, params map[string]*bits.Vector) *Flat {
	t.Helper()
	f, err := Elaborate(parseOne(t, src), "dut", params)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	return f
}

func elaborateErr(t *testing.T, src string) error {
	t.Helper()
	_, err := Elaborate(parseOne(t, src), "dut", nil)
	if err == nil {
		t.Fatalf("expected elaboration error for:\n%s", src)
	}
	return err
}

func TestElaborateRol(t *testing.T) {
	f := elaborate(t, `
module Rol(input wire [7:0] x, output wire [7:0] y);
  assign y = (x == 8'h80) ? 1 : (x << 1);
endmodule`, nil)
	if len(f.Inputs) != 1 || f.Inputs[0].Name != "x" || f.Inputs[0].Width != 8 {
		t.Fatalf("inputs wrong: %+v", f.Inputs)
	}
	if len(f.Outputs) != 1 || f.Outputs[0].Name != "y" {
		t.Fatalf("outputs wrong: %+v", f.Outputs)
	}
	if len(f.Assigns) != 1 {
		t.Fatal("expected one assign")
	}
	// The unsized literal 1 is 32 bits, so the ternary is 32 bits and is
	// truncated at the assignment boundary (IEEE sizing rules).
	tern := f.Assigns[0].RHS.(*Ternary)
	if tern.Width() != 32 {
		t.Fatalf("ternary width: %d", tern.Width())
	}
}

func TestParameterBindingAndOverride(t *testing.T) {
	src := `
module C#(parameter N = 4)(output wire [N-1:0] o);
  localparam HALF = N / 2;
  wire [HALF-1:0] h;
  assign o = 0;
endmodule`
	f := elaborate(t, src, nil)
	if f.VarNamed("o").Width != 4 || f.VarNamed("h").Width != 2 {
		t.Fatalf("default param widths wrong: o=%d h=%d", f.VarNamed("o").Width, f.VarNamed("h").Width)
	}
	f = elaborate(t, src, map[string]*bits.Vector{"N": bits.FromUint64(32, 8)})
	if f.VarNamed("o").Width != 8 || f.VarNamed("h").Width != 4 {
		t.Fatalf("override widths wrong: o=%d h=%d", f.VarNamed("o").Width, f.VarNamed("h").Width)
	}
	if _, err := Elaborate(parseOne(t, src), "dut", map[string]*bits.Vector{"Q": bits.FromUint64(32, 8)}); err == nil {
		t.Fatal("unknown parameter override should fail")
	}
}

func TestRegInitializers(t *testing.T) {
	f := elaborate(t, `
module M();
  reg [7:0] cnt = 1;
  reg [7:0] z;
endmodule`, nil)
	if f.VarNamed("cnt").Init.Uint64() != 1 {
		t.Fatal("cnt init wrong")
	}
	if f.VarNamed("z").Init != nil {
		t.Fatal("z should have no init")
	}
}

func TestForUnrolling(t *testing.T) {
	f := elaborate(t, `
module M(input wire clk);
  integer i;
  reg [31:0] acc;
  always @(posedge clk)
    for (i = 0; i < 4; i = i + 1)
      acc = acc + i;
endmodule`, nil)
	body := f.Procs[0].Body.(*Block)
	if len(body.Stmts) != 4 {
		t.Fatalf("unrolled to %d stmts, want 4", len(body.Stmts))
	}
	// Third iteration should add the constant 2.
	a := body.Stmts[2].(*Assign)
	add := a.RHS.(*Binary)
	c := add.Y.(*Const)
	if c.V.Uint64() != 2 {
		t.Fatalf("loop constant: got %d, want 2", c.V.Uint64())
	}
}

func TestForNonConstantBoundFails(t *testing.T) {
	err := elaborateErr(t, `
module M(input wire [3:0] n, input wire clk);
  integer i;
  reg [3:0] a;
  always @(posedge clk)
    for (i = 0; i < n; i = i + 1) a = a + 1;
endmodule`)
	if !strings.Contains(err.Error(), "constant") {
		t.Fatalf("error should mention constant bounds: %v", err)
	}
}

func TestMemoryDeclAndAccess(t *testing.T) {
	f := elaborate(t, `
module M(input wire clk, input wire [5:0] addr, output wire [31:0] q);
  reg [31:0] mem [0:63];
  assign q = mem[addr];
  always @(posedge clk) mem[addr] <= q + 1;
endmodule`, nil)
	mem := f.VarNamed("mem")
	if mem.ArrayLen != 64 || mem.Width != 32 {
		t.Fatalf("mem shape wrong: %+v", mem)
	}
	if _, ok := f.Assigns[0].RHS.(*ArrayRef); !ok {
		t.Fatal("q should read an ArrayRef")
	}
	asg := f.Procs[0].Body.(*Assign)
	if asg.LHS[0].ArrIndex == nil {
		t.Fatal("mem write should have array index")
	}
}

func TestMemoryWithNonZeroLowBound(t *testing.T) {
	f := elaborate(t, `
module M(input wire [3:0] a, output wire [7:0] q);
  reg [7:0] mem [2:5];
  assign q = mem[a];
endmodule`, nil)
	mem := f.VarNamed("mem")
	if mem.ArrayLen != 4 || mem.ArrayLo != 2 {
		t.Fatalf("mem bounds wrong: %+v", mem)
	}
	ar := f.Assigns[0].RHS.(*ArrayRef)
	if _, ok := ar.Index.(*Binary); !ok {
		t.Fatal("index should be rebased by low bound")
	}
}

func TestWidthRules(t *testing.T) {
	f := elaborate(t, `
module M(input wire [3:0] a, input wire [7:0] b, output wire [11:0] o, output wire c);
  assign o = a + b;
  assign c = a < b;
endmodule`, nil)
	add := f.Assigns[0].RHS.(*Binary)
	if add.Width() != 12 {
		t.Fatalf("assignment context should widen a+b to 12, got %d", add.Width())
	}
	cmp := f.Assigns[1].RHS.(*Binary)
	if cmp.Width() != 1 {
		t.Fatalf("comparison width should be 1, got %d", cmp.Width())
	}
}

func TestConcatAndReplWidths(t *testing.T) {
	f := elaborate(t, `
module M(input wire [3:0] a, output wire [19:0] o);
  assign o = {a, 2'b01, {2{a[1:0]}}, a[3], {5{1'b1}}};
endmodule`, nil)
	cc := f.Assigns[0].RHS.(*Concat)
	if cc.Width() != 4+2+4+1+5 {
		t.Fatalf("concat width: %d", cc.Width())
	}
}

func TestLValueForms(t *testing.T) {
	f := elaborate(t, `
module M(input wire clk, input wire [2:0] i);
  reg [7:0] r;
  always @(posedge clk) begin
    r <= 1;
    r[3] <= 0;
    r[i] <= 1;
    r[7:4] <= 4'hf;
  end
endmodule`, nil)
	b := f.Procs[0].Body.(*Block)
	a0 := b.Stmts[0].(*Assign).LHS[0]
	if a0.HasRange || a0.DynBit != nil {
		t.Fatal("full write wrong")
	}
	a1 := b.Stmts[1].(*Assign).LHS[0]
	if !a1.HasRange || a1.Hi != 3 || a1.Lo != 3 {
		t.Fatal("const bit write wrong")
	}
	a2 := b.Stmts[2].(*Assign).LHS[0]
	if a2.DynBit == nil {
		t.Fatal("dynamic bit write wrong")
	}
	a3 := b.Stmts[3].(*Assign).LHS[0]
	if !a3.HasRange || a3.Hi != 7 || a3.Lo != 4 {
		t.Fatal("part write wrong")
	}
}

func TestConcatLValue(t *testing.T) {
	f := elaborate(t, `
module M(input wire clk);
  reg [3:0] hi, lo;
  always @(posedge clk) {hi, lo} <= 8'hab;
endmodule`, nil)
	p := f.Procs[0]
	a := p.Body.(*Assign)
	if len(a.LHS) != 2 || p.Frame[a.LHS[0].Var].Name != "hi" || p.Frame[a.LHS[1].Var].Name != "lo" {
		t.Fatalf("concat lvalue wrong: %+v", a.LHS)
	}
}

func TestSysTasks(t *testing.T) {
	f := elaborate(t, `
module M(input wire clk);
  reg [7:0] x;
  always @(posedge clk) begin
    $display("%d %h", x, x);
    $display(x);
    $write("no newline");
    $finish;
  end
endmodule`, nil)
	b := f.Procs[0].Body.(*Block)
	d0 := b.Stmts[0].(*SysTask)
	if d0.Kind != TaskDisplay || d0.Format != "%d %h" || len(d0.Args) != 2 {
		t.Fatalf("display wrong: %+v", d0)
	}
	d1 := b.Stmts[1].(*SysTask)
	if d1.Format != "" || len(d1.Args) != 1 {
		t.Fatalf("bare display wrong: %+v", d1)
	}
	if b.Stmts[2].(*SysTask).Kind != TaskWrite {
		t.Fatal("write wrong")
	}
	if b.Stmts[3].(*SysTask).Kind != TaskFinish {
		t.Fatal("finish wrong")
	}
}

func TestSensitivityReadSet(t *testing.T) {
	f := elaborate(t, `
module M(input wire [1:0] s, input wire [7:0] a, input wire [7:0] b, output reg [7:0] o);
  always @(*)
    if (s == 0) o = a;
    else o = b;
endmodule`, nil)
	p := f.Procs[0]
	if !p.Star {
		t.Fatal("should be star-sensitive")
	}
	names := map[string]bool{}
	for _, r := range p.Reads {
		names[p.Frame[r].Name] = true
	}
	if !names["s"] || !names["a"] || !names["b"] || names["o"] {
		t.Fatalf("read set wrong: %v", names)
	}
}

func TestDriverClassErrors(t *testing.T) {
	elaborateErr(t, `
module M();
  reg r;
  assign r = 1;
endmodule`)
	elaborateErr(t, `
module M(input wire clk);
  wire w;
  always @(posedge clk) w <= 1;
endmodule`)
	elaborateErr(t, `
module M(input wire i);
  assign i = 1;
endmodule`)
}

func TestErrorCases(t *testing.T) {
	cases := []string{
		`module M(); wire x; assign y = x; endmodule`,                              // undeclared
		`module M(); wire x; wire x; endmodule`,                                    // duplicate
		`module M(); wire [0:7] x; endmodule`,                                      // non-[N:0] range
		`module M(input wire [3:0] a); wire y; assign y = a[9]; endmodule`,         // oob bit
		`module M(input wire [3:0] a); wire [9:0] y; assign y = a[9:0]; endmodule`, // oob slice
		`module M(); reg [7:0] m [0:3]; wire x; assign x = m; endmodule`,           // bare memory
		`module M(input wire clk); always @(posedge clk) $strobe; endmodule`,       // unknown task
		`module M(inout wire x); endmodule`,                                        // inout
	}
	for _, src := range cases {
		elaborateErr(t, src)
	}
}

func TestStringLiteralExpr(t *testing.T) {
	f := elaborate(t, `
module M(output wire [15:0] o);
  assign o = "ok";
endmodule`, nil)
	c := f.Assigns[0].RHS.(*Const)
	if c.V.Width() != 16 {
		t.Fatalf("string width: %d", c.V.Width())
	}
	if c.V.Uint64() != uint64('o')<<8|uint64('k') {
		t.Fatalf("string packing wrong: %x", c.V.Uint64())
	}
}

func TestEvalConstFolding(t *testing.T) {
	f := elaborate(t, `
module M#(parameter N = 3)(output wire [7:0] o);
  localparam V = (N + 1) * 4 - 2 ** 2 + {2'b10, 2'b01};
  assign o = V;
endmodule`, nil)
	// (3+1)*4 - 4 + 0b1001 = 16-4+9 = 21
	if got := f.Params["V"].Uint64(); got != 21 {
		t.Fatalf("localparam V: got %d, want 21", got)
	}
}

func TestTimeRef(t *testing.T) {
	f := elaborate(t, `
module M(input wire clk);
  always @(posedge clk) $display("%d", $time);
endmodule`, nil)
	st := f.Procs[0].Body.(*SysTask)
	if _, ok := st.Args[0].(*TimeRef); !ok {
		t.Fatal("$time should resolve to TimeRef")
	}
}

// TestElaborateFromRefusesAsFromScratch: a relocated assign still claims
// its targets, so a second driver is refused where it drives, and a
// relocated declaration still claims its name.
func TestElaborateFromRefusesAsFromScratch(t *testing.T) {
	a := parseOne(t, "module M(input wire [7:0] x);\n  wire [7:0] w;\n  assign w = x;\nendmodule")
	for _, extra := range []string{"assign w = 8'd3;", "reg [3:0] x;", "wire [7:0] w;"} {
		b := parseOne(t, "module M(input wire [7:0] x);\n  "+extra+"\nendmodule")
		b.Items = append(append([]verilog.Item{}, a.Items...), b.Items...)
		fa, err := Elaborate(a, "dut", nil)
		if err != nil {
			t.Fatal(err)
		}
		_, got := ElaborateFrom(fa, b, "dut", nil)
		_, want := Elaborate(b, "dut", nil)
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Fatalf("%s: refused with %v, from scratch %v", extra, got, want)
		}
	}
}
