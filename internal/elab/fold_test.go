package elab

import (
	"testing"

	"cascade/internal/bits"
)

func rhsOf(t *testing.T, src string) Expr {
	t.Helper()
	f := elaborate(t, src, nil)
	return f.Assigns[len(f.Assigns)-1].RHS
}

func TestFoldConstantArithmetic(t *testing.T) {
	e := rhsOf(t, `module M(output wire [7:0] o); assign o = 8'd2 + 8'd3 * 8'd4; endmodule`)
	c, ok := e.(*Const)
	if !ok {
		t.Fatalf("not folded: %T", e)
	}
	if c.V.Uint64() != 14 {
		t.Fatalf("folded to %d", c.V.Uint64())
	}
}

func TestFoldConcatSliceRepl(t *testing.T) {
	e := rhsOf(t, `module M(output wire [11:0] o); assign o = {2'b10, {2{3'b011}}, 4'hf[3:2]}; endmodule`)
	if _, ok := e.(*Const); !ok {
		t.Fatalf("concat of constants not folded: %T", e)
	}
}

func TestFoldTernarySelectsArm(t *testing.T) {
	e := rhsOf(t, `module M(input wire [7:0] x, output wire [7:0] o); assign o = 1'b1 ? x : 8'hff; endmodule`)
	if _, ok := e.(*VarRef); !ok {
		t.Fatalf("const-cond ternary should select the arm: %T", e)
	}
}

func TestFoldIdentities(t *testing.T) {
	for _, src := range []string{
		`module M(input wire [7:0] x, output wire [7:0] o); assign o = x + 8'd0; endmodule`,
		`module M(input wire [7:0] x, output wire [7:0] o); assign o = x * 8'd1; endmodule`,
		`module M(input wire [7:0] x, output wire [7:0] o); assign o = x & 8'hff; endmodule`,
		`module M(input wire [7:0] x, output wire [7:0] o); assign o = x >> 8'd0; endmodule`,
	} {
		e := rhsOf(t, src)
		if _, ok := e.(*VarRef); !ok {
			t.Errorf("identity not simplified in %q: %T", src, e)
		}
	}
	e := rhsOf(t, `module M(input wire [7:0] x, output wire [7:0] o); assign o = x & 8'h00; endmodule`)
	if c, ok := e.(*Const); !ok || !c.V.IsZero() {
		t.Errorf("x&0 should fold to zero: %T", e)
	}
}

func TestFoldDoesNotTruncateEarly(t *testing.T) {
	// (0 - 1) at 32 bits under a 40-bit assignment context: the
	// subtraction must NOT fold before widening, or the high 8 bits
	// would wrongly read zero. Verify by value.
	f := elaborate(t, `
module M(output wire [39:0] o);
  assign o = 32'd0 - 32'd1;
endmodule`, nil)
	v := Eval(f.Assigns[0].RHS, constEnvForTest{})
	want := bits.New(40).Not() // all-ones at 40 bits
	if !v.Resize(40).Equal(want) {
		t.Fatalf("borrow lost: got %v, want %v", v.Resize(40), want)
	}
}

type constEnvForTest struct{}

func (constEnvForTest) VarValue(v *Var) *bits.Vector         { return bits.New(v.Width) }
func (constEnvForTest) ArrayWord(v *Var, i int) *bits.Vector { return bits.New(v.Width) }
func (constEnvForTest) Now() uint64                          { return 0 }
func (constEnvForTest) Tmp(width int) *bits.Vector           { return bits.New(width) }

func TestFoldSafeArithmeticStillFolds(t *testing.T) {
	// 3 - 1 fits without borrowing: folds even pre-widening.
	e := rhsOf(t, `module M(output wire [39:0] o); assign o = 32'd3 - 32'd1; endmodule`)
	if c, ok := e.(*Const); !ok || c.V.Uint64() != 2 {
		t.Fatalf("safe sub not folded: %T", e)
	}
}

func TestFoldReductionOfConst(t *testing.T) {
	e := rhsOf(t, `module M(output wire o); assign o = &4'hf; endmodule`)
	if c, ok := e.(*Const); !ok || !c.V.Bool() {
		t.Fatalf("reduction not folded: %T", e)
	}
}

func TestFoldBitNotStaysUnfolded(t *testing.T) {
	// ~const is width-sensitive under widening: must not fold early.
	e := rhsOf(t, `module M(output wire [39:0] o); assign o = ~32'd0; endmodule`)
	if _, ok := e.(*Const); ok {
		t.Fatal("~const folded before widening (width-unsafe)")
	}
	f := elaborate(t, `module M(output wire [39:0] o); assign o = ~32'd0; endmodule`, nil)
	v := Eval(f.Assigns[0].RHS, constEnvForTest{})
	if !v.Resize(40).Equal(bits.New(40).Not()) {
		t.Fatalf("~0 at widened width wrong: %v", v)
	}
}
