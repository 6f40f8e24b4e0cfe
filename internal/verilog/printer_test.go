package verilog

import (
	"reflect"
	"testing"
)

// stripPos recursively zeroes Pos fields so structural comparison ignores
// source locations.
func stripPos(v reflect.Value) {
	switch v.Kind() {
	case reflect.Ptr, reflect.Interface:
		if !v.IsNil() {
			stripPos(v.Elem())
		}
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(Pos{}) {
			if v.CanSet() {
				v.Set(reflect.Zero(v.Type()))
			}
			return
		}
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if f.CanSet() || f.Kind() == reflect.Ptr || f.Kind() == reflect.Interface || f.Kind() == reflect.Slice || f.Kind() == reflect.Struct {
				stripPos(f)
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			stripPos(v.Index(i))
		}
	}
}

func normalized(t *testing.T, st *SourceText) *SourceText {
	t.Helper()
	stripPos(reflect.ValueOf(st))
	return st
}

// Round-trip property: print(parse(x)) reparses to the same AST.
func TestPrintRoundTrip(t *testing.T) {
	sources := []string{
		runningExample,
		`module Counter#(parameter N = 4)(input wire clk, output reg [N-1:0] out);
		   always @(posedge clk) out <= out + 1;
		 endmodule`,
		`module M();
		   reg [31:0] mem [0:63];
		   integer i;
		   wire [7:0] a, b;
		   assign a = mem[3][7:0];
		   always @(*) begin
		     if (a > b) mem[0] <= {a, b};
		     else case (a)
		       8'h00: mem[1] <= 0;
		       8'h01, 8'h02: mem[2] <= {4{a[1:0]}};
		       default: ;
		     endcase
		   end
		   initial begin
		     for (i = 0; i < 4; i = i + 1)
		       mem[i] = i * 2 ** 3 % 5;
		     $display("%d %h", a, b);
		     $finish;
		   end
		 endmodule`,
		`module Ops(input wire [7:0] a, input wire [7:0] b, output wire [7:0] o);
		   assign o = (~a & b | a ^ b ~^ a) + (&a ? |b : ^a) - !a;
		   assign o[0] = a < b && a >= b || a !== b === 1'b1;
		 endmodule`,
		// A unary operator applied to a unary operator keeps its
		// parentheses: ~(&a) printed ~&a is a nand, &(&a) a parse error.
		`module Nest(input wire [7:0] a, output wire [7:0] o);
		   assign o = ~(&a) + -(-a) + &(&a) + |(|a) + ~(^a) + ^(~a) + !(!a);
		 endmodule`,
	}
	for i, src := range sources {
		st1, errs := ParseSourceText(src)
		if errs != nil {
			t.Fatalf("case %d: parse 1: %v", i, errs)
		}
		var printed string
		for _, m := range st1.Modules {
			printed += Print(m)
		}
		st2, errs := ParseSourceText(printed)
		if errs != nil {
			t.Fatalf("case %d: reparse failed: %v\nprinted:\n%s", i, errs, printed)
		}
		if !reflect.DeepEqual(normalized(t, st1), normalized(t, st2)) {
			t.Fatalf("case %d: round trip changed AST.\nprinted:\n%s", i, printed)
		}
	}
}

func TestPrintExprPrecedenceParens(t *testing.T) {
	e, errs := ParseExpr("(a + b) * c")
	if errs != nil {
		t.Fatal(errs)
	}
	got := Print(e)
	e2, errs := ParseExpr(got)
	if errs != nil {
		t.Fatalf("reparse %q: %v", got, errs)
	}
	stripPos(reflect.ValueOf(&e))
	stripPos(reflect.ValueOf(&e2))
	if !reflect.DeepEqual(e, e2) {
		t.Fatalf("round trip changed %q", got)
	}
}
