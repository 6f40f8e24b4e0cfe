package verilog

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/golden"
	"cascade/internal/vgen"
	"cascade/internal/workloads/nw"
	"cascade/internal/workloads/pow"
	"cascade/internal/workloads/regexgen"
)

// textLayerInput is one source the text-layer golden pins.
type textLayerInput struct{ name, src string }

// textLayerInputs are the workload generators' programs, generated REPL
// sessions, the parser tests' sources and one malformed input per lexical
// and parse diagnostic.
func textLayerInputs(t testing.TB) []textLayerInput {
	powCfg := pow.DefaultConfig()
	powCfg.Display, powCfg.FinishOnFind = true, true
	regex, _, err := regexgen.Generate(`GET /[a-z]*\.html`)
	if err != nil {
		t.Fatal(err)
	}
	nwCfg := nw.DefaultConfig()
	nwCfg.Display, nwCfg.Finish = true, true
	in := []textLayerInput{
		{"pow", pow.Generate(powCfg)},
		{"regex", regex},
		{"nw", nw.Generate(nwCfg)},
		{"chain150", vgen.InlinedChain(150)},
	}
	for _, seed := range []uint64{1, 2, 3} {
		var sb strings.Builder
		for _, st := range vgen.Session(seed).Steps {
			sb.WriteString(st.Source())
		}
		in = append(in, textLayerInput{fmt.Sprintf("session%d", seed), sb.String()})
	}
	in = append(in, []textLayerInput{
		{"running_example", runningExample},
		{"parameterized", "module Counter#(parameter N = 4, parameter [7:0] STEP = 1)(\n  input wire clk,\n  output reg [N-1:0] out\n);\n  always @(posedge clk) out <= out + STEP;\nendmodule\n"},
		{"instance_params", "module M();\n  Pad#(4) pad();\n  Counter#(.N(8), .STEP(2)) c(.clk(clk), .out(o));\n  Rol r2(a, b);\nendmodule\n"},
		{"case_for", "module M(input wire clk);\n  reg [1:0] s;\n  integer i;\n  reg [7:0] acc;\n  always @(posedge clk) begin\n    case (s)\n      2'd0: s <= 2'd1;\n      2'd1, 2'd2: s <= 2'd3;\n      default: s <= 0;\n    endcase\n    casez (s) 2'b1?: acc = 1; 4'b?_01?: ; endcase\n    for (i = 0; i < 4; i = i + 1)\n      acc = acc + i;\n  end\nendmodule\n"},
		{"memory", "module M();\n  reg [31:0] mem [0:63];\n  reg [7:0] a = 8'hff, b;\nendmodule\n"},
		{"repl_items", "reg [7:0] cnt = 1; Rol r(.x(cnt)); assign led.val = cnt;"},
		{"ops", "module Ops(input wire [7:0] a, input wire [7:0] b, output wire [7:0] o);\n  assign o = (~a & b | a ^ b ~^ a ^~ b) + (&a ? |b : ^a) - !a;\n  assign o[0] = a < b && a >= b || a !== b === 1'b1 <= a << 2 >> 1 <<< 3 >>> 4 > a;\n  assign o = ~(&a) + -(-a) + &(&a) + |(|a) + ~(^a) + ^(~a) + !(!a) + ~&a + ~|a + +a;\n  assign o = a ** b ** 2 * 3 / 4 % 5 != 6 == 7;\nendmodule\n"},
		{"literals", "wire [99:0] w = 100'h1_0000_0000_0000_0000_0000_0001 + 'd42 + 'hF + 'b1 + 'o17 + 12_345 + 18446744073709551616 + 64'hffff_ffff_ffff_ffff + 3'B101 + 8'O377 + 8'D255 + 16'Hbeef;"},
		{"strings", "initial begin $display(\"a\\nb\\tc\\\"d\\\\e\\q %d\", $time); $write(\"x\"); $finish; end"},
		{"comments", "module M(); // line\n/* block\ncomment */ wire x;\n\r\t wire y; /**/ wire /* a */ z;\nendmodule // tail"},
		{"ports", "module P(input a, input wire [3:0] b, c, output reg [7:0] q = 8'h1, inout wire io, output o);\n  always @(a or b, negedge c) q <= {b, c, {2{a}}};\n  always @* q = 0;\n  always @(*) q[0] = r.s.t;\n  assign {o, io} = b[1:0];\nendmodule\n"},
		{"expr_precedence", "a + b * c << 2 == d & e | f && g ? h : i ? j : k"},
		{"empty", ""},
		{"unterminated_comment", "wire a;\n/* never\nclosed"},
		{"unterminated_string", "initial $display(\"abc\nwire b;\ninitial $display(\"tail"},
		{"unterminated_string_escape", "initial $display(\"abc\\"},
		{"stray_dollar", "assign a = $ + 1;"},
		{"missing_digits", "assign a = 8'h;\nassign b = 'b ;"},
		{"bad_base", "assign a = 8'q3;\nassign b = 4' ;\nassign c = 8'"},
		{"unexpected_byte", "wire a; \x7f wire b; é\nwire c \\ d;"},
		{"directive", "`timescale 1ns/1ps\nwire a; `define X 1\nwire b;"},
		{"expected_found", "module M(input wire a; endmodule\nmodule N(a); endmodule\nwire = 3;\nalways @(posedge) x <= 1;\nM m(.a(1)) ;\nassign x y;"},
		{"trailing_input", "a + b c"},
		{"trailing_lex_error", "a + b c \"unterminated"},
		{"lex_after_parse_error", "assign = 1;\nwire x = 8'q1;\nmodule Bad(); assign x = ; wire y; endmodule module Good(); wire z; endmodule"},
		{"errors_in_module", "module M();\n  assign x = ;\n  wire y;\n  reg [3:0] r [0:1] = 1;\n  wire w [1:0];\n  foo;\n  if (a) b = 1;\n  initial begin x = 1; end\nendmodule\nmodule"},
		{"port_errors", "module A(a, output b); endmodule\nmodule B(input wire x = 1); endmodule\nmodule C(output reg y = 2, output z = 3); endmodule"},
		{"stmt_errors", "always @(posedge clk) begin x + 1; end\ninitial case (s) 1 x = 1; endcase\ninitial for (i < 3; i = i + 1) ;\ninitial x <= ;"},
		{"truncated", "module M(input wire clk); always @(posedge clk) begin if (x"},
		{"too_many_errors", strings.Repeat("$ ", 250)},
		{"too_many_lex_errors_late", "wire a; wire b;\n" + strings.Repeat("`d\n", 201)},
		// Inputs on which Print once failed to be a fixpoint or to parse
		// back to the same tree (FuzzParseFragment).
		{"fuzz_string_bytes", "always @(posedge clk.val) begin $display(\"n=%\x01\r\xff\u00a0\", n); end"},
		{"fuzz_power_left", "assign x = (a ** b) ** c ** d;"},
		{"fuzz_literal_width", "wire [99:0] w = 18446744073700'h1_00 + 1048576'h1 + 1048577'b1?;"},
		{"fuzz_unary_select", "assign x = (~a)[0] + (-b)[3:0] + {(~a)[1]{b}} + ~((~a)[0]);"},
	}...)
	return in
}

// TestTextLayerGolden pins the text layer byte for byte on every input:
// the token stream with each token's line:col, the diagnostics of every
// parse entry point in order, the AST of ParseProgramFragment (and of
// ParseExpr where that accepts the input) with every Pos, and Print of
// every module and item.
func TestTextLayerGolden(t *testing.T) {
	for _, in := range textLayerInputs(t) {
		t.Run(in.name, func(t *testing.T) {
			golden.Check(t, in.name, textLayerRecord(in.src))
		})
	}
}

func textLayerRecord(src string) string {
	var sb strings.Builder
	toks, lexErrs := LexAll(src)
	sb.WriteString("== tokens\n")
	for _, tk := range toks {
		fmt.Fprintf(&sb, "%s %s %q\n", tk.Pos, tk.Kind, tk.Text)
	}
	diag := func(entry string, errs []error) {
		fmt.Fprintf(&sb, "== %s diagnostics (%d)\n", entry, len(errs))
		for _, e := range errs {
			sb.WriteString(e.Error())
			sb.WriteByte('\n')
		}
	}
	diag("LexAll", lexErrs)
	st, errs := ParseSourceText(src)
	diag("ParseSourceText", errs)
	fmt.Fprintf(&sb, "ParseSourceText modules: %d\n", len(st.Modules))
	items, errs := ParseItems(src)
	diag("ParseItems", errs)
	fmt.Fprintf(&sb, "ParseItems items: %d\n", len(items))
	e, errs := ParseExpr(src)
	diag("ParseExpr", errs)
	if errs == nil {
		sb.WriteString("== ParseExpr ast\n")
		dumpAST(&sb, reflect.ValueOf(&e).Elem(), 0)
		sb.WriteString("\n== ParseExpr print\n")
		sb.WriteString(Print(e))
		sb.WriteByte('\n')
	}
	mods, frag, errs := ParseProgramFragment(src)
	diag("ParseProgramFragment", errs)
	sb.WriteString("== ParseProgramFragment ast")
	for _, m := range mods {
		dumpAST(&sb, reflect.ValueOf(m), 0)
	}
	for _, it := range frag {
		dumpAST(&sb, reflect.ValueOf(&it).Elem(), 0)
	}
	sb.WriteString("\n== ParseProgramFragment print\n")
	for _, m := range mods {
		sb.WriteString(Print(m))
	}
	for _, it := range frag {
		sb.WriteString(Print(it))
		sb.WriteByte('\n')
	}
	return sb.String()
}

var (
	stmtType   = reflect.TypeOf((*Stmt)(nil)).Elem()
	itemType   = reflect.TypeOf((*Item)(nil)).Elem()
	posType    = reflect.TypeOf(Pos{})
	vectorType = reflect.TypeOf(&bits.Vector{})
)

// dumpAST writes v as an S-expression, every Pos as @line:col; modules,
// items, case arms and statements start lines of their own, indented by
// depth.
func dumpAST(sb *strings.Builder, v reflect.Value, depth int) {
	switch v.Kind() {
	case reflect.Interface:
		if v.IsNil() {
			sb.WriteString("nil")
			return
		}
		dumpAST(sb, v.Elem(), depth)
	case reflect.Ptr:
		if v.IsNil() {
			sb.WriteString("nil")
			return
		}
		if v.Type() == vectorType {
			vec := v.Interface().(*bits.Vector)
			fmt.Fprintf(sb, "%d'%x", vec.Width(), vec.Words())
			return
		}
		t := v.Type()
		if t.Implements(stmtType) || t.Implements(itemType) || t == reflect.TypeOf(&Module{}) || t == reflect.TypeOf(&CaseItem{}) {
			sb.WriteByte('\n')
			sb.WriteString(strings.Repeat("  ", depth))
			depth++
		}
		dumpAST(sb, v.Elem(), depth)
	case reflect.Struct:
		if v.Type() == posType {
			fmt.Fprintf(sb, "@%s", v.Interface().(Pos))
			return
		}
		sb.WriteString("(" + v.Type().Name())
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			sb.WriteByte(' ')
			if f.Type() != posType {
				sb.WriteString(v.Type().Field(i).Name + "=")
			}
			dumpAST(sb, f, depth)
		}
		sb.WriteString(")")
	case reflect.Slice:
		if v.IsNil() {
			sb.WriteString("nil")
			return
		}
		sb.WriteString("[")
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				sb.WriteByte(' ')
			}
			dumpAST(sb, v.Index(i), depth)
		}
		sb.WriteString("]")
	case reflect.String:
		sb.WriteString(strconv.Quote(v.String()))
	default:
		fmt.Fprint(sb, v.Interface())
	}
}
