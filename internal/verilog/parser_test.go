package verilog

import (
	"fmt"
	"strings"
	"testing"
)

// ParseExpr parses a single expression: how the parser, printer, golden
// and fuzz tests drive the expression grammar alone. Production parses
// expressions only inside items (ParseProgramFragment).
func ParseExpr(src string) (Expr, []error) {
	var p Parser
	p.init(src, -1)
	return p.expr(), p.diagnostics()
}

// expr parses the whole input as one expression, or returns nil.
func (p *Parser) expr() (e Expr) {
	defer func() {
		if r := recover(); r != nil {
			p.record(r)
		}
	}()
	e = p.parseExpr()
	if !p.at(EOF) {
		p.errs = append(p.errs, fmt.Errorf("%s: trailing input after expression", p.tok.Pos))
	}
	return e
}

// runningExample is the paper's Figure 1 program.
const runningExample = `
module Rol(
  input wire [7:0] x,
  output wire [7:0] y
);
  assign y = (x == 8'h80) ? 1 : (x << 1);
endmodule

module Main(
  input wire clk,
  input wire [3:0] pad,
  output wire [7:0] led
);
  reg [7:0] cnt = 1;
  Rol r(.x(cnt));
  always @(posedge clk)
    if (pad == 0)
      cnt <= r.y;
    else begin
      $display(cnt);
      $finish;
    end
  assign led = cnt;
endmodule
`

func mustParse(t *testing.T, src string) *SourceText {
	t.Helper()
	st, errs := ParseSourceText(src)
	if len(errs) > 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	return st
}

func TestParseRunningExample(t *testing.T) {
	st := mustParse(t, runningExample)
	if len(st.Modules) != 2 {
		t.Fatalf("got %d modules, want 2", len(st.Modules))
	}
	rol, main := st.Modules[0], st.Modules[1]
	if rol.Name != "Rol" || main.Name != "Main" {
		t.Fatalf("module names: %s, %s", rol.Name, main.Name)
	}
	if len(rol.Ports) != 2 || rol.Ports[0].Dir != Input || rol.Ports[1].Dir != Output {
		t.Fatalf("Rol ports wrong: %+v", rol.Ports)
	}
	if len(main.Items) != 4 {
		t.Fatalf("Main items: got %d, want 4", len(main.Items))
	}
	inst, ok := main.Items[1].(*Instance)
	if !ok || inst.ModName != "Rol" || inst.Name != "r" {
		t.Fatalf("instance wrong: %+v", main.Items[1])
	}
	if len(inst.Conns) != 1 || inst.Conns[0].Name != "x" {
		t.Fatalf("connection wrong: %+v", inst.Conns)
	}
	alw, ok := main.Items[2].(*AlwaysBlock)
	if !ok || len(alw.Events) != 1 || alw.Events[0].Edge != Posedge {
		t.Fatalf("always wrong: %+v", main.Items[2])
	}
	ifs, ok := alw.Body.(*If)
	if !ok {
		t.Fatalf("always body is %T, want *If", alw.Body)
	}
	pa, ok := ifs.Then.(*ProcAssign)
	if !ok || pa.Blocking {
		t.Fatalf("then branch should be a non-blocking assign: %+v", ifs.Then)
	}
	if _, ok := pa.RHS.(*HierIdent); !ok {
		t.Fatalf("rhs should be hierarchical r.y: %T", pa.RHS)
	}
	blk, ok := ifs.Else.(*Block)
	if !ok || len(blk.Stmts) != 2 {
		t.Fatalf("else branch wrong: %+v", ifs.Else)
	}
	disp := blk.Stmts[0].(*SysTask)
	if disp.Name != "$display" || len(disp.Args) != 1 {
		t.Fatalf("display wrong: %+v", disp)
	}
	fin := blk.Stmts[1].(*SysTask)
	if fin.Name != "$finish" {
		t.Fatalf("finish wrong: %+v", fin)
	}
}

func TestParseParameterizedModule(t *testing.T) {
	src := `
module Counter#(parameter N = 4, parameter [7:0] STEP = 1)(
  input wire clk,
  output reg [N-1:0] out
);
  always @(posedge clk) out <= out + STEP;
endmodule
`
	st := mustParse(t, src)
	m := st.Modules[0]
	if len(m.Params) != 2 || m.Params[0].Name != "N" || m.Params[1].Name != "STEP" {
		t.Fatalf("params wrong: %+v", m.Params)
	}
	if m.Params[1].Range == nil {
		t.Fatal("STEP should carry a range")
	}
	if m.Ports[1].Kind != Reg {
		t.Fatal("out should be a reg port")
	}
}

func TestParseInstanceParamStyles(t *testing.T) {
	src := `
module M();
  Pad#(4) pad();
  Counter#(.N(8), .STEP(2)) c(.clk(clk), .out(o));
  Rol r2(a, b);
endmodule
`
	st := mustParse(t, src)
	items := st.Modules[0].Items
	pad := items[0].(*Instance)
	if len(pad.Params) != 1 || pad.Params[0].Name != "" {
		t.Fatalf("positional param wrong: %+v", pad.Params)
	}
	c := items[1].(*Instance)
	if len(c.Params) != 2 || c.Params[0].Name != "N" {
		t.Fatalf("named params wrong: %+v", c.Params)
	}
	r2 := items[2].(*Instance)
	if len(r2.Conns) != 2 || r2.Conns[0].Name != "" {
		t.Fatalf("positional conns wrong: %+v", r2.Conns)
	}
}

func TestParsePrecedence(t *testing.T) {
	e, errs := ParseExpr("a + b * c << 2 == d & e | f && g")
	if errs != nil {
		t.Fatal(errs)
	}
	// Expected grouping: ((((a + (b*c)) << 2) == d) & e | f) && g
	top := e.(*Binary)
	if top.Op != BLogAnd {
		t.Fatalf("top op: %v", top.Op)
	}
	or := top.X.(*Binary)
	if or.Op != BBitOr {
		t.Fatalf("next op: %v", or.Op)
	}
	and := or.X.(*Binary)
	if and.Op != BBitAnd {
		t.Fatalf("next op: %v", and.Op)
	}
	eq := and.X.(*Binary)
	if eq.Op != BEq {
		t.Fatalf("next op: %v", eq.Op)
	}
	shl := eq.X.(*Binary)
	if shl.Op != BShl {
		t.Fatalf("next op: %v", shl.Op)
	}
	add := shl.X.(*Binary)
	if add.Op != BAdd {
		t.Fatalf("next op: %v", add.Op)
	}
	if add.Y.(*Binary).Op != BMul {
		t.Fatal("b*c should bind tighter than +")
	}
}

func TestParsePowerRightAssoc(t *testing.T) {
	e, errs := ParseExpr("a ** b ** c")
	if errs != nil {
		t.Fatal(errs)
	}
	top := e.(*Binary)
	if top.Op != BPow {
		t.Fatal("top should be power")
	}
	if _, ok := top.Y.(*Binary); !ok {
		t.Fatal("power should be right-associative")
	}
}

func TestParseTernaryAndConcat(t *testing.T) {
	e, errs := ParseExpr("sel ? {a, 2'b01, {3{b}}} : c[7:4]")
	if errs != nil {
		t.Fatal(errs)
	}
	tern := e.(*Ternary)
	cc := tern.Then.(*Concat)
	if len(cc.Parts) != 3 {
		t.Fatalf("concat parts: %d", len(cc.Parts))
	}
	if _, ok := cc.Parts[2].(*Repl); !ok {
		t.Fatal("third part should be replication")
	}
	if _, ok := tern.Else.(*RangeSel); !ok {
		t.Fatal("else should be a part select")
	}
}

func TestParseUnaryReductions(t *testing.T) {
	for src, op := range map[string]UnaryOp{
		"&x": URedAnd, "|x": URedOr, "^x": URedXor,
		"~&x": URedNand, "~|x": URedNor, "~^x": URedXnor, "!x": UNot, "~x": UBitNot, "-x": UNeg,
	} {
		e, errs := ParseExpr(src)
		if errs != nil {
			t.Fatalf("%s: %v", src, errs)
		}
		if u := e.(*Unary); u.Op != op {
			t.Fatalf("%s: got op %v, want %v", src, u.Op, op)
		}
	}
}

func TestParseCaseAndFor(t *testing.T) {
	src := `
module M(input wire clk);
  reg [1:0] s;
  integer i;
  reg [7:0] acc;
  always @(posedge clk) begin
    case (s)
      2'd0: s <= 2'd1;
      2'd1, 2'd2: s <= 2'd3;
      default: s <= 0;
    endcase
    for (i = 0; i < 4; i = i + 1)
      acc = acc + i;
  end
endmodule
`
	st := mustParse(t, src)
	alw := st.Modules[0].Items[3].(*AlwaysBlock)
	blk := alw.Body.(*Block)
	cs := blk.Stmts[0].(*Case)
	if len(cs.Items) != 3 {
		t.Fatalf("case items: %d", len(cs.Items))
	}
	if len(cs.Items[1].Exprs) != 2 {
		t.Fatal("second arm should have two labels")
	}
	if cs.Items[2].Exprs != nil {
		t.Fatal("third arm should be default")
	}
	f := blk.Stmts[1].(*For)
	if !f.Init.Blocking || !f.Post.Blocking {
		t.Fatal("for clauses must be blocking assigns")
	}
}

func TestParseMemoryDecl(t *testing.T) {
	src := `
module M();
  reg [31:0] mem [0:63];
  reg [7:0] a = 8'hff, b;
endmodule
`
	st := mustParse(t, src)
	d := st.Modules[0].Items[0].(*NetDecl)
	if d.Names[0].Array == nil {
		t.Fatal("mem should have array range")
	}
	d2 := st.Modules[0].Items[1].(*NetDecl)
	if len(d2.Names) != 2 || d2.Names[0].Init == nil || d2.Names[1].Init != nil {
		t.Fatalf("multi declarator wrong: %+v", d2.Names)
	}
}

func TestParseItemsForRepl(t *testing.T) {
	items, errs := ParseItems(`reg [7:0] cnt = 1; Rol r(.x(cnt)); assign led.val = cnt;`)
	if errs != nil {
		t.Fatal(errs)
	}
	if len(items) != 3 {
		t.Fatalf("got %d items", len(items))
	}
	ca := items[2].(*ContAssign)
	if _, ok := ca.LHS.(*HierIdent); !ok {
		t.Fatal("assign target should be hierarchical led.val")
	}
}

func TestParseErrorsRecover(t *testing.T) {
	src := `
module Bad();
  assign x = ;
  wire y;
endmodule
module Good();
  wire z;
endmodule
`
	st, errs := ParseSourceText(src)
	if len(errs) == 0 {
		t.Fatal("expected errors")
	}
	if len(st.Modules) != 2 {
		t.Fatalf("recovery should still yield 2 modules, got %d", len(st.Modules))
	}
	if len(st.Modules[1].Items) != 1 {
		t.Fatal("Good module should parse cleanly after error")
	}
}

func TestParseErrorMessagesHavePositions(t *testing.T) {
	_, errs := ParseSourceText("module M();\n  assign = 1;\nendmodule")
	if len(errs) == 0 {
		t.Fatal("expected error")
	}
	if !strings.Contains(errs[0].Error(), "2:") {
		t.Fatalf("error should cite line 2: %v", errs[0])
	}
}

func TestParseCommentsAndDirectives(t *testing.T) {
	src := "module M(); // line\n/* block\ncomment */ wire x;\nendmodule"
	st := mustParse(t, src)
	if len(st.Modules[0].Items) != 1 {
		t.Fatal("comments should be skipped")
	}
}

func TestLexSizedLiterals(t *testing.T) {
	toks, errs := LexAll("8'h80 4'b10_10 'd42 12 x")
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	want := []string{"8'h80", "4'b10_10", "'d42", "12"}
	for i, w := range want {
		if toks[i].Kind != NUMBER || toks[i].Text != w {
			t.Fatalf("token %d: got %v, want NUMBER %q", i, toks[i], w)
		}
	}
	if toks[4].Kind != IDENT {
		t.Fatal("x should lex as identifier")
	}
}

func TestLexOperators(t *testing.T) {
	toks, errs := LexAll("=== !== <<< >>> << >> <= >= == != && || ~& ~| ~^ ^~ **")
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	want := []TokenKind{CaseEq, CaseNotEq, AShl, AShr, Shl, Shr, LtEq, GtEq, EqEq, NotEq,
		AndAnd, OrOr, TildeAmp, TildePipe, TildeXor, TildeXor, PowerOp, EOF}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Fatalf("token %d: got %v, want %v", i, toks[i].Kind, k)
		}
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, errs := LexAll(`"a\nb\tc\"d"`)
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	if toks[0].Text != "a\nb\tc\"d" {
		t.Fatalf("string: %q", toks[0].Text)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, "/* unterminated", "8'q3", "$"} {
		_, errs := LexAll(src)
		if len(errs) == 0 {
			t.Fatalf("LexAll(%q): expected error", src)
		}
	}
}
