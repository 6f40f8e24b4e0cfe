package ir_test

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"cascade/internal/elab"
	"cascade/internal/golden"
	"cascade/internal/ir"
	"cascade/internal/metrics"
	"cascade/internal/stdlib"
	"cascade/internal/verilog"
	"cascade/internal/vgen"
	"cascade/internal/workloads/ledswitch"
	"cascade/internal/workloads/nw"
	"cascade/internal/workloads/pow"
	"cascade/internal/workloads/regexgen"
)

// prelude is the runtime's default IO environment, which every input is
// built over.
const prelude = "Clock clk(); Pad#(4) pad(); Led#(8) led();"

// readerInputs are the programs TestSourceReadersGolden reads: the
// workloads, generated sessions, the inlined edit chain and the lint
// tests' sources.
func readerInputs(t *testing.T) [][2]string {
	t.Helper()
	regex, _, err := regexgen.Generate("(ab|cd)+e")
	if err != nil {
		t.Fatal(err)
	}
	stream, _, err := regexgen.GenerateStreaming(`GET /[a-z]*\.html`)
	if err != nil {
		t.Fatal(err)
	}
	nwAlt := nw.DefaultConfig()
	nwAlt.SeqA, nwAlt.SeqB, nwAlt.Display, nwAlt.Finish = []byte("ACGTTGCA"), []byte("AGGTCA"), true, true
	in := [][2]string{
		{"pow", pow.Generate(pow.DefaultConfig()) + `
wire [31:0] hashes, nonce, hash0, sol;
wire found;
Pow miner(.clk(clk.val), .hashes(hashes), .nonce(nonce), .found(found), .hash0(hash0), .solution(sol));
`},
		{"regexgen", regex},
		{"regexgen-stream", stream},
		{"nw", nw.GenerateProgram(nw.DefaultConfig())},
		{"nw-display", nw.GenerateProgram(nwAlt)},
		{"ledswitch-figure1", ledswitch.Figure1 + "Main m(.clk(clk.val), .pad(pad.val), .led(led.val));\n"},
		{"ledswitch-figure3", ledswitch.Figure3},
		{"ledswitch-figure3-tasks", ledswitch.Figure3WithTasks},
	}
	for seed := uint64(1); seed <= 8; seed++ {
		var sb strings.Builder
		for _, st := range vgen.Session(seed).Steps {
			sb.WriteString(st.Source())
		}
		in = append(in, [2]string{fmt.Sprintf("vgen-session-%d", seed), sb.String()})
	}
	in = append(in, [2]string{"inlined-chain-20", vgen.InlinedChain(20) + "main chain(.clk__val(clk.val));\n"})
	in = append(in, [2]string{"hier-refs", `
module H(input wire c, input wire [7:0] d, output wire [7:0] q);
  reg [7:0] r = 3;
  integer n = 0;
  assign q = r ^ d;
  always @(posedge c) r <= r + 1;
endmodule
H h(.c(clk.val), .d(8'd1));
H g(.c(clk.val));
reg [7:0] acc = 0;
reg [7:0] mem [0:7];
integer i;
assign g.d = h.q;
always @(posedge clk.val) begin
  for (i = h.q[2:0]; i < g.r; i = i + h.n) acc <= acc + i;
  case (g.q) h.r, 8'd9: acc <= 0; default: $display("%d", g.r);
  endcase
  mem[h.q[2:0]] <= g.q;
  if (pad.val[0]) acc[g.r[2:0]] <= g.n[0];
end
always @(g.q or h.q) $display("%d", {h.r, g.q});
assign led.val = acc;
`})
	for i, src := range []string{`
module M(input wire clk);
  reg [3:0] q;
  always @(posedge clk) q = q + 1;
endmodule`, `
module M(input wire a);
  reg q;
  always @(*) q <= a;
endmodule`, `
module M(input wire a, input wire b);
  reg q;
  always @(a) q = a & b;
endmodule`, `
module M(input wire a, input wire b);
  reg q, p;
  always @(a or b) q = a & b;
  always @(*) p = a | b;
endmodule`, `
module M(input wire a);
  wire ghost;
  wire used;
  assign used = a;
endmodule
wire root_ghost;`, `
module Rol(input wire [7:0] x, output wire [7:0] y);
  assign y = (x == 8'h80) ? 1 : (x << 1);
endmodule
reg [7:0] cnt = 1;
Rol r(.x(cnt));
always @(posedge clk.val) cnt <= r.y;
assign led.val = cnt;`, `
wire a; wire b; wire c; wire d;
reg [3:0] x = 0;
always @(a) x = b + c + d;`, `
reg [7:0] m [0:3];
integer i;
reg [7:0] s = 0;
always @(a) begin
  for (i = 0; i < 4; i = i + 1) m[i] <= s + i;
  case (s) 0, 1: s = m[s[1:0]]; default: $display("%d", s);
  endcase
end`} {
		in = append(in, [2]string{fmt.Sprintf("lint-%d", i+1), src})
	}
	return in
}

// malformedInputs are programs ir.Build refuses, one per error it
// raises; each is built over the prelude and these declarations.
const malformedDecls = `
module A(input wire x, output wire [3:0] y);
  reg [7:0] mem [0:3];
  reg [5:0] r = 0;
  assign y = 4'd1;
endmodule
module B #(parameter P = 1, parameter Q = 2)(input wire [P:0] x);
endmodule
`

var malformedInputs = [][2]string{
	{"unknown-module", "Nope n();"},
	{"unknown-port", "A a(.z(1));"},
	{"unknown-std-port", "Pad#(4) p2(.z(1));"},
	{"port-connected-twice", "A a(.x(1), .x(0));"},
	{"too-many-connections", "A a(1, w, 2);\nwire [3:0] w;"},
	{"too-many-std-connections", "Led#(8) l2(1, 2);"},
	{"too-many-parameters", "B #(1, 2, 3) b(.x(1));"},
	{"too-many-std-parameters", "Pad#(4, 5) p2();"},
	{"unknown-parameter", "B #(.R(1)) b(.x(1));"},
	{"unknown-std-parameter", "Led#(.M(1)) l2();"},
	{"hier-read-of-input", "A a(.x(1));\nwire w = a.x;"},
	{"hier-read-of-std-input", "wire [7:0] w = led.val;"},
	{"hier-read-of-memory", "A a(.x(1));\nwire [7:0] w = a.mem;"},
	{"hier-read-of-nothing", "A a(.x(1));\nwire w = a.nothing;"},
	{"hier-read-of-std-nothing", "wire w = pad.nothing;"},
	{"hier-write-of-output", "A a(.x(1));\nassign a.y = 4'd2;"},
	{"hier-write-of-register", "A a(.x(1));\nalways @(posedge clk.val) a.r <= 1;"},
	{"output-to-non-lvalue", "A a(.x(1), .y(4'd1 + 4'd2));"},
	{"below-direct-child", "A a(.x(1));\nwire w = a.b.c;"},
	{"not-an-instance", "wire w = q.x;"},
	{"duplicate-instance", "A a(.x(1));\nA a(.x(0));"},
	{"promoted-both-sides", "module C(input wire b__c);\nendmodule\nmodule D(output wire c);\nendmodule\nC a(.b__c(1));\nD a__b(.c(w));\nwire w;"},
	{"promoted-twice", "module C(input wire b__c);\nendmodule\nmodule D(input wire c);\nendmodule\nC a(.b__c(1));\nD a__b(.c(0));"},
	{"promoted-twice-read", "module C(output wire b__c);\nendmodule\nmodule E;\n  reg c = 1;\nendmodule\nwire w;\nC a(.b__c(w));\nE a__b();\nwire v = a__b.c;"},
}

// TestSourceReadersGolden pins what every reader of parsed source makes
// of each input: the lint warnings sorted by position, the Table 1
// counts metrics.Analyze takes, and ir.Build's split — each
// subprogram's path, its ports in order (direction, kind, width) and the
// wires — or the error a malformed program raises.
func TestSourceReadersGolden(t *testing.T) {
	for _, in := range readerInputs(t) {
		t.Run(in[0], func(t *testing.T) {
			var sb strings.Builder
			mods, items, errs := verilog.ParseProgramFragment(in[1])
			if errs != nil {
				t.Fatal(errs)
			}
			writeLint(&sb, mods, items)
			r, err := metrics.Analyze(in[1])
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "metrics: lines=%d always=%d blocking=%d nonblocking=%d display=%d\n",
				r.Lines, r.AlwaysBlocks, r.BlockingAssigns, r.NonblockingAssigns, r.DisplayStmts)
			writeSplit(t, &sb, prelude+"\n"+in[1])
			golden.Check(t, in[0], sb.String())
		})
	}
	var sb strings.Builder
	for _, in := range malformedInputs {
		p := program(t, prelude+"\n"+malformedDecls+in[1])
		_, err := ir.Build(p, stdlib.Registry())
		if err == nil {
			t.Errorf("%s: built", in[0])
			continue
		}
		fmt.Fprintf(&sb, "%-26s %v\n", in[0], err)
	}
	golden.Check(t, "malformed", sb.String())
}

func program(t *testing.T, src string) *ir.Program {
	t.Helper()
	mods, items, errs := verilog.ParseProgramFragment(src)
	if errs != nil {
		t.Fatal(errs)
	}
	p := ir.NewProgram()
	for _, m := range mods {
		if err := p.DeclareModule(m); err != nil {
			t.Fatal(err)
		}
	}
	p.AddRootItems(items...)
	return p
}

func writeLint(sb *strings.Builder, mods []*verilog.Module, items []verilog.Item) {
	ws := verilog.Lint(mods, items)
	slices.SortFunc(ws, func(a, b verilog.Warning) int {
		return cmp.Or(cmp.Compare(a.Pos.Line, b.Pos.Line), cmp.Compare(a.Pos.Col, b.Pos.Col), strings.Compare(a.Msg, b.Msg))
	})
	fmt.Fprintf(sb, "lint: %d warnings\n", len(ws))
	for _, w := range ws {
		fmt.Fprintf(sb, "  %v\n", w)
	}
}

func writeSplit(t *testing.T, sb *strings.Builder, src string) {
	d, err := ir.Build(program(t, src), stdlib.Registry())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range d.Subs {
		var params []string
		for name, v := range s.Params {
			params = append(params, fmt.Sprintf("%s=%d", name, v.Uint64()))
		}
		slices.Sort(params)
		if s.IsStd {
			fmt.Fprintf(sb, "sub %s: %s %v\n", s.Path, s.StdType, params)
			continue
		}
		fmt.Fprintf(sb, "sub %s: %s %v, %d items\n", s.Path, s.Module.Name, params, len(s.Module.Items))
		env, err := elab.Params(s.Module, s.Params)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range s.Module.Ports {
			w := 1
			if p.Range != nil {
				if w, err = elab.RangeWidth(p.Range, env); err != nil {
					t.Fatal(err)
				}
			}
			fmt.Fprintf(sb, "  port %s %s %s [%d]\n", p.Name, p.Dir, p.Kind, w)
		}
	}
	for _, w := range d.Wires {
		fmt.Fprintf(sb, "wire %s.%s -> %s.%s\n", w.From.Sub, w.From.Port, w.To.Sub, w.To.Port)
	}
}
