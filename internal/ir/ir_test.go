package ir

import (
	"strings"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/sim"
	"cascade/internal/verilog"
)

// testRegistry mimics the stdlib shapes used by the paper's Figure 3.
func testRegistry() Registry {
	fixed := func(w int) func(map[string]*bits.Vector) int {
		return func(map[string]*bits.Vector) int { return w }
	}
	paramN := func(p map[string]*bits.Vector) int { return int(p["N"].Uint64()) }
	return Registry{
		"Clock": {Name: "Clock", Ports: []StdPort{{Name: "val", Dir: verilog.Output, Width: fixed(1)}}},
		"Pad": {Name: "Pad",
			Params: []StdParam{{Name: "N", Default: bits.FromUint64(32, 4)}},
			Ports:  []StdPort{{Name: "val", Dir: verilog.Output, Width: paramN}}},
		"Led": {Name: "Led",
			Params: []StdParam{{Name: "N", Default: bits.FromUint64(32, 8)}},
			Ports:  []StdPort{{Name: "val", Dir: verilog.Input, Width: paramN}}},
	}
}

// figure3Program builds the paper's Figure 3 program: the Rol declaration
// plus root-module items using implicit stdlib instances.
func figure3Program(t *testing.T) *Program {
	t.Helper()
	p := NewProgram()
	st, errs := verilog.ParseSourceText(`
module Rol(input wire [7:0] x, output wire [7:0] y);
  assign y = (x == 8'h80) ? 1 : (x << 1);
endmodule`)
	if errs != nil {
		t.Fatal(errs)
	}
	if err := p.DeclareModule(st.Modules[0]); err != nil {
		t.Fatal(err)
	}
	items, errs := verilog.ParseItems(`
Clock clk();
Pad#(4) pad();
Led#(8) led();
reg [7:0] cnt = 1;
Rol r(.x(cnt));
always @(posedge clk.val)
  if (pad.val == 0)
    cnt <= r.y;
assign led.val = cnt;`)
	if errs != nil {
		t.Fatal(errs)
	}
	p.AddRootItems(items...)
	return p
}

func TestBuildFigure3(t *testing.T) {
	d, err := Build(figure3Program(t), testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	paths := map[string]*SubProgram{}
	for _, s := range d.Subs {
		paths[s.Path] = s
	}
	for _, want := range []string{"main", "main.r", "main.clk", "main.pad", "main.led"} {
		if paths[want] == nil {
			t.Fatalf("missing subprogram %s (have %v)", want, d.Subs)
		}
	}
	if !paths["main.clk"].IsStd || paths["main.r"].IsStd {
		t.Fatal("stdlib classification wrong")
	}
	if got := paths["main.pad"].Params["N"].Uint64(); got != 4 {
		t.Fatalf("pad N=%d", got)
	}

	// The promoted root must expose the Figure 4 ports.
	main := paths["main"].Module
	ports := map[string]verilog.PortDir{}
	for _, p := range main.Ports {
		ports[p.Name] = p.Dir
	}
	wantPorts := map[string]verilog.PortDir{
		"r__x":     verilog.Output,
		"r__y":     verilog.Input,
		"clk__val": verilog.Input,
		"pad__val": verilog.Input,
		"led__val": verilog.Output,
	}
	for name, dir := range wantPorts {
		if got, ok := ports[name]; !ok || got != dir {
			t.Fatalf("port %s: got (%v,%v), want %v", name, got, ok, dir)
		}
	}

	// No hierarchical references or instances may survive.
	src := verilog.Print(main)
	if strings.Contains(src, ".val") || strings.Contains(src, "r.y") {
		t.Fatalf("hierarchical references survived:\n%s", src)
	}

	// Wires: r__x feeds main.r x; main.r y feeds r__y; clk val feeds in.
	wireSet := map[string]bool{}
	for _, w := range d.Wires {
		wireSet[w.From.Sub+"."+w.From.Port+"->"+w.To.Sub+"."+w.To.Port] = true
	}
	for _, want := range []string{
		"main.r__x->main.r.x",
		"main.r.y->main.r__y",
		"main.clk.val->main.clk__val",
		"main.pad.val->main.pad__val",
		"main.led__val->main.led.val",
	} {
		if !wireSet[want] {
			t.Fatalf("missing wire %s; have %v", want, wireSet)
		}
	}

	// Every user subprogram must elaborate cleanly.
	for _, s := range d.UserSubs() {
		if _, err := elab.Elaborate(s.Module, s.Path, s.Params); err != nil {
			t.Fatalf("elaborate %s: %v\n%s", s.Path, err, verilog.Print(s.Module))
		}
	}
}

func TestInlineFigure3(t *testing.T) {
	d, err := Build(figure3Program(t), testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	inl, err := Inline(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(inl.UserSubs()) != 1 {
		t.Fatalf("inline left %d user subs", len(inl.UserSubs()))
	}
	merged := inl.Sub("main").Module
	f, err := elab.Elaborate(merged, "main", nil)
	if err != nil {
		t.Fatalf("elaborate merged: %v\n%s", err, verilog.Print(merged))
	}

	// Simulate the merged module directly: it should reproduce the LED
	// animation of the running example.
	s := sim.New(f, sim.Options{})
	settle := func() {
		for s.HasActive() || s.HasUpdates() {
			s.Evaluate()
			if s.HasUpdates() {
				s.Update()
			}
		}
	}
	settle()
	if got := s.Value("led__val").Uint64(); got != 1 {
		t.Fatalf("initial led=%d", got)
	}
	for i := 0; i < 3; i++ {
		s.SetInputByName("clk__val", bits.FromUint64(1, 1))
		settle()
		s.SetInputByName("clk__val", bits.FromUint64(1, 0))
		settle()
	}
	if got := s.Value("led__val").Uint64(); got != 8 {
		t.Fatalf("led after 3 ticks = %d, want 8", got)
	}
	// Pressing a pad pauses.
	s.SetInputByName("pad__val", bits.FromUint64(4, 1))
	settle()
	s.SetInputByName("clk__val", bits.FromUint64(1, 1))
	settle()
	if got := s.Value("led__val").Uint64(); got != 8 {
		t.Fatalf("led moved while paused: %d", got)
	}

	// Inlined wires all connect stdlib to main.
	for _, w := range inl.Wires {
		if w.From.Sub != "main" && !strings.Contains(w.From.Sub, "clk") && !strings.Contains(w.From.Sub, "pad") {
			t.Fatalf("unexpected wire source %v", w)
		}
	}
}

func TestBuildParameterPropagation(t *testing.T) {
	p := NewProgram()
	st, errs := verilog.ParseSourceText(`
module Counter#(parameter N = 4)(input wire clk, output wire [N-1:0] out);
  reg [N-1:0] q = 0;
  always @(posedge clk) q <= q + 1;
  assign out = q;
endmodule
module Pair#(parameter W = 2)(input wire clk, output wire [2*W-1:0] both);
  wire [W-1:0] a_out, b_out;
  Counter#(W) a(.clk(clk), .out(a_out));
  Counter#(.N(2*W)) b(.clk(clk));
  assign both = {a_out, b.out[W-1:0]};
endmodule`)
	if errs != nil {
		t.Fatal(errs)
	}
	for _, m := range st.Modules {
		if err := p.DeclareModule(m); err != nil {
			t.Fatal(err)
		}
	}
	items, errs := verilog.ParseItems(`Clock clk(); Pair#(3) pr(.clk(clk.val));`)
	if errs != nil {
		t.Fatal(errs)
	}
	p.AddRootItems(items...)
	d, err := Build(p, testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	a := d.Sub("main.pr.a")
	if a == nil || a.Params["N"].Uint64() != 3 {
		t.Fatalf("a params wrong: %+v", a)
	}
	bsub := d.Sub("main.pr.b")
	if bsub == nil || bsub.Params["N"].Uint64() != 6 {
		t.Fatalf("b params wrong: %+v", bsub)
	}
	for _, s := range d.UserSubs() {
		if _, err := elab.Elaborate(s.Module, s.Path, s.Params); err != nil {
			t.Fatalf("elaborate %s: %v\n%s", s.Path, err, verilog.Print(s.Module))
		}
	}
	// Inline and elaborate the merged design too.
	inl, err := Inline(d)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := elab.Elaborate(inl.Sub("main").Module, "main", nil)
	if err != nil {
		t.Fatalf("elaborate merged: %v\n%s", err, verilog.Print(inl.Sub("main").Module))
	}
	if v := mf.VarNamed("pr__a__q"); v == nil || v.Width != 3 {
		t.Fatalf("nested inlined var wrong: %+v", v)
	}
	if v := mf.VarNamed("pr__b__q"); v == nil || v.Width != 6 {
		t.Fatalf("nested inlined var wrong: %+v", v)
	}

	// Behaviour: both counters advance on a clock tick.
	s := sim.New(mf, sim.Options{})
	settle := func() {
		for s.HasActive() || s.HasUpdates() {
			s.Evaluate()
			if s.HasUpdates() {
				s.Update()
			}
		}
	}
	settle()
	for i := 0; i < 5; i++ {
		s.SetInputByName("clk__val", bits.FromUint64(1, 1))
		settle()
		s.SetInputByName("clk__val", bits.FromUint64(1, 0))
		settle()
	}
	if got := s.Value("pr__a__q").Uint64(); got != 5 {
		t.Fatalf("a.q=%d, want 5", got)
	}
	if got := s.Value("pr__b__q").Uint64(); got != 5 {
		t.Fatalf("b.q=%d, want 5", got)
	}
	if got := s.Value("pr__both").Uint64(); got != (5<<3 | 5) {
		t.Fatalf("both=%b", got)
	}
}

func TestBuildErrors(t *testing.T) {
	reg := testRegistry()
	cases := map[string]string{
		"unknown module":  `Nope n();`,
		"deep hierarchy":  `Clock clk(); always @(posedge clk.val.x) ;`,
		"read input":      `Led#(8) led(); assign led.val = 1; wire [7:0] w; assign w = led.val;`,
		"unknown stdport": `Clock clk(); wire w; assign w = clk.bogus;`,
		"double instance": `Clock c(); Clock c();`,
		"bad param":       `Pad#(.Q(3)) p();`,
	}
	for name, src := range cases {
		p := NewProgram()
		items, errs := verilog.ParseItems(src)
		if errs != nil {
			t.Fatalf("%s: parse: %v", name, errs)
		}
		p.AddRootItems(items...)
		if _, err := Build(p, reg); err == nil {
			t.Fatalf("%s: expected build error", name)
		}
	}
}

func TestProgramAppendOnly(t *testing.T) {
	p := NewProgram()
	st, _ := verilog.ParseSourceText(`module A(); endmodule`)
	if err := p.DeclareModule(st.Modules[0]); err != nil {
		t.Fatal(err)
	}
	if err := p.DeclareModule(st.Modules[0]); err == nil {
		t.Fatal("redefinition should fail (append-only REPL semantics)")
	}
	c := p.Clone(0, 1)
	items, _ := verilog.ParseItems(`wire x;`)
	c.AddRootItems(items...)
	if len(p.RootItems) != 0 {
		t.Fatal("clone mutated original")
	}
}

func TestBuildPositionalConnections(t *testing.T) {
	p := NewProgram()
	st, errs := verilog.ParseSourceText(`
module Add(input wire [3:0] a, input wire [3:0] b, output wire [3:0] s);
  assign s = a + b;
endmodule`)
	if errs != nil {
		t.Fatal(errs)
	}
	if err := p.DeclareModule(st.Modules[0]); err != nil {
		t.Fatal(err)
	}
	items, errs := verilog.ParseItems(`
wire [3:0] x, y, sum;
assign x = 3; assign y = 9;
Add add(x, y, sum);`)
	if errs != nil {
		t.Fatal(errs)
	}
	p.AddRootItems(items...)
	d, err := Build(p, testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	inl, err := Inline(d)
	if err != nil {
		t.Fatal(err)
	}
	f, err := elab.Elaborate(inl.Sub("main").Module, "main", nil)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(f, sim.Options{})
	for s.HasActive() || s.HasUpdates() {
		s.Evaluate()
		if s.HasUpdates() {
			s.Update()
		}
	}
	if got := s.Value("sum").Uint64(); got != 12 {
		t.Fatalf("positional connection: sum=%d, want 12", got)
	}
}
