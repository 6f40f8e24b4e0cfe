package ir

import (
	"testing"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/sim"
	"cascade/internal/verilog"
)

// buildProgram assembles a program from module sources and root items.
func buildProgram(t *testing.T, modules string, rootItems string) *Program {
	t.Helper()
	p := NewProgram()
	if modules != "" {
		st, errs := verilog.ParseSourceText(modules)
		if errs != nil {
			t.Fatal(errs)
		}
		for _, m := range st.Modules {
			if err := p.DeclareModule(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	items, errs := verilog.ParseItems(rootItems)
	if errs != nil {
		t.Fatal(errs)
	}
	p.AddRootItems(items...)
	return p
}

// runMerged inlines a design and simulates the merged module.
func runMerged(t *testing.T, d *Design) *sim.Simulator {
	t.Helper()
	inl, err := Inline(d)
	if err != nil {
		t.Fatal(err)
	}
	f, err := elab.Elaborate(inl.Sub(RootPath).Module, RootPath, nil)
	if err != nil {
		t.Fatalf("elaborate merged: %v\n%s", err, verilog.Print(inl.Sub(RootPath).Module))
	}
	return sim.New(f, sim.Options{})
}

func settle(s *sim.Simulator) {
	for s.HasActive() || s.HasUpdates() {
		s.Evaluate()
		if s.HasUpdates() {
			s.Update()
		}
	}
}

func tickMerged(s *sim.Simulator) {
	s.SetInputByName("clk__val", bits.FromUint64(1, 1))
	settle(s)
	s.SetInputByName("clk__val", bits.FromUint64(1, 0))
	settle(s)
}

func TestProceduralHierWrite(t *testing.T) {
	// Writing a stdlib input from an always block: the promoted port
	// must become an output reg.
	p := buildProgram(t, "", `
Clock clk();
Led#(8) led();
reg [7:0] n = 0;
always @(posedge clk.val) begin
  n <= n + 1;
  led.val <= n;
end`)
	d, err := Build(p, testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	main := d.Sub("main").Module
	var ledPort *verilog.Port
	for _, pt := range main.Ports {
		if pt.Name == "led__val" {
			ledPort = pt
		}
	}
	if ledPort == nil || ledPort.Kind != verilog.Reg || ledPort.Dir != verilog.Output {
		t.Fatalf("procedural hier write should promote an output reg: %+v", ledPort)
	}
	s := runMerged(t, d)
	settle(s)
	for i := 0; i < 4; i++ {
		tickMerged(s)
	}
	if got := s.Value("led__val").Uint64(); got != 3 {
		t.Fatalf("led__val=%d, want 3 (lags n by one)", got)
	}
}

func TestMultipleInstancesOfSameModule(t *testing.T) {
	p := buildProgram(t, `
module Inc(input wire [7:0] x, output wire [7:0] y);
  assign y = x + 1;
endmodule`, `
wire [7:0] s0, s1, s2;
assign s0 = 8'd5;
Inc i0(.x(s0), .y(s1));
Inc i1(.x(s1), .y(s2));`)
	d, err := Build(p, testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if d.Sub("main.i0") == nil || d.Sub("main.i1") == nil {
		t.Fatal("both instances should become subprograms")
	}
	s := runMerged(t, d)
	settle(s)
	if got := s.Value("s2").Uint64(); got != 7 {
		t.Fatalf("chained instances: s2=%d, want 7", got)
	}
}

func TestUnconnectedPortsReadZero(t *testing.T) {
	p := buildProgram(t, `
module Pass(input wire [7:0] a, input wire [7:0] b, output wire [7:0] o);
  assign o = a + b;
endmodule`, `
wire [7:0] r;
Pass ps(.a(8'd9), .b(), .o(r));`)
	d, err := Build(p, testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	s := runMerged(t, d)
	settle(s)
	if got := s.Value("r").Uint64(); got != 9 {
		t.Fatalf("unconnected input should read zero: r=%d", got)
	}
}

func TestStdlibInstanceInsideUserModule(t *testing.T) {
	// A user module may itself instantiate a stdlib component; the
	// component becomes a peer at a nested path.
	p := buildProgram(t, `
module Blinker(input wire c, output wire [7:0] light);
  Led#(8) inner();
  reg [7:0] n = 0;
  always @(posedge c) n <= n + 1;
  assign inner.val = n;
  assign light = n;
endmodule`, `
Clock clk();
wire [7:0] l;
Blinker b(.c(clk.val), .light(l));`)
	d, err := Build(p, testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if d.Sub("main.b.inner") == nil || !d.Sub("main.b.inner").IsStd {
		t.Fatalf("nested stdlib instance missing: %+v", d.Subs)
	}
	// After inline, the wire to the nested stdlib component must come
	// from the merged module with a prefixed port.
	inl, err := Inline(d)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range inl.Wires {
		if w.To.Sub == "main.b.inner" && w.From.Sub == RootPath && w.From.Port == "b__inner__val" {
			found = true
		}
	}
	if !found {
		t.Fatalf("nested stdlib wire not re-pointed: %+v", inl.Wires)
	}
}

func TestHierReadOfInternalRegister(t *testing.T) {
	// Reading a child's internal (non-port) register promotes it to an
	// output, preserving its initializer.
	p := buildProgram(t, `
module Holder(input wire c);
  reg [7:0] secret = 8'h2a;
  always @(posedge c) secret <= secret + 0;
endmodule`, `
Clock clk();
Holder h(.c(clk.val));
wire [7:0] spy;
assign spy = h.secret;`)
	d, err := Build(p, testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	hmod := d.Sub("main.h").Module
	var port *verilog.Port
	for _, pt := range hmod.Ports {
		if pt.Name == "secret" {
			port = pt
		}
	}
	if port == nil || port.Dir != verilog.Output || port.Init == nil {
		t.Fatalf("internal reg not promoted with init: %+v", port)
	}
	s := runMerged(t, d)
	settle(s)
	if got := s.Value("spy").Uint64(); got != 0x2a {
		t.Fatalf("spy=%#x, want 0x2a", got)
	}
}

func TestParamExprsInInstancePropagate(t *testing.T) {
	p := buildProgram(t, `
module W#(parameter N = 2)(output wire [N-1:0] o);
  assign o = {N{1'b1}};
endmodule`, `
localparam K = 3;
wire [5:0] o;
W#(K * 2) w(.o(o));`)
	d, err := Build(p, testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Sub("main.w").Params["N"].Uint64(); got != 6 {
		t.Fatalf("param expr: N=%d, want 6", got)
	}
	s := runMerged(t, d)
	settle(s)
	if got := s.Value("o").Uint64(); got != 0b111111 {
		t.Fatalf("o=%06b", got)
	}
}

// TestHierReadOfInitializedWire: a wire with an initializer that the root
// reads hierarchically becomes an output port of its instance, and the
// merged module declares the one variable as the instance does,
// initializer and all: the root's end of the wire has none, and declaring
// it from there left the wire undriven.
func TestHierReadOfInitializedWire(t *testing.T) {
	p := buildProgram(t, `
module C(input wire [7:0] a, output wire [7:0] y);
  wire [7:0] w = 8'd5;
  assign y = a;
endmodule`, `
wire [7:0] ya;
C c(.a(8'd1), .y(ya));
wire [7:0] z = c.w;`)
	d, err := Build(p, testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	s := runMerged(t, d)
	settle(s)
	if got := s.Value("z").Uint64(); got != 5 {
		t.Fatalf("z=%d, want c.w's 5", got)
	}
}
