package elab

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"cascade/internal/verilog"
)

// TestSharedRecordsKeepNoSiblings: the elaboration alone, along the chain
// of netlist's TestRelocatedRecordsKeepNoSiblings — version k holds the k
// clocked stages of one parse, each shared from the version that added
// it, and 100 wires and assigns parsed afresh, so each edit inserts a
// stage before 100 re-created wires. The last Flat keeps no more alive
// than the same module elaborated from scratch, plus a quarter: a shared
// variable, unit record or frame cut from an allocation it shares with
// what its version re-created would keep every earlier version's wires,
// their frames and the source they were parsed from alive.
func TestSharedRecordsKeepNoSiblings(t *testing.T) {
	const edits, assigns = 40, 100
	var stages strings.Builder
	stages.WriteString("module M(input wire clk, input wire [7:0] in);\n")
	for j := 0; j < edits; j++ {
		fmt.Fprintf(&stages, "  reg [7:0] s%d = %d;\n  always @(posedge clk) s%d <= s%d + in + %d;\n", j, j, j, j, j)
	}
	stages.WriteString("endmodule\n")
	sm := parseOne(t, stages.String())
	var last *verilog.Module // the last version's module, alive throughout
	var chained int64        // the live heap with the last Flat
	func() {
		var f *Flat
		for k := 1; k <= edits; k++ {
			var src strings.Builder
			src.WriteString("module M(input wire clk, input wire [7:0] in);\n")
			for i := 0; i < assigns; i++ {
				fmt.Fprintf(&src, "  wire [15:0] w%d;\n  assign w%d = in * %d + %d;\n", i, i, k, i)
			}
			src.WriteString("endmodule\n")
			cut := *sm
			cut.Items = append(sm.Items[:2*k:2*k], parseOne(t, src.String()).Items...)
			last = &cut
			var err error
			if f, err = ElaborateFrom(f, last, "dut", nil); err != nil {
				t.Fatal(err)
			}
		}
		if f.Relocated != 2*(edits-1) {
			t.Fatalf("the last edit relocated %d units, want its %d earlier stages' declarations and processes", f.Relocated, edits-1)
		}
		chained = heap()
		runtime.KeepAlive(f)
	}()
	dropped := heap()
	scratch, err := Elaborate(last, "dut", nil)
	if err != nil {
		t.Fatal(err)
	}
	alone := heap() - dropped
	runtime.KeepAlive(scratch)
	t.Logf("the last Flat keeps %d B alive, elaborated from scratch %d B", chained-dropped, alone)
	if chained-dropped > alone+alone/4 {
		t.Fatalf("the last Flat keeps %d B alive, %d B elaborated from scratch", chained-dropped, alone)
	}
}

// heap is the live heap, collected.
func heap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestSharedWholePastSlab: a version whose prefix is every variable of
// its base shares the base's slab-cut variables too, so the evals after
// an elaboration from scratch share all of it. One whose prefix ends
// inside them gets records of its own from the base's slab on, ports
// included, and keeps no more alive than the same module elaborated from
// scratch, plus a quarter: the base's slab-cut variables it does not
// declare stay dead.
func TestSharedWholePastSlab(t *testing.T) {
	const ports, regs = 70, 2000
	var src strings.Builder
	src.WriteString("module M(")
	for i := 0; i < ports; i++ {
		fmt.Fprintf(&src, "input wire [7:0] p%d, ", i)
	}
	src.WriteString("output reg [7:0] q);\n")
	for i := 0; i < regs; i++ {
		fmt.Fprintf(&src, "  reg [7:0] r%d = %d;\n", i, i%251)
	}
	src.WriteString("endmodule\n")
	m := parseOne(t, src.String())
	extra := parseOne(t, "module M(); reg [7:0] b = 1; reg [7:0] c = 2; endmodule\n").Items
	with := func(items ...[]verilog.Item) *verilog.Module {
		cut := *m
		cut.Items = nil
		for _, it := range items {
			cut.Items = append(cut.Items, it...)
		}
		return &cut
	}
	var last *verilog.Module // the last version's module, alive throughout
	var chained int64        // the live heap with the last Flat
	func() {
		a, err := Elaborate(m, "dut", nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ElaborateFrom(a, with(m.Items, extra[:1]), "dut", nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range a.Vars {
			if b.Vars[i] != v {
				t.Fatalf("an appending version re-created %s, variable %d of its base's %d", v.Name, i, len(a.Vars))
			}
		}
		// Inserted after r9: the prefix ends at p0..p69, q, r0..r9.
		last = with(m.Items[:10], extra[1:], m.Items[10:], extra[:1])
		c, err := ElaborateFrom(b, last, "dut", nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range c.Vars[:ports+1+10] {
			if shared := v == b.Vars[i]; shared != (i < alone) || v.Name != b.Vars[i].Name {
				t.Fatalf("%s shared=%v: a prefix that ends past its base's slab shares it up to the slab, %d", v.Name, shared, alone)
			}
		}
		for _, v := range append(c.Inputs, c.Outputs...) {
			if c.Vars[v.Index] != v {
				t.Fatalf("port %s is not the version's variable", v.Name)
			}
		}
		chained = heap()
		runtime.KeepAlive(c)
	}()
	dropped := heap()
	scratch, err := Elaborate(last, "dut", nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh := heap() - dropped
	runtime.KeepAlive(scratch)
	t.Logf("the last Flat keeps %d B alive, elaborated from scratch %d B", chained-dropped, fresh)
	if chained-dropped > fresh+fresh/4 {
		t.Fatalf("the last Flat keeps %d B alive, %d B elaborated from scratch", chained-dropped, fresh)
	}
}

// TestInitializedPortShared: a port's initial value is computed afresh by
// each elaboration, so a port is its base's variable when the values are
// equal, and the variables and units after it are shared too. A port
// whose value changed ends the shared prefix.
func TestInitializedPortShared(t *testing.T) {
	const ports = "module M(input wire clk, output reg [7:0] q = 8'd%d);\n"
	const items = "  reg [7:0] r = 1;\n  always @(posedge clk) q <= q + r;\n  wire [7:0] w;\n  assign w = q;\nendmodule\n"
	m := parseOne(t, fmt.Sprintf(ports, 3)+items)
	cut := *m
	cut.Items = m.Items[:2]
	base, err := Elaborate(&cut, "dut", nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ElaborateFrom(base, m, "dut", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range base.Vars {
		if f.Vars[i] != v {
			t.Errorf("%s is not its base's variable", v.Name)
		}
	}
	if f.Procs[0] != base.Procs[0] {
		t.Error("the process naming only shared variables is not its base's record")
	}
	g, err := ElaborateFrom(base, parseOne(t, fmt.Sprintf(ports, 4)+items), "dut", nil)
	if err != nil {
		t.Fatal(err)
	}
	if q := g.VarNamed("q"); q == base.Vars[1] || q.Init.Uint64() != 4 || g.Vars[2] == base.Vars[2] {
		t.Error("a port whose initial value changed, or a variable after it, is its base's")
	}
}
