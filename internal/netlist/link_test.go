package netlist

import (
	"reflect"
	"strings"
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

// TestRelocationKeyMutations: elaboration alone decides which units an
// edit left unchanged, and synthesis follows it. Each row elaborates the
// very same item objects — a clocked process naming d, K and m that
// $displays, an assign naming e8, a $monitor initial block, a process a
// fold leaves without y and one whose loop variable unrolls away (both
// opaque) — from their elaboration against the base declarations, after
// one edit of those declarations. The units that name what the edit
// changed, and the opaque two, are elaborated again under new identities;
// the rest keep their base's; synthesis from the base's program relocates
// exactly the units that kept theirs; and either way the elaboration and
// the program are the ones built from scratch.
func TestRelocationKeyMutations(t *testing.T) {
	const decls = `module M(input wire clk, output reg [15:0] q, output wire [7:0] w, input wire [7:0] d);
  localparam K = 3;
  reg [7:0] e8;
  reg [7:0] m [0:3];
  reg [7:0] z;
  reg [7:0] y;
  integer i;
  reg [7:0] n [0:3];
`
	const shared = `
  always @(posedge clk) begin
    q <= d + K + m[3];
    if (q[0]) $display("q=%d", q);
  end
  assign w = e8 ^ 8'h5a;
  initial $monitor("w=%d", w);
  always @(posedge clk) z <= y * 8'd0;
  always @(posedge clk) for (i = 0; i < 2; i = i + 1) n[i] <= 8'd1;
endmodule`
	for _, tc := range []struct {
		name        string
		edit        []string // old, new pairs over decls
		elab, synth int      // units relocated by ElaborateFrom and by CompileFrom
	}{
		{"a declaration changes width", []string{"[7:0] d", "[11:0] d"}, 2, 2},
		{"a variable flips from reg to wire", []string{"reg [7:0] e8", "wire [7:0] e8"}, 2, 2},
		{"a port changes direction", []string{"input wire [7:0] d", "output wire [7:0] d"}, 2, 2},
		{"a memory's bounds move", []string{"m [0:3]", "m [2:5]"}, 2, 2},
		{"what only opaque units name changes", []string{"reg [7:0] y", "reg [15:0] y", "n [0:3]", "n [2:5]"}, 3, 3},
		{"a parameter changes value", []string{"K = 3", "K = 4"}, 0, 0},
		{"a parameter is added", []string{"K = 3;", "K = 3;\n  localparam J = 1;"}, 3, 3},
		{"nothing changes", nil, 3, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := parseModule(t, decls+shared)
			b := parseModule(t, strings.NewReplacer(tc.edit...).Replace(decls)+"endmodule")
			b.Items = append(b.Items, a.Items[len(a.Items)-5:]...) // the same objects
			fa, err := elab.Elaborate(a, "dut", nil)
			if err != nil {
				t.Fatal(err)
			}
			fb, err := elab.ElaborateFrom(fa, b, "dut", nil)
			if err != nil {
				t.Fatal(err)
			}
			scratch, err := elab.Elaborate(b, "dut", nil)
			if err != nil {
				t.Fatal(err)
			}
			if fb.Relocated != tc.elab {
				t.Fatalf("elaboration relocated %d units, want %d", fb.Relocated, tc.elab)
			}
			if !reflect.DeepEqual(anonymous(fb), anonymous(scratch)) {
				t.Fatal("the relocated elaboration differs from the one from scratch")
			}

			base, old, kept := unitsOf(fa), map[uint64]bool{}, map[uint64]bool{}
			for _, id := range base {
				old[id] = true
			}
			for it, id := range unitsOf(fb) {
				switch {
				case id == base[it]:
					kept[id] = true
				case id == 0 || old[id]:
					t.Fatalf("%s: identity %d is neither its base's nor fresh", verilog.Print(it), id)
				}
			}
			if len(kept) != tc.elab {
				t.Fatalf("%d units kept their base's identity, want %d", len(kept), tc.elab)
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
			keptSpans := 0
			for _, sp := range got.Spans {
				if kept[sp.Unit] {
					keptSpans++
				}
			}
			if got.Relocated != tc.synth || got.Relocated != keptSpans {
				t.Fatalf("synthesis relocated %d of %d units, want %d: the %d that kept their identity",
					got.Relocated, len(got.Spans), tc.synth, keptSpans)
			}
		})
	}
}

// unitsOf maps the source item of each of f's behaviour units to its
// identity (an item with one unit each, as TestRelocationKeyMutations's).
func unitsOf(f *elab.Flat) map[verilog.Item]uint64 {
	ids := map[verilog.Item]uint64{}
	for _, a := range f.Assigns {
		ids[a.Src] = a.Unit
	}
	for _, p := range f.Procs {
		ids[p.Src] = p.Unit
	}
	for i, it := range f.InitialItems {
		ids[it] = f.InitialUnits[i]
	}
	return ids
}

// anonymous returns f without what relocation sets apart: its units'
// identities and its Relocated count.
func anonymous(f *elab.Flat) *elab.Flat {
	g := *f
	g.Relocated, g.InitialUnits = 0, nil
	g.Assigns = make([]*elab.ContAssign, len(f.Assigns))
	for i, a := range f.Assigns {
		c := *a
		c.Unit, g.Assigns[i] = 0, &c
	}
	g.Procs = make([]*elab.Proc, len(f.Procs))
	for i, p := range f.Procs {
		c := *p
		c.Unit, g.Procs[i] = 0, &c
	}
	return &g
}

// TestCompileFromChain: along a chain of growing generated modules that
// share every earlier item object, each version elaborated from the last
// (elab.ElaborateFrom) and linked from the last program synthesized is
// the version compiled from scratch.
func TestCompileFromChain(t *testing.T) {
	relocated := 0
	for seed := uint64(0); seed < 40; seed++ {
		m := parseModule(t, vgen.Module(seed).String())
		var prevFlat *elab.Flat
		var prev *Program
		for n := 0; n <= len(m.Items); n++ {
			cut := &verilog.Module{NamePos: m.NamePos, Name: m.Name, Params: m.Params, Ports: m.Ports, Items: m.Items[:n]}
			f, err := elab.ElaborateFrom(prevFlat, cut, "dut", nil)
			if err != nil {
				continue // a prefix may read what a later item declares
			}
			prevFlat = f
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
