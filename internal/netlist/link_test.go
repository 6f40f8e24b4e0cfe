package netlist

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cascade/internal/elab"
	"cascade/internal/verilog"
	"cascade/internal/vgen"
	"cascade/internal/workloads/pow"
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
		{"Code", boundCode(got), boundCode(want)}, // with its operands, constants and tasks
		{"Slots", got.Slots, want.Slots},
		{"VarSlot", got.VarSlot, want.VarSlot},
		{"MemOf", got.MemOf, want.MemOf},
		{"Comb", got.Comb, want.Comb},
		{"Seq", got.Seq, want.Seq},
		{"Tasks", got.Tasks, want.Tasks},
		{"Reset", got.Reset, want.Reset},
		{"Stats", got.Stats, want.Stats},
		{"Spans", got.Spans, want.Spans},
	} {
		if !reflect.DeepEqual(fd.got, fd.want) {
			t.Fatalf("%s: programs differ in %s", what, fd.name)
		}
	}
}

// boundCode is p's code bound to p, span by span: every instruction with
// its slots, memories, sources, constant and task resolved, as its
// engines execute it.
func boundCode(p *Program) [][]Instr {
	code := make([][]Instr, len(p.Spans))
	for i := range p.Spans {
		sp := &p.Spans[i]
		srcs := p.Sources(sp, nil)
		for j := range sp.Ops {
			code[i] = append(code[i], p.Instr(sp, &sp.Ops[j], srcs))
		}
	}
	return code
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
// fold leaves without y and one whose loop variable i unrolls away (once
// called opaque: their trees do not show every name they resolved, their
// frames do) — from
// their elaboration against the base declarations, after one edit of
// those declarations. The units whose frames hold what the edit changed
// are elaborated again under new identities; the rest keep their base's
// and share its trees by pointer; synthesis from the base's program
// relocates exactly the units that kept theirs; and either way the
// elaboration and the program are the ones built from scratch.
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
		{"a declaration changes width", []string{"[7:0] d", "[11:0] d"}, 4, 4},
		{"a variable flips from reg to wire", []string{"reg [7:0] e8", "wire [7:0] e8"}, 4, 4},
		{"a port changes direction", []string{"input wire [7:0] d", "output wire [7:0] d"}, 4, 4},
		{"a memory's bounds move", []string{"m [0:3]", "m [2:5]"}, 4, 4},
		{"what only opaque units name changes", []string{"reg [7:0] y", "reg [15:0] y", "n [0:3]", "n [2:5]"}, 3, 3},
		{"a parameter changes value", []string{"K = 3", "K = 4"}, 0, 0},
		{"a parameter is added", []string{"K = 3;", "K = 3;\n  localparam J = 1;"}, 5, 5},
		{"nothing changes", nil, 5, 5},
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
			sharesTrees(t, fa, fb)

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

// sharesTrees fails unless every unit of f that kept the identity of a
// unit of base holds base's tree by pointer (elab.ElaborateFrom).
func sharesTrees(t *testing.T, base, f *elab.Flat) {
	t.Helper()
	trees := map[uint64]any{}
	for _, a := range base.Assigns {
		trees[a.Unit] = a.RHS
	}
	for _, p := range base.Procs {
		trees[p.Unit] = p.Body
	}
	for i, st := range base.Initials {
		trees[base.InitialUnits[i]] = st
	}
	check := func(unit uint64, tree any) {
		if bt, kept := trees[unit]; kept && bt != tree {
			t.Fatalf("unit %d kept its base's identity but not its tree", unit)
		}
	}
	for _, a := range f.Assigns {
		check(a.Unit, a.RHS)
	}
	for _, p := range f.Procs {
		check(p.Unit, p.Body)
	}
	for i, st := range f.Initials {
		check(f.InitialUnits[i], st)
	}
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

// TestWideFlagIsTheUnits: an instruction runs on the wide path exactly
// when its result or a slot it names is wider than 64 bits, whatever the
// rest of the program holds. A jump, memory write or halt names no
// destination; it once took the width of slot 0, the design's first
// variable, so a narrow process's branches ran on the reference path in
// a design that declares a 65-bit register first, and a relocated
// process's flags differed from the same process compiled there.
func TestWideFlagIsTheUnits(t *testing.T) {
	narrow := parseModule(t, `
module M;
  reg clk;
  reg [7:0] a, q;
  reg [7:0] mem [0:3];
  always @(posedge clk) begin
    if (a[0]) q <= a;
    else q <= a + 1;
    mem[a[1:0]] <= q;
  end
endmodule`)
	wideFirst := *narrow // the same items, after a 65-bit register
	wideFirst.Items = append(parseModule(t, "module M; reg [64:0] big; endmodule").Items, narrow.Items...)
	check := func(what string, p *Program) {
		t.Helper()
		for i, code := range boundCode(p) {
			for _, in := range code {
				wide := in.Width > 64 || hasDst(in.Kind) && p.Slots[in.Dst].Width > 64
				for _, s := range in.Srcs {
					wide = wide || p.Slots[s].Width > 64
				}
				if in.Wide != wide {
					t.Fatalf("%s: unit %d: %v is flagged Wide=%v, its own slots say %v", what, i, in.Kind, in.Wide, wide)
				}
			}
		}
	}
	f1, err := elab.Elaborate(narrow, "dut", nil)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Compile(f1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := elab.ElaborateFrom(f1, &wideFirst, "dut", nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Compile(f2)
	if err != nil {
		t.Fatal(err)
	}
	if want.Slots[0].Width != 65 {
		t.Fatalf("slot 0 is %d bits wide, want the 65-bit register", want.Slots[0].Width)
	}
	got, err := CompileFrom(base, f2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Relocated != 1 {
		t.Fatalf("relocated %d units, want the process", got.Relocated)
	}
	check("narrow", base)
	check("after a 65-bit register", want)
	sameProgram(t, "slot 0 widened", got, want)
	for seed := uint64(0); seed < 20; seed++ {
		p, err := Compile(flatten(t, vgen.Module(seed).String()))
		if err != nil {
			continue
		}
		check(fmt.Sprintf("vgen.Module(%d)", seed), p)
	}
}

// TestRelocatedCodeShared: along the 150 edits of an inlined session
// (vgen.InlinedChain, the benchmark's chain after inlining), each
// synthesized from the program before it as an eval does, every
// relocated unit's span holds its base's code record itself, by pointer,
// and every unit compiled again holds a record of its own: the link
// binds relocated code and copies none of it.
func TestRelocatedCodeShared(t *testing.T) {
	const stages = 150
	items := func(n int) int { return len(parseModule(t, vgen.InlinedChain(n)).Items) }
	head, per := items(0), items(1)-items(0)
	m := parseModule(t, vgen.InlinedChain(stages))
	type id struct {
		unit uint64
		ord  int32
	}
	var f *elab.Flat
	var base *Program
	for n := 1; n <= stages; n++ {
		cut := *m
		cut.Items = m.Items[:head+n*per]
		var err error
		if f, err = elab.ElaborateFrom(f, &cut, "dut", nil); err != nil {
			t.Fatalf("stage %d: %v", n, err)
		}
		p, err := CompileFrom(base, f)
		if err != nil {
			t.Fatalf("stage %d: %v", n, err)
		}
		had, held := map[id]*UnitCode{}, map[*UnitCode]bool{}
		if base != nil {
			for _, sp := range base.Spans {
				if sp.Unit != 0 {
					had[id{sp.Unit, sp.Ord}] = sp.UnitCode
				}
				held[sp.UnitCode] = true
			}
		}
		shared := 0
		for _, sp := range p.Spans {
			rec, ok := had[id{sp.Unit, sp.Ord}]
			switch {
			case ok && sp.UnitCode != rec:
				t.Fatalf("stage %d: relocated unit %d holds a copy of its base's code, not the record", n, sp.Unit)
			case ok:
				shared++
			case held[sp.UnitCode]:
				t.Fatalf("stage %d: unit %d, compiled again, holds a record of its base", n, sp.Unit)
			default:
				held[sp.UnitCode] = true // and no other fresh unit's
			}
		}
		if shared != p.Relocated {
			t.Fatalf("stage %d: %d spans share their base's record, %d units were relocated", n, shared, p.Relocated)
		}
		if n == stages && shared*10 < len(p.Spans)*9 {
			t.Fatalf("the last edit shares %d of %d units' code", shared, len(p.Spans))
		}
		base = p
	}
}

// TestRelocatedRecordsKeepNoSiblings: along a chain whose every edit
// compiles most units again and keeps a few — version k holds the k
// clocked stages of one parse, relocated from the version that added
// each, and a freshly parsed set of assigns —, the last program holds no
// more alive than the same program compiled from scratch. A record the
// link cut from arrays shared by all the units compiled beside it kept
// every earlier link's code, and the source literals its constants point
// into, alive: 3.96 MB here, against 0.11 MB from scratch.
func TestRelocatedRecordsKeepNoSiblings(t *testing.T) {
	const edits, assigns = 40, 100
	var stages strings.Builder
	stages.WriteString("module M(input wire clk, input wire [7:0] in);\n")
	for j := 0; j < edits; j++ {
		fmt.Fprintf(&stages, "  reg [7:0] s%d = %d;\n  always @(posedge clk) s%d <= s%d + in + %d;\n", j, j, j, j, j)
	}
	stages.WriteString("endmodule\n")
	sm := parseModule(t, stages.String())
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	var chained int64 // the live heap with the last program
	chain := func() (f *elab.Flat) {
		var p *Program
		for k := 1; k <= edits; k++ {
			var src strings.Builder
			src.WriteString("module M(input wire clk, input wire [7:0] in);\n")
			for i := 0; i < assigns; i++ {
				fmt.Fprintf(&src, "  wire [15:0] w%d;\n  assign w%d = in * %d + %d;\n", i, i, k, i)
			}
			src.WriteString("endmodule\n")
			cut := *sm
			cut.Items = append(sm.Items[:2*k:2*k], parseModule(t, src.String()).Items...)
			var err error
			if f, err = elab.ElaborateFrom(f, &cut, "dut", nil); err != nil {
				t.Fatal(err)
			}
			if p, err = CompileFrom(p, f); err != nil {
				t.Fatal(err)
			}
		}
		if p.Relocated != edits-1 {
			t.Fatalf("the last edit relocated %d units, want its %d earlier stages", p.Relocated, edits-1)
		}
		chained = heap()
		runtime.KeepAlive(p)
		return f
	}
	f := chain()
	dropped := heap()
	scratch, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	alone := heap() - dropped
	runtime.KeepAlive(scratch)
	runtime.KeepAlive(f)
	t.Logf("the last program keeps %d B alive, compiled from scratch %d B", chained-dropped, alone)
	if chained-dropped > alone+alone/4 {
		t.Fatalf("the last program keeps %d B alive, %d B compiled from scratch", chained-dropped, alone)
	}
}

// TestCombSpansLevelized: span order is schedule order, so the leading
// Comb spans must come in topological order — a combinational span that
// reads a variable another one writes comes after the writer. The
// reference machine and the compiled evaluator sweep the combinational
// spans until nothing changes, so either order converges to the same
// state and no equivalence test sees an order levelize got wrong; this
// test does, on generated modules, goldenSrc, the miner, and every
// program of the 150-edit inlined chain linked from the one before it.
func TestCombSpansLevelized(t *testing.T) {
	edges := 0
	check := func(what string, p *Program) {
		t.Helper()
		writer := map[int32]int{} // variable -> the combinational span writing it
		for i := range p.Comb {
			lo, hi := p.spanVars(i)
			for _, e := range p.Vars[lo:hi] {
				if e&1 == 1 {
					writer[e>>1] = i
				}
			}
		}
		for i := range p.Comb {
			lo, hi := p.spanVars(i)
			for _, e := range p.Vars[lo:hi] {
				w, ok := writer[e>>1]
				switch {
				case !ok || e&1 == 1 || w == i:
				case w > i:
					t.Fatalf("%s: combinational span %d reads %s, which span %d after it writes", what, i, p.Flat.Vars[e>>1].Name, w)
				default:
					edges++
				}
			}
		}
	}
	srcs := map[string]string{"goldenSrc": goldenSrc, "pow": pow.Generate(pow.DefaultConfig())}
	for seed := uint64(0); seed < 100; seed++ {
		srcs[fmt.Sprintf("vgen.Module(%d)", seed)] = vgen.Module(seed).String()
	}
	for what, src := range srcs {
		p, err := Compile(flatten(t, src))
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		check(what, p)
	}
	const stages = 150
	items := func(n int) int { return len(parseModule(t, vgen.InlinedChain(n)).Items) }
	head, per := items(0), items(1)-items(0)
	m := parseModule(t, vgen.InlinedChain(stages))
	var f *elab.Flat
	var base *Program
	for n := 1; n <= stages; n++ {
		cut := *m
		cut.Items = m.Items[:head+n*per]
		var err error
		if f, err = elab.ElaborateFrom(f, &cut, "dut", nil); err != nil {
			t.Fatalf("stage %d: %v", n, err)
		}
		if base, err = CompileFrom(base, f); err != nil {
			t.Fatalf("stage %d: %v", n, err)
		}
		check(fmt.Sprintf("chain stage %d", n), base)
	}
	if edges == 0 {
		t.Fatal("no combinational span reads what another writes")
	}
	t.Logf("%d reads of another combinational span's variable, each after its writer", edges)
}
