package ir_test

import (
	"fmt"
	"strings"
	"testing"

	"cascade/internal/elab"
	"cascade/internal/ir"
	"cascade/internal/stdlib"
	"cascade/internal/verilog"
	"cascade/internal/vgen"
)

// inlinedVersion is one eval's merged root: the design it was inlined
// from and its elaboration.
type inlinedVersion struct {
	flat *ir.Design
	root *elab.Flat
}

// inlineSession builds and inlines a session fragment by fragment over the
// prelude, each design split from the one before as an eval splits it,
// and elaborates every merged root.
func inlineSession(t *testing.T, frags []string) []inlinedVersion {
	t.Helper()
	p, d := ir.NewProgram(), (*ir.Design)(nil)
	var out []inlinedVersion
	for k, frag := range append([]string{prelude}, frags...) {
		mods, items, errs := verilog.ParseProgramFragment(frag)
		if errs != nil {
			t.Fatalf("fragment %d: %v", k, errs)
		}
		p = p.Clone(len(mods), len(items))
		for _, m := range mods {
			if err := p.DeclareModule(m); err != nil {
				t.Fatal(err)
			}
		}
		p.AddRootItems(items...)
		var err error
		if d, err = ir.BuildFrom(d, p, stdlib.Registry()); err != nil {
			t.Fatalf("fragment %d: %v", k, err)
		}
		inl, err := ir.Inline(d)
		if err != nil {
			t.Fatalf("fragment %d: %v", k, err)
		}
		root := inl.Sub(ir.RootPath)
		f, err := elab.Elaborate(root.Module, ir.RootPath, root.Params)
		if err != nil {
			t.Fatalf("fragment %d: %v\n%s", k, err, verilog.Print(root.Module))
		}
		out = append(out, inlinedVersion{d, f})
	}
	return out
}

// sameVar reports whether a and b are one variable to a later version:
// name, shape and initial value.
func sameVar(a, b *elab.Var) bool {
	return a.Name == b.Name && a.Width == b.Width && a.IsReg == b.IsReg && a.ArrayLen == b.ArrayLen && a.ArrayLo == b.ArrayLo &&
		a.IsInput == b.IsInput && a.IsOutput == b.IsOutput && (a.Init == nil) == (b.Init == nil) && (a.Init == nil || a.Init.Equal(b.Init))
}

// kept returns how many of base's variables after its ports v declares
// where base does, counted from the end of each one's ports: the merged
// root's stdlib-facing ports come first, and a stdlib endpoint an eval
// reads or drives for the first time adds one, not always after the rest.
func kept(base, v *elab.Flat) int {
	bi, vi := len(base.Inputs)+len(base.Outputs), len(v.Inputs)+len(v.Outputs)
	n := 0
	for bi+n < len(base.Vars) && vi+n < len(v.Vars) && sameVar(base.Vars[bi+n], v.Vars[vi+n]) {
		n++
	}
	return n
}

// rebuiltAt is the position among v's non-port variables of the first
// declared by a user subprogram that base's design had at the same path
// but v's split anew (-1: none): the first an insertion may move.
func rebuiltAt(base, v inlinedVersion) int {
	at := -1
	for _, s := range v.flat.UserSubs() {
		if old := base.flat.Sub(s.Path); s.Path == ir.RootPath || old == nil || old == s {
			continue
		}
		for i, x := range v.root.Vars[len(v.root.Inputs)+len(v.root.Outputs):] {
			if strings.HasPrefix(x.Name, ir.PrefixOf(s.Path)) && (at < 0 || i < at) {
				at = i
				break
			}
		}
	}
	return at
}

// checkAppends holds every version of a session to its base: the merged
// root keeps every port of the base, and declares every other variable of
// the base where the base does, up to the first variable of a subprogram
// the eval split anew.
func checkAppends(t *testing.T, name string, vs []inlinedVersion) {
	t.Helper()
	for k := 1; k < len(vs); k++ {
		base, v := vs[k-1].root, vs[k].root
		nports := len(base.Inputs) + len(base.Outputs)
		for _, p := range base.Vars[:nports] {
			if q := v.VarNamed(p.Name); q == nil || !sameVar(p, q) {
				t.Fatalf("%s, eval %d: port %s is gone or changed", name, k, p.Name)
			}
		}
		want := len(base.Vars) - nports
		if at := rebuiltAt(vs[k-1], vs[k]); at >= 0 {
			want = min(want, at)
		}
		if got := kept(base, v); got < want {
			t.Fatalf("%s, eval %d: keeps %d of its base's %d variables where they were", name, k, got, want)
		}
	}
}

// chainFrag is the k-th eval of a session shaped like the benchmark's
// edit chain, whose merged root vgen.InlinedChain stands for: a stage
// module, a wire and an instance of it chained behind the one before.
func chainFrag(k int) string {
	prev := "cnt"
	if k > 0 {
		prev = fmt.Sprintf("v%d", k-1)
	}
	return fmt.Sprintf(`module E%[1]d(input wire clk, input wire [15:0] x, output wire [15:0] y);
  reg [15:0] acc = %[1]d;
  always @(posedge clk) acc <= acc * 3 + x;
  assign y = acc;
endmodule
wire [15:0] v%[1]d;
E%[1]d e%[1]d(.clk(clk.val), .x(%[2]s), .y(v%[1]d));
`, k, prev)
}

// TestInlineAppends: an eval appends to the merged root's variables —
// each instance's are declared where the instance is, its ports first,
// then its declarations with those of its own instances in their places
// — so a version keeps its base's variables where they were, which is
// what elab.ElaborateFrom shares. Along generated sessions and the edit
// chain, and for the cases that make the layout: two instances in one
// eval, a nested instance, an eval that adds only a root wire, and a
// collapsed port whose reg side arrives later, which is declared as a reg
// in the place it had. A subprogram split anew — a later fragment reads
// one of its registers, which becomes a port — is the one insertion: its
// variables are declared again from its first on.
func TestInlineAppends(t *testing.T) {
	for seed := uint64(0); seed < 16; seed++ {
		var frags []string
		for _, st := range vgen.Session(seed).Steps {
			if src := st.Source(); src != "" {
				frags = append(frags, src)
			}
		}
		checkAppends(t, fmt.Sprintf("vgen session %d", seed), inlineSession(t, frags))
	}

	const stages = 20
	var chain []string
	for k := 0; k < stages; k++ {
		chain = append(chain, chainFrag(k))
	}
	vs := inlineSession(t, append([]string{"reg [15:0] cnt = 0;\nalways @(posedge clk.val) cnt <= cnt + 1;\n"}, chain...))
	checkAppends(t, "edit chain", vs)
	// The same variables as the chain vgen.InlinedChain writes out, each
	// stage's after the one before; the root declares the wire it chains
	// through before the instance.
	m, _, errs := verilog.ParseProgramFragment(vgen.InlinedChain(stages))
	if errs != nil {
		t.Fatal(errs)
	}
	want, err := elab.Elaborate(m[0], ir.RootPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := vs[len(vs)-1].root
	var names []string
	for _, v := range got.Vars {
		names = append(names, v.Name)
	}
	if len(got.Vars) != len(want.Vars) || !strings.HasPrefix(strings.Join(names, " "), "clk__val cnt v0 e0__clk e0__x e0__y e0__acc v1 e1__clk") {
		t.Fatalf("the edit chain's merged root declares %v", names)
	}
	for _, v := range want.Vars {
		if g := got.VarNamed(v.Name); g == nil || !sameVar(g, v) {
			t.Fatalf("%s is not declared as vgen.InlinedChain declares it", v.Name)
		}
	}

	const m2 = `module M(input wire c, input wire [7:0] x, output wire [7:0] y);
  reg [7:0] a = 1;
  reg [7:0] b = 2;
  always @(posedge c) begin a <= a + x; b <= b ^ a; end
  assign y = a + b;
endmodule
`
	const nested = `module Outer(input wire c, output wire [7:0] o);
  wire [7:0] t;
  M in(.c(c), .x(8'd3), .y(t));
  reg [7:0] seen = 0;
  always @(posedge c) seen <= t;
  assign o = seen;
endmodule
`
	for _, tc := range []struct {
		name  string
		frags []string
	}{
		{"two instances in one eval", []string{m2 + "wire [7:0] p, q;\nM m0(.c(clk.val), .x(pad.val), .y(p));\nM m1(.c(clk.val), .x(p), .y(q));\n", "wire [7:0] r = p ^ q;\n"}},
		{"a nested instance", []string{m2 + nested + "wire [7:0] o;\nOuter u(.c(clk.val), .o(o));\n", "wire [7:0] o2;\nOuter v(.c(clk.val), .o(o2));\n", "assign led.val = o ^ o2;\n"}},
		{"an eval that adds only a root wire", []string{m2 + "wire [7:0] y;\nM m(.c(clk.val), .x(pad.val), .y(y));\n", "wire [7:0] w = y + 1;\n", "wire [3:0] z;\n"}},
	} {
		vs := inlineSession(t, tc.frags)
		checkAppends(t, tc.name, vs)
		for k := 1; k < len(vs); k++ {
			if at := rebuiltAt(vs[k-1], vs[k]); at >= 0 {
				t.Fatalf("%s, eval %d: a subprogram was split anew", tc.name, k)
			}
		}
	}

	// The reg side arrives later: m.x, an input m's connection left
	// open, is first declared as m declares it, a wire; a procedural
	// write from the root makes the one variable a reg, in its place.
	vs = inlineSession(t, []string{m2 + "wire [7:0] y;\nM m(.c(clk.val), .y(y));\n", "reg [7:0] t = 5;\nalways @(posedge clk.val) m.x <= t;\n"})
	base, v := vs[1].root, vs[2].root
	for i, bv := range base.Vars {
		if bv.Name == "m__x" {
			if x := v.Vars[i]; x.Name != "m__x" || bv.IsReg || !x.IsReg {
				t.Fatalf("m__x: %+v, then %+v", bv, x)
			}
			continue
		}
		if !sameVar(bv, v.Vars[i]) {
			t.Fatalf("%s moved or changed: %+v, then %+v", bv.Name, bv, v.Vars[i])
		}
	}

	// Split anew: reading m.b makes b a port of m, declared after its
	// ports, before a. The variables before m's are kept.
	vs = inlineSession(t, []string{m2 + "wire [7:0] w0;\nwire [7:0] y;\nM m(.c(clk.val), .x(pad.val), .y(y));\n", "wire [7:0] peek = m.b;\n"})
	checkAppends(t, "a subprogram split anew", vs)
	if at := rebuiltAt(vs[1], vs[2]); at != 2 {
		t.Fatalf("m's variables start at %d, want after w0 and y", at)
	}
	if items := kept(vs[1].root, vs[2].root); items != 2+3 {
		t.Fatalf("the eval that split m anew keeps %d variables, want w0, y and m's three ports", items)
	}
}
