package runtime

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/fpga"
	"cascade/internal/ir"
	"cascade/internal/verilog"
	"cascade/internal/vgen"
)

// twoModules is a two-subprogram program: instance a of M counts in a.x,
// which inlining renames a__x (ir.PrefixOf), and the root adds its own
// counter and drives the LEDs from both.
const twoModules = `
module M(input wire c, output wire [7:0] o);
  reg [7:0] x = 1;
  always @(posedge c) x <= x + 1;
  assign o = x;
endmodule
wire [7:0] w;
M a(.c(clk.val), .o(w));
reg [7:0] n = 0;
always @(posedge clk.val) begin
  n <= n + 2;
  if (n[2:0] == 0) $display("n=%d x=%d", n, w);
end
assign led.val = w + n;
`

// inlineCollision is legal Verilog whose root declaration meets a.x's
// inlined name: refused when the runtime inlines, accepted when it does
// not (DESIGN.md "Program versions").
const inlineCollision = `reg [7:0] a__x = 3;`

// TestRejectedInlineLeavesProgramRunning: a fragment that only the
// merged root's elaboration can refuse used to be refused after the eval
// had been journaled, the program replaced and every engine torn down —
// leaving an empty schedule that ticked on, failing every later eval,
// and a journal that could never be replayed.
func TestRejectedInlineLeavesProgramRunning(t *testing.T) {
	check := func(t *testing.T, r *Runtime) {
		t.Helper()
		r.RunTicks(5)
		st, phase, src := r.Stats(), r.Phase(), r.ProgramSource()
		err := r.Eval(inlineCollision)
		if err == nil {
			t.Fatal("colliding fragment accepted")
		}
		if msg := err.Error(); !strings.Contains(msg, "3:13: duplicate declaration of a__x") || strings.Contains(msg, "module") {
			t.Fatalf("error should name the declaration and its position, not print the merged module: %v", err)
		}
		if got := r.Stats(); len(got.Engines) != len(st.Engines) || got.Persist.Records != st.Persist.Records {
			t.Fatalf("refusal left %d engines, %d journal records, want %d, %d",
				len(got.Engines), got.Persist.Records, len(st.Engines), st.Persist.Records)
		}
		if r.Phase() != phase || r.ProgramSource() != src {
			t.Fatalf("refusal moved the program: phase %v -> %v\n%s", phase, r.Phase(), r.ProgramSource())
		}
		before := r.World().Led("main.led")
		r.RunTicks(1)
		if got := r.World().Led("main.led"); got != (before+3)&0xff {
			t.Fatalf("program stopped counting: led %d -> %d", before, got)
		}
		if err := r.Eval("reg [3:0] z = 0;"); err != nil {
			t.Fatalf("eval after the refusal: %v", err)
		}
	}

	t.Run("memory", func(t *testing.T) {
		// Lock-step throughout, so a tick is a tick (as persistTestOptions).
		r := newTestRuntime(t, Options{Features: Features{DisableOpenLoop: true}})
		r.MustEval(twoModules)
		check(t, r)
	})

	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		opts, _ := persistTestOptions(dir, 1, nil)
		r, _, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		r.MustEval(DefaultPrelude)
		r.MustEval(twoModules)
		check(t, r)
		led := r.World().Led("main.led")
		if err := r.ClosePersistence(); err != nil {
			t.Fatal(err)
		}
		opts, _ = persistTestOptions(dir, 1, nil)
		r2, info, err := Open(opts)
		if err != nil {
			t.Fatalf("reopen after a refused eval: %v", err)
		}
		defer r2.ClosePersistence()
		if !info.Recovered || r2.World().Led("main.led") != led {
			t.Fatalf("recovered=%v led=%d, want led %d", info.Recovered, r2.World().Led("main.led"), led)
		}
	})

	// Without inlining nothing is renamed, so the name is free.
	t.Run("accepted without inlining", func(t *testing.T) {
		r := newTestRuntime(t, Options{Features: Features{DisableInline: true}})
		r.MustEval(twoModules)
		r.RunTicks(5)
		if err := r.Eval(inlineCollision); err != nil {
			t.Fatalf("flat design refused a free name: %v", err)
		}
		before := r.World().Led("main.led")
		r.RunTicks(1)
		if got := r.World().Led("main.led"); got != (before+3)&0xff || len(r.Stats().Engines) != 5 {
			t.Fatalf("led %d -> %d, engines %d", before, got, len(r.Stats().Engines))
		}
	})
}

// TestUnreachableDaemonRejectsEvalCleanly: the daemon is dialled before
// an eval commits, so with nobody listening the eval is refused with
// nothing installed — it used to commit first, and the retry then failed
// with "duplicate instance name clk".
func TestUnreachableDaemonRejectsEvalCleanly(t *testing.T) {
	d := newTestDaemon(t, "", false)
	d.kill()
	dev := fpga.NewCycloneV()
	r := New(Options{Device: dev, Toolchain: fastToolchain(dev), Remote: &RemoteOptions{Addr: d.addr}})
	defer r.CloseRemote()
	if err := r.Eval(DefaultPrelude); err == nil {
		t.Fatal("eval succeeded with no daemon listening")
	}
	if n := len(r.Stats().Engines); n != 0 || r.ProgramSource() != "" || r.Phase() != PhaseEmpty {
		t.Fatalf("refused eval left engines=%d phase=%v source=%q", n, r.Phase(), r.ProgramSource())
	}
	d.restart()
	if err := r.Eval(DefaultPrelude); err != nil {
		t.Fatalf("the same eval once the daemon listens: %v", err)
	}
	if n := len(r.Stats().Engines); n != 4 {
		t.Fatalf("engines = %d, want the root and three peripherals", n)
	}
}

// fragmentsOf is what a session evals, in order, the prelude first.
func fragmentsOf(s vgen.Script) []string {
	frags := []string{DefaultPrelude}
	for _, st := range s.Steps {
		if src := st.Source(); src != "" {
			frags = append(frags, src)
		}
	}
	return frags
}

// describeVersion prints everything integrate derives, in its own order:
// both designs' subprograms (printed module, parameters) and wires, the
// clock input, and every elaboration's variable table and printed body.
func describeVersion(v *version) string {
	var sb strings.Builder
	vec := func(env map[string]*bits.Vector) string {
		names := make([]string, 0, len(env))
		for n := range env {
			names = append(names, n)
		}
		sort.Strings(names)
		for i, n := range names {
			names[i] = n + "=" + env[n].String()
		}
		return strings.Join(names, ",")
	}
	for _, d := range []*ir.Design{v.flat, v.exec} {
		for _, s := range d.Subs {
			fmt.Fprintf(&sb, "sub %s std=%q params[%s]\n", s.Path, s.StdType, vec(s.Params))
			if s.Module != nil {
				sb.WriteString(verilog.Print(s.Module))
			}
		}
		for _, w := range d.Wires {
			fmt.Fprintf(&sb, "wire %s.%s -> %s.%s\n", w.From.Sub, w.From.Port, w.To.Sub, w.To.Port)
		}
	}
	fmt.Fprintf(&sb, "clockVar=%q inlined=%v\n", v.clockVar, v.inlined)
	for _, elabs := range []map[string]*elab.Flat{v.flatElabs, v.execElabs} {
		paths := make([]string, 0, len(elabs))
		for p := range elabs {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			f := elabs[p]
			fmt.Fprintf(&sb, "elab %s of %s params[%s] in=%d out=%d\n", f.Name, f.ModName, vec(f.Params), len(f.Inputs), len(f.Outputs))
			for _, fv := range f.Vars {
				init := "-"
				if fv.Init != nil {
					init = fv.Init.String()
				}
				fmt.Fprintf(&sb, "  %+v init=%s\n", *fv, init)
			}
			sb.WriteString(verilog.Print(f.Source))
		}
	}
	return sb.String()
}

// editChain is a session shaped like the benchmark's: every fragment
// declares a stage and chains an instance of it behind the previous one.
func editChain(n int) vgen.Script {
	s := vgen.Script{Name: "editChain", Steps: []vgen.Step{{Pad: -1, Src: "reg [15:0] cnt = 0;\nalways @(posedge clk.val) cnt <= cnt + 1;\n"}}}
	prev := "cnt"
	for i := 0; i < n; i++ {
		s.Steps = append(s.Steps, vgen.Step{Pad: -1, Src: fmt.Sprintf(`module E%[1]d(input wire clk, input wire [15:0] x, output wire [15:0] y);
  reg [15:0] acc = %[1]d;
  always @(posedge clk) acc <= acc * 3 + x;
  assign y = acc;
endmodule
wire [15:0] v%[1]d;
E%[1]d e%[1]d(.clk(clk.val), .x(%[2]s), .y(v%[1]d));
`, i, prev)})
		prev = fmt.Sprintf("v%d", i)
	}
	return s
}

// nested has an instance below an instance, parameter overrides on two
// instances of one module, and a late hierarchical read that promotes a
// register of an instance built two fragments earlier.
var nested = vgen.Script{Name: "nested", Steps: []vgen.Step{
	{Pad: -1, Src: `module Inner #(parameter W = 4)(input wire c, output wire [W-1:0] q);
  reg [W-1:0] r = 1;
  always @(posedge c) r <= r + 1;
  assign q = r;
endmodule
module Outer(input wire c, output wire [7:0] o);
  wire [7:0] t;
  reg [7:0] seen = 0;
  Inner #(8) in(.c(c), .q(t));
  always @(posedge c) seen <= t;
  assign o = t ^ seen;
endmodule
wire [7:0] ow;
Outer o(.c(clk.val), .o(ow));
`},
	{Pad: -1, Src: "wire [3:0] aq;\nwire [5:0] bq;\nInner a(.c(clk.val), .q(aq));\nInner #(6) b(.c(clk.val), .q(bq));\n"},
	{Pad: -1, Src: "assign led.val = ow + aq + bq;\n"},
	{Pad: -1, Src: "wire [7:0] peek = o.seen;\n"},
}}

// incrementalSessions are the sessions the front end's memo is held to.
func incrementalSessions() []vgen.Script {
	out := append([]vgen.Script{}, programs...)
	out = append(out, editChain(6), nested)
	for seed := uint64(0); seed < 16; seed++ {
		out = append(out, vgen.Session(seed))
	}
	return out
}

// checkIncremental integrates frags[from:] one by one onto v — itself
// integrated from scratch over frags[:from] — and holds every version on
// the way to the one integrate derives from the whole source so far.
func checkIncremental(t *testing.T, frags []string, from int, inline bool) {
	t.Helper()
	v, err := integrate(emptyVersion(), strings.Join(frags[:from], "\n"), inline)
	if err != nil {
		t.Fatalf("from scratch over %d fragments: %v", from, err)
	}
	for k := from; k < len(frags); k++ {
		if v, err = integrate(v, frags[k], inline); err != nil {
			t.Fatalf("fragment %d: %v", k, err)
		}
		whole, err := integrate(emptyVersion(), strings.Join(frags[:k+1], "\n"), inline)
		if err != nil {
			t.Fatalf("from scratch over %d fragments: %v", k+1, err)
		}
		if got, want := describeVersion(v), describeVersion(whole); got != want {
			t.Fatalf("inline=%v: after fragment %d the incremental version differs from the one built from scratch\n--- incremental\n%s\n--- from scratch\n%s", inline, k, got, want)
		}
	}
}

// TestIncrementalEqualsFromScratch: integrate(base, fragment) derives
// what integrate(empty, whole source so far) derives, at every prefix of
// every session, inlined or not.
func TestIncrementalEqualsFromScratch(t *testing.T) {
	for _, s := range incrementalSessions() {
		for _, inline := range []bool{true, false} {
			checkIncremental(t, fragmentsOf(s), 1, inline)
		}
	}
}

// FuzzIntegrateIncremental: the same, for any generated session, from any
// cut point on — and every version's programs synthesized from the
// previous version's are the ones synthesized from scratch, inlined or
// not (TestSynthesisFromBaseEqualsFromScratch).
func FuzzIntegrateIncremental(f *testing.F) {
	f.Add(uint64(3), uint8(1))
	f.Add(uint64(25), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, cut uint8) {
		frags := fragmentsOf(vgen.Session(seed))
		from := 1 + int(cut)%len(frags)
		checkIncremental(t, frags, from, seed%2 == 0)
		for _, inline := range []bool{true, false} {
			checkSynthesisChain(t, "fuzz", frags, from, inline)
		}
	})
}

// buildVersions integrates a session's fragments onto the prelude, returning
// every version on the way.
func buildVersions(t *testing.T, s vgen.Script) []*version {
	t.Helper()
	v, vs := emptyVersion(), []*version(nil)
	for k, frag := range fragmentsOf(s) {
		var err error
		if v, err = integrate(v, frag, true); err != nil {
			t.Fatalf("%s fragment %d: %v", s.Name, k, err)
		}
		vs = append(vs, v)
	}
	return vs
}

// sameSub reports whether path is the same subprogram object, with the
// same elaboration object, in both versions.
func sameSub(a, b *version, path string) bool {
	return a.flat.Sub(path) != nil && a.flat.Sub(path) == b.flat.Sub(path) && a.flatElabs[path] == b.flatElabs[path]
}

// TestIntegrateReusesUnchangedSubprograms: what an eval keeps of its base
// version, by pointer. An instance the fragment left alone is the base's
// own subprogram and elaboration; one whose ports the fragment changed —
// by reading a register of it hierarchically — is rebuilt, alone; the
// root always is.
func TestIntegrateReusesUnchangedSubprograms(t *testing.T) {
	vs := buildVersions(t, editChain(5))
	for k := 2; k < len(vs); k++ {
		if sameSub(vs[k-1], vs[k], ir.RootPath) {
			t.Fatalf("version %d kept its base's root", k)
		}
		for i := 0; i < k-2; i++ {
			if path := fmt.Sprintf("main.e%d", i); !sameSub(vs[k-1], vs[k], path) {
				t.Errorf("version %d rebuilt %s, which its fragment did not touch", k, path)
			}
		}
	}
	base := vs[len(vs)-1]
	v, err := integrate(base, "wire [15:0] p = e3.acc;", true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		path := fmt.Sprintf("main.e%d", i)
		if same := sameSub(base, v, path); same != (i != 3) {
			t.Errorf("%s kept=%v after a fragment that reads e3.acc", path, same)
		}
	}
	promoted := false
	for _, p := range v.flat.Sub("main.e3").Module.Ports {
		promoted = promoted || (p.Name == "acc" && p.Dir == verilog.Output)
	}
	if !promoted || v.flatElabs["main.e3"].VarNamed("acc") == nil || !v.flatElabs["main.e3"].VarNamed("acc").IsOutput {
		t.Errorf("the rebuilt e3 does not export acc:\n%s", verilog.Print(v.flat.Sub("main.e3").Module))
	}
	// And the next eval keeps the rebuilt e3 in turn.
	if next, err := integrate(v, "wire [15:0] p2 = e3.acc + 1;", true); err != nil || !sameSub(v, next, "main.e3") {
		t.Errorf("a second reader of e3.acc rebuilt e3 again (err %v)", err)
	}

	// Instances of one module with different overrides are different
	// subprograms with different elaborations, each kept for itself, and an
	// instance below an instance is kept with its parent.
	ns := buildVersions(t, nested)
	b2, b3, b4 := ns[2], ns[3], ns[4]
	a, b := b2.flat.Sub("main.a"), b2.flat.Sub("main.b")
	if a == b || a.Params["W"].Equal(b.Params["W"]) || b2.flatElabs["main.a"].VarNamed("r").Width != 4 || b2.flatElabs["main.b"].VarNamed("r").Width != 6 {
		t.Errorf("a and b share: params %v / %v", a.Params, b.Params)
	}
	for _, path := range []string{"main.a", "main.b", "main.o", "main.o.in"} {
		if !sameSub(b2, b3, path) {
			t.Errorf("%s was rebuilt by a fragment of root logic", path)
		}
		if same := sameSub(b3, b4, path); same != (path != "main.o") {
			t.Errorf("%s kept=%v after a fragment that reads o.seen", path, same)
		}
	}
}

// TestRefusedFragmentLeavesBaseUntouched: integrate only reads its base.
// Whatever refuses a fragment — the parser, a duplicate module, the
// builder, the inlined root's elaboration — every map, design and
// subprogram of the base is what it was.
func TestRefusedFragmentLeavesBaseUntouched(t *testing.T) {
	for _, s := range []vgen.Script{vgen.Program("twoModules", twoModules, 0), editChain(4), nested} {
		vs := buildVersions(t, s)
		base := vs[len(vs)-1]
		type shallow struct {
			v            version
			flat, exec   ir.Design
			subs         []ir.SubProgram
			fElab, xElab map[string]*elab.Flat
			mods         map[string]*verilog.Module
		}
		take := func() (shallow, string) {
			c := shallow{v: *base, flat: *base.flat, exec: *base.exec, fElab: map[string]*elab.Flat{}, xElab: map[string]*elab.Flat{}, mods: map[string]*verilog.Module{}}
			c.flat.Subs, c.flat.Wires = append([]*ir.SubProgram{}, base.flat.Subs...), append([]ir.Wire{}, base.flat.Wires...)
			for _, sub := range append(append([]*ir.SubProgram{}, base.flat.Subs...), base.exec.Subs...) {
				c.subs = append(c.subs, *sub)
			}
			for p, f := range base.flatElabs {
				c.fElab[p] = f
			}
			for p, f := range base.execElabs {
				c.xElab[p] = f
			}
			for n, m := range base.prog.Modules {
				c.mods[n] = m
			}
			return c, describeVersion(base) + fmt.Sprint(base.prog.ModuleNames(), len(base.prog.RootItems))
		}
		before, text := take()
		for _, frag := range []string{
			"wire [7:0 oops",
			"module M(input wire c); endmodule\nmodule M(input wire c); endmodule\nmodule E0(input wire c); endmodule\nmodule Inner(input wire c); endmodule",
			"wire [7:0] q = nosuch.x;",
			"reg [7:0] a__x = 3;\nreg [15:0] e0__acc = 1;\nreg [7:0] o__seen = 2;",
			"wire [15:0] p = e2.acc;\nwire [7:0] s = o.seen;\nwire [7:0] ax = a.x;\nwire bad = undeclared_name;",
		} {
			if _, err := integrate(base, frag, true); err == nil {
				t.Fatalf("%s: fragment accepted: %s", s.Name, frag)
			}
			after, now := take()
			if !reflect.DeepEqual(before, after) || text != now {
				t.Fatalf("%s: refusing %q changed the base version", s.Name, frag)
			}
		}
	}
}
