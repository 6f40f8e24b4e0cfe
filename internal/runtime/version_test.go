package runtime

import (
	"fmt"
	"reflect"
	goruntime "runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/fpga"
	"cascade/internal/ir"
	"cascade/internal/netlist"
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
		// The merged root declares a's variables where a is, so the
		// refused declaration is the later one: the fragment's.
		if msg := err.Error(); !strings.Contains(msg, "1:11: duplicate declaration of a__x") || strings.Contains(msg, "module") {
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
// clock input, and every elaboration's variable table, printed source and
// elaborated behaviour (describeBehaviour).
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
			describeBehaviour(&sb, f)
		}
	}
	return sb.String()
}

// describeBehaviour prints f's elaborated assigns, processes and initial
// blocks in order, each with the source item it came from (its index in
// the module) and its frame, every variable as name#index:width, read
// through the frame — what relocation (elab.ElaborateFrom) shares and
// binds anew.
func describeBehaviour(sb *strings.Builder, f *elab.Flat) {
	at := map[verilog.Item]int{}
	for i, it := range f.Source.Items {
		at[it] = i
	}
	var fr []*elab.Var // the frame of the unit being printed
	v := func(x *elab.Var) string { return fmt.Sprintf("%s#%d:%d", x.Name, x.Index, x.Width) }
	frame := func() string {
		parts := make([]string, len(fr))
		for i, x := range fr {
			parts[i] = v(x)
		}
		return strings.Join(parts, ",")
	}
	var expr func(x elab.Expr) string
	expr = func(x elab.Expr) string {
		switch t := x.(type) {
		case nil:
			return "_"
		case *elab.Const:
			return t.V.String()
		case *elab.VarRef:
			return fmt.Sprintf("%s:%d", v(fr[t.Var]), t.W)
		case *elab.ArrayRef:
			return fmt.Sprintf("%s[%s]:%d", v(fr[t.Var]), expr(t.Index), t.W)
		case *elab.BitSel:
			return fmt.Sprintf("%s[%s]", expr(t.X), expr(t.Idx))
		case *elab.Slice:
			return fmt.Sprintf("%s[%d:%d]", expr(t.X), t.Hi, t.Lo)
		case *elab.Unary:
			return fmt.Sprintf("(u%d %s):%d", t.Op, expr(t.X), t.W)
		case *elab.Binary:
			return fmt.Sprintf("(%s b%d %s):%d", expr(t.X), t.Op, expr(t.Y), t.W)
		case *elab.Ternary:
			return fmt.Sprintf("(%s ? %s : %s):%d", expr(t.Cond), expr(t.Then), expr(t.Else), t.W)
		case *elab.Concat:
			parts := make([]string, len(t.Parts))
			for i, p := range t.Parts {
				parts[i] = expr(p)
			}
			return fmt.Sprintf("{%s}:%d", strings.Join(parts, ","), t.W)
		case *elab.Repl:
			return fmt.Sprintf("{%d{%s}}:%d", t.N, expr(t.X), t.W)
		case *elab.TimeRef:
			return "$time"
		}
		return fmt.Sprintf("?%T", x)
	}
	lvalues := func(lvs []elab.LValue) string {
		parts := make([]string, len(lvs))
		for i, lv := range lvs {
			parts[i] = fmt.Sprintf("%s[%s|%v %d:%d|%s]", v(fr[lv.Var]), expr(lv.ArrIndex), lv.HasRange, lv.Hi, lv.Lo, expr(lv.DynBit))
		}
		return strings.Join(parts, ",")
	}
	var stmt func(s elab.Stmt, in string)
	stmt = func(s elab.Stmt, in string) {
		switch t := s.(type) {
		case nil:
			fmt.Fprintf(sb, "%s;\n", in)
		case *elab.Block:
			fmt.Fprintf(sb, "%sbegin\n", in)
			for _, st := range t.Stmts {
				stmt(st, in+"  ")
			}
		case *elab.If:
			fmt.Fprintf(sb, "%sif %s\n", in, expr(t.Cond))
			stmt(t.Then, in+"  ")
			stmt(t.Else, in+"  ")
		case *elab.Case:
			fmt.Fprintf(sb, "%scase %s\n", in, expr(t.Subject))
			for _, it := range t.Items {
				labels := make([]string, len(it.Labels))
				for i, l := range it.Labels {
					labels[i] = expr(l)
				}
				fmt.Fprintf(sb, "%s  %s masks%v:\n", in, strings.Join(labels, ","), it.Masks)
				stmt(it.Body, in+"    ")
			}
		case *elab.Assign:
			fmt.Fprintf(sb, "%s%s blocking=%v <- %s\n", in, lvalues(t.LHS), t.Blocking, expr(t.RHS))
		case *elab.SysTask:
			args := make([]string, len(t.Args))
			for i, a := range t.Args {
				args[i] = expr(a)
			}
			fmt.Fprintf(sb, "%stask%d %q %s\n", in, t.Kind, t.Format, strings.Join(args, ","))
		default:
			fmt.Fprintf(sb, "%s?%T\n", in, s)
		}
	}
	for _, a := range f.Assigns {
		fr = a.Frame
		fmt.Fprintf(sb, "assign@%d/%d frame[%s] %s = %s\n", at[a.Src], a.Ord, frame(), lvalues(a.LHS), expr(a.RHS))
	}
	for _, p := range f.Procs {
		fr = p.Frame
		edges := make([]string, len(p.Edges))
		for i, e := range p.Edges {
			edges[i] = fmt.Sprintf("%d:%s", e.Kind, v(fr[e.Var]))
		}
		reads := make([]string, len(p.Reads))
		for i, r := range p.Reads {
			reads[i] = v(fr[r])
		}
		fmt.Fprintf(sb, "proc@%d star=%v frame[%s] edges[%s] reads[%s]\n", at[p.Src], p.Star, frame(), strings.Join(edges, ","), strings.Join(reads, ","))
		stmt(p.Body, "  ")
	}
	for i, st := range f.Initials {
		fr = f.InitialFrames[i]
		fmt.Fprintf(sb, "initial@%d frame[%s]\n", at[f.InitialItems[i]], frame())
		stmt(st, "  ")
	}
	fmt.Fprintf(sb, "inputs=%d outputs=%d\n", len(f.Inputs), len(f.Outputs))
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
		base := v
		if v, err = integrate(v, frags[k], inline); err != nil {
			t.Fatalf("fragment %d: %v", k, err)
		}
		for path, f := range v.flatElabs {
			if b := base.flatElabs[path]; b != nil {
				sharesTrees(t, b, f)
			}
		}
		for path, f := range v.execElabs {
			if b := base.execElabs[path]; b != nil {
				sharesTrees(t, b, f)
			}
		}
		whole, err := integrate(emptyVersion(), strings.Join(frags[:k+1], "\n"), inline)
		if err != nil {
			t.Fatalf("from scratch over %d fragments: %v", k+1, err)
		}
		if got, want := describeVersion(v), describeVersion(whole); got != want {
			t.Fatalf("inline=%v: after fragment %d the incremental version differs from the one built from scratch\n--- incremental\n%s\n--- from scratch\n%s", inline, k, got, want)
		}
		// State crosses the inline boundary by MergedNames: the i-th is
		// the inlined name of the elaboration's i-th variable.
		for _, s := range v.flat.UserSubs() {
			names, vars := s.MergedNames(), v.flatElabs[s.Path].Vars
			if s.Path == ir.RootPath && names == nil {
				continue // the root's variables keep their names
			}
			if len(names) != len(vars) {
				t.Fatalf("%s has %d merged names for %d variables", s.Path, len(names), len(vars))
			}
			for i, fv := range vars {
				if names[i] != ir.PrefixOf(s.Path)+fv.Name {
					t.Fatalf("%s: merged name %q for %s", s.Path, names[i], fv.Name)
				}
			}
		}
		// What synthesis makes of the executing root, relocated items and
		// all, is what it makes of the root elaborated from scratch.
		got, gerr := netlist.Compile(v.execElabs[ir.RootPath])
		want, werr := netlist.Compile(whole.execElabs[ir.RootPath])
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || (gerr == nil && got.Fingerprint() != want.Fingerprint()) {
			t.Fatalf("inline=%v: after fragment %d the incremental root synthesizes differently (errors %v / %v)", inline, k, gerr, werr)
		}
	}
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
			t.Fatalf("%s: unit %d kept its base's identity but not its tree", f.Name, unit)
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
// every version on the way. Each fragment is padded to the line it has in
// the whole source joined (padTo), so that positions, and so errors, read
// as they do from scratch.
func buildVersions(t *testing.T, s vgen.Script) []*version {
	t.Helper()
	v, vs := emptyVersion(), []*version(nil)
	frags := fragmentsOf(s)
	for k, frag := range frags {
		if k > 0 {
			frag = padTo(strings.Join(frags[:k], "\n"), frag)
		}
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
// builder, the inlined root's elaboration — it does so with the error
// integrating the whole source from scratch gives, and every map, design
// and subprogram of the base is what it was.
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
			// Refused as integrating the whole source from scratch refuses it.
			checkRefusal(t, base, strings.Join(fragmentsOf(s), "\n"), frag, true)
			after, now := take()
			if !reflect.DeepEqual(before, after) || text != now {
				t.Fatalf("%s: refusing %q changed the base version", s.Name, frag)
			}
		}
	}
}

// BenchmarkIntegrateEdit: one eval of the benchmark-shaped session at
// full size — editChain(150)'s last fragment integrated, inlined, onto
// the version of everything before it.
func BenchmarkIntegrateEdit(b *testing.B) {
	frags := fragmentsOf(editChain(150))
	n := len(frags)
	// The base is itself integrated onto its predecessor, as in a session.
	base, err := integrate(emptyVersion(), strings.Join(frags[:n-2], "\n"), true)
	if err == nil {
		base, err = integrate(base, frags[n-2], true)
	}
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchVersion, err = integrate(base, frags[n-1], true); err != nil {
			b.Fatal(err)
		}
	}
}

var benchVersion *version // BenchmarkIntegrateEdit's result, kept from the compiler

// relocatable counts f's units relocation can copy: net declarations,
// assigns, processes and initial blocks (elab.Flat.Relocated).
func relocatable(f *elab.Flat) int {
	n := len(f.Assigns) + len(f.Procs) + len(f.Initials)
	for _, it := range f.Source.Items {
		if _, ok := it.(*verilog.NetDecl); ok {
			n++
		}
	}
	return n
}

// TestIntegrateRelocatesAnEditChain: along the benchmark-shaped session,
// an eval derives what it added: at 150 edits, nine in ten units of both
// roots — the flat one and the inlined one — are relocated from the
// previous version's, and nine in ten of the root's instances keep what
// their previous split derived.
func TestIntegrateRelocatesAnEditChain(t *testing.T) {
	frags := fragmentsOf(editChain(150))
	n := len(frags)
	base, err := integrate(emptyVersion(), strings.Join(frags[:n-1], "\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	v, err := integrate(base, frags[n-1], true)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*elab.Flat{v.flatElabs[ir.RootPath], v.execElabs[ir.RootPath]} {
		if units := relocatable(f); f.Relocated*10 < units*9 {
			t.Errorf("relocated %d of the root's %d units, want at least 90%%", f.Relocated, units)
		}
	}
	if kept, insts := v.flat.Sub(ir.RootPath).Kept, 150+3; kept*10 < insts*9 {
		t.Errorf("the root's split kept %d of its %d instances, want at least 90%%", kept, insts)
	}
}

// padTo is frag preceded by as many newlines as src has lines, so that
// its positions are those it has at the end of src+"\n"+frag: an error
// integrate reports for it names the same line either way.
func padTo(src, frag string) string {
	return strings.Repeat("\n", strings.Count(src, "\n")+1) + frag
}

// checkRefusal integrates frag onto base, the version of src, and wants
// it refused with the error integrating src and frag from scratch gives,
// leaving base as it was.
func checkRefusal(t *testing.T, base *version, src, frag string, inline bool) error {
	t.Helper()
	before := describeVersion(base)
	_, err := integrate(base, padTo(src, frag), inline)
	_, want := integrate(emptyVersion(), src+"\n"+frag, inline)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("fragment %q: refused with %v, from scratch %v", frag, err, want)
	}
	if describeVersion(base) != before {
		t.Fatalf("refusing %q changed the base version", frag)
	}
	return err
}

// TestIntegrateFromKeyMutations: what integrate keeps of its base is kept
// only while what it was derived from is unchanged. Each pair integrates
// a fragment onto a version and counts what the new version relocated of
// each root's units (elab.Flat.Relocated) and kept of the root's
// instances (ir.SubProgram.Kept); either way the version is the one
// integrated from scratch, or the fragment is refused as from scratch.
func TestIntegrateFromKeyMutations(t *testing.T) {
	const stage = `module E(input wire clk, input wire [7:0] x, output wire [7:0] y);
  reg [7:0] acc = 1;
  always @(posedge clk) acc <= acc + x;
  assign y = acc;
endmodule
module P #(parameter W = 4)(input wire clk, output wire [W-1:0] q);
  reg [W-1:0] r = 0;
  always @(posedge clk) r <= r + 1;
  assign q = r;
endmodule
`
	const base = stage + `localparam K = 6;
wire [7:0] v;
wire [5:0] pq;
E e(.clk(clk.val), .x(8'd3), .y(v));
P #(K) p(.clk(clk.val), .q(pq));
wire [7:0] sum = v + pq;
always @(posedge clk.val) if (sum == 0) $display("zero");
assign led.val = sum;`
	for _, tc := range []struct {
		name, frag         string
		flat, merged, kept int
		refused            bool
	}{
		// A procedural write makes e's x, a promoted wire its connection
		// drives continuously, a reg: the connection's assignment, which
		// names it, is elaborated again — and refused, as from scratch.
		{name: "a procedural hierarchical write turns a port to reg", frag: "always @(posedge clk.val) e.x <= 8'd1;", refused: true},
		// e is split again (ir.BuildFrom) and its items renamed afresh: in
		// the merged root its process, its assign, its now promoted acc and
		// its ports, which e declares (ir.Inline), are elaborated again,
		// with the fragment's declaration and initializer, which are all
		// the flat root elaborates.
		{name: "a late hierarchical read promotes e.acc", frag: "wire [7:0] peek = e.acc;", flat: 11, merged: 16, kept: 5},
		// The root gains a parameter, which a new instance's override
		// names. Every parameter the base bound keeps its value, so no
		// item of the base can tell: only the fragment's declaration and
		// connections are derived, and in the merged root pj's items too.
		{name: "a root localparam is used in an instance override", frag: "localparam J = 3;\nwire [2:0] jq;\nP #(J) pj(.clk(clk.val), .q(jq));", flat: 11, merged: 22, kept: 5},
		// A second driver of sum, whose assignment is relocated: it still
		// claims sum, so the fragment is refused where it drives it.
		{name: "a second continuous driver", frag: "assign sum = 8'd0;", refused: true},
		{name: "nothing changes", frag: "", flat: 11, merged: 22, kept: 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := DefaultPrelude + "\n" + base
			v0, err := integrate(emptyVersion(), src, true)
			if err != nil {
				t.Fatal(err)
			}
			if tc.refused {
				t.Log(checkRefusal(t, v0, src, tc.frag, true))
				return
			}
			v, err := integrate(v0, padTo(src, tc.frag), true)
			if err != nil {
				t.Fatal(err)
			}
			whole, err := integrate(emptyVersion(), src+"\n"+tc.frag, true)
			if err != nil {
				t.Fatal(err)
			}
			if describeVersion(v) != describeVersion(whole) {
				t.Fatal("the version differs from the one integrated from scratch")
			}
			flat, merged := v.flatElabs[ir.RootPath], v.execElabs[ir.RootPath]
			if got := [3]int{flat.Relocated, merged.Relocated, v.flat.Sub(ir.RootPath).Kept}; got != [3]int{tc.flat, tc.merged, tc.kept} {
				t.Fatalf("relocated %d of %d flat and %d of %d merged units, kept %d instances; want %d, %d, %d",
					flat.Relocated, relocatable(flat), merged.Relocated, relocatable(merged), got[2], tc.flat, tc.merged, tc.kept)
			}
		})
	}
}

// TestIntegrateKeepsNoChain: a version derived from its base holds none
// of the base's own records — its roots, their elaborations, its merged
// design — so a session keeps one version alive, not all of them.
func TestIntegrateKeepsNoChain(t *testing.T) {
	frags := fragmentsOf(editChain(8))
	v, err := integrate(emptyVersion(), strings.Join(frags[:len(frags)-2], "\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan string, 4)
	onFree := func(what string) { freed <- what }
	goruntime.SetFinalizer(v.flatElabs[ir.RootPath], func(*elab.Flat) { onFree("flat root elaboration") })
	goruntime.SetFinalizer(v.execElabs[ir.RootPath], func(*elab.Flat) { onFree("merged root elaboration") })
	goruntime.SetFinalizer(v.flat.Sub(ir.RootPath), func(*ir.SubProgram) { onFree("root subprogram") })
	goruntime.SetFinalizer(v.exec, func(*ir.Design) { onFree("merged design") })
	for _, frag := range frags[len(frags)-2:] {
		if v, err = integrate(v, frag, true); err != nil {
			t.Fatal(err)
		}
	}
	// Finalizers run after the collection that finds their objects dead.
	for n, gcs := 0, 0; n < 4; {
		goruntime.GC()
		select {
		case <-freed:
			n++
		case <-time.After(100 * time.Millisecond):
			if gcs++; gcs == 20 {
				t.Fatalf("%d of the first version's four records are still reachable", 4-n)
			}
		}
	}
	goruntime.KeepAlive(v)
}

// TestStdLayoutsBuiltOncePerVersion: a component's layout costs building
// the component, so a version builds each once and answers every later
// ask (Restore's check, the merged root's seed) with the same layout.
func TestStdLayoutsBuiltOncePerVersion(t *testing.T) {
	v, err := integrate(emptyVersion(), DefaultPrelude+"Memory#(12, 32) mem();\nassign led.val = mem.rdata;\n", true)
	if err != nil {
		t.Fatal(err)
	}
	l := v.layoutOf("main.mem")
	if l == nil || l.Len() < 1<<12 {
		t.Fatalf("Memory#(12, 32) layout %v", l)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if v.layoutOf("main.mem") != l || v.layoutOf("main.clk") == nil {
			t.Fatal("a layout changed")
		}
	})
	if allocs != 0 {
		t.Fatalf("asking again allocates %.0f times", allocs)
	}
	if v.layoutOf("main.nowhere") != nil || v.layoutOf(ir.RootPath) != v.flatElabs[ir.RootPath].Layout() {
		t.Fatal("layoutOf answers a path the program lacks, or not a user subprogram's elaboration")
	}
}
