package runtime

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cascade/internal/elab"
	"cascade/internal/ir"
	"cascade/internal/netlist"
	"cascade/internal/verilog"
)

// linkedEqualsScratch holds a program synthesized from base to the one
// synthesized from scratch: same fingerprint, code, slots, schedule,
// tasks and statistics — and every pointer it holds into a design points
// into f, not into base's.
func linkedEqualsScratch(t *testing.T, what string, base *netlist.Program, f *elab.Flat) *netlist.Program {
	t.Helper()
	got, err := netlist.CompileFrom(base, f)
	if err != nil {
		t.Fatalf("%s: from base: %v", what, err)
	}
	want, err := netlist.Compile(f)
	if err != nil {
		t.Fatalf("%s: from scratch: %v", what, err)
	}
	fields := []struct {
		name      string
		got, want any
	}{
		{"Fingerprint", got.Fingerprint(), want.Fingerprint()},
		{"Code", got.Code, want.Code},
		{"Slots", got.Slots, want.Slots},
		{"VarSlot", got.VarSlot, want.VarSlot},
		{"MemOf", got.MemOf, want.MemOf},
		{"Mems", got.Mems, want.Mems},
		{"Comb", got.Comb, want.Comb},
		{"Seq", got.Seq, want.Seq},
		{"Monitors", got.Monitors, want.Monitors},
		{"Tasks", got.Tasks, want.Tasks},
		{"Stats", got.Stats, want.Stats},
		{"Spans", got.Spans, want.Spans},
	}
	for _, fd := range fields {
		if !reflect.DeepEqual(fd.got, fd.want) {
			t.Fatalf("%s: the program linked from its base differs from scratch in %s (%d of %d units relocated)",
				what, fd.name, got.Relocated, len(got.Spans))
		}
	}
	checkOwnedBy(t, what, got, f)
	return got
}

// checkOwnedBy walks every design pointer of p: slot and memory
// variables, sensitivity lists and tasks all belong to f.
func checkOwnedBy(t *testing.T, what string, p *netlist.Program, f *elab.Flat) {
	t.Helper()
	vars := map[*elab.Var]bool{}
	for _, v := range f.Vars {
		vars[v] = true
	}
	tasks := map[*elab.SysTask]bool{}
	note := func(s elab.Stmt) {
		if st, ok := s.(*elab.SysTask); ok {
			tasks[st] = true
		}
	}
	for _, pr := range f.Procs {
		elab.WalkStmt(pr.Body, note, nil)
	}
	for _, st := range f.Initials {
		elab.WalkStmt(st, note, nil)
	}
	for i, s := range p.Slots {
		if s.Var != nil && !vars[s.Var] {
			t.Fatalf("%s: slot %d backs %s of another design", what, i, s.Var.Name)
		}
	}
	for _, m := range p.Mems {
		if !vars[m.Var] {
			t.Fatalf("%s: memory %s of another design", what, m.Var.Name)
		}
	}
	for _, sp := range p.Seq {
		for _, e := range sp.Edges {
			if !vars[e.Var] {
				t.Fatalf("%s: sensitivity to %s of another design", what, e.Var.Name)
			}
		}
	}
	for i, tk := range p.Tasks {
		if !tasks[tk.Src] {
			t.Fatalf("%s: task %d is another design's", what, i)
		}
	}
}

// checkSynthesisChain integrates frags one by one and synthesizes every
// version's executing subprograms from the previous version's programs
// at the same paths, as the runtime does, holding each to scratch. It
// returns how many units the last version relocated, and of how many.
func checkSynthesisChain(t *testing.T, name string, frags []string, from int, inline bool) (relocated, units int) {
	t.Helper()
	v, err := integrate(emptyVersion(), strings.Join(frags[:from], "\n"), inline)
	if err != nil {
		t.Fatalf("%s: from scratch over %d fragments: %v", name, from, err)
	}
	progs := map[string]*netlist.Program{}
	for k := from; k <= len(frags); k++ {
		if k > from {
			if v, err = integrate(v, frags[k-1], inline); err != nil {
				t.Fatalf("%s: fragment %d: %v", name, k-1, err)
			}
		}
		next := map[string]*netlist.Program{}
		relocated, units = 0, 0
		for path, f := range v.execElabs {
			if _, err := netlist.Compile(f); err != nil {
				continue // not synthesizable; stays in software
			}
			p := linkedEqualsScratch(t, fmt.Sprintf("%s inline=%v version %d %s", name, inline, k, path), progs[path], f)
			next[path] = p
			relocated, units = relocated+p.Relocated, units+len(p.Spans)
		}
		progs = next
	}
	return relocated, units
}

// TestSynthesisFromBaseEqualsFromScratch: on every prefix of every
// generated session, inlined or not, a version's programs synthesized
// from its base version's are the programs synthesized from scratch.
func TestSynthesisFromBaseEqualsFromScratch(t *testing.T) {
	for _, s := range incrementalSessions() {
		for _, inline := range []bool{true, false} {
			checkSynthesisChain(t, s.Name, fragmentsOf(s), 1, inline)
		}
	}
}

// TestSynthesisRelocatesAnEditChain: along the benchmark-shaped session,
// an eval recompiles only what it added: at 150 edits, nine in ten units
// of the program are relocated from the previous version's.
func TestSynthesisRelocatesAnEditChain(t *testing.T) {
	frags := fragmentsOf(editChain(150))
	relocated, units := checkSynthesisChain(t, "editChain", frags, len(frags)-20, true)
	if units == 0 || relocated*10 < units*9 {
		t.Fatalf("the last version relocated %d of %d units, want at least 90%%", relocated, units)
	}
}

// TestSynthesisRecompilesRebuiltSubprograms: a hierarchical read of
// e3.acc rebuilds e3 (ir.BuildFrom), so its items are renamed afresh and
// its units compiled again, while every other instance's are relocated.
func TestSynthesisRecompilesRebuiltSubprograms(t *testing.T) {
	vs := buildVersions(t, editChain(5))
	base := vs[len(vs)-1]
	v, err := integrate(base, "wire [15:0] p = e3.acc;", true)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := netlist.Compile(base.execElabs[ir.RootPath])
	if err != nil {
		t.Fatal(err)
	}
	f := v.execElabs[ir.RootPath]
	p := linkedEqualsScratch(t, "hierarchical read", bp, f)
	inBase := map[uint64]bool{}
	for _, sp := range bp.Spans {
		inBase[sp.Unit] = true
	}
	// Each span's source, through the unit of f it was compiled from.
	srcOf := map[uint64]verilog.Item{}
	for _, a := range f.Assigns {
		srcOf[a.Unit] = a.Src
	}
	for _, pr := range f.Procs {
		srcOf[pr.Unit] = pr.Src
	}
	seen := 0
	for _, sp := range p.Spans {
		src := verilog.Print(srcOf[sp.Unit])
		if strings.Contains(src, "e3__acc <=") {
			seen++
			if inBase[sp.Unit] {
				t.Errorf("e3's process was relocated from before e3 was rebuilt: %s", src)
			}
		}
		if strings.Contains(src, "e2__acc <=") {
			seen++
			if !inBase[sp.Unit] {
				t.Errorf("e2's process was compiled again: %s", src)
			}
		}
	}
	if seen != 2 {
		t.Fatalf("found %d of e2's and e3's processes among the spans, want 2", seen)
	}
	if p.Relocated == 0 || p.Relocated == len(p.Spans) {
		t.Fatalf("relocated %d of %d units", p.Relocated, len(p.Spans))
	}
}

// TestSynthesisFollowsElaboration: synthesis relocates exactly the units
// elaboration relocated (elab.ElaborateFrom keeps their identity). A
// root fragment that adds a localparam leaves every parameter the base
// bound its value, so both relocate every unit of the root but the
// opaque one — a process a fold leaves without the y it names, which
// elaboration never relocates and synthesis so compiles again on every
// eval. Either way the program is the one synthesized from scratch.
func TestSynthesisFollowsElaboration(t *testing.T) {
	const base = `reg [7:0] cnt = 0;
always @(posedge clk.val) cnt <= cnt + 1;
wire [7:0] dbl = cnt * 2;
reg [7:0] y = 1;
reg [7:0] z = 0;
always @(posedge clk.val) z <= y * 8'd0;
always @(posedge clk.val) if (cnt == 3) $display("three");
initial $monitor("dbl=%d", dbl);
assign led.val = dbl ^ z;`
	for _, tc := range []struct {
		name, frag string
		inline     bool
	}{
		{"a root localparam is added, not inlined", "localparam J = 3;", false},
		{"a root localparam is added, inlined", "localparam J = 3;", true},
		{"nothing changes", "", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := DefaultPrelude + "\n" + base
			v0, err := integrate(emptyVersion(), src, tc.inline)
			if err != nil {
				t.Fatal(err)
			}
			v, err := integrate(v0, padTo(src, tc.frag), tc.inline)
			if err != nil {
				t.Fatal(err)
			}
			bp, err := netlist.Compile(v0.execElabs[ir.RootPath])
			if err != nil {
				t.Fatal(err)
			}
			p := linkedEqualsScratch(t, tc.name, bp, v.execElabs[ir.RootPath])
			if p.Relocated != len(p.Spans)-1 {
				t.Fatalf("relocated %d of %d units, want all but the opaque one", p.Relocated, len(p.Spans))
			}
		})
	}
}
