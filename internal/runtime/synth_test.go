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
// synthesized from scratch: same fingerprint, code, source arena,
// constant table, slots, schedule, tasks, reset image and statistics — and every pointer it holds into a design points
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
		{"Code", boundCode(got), boundCode(want)}, // with its operands, constants and tasks
		{"Slots", got.Slots, want.Slots},
		{"VarSlot", got.VarSlot, want.VarSlot},
		{"MemOf", got.MemOf, want.MemOf},
		{"Mems", got.Mems, want.Mems},
		{"Comb", got.Comb, want.Comb},
		{"Seq", got.Seq, want.Seq},
		{"Tasks", got.Tasks, want.Tasks},
		{"Reset", got.Reset, want.Reset},
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

// boundCode is p's code bound to p, span by span: every instruction with
// its slots, memories, sources, constant and task resolved, as its
// engines execute it.
func boundCode(p *netlist.Program) [][]netlist.Instr {
	code := make([][]netlist.Instr, len(p.Spans))
	for i := range p.Spans {
		sp := &p.Spans[i]
		srcs := p.Sources(sp, nil)
		for j := range sp.Ops {
			code[i] = append(code[i], p.Instr(sp, &sp.Ops[j], srcs))
		}
	}
	return code
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
			if v := sp.Frame[e.Var]; !vars[v] {
				t.Fatalf("%s: sensitivity to %s of another design", what, v.Name)
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
// bound its value, so both relocate every unit of the root — a process a
// fold leaves without the y it names included, since its frame still
// holds y — and each relocated unit shares its base's tree. Either way
// the program is the one synthesized from scratch.
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
			if p.Relocated != len(p.Spans) {
				t.Fatalf("relocated %d of %d units, want all", p.Relocated, len(p.Spans))
			}
			sharesTrees(t, v0.execElabs[ir.RootPath], v.execElabs[ir.RootPath])
		})
	}
}

// TestRelocatedSpansKeepSlots: along a 150-edit session, each version's
// merged root elaborated and linked from the one before as an eval does,
// a version shares every variable of its base (elab.ElaborateFrom), and
// every span that binds its base's code record keeps every variable slot
// and memory its base's span bound: an eval appends the variables it
// declares (ir.Inline), so what was there stays where it was. That is
// what reusing a unit's native code needs (ROADMAP item 23). Temporaries
// still move with the variables' count: how many spans keep theirs is
// logged.
func TestRelocatedSpansKeepSlots(t *testing.T) {
	type id struct {
		unit uint64
		ord  int32
	}
	varsOf := func(p *netlist.Program, i int) []int32 {
		if i+1 < len(p.Spans) {
			return p.Vars[p.Spans[i].Vars:p.Spans[i+1].Vars]
		}
		return p.Vars[p.Spans[i].Vars:]
	}
	var (
		v                   = emptyVersion()
		base                *netlist.Program
		vars, sharedVars    int
		shared, kept, temps int
	)
	for k, frag := range fragmentsOf(editChain(150)) {
		prev := v
		var err error
		if v, err = integrate(v, frag, true); err != nil {
			t.Fatalf("fragment %d: %v", k, err)
		}
		f := v.execElabs[ir.RootPath]
		p, err := netlist.CompileFrom(base, f)
		if err != nil {
			t.Fatalf("fragment %d: %v", k, err)
		}
		if base != nil {
			bf := prev.execElabs[ir.RootPath]
			vars += len(bf.Vars)
			for i, bv := range bf.Vars {
				if i < len(f.Vars) && f.Vars[i] == bv {
					sharedVars++
				}
			}
			at := make(map[id]int, len(base.Spans))
			for i, sp := range base.Spans {
				at[id{sp.Unit, sp.Ord}] = i
			}
			for i := range p.Spans {
				sp := &p.Spans[i]
				j, ok := at[id{sp.Unit, sp.Ord}]
				if !ok || sp.UnitCode != base.Spans[j].UnitCode {
					continue
				}
				shared++
				same := true
				for n, e := range varsOf(p, i) {
					be := varsOf(base, j)[n]
					same = same && p.VarSlot[e>>1] == base.VarSlot[be>>1] && p.MemOf[e>>1] == base.MemOf[be>>1]
				}
				if same {
					kept++
				}
				if sp.Temps == base.Spans[j].Temps {
					temps++
				}
			}
		}
		base = p
	}
	t.Logf("versions share %d of their bases' %d variables; %d spans bind their base's code, %d keep every variable slot, %d their temporaries", sharedVars, vars, shared, kept, temps)
	if sharedVars != vars {
		t.Errorf("versions share %d of their bases' %d variables, want all", sharedVars, vars)
	}
	if kept != shared {
		t.Errorf("%d of the %d spans that bind their base's code keep every variable slot, want all", kept, shared)
	}
}
