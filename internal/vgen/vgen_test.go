package vgen_test

import (
	"regexp"
	"strings"
	"testing"

	"cascade/internal/elab"
	"cascade/internal/netlist"
	"cascade/internal/verilog"
	"cascade/internal/vgen"
)

// TestValid: every generated module parses, elaborates and synthesizes, and
// a seed always means the same program. (Sessions are evaluated, run to the
// end of their scripts and on to their $finish by internal/runtime's table,
// which reports any that will not.)
func TestValid(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		src := vgen.Module(seed).String()
		if again := vgen.Module(seed).String(); again != src || src == vgen.Module(seed+1).String() {
			t.Fatalf("seed %d does not determine the module", seed)
		}
		st, errs := verilog.ParseSourceText(src)
		if errs != nil {
			t.Fatalf("seed %d: %v\n%s", seed, errs, src)
		}
		f, err := elab.Elaborate(st.Modules[0], "dut", nil)
		if err == nil {
			_, err = netlist.Compile(f)
		}
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
	}
	for seed := uint64(0); seed < 50; seed++ {
		if vgen.Session(seed).String() != vgen.Session(seed).String() {
			t.Fatalf("seed %d does not determine the session", seed)
		}
	}
}

var (
	ident    = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*(\.[a-z0-9]+)?`)
	assigned = regexp.MustCompile(`(?m)^\s*([^=\n]*?) <?= `)
	declared = regexp.MustCompile(`^(?:reg|wire) (?:\[[^\]]*\] )?(\w+)`)
	outside  = regexp.MustCompile(`^(a|b|\w+\.\w+|u\d_o|[rw]\d_\d)$`) // a port, an instance's output, another fragment's register
)

// TestEntangled checks the promise the package makes of every scope it
// generates: each edge-triggered block prints, and computes what it writes
// from something a different block (or, alone in its scope, a different
// scope) writes.
func TestEntangled(t *testing.T) {
	var check func(seed uint64, items []*vgen.Node)
	check = func(seed uint64, items []*vgen.Node) {
		var blocks []*vgen.Node
		here := map[string]bool{}
		for _, n := range items {
			if m := declared.FindStringSubmatch(n.Text); m != nil {
				here[m[1]] = true
			}
			if strings.HasPrefix(n.Text, "always @(") {
				blocks = append(blocks, n)
			}
			if n.Close == "endmodule" {
				check(seed, n.Kids)
			}
		}
		writes := make([]map[string]bool, len(blocks))
		for i, b := range blocks {
			writes[i] = map[string]bool{}
			for _, m := range assigned.FindAllStringSubmatch(b.String(), -1) {
				for _, name := range ident.FindAllString(regexp.MustCompile(`\[[^\]]*\]`).ReplaceAllString(m[1], ""), -1) {
					writes[i][name] = true
				}
			}
		}
		for i, b := range blocks {
			if strings.Contains(b.Text, "*") {
				continue
			}
			text, foreign := b.String(), false
			for _, name := range ident.FindAllString(regexp.MustCompile(`\$display.*`).ReplaceAllString(text, ""), -1) {
				for j := range blocks {
					foreign = foreign || j != i && writes[j][name]
				}
				foreign = foreign || !here[name] && outside.MatchString(name)
			}
			if !foreign || !strings.Contains(text, "$display") {
				t.Errorf("seed %d: a block computes nothing from what another writes, or prints nothing:\n%s", seed, text)
			}
		}
	}
	for seed := uint64(0); seed < 50; seed++ {
		check(seed, []*vgen.Node{vgen.Module(seed)})
		for _, st := range vgen.Session(seed).Steps {
			check(seed, st.Frag)
		}
	}
}

// TestShrink: a session that "fails" as long as instance u1 counts down a
// shift is cut to the few lines that keep it failing, and the argument is
// left alone.
func TestShrink(t *testing.T) {
	s := vgen.Session(3)
	before := s.String()
	fails := func(c vgen.Script) bool {
		return strings.Contains(c.String(), " u1(") && strings.Contains(c.String(), "<<")
	}
	if !fails(s) {
		t.Fatal("the seed no longer has the property the test shrinks on; pick another")
	}
	small := vgen.Shrink(s, fails)
	if !fails(small) {
		t.Fatalf("the shrunk session does not fail:\n%s", small)
	}
	if n := strings.Count(small.String(), "\n"); n > 8 {
		t.Errorf("shrunk to %d lines, want a handful:\n%s", n, small)
	}
	if s.String() != before {
		t.Error("Shrink modified its argument")
	}
}
