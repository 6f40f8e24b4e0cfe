package sealtest

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"cascade/internal/elab"
	"cascade/internal/netlist"
	"cascade/internal/verilog"
	"cascade/internal/vgen"
)

func parseModule(t *testing.T, src string) *verilog.Module {
	t.Helper()
	st, errs := verilog.ParseSourceText(src)
	if errs != nil {
		t.Fatalf("parse: %v", errs)
	}
	return st.Modules[0]
}

// TestInlinedChainSealed: along the 150 edits of an inlined session
// (vgen.InlinedChain), each version elaborated and synthesized from the
// one before it as an eval does, every version made so far digests to
// its value at creation after each later eval — and after a refused
// trial on top of the version before the newest: the next stage's
// declaration, then a duplicate declaration, which appends into
// whatever that version would share with a spare capacity.
func TestInlinedChainSealed(t *testing.T) {
	const stages = 150
	items := func(n int) int { return len(parseModule(t, vgen.InlinedChain(n)).Items) }
	head, per := items(0), items(1)-items(0)
	m := parseModule(t, vgen.InlinedChain(stages))
	trial := parseModule(t, "module main(input wire clk__val);\n  wire [15:0] trial;\n  reg [15:0] cnt = 1;\nendmodule").Items
	var seal Seal
	var f, base *elab.Flat
	var p *netlist.Program
	for n := 0; n <= stages; n++ {
		cut := *m
		cut.Items = m.Items[: head+n*per : head+n*per]
		var err error
		if f, err = elab.ElaborateFrom(base, &cut, "dut", nil); err != nil {
			t.Fatalf("stage %d: %v", n, err)
		}
		if p, err = netlist.CompileFrom(p, f); err != nil {
			t.Fatalf("stage %d: %v", n, err)
		}
		seal.Add(fmt.Sprintf("stage %d", n), f, p)
		if base != nil {
			refused := *base.Source
			refused.Items = slices.Concat(base.Source.Items, trial)
			if _, err := elab.ElaborateFrom(base, &refused, "dut", nil); err == nil || !strings.Contains(err.Error(), "duplicate declaration of cnt") {
				t.Fatalf("stage %d: the trial was refused with %v", n, err)
			}
		}
		if err := seal.Check(); err != nil {
			t.Fatalf("after stage %d: %v", n, err)
		}
		base = f
	}
}
