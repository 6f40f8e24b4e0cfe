package runtime

import (
	"fmt"
	"strings"
	"testing"

	"cascade/internal/netlist"
	"cascade/internal/sealtest"
	"cascade/internal/vgen"
)

// TestVersionsSealed: over FuzzIntegrateIncremental's seed corpus and
// the benchmark-shaped session, whose evals insert into both roots,
// inlined and not, each version's elaborations and the programs of its
// executing subprograms, synthesized from the previous version's as the
// runtime does, are sealed as the version is made (internal/sealtest),
// and every version still digests to its value at creation after each
// later eval — and after a refused eval on top of the version before it:
// the next fragment, then a variable declared twice.
func TestVersionsSealed(t *testing.T) {
	for _, c := range []struct {
		s   vgen.Script
		cut uint8
	}{{vgen.Session(3), 1}, {vgen.Session(25), 2}, {editChain(12), 0}} {
		frags := fragmentsOf(c.s)
		from := 1 + int(c.cut)%len(frags)
		for _, inline := range []bool{true, false} {
			what := fmt.Sprintf("%s inline=%v", c.s.Name, inline)
			var seal sealtest.Seal
			progs := map[string]*netlist.Program{}
			add := func(k int, v *version) {
				for path, f := range v.flatElabs {
					seal.Add(fmt.Sprintf("%s version %d %s", what, k, path), f, nil)
				}
				next := map[string]*netlist.Program{}
				for path, f := range v.execElabs {
					var p *netlist.Program
					if _, err := netlist.Compile(f); err == nil {
						if p, err = netlist.CompileFrom(progs[path], f); err != nil {
							t.Fatalf("%s version %d %s: %v", what, k, path, err)
						}
						next[path] = p
					}
					seal.Add(fmt.Sprintf("%s version %d %s, executing", what, k, path), f, p)
				}
				progs = next
			}
			v, err := integrate(emptyVersion(), strings.Join(frags[:from], "\n"), inline)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			add(from, v)
			for k := from; k < len(frags); k++ {
				base := v
				if v, err = integrate(base, frags[k], inline); err != nil {
					t.Fatalf("%s fragment %d: %v", what, k, err)
				}
				add(k+1, v)
				if _, err := integrate(base, frags[k]+"\nreg [7:0] trial = 3;\nreg [7:0] trial = 4;", inline); err == nil {
					t.Fatalf("%s fragment %d: a second declaration of trial was accepted", what, k)
				}
				if err := seal.Check(); err != nil {
					t.Fatalf("after fragment %d: %v", k, err)
				}
			}
		}
	}
}
