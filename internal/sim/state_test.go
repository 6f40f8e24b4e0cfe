package sim

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/vgen"
)

// fmtEncodeText is the fmt-based state encoder AppendText replaced, kept
// to pin that the text format did not move by a byte.
func fmtEncodeText(st *State) string {
	var keys []string
	for k := range st.Scalars {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%s\n", k, st.Scalars[k])
	}
	var akeys []string
	for k := range st.Arrays {
		akeys = append(akeys, k)
	}
	sort.Strings(akeys)
	for _, k := range akeys {
		for i, w := range st.Arrays[k] {
			fmt.Fprintf(&sb, "%s[%d]=%s\n", k, i, w)
		}
	}
	return sb.String()
}

// TestAppendTextMatchesFmtEncoder runs generated modules for a few ticks
// and compares their states' encodings, and that they decode back.
func TestAppendTextMatchesFmtEncoder(t *testing.T) {
	arrays := 0
	for seed := uint64(0); seed < 120; seed++ {
		s := New(build(t, vgen.Module(seed).String()), Options{})
		for tick := uint64(0); tick < 6; tick++ {
			s.SetInputByName("a", bits.FromUint64(8, seed*31+tick))
			s.SetInputByName("b", bits.FromUint64(8, seed^tick*7))
			for _, clk := range []uint64{1, 0} {
				s.SetInputByName("clk", bits.FromUint64(1, clk))
				settleSim(s)
			}
		}
		st := s.GetState()
		arrays += len(st.Arrays)
		got, want := string(st.AppendText([]byte("prefix:"))), "prefix:"+fmtEncodeText(st)
		if got != want {
			t.Fatalf("seed %d: AppendText differs from the fmt encoder\ngot  %q\nwant %q", seed, got, want)
		}
		back, err := DecodeStateText(got[len("prefix:"):])
		if err != nil || back.Signature() != st.Signature() {
			t.Fatalf("seed %d: encoding does not decode back (%v)", seed, err)
		}
	}
	if arrays == 0 {
		t.Fatal("no generated module declared a memory; arrays went untested")
	}
}
