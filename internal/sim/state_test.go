package sim

import (
	"slices"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/vgen"
)

// TestStateImageRoundTrips runs generated modules for a few ticks and
// installs each one's state image into a fresh simulator of the same
// module: the image it reads back is the one installed, memories
// included.
func TestStateImageRoundTrips(t *testing.T) {
	arrays := 0
	for seed := uint64(0); seed < 120; seed++ {
		src := vgen.Module(seed).String()
		s := New(build(t, src), Options{})
		for tick := uint64(0); tick < 6; tick++ {
			s.SetInputByName("a", bits.FromUint64(8, seed*31+tick))
			s.SetInputByName("b", bits.FromUint64(8, seed^tick*7))
			for _, clk := range []uint64{1, 0} {
				s.SetInputByName("clk", bits.FromUint64(1, clk))
				settleSim(s)
			}
		}
		img := s.GetState()
		for _, v := range s.Flat().Vars {
			if v.IsArray() {
				arrays++
			}
		}
		back := New(build(t, src), Options{})
		back.SetState(img)
		if got := back.GetState(); !slices.Equal(got, img) {
			t.Fatalf("seed %d: the image does not install back\ngot  %x\nwant %x", seed, got, img)
		}
	}
	if arrays == 0 {
		t.Fatal("no generated module declared a memory; arrays went untested")
	}
}
