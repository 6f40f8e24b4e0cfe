package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/vgen"
)

// This file checks the paper's §2.5 claim that any system performing
// activated events in any order is a well-formed model for Verilog: for
// race-free synchronous programs, a simulator processing events in a
// random order per batch reaches the same observable states as the
// deterministic one.

func settleSim(s *Simulator) {
	for s.HasActive() || s.HasUpdates() {
		s.Evaluate()
		if s.HasUpdates() {
			s.Update()
		}
	}
}

func TestSchedulerOrderIndependence(t *testing.T) {
	gen := rand.New(rand.NewSource(321))
	for trial := 0; trial < 30; trial++ {
		src := vgen.Module(uint64(trial)).String()
		ref := New(build(t, src), Options{})
		shuffleRng := rand.New(rand.NewSource(int64(trial) * 7))
		shuf := New(build(t, src), Options{
			Shuffle: func(n int) []int { return shuffleRng.Perm(n) },
		})
		for tick := 0; tick < 15; tick++ {
			a := bits.FromUint64(8, gen.Uint64())
			b := bits.FromUint64(8, gen.Uint64())
			for _, s := range []*Simulator{ref, shuf} {
				s.SetInputByName("a", a)
				s.SetInputByName("b", b)
				settleSim(s)
				s.SetInputByName("clk", bits.FromUint64(1, 1))
				settleSim(s)
				s.SetInputByName("clk", bits.FromUint64(1, 0))
				settleSim(s)
			}
			if !slices.Equal(ref.GetState(), shuf.GetState()) {
				t.Fatalf("trial %d tick %d: ordering changed observable state on\n%s\nref:  %s\nshuf: %s",
					trial, tick, src, fmt.Sprint(ref.GetState()), fmt.Sprint(shuf.GetState()))
			}
		}
	}
}

// The display stream must also be order-independent for a single process
// (events within one process body are sequential regardless of batch
// order).
func TestSchedulerOrderIndependentDisplays(t *testing.T) {
	src := `
module M(input wire clk);
  reg [3:0] n = 0;
  always @(posedge clk) begin
    n <= n + 1;
    $display("n=%d", n);
  end
endmodule`
	var refOut, shufOut strings.Builder
	ref := New(build(t, src), Options{Display: func(s string) { refOut.WriteString(s) }})
	rng := rand.New(rand.NewSource(5))
	shuf := New(build(t, src), Options{
		Display: func(s string) { shufOut.WriteString(s) },
		Shuffle: func(n int) []int { return rng.Perm(n) },
	})
	for tick := 0; tick < 5; tick++ {
		for _, s := range []*Simulator{ref, shuf} {
			s.SetInputByName("clk", bits.FromUint64(1, 1))
			settleSim(s)
			s.SetInputByName("clk", bits.FromUint64(1, 0))
			settleSim(s)
		}
	}
	if refOut.String() != shufOut.String() {
		t.Fatalf("display order diverged:\n%q\n%q", refOut.String(), shufOut.String())
	}
}
