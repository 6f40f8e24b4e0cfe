package njit

import (
	"fmt"
	"math/rand"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/netlist"
	"cascade/internal/vgen"
	"cascade/internal/workloads/pow"
)

// FuzzNativeAgainstReference runs a generated module on the compiled
// evaluator and on the reference machine, stepped here, under inputs the
// fuzzer picks, two bytes a tick: state image and display text agree
// tick by tick, and keep agreeing after both install the same altered
// state image mid-run. The seed corpus is the drive of
// TestNativeDifferentialRandomPrograms, program by program.
func FuzzNativeAgainstReference(f *testing.F) {
	r := rand.New(rand.NewSource(17))
	for seed := uint64(0); seed < 40; seed++ {
		in := make([]byte, 20)
		for i := range in {
			in[i] = byte(r.Uint64())
		}
		f.Add(seed, in)
	}
	f.Fuzz(func(t *testing.T, seed uint64, in []byte) {
		src := vgen.Module(seed).String()
		d := newDualNative(t, src)
		n := min(len(in)/2, 32)
		for i := 0; i < n; i++ {
			d.setInput("a", bits.FromUint64(8, uint64(in[2*i])))
			d.setInput("b", bits.FromUint64(8, uint64(in[2*i+1])))
			d.settle()
			d.tick()
			d.check(t, fmt.Sprintf("vgen seed %d tick %d on\n%s", seed, i, src))
			if i == n/2 {
				img := d.m.GetState()
				for k := range img {
					img[k] ^= uint64(in[k%len(in)]) * 0x0101010101010101
				}
				d.m.SetState(img)
				d.e.SetState(img)
				d.settle()
				d.check(t, fmt.Sprintf("vgen seed %d after a state install at tick %d on\n%s", seed, i, src))
			}
		}
	})
}

// TestNativeTickAllocFree: once settled, a clock tick through the
// compiled evaluator allocates nothing — no growing commit buffer, no
// boxed marks — on the miner and on the stream matcher.
func TestNativeTickAllocFree(t *testing.T) {
	for _, c := range []struct {
		name, src string
	}{{"pow", pow.Generate(pow.DefaultConfig())}, {"regexstream", regexStreamSrc(t)}} {
		prog, f := compileProg(t, c.src)
		m := netlist.NewMachine(prog)
		ev := Compile(m)
		clk := f.VarNamed("clk")
		hi, lo := bits.FromUint64(1, 1), bits.FromUint64(1, 0)
		settle := func() {
			for ev.HasActive() || ev.HasUpdates() {
				ev.Evaluate()
				if ev.HasUpdates() {
					ev.Update()
				}
			}
			m.DrainEvents()
		}
		tick := func() {
			m.SetInput(clk, hi)
			settle()
			m.SetInput(clk, lo)
			settle()
		}
		for i := 0; i < 16; i++ {
			tick()
		}
		if n := testing.AllocsPerRun(200, tick); n != 0 {
			t.Errorf("%s: a settled native tick allocates %v times", c.name, n)
		}
	}
}
