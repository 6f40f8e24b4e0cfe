package verilog

import (
	"runtime"
	"testing"

	"cascade/internal/vgen"
	"cascade/internal/workloads/pow"
)

// textBenchInputs are the two sizes the text layer is timed at: the
// edit_session program after 150 edits and one pow miner.
func textBenchInputs() []textLayerInput {
	return []textLayerInput{
		{"chain150", vgen.InlinedChain(150)},
		{"pow", pow.Generate(pow.DefaultConfig())},
	}
}

func BenchmarkParseFragment(b *testing.B) {
	for _, in := range textBenchInputs() {
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(in.src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, errs := ParseProgramFragment(in.src); errs != nil {
					b.Fatal(errs)
				}
			}
		})
	}
}

func BenchmarkPrint(b *testing.B) {
	for _, in := range textBenchInputs() {
		mods, items, errs := ParseProgramFragment(in.src)
		if errs != nil || len(items) != 0 {
			b.Fatalf("%s: %v, %d root items", in.name, errs, len(items))
		}
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(in.src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, m := range mods {
					Print(m)
				}
			}
		})
	}
}

// TestParseAllocBudget pins what the text layer allocates for the
// edit_session program after 150 edits: ParseProgramFragment streams
// its tokens and takes its most common nodes from slabs, Print appends
// into one builder.
func TestParseAllocBudget(t *testing.T) {
	src := vgen.InlinedChain(150)
	mods, _, errs := ParseProgramFragment(src)
	if errs != nil {
		t.Fatal(errs)
	}
	for _, c := range []struct {
		name          string
		run           func()
		bytes, allocs uint64
	}{
		{"ParseProgramFragment", func() { ParseProgramFragment(src) }, parseBytes, parseAllocs},
		{"Print", func() { Print(mods[0]) }, printBytes, printAllocs},
	} {
		const runs = 20
		c.run() // warm up
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			c.run()
		}
		runtime.ReadMemStats(&after)
		bytes, allocs := (after.TotalAlloc-before.TotalAlloc)/runs, (after.Mallocs-before.Mallocs)/runs
		t.Logf("%s of %d bytes: %d B and %d allocs per call", c.name, len(src), bytes, allocs)
		if bytes > c.bytes || allocs > c.allocs {
			t.Errorf("%s allocates %d B in %d allocs per call, budget %d B in %d", c.name, bytes, allocs, c.bytes, c.allocs)
		}
	}
}

// The text layer's budget for vgen.InlinedChain(150), a tenth above what
// it measured; before streaming, slabs and fmt-free printing it was
// 1 146 418 B in 10 540 allocs to parse and 281 556 B in 4 382 to print.
const (
	parseBytes  = 526_600 // 478 684 B measured
	parseAllocs = 384     // 349 measured
	printBytes  = 121_300 // 110 202 B measured
	printAllocs = 14      // 12 measured
)
