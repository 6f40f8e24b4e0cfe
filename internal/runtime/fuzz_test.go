package runtime

import (
	"testing"
)

// FuzzDecodeSnapshot hardens the snapshot codec against adversarial or
// corrupted input: recovery feeds whatever bytes it finds on disk into
// DecodeSnapshot, so the decoder must reject garbage with an error —
// never panic, and never return a snapshot from a blob whose checksums
// don't verify. Whatever decodes is restored onto a fresh runtime, which
// may refuse it but must not panic.
func FuzzDecodeSnapshot(f *testing.F) {
	// A real v3 snapshot (container format, per-section CRCs).
	rt := newTestRuntime(f, Options{Features: Features{DisableJIT: true}})
	rt.MustEval("reg [7:0] n = 0; always @(posedge clk.val) n <= n + 1; assign led.val = n;")
	rt.World().PressPad("main.pad", 3)
	rt.RunTicks(10)
	good := EncodeSnapshot(rt.Snapshot())
	f.Add(good)
	// One with a FIFO holding words and a Memory mid-write, whole and with
	// its Memory's state cut short.
	rt.MustEval("FIFO#(8, 4) fifo(); Memory#(2, 8) mem(); assign mem.wen = 1; assign mem.wdata = n;")
	rt.World().Stream("main.fifo").PushBytes([]byte("ab"))
	rt.RunTicks(2)
	rt.Step()
	snap := rt.Snapshot()
	f.Add(EncodeSnapshot(snap))
	snap.States["main.mem"] = snap.States["main.mem"][:3]
	f.Add(EncodeSnapshot(snap))
	// The legacy v1 text format.
	f.Add("#cascade-snapshot steps=8\n#source\nwire x;\n")
	// Structural near-misses.
	f.Add("")
	f.Add("#cascade-snapshot")
	f.Add(good[:len(good)/2])
	f.Add(good + "tail")

	f.Fuzz(func(t *testing.T, text string) {
		snap, err := DecodeSnapshot(text)
		if err != nil {
			return
		}
		// Whatever decodes must survive an encode/decode round trip:
		// the codec's output is always re-parseable.
		again, err := DecodeSnapshot(EncodeSnapshot(snap))
		if err != nil {
			t.Fatalf("re-decode of re-encoded snapshot failed: %v", err)
		}
		if again.Steps != snap.Steps || again.Source != snap.Source ||
			len(again.States) != len(snap.States) || len(again.Inputs) != len(snap.Inputs) {
			t.Fatalf("round trip changed the snapshot: %+v vs %+v", again, snap)
		}
		fresh := New(Options{View: &BufView{Quiet: true}, Features: Features{DisableJIT: true}})
		defer fresh.Shutdown()
		if fresh.Restore(snap) == nil {
			fresh.Snapshot()
		}
	})
}
