package runtime

import (
	"strings"
	"testing"
)

// TestLaneFlushOrdering is the -race regression for the laneIO contract
// (see the type comment in runtime.go): engines dispatched on worker
// lanes append $display output concurrently with other lanes, and the
// controller's schedule-order drain must still produce output
// byte-identical to a fully serial run. The program makes every engine
// print on every posedge so lanes are hot on each batch; widths 2 and 3
// put fewer lanes than the six members under the batch, so each lane
// claims several members from the dispatcher's cursor.
func TestLaneFlushOrdering(t *testing.T) {
	prog := counters("chat", [4]int{8, 1, 1, 1}, [4]int{8, 2, 2, 1}, [4]int{8, 3, 3, 1}, [4]int{8, 4, 4, 1}, [4]int{8, 5, 5, 1})
	prog.Steps[0].Ticks = 64
	quiet := arm{feats: Features{DisableInline: true, DisableJIT: true}}
	serial, err := observe(t, quiet, schedule{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(serial.Display, "\n") < 5*64 {
		t.Fatalf("program did not chat enough: %d lines", strings.Count(serial.Display, "\n"))
	}
	for trial, par := range []int{8, 2, 3, 8} {
		quiet.lanes = par
		if parallel, err := observe(t, quiet, schedule{}, prog); err != nil || parallel.Display != serial.Display {
			t.Fatalf("trial %d (%d lanes): parallel drain order diverged from serial (%v):\nserial:   %q\nparallel: %q",
				trial, par, err, serial.Display, parallel.Display)
		}
	}
}

// TestRemoteRecovery checks that crash-safe persistence composes with
// remote engines: program state flows back over GetState for
// checkpoints, a new process recovers from the directory, respawns its
// engines on the daemon, restores them over SetState, and continues to
// the same future as an uninterrupted reference.
func TestRemoteRecovery(t *testing.T) {
	addr := newTestDaemon(t, "", false).addr
	roundTrip(t, func(dir string) (Options, *BufView) {
		opts, view := persistTestOptions(dir, 1, nil)
		opts.Remote = &RemoteOptions{Addr: addr}
		return opts, view
	})
}
