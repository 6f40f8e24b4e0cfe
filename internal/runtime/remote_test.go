package runtime

import "testing"

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
