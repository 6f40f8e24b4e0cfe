package transport

import (
	"errors"
	"fmt"
)

// ErrEngineUnavailable reports that a transport could not reach its
// engine host: the dial failed or the retry budget was exhausted
// without a reply. Callers match it with errors.Is to distinguish
// "the host is gone" (supervise: trip the breaker, fail over) from a
// refused spawn or session request, which comes back as the text of
// Reply.Err and never carries this sentinel.
var ErrEngineUnavailable = errors.New("engine unavailable")

// ErrDaemonRestarted reports that the transport reconnected to a host
// whose boot epoch differs from the one it had been talking to: the
// daemon died and came back, and any engine state it serves — even
// under the same engine IDs, re-bound from a journal — reflects the
// last journaled snapshot, not the live progress the runtime made
// since. Retrying is deliberately NOT done: a retry would succeed
// against the stale state and hide the loss. Callers fail over from
// their own committed state instead. Always wrapped so errors.Is also
// matches ErrEngineUnavailable.
var ErrDaemonRestarted = errors.New("engine daemon restarted")

// ErrEngineLost reports that the daemon answered, and the answer was an
// engine-level refusal: it no longer holds the engine (its session was
// closed from another connection, or the daemon resumed without it), or
// could not serve the frame at all. Like ErrDaemonRestarted it is proof
// of state loss rather than a reachability blip — the daemon is up, a
// ping would succeed, and the state is gone all the same — so a
// supervisor fails over from its committed state instead of counting it.
// Always wrapped so errors.Is also matches ErrEngineUnavailable.
var ErrEngineLost = errors.New("engine lost")

// lostError words a reply-level refusal about who as an ErrEngineLost.
func lostError(who, refusal string) error {
	return fmt.Errorf("transport: remote: %s: %s: %w: %w", who, refusal, ErrEngineLost, ErrEngineUnavailable)
}

// ErrUnknownSession is the host's refusal of a request that names a
// session it does not hold: never opened, closed, or lost with a daemon
// that restarted without its journal. The refusal travels as text in
// Reply.Err, which the host builds from this error, and the error the
// client returns for it matches with errors.Is; the owner of the session
// answers by opening a fresh one.
var ErrUnknownSession = errors.New("unknown session")
