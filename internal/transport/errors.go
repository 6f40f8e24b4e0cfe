package transport

import "errors"

// ErrEngineUnavailable reports that a transport could not reach its
// engine host: the dial failed or the retry budget was exhausted
// without a reply. Callers match it with errors.Is to distinguish
// "the host is gone" (supervise: trip the breaker, fail over) from
// engine-level failures, which travel inside Reply.Err and never
// carry this sentinel.
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

// ErrUnknownSession is the host's refusal of a request that names a
// session it does not hold: never opened, closed, or lost with a daemon
// that restarted without its journal. The refusal travels as text in
// Reply.Err, which the host builds from this error, and the error the
// client returns for it matches with errors.Is; the owner of the session
// answers by opening a fresh one.
var ErrUnknownSession = errors.New("unknown session")
