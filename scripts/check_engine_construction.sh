#!/bin/sh
# Engine-construction gate (CI): internal/lifecycle is the one place that
# builds, seeds and retires engines. The runtime and the daemon host
# each used to carry their own copy of that hot swap and the copies
# diverged; this fails if a non-test file in either package constructs
# an engine directly again. The same goes for the engines a daemon hosts
# for the runtime: they are a rung of the lifecycle table (Hosted), so
# the runtime spawns on the daemon only in its Config.Host callback
# (Runtime.host) and never reads "not built here" (lifecycle.Unplaced)
# as "hosted" — the hand-written spawn, seed, retire copies forgot to
# retire. And what a move costs, counts and leaves owed is applied where
# the owner that made it settles it: outside Runtime.settle and
# Host.settle, neither package bumps the promotion, eviction, failover or
# re-host series, sets the area gauge or submits a placement's compile —
# the per-site copies drifted (a stale gauge, a daemon silent about failed
# promotions, a daemon's move counted again by the runtime that saw its
# location flip). Every other counted event has one set of books too: the
# supervision, fault, checkpoint, transport and compile-cache series are
# moved only by the obsv.Tally that holds their owner's figure (bound by
# assigning its Series) or by the toolchain's tenant.bank — the second
# increment sites they used to have let /metrics and Stats disagree. Run
# from the repo root; exits non-zero listing offenders.
set -eu

runtime_src=$(ls internal/runtime/*.go | grep -v '_test\.go$')
fail() {
    echo "$1"
    echo "check_engine_construction: $2" >&2
    exit 1
}

hits=$(grep -nE '(sweng|njit|hweng)\.New\(' internal/runtime/*.go internal/transport/*.go | grep -v '_test\.go:' || true)
[ -z "$hits" ] || fail "$hits" "build engines through internal/lifecycle, not directly"

# shellcheck disable=SC2086
hits=$(awk '
    /^func / { fn = $0 }
    /^}/ { fn = "" }
    /\.Spawn\(/ && fn !~ /^func \(r \*Runtime\) host\(/ { print FILENAME ":" FNR ": " $0 }
' $runtime_src)
[ -z "$hits" ] || fail "$hits" "spawn hosted engines in Runtime.host (lifecycle.Config.Host) only"

# shellcheck disable=SC2086
hits=$(grep -n 'lifecycle\.Unplaced' $runtime_src || true)
[ -z "$hits" ] || fail "$hits" "a hosted engine's tier is lifecycle.Hosted; the runtime has no use for Unplaced"

# shellcheck disable=SC2086
hits=$(awk '
    /^func / { fn = $0 }
    /^}/ { fn = "" }
    /([^A-Za-z0-9_.]o|obs|Observer)\.(Promotions|Evictions|Failovers|Rehosts)([^A-Za-z0-9_]|$)|\.AreaLEs\.Set\(|\.Submit\(/ &&
        fn !~ /^func \((r \*Runtime|h \*Host)\) settle\(/ {
        print FILENAME ":" FNR ": " $0
    }
' $runtime_src $(ls internal/transport/*.go | grep -v '_test\.go$'))
[ -z "$hits" ] || fail "$hits" "count, gauge and re-arm engine moves in settle only"

# shellcheck disable=SC2086
hits=$(awk '
    /^func / { fn = $0 }
    /^}/ { fn = "" }
    /([^A-Za-z0-9_.]o|obs|obs\(\)|Observer)\.(Probes|ProbeFailures|BreakerTrips|Faults|Checkpoints|TransportDrops|TransportRetry|CacheHits|CacheMisses)([^A-Za-z0-9_]|$)/ &&
        !(/\.Series[ ,].*=/ && !/\.(Inc|Add)\(/) && fn !~ /^func \(tn \*tenant\) bank\(/ {
        print FILENAME ":" FNR ": " $0
    }
' $(find cmd internal -name '*.go' ! -name '*_test.go' ! -path 'internal/obsv/*') $(ls ./*.go | grep -v '_test\.go$'))
[ -z "$hits" ] || fail "$hits" "move a counted event's series with its owner's figure: through an obsv.Tally or tenant.bank only"

echo "check_engine_construction: runtime and transport build no engines directly, host them through lifecycle and settle every move in one place; every counted event has one set of books"
