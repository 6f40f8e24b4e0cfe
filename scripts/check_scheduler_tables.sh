#!/bin/sh
# Scheduler-table gate (CI): the Figure 6 loop runs on one resolved
# schedule table ([]slot in internal/runtime/scheduler.go), built by
# reschedule and indexed by position. It used to run on a path list and
# three path-keyed maps — a map lookup per engine per poll, a
# "path\x00var" key concatenated per output event, a goroutine per
# engine per batch — and that, not the evaluators, was where a step's
# host time went. Fails if a non-test file of internal/runtime grows a
# path-keyed client map, a routesFrom table or a NUL-joined key again,
# or starts a goroutine anywhere but the lane dispatcher, and if anything
# but a test sets the quiet rule's verify switch. Run from the repo root;
# exits non-zero listing offenders.
set -eu

hits=$(grep -nE 'map\[string\]\*transport\.Client|routesFrom|\\x00' internal/runtime/*.go | grep -v '_test\.go:' || true)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "check_scheduler_tables: index the schedule table (slotOf for by-path consumers), not a path-keyed map" >&2
    exit 1
fi
echo "check_scheduler_tables: internal/runtime keeps no path-keyed client or route map"

# The dispatcher is the one func that may say "go": print every go
# statement with the func it sits in, drop the dispatcher's.
hits=$(for f in internal/runtime/*.go; do
    case "$f" in *_test.go) continue ;; esac
    awk -v f="$f" '/^func / { fn = $0 } /^[[:space:]]*go[[:space:]]/ { print f ":" FNR ": " fn }' "$f"
done | grep -v 'func (r \*Runtime) dispatch(' || true)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "check_scheduler_tables: only the lane dispatcher (Runtime.dispatch) starts goroutines in internal/runtime" >&2
    exit 1
fi
echo "check_scheduler_tables: goroutines start only in the lane dispatcher"

# engine.VerifyQuiet re-issues every poll and drain the quiet rule skips;
# it is a test switch, never an option: only a _test.go file may set it.
hits=$(grep -rnE --include='*.go' 'VerifyQuiet[[:space:]]*(=[^=]|=$)' . | grep -v '_test\.go:' || true)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "check_scheduler_tables: engine.VerifyQuiet may be set only from _test.go files" >&2
    exit 1
fi
echo "check_scheduler_tables: the quiet-rule verify switch is set only by tests"
