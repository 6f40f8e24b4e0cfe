#!/bin/sh
# Netlist-executor gate (CI), three checks. Run from the repo root;
# exits non-zero listing offenders.
#
# 1. internal/njit's compiled form is the one thing that executes a
#    netlist.Program. netlist.Machine keeps the state, the inputs, the
#    monitors and the reference loop that survives only as njit's
#    per-instruction fallback and as the test oracle; the fabric model
#    used to step that loop directly and paid ten times njit's tick for
#    it. Fails if a non-test file outside internal/netlist and
#    internal/njit calls Evaluate or Update on a *netlist.Machine again
#    (benchmark/ is a module of its own and times the reference loop on
#    purpose).
# 2. Every op kind means one thing in two places: the reference
#    (Machine.ExecOp in netlist/machine.go) and njit's compiled closures
#    (njit/njit.go). Fails if an arithmetic kind is switched on anywhere
#    else but the area model (netlist/stats.go), or twice in machine.go —
#    a second interpreter growing back.
# 3. Engines over a netlist are built on the one core: outside tests and
#    benchmark/, netlist.NewMachine is called from internal/netlist and
#    internal/njit/core.go only.
set -eu

hits=""
for f in $(grep -rlE 'netlist\.(NewMachine\(|Machine([^A-Za-z0-9_]|$))' --include='*.go' . |
    grep -vE '_test\.go$|^\./internal/(netlist|njit)/|^\./benchmark/' || true); do
    # Names this file binds to a machine: struct fields and variables
    # declared *netlist.Machine, and results of netlist.NewMachine.
    names=$(grep -oE '[A-Za-z_][A-Za-z0-9_]*[[:space:]]+\*netlist\.Machine|[A-Za-z_][A-Za-z0-9_]*[[:space:]]*:?=[[:space:]]*netlist\.NewMachine\(' "$f" |
        sed -E 's/[^A-Za-z0-9_].*//' | sort -u)
    for n in $names; do
        found=$(grep -nE "(^|[^A-Za-z0-9_])$n\.(Evaluate|Update)\(" "$f" | sed "s|^|$f:|" || true)
        if [ -n "$found" ]; then
            hits="$hits$found
"
        fi
    done
done
if [ -n "$hits" ]; then
    printf '%s' "$hits"
    echo "check_netlist_executor: execute netlists through njit.Eval, not netlist.Machine's interpreter" >&2
    exit 1
fi
echo "check_netlist_executor: no netlist.Machine is stepped outside internal/netlist and internal/njit"

src=$(grep -rlE 'case[[:space:]]+(netlist\.)?OpAdd([^A-Za-z0-9_]|$)' --include='*.go' . |
    grep -vE '_test\.go$|^\./benchmark/' | sort | tr '\n' ' ')
want="./internal/netlist/machine.go ./internal/netlist/stats.go ./internal/njit/njit.go "
if [ "$src" != "$want" ]; then
    echo "check_netlist_executor: arithmetic op kinds are switched on in: $src" >&2
    echo "check_netlist_executor: want exactly the reference, the area model and the compiled form: $want" >&2
    exit 1
fi
n=$(grep -cE 'case[[:space:]]+OpAdd([^A-Za-z0-9_]|$)' internal/netlist/machine.go)
if [ "$n" -ne 1 ]; then
    echo "check_netlist_executor: internal/netlist/machine.go switches on OpAdd $n times; ExecOp is the one reference" >&2
    exit 1
fi
echo "check_netlist_executor: each op kind has one reference and one compiled implementation"

hits=$(grep -rnE 'netlist\.NewMachine\(' --include='*.go' . |
    grep -vE '^\./[^:]*_test\.go:|^\./benchmark/|^\./internal/njit/core\.go:' || true)
if [ -n "$hits" ]; then
    printf '%s\n' "$hits"
    echo "check_netlist_executor: build netlist engines on njit.Core, not on a machine of their own" >&2
    exit 1
fi
echo "check_netlist_executor: netlist.NewMachine is called only by internal/netlist and the njit core"
