#!/bin/sh
# Netlist-executor gate (CI): internal/njit's compiled form is the one
# thing that executes a netlist.Program. netlist.Machine keeps the state,
# the inputs, the monitors and an interpreted eval loop that survives
# only as njit's slow path and as the test oracle; the fabric model used
# to step that loop directly and paid ten times njit's tick for it. This
# fails if a non-test file outside internal/netlist and internal/njit
# calls Evaluate or Update on a *netlist.Machine again (benchmark/ is a
# module of its own and times the interpreter on purpose). Run from the
# repo root; exits non-zero listing offenders.
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
