#!/bin/sh
# Production reach: which statements do the shipped binaries execute?
# Builds cmd/cascade, cmd/cascade-engined, cmd/cascade-bench, the five
# examples and the benchmark with statement coverage over every cascade
# package, then runs what the project runs outside its tests — the seven
# CI smokes, an interactive REPL session, the examples, every
# cascade-bench experiment and each benchmark workload for two seconds —
# and prints the share of statements reached outside benchmark/ and
# examples/, then every function there that no run reached. A process killed by a signal writes no counters, so
# the smokes stop their surviving daemons with SIGTERM.
#
# Usage: sh scripts/reach.sh   (from anywhere; ~15 min on a 2-core box)
# Every output goes to a mktemp -d (kept with KEEP=1); nothing is written
# into the checkout. A run that fails is reported after the figures, and
# the script then exits 1. Not run by CI.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
if [ "${KEEP:-0}" = 1 ]; then
    echo "reach: keeping $work"
else
    trap 'rm -rf "$work"' EXIT
fi
bin=$work/bin
cov=$work/cov
mkdir -p "$bin" "$cov" "$work/tmp"
cd "$root"

echo "reach: building with -cover into $bin"
go build -cover -coverpkg=cascade/... -o "$bin/" ./cmd/... ./examples/...
(cd benchmark && go build -cover -coverpkg=cascade/... -o "$bin/benchmark" .)

export GOCOVERDIR="$cov"
export TMPDIR="$work/tmp" # the smokes' mktemp -d

# run: one run, logged; a failed one still leaves its counters, so the
# report goes on and names it at the end (exit status 1).
failed=
run() {
    echo "reach: $*"
    "$@" >"$work/last.log" 2>&1 || {
        echo "reach: FAIL: $*"
        tail -20 "$work/last.log"
        failed="$failed
  $*"
    }
}

for s in remote chaos multitenant farm; do
    run sh "scripts/${s}_smoke.sh" "$bin/cascade" "$bin/cascade-engined"
done
for s in recovery metrics native; do
    run sh "scripts/${s}_smoke.sh" "$bin/cascade"
done
# The interactive REPL, driven on stdin, then its snapshot restored from
# the command line: no smoke does either.
printf '%s\n' 'reg [7:0] c = 1;' 'always @(posedge clk.val) c <= c + 1;' \
    'assign led.val = c;' ':run 3000' ':phase' ':stats' ':engines' ':health' \
    ':leds' ':pad 3' ':program' ':trace 5' ':metrics' ":save $work/repl.snap" \
    ":load $work/repl.snap" ':run 10' ':help' ':quit' >"$work/repl.in"
run sh -c '"$0" -compile-scale 600 -observe 127.0.0.1:0 <"$1"' "$bin/cascade" "$work/repl.in"
printf '%s\n' ':run 10' ':leds' ':quit' >"$work/restore.in"
run sh -c '"$0" -restore "$1" <"$2"' "$bin/cascade" "$work/repl.snap" "$work/restore.in"
for e in quickstart pow arbiter nw regexstream; do
    run "$bin/$e"
done
run "$bin/cascade-bench" -experiment all
cd "$work" # the benchmark writes its scratch under ./out
for w in pow_ladder regex_stream edit_session remote_lockstep durable_replay; do
    run "$bin/benchmark" --workload "$w" --seed 1 --seconds 2 --trace 0
done
cd "$root"

# Statements outside benchmark/ and examples/ only.
go tool covdata textfmt -i="$cov" -o "$work/all.txt"
grep -v -e '^cascade/benchmark/' -e '^cascade/examples/' "$work/all.txt" >"$work/reach.txt"
go tool cover -func="$work/reach.txt" >"$work/func.txt"
echo
echo "reach: $(tail -1 "$work/func.txt" | awk '{print $NF}') of the statements outside benchmark/ and examples/"
echo "reach: functions no run reached:"
grep -v '^total:' "$work/func.txt" | awk '$NF == "0.0%" { sub("^" mod "/", "", $1); print "  " $1 " " $2 }' mod="$root"
if [ -n "$failed" ]; then
    echo "reach: these runs failed (their counters are included):$failed"
    exit 1
fi
