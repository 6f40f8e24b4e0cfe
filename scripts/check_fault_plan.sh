#!/bin/sh
# Fault-plan gate (CI): every seeded outage in the tree is planned by one
# function, internal/fault's Config.Outages. Daemon kill/restart windows
# and compile-farm shard outages used to come from two more planners (a
# package internal/chaos and a farm-private generator), with their own
# seed handling, and the farm's copy planned overlapping windows. This
# fails if anything imports cascade/internal/chaos again, or if a
# splitmix64 stream (fault.SplitMix) is seeded outside internal/fault
# anywhere but internal/vgen's session generator and the farm's
# rendezvous rank — the only other seeded draws the tree has. Run from
# the repo root; exits non-zero listing offenders.
set -eu

files=$(find . -name '*.go' -not -path './.git/*')

imports=$(grep -n '"cascade/internal/chaos"' $files || true)
if [ -n "$imports" ]; then
    echo "$imports"
    echo "check_fault_plan: internal/chaos is gone; plan outages with fault.Config.Outages" >&2
    exit 1
fi

# Every fault.SplitMix( call site, tagged with the function it sits in.
streams=$(awk '
    /^func / { fn = $0; sub(/\{[[:space:]]*$/, "", fn) }
    /^[[:space:]]*\/\// { next }
    /fault\.SplitMix\(/ { print FILENAME ": " fn }' $files | sort -u |
    grep -v '^\./internal/vgen/' |
    grep -v '^\./internal/toolchain/farm\.go: func (fb \*FarmBackend) rank(' || true)
if [ -n "$streams" ]; then
    echo "$streams"
    echo "check_fault_plan: a seeded stream outside internal/fault, vgen and the farm's rank; plan outages with fault.Config.Outages" >&2
    exit 1
fi
echo "check_fault_plan: one outage planner (fault.Config.Outages), no internal/chaos, no private seeded streams"
