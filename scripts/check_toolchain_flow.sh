#!/bin/sh
# Toolchain-flow gate (CI): internal/toolchain has one compile flow.
# stack.serve is the only code that orders memory tier, model, durable
# tiers, insertion and storage — the toolchain's own stack, every farm
# shard and the daemon's Worker all call it — and the farm is a field
# read at submit, not an implementation behind an interface. The back
# half used to be written three times and the copies' books diverged;
# this fails if a non-test file in the package type-asserts *FarmBackend
# again, or if lookupTiers/metaMatches/storeTiers are called from more
# than one function. Run from the repo root; exits non-zero listing
# offenders.
set -eu

files=$(ls internal/toolchain/*.go | grep -v '_test\.go$')

asserts=$(grep -nE '\.\(\*FarmBackend\)' $files || true)
if [ -n "$asserts" ]; then
    echo "$asserts"
    echo "check_toolchain_flow: read Toolchain.farm, do not type-assert a backend" >&2
    exit 1
fi

# Every call site, tagged with the function it sits in.
callers=$(awk '
    /^func / { fn = $0; sub(/\{[[:space:]]*$/, "", fn) }
    /^[[:space:]]*\/\// { next }
    /(lookupTiers|metaMatches|storeTiers)\(/ && !/^func (lookupTiers|metaMatches|storeTiers)\(/ {
        print FILENAME ": " fn
    }' $files | sort -u)
if [ "$(printf '%s\n' "$callers" | grep -c .)" -gt 1 ]; then
    printf '%s\n' "$callers"
    echo "check_toolchain_flow: the durable tiers are consulted from more than one function; go through stack.serve" >&2
    exit 1
fi
echo "check_toolchain_flow: one back half, no backend type-assertions"
