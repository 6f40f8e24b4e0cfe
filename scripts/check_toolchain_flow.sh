#!/bin/sh
# Toolchain-flow gate (CI): internal/toolchain has one compile flow.
# stack.serve is the only code that orders memory tier, model, durable
# tiers, insertion and storage — the toolchain's own stack, every farm
# shard and the daemon's Worker all call it — and the farm is a field
# read at submit, not an implementation behind an interface. The back
# half used to be written three times and the copies' books diverged;
# this fails if a non-test file in the package type-asserts *FarmBackend
# again, or if lookupTiers/metaMatches/storeTiers are called from more
# than one function. The flow's data has one shape too: a served flow is
# a ShardOutcome from the model through the memory tier to the wire, the
# model is one function of the request, and a Result gains its netlist in
# one place, from the submission itself — this also fails if a Result
# literal sets Prog in more than one function, if a func() *Result model
# closure reappears, if cacheEntry holds a Result or anything from
# internal/netlist, or if one of the old per-path model copies
# (finishOn, finishStats, finishNative) or Result<->wire converters
# (outcomeOf, memMeta) comes back. The front half has one spelling as
# well: a flow asks its Design record for the netlist and the hash, so a
# design's native and fabric flows and every resubmission synthesize
# once — this fails if netlist.Compile( / CompileFrom( or .Fingerprint() is called from
# any function but the record's (each used to run per flow, twice per
# eval), or if designs are remembered in a map keyed by *elab.Flat (the
# record belongs to its placement and dies with it). Run from the repo
# root; exits non-zero listing offenders.
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

# Every function holding a Result literal that sets Prog (the package's
# Result literals nest no braces, so the first closing one ends it).
assemblers=$(awk '
    /^func / { fn = $0; sub(/\{[[:space:]]*$/, "", fn); lit = 0 }
    /^[[:space:]]*\/\// { next }
    /Result\{/ { lit = 1 }
    lit && /Prog:/ { print FILENAME ": " fn }
    lit && /\}/ { lit = 0 }' $files | sort -u)
if [ "$(printf '%s\n' "$assemblers" | grep -c .)" -ne 1 ]; then
    printf '%s\n' "$assemblers"
    echo "check_toolchain_flow: a Result must gain its Prog in exactly one function, from the submitter's own netlist" >&2
    exit 1
fi

closures=$(grep -nE 'func\(\) \*Result' $files || true)
if [ -n "$closures" ]; then
    echo "$closures"
    echo "check_toolchain_flow: no model closures; the back half is Toolchain.model of the request" >&2
    exit 1
fi

held=$(awk '
    /^type cacheEntry struct/ { in_entry = 1; next }
    in_entry && /^}/ { in_entry = 0 }
    /^[[:space:]]*\/\// { next }
    in_entry && /Result|netlist\./ { print FILENAME ": " $0 }' $files)
if [ -n "$held" ]; then
    echo "$held"
    echo "check_toolchain_flow: cacheEntry holds a ShardOutcome, never a Result or a netlist" >&2
    exit 1
fi

revived=$(grep -nwE 'finishOn|finishStats|finishNative|outcomeOf|memMeta' $files || true)
if [ -n "$revived" ]; then
    echo "$revived"
    echo "check_toolchain_flow: one model (Toolchain.model) and one record (ShardOutcome); do not re-add per-path copies" >&2
    exit 1
fi
# Synthesis and the hash, tagged with the function each call sits in.
for call in 'netlist\.Compile(From)?\(' '\.Fingerprint\(\)'; do
    sites=$(awk -v call="$call" '
        /^func / { fn = $0; sub(/\{[[:space:]]*$/, "", fn) }
        /^[[:space:]]*\/\// { next }
        $0 ~ call { print FILENAME ": " fn }' $files | sort -u)
    if [ "$(printf '%s\n' "$sites" | grep -c .)" -ne 1 ] || ! printf '%s\n' "$sites" | grep -q 'func (d \*Design) synthesize('; then
        printf '%s\n' "$sites"
        echo "check_toolchain_flow: $call belongs to Design.synthesize alone; ask the design record" >&2
        exit 1
    fi
done

tables=$(grep -nE 'map\[\*elab\.Flat\]' $files || true)
if [ -n "$tables" ]; then
    echo "$tables"
    echo "check_toolchain_flow: no table from elaborations to designs; the record hangs off its placement" >&2
    exit 1
fi
echo "check_toolchain_flow: one back half, one outcome record, one Result assembly site, one synthesis site, no backend type-assertions"
