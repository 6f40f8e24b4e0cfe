#!/bin/sh
# Front-end gate (CI): internal/runtime has one front end and one
# program-version record. integrate (version.go) is the only code that
# spells parse -> declare -> ir.Build -> elaborate -> ir.Inline ->
# elaborate, and it runs whole before an eval or restore commits; Eval,
# Restore, journal replay and internal/bench's baselines all go through
# it, and only it is handed a predecessor to reuse subprograms and
# elaborations from (ir.BuildFrom, elab.ElaborateFrom; the base version
# is the memo). The sequence used to be
# written four times and split across the
# commit point, so a fragment only the inlined root's elaboration could
# refuse was refused after the program had been journaled, replaced and
# torn down. Fails if a non-test file of internal/runtime or
# internal/bench other than version.go calls a front-end stage again, if
# the Runtime struct regrows one of the eight loose fields the version
# record replaced, if the unchecksummed v1 snapshot decoder comes back,
# or if a second reuse key does: synthesis relocates a unit by the
# identity elaboration gave it (netlist.CompileFrom), so internal/netlist
# compares no parameters or variable shapes and its linker does not see
# source items, and only internal/elab compares parameter environments
# (elab.Extends).
# Run from the repo root; exits non-zero listing offenders.
set -eu

files=$(ls internal/runtime/*.go internal/bench/*.go | grep -v '_test\.go$')

# Every front-end call outside version.go, comments skipped.
calls=$(awk '
    FILENAME == "internal/runtime/version.go" { next }
    /^[[:space:]]*\/\// { next }
    /verilog\.ParseProgramFragment\(|ir\.Build(From)?\(|ir\.Inline\(|elab\.Elaborate(From)?\(/ {
        print FILENAME ":" FNR ": " $0
    }' $files)
if [ -n "$calls" ]; then
    printf '%s\n' "$calls"
    echo "check_front_end: parse/build/inline/elaborate belong to integrate (internal/runtime/version.go); call it, or runtime.ElaborateInlined" >&2
    exit 1
fi
# The predecessor-taking build and elaboration, anywhere in the tree.
reusers=$(grep -rnE --include='*.go' 'ir\.BuildFrom\(|elab\.ElaborateFrom\(' . | grep -v '_test\.go:' | grep -v '^\./internal/runtime/version\.go:' || true)
if [ -n "$reusers" ]; then
    printf '%s\n' "$reusers"
    echo "check_front_end: only integrate hands ir.BuildFrom or elab.ElaborateFrom a predecessor; everyone else builds and elaborates from scratch (ir.Build, elab.Elaborate)" >&2
    exit 1
fi
echo "check_front_end: the front end is spelled once, in version.go"

# The fields of the Runtime struct, first word of each declaration line.
fields=$(awk '
    /^type Runtime struct \{/ { in_rt = 1; next }
    in_rt && /^\}/ { exit }
    in_rt && $1 ~ /^(prog|flatDesign|design|inlined|elabs|clockPath|clockVar|everBuilt)$/ {
        print FILENAME ":" FNR ": " $0
    }' internal/runtime/runtime.go)
if [ -n "$fields" ]; then
    printf '%s\n' "$fields"
    echo "check_front_end: a program's identity is Runtime.ver (one immutable version), not loose Runtime fields" >&2
    exit 1
fi
if ! grep -qE '^[[:space:]]+ver[[:space:]]+\*version' internal/runtime/runtime.go; then
    echo "check_front_end: Runtime no longer declares ver *version" >&2
    exit 1
fi
echo "check_front_end: Runtime holds one version record"

legacy=$(grep -n 'decodeSnapshotV1' $files || true)
if [ -n "$legacy" ]; then
    echo "$legacy"
    echo "check_front_end: snapshots decode through the checksummed container only" >&2
    exit 1
fi
echo "check_front_end: no unchecksummed snapshot decoder"

# One reuse key: elaboration's unit identity.
netlist=$(ls internal/netlist/*.go | grep -v '_test\.go$')
second=$( (grep -nE '\.Params\b|func (sameShape|sameParams)\(' $netlist
    grep -n '"cascade/internal/verilog"' internal/netlist/link.go internal/netlist/netlist.go) || true)
if [ -n "$second" ]; then
    printf '%s\n' "$second"
    echo "check_front_end: netlist relocates a unit by its elaboration's identity (elab.ContAssign.Unit, Proc.Unit, Flat.InitialUnits); it compares no parameters, shapes or source items" >&2
    exit 1
fi
envs=$(grep -rnE --include='*.go' 'func (\([^)]*\) )?(extendsEnv|sameEnv)\(' . | grep -v '_test\.go:' | grep -v '^\./internal/elab/' || true)
if [ -n "$envs" ]; then
    printf '%s\n' "$envs"
    echo "check_front_end: a parameter environment stands for another by elab.Extends only" >&2
    exit 1
fi
echo "check_front_end: one reuse key, elaboration's unit identity"
