#!/bin/sh
# Ledger-pin gate (CI): a test that pins what the virtual clock bills —
# per-tick breakdowns, engine-move records, interpreter event counts,
# fabric billing — keeps the record itself, readable, in
# testdata/<Test>/<case>.golden (internal/golden; `go test -run <Test>
# -update` rewrites it), so a declared ledger change is reviewed as a
# diff of the lines that moved. The pins used to be FNV-64 digests of
# those records. Fails if a test hashes a record again. Run from the repo
# root; exits non-zero listing offenders.
set -eu

hits=$(grep -rln --include='*_test.go' '"hash/fnv"' . || true)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "check_ledger_pins: pin the record with golden.Check, not a digest of it" >&2
    exit 1
fi
echo "check_ledger_pins: no test pins a digest"
