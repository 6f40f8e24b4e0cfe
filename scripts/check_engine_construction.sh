#!/bin/sh
# Engine-construction gate (CI): internal/lifecycle is the one place that
# builds, seeds and retires engines. The runtime and the daemon host
# each used to carry their own copy of that hot swap and the copies
# diverged; this fails if a non-test file in either package constructs
# an engine directly again. Run from the repo root; exits non-zero
# listing offenders.
set -eu

hits=$(grep -nE '(sweng|njit|hweng)\.New\(' internal/runtime/*.go internal/transport/*.go | grep -v '_test\.go:' || true)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "check_engine_construction: build engines through internal/lifecycle, not directly" >&2
    exit 1
fi
echo "check_engine_construction: runtime and transport build no engines directly"
