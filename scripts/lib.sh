# scripts/lib.sh: shared plumbing for the CI smoke scripts — workdir +
# cleanup trap, daemon start/SIGKILL, log polling, and the output-diff
# assertions every smoke ends with. POSIX sh; source it right after
# parsing arguments:
#
#   . "$(dirname "$0")/lib.sh"
#   smoke_init                  # $work + cleanup trap
#   smoke_port 20000            # $port, offset by PID for parallel CI
#   start_daemon "$work/daemon.log" -journal "$work/j"   # $daemon_pid
#
# Helpers expect $engined to name the cascade-engined binary when
# daemons are involved. Background processes registered with
# smoke_track (start_daemon does it for you) are killed on exit.

smoke_pids=

# smoke_init: make the scratch dir ($work) and install the cleanup trap.
smoke_init() {
    work=$(mktemp -d)
    trap smoke_cleanup EXIT
}

smoke_cleanup() {
    for p in $smoke_pids; do kill "$p" 2>/dev/null || true; done
    [ -n "${work:-}" ] && rm -rf "$work"
}

# smoke_track <pid>: kill this process on exit.
smoke_track() {
    smoke_pids="$smoke_pids $1"
}

# smoke_port <base>: pick $port offset by the PID — binding :0 first is
# racy from sh, and the offset keeps parallel CI jobs apart.
smoke_port() {
    port=$(( ${1:-20000} + $$ % 20000 ))
}

# wait_count <want> <pattern> <file> <what> [watch_pid]: poll until
# pattern appears at least want times in file, failing loudly (with the
# file's tail) on timeout. With watch_pid, a watched process exiting
# before the pattern lands is also a failure — unless the pattern is
# already there (it may legitimately have finished). The file may not
# exist yet (a just-backgrounded process has not opened its redirect):
# grep -c then prints nothing, and an empty count must read as 0, not
# error out of the test and fall through as success.
wait_count() {
    wc_want=$1; wc_pattern=$2; wc_file=$3; wc_what=$4; wc_watch=${5:-}
    i=0
    while [ "$(wc_seen)" -lt "$wc_want" ]; do
        i=$((i + 1))
        if [ "$i" -gt 600 ]; then
            echo "FAIL: timed out waiting for $wc_what"
            tail -40 "$wc_file" 2>/dev/null || true
            exit 1
        fi
        if [ -n "$wc_watch" ] && ! kill -0 "$wc_watch" 2>/dev/null; then
            if [ "$(wc_seen)" -lt "$wc_want" ]; then
                echo "FAIL: process exited before $wc_what"
                tail -40 "$wc_file" 2>/dev/null || true
                exit 1
            fi
            return
        fi
        sleep 0.1
    done
}

# wc_seen: how many lines of $wc_file match $wc_pattern now (0 if absent).
wc_seen() {
    wc_n=$(grep -c "$wc_pattern" "$wc_file" 2>/dev/null || true)
    echo "${wc_n:-0}"
}

# start_daemon <logfile> [daemon args...]: start $engined listening on
# 127.0.0.1:$port with the extra args, truncating the log first (restart
# cycles reuse it), and wait until it accepts. Sets $daemon_pid.
start_daemon() {
    sd_log=$1; shift
    : > "$sd_log"
    "$engined" -listen "127.0.0.1:$port" "$@" >"$sd_log" 2>&1 &
    daemon_pid=$!
    smoke_track "$daemon_pid"
    wait_count 1 "listening on" "$sd_log" "daemon startup"
}

# kill_daemon [pid]: SIGKILL the daemon (default $daemon_pid) and reap it.
kill_daemon() {
    kd_pid=${1:-$daemon_pid}
    kill -9 "$kd_pid" 2>/dev/null || true
    wait "$kd_pid" 2>/dev/null || true
    daemon_pid=
}

# strip_status <log> <out>: drop the runtime's [cascade] status lines,
# which legitimately differ across hosting arrangements (promotion
# happens on different fabrics); every remaining byte must match.
strip_status() {
    grep -v '^\[cascade\]' "$1" >"$2"
}

# ticks_of <log>: extract the final tick count a batch run printed.
ticks_of() {
    sed -n 's/.*done: ticks=\([0-9]*\).*/\1/p' "$1"
}

# assert_same_output <a> <b> <label>: byte-compare two stripped outputs.
assert_same_output() {
    if ! cmp -s "$1" "$2"; then
        echo "FAIL: $3"
        diff "$1" "$2" || true
        exit 1
    fi
}

# assert_same_ticks <a.log> <b.log> <label>: final tick counts match.
assert_same_ticks() {
    at_a=$(ticks_of "$1"); at_b=$(ticks_of "$2")
    if [ -z "$at_a" ] || [ "$at_a" != "$at_b" ]; then
        echo "FAIL: $3: tick counts diverge: $at_a vs $at_b"
        exit 1
    fi
}
