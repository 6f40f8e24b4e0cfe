#!/bin/sh
# Chaos smoke (CI): the end-to-end self-healing drill. Run the §6.1
# proof-of-work miner with its user engines hosted on a supervised
# cascade-engined daemon, SIGKILL the daemon twice mid-run, restart it
# over its journal each time, and assert that
#   (a) the client failed over to local engines both times,
#   (b) it re-hosted onto the resumed daemon both times,
#   (c) both restarts resumed the same number of engines from the journal
#       (a re-host ends the copies it supersedes; left alone, every
#       restart would respawn them all), and
#   (d) every $display byte matches the fault-free local baseline
# (DESIGN.md key invariant 14, end to end with real processes).
# Must run from the repo root (generates the workload with go run).
# Usage: chaos_smoke.sh <path-to-cascade-binary> <path-to-engined-binary>
set -eu

bin=${1:?usage: chaos_smoke.sh <cascade-binary> <cascade-engined-binary>}
engined=${2:?usage: chaos_smoke.sh <cascade-binary> <cascade-engined-binary>}
. "$(dirname "$0")/lib.sh"
smoke_init
client_pid=

# The workload must be $finish-bounded, not tick-bounded: every failover
# deliberately drops one clock edge (the engine resumes from the last
# committed step), so the chaos run needs a few more ticks than the
# baseline to produce the same output sequence — invariant 14 equates
# outputs, not clocks. Mining stops at the fifth solution.
ticks=60000
go run ./scripts/genpow > "$work/pow.v"
cat >> "$work/pow.v" <<'PROG'
reg prev_found = 0;
reg [31:0] prev_sol = 0;
reg [2:0] nfound = 0;
always @(posedge clk.val) begin
  prev_found <= found;
  prev_sol <= sol;
  if ((found && !prev_found) || (found && sol != prev_sol)) begin
    nfound <= nfound + 1;
    if (nfound == 4) $finish;
  end
end
PROG

# Fault-free baseline: same program, same tick budget, local engines.
"$bin" -batch "$work/pow.v" -ticks "$ticks" >"$work/local.log" 2>&1
strip_status "$work/local.log" "$work/local.out"
if ! grep -q '^FOUND' "$work/local.out"; then
    echo "FAIL: baseline found no solutions in $ticks ticks"
    cat "$work/local.log"
    exit 1
fi

smoke_port 20000
start_daemon "$work/daemon.log" -journal "$work/journal"

"$bin" -batch "$work/pow.v" -ticks "$ticks" \
    -remote-engine "127.0.0.1:$port" -supervise >"$work/client.log" 2>&1 &
client_pid=$!
smoke_track "$client_pid"

# Two kill/recover cycles. Each: wait for fresh miner output (proof the
# current hosting actually serves traffic), SIGKILL the daemon, wait for
# the breaker to trip and fail the engines over, restart the daemon over
# its journal, and wait for the re-host. The client log holds the
# supervision trail, so waits watch the client process.
cycle=1
while [ "$cycle" -le 2 ]; do
    wait_count "$cycle" '^FOUND' "$work/client.log" \
        "miner output (cycle $cycle)" "$client_pid"
    kill_daemon
    wait_count "$cycle" 'failed over to local software' "$work/client.log" \
        "failover $cycle" "$client_pid"
    start_daemon "$work/daemon.log" -journal "$work/journal"
    resumed=$(sed -n 's/.*resumed [0-9]* session(s), \([0-9]*\) engine(s).*/\1/p' "$work/daemon.log")
    if [ "${resumed:-0}" -eq 0 ] || [ "$resumed" != "${resumed_first:-$resumed}" ]; then
        echo "FAIL: restart $cycle resumed ${resumed:-no} engine(s) from the journal" \
            "(restart 1: ${resumed_first:-n/a}); want the same non-zero count"
        cat "$work/daemon.log"
        exit 1
    fi
    resumed_first=$resumed
    wait_count "$cycle" 're-hosted on' "$work/client.log" \
        "re-host $cycle" "$client_pid"
    cycle=$((cycle + 1))
done

if ! wait "$client_pid"; then
    echo "FAIL: supervised client exited non-zero"
    cat "$work/client.log"
    exit 1
fi
client_pid=

strip_status "$work/client.log" "$work/client.out"
assert_same_output "$work/local.out" "$work/client.out" \
    "chaos-run output diverges from the fault-free baseline"
failovers=$(grep -c 'failed over to local software' "$work/client.log")
rehosts=$(grep -c 're-hosted on' "$work/client.log")
echo "chaos smoke ok: $(grep -c '^FOUND' "$work/client.out") solutions identical" \
    "through $failovers failover(s) and $rehosts re-host(s), $resumed engine(s) resumed each time"
