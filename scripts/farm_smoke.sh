#!/bin/sh
# Compile-farm smoke (CI): boot three cascade-engined -compile-worker
# daemons peered into a replicated-cache ring, and assert end to end
# that
#   (a) a client sharding compiles onto the farm survives one worker
#       being SIGKILLed mid-run (reroute, don't strand) with program
#       output byte-identical to the local-backend baseline,
#   (b) a cold client restart reaches hardware at cache-hit latency,
#       served across the peer ring by a worker that never compiled
#       the design itself (DESIGN.md key invariant 15's deployment
#       story, with real processes).
# Usage: farm_smoke.sh <path-to-cascade-binary> <path-to-engined-binary>
set -eu

bin=${1:?usage: farm_smoke.sh <cascade-binary> <cascade-engined-binary>}
engined=${2:?usage: farm_smoke.sh <cascade-binary> <cascade-engined-binary>}
. "$(dirname "$0")/lib.sh"
smoke_init
client_pid=

cat > "$work/prog.v" <<'PROG'
reg [15:0] n = 1;
always @(posedge clk.val) begin
  n <= n + 7;
  if (n % 256 == 1) $display("n=%d", n);
  if (n > 60000) $finish;
end
assign led.val = n[7:0];
PROG

smoke_port 23000
p1=$port; p2=$((port + 1)); p3=$((port + 2))

# Three compile workers, each peered with the other two: a miss on any
# shard consults its siblings before paying for place-and-route.
port=$p1; start_daemon "$work/w1.log" -compile-worker -peers "127.0.0.1:$p2,127.0.0.1:$p3"
w1_pid=$daemon_pid
port=$p2; start_daemon "$work/w2.log" -compile-worker -peers "127.0.0.1:$p1,127.0.0.1:$p3"
w2_pid=$daemon_pid
port=$p3; start_daemon "$work/w3.log" -compile-worker -peers "127.0.0.1:$p1,127.0.0.1:$p2"
w3_pid=$daemon_pid

# Local-backend baseline: same program, in-process compiles.
"$bin" -batch "$work/prog.v" -ticks 20000 >"$work/local.log" 2>&1
strip_status "$work/local.log" "$work/local.out"
if ! grep -q "n=" "$work/local.out"; then
  echo "FAIL: local run produced no output"
  cat "$work/local.log"
  exit 1
fi

# Farm run with a mid-run worker kill: the client shards onto w1 and w3;
# once it is producing output, w3 is SIGKILLed. The breaker must treat
# the dead shard like a dead engine — reroute to w1 — and the program
# must neither notice nor diverge.
"$bin" -batch "$work/prog.v" -ticks 20000 \
  -compile-farm-addrs "127.0.0.1:$p1,127.0.0.1:$p3" >"$work/farm.log" 2>&1 &
client_pid=$!
smoke_track "$client_pid"
wait_count 1 'n=' "$work/farm.log" "farm client output" "$client_pid"
kill_daemon "$w3_pid"
if ! wait "$client_pid"; then
  echo "FAIL: farm client exited non-zero after worker kill"
  cat "$work/farm.log"
  exit 1
fi
client_pid=
strip_status "$work/farm.log" "$work/farm.out"
assert_same_output "$work/local.out" "$work/farm.out" \
  "farm-backed output diverges from the local-backend baseline"
assert_same_ticks "$work/local.log" "$work/farm.log" "farm vs local"

# Warm w1: if the killed shard was the one that compiled, this run
# recompiles; either way the bitstream now lives on a live worker.
"$bin" -batch "$work/prog.v" -ticks 20000 \
  -compile-farm-addrs "127.0.0.1:$p1" >"$work/warm.log" 2>&1

# Cold client restart against w2 — a worker that never compiled this
# design. A fresh process with no local cache must still reach hardware
# at cache-hit latency, served from w1's cache over the peer ring.
"$bin" -batch "$work/prog.v" -ticks 20000 \
  -compile-farm-addrs "127.0.0.1:$p2" >"$work/cold.log" 2>&1
if ! grep -q 'bitstream cache hit' "$work/cold.log"; then
  echo "FAIL: cold restart did not hit the farm's peer cache"
  cat "$work/cold.log"
  exit 1
fi
strip_status "$work/cold.log" "$work/cold.out"
assert_same_output "$work/local.out" "$work/cold.out" \
  "cold-restart output diverges from the local-backend baseline"
assert_same_ticks "$work/local.log" "$work/cold.log" "cold restart vs local"
stop_daemon "$w1_pid"
stop_daemon "$w2_pid"

echo "farm smoke ok: $(grep -c 'n=' "$work/local.out") display lines identical" \
  "through a worker kill, cold restart served from the peer cache, ticks=$(ticks_of "$work/local.log")"
