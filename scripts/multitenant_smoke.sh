#!/bin/sh
# Multi-tenant smoke (CI): boot one cascade-engined daemon, run three
# different programs as three *concurrent* private sessions on it — one
# of them with injected transport faults — and diff each program's
# output against its own single-tenant (in-process, fault-free) run.
# Sharing a daemon, losing fabric to neighbours, and absorbing injected
# drops must all be invisible: every $display byte and the final tick
# count must be identical per program.
# A client closes its session on exit: afterwards the daemon has room for
# a session that asks for most of its fabric.
# Usage: multitenant_smoke.sh <path-to-cascade-binary> <path-to-engined-binary>
set -eu

bin=${1:?usage: multitenant_smoke.sh <cascade-binary> <cascade-engined-binary>}
engined=${2:?usage: multitenant_smoke.sh <cascade-binary> <cascade-engined-binary>}
. "$(dirname "$0")/lib.sh"
smoke_init

# Three distinct tenants: different programs, different output shapes.
cat > "$work/t1.v" <<'PROG'
reg [15:0] n = 1;
always @(posedge clk.val) begin
  n <= n + 7;
  if (n % 256 == 1) $display("t1 n=%d", n);
  if (n > 50000) $finish;
end
assign led.val = n[7:0];
PROG

cat > "$work/t2.v" <<'PROG'
reg [15:0] a = 0;
reg [15:0] b = 1;
always @(posedge clk.val) begin
  a <= b;
  b <= a + b;
  if (a % 89 == 0) $display("t2 fib=%d", a);
  if (a > 40000) $finish;
end
assign led.val = b[7:0];
PROG

cat > "$work/t3.v" <<'PROG'
reg [15:0] x = 1;
always @(posedge clk.val) begin
  x <= (x == 16'h4000) ? 1 : (x << 1);
  if (x == 1) $display("t3 wrap");
  if ($time > 30000) $finish;
end
assign led.val = x[7:0];
PROG

smoke_port 21000
start_daemon "$work/daemon.log"

# Single-tenant baselines: each program alone, in-process, fault-free.
for t in t1 t2 t3; do
  "$bin" -batch "$work/$t.v" -ticks 60000 >"$work/$t.solo.log" 2>&1
done

# The multi-tenant run: three concurrent sessions against one daemon,
# each with a private fabric region and one fair-share compile worker.
# Tenant 2 additionally gets deterministic injected transport drops
# (capped below the retry budget, so they cost retries, not output).
"$bin" -batch "$work/t1.v" -ticks 60000 -remote-engine "127.0.0.1:$port" \
  -session-quota 25000 -session-share 1 >"$work/t1.multi.log" 2>&1 &
p1=$!
"$bin" -batch "$work/t2.v" -ticks 60000 -remote-engine "127.0.0.1:$port" \
  -session-quota 25000 -session-share 1 \
  -fault-net 0.2 -fault-seed 42 >"$work/t2.multi.log" 2>&1 &
p2=$!
"$bin" -batch "$work/t3.v" -ticks 60000 -remote-engine "127.0.0.1:$port" \
  -session-quota 25000 -session-share 1 >"$work/t3.multi.log" 2>&1 &
p3=$!
fail=0
wait $p1 || { echo "FAIL: tenant t1 exited non-zero"; fail=1; }
wait $p2 || { echo "FAIL: tenant t2 exited non-zero"; fail=1; }
wait $p3 || { echo "FAIL: tenant t3 exited non-zero"; fail=1; }
if [ "$fail" -ne 0 ]; then
  for t in t1 t2 t3; do cat "$work/$t.multi.log"; done
  exit 1
fi

# Per tenant: program output and the final tick count must be
# byte-identical to the solo run.
for t in t1 t2 t3; do
  strip_status "$work/$t.solo.log" "$work/$t.solo.out"
  strip_status "$work/$t.multi.log" "$work/$t.multi.out"
  if ! grep -q "$t" "$work/$t.solo.out"; then
    echo "FAIL: $t solo run produced no output"
    cat "$work/$t.solo.log"
    exit 1
  fi
  assert_same_output "$work/$t.solo.out" "$work/$t.multi.out" \
    "$t multi-tenant output diverges from its solo run"
  assert_same_ticks "$work/$t.solo.log" "$work/$t.multi.log" "$t solo vs multi"
done
# Every tenant closed its session on exit: a session that asks for most
# of the daemon's fabric (100k of its 110k LEs) must find room now.
if ! "$bin" -batch "$work/t1.v" -ticks 60000 -remote-engine "127.0.0.1:$port" \
  -session-quota 100000 >"$work/t1.after.log" 2>&1; then
  echo "FAIL: a session left its region on the daemon after its client exited"
  cat "$work/t1.after.log"
  exit 1
fi
stop_daemon

lines=$(cat "$work"/t?.solo.out | wc -l)
echo "multitenant smoke ok: 3 concurrent sessions (one fault-injected), $lines display lines identical to solo runs"
