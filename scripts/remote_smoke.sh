#!/bin/sh
# Remote-engine smoke (CI): start a cascade-engined daemon, run the same
# batch program twice — once with in-process engines, once with user
# engines hosted on the daemon — and assert byte-identical program
# output. The engine protocol must be invisible to the program.
# Usage: remote_smoke.sh <path-to-cascade-binary> <path-to-engined-binary>
set -eu

bin=${1:?usage: remote_smoke.sh <cascade-binary> <cascade-engined-binary>}
engined=${2:?usage: remote_smoke.sh <cascade-binary> <cascade-engined-binary>}
. "$(dirname "$0")/lib.sh"
smoke_init

cat > "$work/prog.v" <<'PROG'
reg [15:0] n = 1;
always @(posedge clk.val) begin
  n <= n + 7;
  if (n % 256 == 1) $display("n=%d", n);
  if (n > 60000) $finish;
end
assign led.val = n[7:0];
PROG

smoke_port 20000
start_daemon "$work/daemon.log"

"$bin" -batch "$work/prog.v" -ticks 20000 >"$work/local.log" 2>&1
"$bin" -batch "$work/prog.v" -ticks 20000 \
  -remote-engine "127.0.0.1:$port" >"$work/remote.log" 2>&1

# Compare program output only: every $display byte and the final tick
# count must be identical.
strip_status "$work/local.log" "$work/local.out"
strip_status "$work/remote.log" "$work/remote.out"
if ! grep -q "n=" "$work/local.out"; then
  echo "FAIL: local run produced no output"
  cat "$work/local.log"
  exit 1
fi
assert_same_output "$work/local.out" "$work/remote.out" \
  "remote program output diverges from local"
assert_same_ticks "$work/local.log" "$work/remote.log" "remote vs local"
stop_daemon
echo "remote smoke ok: $(grep -c 'n=' "$work/local.out") display lines identical, ticks=$(ticks_of "$work/local.log")"
