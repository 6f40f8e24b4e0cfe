#!/bin/sh
# Metrics smoke (CI): start a batch run with the observability endpoint
# enabled, scrape /metrics and /trace while it runs, and assert the core
# series are present and moving: compile-latency and transport-RTT
# histograms, the promotion counter, and the phase gauge.
# Usage: metrics_smoke.sh <path-to-cascade-binary>
set -eu

bin=${1:?usage: metrics_smoke.sh <cascade-binary>}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cat > "$work/prog.v" <<'PROG'
reg [31:0] n = 0;
always @(posedge clk.val) n <= n + 1;
assign led.val = n[7:0];
PROG

# A fixed loopback port: the batch runner prints the bound address only
# through the REPL view, so pin it where curl can find it.
addr=127.0.0.1:39925

"$bin" -batch "$work/prog.v" -ticks 100000000 \
  -observe "$addr" >"$work/run.log" 2>&1 &
pid=$!
trap 'kill -9 "$pid" 2>/dev/null || true; rm -rf "$work"' EXIT

# Wait for the endpoint to come up, then for the JIT to reach hardware
# (the compile-latency histogram fills when the bitstream lands; the
# promotion counter moves at the next step, which a slow build — -cover,
# -race — leaves a scrape room to fall between).
i=0
while [ "$i" -lt 50 ]; do
  if curl -sf "http://$addr/metrics" >"$work/metrics.txt" 2>/dev/null &&
     grep -q '^cascade_compile_latency_virtual_seconds_count [1-9]' "$work/metrics.txt" &&
     grep -q '^cascade_promotions_total [1-9]' "$work/metrics.txt"; then
    break
  fi
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "FAIL: run exited before metrics appeared"
    cat "$work/run.log"
    exit 1
  fi
  i=$((i + 1))
  sleep 0.2
done

for series in \
  'cascade_compile_latency_virtual_seconds_bucket' \
  'cascade_compile_latency_virtual_seconds_count [1-9]' \
  'cascade_transport_roundtrip_seconds_bucket' \
  'cascade_settle_batch_makespan_virtual_seconds_count [1-9]' \
  'cascade_promotions_total [1-9]' \
  'cascade_events_total [1-9]' \
  'cascade_phase [1-9]'; do
  if ! grep -q "^$series" "$work/metrics.txt"; then
    echo "FAIL: /metrics is missing: $series"
    cat "$work/metrics.txt"
    exit 1
  fi
done

# The trace endpoint streams JSONL and must contain the hot swap.
curl -sf "http://$addr/trace" >"$work/trace.jsonl"
for kind in compile-submit bitstream-ready hot-swap phase; do
  if ! grep -q "\"kind\":\"$kind\"" "$work/trace.jsonl"; then
    echo "FAIL: /trace is missing a $kind event"
    cat "$work/trace.jsonl"
    exit 1
  fi
done

# pprof rides along on the same endpoint.
curl -sf "http://$addr/debug/pprof/cmdline" >/dev/null

kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
echo "metrics smoke ok: $(grep -c '^cascade_' "$work/metrics.txt") sample lines, $(wc -l < "$work/trace.jsonl") trace events"
