#!/usr/bin/env sh
# Smoke test for cmd/snoopd: start the server on a private port, hit
# /healthz, /metrics, /v1/solve and /v1/solvebest (including a system too
# large for the simulator) over real HTTP, then send SIGTERM and
# verify the graceful drain exits 0. Exercises the real binary end to
# end — the in-process httptest suite covers the handler logic.
set -eu

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/snoopd" ./cmd/snoopd

addr=127.0.0.1:18080
base="http://$addr"

echo "snoopd_smoke: starting server on $addr"
"$workdir/snoopd" -addr "$addr" 2>"$workdir/snoopd.log" &
pid=$!

# Wait for the listener (the binary prints its banner after Listen).
waited=0
until curl -sf "$base/healthz" >/dev/null 2>&1; do
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "snoopd_smoke: server died before becoming healthy" >&2
        cat "$workdir/snoopd.log" >&2
        exit 1
    fi
    waited=$((waited + 1))
    if [ "$waited" -gt 100 ]; then
        echo "snoopd_smoke: server not healthy after 10s" >&2
        cat "$workdir/snoopd.log" >&2
        exit 1
    fi
    sleep 0.1
done

echo "snoopd_smoke: /healthz"
health=$(curl -sf "$base/healthz")
[ "$health" = "ok" ] || { echo "snoopd_smoke: unexpected healthz body: $health" >&2; exit 1; }

echo "snoopd_smoke: /v1/solve"
solve=$(curl -sf -X POST "$base/v1/solve" -d '{
    "protocol": {"name": "Illinois"},
    "workload": {"appendix_a": 5},
    "n": 10
}')
case "$solve" in
    *'"speedup"'*) ;;
    *) echo "snoopd_smoke: solve response lacks a speedup: $solve" >&2; exit 1 ;;
esac

echo "snoopd_smoke: /v1/solvebest"
best=$(curl -sf -X POST "$base/v1/solvebest" -d '{
    "protocol": {"name": "Illinois"},
    "workload": {"appendix_a": 5},
    "n": 10,
    "budget": {"max_states": -1, "sim_cycles": -1}
}')
case "$best" in
    '{"method":"mva","n":10,"speedup":'*) ;;
    *) echo "snoopd_smoke: unexpected MVA-only solvebest body: $best" >&2; exit 1 ;;
esac

echo "snoopd_smoke: /metrics"
metrics=$(curl -sf "$base/metrics")
for series in snoopmva_http_requests_total snoopmva_mva_solves_total snoopmva_solvecache_hits_total; do
    case "$metrics" in
        *"$series"*) ;;
        *) echo "snoopd_smoke: /metrics lacks $series" >&2; exit 1 ;;
    esac
done

# A system too large for the simulator must degrade to the MVA, not
# take the server down: its per-block arrays at N=100000 would need
# terabytes, and a fatal out-of-memory is not a recoverable panic.
echo "snoopd_smoke: oversized /v1/solvebest"
big=$(curl -sf -X POST "$base/v1/solvebest" -d '{
    "protocol": {"name": "Write-Once"},
    "workload": {"appendix_a": 5},
    "n": 100000,
    "budget": {"max_states": -1, "sim_cycles": 10}
}')
case "$big" in
    '{"method":"mva","degraded":true,'*) ;;
    *) echo "snoopd_smoke: unexpected oversized solvebest body: $big" >&2; exit 1 ;;
esac
health=$(curl -sf "$base/healthz") || { echo "snoopd_smoke: server unhealthy after the oversized request" >&2; cat "$workdir/snoopd.log" >&2; exit 1; }
[ "$health" = "ok" ] || { echo "snoopd_smoke: unexpected healthz body after the oversized request: $health" >&2; exit 1; }

echo "snoopd_smoke: graceful shutdown"
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
if [ "$status" -ne 0 ]; then
    echo "snoopd_smoke: server exited $status on SIGTERM" >&2
    cat "$workdir/snoopd.log" >&2
    exit 1
fi

echo "snoopd_smoke: PASS"
