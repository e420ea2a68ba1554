#!/usr/bin/env sh
# Distributed chaos smoke test: real snoopd worker processes, a real
# campaignd coordinator, a real SIGKILL of a worker mid-grid, then a real
# SIGKILL of the coordinator, then a resume against a shrunken pool — and
# the final result set must equal an uninterrupted local cmd/campaign
# run's, point for point. The in-process chaos suite
# (internal/dispatch/chaos_test.go) covers the same failures with
# simulated transports; this exercises the real binaries end to end.
set -eu

workdir=$(mktemp -d)
pids=""
cleanup() {
    for p in $pids; do kill -KILL "$p" 2>/dev/null || true; done
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/snoopd" ./cmd/snoopd
go build -o "$workdir/campaign" ./cmd/campaign
go build -o "$workdir/campaignd" ./cmd/campaignd

# The grid: MVA-only would finish in microseconds, so enable the
# simulator stage to give each kill a window. 24 points.
grid="-protocols Write-Once,Illinois -sharing 5,20 -ns 2,4,6,8,10,12"
budget="-max-states -1 -sim-cycles 400000"

# start_worker <port> [snoopd flags...] — starts a snoopd, waits for
# /healthz, and leaves the pid in $wpid. Not a command substitution: the
# backgrounded server would hold the $() stdout pipe open forever.
start_worker() {
    port=$1
    shift
    addr="127.0.0.1:$port"
    "$workdir/snoopd" -addr "$addr" "$@" >"$workdir/snoopd.$port.log" 2>&1 &
    wpid=$!
    pids="$pids $wpid"
    waited=0
    until curl -sf "http://$addr/healthz" >/dev/null 2>&1; do
        if ! kill -0 "$wpid" 2>/dev/null; then
            echo "dist_chaos: worker on $addr died at startup" >&2
            cat "$workdir/snoopd.$port.log" >&2
            exit 1
        fi
        waited=$((waited + 1))
        if [ "$waited" -gt 100 ]; then
            echo "dist_chaos: worker on $addr not healthy after 10s" >&2
            exit 1
        fi
        sleep 0.1
    done
}

echo "dist_chaos: starting 3 snoopd workers"
start_worker 18091; w1=$wpid
start_worker 18092; w2=$wpid
start_worker 18093; w3=$wpid
pool="http://127.0.0.1:18091,http://127.0.0.1:18092,http://127.0.0.1:18093"

# Reference: the uninterrupted single-process runner, same grid.
echo "dist_chaos: local reference run"
"$workdir/campaign" $grid $budget -workers 1 -breaker -1 -quiet \
    -journal "$workdir/ref.jsonl"

# Chaos run: distributed, with a worker SIGKILLed mid-grid and then the
# coordinator SIGKILLed too.
echo "dist_chaos: distributed run (worker + coordinator will be killed)"
"$workdir/campaignd" -workers "$pool" $grid $budget -quiet \
    -health-interval 200ms -quarantine-after 2 -breaker 2 \
    -journal "$workdir/run.jsonl" >"$workdir/campaignd.log" 2>&1 &
cpid=$!
pids="$pids $cpid"

# Wait for journaled progress (header + 2 points), then SIGKILL a worker.
waited=0
while :; do
    lines=0
    [ -f "$workdir/run.jsonl" ] && lines=$(wc -l < "$workdir/run.jsonl")
    [ "$lines" -ge 3 ] && break
    if ! kill -0 "$cpid" 2>/dev/null; then
        echo "dist_chaos: coordinator finished before the worker kill; grid too fast" >&2
        exit 1
    fi
    waited=$((waited + 1))
    if [ "$waited" -gt 600 ]; then
        echo "dist_chaos: no journal progress after 60s" >&2
        cat "$workdir/campaignd.log" >&2
        exit 1
    fi
    sleep 0.1
done
echo "dist_chaos: SIGKILL worker 1 (journal at $lines lines)"
kill -KILL "$w1" 2>/dev/null || true

# A little more progress on the surviving workers, then kill the
# coordinator itself.
target=$((lines + 3))
waited=0
while :; do
    lines=$(wc -l < "$workdir/run.jsonl")
    [ "$lines" -ge "$target" ] && break
    if ! kill -0 "$cpid" 2>/dev/null; then
        echo "dist_chaos: coordinator finished before it could be killed; grid too fast" >&2
        exit 1
    fi
    waited=$((waited + 1))
    if [ "$waited" -gt 600 ]; then
        echo "dist_chaos: no progress after the worker kill" >&2
        cat "$workdir/campaignd.log" >&2
        exit 1
    fi
    sleep 0.1
done
echo "dist_chaos: SIGKILL coordinator (journal at $lines lines)"
kill -KILL "$cpid" 2>/dev/null || true
wait "$cpid" 2>/dev/null || true

# Resume with the two surviving workers; the journal is the contract.
echo "dist_chaos: resume with 2 surviving workers"
pool2="http://127.0.0.1:18092,http://127.0.0.1:18093"
"$workdir/campaignd" -workers "$pool2" $grid $budget -quiet -resume \
    -health-interval 200ms -quarantine-after 2 -breaker 2 \
    -journal "$workdir/run.jsonl"

# Result-set equality: with >1 workers the journal's point order is
# scheduling-dependent, so compare the sorted point records. The solvers
# are deterministic, so every point's line must be byte-identical to the
# reference's line for that point.
grep '"kind":"point"' "$workdir/ref.jsonl" | sort > "$workdir/ref.points"
grep '"kind":"point"' "$workdir/run.jsonl" | sort > "$workdir/run.points"
if ! cmp -s "$workdir/ref.points" "$workdir/run.points"; then
    echo "dist_chaos: FAIL — distributed result set differs from local reference" >&2
    diff "$workdir/ref.points" "$workdir/run.points" >&2 || true
    exit 1
fi
count=$(wc -l < "$workdir/run.points")
echo "dist_chaos: PASS — $count points survived a worker kill + coordinator kill, set-identical to local run"

# ------------------------------------------------------------------
# Brownout phase: one fresh worker runs with a deliberately tiny
# admission capacity (one slot, no queue, a 5 req/s per-client rate
# limit, brownout armed), the other is healthy. The coordinator must
# treat every 429/503 as backpressure — shifting load to the healthy
# worker, tripping neither the breaker nor quarantine — and finish the
# grid. The budgets are MVA-only, so brownout cannot rewrite any of
# them: the result set must still match a local reference byte for
# byte. /metrics on the tiny worker must show real admission sheds.
echo "dist_chaos: brownout phase — tiny-capacity worker sheds, healthy worker absorbs"
start_worker 18094 -max-inflight 1 -admission-queue -1 \
    -rate-per-client 5 -brownout-shed-pct 0.2
w4=$wpid
start_worker 18095
w5=$wpid

mva_budget="-max-states -1 -sim-cycles -1"
"$workdir/campaign" $grid $mva_budget -workers 1 -breaker -1 -quiet \
    -journal "$workdir/bref.jsonl"
"$workdir/campaignd" -workers "http://127.0.0.1:18094,http://127.0.0.1:18095" \
    $grid $mva_budget -quiet -health-interval 200ms -breaker 2 \
    -max-inflight 2 -journal "$workdir/brun.jsonl"

grep '"kind":"point"' "$workdir/bref.jsonl" | sort > "$workdir/bref.points"
grep '"kind":"point"' "$workdir/brun.jsonl" | sort > "$workdir/brun.points"
if ! cmp -s "$workdir/bref.points" "$workdir/brun.points"; then
    echo "dist_chaos: FAIL — brownout-phase result set differs from local reference" >&2
    diff "$workdir/bref.points" "$workdir/brun.points" >&2 || true
    exit 1
fi
sheds=$(curl -sf "http://127.0.0.1:18094/metrics" |
    awk '/^snoopmva_admission_shed_total/ { s += $NF } END { printf "%d", s }')
if [ "${sheds:-0}" -le 0 ]; then
    echo "dist_chaos: FAIL — tiny-capacity worker shed nothing; overload protection never engaged" >&2
    curl -s "http://127.0.0.1:18094/metrics" >&2 || true
    exit 1
fi
bcount=$(wc -l < "$workdir/brun.points")
echo "dist_chaos: PASS — brownout phase: $bcount points set-identical to local run with $sheds admission sheds"

# ------------------------------------------------------------------
# Wire phase: the same grid dispatched over the binary wire protocol
# (wire:// workers with HTTP fallback URLs), with one worker SIGKILLed
# mid-grid. Every point in flight on the killed worker's connection
# fails as a transport error; the coordinator must requeue it, finish
# on the survivor, and produce the same point
# set as the local reference — byte for byte, since the solvers are
# deterministic. The survivor's /metrics must show real wire-protocol
# traffic, proving the phase did not silently fall back to JSON.
echo "dist_chaos: wire phase — binary-protocol workers, one killed mid-grid"
start_worker 18096 -wire-addr 127.0.0.1:18196
w6=$wpid
start_worker 18097 -wire-addr 127.0.0.1:18197
w7=$wpid

wpool="wire://127.0.0.1:18196?http=http://127.0.0.1:18096,wire://127.0.0.1:18197?http=http://127.0.0.1:18097"
"$workdir/campaignd" -workers "$wpool" $grid $budget -quiet \
    -health-interval 200ms -quarantine-after 2 -breaker 2 \
    -journal "$workdir/wrun.jsonl" >"$workdir/campaignd.wire.log" 2>&1 &
wcpid=$!
pids="$pids $wcpid"

waited=0
while :; do
    lines=0
    [ -f "$workdir/wrun.jsonl" ] && lines=$(wc -l < "$workdir/wrun.jsonl")
    [ "$lines" -ge 3 ] && break
    if ! kill -0 "$wcpid" 2>/dev/null; then
        echo "dist_chaos: wire coordinator finished before the worker kill; grid too fast" >&2
        exit 1
    fi
    waited=$((waited + 1))
    if [ "$waited" -gt 600 ]; then
        echo "dist_chaos: no wire-phase journal progress after 60s" >&2
        cat "$workdir/campaignd.wire.log" >&2
        exit 1
    fi
    sleep 0.1
done
echo "dist_chaos: SIGKILL wire worker 1 (journal at $lines lines)"
kill -KILL "$w6" 2>/dev/null || true

if ! wait "$wcpid"; then
    echo "dist_chaos: FAIL — wire-phase coordinator exited non-zero" >&2
    cat "$workdir/campaignd.wire.log" >&2
    exit 1
fi

grep '"kind":"point"' "$workdir/wrun.jsonl" | sort > "$workdir/wrun.points"
if ! cmp -s "$workdir/ref.points" "$workdir/wrun.points"; then
    echo "dist_chaos: FAIL — wire-phase result set differs from local reference" >&2
    diff "$workdir/ref.points" "$workdir/wrun.points" >&2 || true
    exit 1
fi
wirereqs=$(curl -sf "http://127.0.0.1:18097/metrics" |
    awk '/^snoopmva_wire_requests_total/ { s += $NF } END { printf "%d", s }')
if [ "${wirereqs:-0}" -le 0 ]; then
    echo "dist_chaos: FAIL — surviving worker served no wire-protocol requests; phase fell back to JSON" >&2
    curl -s "http://127.0.0.1:18097/metrics" >&2 || true
    exit 1
fi
wcount=$(wc -l < "$workdir/wrun.points")
echo "dist_chaos: PASS — wire phase: $wcount points survived a worker kill over the binary protocol ($wirereqs wire requests on the survivor), set-identical to local run"
