#!/usr/bin/env bash
# Shard smoke gate: boot three prefserve backends over a hash-partitioned
# corpus (prefsplit), put prefroute in front, and assert that
#
#   1. the router is a drop-in: for a set of preference queries, prefsql
#      through the router returns exactly the rows a single-node
#      prefserve over the full corpus returns (partition-wise BMO merge
#      soundness, end to end over the wire);
#   2. a strict 8-client soak through the router accounts for every
#      response (sent = ok + degraded + errors, zero errors, trace
#      accounting) with no short responses — every query answered by all
#      3 shards;
#   3. killing one backend mid-soak loses nothing: the in-flight soak
#      still accounts for every response, and a follow-up soak sees every
#      response degraded to served=2/3 (partial) instead of failing;
#   4. router STATS exposes the dead shard (shard.2.up=0, shard_down>0);
#   5. SIGTERM drains the router cleanly.
#
# Run from the repo root; used by `make shard-smoke` and the CI
# shard-smoke job. Set SMOKE_ARTIFACT_DIR to keep the soak JSON reports
# and the router log.
set -eu

CLIENTS=${CLIENTS:-8}
QUERIES=${QUERIES:-25}

workdir=$(mktemp -d)
# every process started below, recorded in this shell (never inside a
# $(...) subshell, whose variables die with it)
pids=()
cleanup() {
  local status=$? alive=
  for pid in "${pids[@]:-}"; do
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  done
  for _ in $(seq 1 50); do
    alive=
    for pid in "${pids[@]:-}"; do
      [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null && alive="$alive $pid"
    done
    [ -z "$alive" ] && break
    sleep 0.1
  done
  for pid in $alive; do kill -KILL "$pid" 2>/dev/null || true; done
  for pid in "${pids[@]:-}"; do
    [ -n "$pid" ] && { wait "$pid" 2>/dev/null || true; }
  done
  rm -rf "$workdir"
  if [ -n "$alive" ]; then
    echo "FAIL: still running 5 s after cleanup:$alive" >&2
    exit 1
  fi
  exit "$status"
}
trap cleanup EXIT

dune build bin/gendata.exe bin/prefserve.exe bin/prefsoak.exe \
  bin/prefsql.exe bin/prefroute.exe bin/prefsplit.exe
# invoke the built binaries directly: several run concurrently below, and
# parallel `dune exec` instances fight over the build lock
BIN=_build/default/bin

echo "== generate and partition the workload =="
"$BIN/gendata.exe" cars -n 600 -o "$workdir/cars.csv"
"$BIN/prefsplit.exe" --shard cars=hash:mileage --shards 3 \
  --output-dir "$workdir" "$workdir/cars.csv"

# every row must land in exactly one shard
total=$(for i in 0 1 2; do tail -n +2 "$workdir/cars.shard$i.csv"; done | wc -l)
[ "$total" -eq 600 ] || {
  echo "FAIL: shards hold $total rows, expected 600"; exit 1
}

start_server() { # args: logfile, table spec; sets $started to the pid
  "$BIN/prefserve.exe" --table "$2" --port 0 >"$1" 2>&1 &
  started=$!
  pids+=("$started")
}

wait_port() { # args: logfile, pid
  local port=
  for _ in $(seq 1 100); do
    port=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "$1" | head -n1)
    [ -n "$port" ] && break
    kill -0 "$2" 2>/dev/null || {
      echo "process died during startup:" >&2; cat "$1" >&2; exit 1
    }
    sleep 0.1
  done
  [ -n "$port" ] || { echo "no listening banner:" >&2; cat "$1" >&2; exit 1; }
  echo "$port"
}

echo "== start 3 shard backends + 1 single-node reference =="
declare -a backend_pids backend_ports
for i in 0 1 2; do
  start_server "$workdir/backend$i.log" "cars=$workdir/cars.shard$i.csv"
  backend_pids[$i]=$started
done
start_server "$workdir/reference.log" "cars=$workdir/cars.csv"
ref_pid=$started
for i in 0 1 2; do
  backend_ports[$i]=$(wait_port "$workdir/backend$i.log" "${backend_pids[$i]}")
done
ref_port=$(wait_port "$workdir/reference.log" "$ref_pid")
echo "backends on ${backend_ports[*]}, reference on $ref_port"

echo "== start prefroute =="
"$BIN/prefroute.exe" \
  --backend "127.0.0.1:${backend_ports[0]}" \
  --backend "127.0.0.1:${backend_ports[1]}" \
  --backend "127.0.0.1:${backend_ports[2]}" \
  --shard cars=hash:mileage --port 0 >"$workdir/router.log" 2>&1 &
router_pid=$!
pids+=($router_pid)
router_port=$(wait_port "$workdir/router.log" "$router_pid")
echo "prefroute pid $router_pid on port $router_port"

echo "== parity: router == single node over the example corpus =="
run_corpus() { # args: port, outfile — table rows only, order-insensitive
  {
    printf '\\connect 127.0.0.1 %s\n' "$1"
    cat <<'SQL'
SELECT * FROM cars PREFERRING LOWEST(price) AND LOWEST(mileage);
SELECT make, price FROM cars PREFERRING HIGHEST(horsepower) PRIOR TO LOWEST(price);
SELECT * FROM cars WHERE year >= 1998 PREFERRING LOWEST(mileage) CASCADE HIGHEST(horsepower);
SELECT * FROM cars PREFERRING LOWEST(price) GROUPING make;
SELECT * FROM cars WHERE price <= 1200;
SQL
    printf '.quit\n'
  } | "$BIN/prefsql.exe" | grep '^|' | sort >"$2"
}
run_corpus "$router_port" "$workdir/router-rows.txt"
run_corpus "$ref_port" "$workdir/reference-rows.txt"
if ! diff -u "$workdir/reference-rows.txt" "$workdir/router-rows.txt"; then
  echo "FAIL: router results differ from the single-node reference"
  exit 1
fi
echo "parity OK ($(wc -l <"$workdir/router-rows.txt") table rows match)"

echo "== strict soak through the router: $CLIENTS clients x $QUERIES queries =="
"$BIN/prefsoak.exe" --port "$router_port" -c "$CLIENTS" -n "$QUERIES" \
  --strict --json "$workdir/router-soak.json" \
  -s "SELECT * FROM cars PREFERRING LOWEST(price) AND LOWEST(mileage)" \
  -s "SELECT make, price FROM cars PREFERRING HIGHEST(horsepower) PRIOR TO LOWEST(price)" \
  -s "SELECT * FROM cars PREFERRING LOWEST(price) GROUPING make"
python3 - "$workdir/router-soak.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["short"] == 0, f"healthy soak saw {r['short']} short responses"
assert r["degraded"] == 0, f"healthy soak saw {r['degraded']} degraded responses"
print(f"healthy soak: {r['sent']} sent, {r['qps']:.1f} qps, 0 short")
EOF

echo "== kill one backend mid-soak =="
# 20x the queries so the soak is still in flight when the SIGTERM lands
"$BIN/prefsoak.exe" --port "$router_port" -c "$CLIENTS" -n $((QUERIES * 20)) \
  --strict --json "$workdir/midkill-soak.json" \
  -s "SELECT * FROM cars PREFERRING LOWEST(price) AND LOWEST(mileage)" &
soak_pid=$!
pids+=("$soak_pid")
sleep 0.3
kill -TERM "${backend_pids[2]}"
# zero-loss even with a backend dying under load: --strict enforces
# sent = ok + degraded + errors with zero errors
wait "$soak_pid"
for _ in $(seq 1 100); do
  kill -0 "${backend_pids[2]}" 2>/dev/null || break
  sleep 0.1
done
kill -0 "${backend_pids[2]}" 2>/dev/null && {
  echo "FAIL: backend 2 still running after SIGTERM"; exit 1
}
echo "mid-kill soak survived (zero loss)"

echo "== degraded soak: every response served from 2/3 shards =="
"$BIN/prefsoak.exe" --port "$router_port" -c "$CLIENTS" -n "$QUERIES" \
  --strict --json "$workdir/degraded-soak.json" \
  -s "SELECT * FROM cars PREFERRING LOWEST(price) AND LOWEST(mileage)"
python3 - "$workdir/degraded-soak.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["errors"] == 0, f"degraded soak saw {r['errors']} errors"
assert r["short"] == r["sent"], \
    f"expected every response short (served=2/3), got {r['short']}/{r['sent']}"
assert r["degraded"] == r["sent"], \
    f"expected every response partial, got {r['degraded']}/{r['sent']}"
print(f"degraded soak: {r['sent']} sent, all served=2/3 and partial, 0 errors")
EOF

echo "== router STATS expose the dead shard =="
printf '\\connect 127.0.0.1 %s\n\\stats\n.quit\n' "$router_port" \
  | "$BIN/prefsql.exe" >"$workdir/router-stats.txt"
grep -q 'shard\.2\.up=0' "$workdir/router-stats.txt" || {
  echo "FAIL: router stats do not show shard.2.up=0"
  cat "$workdir/router-stats.txt"; exit 1
}
down=$(grep -o 'router\.shard_down=[0-9]*' "$workdir/router-stats.txt" \
  | head -n1 | cut -d= -f2)
[ "${down:-0}" -gt 0 ] || {
  echo "FAIL: router.shard_down = ${down:-0} (expected > 0)"; exit 1
}
echo "shard.2.up=0, router.shard_down=$down"

if [ -n "${SMOKE_ARTIFACT_DIR:-}" ]; then
  mkdir -p "$SMOKE_ARTIFACT_DIR"
  cp "$workdir/router-soak.json" "$workdir/midkill-soak.json" \
    "$workdir/degraded-soak.json" "$workdir/router.log" \
    "$workdir/router-stats.txt" "$SMOKE_ARTIFACT_DIR/"
fi

echo "== graceful drain =="
kill -TERM "$router_pid"
drained=1
for _ in $(seq 1 100); do
  kill -0 "$router_pid" 2>/dev/null || { drained=0; break; }
  sleep 0.1
done
if [ "$drained" -ne 0 ]; then
  echo "FAIL: router still running 10s after SIGTERM"
  exit 1
fi
grep -q "drained" "$workdir/router.log" || {
  echo "FAIL: no drain banner in router log:"; cat "$workdir/router.log"; exit 1
}
tail -n1 "$workdir/router.log"
echo "shard-smoke: OK"
