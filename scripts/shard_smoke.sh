#!/usr/bin/env bash
# Federated-sharding smoke test. Round 1: the same LNNI workload run (a)
# as one manager in one process and (b) as a router plus two shard
# processes over framed TCP must produce byte-identical digests. Round 2
# kills one shard outright (kill -9) while it holds routed-but-unfinished
# work: the router must observe the dead connection, re-route the shard's
# whole in-flight ledger onto the survivor, and still byte-match the
# single-manager digest.
#
# The victim is chosen from the router's own routing breadcrumb
# ("# route: lnni -> sX"): with one library, that shard owns every
# submission. It is SIGSTOPped as soon as it joins, so all its routed
# units are provably still in flight when the kill lands — no timing
# window to race.
#
# Round 3 stops a shard without killing it: with --libs 8 --n 40000, the
# shard that owns lnni-0 stays SIGSTOPped from the moment it joins, and
# the router must still report every unit routed ("# routed 40000
# submission(s)") within 10 s — a router that blocked in a write to the
# stopped shard never gets there. The shard is then SIGCONTed and the
# digest must byte-match `repro serve --local --n 40000`.
#
# Usage: scripts/shard_smoke.sh [path-to-repro]
set -euo pipefail
cd "$(dirname "$0")/.."

REPRO="${1:-./target/release/repro}"
[ -x "$REPRO" ] || { echo "repro binary not found at $REPRO (build with: cargo build --release)" >&2; exit 2; }

N=200
PORT=$((21000 + RANDOM % 20000))
ADDR="127.0.0.1:$PORT"

tmp="$(mktemp -d)"
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT

wait_for() {
    # poll a log file for a marker line
    for _ in $(seq 1 100); do
        grep -q "$2" "$1" 2>/dev/null && return 0
        sleep 0.1
    done
    echo "timed out waiting for '$2' in $1" >&2
    return 1
}

# ---- reference: the whole run as one manager in one process -----------
"$REPRO" serve --local --workers 2 --n $N > "$tmp/local.txt" 2>/dev/null

# ---- round 1: router + two shard processes over TCP -------------------
"$REPRO" route --listen "$ADDR" --shards 2 --n $N \
    > "$tmp/route.txt" 2> "$tmp/route.err" &
router=$!
pids+=("$router")
wait_for "$tmp/route.err" "listening"
"$REPRO" serve --shard 0 --router "$ADDR" --workers 1 2> "$tmp/s0.err" & pids+=("$!")
"$REPRO" serve --shard 1 --router "$ADDR" --workers 1 2> "$tmp/s1.err" & pids+=("$!")
wait "$router"

cmp "$tmp/local.txt" "$tmp/route.txt" || {
    echo "2-shard digest differs from single-manager digest" >&2
    diff "$tmp/local.txt" "$tmp/route.txt" | head >&2 || true
    exit 1
}
echo "shard smoke: OK (2-shard federated run byte-identical to single-manager run)"

# with one library, one shard owns every submission; it is round 2's victim
victim_sid="$(grep -oE 's[0-9]+$' <(grep '# route: lnni ->' "$tmp/route.err") | tr -d s)"
survivor_sid=$((1 - victim_sid))

# ---- round 2: kill -9 the owning shard; survivor absorbs its ledger ---
PORT=$((PORT + 1))
ADDR="127.0.0.1:$PORT"
"$REPRO" route --listen "$ADDR" --shards 2 --n $N \
    > "$tmp/kill.txt" 2> "$tmp/kill.err" &
router=$!
pids+=("$router")
wait_for "$tmp/kill.err" "listening"
# start the victim first and freeze it the moment it joins: every unit the
# router sends it stays in flight until the kill
"$REPRO" serve --shard "$victim_sid" --router "$ADDR" --workers 1 2> "$tmp/victim.err" &
victim=$!
pids+=("$victim")
disown "$victim" # keep the kill -9 below out of the shell's job chatter
wait_for "$tmp/victim.err" "joined router"
kill -STOP "$victim"
"$REPRO" serve --shard "$survivor_sid" --router "$ADDR" --workers 1 2> "$tmp/survivor.err" &
pids+=("$!")
wait_for "$tmp/kill.err" "routing $N submission"
sleep 0.5
kill -9 "$victim" 2>/dev/null || true
wait "$router"

cmp "$tmp/local.txt" "$tmp/kill.txt" || {
    echo "post-kill digest differs from single-manager digest" >&2
    diff "$tmp/local.txt" "$tmp/kill.txt" | head >&2 || true
    exit 1
}
grep -qE "re-routing [1-9]" "$tmp/kill.err" || {
    echo "router never re-routed the dead shard's in-flight units" >&2
    cat "$tmp/kill.err" >&2
    exit 1
}
echo "shard smoke: OK (shard killed -9 mid-run; in-flight ledger re-routed, results identical)"

# ---- round 3: SIGSTOP (not kill) the shard that owns lnni-0 ----------
N3=40000
"$REPRO" serve --local --workers 2 --n $N3 > "$tmp/local3.txt" 2>/dev/null
PORT=$((PORT + 1))
ADDR="127.0.0.1:$PORT"
"$REPRO" route --listen "$ADDR" --shards 2 --n $N3 --libs 8 \
    > "$tmp/stop.txt" 2> "$tmp/stop.err" &
router=$!
pids+=("$router")
wait_for "$tmp/stop.err" "listening"
# the router names lnni-0's owner only once both shards joined, so each is
# frozen the moment it joins and the other one is let go afterwards
shard_pid=()
for sid in 0 1; do
    "$REPRO" serve --shard "$sid" --router "$ADDR" --workers 1 --libs 8 \
        2> "$tmp/stop-s$sid.err" &
    shard_pid[$sid]=$!
    pids+=("$!")
    wait_for "$tmp/stop-s$sid.err" "joined router"
    kill -STOP "${shard_pid[$sid]}"
done
wait_for "$tmp/stop.err" "# route: lnni-0 ->"
owner="$(grep -oE 'lnni-0 -> s[0-9]+$' "$tmp/stop.err" | grep -oE '[0-9]+$')"
kill -CONT "${shard_pid[$((1 - owner))]}"
# wait_for polls for 10 s: the router must route every unit while the
# owner of lnni-0 stays stopped
wait_for "$tmp/stop.err" "# routed $N3 submission(s)" || {
    kill -CONT "${shard_pid[$owner]}"
    echo "router never finished routing while shard s$owner was stopped" >&2
    exit 1
}
kill -CONT "${shard_pid[$owner]}"
wait "$router"

cmp "$tmp/local3.txt" "$tmp/stop.txt" || {
    echo "digest after a stopped shard resumed differs from single-manager digest" >&2
    diff "$tmp/local3.txt" "$tmp/stop.txt" | head >&2 || true
    exit 1
}
echo "shard smoke: OK (shard s$owner stopped mid-run; router routed all $N3 units, results identical)"
