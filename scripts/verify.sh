#!/usr/bin/env bash
# Full verification pass: release build, whole-workspace tests, clippy on
# every target with warnings denied, a formatting check, the static
# pre-flight passes (lint must find no errors in the shipped sources;
# analyze must run clean and its hoisting report is kept as an artifact),
# a determinism smoke run (the repro sweep must be byte-identical with
# and without cross-simulation parallelism), the full-scale `repro all`
# pinned byte for byte to the committed repro_output.txt, a check that
# `repro all --json` is one JSON document per experiment id, the TCP
# loopback smoke (a multi-process run over framed sockets must byte-match
# the in-process run, with and without a worker killed mid-run), the
# federated-sharding smoke (router + 2 shard processes byte-match the
# single manager, with and without a shard killed -9 mid-run, and a
# SIGSTOP round in which the router must route all 40000 units while the
# shard owning lnni-0 stays stopped, then match once it resumes),
# livebench's own unit tests and a live end-to-end smoke of the livebench
# workloads (livebench/ is left as committed), and the benchmark
# trajectory table merged from every committed BENCH_*.json. Smoke-scale
# benchmarks write their BENCH_*.json under target/bench-smoke/, and the
# run fails if any committed BENCH_*.json changed.
set -euo pipefail
cd "$(dirname "$0")/.."
repro="$PWD/target/release/repro"
smoke="$PWD/target/bench-smoke"
mkdir -p "$smoke"

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check

# VM differential suite: the bytecode VM must stay bit-identical to the
# tree-walking reference (proptest + hazard corpus + golden disassembly);
# the call-depth limit must hold in release stack layouts too
cargo test -q --release -p vine-lang --test vm_differential --test disasm_golden --test call_depth
(cd "$smoke" && "$repro" perf --lang)
echo "vine-lang VM differential + benchmark: OK (BENCH_lang.json in $smoke)"

./target/release/repro lint
./target/release/repro analyze --check | tee ANALYZE_report.txt
echo "repro lint + analyze: OK (report in ANALYZE_report.txt)"

seq_out="$(mktemp)"
par_out="$(mktemp)"
trap 'rm -f "$seq_out" "$par_out"' EXIT
./target/release/repro fig6a fig6b table2 --scale 0.02 --jobs 1 >"$seq_out" 2>/dev/null
./target/release/repro fig6a fig6b table2 --scale 0.02 --jobs 4 >"$par_out" 2>/dev/null
cmp "$seq_out" "$par_out" || {
    echo "repro output differs between --jobs 1 and --jobs 4" >&2
    exit 1
}
echo "repro --jobs determinism: OK (byte-identical at --jobs 1 and 4)"

# the full-scale reproduction is deterministic (table2's live Local
# Invocation row prints 0.00000 unless a call takes >= 5 us): it must
# reproduce the committed output byte for byte
./target/release/repro all --jobs 4 2>/dev/null | cmp - repro_output.txt || {
    echo "repro all differs from repro_output.txt" >&2
    exit 1
}
echo "repro all: OK (byte-identical to repro_output.txt)"

# tables write their JSON by hand: `repro all --json` must decode as one
# document per `repro --list` id, in that order, each carrying its id
./target/release/repro all --json --scale 0.02 --jobs 4 2>/dev/null >"$seq_out"
python3 - "$seq_out" "$(./target/release/repro --list)" <<'EOF'
import json, sys
text, want = open(sys.argv[1]).read(), sys.argv[2].split()
decoder, pos, got = json.JSONDecoder(), 0, []
while True:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos == len(text):
        break
    doc, pos = decoder.raw_decode(text, pos)
    got.append(doc.get("id") if isinstance(doc, dict) else None)
if got != want:
    sys.exit(f"repro all --json decoded as ids {got}, expected {want}")
print(f"repro all --json: OK ({len(got)} documents, one per id)")
EOF

./scripts/tcp_smoke.sh ./target/release/repro

# reactor connection-scaling smoke: one manager thread must sustain a
# 256-connection loopback fleet (the full 1000-connection run is the
# local `repro perf --net`; CI keeps the bounded variant)
(cd "$smoke" && "$repro" perf --net --conns 256 --scale 0.1)
# a join wave of a second or more is the sign of a dialer whose SYN was
# retransmitted after the listen queue overflowed
python3 - "$smoke/BENCH_net.json" <<'EOF'
import json, sys
wave = next(s['join_wave_s'] for s in json.load(open(sys.argv[1]))['sizes']
            if s['connections'] == 256)
if wave >= 1.0:
    sys.exit(f"256-connection join wave took {wave:.3f} s: a SYN was retransmitted")
print(f"256-connection join wave: {wave:.3f} s")
EOF
echo "reactor connection-scaling smoke: OK (BENCH_net.json in $smoke)"

# federated sharding: the simulated 1→8 shard sweep (bounded; the
# committed BENCH_shard.json is the full-scale run), then the live
# 2-shard byte-identity + kill -9 smoke
(cd "$smoke" && "$repro" shard --scale 0.02)
echo "federated sharding sweep: OK (BENCH_shard.json in $smoke)"
./scripts/shard_smoke.sh ./target/release/repro

# live end-to-end smoke: the benchmark workloads run through manager,
# reactor, the worker's pool threads and library daemons, and every
# result is checked; a hang, a lost UnitDone or a wrong result fails.
# tenant-churn is the one that installs and evicts daemons mid-run. The
# traced lnni-task run drives worker_engine, the in-process side of the
# worker's pool (livebench's traced worker feeds it from its own socket
# reader), which no other smoke reaches.
# A livebench build rewrites its stale Cargo.lock, and the benchmark's
# directory stays as committed: the lock is saved here and put back after
# the smokes and on any exit.
lock_saved="$(mktemp)"
cp livebench/Cargo.lock "$lock_saved"
trap 'rm -f "$seq_out" "$par_out"; cp "$lock_saved" livebench/Cargo.lock; rm -f "$lock_saved"' EXIT
# livebench builds against the workspace's crates by path: its own unit
# tests (tenant apps, arrival schedules, percentiles and the result line)
# run here
cargo test -q --release --offline --manifest-path livebench/Cargo.toml
echo "livebench unit tests: OK"
for run in "lnni-invoke 0" "lnni-task 0" "tenant-churn 0" "lnni-task 1"; do
    read -r workload trace <<<"$run"
    last="$(timeout 300 cargo run --release --offline --quiet --manifest-path livebench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace "$trace" | tail -n 1)"
    case "$last" in
        *'"correct": true'*) echo "livebench $workload --trace $trace smoke: OK" ;;
        *)
            echo "livebench $workload --trace $trace smoke failed: $last" >&2
            exit 1
            ;;
    esac
done
cp "$lock_saved" livebench/Cargo.lock

# one-page performance picture across every benchmark artifact
./scripts/bench_summary.sh

# the committed full-scale results are inputs, never outputs, of this run
git diff --exit-code -- 'BENCH_*.json'
