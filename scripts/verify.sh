#!/usr/bin/env bash
# Full verification pass: release build, whole-workspace tests, clippy on
# every target with warnings denied, a formatting check, the static
# pre-flight passes (lint must find no errors in the shipped sources;
# analyze must run clean and its hoisting report is kept as an artifact),
# a determinism smoke run (the repro sweep must be byte-identical with
# and without cross-simulation parallelism), the TCP loopback smoke
# (a multi-process run over framed sockets must byte-match the in-process
# run, with and without a worker killed mid-run), the federated-sharding
# smoke (router + 2 shard processes byte-match the single manager, with
# and without a shard killed -9 mid-run), a live end-to-end smoke of both
# livebench workloads, and the benchmark trajectory table merged from
# every BENCH_*.json.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check

# VM differential suite: the bytecode VM must stay bit-identical to the
# tree-walking reference (proptest + hazard corpus + golden disassembly)
cargo test -q --release -p vine-lang --test vm_differential --test disasm_golden
./target/release/repro perf --lang
echo "vine-lang VM differential + benchmark: OK (BENCH_lang.json written)"

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

./scripts/tcp_smoke.sh ./target/release/repro

# reactor connection-scaling smoke: one manager thread must sustain a
# 256-connection loopback fleet (the full 1000-connection run is the
# local `repro perf --net`; CI keeps the bounded variant)
./target/release/repro perf --net --conns 256 --scale 0.1
echo "reactor connection-scaling smoke: OK (BENCH_net.json written)"

# federated sharding: the simulated 1→8 shard sweep (bounded; the
# committed BENCH_shard.json is the full-scale run), then the live
# 2-shard byte-identity + kill -9 smoke
./target/release/repro shard --scale 0.02
echo "federated sharding sweep: OK (BENCH_shard.json written)"
./scripts/shard_smoke.sh ./target/release/repro

# live end-to-end smoke: both benchmark workloads run through manager,
# reactor, worker relay and library daemons or task threads, and every
# result is checked; a relay hang, a lost UnitDone or a wrong result fails
for workload in lnni-invoke lnni-task; do
    last="$(timeout 300 cargo run --release --offline --quiet --manifest-path livebench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)"
    case "$last" in
        *'"correct": true'*) echo "livebench $workload smoke: OK" ;;
        *)
            echo "livebench $workload smoke failed: $last" >&2
            exit 1
            ;;
    esac
done

# one-page performance picture across every benchmark artifact
./scripts/bench_summary.sh
