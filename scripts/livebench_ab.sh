#!/usr/bin/env bash
# A/B the live benchmark: build livebench at a parent revision and at the
# working tree, run alternating parent/change pairs of each workload, and
# print, per workload and end-to-end metric, each side's median [Q1, Q3],
# the change/parent ratio, the pairs the change wins, and whether the
# median gap beats the parent's spread; then each side's median attempted
# units and median peak_rss_mb per 1000 attempted units, with ratios. A gain counts only with at least
# 9/10 wins and a gap in the better direction wider than the parent's
# Q3 - Q1: a smaller gap is within what the parent alone varies by.
#
# Usage: scripts/livebench_ab.sh PARENT_REV [--pairs N] [--seeds "S1 S2 ..."]
#            [--dir DIR]
#
# The workloads, the run length and the metrics are BENCHMARK.json's
# (`workloads`, `run_seconds`, `end_to_end`). Defaults: 10 pairs, seed 1,
# and target/livebench-ab as the scratch directory. Pair i runs both
# sides on the i-th seed of --seeds (cycling), runs every workload in
# turn, and alternates which side goes first. The working-tree side is
# `git stash create` (tracked files, staged or not; `git add` new files
# first), or HEAD when the tree is clean. Each side is extracted with
# `git archive` under DIR, built there into its own target directory,
# and run from its own root, so this checkout's livebench/ (Cargo.lock
# included) is never written. Every run's result line is kept in
# DIR/runs.jsonl.
#
# Exits 1 if any run is not "correct": true, 2 on bad usage.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

usage() {
    echo "usage: scripts/livebench_ab.sh PARENT_REV [--pairs N]" \
        "[--seeds \"S1 S2 ...\"] [--dir DIR]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
parent_rev=$1
shift
pairs=10
seeds="1"
dir=target/livebench-ab
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
    --pairs) pairs=$2 ;;
    --seeds) seeds=$2 ;;
    --dir) dir=$2 ;;
    *) usage ;;
    esac
    shift 2
done
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
read -r -a seed_list <<<"$seeds"
[ ${#seed_list[@]} -gt 0 ] || usage
# run length, then workload names
read -r -a bench <<<"$(python3 -c 'import json, sys
b = json.load(open(sys.argv[1]))
print(b["run_seconds"], *(w["name"] for w in b["workloads"]))' BENCHMARK.json)"
seconds=${bench[0]}
workload_list=("${bench[@]:1}")

parent=$(git rev-parse --verify --quiet "$parent_rev^{commit}") || {
    echo "livebench_ab: unknown revision '$parent_rev'" >&2
    exit 2
}
change=$(git stash create)
change=${change:-$(git rev-parse HEAD)}
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)

# extract and build one side; prints the built binary's path
build() {
    local side=$1 rev=$2
    rm -rf "${dir:?}/$side"
    mkdir -p "$dir/$side"
    git archive "$rev" | tar -x -C "$dir/$side"
    echo "livebench_ab: building $side ($rev)" >&2
    CARGO_TARGET_DIR="$dir/$side-target" cargo build --release --offline --quiet \
        --manifest-path "$dir/$side/livebench/Cargo.toml" >&2
    echo "$dir/$side-target/release/livebench"
}
bin_parent=$(build parent "$parent")
bin_change=$(build change "$change")

runs=$dir/runs.jsonl
: >"$runs"
run() {
    local side=$1 pair=$2 workload=$3 seed=$4 bin out result
    bin=bin_$side
    echo "livebench_ab: pair $pair $workload seed $seed: $side" >&2
    # a run that fails records a null result, which counts as incorrect
    out=$(cd "$dir/$side" && "${!bin}" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0) || true
    result=$(tail -n 1 <<<"$out")
    [[ $result == \{* ]] || result=null
    printf '{"pair": %d, "side": "%s", "workload": "%s", "seed": %s, "result": %s}\n' \
        "$pair" "$side" "$workload" "$seed" "$result" >>"$runs"
}
for ((i = 0; i < pairs; i++)); do
    seed=${seed_list[i % ${#seed_list[@]}]}
    for workload in "${workload_list[@]}"; do
        if ((i % 2 == 0)); then
            run parent "$i" "$workload" "$seed"
            run change "$i" "$workload" "$seed"
        else
            run change "$i" "$workload" "$seed"
            run parent "$i" "$workload" "$seed"
        fi
    done
done

python3 - "$runs" "$root/BENCHMARK.json" "$parent" "$change" <<'EOF'
import json, statistics, sys

runs_path, bench_path, parent, change = sys.argv[1:]
metrics = json.load(open(bench_path))['end_to_end']
runs = [json.loads(line) for line in open(runs_path)]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method='inclusive')
    return q1, med, q3

bad = [r for r in runs if not (r['result'] or {}).get('correct')]
print(f"parent {parent[:12]} vs change {change[:12]}: {len(runs)} runs, "
      f"{len(bad)} not correct")
for workload in dict.fromkeys(r['workload'] for r in runs):
    by = {side: {r['pair']: r['result'] for r in runs
                 if r['workload'] == workload and r['side'] == side and r['result']}
          for side in ('parent', 'change')}
    pairs = sorted(set(by['parent']) & set(by['change']))
    if not pairs:
        continue
    attempted = {s: sum(res['attempted'] for res in by[s].values()) for s in by}
    failed = {s: sum(res['failed'] for res in by[s].values()) for s in by}
    print(f"\n{workload}: {len(pairs)} pairs; attempted parent {attempted['parent']}, "
          f"change {attempted['change']}; failed parent {failed['parent']}, "
          f"change {failed['change']}")
    print(f"  {'metric':<16} {'parent median [Q1, Q3]':>34} {'change median [Q1, Q3]':>34} "
          f"{'ratio':>7} {'wins':>6}  gap > parent IQR")
    for m in metrics:
        name, lower = m['name'], m['better'] == 'lower'
        p = [by['parent'][i]['metrics'][name]['value'] for i in pairs]
        c = [by['change'][i]['metrics'][name]['value'] for i in pairs]
        pq1, pm, pq3 = quartiles(p)
        cq1, cm, cq3 = quartiles(c)
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        gap = (pm - cm) if lower else (cm - pm)
        beats = 'yes' if gap > pq3 - pq1 else 'no'
        ratio = cm / pm if pm else float('nan')
        fmt = lambda med, q1, q3: f"{med:.5g} [{q1:.5g}, {q3:.5g}]"
        print(f"  {name:<16} {fmt(pm, pq1, pq3):>34} {fmt(cm, cq1, cq3):>34} "
              f"{ratio:>7.3f} {wins:>3}/{len(pairs):<2}  {beats}")
    # the harness keeps every result, so peak RSS grows with the units a
    # run attempts: per 1000 of them, an RSS change that only follows the
    # units reads apart from one the change causes
    units = {s: statistics.median(by[s][i]['attempted'] for i in pairs) for s in by}
    per_k = {s: statistics.median(by[s][i]['metrics']['peak_rss_mb']['value'] * 1000
                                  / by[s][i]['attempted'] for i in pairs) for s in by}
    for label, v, f in (('attempted units', units, '.0f'),
                        ('peak_rss_mb per 1000 attempted', per_k, '.4g')):
        ratio = v['change'] / v['parent'] if v['parent'] else float('nan')
        print(f"  {label}: median parent {v['parent']:{f}}, change {v['change']:{f}}, "
              f"ratio {ratio:.3f}")
print(f"\nruns: {runs_path}")
sys.exit(1 if bad else 0)
EOF
