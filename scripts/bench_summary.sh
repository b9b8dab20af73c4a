#!/usr/bin/env bash
# Merge every BENCH_*.json in the repo root into one benchmark-trajectory
# table: each benchmark's headline metric and speedup on a single line,
# printed to stdout (CI runs this last so the log ends with the full
# performance picture). Unrecognized schemas are listed, not dropped, so
# a new benchmark shows up here the moment its file lands. A file whose
# "clock" is "modeled" reports simulated time from the cost model, not
# wall-clock; its row is marked so the two are never read as one.
#
# Usage: scripts/bench_summary.sh
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - <<'EOF'
import glob, json

rows = []
modeled = set()
for path in sorted(glob.glob('BENCH_*.json')):
    try:
        d = json.load(open(path))
    except Exception as e:
        rows.append((path, '(unreadable)', str(e), None, None))
        continue
    if d.get('clock') == 'modeled':
        modeled.add(path)
    name = d.get('benchmark', '?')
    if name == 'sched_hot_path':
        rows.append((path, name, 'decisions/s (indexed vs naive)',
                     d['indexed']['decisions_per_sec'], d.get('speedup')))
    elif name == 'sim_event_core':
        rows.append((path, name, 'events/s (dense vs reference)',
                     d['dense']['events_per_sec'], d.get('speedup')))
    elif name == 'lang_vm_invocation':
        rows.append((path, name, 'invocations/s (vm vs tree, stateless)',
                     d['stateless']['vm']['invocations_per_sec'], d.get('speedup')))
    elif name == 'net_reactor_scaling':
        big = max(d['sizes'], key=lambda s: s['connections'])
        rows.append((path, name, f"msgs/s @ {big['connections']} conns",
                     big['msgs_per_sec'], None))
    elif name == 'shard_throughput':
        big = max(d['sweep'], key=lambda s: s['shards'])
        rows.append((path, name, f"units/s @ {big['shards']} shards (vs 1)",
                     big['throughput_per_sec'], big.get('speedup')))
    else:
        rows.append((path, name, '(unrecognized schema)', None, None))

print(f"{'file':<18} {'benchmark':<22} {'headline':<38} {'value':>12} {'speedup':>8}")
for path, name, head, value, sp in rows:
    v = f"{value:,.1f}" if isinstance(value, (int, float)) else '-'
    s = f"{sp:.2f}x" if isinstance(sp, (int, float)) else '-'
    if path in modeled:
        head += ' [modeled]'
    print(f"{path:<18} {name:<22} {head:<38} {v:>12} {s:>8}")
print()
if modeled:
    print('[modeled] = simulated time from the cost model, not wall-clock')
print('speedup baselines are per-benchmark (see each file); '
      'regenerate with: repro perf [--sim|--lang|--net] / repro shard')
EOF
