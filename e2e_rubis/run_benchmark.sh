#!/usr/bin/env bash
# The one command: release build, then one process per workload and pass
# (untraced for the end-to-end metrics, traced for the per-layer metrics and
# the budget table), every correctness check, and a summary with the derived
# ratios (cache_speedup, trace.overhead_frac) written as
# BENCH_e2e_rubis_<unix-time>.json.
#
#   e2e_rubis/run_benchmark.sh [--seed N] [--out DIR]
#
# Windows are fixed request counts, so hit rate, queries per transaction and
# WAL bytes repeat exactly for a seed and only wall-clock numbers vary (the
# BENCHMARK.json command calls the binary with --seconds instead). Exits
# non-zero if any check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
seed=42
out=""
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        *) echo "usage: $0 [--seed N] [--out DIR]" >&2; exit 2 ;;
    esac
done
[ -n "$out" ] || out="$target/bench/run_$(date +%s)"

cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="$target/release/e2e_rubis"
E2E_RUBIS_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
export E2E_RUBIS_COMMIT

# workload:requests — each window is about 15 s on the reference host.
plan="rubis_bidding:60000 rubis_browse_hot:110000 rubis_write_heavy:36000 rubis_nocache:150000"
status=0
for entry in $plan; do
    workload="${entry%%:*}"
    requests="${entry##*:}"
    for trace in 0 1; do
        # The last line is the machine-readable result; the table is for people.
        "$bin" --workload "$workload" --seed "$seed" --trace "$trace" --requests "$requests" --out "$out" \
            | sed '$d' || status=1
    done
done
"$bin" --summarize "$out" || status=1
exit "$status"
