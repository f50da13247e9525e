#!/usr/bin/env bash
# Run the benchmark suite's CI subset and collect BENCH_*.json records
# (schema sched91.bench.v2, see bench/bench_util.hh), then optionally
# gate against the committed baseline with tools/bench_compare.
#
# Usage:
#   tools/run_bench.sh [outdir] [build-dir]      run + compare
#   tools/run_bench.sh --update-baseline [build-dir]
#                                                regenerate bench/baseline
#
# The CI subset is the fast, deterministic-metric-rich benches; the
# committed baseline (bench/baseline/) pins their deterministic
# metrics — cycles, arc counts, structural data, decision tallies —
# and every record's counters, and the compare step fails on any
# drift (--gate-drift).  Wall-clock
# metrics are host-dependent, so against the committed baseline they
# are report-only (--no-time-gate); same-machine time gating is
# bench_compare's default mode on two local runs.
set -eu

src=$(cd "$(dirname "$0")/.." && pwd)

update=0
if [ "${1:-}" = "--update-baseline" ]; then
    update=1
    shift
fi
out=${1:-bench-out}
build=${2:-build}

# Fast benches whose records carry deterministic metrics.  The DAG-core
# hot-path benches (micro-dag, table4/table5, figure1) ride along: their
# deterministic work counters (pairwise compares, table probes, alias
# queries, arcs added) pin the builder algorithms byte-for-byte.
targets="bench_table3_structure bench_table1_heuristics bench_winnowing \
bench_machine_ablation bench_reservation bench_global bench_alias_policies \
bench_micro_dag bench_table4_n2 bench_table5_table bench_figure1_transitive"

if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -B "$build" -S "$src" -DCMAKE_BUILD_TYPE=RelWithDebInfo
fi
build=$(cd "$build" && pwd)
# shellcheck disable=SC2086
cmake --build "$build" -j --target $targets bench_compare

if [ "$update" -eq 1 ]; then
    out="$src/bench/baseline"
fi
mkdir -p "$out"
rm -f "$out"/BENCH_*.json

for t in $targets; do
    echo "=== $t ==="
    (cd "$out" && "$build/bench/$t" > /dev/null)
done
echo "records: $(ls "$out"/BENCH_*.json | wc -l) file(s) in $out"

if [ "$update" -eq 1 ]; then
    echo "baseline regenerated in bench/baseline — review and commit"
    exit 0
fi

"$build/tools/bench_compare" "$src/bench/baseline" "$out" \
    --no-time-gate --gate-drift
