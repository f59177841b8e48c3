#!/usr/bin/env bash
# Does the benchmark agree with itself? Two sets of runs of the same
# code, then `fitbench compare`: every end-to-end median of set B within
# its bound of set A's, no set's spread wider than a bound, every exact
# count identical on the seeds both sets ran.
#
#   benchmark/selfcheck.sh [RUNS_PER_SET]     (default 5; the driver uses 10)
#
# Set A runs seeds 1..N and set B the same seeds again, so the exact
# counts have a partner; the timings come from the median over the set.
# One set costs about RUNS x 4 workloads x (run_seconds + 5) seconds.
set -euo pipefail

bench="$(CDPATH= cd -- "$(dirname -- "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:-5}"
out="$bench/out"

"$bench/run.sh" --build-only
for set in A B; do
    rm -f "$out/selfcheck-$set.json"
done
# Interleave the sets so slow drift of the host lands on both alike.
for seed in $(seq 1 "$runs"); do
    for set in A B; do
        for w in compute-local wide-resilient serve-sweep fleet-shard; do
            "$bench/run.sh" --workload "$w" --seed "$seed" --trace 0 \
                --report "$out/selfcheck-$set.json" >/dev/null
        done
    done
done
bin="${CARGO_TARGET_DIR:-$out/target}/release/fitbench"
cd "$(dirname -- "$bench")"
"$bin" compare "$out/selfcheck-A.json" "$out/selfcheck-B.json"
