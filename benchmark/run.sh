#!/usr/bin/env bash
# The benchmark's one command: build fitbench in release, run it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace [0|1]] [--report FILE]
#       every workload, each in its own process (so peak_rss_mb is per
#       workload): the untraced pass, then with --trace the traced pass
#       too. Starts a fresh report (default benchmark/out/result.json).
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1] ...
#       one run of one workload, appended to the report; the last line of
#       standard output is the result object (the driver's form).
#   benchmark/run.sh --build-only
#       build (or find out that nothing needs building) and stop.
#
# Run from anywhere; paths resolve against the repository root. Scratch,
# traces, reports and (unless CARGO_TARGET_DIR says otherwise) the build
# live under benchmark/out/, which git ignores.
set -euo pipefail

bench="$(CDPATH= cd -- "$(dirname -- "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname -- "$bench")"
out="$bench/out"
cd "$root"
mkdir -p "$out"

# CARGO_TARGET_DIR may be relative (the driver sets `.bench_build`):
# relative to the repository root, where every cargo below runs.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$out/target}"
# Path dependencies outside this package's workspace compile with
# absolute source paths, and `file!()` is part of every injection point's
# key: without the remap, journals (and their byte counts) would depend
# on where the checkout sits instead of reading `crates/npb/src/ft.rs`
# as they do for users. Code generation is unaffected.
export RUSTFLAGS="${RUSTFLAGS:-} --remap-path-prefix=$root/="

stub_crates="rand rand_chacha rayon parking_lot crossbeam"

# Build against the real crates when cargo can get them, else against
# tools/offline-stubs through a temporary copy of the manifest, the way
# tools/offline-check.sh does it: the committed Cargo.toml and Cargo.lock
# are never touched. The answer is remembered next to the build.
build() {
    local mode_file="$out/.deps" mode=""
    [ -f "$mode_file" ] && mode="$(cat "$mode_file")"
    if [ "$mode" != "offline-stubs" ]; then
        if CARGO_NET_RETRY=0 CARGO_HTTP_TIMEOUT=10 \
            cargo build --release --manifest-path "$bench/Cargo.toml" >"$out/build.log" 2>&1; then
            echo real >"$mode_file"
            return 0
        fi
        if ! grep -qiE 'download|resolve host|registry|network|offline|index' "$out/build.log"; then
            cat "$out/build.log" >&2
            return 1
        fi
    fi
    local tmp="$out/stub-manifest" c
    mkdir -p "$tmp"
    {
        sed -e 's|path = "\.\./|path = "../../../|' \
            -e 's|path = "src/|path = "../../src/|' "$bench/Cargo.toml"
        printf '\n# appended by benchmark/run.sh: the registry is unreachable\n[patch.crates-io]\n'
        for c in $stub_crates; do
            printf '%s = { path = "../../../tools/offline-stubs/%s" }\n' "$c" "$c"
        done
    } >"$tmp/Cargo.toml.new"
    # Keep the old file (and its mtime) when nothing changed.
    if cmp -s "$tmp/Cargo.toml.new" "$tmp/Cargo.toml"; then
        rm "$tmp/Cargo.toml.new"
    else
        mv "$tmp/Cargo.toml.new" "$tmp/Cargo.toml"
    fi
    if ! CARGO_NET_OFFLINE=true \
        cargo build --release --manifest-path "$tmp/Cargo.toml" >"$out/build.log" 2>&1; then
        cat "$out/build.log" >&2
        return 1
    fi
    echo offline-stubs >"$mode_file"
}

workload="" seed=1 seconds="" trace=0 report="" build_only=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --report) report="$2"; shift 2 ;;
        --build-only) build_only=1; shift ;;
        --trace)
            # `--trace` alone means 1; the driver passes `--trace 0|1`.
            if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
if [ -z "$seconds" ]; then
    # run_seconds of BENCHMARK.json, without needing a JSON parser.
    seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$root/BENCHMARK.json" | head -n 1)"
fi
[ -n "$report" ] || report="$out/result.json"

build
[ "$build_only" = 1 ] && exit 0
bin="$CARGO_TARGET_DIR/release/fitbench"
deps="$(cat "$out/.deps")"
common=(--seed "$seed" --seconds "$seconds" --out "$out" --report "$report" --deps "$deps")

if [ -n "$workload" ]; then
    exec "$bin" run --workload "$workload" --trace "$trace" "${common[@]}"
fi

"$bin" check-manifest "$root/BENCHMARK.json"
rm -f "$report"
status=0
for w in compute-local wide-resilient serve-sweep fleet-shard; do
    "$bin" run --workload "$w" --trace 0 "${common[@]}" || status=1
    if [ "$trace" = 1 ]; then
        "$bin" run --workload "$w" --trace 1 "${common[@]}" || status=1
    fi
done
echo "report: $report"
exit "$status"
