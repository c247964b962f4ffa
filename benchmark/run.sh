#!/usr/bin/env bash
# Entry point of the host-time benchmark. Builds the harness offline and
# runs it from the repository root.
#
#   benchmark/run.sh run   --workload W [--seed S] [--seconds N] [--trace 0|1] [--out FILE]
#   benchmark/run.sh trace --workload W [--seed S] [--seconds N] [--out FILE]
#   benchmark/run.sh agree --a SET --b SET
#   benchmark/run.sh smoke
#   benchmark/run.sh --help
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '2,9p' "$0" | sed 's/^# \{0,1\}//'
    echo
    echo "smoke runs all four workloads at ~1/100 size, traced and untraced, and"
    echo "checks that regroup-spill and regroup-mem print the same digest."
    echo "Result files default to benchmark/out/."
}

case "${1:-}" in
    "" | -h | --help | help) usage; exit 0 ;;
esac
mode=$1
shift

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/gepeto-benchmark"
GEPETO_BENCH_RUSTC=$(rustc --version 2>/dev/null || echo unknown)
GEPETO_BENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export GEPETO_BENCH_RUSTC GEPETO_BENCH_COMMIT

case "$mode" in
    run) exec "$bin" run "$@" ;;
    trace) exec "$bin" run --trace 1 "$@" ;;
    agree) exec "$bin" agree "$@" ;;
    smoke)
        mkdir -p benchmark/out
        for w in regroup-spill regroup-mem kmeans-lloyd djcluster-poi; do
            for t in 0 1; do
                "$bin" run --workload "$w" --tier smoke --trace "$t" "$@" \
                    --out "benchmark/out/smoke-$w-$t.json" | grep -v '^{'
            done
        done
        spill=$(grep '"digest"' benchmark/out/smoke-regroup-spill-0.json)
        mem=$(grep '"digest"' benchmark/out/smoke-regroup-mem-0.json)
        if [ "$spill" != "$mem" ]; then
            echo "smoke: regroup-spill and regroup-mem digests differ: $spill vs $mem" >&2
            exit 1
        fi
        echo "smoke: ok, regroup digests agree ($spill )"
        ;;
    *)
        echo "run.sh: unknown mode '$mode'" >&2
        usage >&2
        exit 2
        ;;
esac
