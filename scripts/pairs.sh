#!/usr/bin/env bash
# Alternated parent/change pairs of the host benchmark — the loop every
# perf PR has to run before it may claim a gain (ROADMAP, "Host time is
# the yardstick").
#
#   scripts/pairs.sh PARENT_REF [--pairs N] [--seconds S] [--workloads W,W,…] [--seed S]
#
# PARENT_REF is exported (`git archive`) into target/pairs/parent; both
# harnesses are built once, each into its own target directory; then pair
# i = 1..N runs every workload on both trees with seed SEED+i — parent
# first in odd pairs, change first in even ones, workloads interleaved —
# through each tree's own `benchmark/run.sh run`. Result files land in
# target/pairs/results/{parent,change}/; the script ends with a per-pair
# table, a verdict table and `benchmark/run.sh agree --a parent --b
# change` (which *fails* a pair of sets whose medians differ by more than
# the metric's bound: for the workload a PR speeds up that is the point,
# not an error).
#
# The verdict table has one row per workload and end-to-end metric of
# BENCHMARK.json: the median of the per-pair change/parent ratios, pairs
# won / lost / tied by the change (ties count for neither), both sides'
# medians, the parent's inter-quartile distance over its runs, and the
# rule a gain is claimed by — the change wins at least nine tenths of the
# pairs and the medians differ by more than that distance.
#
# Defaults: 10 pairs, BENCHMARK.json's run length, its gated workloads,
# seed base 9100. Everything is written under target/pairs/; `benchmark/`
# is read, never written (its spill directory aside, which the harness
# creates and removes itself).
set -euo pipefail
cd "$(dirname "$0")/.."

usage() { sed -n '2,28p' "$0" | sed 's/^# \{0,1\}//'; }

case "${1:-}" in
    "" | -h | --help | help) usage; exit 0 ;;
esac
parent_ref=$1
shift
pairs=10
seconds=
seed_base=9100
workloads=$(sed -n '/"workloads"/,/^  \]/p' BENCHMARK.json | grep -o '"name": "[^"]*"' | cut -d'"' -f4 | paste -sd, -)
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs=$2 ;;
        --seconds) seconds=$2 ;;
        --workloads) workloads=$2 ;;
        --seed) seed_base=$2 ;;
        *) echo "pairs.sh: unknown option '$1'" >&2; usage >&2; exit 2 ;;
    esac
    shift 2
done

root=$PWD/target/pairs
parent_commit=$(git rev-parse --short "$parent_ref^{commit}")
rm -rf "$root/parent" "$root/results"
mkdir -p "$root/parent" "$root/results/parent" "$root/results/change"
git archive "$parent_ref" | tar -x -C "$root/parent"

# run_side SIDE ARGS…: that tree's `benchmark/run.sh` with its own target
# directory. The parent tree sits inside this repository, so git is kept
# from walking up into it and labelling the parent's runs with HEAD.
run_side() {
    local side=$1 tree=$PWD
    shift
    [ "$side" = parent ] && tree=$root/parent
    (cd "$tree" && GIT_CEILING_DIRECTORIES=$root \
        CARGO_TARGET_DIR=$root/build-$side bash benchmark/run.sh "$@")
}

echo "== building both harnesses (parent = $parent_commit) ==" >&2
for side in parent change; do # a smoke repetition: builds, and shows the tree runs
    run_side "$side" run --workload "${workloads%%,*}" --tier smoke > /dev/null
done

for i in $(seq 1 "$pairs"); do
    seed=$((seed_base + i))
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for w in ${workloads//,/ }; do
        for side in $order; do
            echo "== pair $i/$pairs  $w  $side  seed $seed ==" >&2
            run_side "$side" run --workload "$w" --seed "$seed" ${seconds:+--seconds "$seconds"} \
                --out "$root/results/$side/$w-$seed.json" > /dev/null
        done
    done
done

# One value out of a result file: `field FILE METRIC` (the first "value"
# after the metric's name), `digest FILE`.
field() { grep -A1 "\"$2\": {" "$1" | grep -o '"value": [0-9.e-]*' | head -1 | cut -d' ' -f2; }
digest() { grep -o '"digest": "[0-9a-f]*"' "$1" | cut -d'"' -f4; }
failed() { grep -o '"failed": [0-9]*' "$1" | cut -d' ' -f2; }

echo
echo "| workload | seed | first | parent wall_s | change wall_s | wall_s × | cpu_s × | peak_heap_mb × | setup_s × | failed | digest |"
echo "|---|---|---|---|---|---|---|---|---|---|---|"
for w in ${workloads//,/ }; do
    for i in $(seq 1 "$pairs"); do
        seed=$((seed_base + i))
        p=$root/results/parent/$w-$seed.json
        c=$root/results/change/$w-$seed.json
        if [ $((i % 2)) -eq 1 ]; then first=parent; else first=change; fi
        if [ "$(digest "$p")" = "$(digest "$c")" ]; then same="equal"; else same="DIFFER"; fi
        ratio() { awk -v a="$(field "$p" "$1")" -v b="$(field "$c" "$1")" 'BEGIN { printf "%.3f", b / a }'; }
        echo "| $w | $seed | $first | $(field "$p" wall_s) | $(field "$c" wall_s) | $(ratio wall_s) |" \
            "$(ratio cpu_s) | $(ratio peak_heap_mb) | $(ratio setup_s) |" \
            "$(failed "$p") / $(failed "$c") | $same |"
    done
done

# The end-to-end metrics and which way is better, as "name better" lines.
metrics=$(sed -n '/"end_to_end"/,/^  \]/p' BENCHMARK.json | grep -o '"\(name\|better\)": "[^"]*"' |
    cut -d'"' -f4 | paste -d' ' - -)

echo
echo "| workload | metric | change/parent (median of pairs) | won / lost / tied | parent median [q1, q3] | change median | parent IQR | \|Δ median\| > IQR | gain |"
echo "|---|---|---|---|---|---|---|---|---|"
for w in ${workloads//,/ }; do
    while read -r m better; do
        for i in $(seq 1 "$pairs"); do
            seed=$((seed_base + i))
            echo "$(field "$root/results/parent/$w-$seed.json" "$m") $(field "$root/results/change/$w-$seed.json" "$m")"
        done | awk -v w="$w" -v m="$m" -v lower="$([ "$better" = lower ] && echo 1 || echo 0)" '
            # The harness quartile (benchmark/src/stats.rs): position q·(n+1),
            # interpolated, clamped to the sample ends.
            function quantile(a, n, q,   pos, lo, hi, f) {
                pos = q * (n + 1); lo = int(pos); if (lo < 1) lo = 1; if (lo > n) lo = n
                hi = lo + 1 > n ? n : lo + 1; f = pos - lo; f = f < 0 ? 0 : (f > 1 ? 1 : f)
                return a[lo] + f * (a[hi] - a[lo])
            }
            function sort(a, n,   i, j, t) {
                for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
            }
            {
                n++; p[n] = $1; c[n] = $2; r[n] = $2 / $1
                if ($1 == $2) tied++; else if (lower == ($2 < $1)) won++; else lost++
            }
            END {
                sort(p, n); sort(c, n); sort(r, n)
                pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5); iqr = quantile(p, n, 0.75) - quantile(p, n, 0.25)
                delta = cm - pm; beyond = (delta < 0 ? -delta : delta) > iqr
                better = lower ? cm < pm : cm > pm
                printf "| %s | %s | %.3f | %d / %d / %d | %.4g [%.4g, %.4g] | %.4g | %.4g | %s | %s |\n", w, m,
                    quantile(r, n, 0.5), won, lost, tied, pm, quantile(p, n, 0.25), quantile(p, n, 0.75), cm, iqr,
                    beyond ? "yes" : "no", (better && beyond && won >= 0.9 * n) ? "**yes**" : "no"
            }'
    done <<< "$metrics"
done
echo
echo "A = parent ($parent_commit), B = change (working tree):"
run_side change agree --a "$root/results/parent" --b "$root/results/change" || true
