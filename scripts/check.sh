#!/usr/bin/env bash
# The full pre-merge gate: formatting, lints, release build, all tests.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== durable writes: one commit path =="
# Every file the engine writes goes through `commit.rs` (tmp file, footer,
# fsync, rename, read-back); the one other write is the journal's
# append-only `journal.log`. Non-test code only, cut as for the line
# counts below.
stray_writes=$(find crates/mapred/src -name '*.rs' ! -name commit.rs -exec awk '
    function check(stmt) {
        if (FILENAME !~ /\/journal\.rs$/ || stmt !~ /\.append\(true\)/ ||
            stmt !~ /"journal\.log"/ || stmt ~ /\.write\(true\)|\.truncate\(/)
            print where
    }
    FNR == 1 { test = 0; open_stmt = "" }
    /^#\[cfg\(test\)\]/ { test = 1 }
    test { next }
    open_stmt != "" { open_stmt = open_stmt $0; if (/;/) { check(open_stmt); open_stmt = "" }; next }
    /OpenOptions::new|File::options/ {
        where = FILENAME ":" FNR ": " $0
        open_stmt = $0; if (/;/) { check(open_stmt); open_stmt = "" }; next
    }
    /File::create|fs::write|fs::copy/ { print FILENAME ":" FNR ": " $0 }' {} +)
if [ -n "$stray_writes" ]; then
    echo "files written outside commit.rs:" >&2
    echo "$stray_writes" >&2
    exit 1
fi

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: release build + tests =="
cargo build --release
# The tier-1 floor: no PR may pass fewer tests than its parent. A PR that
# adds tests raises TIER1_FLOOR to its own count; one that deletes tests
# names them in CHANGES.md, and its count must still reach the floor.
TIER1_FLOOR=804
tier1_log=$(mktemp)
# --no-fail-fast: one red target must not hide the targets after it.
cargo test -q --no-fail-fast 2>&1 | tee "$tier1_log"
tier1_passed=$(awk '/^test result: / && $5 == "passed;" { n += $4 } END { print n + 0 }' \
    "$tier1_log")
rm -f "$tier1_log"
echo "tier-1 tests passed: $tier1_passed (floor $TIER1_FLOOR)"
if [ "$tier1_passed" -lt "$TIER1_FLOOR" ]; then
    echo "tier-1 passed count $tier1_passed is below the floor $TIER1_FLOOR" >&2
    exit 1
fi
# The number the next simplicity PR has to beat.
echo "non-blank lines in crates/{mapred,core,cli}/src: $(
    find crates/{mapred,core,cli}/src -name '*.rs' -exec cat {} + | grep -c '[^[:space:]]')"
# The same without tests: each file up to its first column-0 `#[cfg(test)]`,
# and not the test-only splits module.
nontest_lines=$(
    find crates/{mapred,core,cli}/src -name '*.rs' ! -path crates/core/src/test_splits.rs \
        -exec awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 }
            !test && /[^[:space:]]/ { n++ } END { print n }' {} + |
        awk '{ total += $1 } END { print total }')
# The line ceiling, the twin of the tier-1 floor: no PR may grow the
# non-test count past it. A PR that adds code raises LINES_CEILING in the
# same diff and says why in CHANGES.md; one that deletes code lowers it.
LINES_CEILING=11068
echo "non-blank non-test lines in crates/{mapred,core,cli}/src: $nontest_lines (ceiling $LINES_CEILING)"
if [ "$nontest_lines" -gt "$LINES_CEILING" ]; then
    echo "non-test line count $nontest_lines is above the ceiling $LINES_CEILING" >&2
    exit 1
fi
echo "non-blank lines in crates/telemetry/src: $(
    find crates/telemetry/src -name '*.rs' -exec cat {} + | grep -c '[^[:space:]]')"
# Which lane kernel the k-means numbers below were taken on (chosen from
# this CPU at run time; it changes times, never output).
echo "k-means $(./target/release/gepeto kmeans --users 2 --scale 0.002 --k 2 --max-iter 1 \
    --summary 2>&1 >/dev/null | grep '^kernel: ')"

echo "== chaos smoke: fault-injection suite =="
cargo test -q --test chaos

echo "== bench smoke: regression harness =="
# Tiny-scale run of all four workloads; the emitted JSON must validate
# against the bench schema and self-compare with zero regressions.
GEPETO_SCALE=0.002 ./target/release/gepeto-bench run \
    --users 4 --k 3 --max-iter 2 --out-dir target/bench-smoke
./target/release/gepeto-bench validate \
    target/bench-smoke/BENCH_sampling.json \
    target/bench-smoke/BENCH_kmeans.json \
    target/bench-smoke/BENCH_djcluster.json \
    target/bench-smoke/BENCH_synth.json
for w in sampling kmeans djcluster synth; do
    ./target/release/gepeto-bench compare \
        "target/bench-smoke/BENCH_$w.json" "target/bench-smoke/BENCH_$w.json"
done

echo "== perf-diff smoke: a run diffed against itself is clean =="
# The root-cause engine must not invent causes out of identical runs;
# on a real regression the compare gate appends its ranked report.
./target/release/gepeto-bench diff \
    target/bench-smoke/BENCH_kmeans.json target/bench-smoke/BENCH_kmeans.json \
    | grep -q 'no significant delta'

echo "== bench perf-gate: compare against committed baselines =="
# Counters and shuffle bytes are counted, so they drift only when the
# output or the work changes. The virtual times (makespan, phase times,
# critical path) are not: the simulator charges each task its host time
# × 15 plus per-record constants, so they move with the host, and the
# 30 % threshold is what absorbs that. Host metrics (wall_ms, task p95s)
# are ignored outright.
for w in sampling kmeans djcluster synth; do
    ./target/release/gepeto-bench compare \
        "crates/bench/baselines/BENCH_$w.json" "target/bench-smoke/BENCH_$w.json" \
        --threshold 30 --ignore wall_ms,task
done

echo "== pool smoke: thread-count invariance + pool telemetry =="
# The same durable run at --threads 1 (the fully inline sequential
# reference) and --threads 2 (work-stealing pool) must commit
# byte-identical OUTPUT artifacts, and the pooled run's exposition must
# carry the gepeto_pool_* families.
rm -rf target/bench-smoke/pool-t1 target/bench-smoke/pool-t2
POOL_FLAGS=(kmeans --users 6 --scale 0.004 --k 3 --max-iter 4)
./target/release/gepeto "${POOL_FLAGS[@]}" --threads 1 \
    --run-dir target/bench-smoke/pool-t1
./target/release/gepeto "${POOL_FLAGS[@]}" --threads 2 \
    --run-dir target/bench-smoke/pool-t2 \
    --prom-out target/bench-smoke/pool.prom
cmp target/bench-smoke/pool-t1/OUTPUT target/bench-smoke/pool-t2/OUTPUT
./target/release/gepeto-bench validate-prom target/bench-smoke/pool.prom
grep -q '^gepeto_pool_threads 2' target/bench-smoke/pool.prom
grep -q '^gepeto_pool_tasks_total [1-9]' target/bench-smoke/pool.prom
grep -q '^gepeto_pool_steals_total [0-9]' target/bench-smoke/pool.prom
# DJ-Cluster's one-chunk jobs run as input splits on the pool: the same
# result lines and cluster-job shuffle bytes at --threads 1 and 2, and at
# 2 the dj-cluster job's map task (task.map under phase.map under its
# job span) of several ranges, so a split that silently stopped
# happening fails here.
DJ_FLAGS=(djcluster --users 40 --scale 0.2 --mr-rtree true)
DJ_RESULTS='/^(DJ-Cluster|preprocessing):/p; s/^(cluster job:).*\| (shuffle [0-9]+ B)$/\1 \2/p'
./target/release/gepeto "${DJ_FLAGS[@]}" --threads 1 \
    | sed -nE "$DJ_RESULTS" > target/bench-smoke/dj-t1.txt
./target/release/gepeto "${DJ_FLAGS[@]}" --threads 2 \
    --metrics-out target/bench-smoke/dj-t2.jsonl \
    | sed -nE "$DJ_RESULTS" > target/bench-smoke/dj-t2.txt
grep -q '^cluster job: shuffle [0-9]* B$' target/bench-smoke/dj-t1.txt
cmp target/bench-smoke/dj-t1.txt target/bench-smoke/dj-t2.txt
span_of() { grep -m1 "$1" target/bench-smoke/dj-t2.jsonl | grep -o '"span":[0-9]*' | cut -d: -f2; }
dj_job=$(span_of '"kind":"span_start","name":"job",.*"job":"dj-cluster"')
dj_map=$(span_of "\"kind\":\"span_start\",\"name\":\"phase.map\",\"span\":[0-9]*,\"parent\":$dj_job,")
split_tasks=$(grep "\"kind\":\"span_start\",\"name\":\"task.map\",\"span\":[0-9]*,\"parent\":$dj_map," \
    target/bench-smoke/dj-t2.jsonl | grep -cv '"ranges":"1"' || true)
test "$split_tasks" -gt 0
# A by-user job splits every chunk at user switches, however many chunks
# it has: the same OUTPUT at --threads 1 and 2 from a sixteen-chunk
# regroup, and at 2 a map task of several ranges.
rm -rf target/bench-smoke/synth-t1 target/bench-smoke/synth-t2
SYNTH_FLAGS=(synth --users 20000 --chunk-mb 1)
./target/release/gepeto "${SYNTH_FLAGS[@]}" --threads 1 \
    --run-dir target/bench-smoke/synth-t1
./target/release/gepeto "${SYNTH_FLAGS[@]}" --threads 2 \
    --run-dir target/bench-smoke/synth-t2 \
    --metrics-out target/bench-smoke/synth-t2.jsonl
cmp target/bench-smoke/synth-t1/OUTPUT target/bench-smoke/synth-t2/OUTPUT
split_tasks=$(grep '"kind":"span_start","name":"task.map"' target/bench-smoke/synth-t2.jsonl \
    | grep -cv '"ranges":"1"' || true)
test "$split_tasks" -gt 0
# Buckets in key order are the reduce columns: a non-durable by-user
# run's reduce phase allocates under a quarter of the bytes it shuffles
# (copying its partitions into new columns allocated over half).
./target/release/gepeto "${SYNTH_FLAGS[@]}" --threads 2 \
    --metrics-out target/bench-smoke/synth-mem.jsonl > target/bench-smoke/synth-mem.txt
shuffled=$(sed -nE 's/^job: .*\| shuffle ([0-9]+) B$/\1/p' target/bench-smoke/synth-mem.txt)
reduce_allocated=$(grep '"kind":"span_end","name":"phase.reduce"' target/bench-smoke/synth-mem.jsonl \
    | sed -nE 's/.*"mem\.allocated":"([0-9]+)".*/\1/p')
echo "by-user reduce phase: allocated $reduce_allocated B for $shuffled B shuffled"
test "$reduce_allocated" -lt $((shuffled / 4))
# Out-of-order buckets are reduced where they lie: verbatim k-means (one
# pair per trace, every bucket out of key order) sorts only its run
# descriptors and hands each reducer its cluster's runs in place, so its
# reduce phase allocates a small fraction of the bytes it shuffles. The
# shuffled bytes are one 32-byte (key, value) pair per record; a phase
# that gathers the values into a column of their own (0.75 x the
# shuffled bytes) or expands the buckets into pairs (2.75 x) fails this.
./target/release/gepeto kmeans --users 20 --scale 0.05 --k 11 --max-iter 2 --delta 0 \
    --combiner false --threads 2 --metrics-out target/bench-smoke/km-mem.jsonl \
    > target/bench-smoke/km-mem.txt
shuffled=$(sed -nE 's/^last iteration: .*\| shuffle ([0-9]+) B$/\1/p' target/bench-smoke/km-mem.txt)
reduce_allocated=$(grep '"kind":"span_end","name":"phase.reduce"' target/bench-smoke/km-mem.jsonl \
    | sed -nE 's/.*"mem\.allocated":"([0-9]+)".*/\1/p' | tail -1)
echo "verbatim k-means reduce phase: allocated $reduce_allocated B for $shuffled B shuffled"
test "$reduce_allocated" -lt $((shuffled / 20))

echo "== kernel bench smoke: every micro-bench body runs once =="
# Smoke mode (no --bench flag): each benchmark body executes exactly
# once, so the SoA/pool/grouping/codec kernels stay compile-and-run
# clean without burning bench minutes.
cargo test -q -p gepeto-bench --benches

echo "== host-benchmark smoke: the BENCHMARK.json harness builds, runs, self-checks =="
# Every workload of benchmark/ at ~1/100 size, traced and untraced, each
# repetition held to its sequential oracle; then the harness's own tests
# (metric table, workload list and run length pinned to BENCHMARK.json).
benchmark/run.sh smoke
(cd benchmark && cargo test --release --offline)
# The harness is frozen; cargo silently rewrites the tracked
# benchmark/Cargo.lock when a crates/* dependency edge changes.
git diff --exit-code -- benchmark BENCHMARK.json

echo "== spill smoke: out-of-core shuffle under a starvation budget =="
# A synthetic workload forced through the spill/merge path; the
# exposition must prove the engine actually went out of core.
./target/release/gepeto synth --users 500 --chunk-mb 1 --memory-budget 1k \
    --prom-out target/bench-smoke/synth.prom --summary
./target/release/gepeto-bench validate-prom target/bench-smoke/synth.prom
grep -q '^gepeto_shuffle_spill_files_total [1-9]' target/bench-smoke/synth.prom
grep -q '^gepeto_shuffle_spilled_bytes_total [1-9]' target/bench-smoke/synth.prom

echo "== mem-gate: memory observability + regression gating =="
# The v2 bench artifacts must carry the mem block end to end.
grep -q '"mem"' target/bench-smoke/BENCH_synth.json
grep -q '"accounted_peak"' target/bench-smoke/BENCH_synth.json
# The tracking allocator's gauges flow into the Prometheus exposition
# of the budgeted spill run above.
grep -q '^gepeto_mem_peak_bytes [1-9]' target/bench-smoke/synth.prom
grep -q '^gepeto_mem_live_bytes [0-9]' target/bench-smoke/synth.prom
grep -q '^gepeto_mem_allocated_bytes_total [1-9]' target/bench-smoke/synth.prom
# The summary prints budget-vs-actual accounting and the spill
# estimator's cumulative error.
./target/release/gepeto synth --users 200 --chunk-mb 1 --memory-budget 4k \
    --summary 2> target/bench-smoke/memgate.summary
# The DFS ingest is a phase of its own in the summary's phase table.
grep -q '^ingest' target/bench-smoke/memgate.summary
grep -q 'memory: budget' target/bench-smoke/memgate.summary
grep -q 'heap: peak' target/bench-smoke/memgate.summary
# An injected memory regression (10x heap peak) must fail the compare
# gate even though every time metric is identical.
sed 's/"peak_bytes": \([0-9][0-9]*\)/"peak_bytes": \19/' \
    target/bench-smoke/BENCH_synth.json > target/bench-smoke/BENCH_synth_bloat.json
if ./target/release/gepeto-bench compare \
    target/bench-smoke/BENCH_synth.json target/bench-smoke/BENCH_synth_bloat.json \
    --threshold 30 > /dev/null; then
    echo "mem-gate: inflated heap peak was not flagged" >&2
    exit 1
fi

echo "== io-chaos smoke: storage faults repaired, counters exported =="
# A spilling run under a storage-fault soup must still succeed, and the
# repairs must show up in the Prometheus durability families.
./target/release/gepeto synth --users 200 --chunk-mb 1 --memory-budget 1 \
    --io-faults eio=0.3,torn=0.4,bitrot=0.2,seed=11 \
    --prom-out target/bench-smoke/iochaos.prom --summary
./target/release/gepeto-bench validate-prom target/bench-smoke/iochaos.prom
grep -q '^gepeto_io_retries_total [0-9]' target/bench-smoke/iochaos.prom
grep -q '^gepeto_io_torn_writes_detected_total [0-9]' target/bench-smoke/iochaos.prom
grep -q '^gepeto_spill_runs_quarantined_total [0-9]' target/bench-smoke/iochaos.prom
# Faults are drawn per job and file name, never per process: a second
# process with the same seed repairs the same faults.
./target/release/gepeto synth --users 200 --chunk-mb 1 --memory-budget 1 \
    --io-faults eio=0.3,torn=0.4,bitrot=0.2,seed=11 \
    --prom-out target/bench-smoke/iochaos-again.prom > /dev/null
for prom in iochaos iochaos-again; do
    grep -E '^gepeto_(io_retries|io_torn_writes_detected|spill_runs_quarantined)_total ' \
        "target/bench-smoke/$prom.prom" > "target/bench-smoke/$prom.faults"
done
cmp target/bench-smoke/iochaos.faults target/bench-smoke/iochaos-again.faults

echo "== resume smoke: SIGKILL a durable run mid-flight, resume, diff =="
# Two identical durable k-means runs; one is killed mid-shuffle and
# resumed from its journal. Both OUTPUT artifacts must be byte-equal,
# and the resumed run's exposition must carry the journal families.
RESUME_A=target/bench-smoke/run-clean
RESUME_B=target/bench-smoke/run-killed
rm -rf "$RESUME_A" "$RESUME_B"
KM_FLAGS=(--users 40 --scale 0.01 --k 5 --max-iter 40 --delta 0 --memory-budget 1
    --combiner false) # one pair per trace: a shuffle long enough to kill into
./target/release/gepeto kmeans "${KM_FLAGS[@]}" --run-dir "$RESUME_A"
./target/release/gepeto kmeans "${KM_FLAGS[@]}" --run-dir "$RESUME_B" \
    --trace-out "$RESUME_B/trace.json" &
VICTIM=$!
# Kill once the journal shows committed progress (two sealed iterations).
for _ in $(seq 1 3000); do
    CHECKPOINTS=$(grep -c ' checkpoint ' "$RESUME_B/journal.log" 2>/dev/null || true)
    if [ "${CHECKPOINTS:-0}" -ge 2 ]; then
        break
    fi
    sleep 0.01
done
kill -9 "$VICTIM" 2>/dev/null || true
wait "$VICTIM" 2>/dev/null || true
test ! -f "$RESUME_B/OUTPUT" # the kill landed before completion
./target/release/gepeto resume "$RESUME_B" \
    --prom-out target/bench-smoke/resume.prom
cmp "$RESUME_A/OUTPUT" "$RESUME_B/OUTPUT"
./target/release/gepeto resume "$RESUME_B" | grep -q 'already complete'
./target/release/gepeto-bench validate-prom target/bench-smoke/resume.prom
# Whether the in-flight iteration had committed partitions at kill time
# is a race, so assert the family is exported, not a specific count.
grep -q '^gepeto_journal_replayed_tasks_total [0-9]' target/bench-smoke/resume.prom
# The resumed run re-exports ONE stitched Perfetto trace: structurally
# valid, with the resumed attempt on its own lane next to the pre-kill
# attempt's work.
./target/release/gepeto-bench validate-trace "$RESUME_B/trace.json"
grep -q 'attempt 1' "$RESUME_B/trace.json"

echo "== artifact smoke: spilled and in-memory runs commit the same partitions =="
# Verbatim k-means (one pair per trace) with several clusters per reduce
# partition, durable in memory and under a 1-byte budget: every committed
# reduce artifact must be byte-equal, not just OUTPUT.
PARTS_MEM=target/bench-smoke/parts-mem
PARTS_SPILL=target/bench-smoke/parts-spill
rm -rf "$PARTS_MEM" "$PARTS_SPILL"
KM_FLAGS=(--users 20 --scale 0.05 --k 11 --max-iter 2 --delta 0 --combiner false --threads 2)
./target/release/gepeto kmeans "${KM_FLAGS[@]}" --run-dir "$PARTS_MEM" > /dev/null
./target/release/gepeto kmeans "${KM_FLAGS[@]}" --run-dir "$PARTS_SPILL" --memory-budget 1 \
    > /dev/null
PARTS=("$PARTS_MEM"/partitions/*.part)
test "${#PARTS[@]}" -eq "$(ls "$PARTS_SPILL"/partitions/*.part | wc -l)"
for part in "${PARTS[@]}"; do
    cmp "$part" "$PARTS_SPILL/partitions/$(basename "$part")"
done

echo "== live monitoring smoke: watch + exposition + flamegraph + trace =="
# A chaos k-means under the heartbeat reporter must leave a well-formed
# Prometheus exposition, folded flamegraph stacks, and a structurally
# valid Chrome/Perfetto trace behind.
./target/release/gepeto kmeans --users 2 --scale 0.002 --k 2 --max-iter 2 \
    --crash 1@40 --watch=0.2 \
    --prom-out target/bench-smoke/kmeans.prom \
    --folded-out target/bench-smoke/kmeans.folded \
    --trace-out target/bench-smoke/kmeans.trace.json
./target/release/gepeto-bench validate-prom target/bench-smoke/kmeans.prom
./target/release/gepeto-bench validate-trace target/bench-smoke/kmeans.trace.json
test -s target/bench-smoke/kmeans.folded
test -s target/bench-smoke/kmeans.folded.virtual
test -s target/bench-smoke/kmeans.folded.alloc

echo "All checks passed."
