//! Engine benchmarks: the MapReduce substrate itself — chunk-size
//! scaling of map-only jobs, shuffle-heavy jobs, DFS ingestion,
//! failure-injection overhead, how `map_records` sizes a block's output,
//! and how a map task partitions it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gepeto_mapred::hash::default_partition;
use gepeto_mapred::{
    map_records, ChaosPlan, Cluster, Dfs, Emitter, FnMapper, KeyRuns, MapOnlyJob, MapReduceJob,
    Mapper, Reducer,
};
use std::hint::black_box;

#[derive(Clone)]
struct SumReducer;
impl Reducer<u64, u64> for SumReducer {
    type KOut = u64;
    type VOut = u64;
    fn reduce(&mut self, key: &u64, values: &[u64], out: &mut Emitter<u64, u64>) {
        out.emit(*key, values.iter().sum());
    }
}

fn records() -> Vec<u64> {
    (0..200_000u64).collect()
}

fn mapper() -> impl gepeto_mapred::Mapper<u64, KOut = u64, VOut = u64> {
    FnMapper::new(|_o: u64, v: &u64, out: &mut Emitter<u64, u64>| out.emit(v % 1024, *v))
}

fn bench_engine(c: &mut Criterion) {
    let cluster = Cluster::local(5, 4);
    let mut group = c.benchmark_group("mapred-engine");
    group.sample_size(20);

    group.bench_function("dfs-ingest-200k", |b| {
        b.iter(|| {
            let mut dfs = Dfs::new(cluster.topology.clone(), 64 * 1024, 3);
            dfs.put_fixed("r", records(), 8).unwrap();
            black_box(dfs.num_blocks("r").unwrap())
        })
    });

    for chunk_kb in [16usize, 64, 256] {
        let mut dfs = Dfs::new(cluster.topology.clone(), chunk_kb * 1024, 3);
        dfs.put_fixed("r", records(), 8).unwrap();
        group.bench_with_input(BenchmarkId::new("map-only", chunk_kb), &chunk_kb, |b, _| {
            b.iter(|| {
                let m = FnMapper::new(|o: u64, v: &u64, out: &mut Emitter<u64, u64>| {
                    if v.is_multiple_of(7) {
                        out.emit(o, *v);
                    }
                });
                let r = MapOnlyJob::new("filter", &cluster, &dfs, "r", m)
                    .run()
                    .unwrap();
                black_box(r.output.len())
            })
        });
    }

    let mut dfs = Dfs::new(cluster.topology.clone(), 64 * 1024, 3);
    dfs.put_fixed("r", records(), 8).unwrap();
    group.bench_function("shuffle-heavy", |b| {
        b.iter(|| {
            let r = MapReduceJob::new("sum", &cluster, &dfs, "r", mapper(), SumReducer)
                .reducers(5)
                .run()
                .unwrap();
            black_box(r.output.len())
        })
    });
    let flaky = Cluster::local(5, 4).with_chaos(ChaosPlan::none().fail_tasks(0.2, 0.2, 11, 100));
    group.bench_function("shuffle-heavy-20pct-failures", |b| {
        b.iter(|| {
            let r = MapReduceJob::new("sum", &flaky, &dfs, "r", mapper(), SumReducer)
                .reducers(5)
                .run()
                .unwrap();
            black_box(r.output.len())
        })
    });
    group.finish();
}

/// A record-level map function: `FnMapper` over a plain `fn`.
type MapFn = fn(u64, &u64, &mut Emitter<u64, u64>);

/// `map_records` over a 1 M-record block against the policy it replaced,
/// one reservation of a pair per input record, for a 1:1 mapper (what the
/// sized policy may cost) and a 1-in-12 filter (what it saves).
fn bench_map_records(c: &mut Criterion) {
    let block: Vec<u64> = (0..1_000_000).collect();
    let one_to_one: MapFn = |off, v, out| out.emit(off, *v);
    let filter: MapFn = |off, v, out| {
        if off.is_multiple_of(12) {
            out.emit(off, *v);
        }
    };
    let mut group = c.benchmark_group("map-records-1m");
    group.sample_size(20);
    for (name, f) in [("1to1", one_to_one), ("filter12", filter)] {
        group.bench_function(BenchmarkId::new("reserve-per-record", name), |b| {
            b.iter(|| {
                let mut mapper = FnMapper::new(f);
                let mut out = Emitter::new();
                out.reserve(block.len());
                for (j, record) in block.iter().enumerate() {
                    mapper.map(j as u64, record, &mut out);
                }
                black_box(out.into_pairs())
            })
        });
        group.bench_function(BenchmarkId::new("sized-by-output", name), |b| {
            b.iter(|| {
                let mut out = Emitter::new();
                map_records(&mut FnMapper::new(f), 0, &block, &mut out);
                black_box(out.into_pairs())
            })
        });
    }
    group.finish();
}

/// A 32-byte value under a 4-byte user key: a trace in a by-user job.
type UserPair = (u32, [u64; 4]);

/// Pairs per map task's output in [`bench_partition`], and the reduce
/// partitions they go to (the Parapluie profile's node count).
const TASK_PAIRS: usize = 500_000;
const PARTITIONS: usize = 5;

/// Records per input split, as the engine cuts a chunk.
const SPLIT: usize = 4_096;

/// What a one-to-one by-user mapper emits for `records`: users of twelve
/// consecutive records, so keys come in runs.
fn user_pairs(records: std::ops::Range<usize>) -> Vec<UserPair> {
    records.map(|i| ((i / 12) as u32, [i as u64; 4])).collect()
}

/// The partition step before key runs: a partition per pair (the
/// partitioner called once per run of equal keys), then one
/// exactly-sized bucket of keyed pairs per partition.
fn keyed_buckets(pairs: Vec<UserPair>) -> Vec<Vec<UserPair>> {
    let mut run: Option<(u32, usize)> = None;
    let targets: Vec<usize> = pairs
        .iter()
        .map(|&(k, _)| match run {
            Some((run_key, p)) if run_key == k => p,
            _ => {
                let p = default_partition(&k, PARTITIONS);
                run = Some((k, p));
                p
            }
        })
        .collect();
    let mut counts = [0usize; PARTITIONS];
    for &p in &targets {
        counts[p] += 1;
    }
    let mut buckets: Vec<Vec<UserPair>> = counts.into_iter().map(Vec::with_capacity).collect();
    for (pair, p) in pairs.into_iter().zip(targets) {
        buckets[p].push(pair);
    }
    buckets
}

fn key_run_buckets(pairs: Vec<UserPair>) -> Vec<KeyRuns<u32, [u64; 4]>> {
    KeyRuns::partitioned(pairs, PARTITIONS, |k| default_partition(k, PARTITIONS))
}

/// One map task's 500 k-pair one-to-one output partitioned four ways:
/// whole, as one task that does not split does, or range by range as
/// 4 096-record input splits do, each range partitioned right after it
/// is emitted; into buckets of keyed pairs, as the engine did, or of key
/// runs, as it does. Every variant emits its pairs inside the timed body,
/// so the times differ by partitioning and by what staying in cache saves
/// it. Each variant prints the bytes its buckets hold.
fn bench_partition(c: &mut Criterion) {
    let ranges: Vec<std::ops::Range<usize>> = (0..TASK_PAIRS)
        .step_by(SPLIT)
        .map(|start| start..(start + SPLIT).min(TASK_PAIRS))
        .collect();
    let keyed_bytes = |buckets: &[Vec<UserPair>]| -> usize {
        let pairs: usize = buckets.iter().map(Vec::capacity).sum();
        pairs * std::mem::size_of::<UserPair>()
    };
    let run_bytes = |buckets: &[KeyRuns<u32, [u64; 4]>]| -> usize {
        buckets.iter().map(KeyRuns::heap_bytes).sum()
    };
    let whole = || user_pairs(0..TASK_PAIRS);
    let by_range = |range: &std::ops::Range<usize>| user_pairs(range.clone());
    let mut group = c.benchmark_group("partition-500k");
    group.sample_size(20);
    println!(
        "partition-500k bucket bytes: whole/keyed-pairs {}, whole/key-runs {}, \
         4096-ranges/keyed-pairs {}, 4096-ranges/key-runs {}",
        keyed_bytes(&keyed_buckets(whole())),
        run_bytes(&key_run_buckets(whole())),
        ranges
            .iter()
            .map(|r| keyed_bytes(&keyed_buckets(by_range(r))))
            .sum::<usize>(),
        ranges
            .iter()
            .map(|r| run_bytes(&key_run_buckets(by_range(r))))
            .sum::<usize>(),
    );
    group.bench_function("whole/keyed-pairs", |b| b.iter(|| keyed_buckets(whole())));
    group.bench_function("whole/key-runs", |b| b.iter(|| key_run_buckets(whole())));
    group.bench_function("4096-ranges/keyed-pairs", |b| {
        b.iter(|| {
            ranges
                .iter()
                .map(|r| keyed_buckets(by_range(r)))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("4096-ranges/key-runs", |b| {
        b.iter(|| {
            ranges
                .iter()
                .map(|r| key_run_buckets(by_range(r)))
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_engine, bench_map_records, bench_partition);
criterion_main!(benches);
