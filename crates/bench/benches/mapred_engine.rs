//! Engine benchmarks: the MapReduce substrate itself — chunk-size
//! scaling of map-only jobs, shuffle-heavy jobs, combiner effect, DFS
//! ingestion, failure-injection overhead, and how `map_records` sizes a
//! block's output.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gepeto_mapred::{
    map_records, ChaosPlan, Cluster, Combiner, Dfs, Emitter, FnMapper, MapOnlyJob, MapReduceJob,
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

#[derive(Clone)]
struct SumCombiner;
impl Combiner<u64, u64> for SumCombiner {
    fn combine(&mut self, _key: &u64, values: &[u64]) -> Vec<u64> {
        vec![values.iter().sum()]
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
    group.bench_function("shuffle-heavy-combined", |b| {
        b.iter(|| {
            let r = MapReduceJob::new("sum", &cluster, &dfs, "r", mapper(), SumReducer)
                .with_combiner(SumCombiner)
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

criterion_group!(benches, bench_engine, bench_map_records);
criterion_main!(benches);
