//! Table IV / §VII benchmarks: the two preprocessing jobs, the
//! neighborhood+merge clustering job, the end-to-end pipeline, and the
//! merge with and without the map tasks' partial merge.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gepeto::djcluster::{MergeReducer, NeighborhoodMapper};
use gepeto::prelude::*;
use gepeto_bench::{dfs_for, parapluie, scaled_chunk_bytes};
use gepeto_geo::RTree;
use gepeto_mapred::{map_records, Counters, Emitter, Mapper, Reducer, TaskContext};
use std::hint::black_box;
use std::sync::Arc;

fn bench_djcluster(c: &mut Criterion) {
    let ds = gepeto_bench::dataset(178, 0.01);
    let cluster = parapluie();
    let ctx = ExecCtx::new(&cluster);
    let cfg = djcluster::DjConfig::default();

    let mut group = c.benchmark_group("djcluster");
    group.sample_size(10);

    // Preprocessing at each Table IV sampling rate.
    for window in [60i64, 300, 600] {
        let scfg = sampling::SamplingConfig::new(window, sampling::Technique::ClosestToUpperLimit);
        let sampled = sampling::sequential_sample(&ds, &scfg);
        group.bench_with_input(BenchmarkId::new("preprocess", window), &window, |b, _| {
            b.iter(|| {
                let mut dfs = dfs_for(&cluster, &sampled, scaled_chunk_bytes(64));
                let (pre, _) =
                    djcluster::mapreduce_preprocess_in(&ctx, &mut dfs, "input", "clean", &cfg)
                        .unwrap();
                black_box(pre.after_dedup)
            })
        });
    }

    // The clustering job on the 1-min preprocessed data: direct R-tree vs
    // the MapReduce-built R-tree.
    let scfg = sampling::SamplingConfig::new(60, sampling::Technique::ClosestToUpperLimit);
    let pre = djcluster::sequential_preprocess(&sampling::sequential_sample(&ds, &scfg), &cfg);
    let dfs = dfs_for(&cluster, &pre, scaled_chunk_bytes(32));
    group.bench_function("cluster/direct-rtree", |b| {
        b.iter(|| {
            let (clustering, _, _) =
                djcluster::mapreduce_djcluster_in(&ctx, &dfs, "input", &cfg, None).unwrap();
            black_box(clustering.clusters.len())
        })
    });
    let rcfg = gepeto::rtree_build::RTreeBuildConfig::default();
    group.bench_function("cluster/mapreduce-rtree", |b| {
        b.iter(|| {
            let (clustering, _, _) =
                djcluster::mapreduce_djcluster_in(&ctx, &dfs, "input", &cfg, Some(&rcfg)).unwrap();
            black_box(clustering.clusters.len())
        })
    });

    // Sequential baseline on the same preprocessed traces.
    let traces = pre.to_traces();
    group.bench_function("cluster/sequential", |b| {
        b.iter(|| {
            black_box(
                djcluster::sequential_djcluster(&traces, &cfg)
                    .clusters
                    .len(),
            )
        })
    });

    // One map task over the whole preprocessed file, then the single
    // reducer: Algorithm 4 as published (a neighborhood per dense trace,
    // what the per-record `map` still emits) vs the partial merge of
    // `map_block` over the engine's 4 096-trace input splits (a
    // pre-merged component per split and dwell spot), each split on a
    // fresh clone of one mapper as the engine runs them — here serially.
    let items = traces.iter().enumerate().map(|(i, t)| (t.point, i as u64));
    let rtree = Arc::new(RTree::bulk_load(items.collect()));
    let counters = Counters::new();
    let ctx = TaskContext {
        task_id: 0,
        attempt: 1,
        counters: &counters,
    };
    for (name, per_trace) in [("merge/per-trace", true), ("merge/partial", false)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let job_mapper = NeighborhoodMapper::new(&cfg, Arc::clone(&rtree));
                let mut shuffled = Emitter::new();
                if per_trace {
                    let mut mapper = job_mapper.clone();
                    mapper.setup(&ctx);
                    map_records(&mut mapper, 0, &traces, &mut shuffled);
                    mapper.cleanup(&mut shuffled);
                } else {
                    for (split, range) in traces.chunks(4_096).enumerate() {
                        let mut mapper = job_mapper.clone();
                        mapper.setup(&ctx);
                        mapper.map_block((split * 4_096) as u64, range, &mut shuffled);
                        mapper.cleanup(&mut shuffled);
                    }
                }
                let sets: Vec<_> = shuffled.into_pairs().into_iter().map(|(_, v)| v).collect();
                let mut clusters = Emitter::new();
                MergeReducer.reduce(&0, sets.as_slice().into(), &mut clusters);
                black_box((sets.len(), clusters.len()))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_djcluster);
criterion_main!(benches);
