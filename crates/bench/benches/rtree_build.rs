//! Figure 6 / §VII-C benchmarks: the 3-phase MapReduce R-tree build
//! under both space-filling curves, against direct STR bulk loading and
//! incremental insertion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gepeto::prelude::*;
use gepeto_bench::{dfs_for, parapluie, scaled_chunk_bytes};
use gepeto_geo::RTree;
use std::hint::black_box;

fn bench_rtree_build(c: &mut Criterion) {
    let ds = gepeto_bench::dataset(178, 0.01);
    let cluster = parapluie();
    let ctx = ExecCtx::new(&cluster);
    let dfs = dfs_for(&cluster, &ds, scaled_chunk_bytes(32));
    let items: Vec<(GeoPoint, u64)> = ds
        .iter_traces()
        .enumerate()
        .map(|(i, t)| (t.point, i as u64))
        .collect();

    let mut group = c.benchmark_group("rtree-build");
    group.sample_size(10);
    for curve in [SpaceFillingCurve::ZOrder, SpaceFillingCurve::Hilbert] {
        let cfg = gepeto::rtree_build::RTreeBuildConfig {
            curve,
            partitions: 8,
            ..Default::default()
        };
        group.bench_function(BenchmarkId::new("mapreduce", curve.name()), |b| {
            b.iter(|| {
                let (tree, _, _) =
                    gepeto::rtree_build::mapreduce_build_rtree(&ctx, &dfs, "input", &cfg).unwrap();
                black_box(tree.len())
            })
        });
    }
    group.bench_function("direct-str-bulk", |b| {
        b.iter(|| black_box(RTree::bulk_load(items.clone()).len()))
    });
    group.bench_function("incremental-insert", |b| {
        b.iter(|| {
            let mut t = RTree::new();
            for &(p, i) in items.iter().take(20_000) {
                t.insert(p, i);
            }
            black_box(t.len())
        })
    });

    // Query cost on the built tree (what DJ-Cluster's mappers pay).
    let tree = RTree::bulk_load(items.clone());
    let center = GeneratorConfig::paper().city_center;
    for radius in [60.0, 300.0, 1_500.0] {
        group.bench_with_input(
            BenchmarkId::new("radius-query", radius as u64),
            &radius,
            |b, &r| b.iter(|| black_box(tree.within_radius_m(center, r).len())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_rtree_build);
criterion_main!(benches);
