//! Table III / §VI benchmarks: one MapReduced k-means iteration across
//! the paper's grid — distance metric × chunk size × dataset size — plus
//! the per-trace-emit vs in-mapper-fused-sums ablation and the sequential
//! baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gepeto::prelude::*;
use gepeto_bench::{convergence_delta_for, dfs_for, parapluie, scaled_chunk_bytes};
use gepeto_geo::DistanceMetric;
use std::hint::black_box;

fn cfg(metric: DistanceMetric, use_combiner: bool) -> kmeans::KMeansConfig {
    kmeans::KMeansConfig {
        k: 11,
        distance: metric,
        convergence_delta: convergence_delta_for(metric),
        max_iterations: 150,
        seed: 1,
        use_combiner,
    }
}

fn bench_kmeans(c: &mut Criterion) {
    let cluster = parapluie();
    let ctx = ExecCtx::new(&cluster);
    let small = gepeto_bench::dataset(90, 0.005);
    let full = gepeto_bench::dataset(178, 0.01);
    let points_full: Vec<GeoPoint> = full.iter_traces().map(|t| t.point).collect();
    let centroids = kmeans::initial_centroids(&points_full, 11, 1);

    let mut group = c.benchmark_group("kmeans-iteration");
    group.sample_size(15);
    // The Table III grid.
    for (label, ds) in [("66MB", &small), ("128MB", &full)] {
        for metric in [DistanceMetric::SquaredEuclidean, DistanceMetric::Haversine] {
            for chunk_mb in [32usize, 64] {
                let dfs = dfs_for(&cluster, ds, scaled_chunk_bytes(chunk_mb));
                let id = format!("{label}/{}/{}MB", metric.name(), chunk_mb);
                let c = cfg(metric, false);
                group.bench_function(BenchmarkId::new("table3", id), |b| {
                    b.iter(|| {
                        let (next, _, _) =
                            kmeans::mapreduce_iteration_in(&ctx, &dfs, "input", 1, &centroids, &c)
                                .unwrap();
                        black_box(next)
                    })
                });
            }
        }
    }
    // Per-trace emit (Table III) vs in-mapper fused sums (the default).
    let dfs = dfs_for(&cluster, &full, scaled_chunk_bytes(32));
    for use_combiner in [false, true] {
        let c2 = cfg(DistanceMetric::SquaredEuclidean, use_combiner);
        let name = if use_combiner {
            "fused-sums"
        } else {
            "per-trace"
        };
        group.bench_function(BenchmarkId::new("map-output", name), |b| {
            b.iter(|| {
                let (next, _, _) =
                    kmeans::mapreduce_iteration_in(&ctx, &dfs, "input", 1, &centroids, &c2)
                        .unwrap();
                black_box(next)
            })
        });
    }
    // Mean vs median update rule.
    group.bench_function("median-iteration", |b| {
        b.iter(|| {
            let c2 = cfg(DistanceMetric::SquaredEuclidean, false);
            let (next, _) =
                kmeans::mapreduce_median_iteration(&cluster, &dfs, "input", &centroids, &c2)
                    .unwrap();
            black_box(next)
        })
    });
    // Sequential baseline.
    group.bench_function("sequential-iteration", |b| {
        b.iter(|| {
            black_box(kmeans::sequential_iteration(
                &points_full,
                &centroids,
                DistanceMetric::SquaredEuclidean,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kmeans);
criterion_main!(benches);
