//! Table I / §V benchmarks: MapReduce down-sampling throughput across
//! window sizes and techniques, against the sequential baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gepeto::prelude::*;
use gepeto_bench::{dfs_for, parapluie, scaled_chunk_bytes};
use std::hint::black_box;

fn bench_sampling(c: &mut Criterion) {
    let ds = gepeto_bench::dataset(178, 0.01);
    let cluster = parapluie();
    let ctx = ExecCtx::new(&cluster);
    let dfs = dfs_for(&cluster, &ds, scaled_chunk_bytes(64));

    let mut group = c.benchmark_group("sampling");
    group.sample_size(20);
    for window in [60i64, 300, 600] {
        let cfg = sampling::SamplingConfig::new(window, sampling::Technique::ClosestToUpperLimit);
        group.bench_with_input(BenchmarkId::new("mapreduce", window), &window, |b, _| {
            b.iter(|| {
                let (out, _, _) = sampling::mapreduce_sample_in(&ctx, &dfs, "input", &cfg).unwrap();
                black_box(out.num_traces())
            })
        });
        group.bench_with_input(BenchmarkId::new("sequential", window), &window, |b, _| {
            b.iter(|| black_box(sampling::sequential_sample(&ds, &cfg).num_traces()))
        });
    }
    // Typed vs text input at the 60 s window (the §VI SequenceFile
    // discussion: parsing text in the mappers costs real time).
    let mut text_dfs = gepeto::textio::text_dfs(&cluster, scaled_chunk_bytes(64));
    gepeto::textio::put_dataset_as_text(&mut text_dfs, "input", &ds).unwrap();
    let cfg60 = sampling::SamplingConfig::new(60, sampling::Technique::ClosestToUpperLimit);
    group.bench_function("input-format/typed", |b| {
        b.iter(|| {
            let (out, _, _) = sampling::mapreduce_sample_in(&ctx, &dfs, "input", &cfg60).unwrap();
            black_box(out.num_traces())
        })
    });
    group.bench_function("input-format/text", |b| {
        b.iter(|| {
            let r = gepeto_mapred::MapOnlyJob::new(
                "text-sampling",
                &cluster,
                &text_dfs,
                "input",
                gepeto::textio::ParsingMapper::new(sampling::SamplingMapper::new(cfg60)),
            )
            .run()
            .unwrap();
            black_box(r.output.len())
        })
    });

    // Technique comparison (Figures 2 vs 3) at the 60 s window.
    for (name, technique) in [
        ("upper-limit", sampling::Technique::ClosestToUpperLimit),
        ("middle", sampling::Technique::ClosestToMiddle),
    ] {
        let cfg = sampling::SamplingConfig::new(60, technique);
        group.bench_function(BenchmarkId::new("technique", name), |b| {
            b.iter(|| {
                let (out, _, _) = sampling::mapreduce_sample_in(&ctx, &dfs, "input", &cfg).unwrap();
                black_box(out.num_traces())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sampling);
criterion_main!(benches);
