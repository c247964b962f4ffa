//! Micro-benchmarks of the hot kernels behind the columnar/shuffle fast
//! paths: SoA fused assignment vs the scalar AoS loop, the k-means map
//! task per record vs per block, hash grouping vs sort-then-group, nested
//! vs flat reduce groups, `Dataset::from_traces` on user-major vs
//! interleaved input, varint-delta neighborhood payloads vs raw ids,
//! DJ-Cluster's radius query and R-tree merge, and the Hilbert index of
//! the MapReduce R-tree's partitioning.
//!
//! These isolate the three optimizations gated end-to-end by
//! `gepeto-bench compare`; run them with
//! `cargo bench --bench kernels -- --measure`.

use criterion::{criterion_group, criterion_main, Criterion};
use gepeto::djcluster::{sequential_preprocess, DjConfig, EncodedNeighborhood};
use gepeto::kmeans::{nearest_centroid, KMeansMapper, CENTROIDS_CACHE_KEY};
use gepeto::sampling::{sequential_sample, SamplingConfig, Technique};
use gepeto_geo::rtree::radius_bounding_rect;
use gepeto_geo::sfc::{hilbert_xy_to_d, hilbert_xy_to_d_bitwise, GridMapper};
use gepeto_geo::soa::kernels_available;
use gepeto_geo::{haversine_m, CentroidsSoa, ClusterSum, DistanceMetric, PointsSoa, RTree, Rect};
use gepeto_geolife::{GeneratorConfig, SyntheticGeoLife};
use gepeto_mapred::{
    group_sorted, group_unsorted, Counters, DistributedCache, Emitter, FlatGroups, JobConfig,
    KeyRuns, Mapper, TaskContext,
};
use gepeto_model::{Dataset, GeoPoint, MobilityTrace, Timestamp};
use std::hint::black_box;

fn points(n: usize) -> Vec<GeoPoint> {
    (0..n)
        .map(|i| {
            GeoPoint::new(
                39.5 + (i % 1000) as f64 * 1e-3,
                116.0 + (i / 1000) as f64 * 1e-2,
            )
        })
        .collect()
}

fn centroids(k: usize) -> Vec<GeoPoint> {
    (0..k)
        .map(|i| GeoPoint::new(39.5 + i as f64 * 0.1, 116.0 + i as f64 * 0.07))
        .collect()
}

fn bench_assignment(c: &mut Criterion) {
    let pts = points(100_000);
    let cents = centroids(8);
    let cols = PointsSoa::from_points(&pts);

    let mut group = c.benchmark_group("kmeans-assign-100k-k8");
    for metric in [DistanceMetric::SquaredEuclidean, DistanceMetric::Haversine] {
        let soa = CentroidsSoa::new(&cents, metric);
        group.bench_function(format!("scalar-two-pass/{}", metric.name()), |b| {
            b.iter(|| {
                // The pre-optimization shape: argmin pass, then sum pass.
                let assign: Vec<u32> = pts
                    .iter()
                    .map(|&p| nearest_centroid(p, &cents, metric))
                    .collect();
                let mut sums = vec![ClusterSum::default(); cents.len()];
                for (&p, &cid) in pts.iter().zip(&assign) {
                    let s = &mut sums[cid as usize];
                    s.lat_sum += p.lat;
                    s.lon_sum += p.lon;
                    s.count += 1;
                }
                black_box(sums)
            })
        });
        // The lane core at every width this host can run (the widest is
        // what `CentroidsSoa::new` selects); Haversine is `scalar` at
        // every one of them, hence one row.
        let mut kernels: Vec<CentroidsSoa> = kernels_available()
            .map(|kernel| soa.clone().with_kernel(kernel))
            .collect();
        kernels.dedup_by_key(|soa| soa.kernel());
        for soa in &kernels {
            let name = format!("soa-fused/{}/{}", metric.name(), soa.kernel());
            group.bench_function(name, |b| {
                b.iter(|| {
                    let mut sums = vec![ClusterSum::default(); cents.len()];
                    let evals = soa.assign_sum(&cols.lat, &cols.lon, &mut sums);
                    black_box((evals, sums))
                })
            });
        }
        // The bit-exactness reference the lanes are property-tested
        // against — the lanes-vs-scalar delta is this row vs soa-fused.
        group.bench_function(format!("soa-scalar-reference/{}", metric.name()), |b| {
            b.iter(|| {
                let mut sums = vec![ClusterSum::default(); cents.len()];
                let evals = soa.assign_sum_scalar(&cols.lat, &cols.lon, &mut sums);
                black_box((evals, sums))
            })
        });
    }
    group.finish();
}

fn bench_map_task(c: &mut Criterion) {
    // One 100k-trace chunk through one k-means map task, as the engine
    // drives it: the default `map_block` (Algorithm 1, one pair per
    // record) vs the mapper's fused override (the lane kernel reading the
    // traces in place, at most k pairs).
    let block: Vec<MobilityTrace> = points(100_000)
        .into_iter()
        .enumerate()
        .map(|(i, p)| MobilityTrace::new(1, p, Timestamp(i as i64)))
        .collect();
    let cache = DistributedCache::new().with(CENTROIDS_CACHE_KEY, centroids(11));
    let config = JobConfig::new();
    let counters = Counters::new();

    let mut group = c.benchmark_group("kmeans-map-task-100k-k11");
    for (name, fused_sums) in [("per-record", false), ("map_block", true)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut mapper = KMeansMapper::new(DistanceMetric::SquaredEuclidean, fused_sums);
                mapper.setup(&TaskContext {
                    task_id: 0,
                    attempt: 1,
                    config: &config,
                    cache: &cache,
                    counters: &counters,
                });
                let mut out = Emitter::new();
                mapper.map_block(0, &block, &mut out);
                mapper.cleanup(&mut out);
                black_box(out.into_pairs())
            })
        });
    }
    group.finish();
}

fn bench_pooled_assignment(c: &mut Criterion) {
    // Chunked point assignment on the work-stealing pool vs the same
    // scan on one thread — the `assign_points` path of every k-means
    // iteration. Speedup here is the host-parallelism headline.
    let pts = points(200_000);
    let cents = centroids(8);
    let soa = CentroidsSoa::new(&cents, DistanceMetric::SquaredEuclidean);

    let mut group = c.benchmark_group("kmeans-assign-points-200k-k8");
    group.sample_size(20);
    group.bench_function("sequential-scan", |b| {
        b.iter(|| {
            let assign: Vec<u32> = pts.iter().map(|&p| soa.nearest(p)).collect();
            black_box(assign)
        })
    });
    group.bench_function("pooled-chunks", |b| {
        b.iter(|| black_box(gepeto_geo::assign_points_pooled(&pts, &soa)))
    });
    group.finish();
}

fn bench_grouping(c: &mut Criterion) {
    // 200k pairs over 1k keys, emitted in hash-scattered order — the
    // shape of a concatenated reduce partition before grouping.
    let pairs: Vec<(u64, u64)> = (0..200_000u64)
        .map(|i| (i.wrapping_mul(2_654_435_761) % 1_000, i))
        .collect();

    let mut group = c.benchmark_group("reduce-grouping-200k");
    group.sample_size(20);
    group.bench_function("sort-then-group", |b| {
        b.iter(|| {
            let mut p = pairs.clone();
            p.sort_by_key(|a| a.0);
            black_box(group_sorted(p).len())
        })
    });
    group.bench_function("hash-group", |b| {
        b.iter(|| black_box(group_unsorted(pairs.clone()).len()))
    });
    group.finish();
}

/// 500 k traces of 40 000 users, 12–13 each, user-major and in time
/// order per user: the by-user regroup's shape, and the DFS layout.
fn user_major_traces() -> Vec<MobilityTrace> {
    (0..500_000u32)
        .map(|i| {
            let user = i * 2 / 25;
            let p = GeoPoint::new(39.5 + f64::from(i % 1000) * 1e-3, 116.0);
            MobilityTrace::new(user, p, Timestamp(i64::from(i) * 60))
        })
        .collect()
}

fn bench_flat_grouping(c: &mut Criterion) {
    // One key-sorted reduce partition of the by-user regroup. `nested` is
    // one growing `Vec` per user, `flat` one value column plus bounds;
    // both consume a fresh clone, so the clone is in both rows.
    let pairs: Vec<(u32, MobilityTrace)> =
        user_major_traces().iter().map(|t| (t.user, *t)).collect();

    let mut group = c.benchmark_group("reduce-grouping-500k");
    group.sample_size(20);
    group.bench_function("nested", |b| {
        b.iter(|| {
            let groups = group_sorted(pairs.clone());
            black_box(groups.iter().map(|(_, vs)| vs.len()).sum::<usize>())
        })
    });
    group.bench_function("flat", |b| {
        b.iter(|| {
            let groups = FlatGroups::from_runs(KeyRuns::partitioned(pairs.clone(), 1, |_| 0));
            black_box(groups.iter().map(|(_, vs)| vs.len()).sum::<usize>())
        })
    });
    group.finish();
}

fn bench_dataset_from_traces(c: &mut Criterion) {
    // `grouped`: the user-major scan, one run per user. `interleaved`:
    // the same traces taken 13 apart (a user holds 12–13), so neighbours
    // never share a user and every trace is a run of its own — the
    // run-aware builder's worst case.
    let grouped = user_major_traces();
    let interleaved: Vec<MobilityTrace> = (0..13)
        .flat_map(|offset| grouped.iter().skip(offset).step_by(13).copied())
        .collect();

    let mut group = c.benchmark_group("dataset-from-traces-500k");
    group.sample_size(20);
    for (name, traces) in [("grouped", &grouped), ("interleaved", &interleaved)] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(Dataset::from_traces(traces.iter().copied()).num_users()))
        });
    }
    group.finish();
}

fn bench_neighborhood_codec(c: &mut Criterion) {
    // 100 dense neighborhoods of 500 sorted ids — DJ-Cluster's shuffle.
    let hoods: Vec<Vec<u64>> = (0..100u64)
        .map(|h| (h * 37..h * 37 + 500).collect())
        .collect();
    let encoded: Vec<EncodedNeighborhood> = hoods
        .iter()
        .map(|h| EncodedNeighborhood::encode_sorted(h))
        .collect();

    let mut group = c.benchmark_group("neighborhood-codec-100x500");
    group.bench_function("raw-clone-and-sum", |b| {
        b.iter(|| {
            // The old shuffle moved raw id vectors; reading = slice scan.
            let total: u64 = hoods.iter().map(|h| h.clone().iter().sum::<u64>()).sum();
            black_box(total)
        })
    });
    group.bench_function("varint-encode", |b| {
        b.iter(|| {
            let bytes: usize = hoods
                .iter()
                .map(|h| EncodedNeighborhood::encode_sorted(h).encoded_len())
                .sum();
            black_box(bytes)
        })
    });
    group.bench_function("varint-stream-decode", |b| {
        b.iter(|| {
            let total: u64 = encoded.iter().map(|e| e.iter().sum::<u64>()).sum();
            black_box(total)
        })
    });
    group.finish();
}

/// `n` points in dwell spots of 200 (a 90 m square each, 1.1 km apart):
/// a 60 m query returns a good share of its spot, as on GeoLife.
fn dwell_spots(n: usize) -> Vec<(GeoPoint, u64)> {
    (0..n)
        .map(|i| {
            let (spot, j) = (i / 200, i % 200);
            let p = GeoPoint::new(
                39.5 + (spot % 100) as f64 * 1e-2 + (j % 15) as f64 * 6e-5,
                116.0 + (spot / 100) as f64 * 1e-2 + (j / 15) as f64 * 8e-5,
            );
            (p, i as u64)
        })
        .collect()
}

fn bench_radius_query(c: &mut Criterion) {
    // 1 000 queries of 60 m against 100 k points, in time order: ten
    // consecutive traces at each of 100 dwell spots. `naive` is the test
    // the tree used to run on every candidate inside the bounding rect;
    // `filter-refine` is the plain query (pre-tested descent, whole-leaf
    // acceptance, trig-free brackets, Haversine only on the disc's edge);
    // `cursor` answers the same stream from cached leaf lists and reads
    // every hit's payload, `cursor-blocks` takes whole leaves as blocks,
    // unread, the way DJ-Cluster's union-find counts them.
    let items = dwell_spots(100_000);
    let queries: Vec<GeoPoint> = items
        .chunks(200)
        .take(100)
        .flat_map(|spot| spot[..10].iter().map(|&(p, _)| p))
        .collect();
    let tree = RTree::bulk_load(items);

    let mut group = c.benchmark_group("radius-query-60m");
    group.bench_function("naive", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &q in &queries {
                for e in tree.query_rect(&radius_bounding_rect(q, 60.0)) {
                    hits += usize::from(haversine_m(q, e.point) <= 60.0);
                }
            }
            black_box(hits)
        })
    });
    group.bench_function("filter-refine", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &q in &queries {
                tree.for_each_within_radius_m(q, 60.0, |_| hits += 1);
            }
            black_box(hits)
        })
    });
    group.bench_function("cursor", |b| {
        b.iter(|| {
            let (mut cursor, mut ids) = (tree.radius_cursor(60.0), 0u64);
            for &q in &queries {
                cursor.for_each(q, |hit| hit.entries().iter().for_each(|e| ids ^= e.payload));
            }
            black_box(ids)
        })
    });
    group.bench_function("cursor-blocks", |b| {
        b.iter(|| {
            let (mut cursor, mut hits) = (tree.radius_cursor(60.0), 0usize);
            for &q in &queries {
                cursor.for_each(q, |hit| hits += hit.entries().len());
            }
            black_box(hits)
        })
    });
    group.finish();
}

fn bench_rtree_merge(c: &mut Criterion) {
    // Phase 3 of the MapReduce R-tree build at its default shape: 8
    // partition trees of 10 k entries. `merge` consumes its inputs, so
    // the clone is timed on its own and is the floor of the second row.
    let trees: Vec<RTree<u64>> = dwell_spots(80_000)
        .chunks(10_000)
        .map(|part| RTree::bulk_load(part.to_vec()))
        .collect();

    let mut group = c.benchmark_group("rtree-merge-8x10k");
    group.bench_function("clone-inputs", |b| {
        b.iter(|| black_box(trees.clone().len()))
    });
    group.bench_function("clone-inputs+merge", |b| {
        b.iter(|| black_box(RTree::merge(trees.clone()).len()))
    });
    group.finish();
}

fn bench_hilbert_index(c: &mut Criterion) {
    // The djcluster-poi benchmark input (712 GeoLife-like users, seed
    // 1000) sampled at 60 s and preprocessed: the ~81 k points R-tree
    // phase 2 routes, as cells of the build's order-16 grid. `bitwise` is
    // the per-bit descent, `table-walk` the nibble table the build uses.
    let ds = SyntheticGeoLife::new(GeneratorConfig {
        users: 712,
        scale: 1.0,
        seed: 1000,
        ..GeneratorConfig::paper()
    })
    .generate();
    let sampling = SamplingConfig::new(60, Technique::ClosestToUpperLimit);
    let pre = sequential_preprocess(&sequential_sample(&ds, &sampling), &DjConfig::default());
    let bounds = pre
        .iter_traces()
        .fold(Rect::empty(), |r, t| r.union(&Rect::point(t.point)));
    let grid = GridMapper::new(bounds, 16);
    let cells: Vec<(u32, u32)> = pre.iter_traces().map(|t| grid.cell(t.point)).collect();

    let mut group = c.benchmark_group("hilbert-index-dj-poi-order16");
    for (name, index) in [
        (
            "bitwise",
            hilbert_xy_to_d_bitwise as fn(u32, u32, u32) -> u64,
        ),
        ("table-walk", hilbert_xy_to_d),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let xor = cells
                    .iter()
                    .fold(0u64, |acc, &(x, y)| acc ^ index(16, x, y));
                black_box((cells.len(), xor))
            })
        });
    }
    group.finish();
}

criterion_group!(
    kernels,
    bench_assignment,
    bench_map_task,
    bench_pooled_assignment,
    bench_grouping,
    bench_flat_grouping,
    bench_dataset_from_traces,
    bench_neighborhood_codec,
    bench_radius_query,
    bench_rtree_merge,
    bench_hilbert_index
);
criterion_main!(kernels);
