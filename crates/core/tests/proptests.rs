//! Property-based tests on the toolkit's algorithmic invariants.

use gepeto::dfs_io::{put_dataset, trace_dfs};
use gepeto::djcluster::{
    mapreduce_preprocess_in, sequential_djcluster, sequential_preprocess, DjConfig,
};
use gepeto::kmeans::{
    assign_points, initial_centroids, mapreduce_iteration_in, sequential_iteration,
    within_cluster_cost, KMeansConfig,
};
use gepeto::sampling::{
    mapreduce_sample_in, sample_trail, sequential_sample, SamplingConfig, Technique,
};
use gepeto::sanitize::{GaussianMask, Sanitizer, SpatialAggregation, UniformMask};
use gepeto_geo::{haversine_m, DistanceMetric};
use gepeto_mapred::{Cluster, ExecCtx};
use gepeto_model::{Dataset, GeoPoint, MobilityTrace, Timestamp, Trail};
use proptest::prelude::*;

fn trace_strategy() -> impl Strategy<Value = MobilityTrace> {
    (0u32..4, 39.5f64..40.5, 115.5f64..117.0, 0i64..100_000)
        .prop_map(|(u, lat, lon, ts)| MobilityTrace::new(u, GeoPoint::new(lat, lon), Timestamp(ts)))
}

fn dataset_strategy(max: usize) -> impl Strategy<Value = Dataset> {
    prop::collection::vec(trace_strategy(), 0..max).prop_map(Dataset::from_traces)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sampling_keeps_at_most_one_trace_per_window(
        traces in prop::collection::vec(trace_strategy(), 0..300),
        window in 1i64..2_000,
        middle in any::<bool>(),
    ) {
        let technique = if middle { Technique::ClosestToMiddle } else { Technique::ClosestToUpperLimit };
        let cfg = SamplingConfig::new(window, technique);
        let ds = Dataset::from_traces(traces);
        for trail in ds.trails() {
            let sampled = sample_trail(trail, &cfg);
            // ≤ 1 representative per window, each from the original trail,
            // inside its own window.
            let mut seen = std::collections::HashSet::new();
            for t in sampled.traces() {
                let w = t.timestamp.secs().div_euclid(window);
                prop_assert!(seen.insert(w), "two representatives in window {}", w);
                prop_assert!(trail.traces().iter().any(|o| o == t));
            }
            // Every non-empty window is represented.
            let windows: std::collections::HashSet<i64> = trail
                .traces().iter().map(|t| t.timestamp.secs().div_euclid(window)).collect();
            prop_assert_eq!(seen.len(), windows.len());
        }
    }

    #[test]
    fn sampling_upper_limit_picks_window_maximum(
        traces in prop::collection::vec(trace_strategy(), 1..200),
        window in 1i64..1_000,
    ) {
        let cfg = SamplingConfig::new(window, Technique::ClosestToUpperLimit);
        let ds = Dataset::from_traces(traces);
        for trail in ds.trails() {
            let sampled = sample_trail(trail, &cfg);
            for t in sampled.traces() {
                let w = t.timestamp.secs().div_euclid(window);
                let max_in_window = trail.traces().iter()
                    .filter(|o| o.timestamp.secs().div_euclid(window) == w)
                    .map(|o| o.timestamp.secs())
                    .max().unwrap();
                prop_assert_eq!(t.timestamp.secs(), max_in_window);
            }
        }
    }

    #[test]
    fn preprocessing_never_grows_and_output_is_subset(ds in dataset_strategy(200)) {
        let cfg = DjConfig::default();
        let pre = sequential_preprocess(&ds, &cfg);
        prop_assert!(pre.num_traces() <= ds.num_traces());
        let originals: std::collections::HashSet<(u32, i64)> =
            ds.iter_traces().map(|t| (t.user, t.timestamp.secs())).collect();
        for t in pre.iter_traces() {
            prop_assert!(originals.contains(&(t.user, t.timestamp.secs())));
        }
    }

    #[test]
    fn djcluster_partitions_input(ds in dataset_strategy(150), radius in 20.0f64..500.0, min_pts in 2usize..6) {
        let cfg = DjConfig { radius_m: radius, min_pts, ..DjConfig::default() };
        let traces = ds.to_traces();
        let clustering = sequential_djcluster(&traces, &cfg);
        // Clusters + noise = input; clusters disjoint; each ≥ min_pts.
        let clustered: usize = clustering.clusters.iter().map(Vec::len).sum();
        prop_assert_eq!(clustered + clustering.noise, traces.len());
        let mut seen = std::collections::HashSet::new();
        for c in &clustering.clusters {
            prop_assert!(c.len() >= min_pts);
            for t in c {
                prop_assert!(seen.insert((t.user, t.timestamp.secs(), t.point.lat.to_bits(), t.point.lon.to_bits())));
            }
        }
    }

    #[test]
    fn kmeans_iteration_never_increases_cost(
        pts in prop::collection::vec((39.5f64..40.5, 115.5f64..117.0), 10..200),
        k in 1usize..8,
        seed in any::<u64>(),
    ) {
        let points: Vec<GeoPoint> = pts.into_iter().map(|(a, b)| GeoPoint::new(a, b)).collect();
        let metric = DistanceMetric::SquaredEuclidean;
        let c0 = initial_centroids(&points, k, seed);
        let cost0 = within_cluster_cost(&points, &c0, metric);
        let c1 = sequential_iteration(&points, &c0, metric);
        let cost1 = within_cluster_cost(&points, &c1, metric);
        prop_assert!(cost1 <= cost0 + 1e-12, "{} -> {}", cost0, cost1);
        // And assignment is a valid labeling.
        let labels = assign_points(&points, &c1, metric);
        prop_assert!(labels.iter().all(|&l| (l as usize) < c1.len()));
    }

    #[test]
    fn gaussian_mask_statistics(ds in dataset_strategy(150), sigma in 1.0f64..300.0, seed in any::<u64>()) {
        let mask = GaussianMask { sigma_m: sigma, seed };
        let out = mask.apply(&ds);
        prop_assert_eq!(out.num_traces(), ds.num_traces());
        for (a, b) in ds.iter_traces().zip(out.iter_traces()) {
            prop_assert_eq!(a.user, b.user);
            prop_assert_eq!(a.timestamp, b.timestamp);
            // 6-sigma displacement bound (holds with overwhelming margin
            // per axis; 8.5x the per-axis sigma across both).
            prop_assert!(haversine_m(a.point, b.point) < sigma * 12.0 + 1.0);
        }
        // Determinism.
        prop_assert_eq!(out, mask.apply(&ds));
    }

    #[test]
    fn uniform_mask_respects_radius(ds in dataset_strategy(100), r in 1.0f64..500.0, seed in any::<u64>()) {
        let out = UniformMask { radius_m: r, seed }.apply(&ds);
        for (a, b) in ds.iter_traces().zip(out.iter_traces()) {
            prop_assert!(haversine_m(a.point, b.point) <= r * 1.01 + 0.1);
        }
    }

    #[test]
    fn aggregation_is_idempotent_and_bounded(ds in dataset_strategy(100), cell in 10.0f64..2_000.0) {
        let agg = SpatialAggregation { cell_m: cell };
        let once = agg.apply(&ds);
        let twice = agg.apply(&once);
        prop_assert_eq!(&once, &twice);
        for (a, b) in ds.iter_traces().zip(once.iter_traces()) {
            // Half-diagonal bound (plus slack for the lat-band longitude).
            prop_assert!(haversine_m(a.point, b.point) <= cell * 0.75 + 1.0);
        }
    }

    #[test]
    fn trail_sampling_is_idempotent(
        traces in prop::collection::vec(trace_strategy(), 0..150),
        window in 1i64..500,
    ) {
        // Sampling an already-sampled trail changes nothing: one trace per
        // window stays one trace per window.
        let cfg = SamplingConfig::new(window, Technique::ClosestToUpperLimit);
        let ds = Dataset::from_traces(traces);
        for trail in ds.trails() {
            let once = sample_trail(trail, &cfg);
            let twice = sample_trail(&once, &cfg);
            prop_assert_eq!(once, twice);
        }
    }

    #[test]
    fn sampled_trail_respects_user(ds in dataset_strategy(150), window in 1i64..500) {
        let cfg = SamplingConfig::new(window, Technique::ClosestToMiddle);
        let sampled = gepeto::sampling::sequential_sample(&ds, &cfg);
        prop_assert!(sampled.num_users() <= ds.num_users());
        for trail in sampled.trails() {
            let _ = Trail::new(trail.user, trail.traces().to_vec());
            for t in trail.traces() {
                prop_assert_eq!(t.user, trail.user);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One chunk of several thousand traces is cut into input splits
    /// wherever the pool has two executors. The MapReduce sampling and
    /// preprocessing must still equal the sequential references exactly,
    /// which they do only if every cut their mappers declare is at a user
    /// switch.
    #[test]
    fn one_chunk_jobs_equal_the_sequential_references_when_split(
        traces in prop::collection::vec(trace_strategy(), 4_000..12_000),
        window in 60i64..600,
        speed in 0.01f64..2_000.0,
        dup in 0.1f64..20_000.0,
    ) {
        let ds = Dataset::from_traces(traces);
        let cluster = Cluster::local(3, 2);
        let ctx = ExecCtx::new(&cluster);
        let mut dfs = trace_dfs(&cluster, 1 << 30);
        put_dataset(&mut dfs, "d", &ds).unwrap();
        let cfg = SamplingConfig::new(window, Technique::ClosestToUpperLimit);
        let (sampled, stats, _) = mapreduce_sample_in(&ctx, &dfs, "d", &cfg).unwrap();
        prop_assert_eq!(stats.map_tasks, 1);
        prop_assert_eq!(sampled, sequential_sample(&ds, &cfg));
        let dj = DjConfig {
            speed_threshold_mps: speed,
            dup_threshold_m: dup,
            ..DjConfig::default()
        };
        mapreduce_preprocess_in(&ctx, &mut dfs, "d", "pre", &dj).unwrap();
        prop_assert_eq!(dfs.read("pre").unwrap(), sequential_preprocess(&ds, &dj).to_traces());
    }

    /// A MapReduce k-means iteration over several chunks, with and without
    /// the in-mapper sums, is the sequential iteration under every metric:
    /// from centroids drawn among the points and from random positions.
    #[test]
    fn a_mapreduce_iteration_is_the_sequential_one_under_every_metric(
        traces in prop::collection::vec(trace_strategy(), 1..600),
        drawn in 1usize..6,
        seed in any::<u64>(),
        random in prop::collection::vec((39.5f64..40.5, 115.5f64..117.0), 0..4),
    ) {
        let cluster = Cluster::local(3, 2);
        let ctx = ExecCtx::new(&cluster);
        let mut dfs = trace_dfs(&cluster, 2_048);
        put_dataset(&mut dfs, "d", &Dataset::from_traces(traces)).unwrap();
        let points: Vec<GeoPoint> = dfs.read("d").unwrap().iter().map(|t| t.point).collect();
        let mut c0 = initial_centroids(&points, drawn, seed);
        c0.extend(random.into_iter().map(|(lat, lon)| GeoPoint::new(lat, lon)));
        for metric in [
            DistanceMetric::Euclidean,
            DistanceMetric::SquaredEuclidean,
            DistanceMetric::Manhattan,
            DistanceMetric::Haversine,
        ] {
            let expected = sequential_iteration(&points, &c0, metric);
            for use_combiner in [false, true] {
                let cfg = KMeansConfig {
                    k: c0.len(),
                    use_combiner,
                    ..KMeansConfig::paper(metric)
                };
                let (next, _, _) = mapreduce_iteration_in(&ctx, &dfs, "d", 1, &c0, &cfg).unwrap();
                prop_assert_eq!(next.len(), expected.len());
                for (a, b) in next.iter().zip(&expected) {
                    prop_assert!(
                        (a.lat - b.lat).abs() < 1e-9 && (a.lon - b.lon).abs() < 1e-9,
                        "{:?} {}: {:?} vs {:?}", metric, use_combiner, a, b
                    );
                }
            }
        }
    }
}
