//! MapReduce ≡ sequential: every MapReduced algorithm must compute what
//! its single-machine reference computes, on generator-produced data and
//! across chunk sizes.

use gepeto::prelude::*;
use gepeto_geo::DistanceMetric;

fn dataset() -> Dataset {
    SyntheticGeoLife::new(GeneratorConfig {
        users: 8,
        scale: 0.008,
        ..GeneratorConfig::paper()
    })
    .generate()
}

fn dfs_with_chunks(cluster: &Cluster, ds: &Dataset, chunk: usize) -> Dfs<MobilityTrace> {
    let mut dfs = gepeto::dfs_io::trace_dfs(cluster, chunk);
    gepeto::dfs_io::put_dataset(&mut dfs, "d", ds).unwrap();
    dfs
}

#[test]
fn sampling_equivalence_across_chunk_sizes() {
    let ds = dataset();
    let cluster = Cluster::local(4, 2);
    let cfg = sampling::SamplingConfig::new(60, sampling::Technique::ClosestToUpperLimit);
    let seq = sampling::sequential_sample(&ds, &cfg);
    for &chunk in &[1usize << 22, 64 * 1024, 8 * 1024] {
        let dfs = dfs_with_chunks(&cluster, &ds, chunk);
        let chunks = dfs.num_blocks("d").unwrap();
        let (mr, _) = sampling::mapreduce_sample(&cluster, &dfs, "d", &cfg).unwrap();
        // Identical up to the per-chunk window-boundary artifact.
        let diff = mr.num_traces() as i64 - seq.num_traces() as i64;
        assert!(
            (0..chunks as i64).contains(&diff),
            "chunk={chunk}: diff {diff} vs {chunks} chunks"
        );
        if chunks == 1 {
            assert_eq!(mr, seq);
        }
    }
}

#[test]
fn kmeans_iteration_equivalence_both_metrics() {
    let ds = dataset();
    let points: Vec<GeoPoint> = ds.iter_traces().map(|t| t.point).collect();
    let cluster = Cluster::local(4, 2);
    let dfs = dfs_with_chunks(&cluster, &ds, 32 * 1024);
    for metric in [DistanceMetric::SquaredEuclidean, DistanceMetric::Haversine] {
        let cfg = kmeans::KMeansConfig {
            k: 7,
            ..kmeans::KMeansConfig::paper(metric)
        };
        let centroids = kmeans::initial_centroids(&points, cfg.k, 3);
        let (mr, _) = kmeans::mapreduce_iteration(&cluster, &dfs, "d", &centroids, &cfg).unwrap();
        let seq = kmeans::sequential_iteration(&points, &centroids, metric);
        for (a, b) in mr.iter().zip(&seq) {
            assert!(
                (a.lat - b.lat).abs() < 1e-9 && (a.lon - b.lon).abs() < 1e-9,
                "{metric:?}: {a:?} vs {b:?}"
            );
        }
    }
}

#[test]
fn kmeans_combiner_equivalence_on_generated_data() {
    let ds = dataset();
    let cluster = Cluster::local(4, 2);
    let dfs = dfs_with_chunks(&cluster, &ds, 16 * 1024);
    let points: Vec<GeoPoint> = ds.iter_traces().map(|t| t.point).collect();
    let centroids = kmeans::initial_centroids(&points, 9, 5);
    let fused = kmeans::KMeansConfig {
        k: 9,
        ..kmeans::KMeansConfig::paper(DistanceMetric::SquaredEuclidean)
    };
    let per_trace = kmeans::KMeansConfig {
        use_combiner: false,
        ..fused.clone()
    };
    let (a, sa) = kmeans::mapreduce_iteration(&cluster, &dfs, "d", &centroids, &per_trace).unwrap();
    let (b, sb) = kmeans::mapreduce_iteration(&cluster, &dfs, "d", &centroids, &fused).unwrap();
    for (x, y) in a.iter().zip(&b) {
        assert!((x.lat - y.lat).abs() < 1e-9 && (x.lon - y.lon).abs() < 1e-9);
    }
    assert!(sb.sim.shuffle_bytes < sa.sim.shuffle_bytes);
}

#[test]
fn preprocessing_equivalence() {
    let ds = dataset();
    let cfg = djcluster::DjConfig::default();
    let seq = djcluster::sequential_preprocess(&ds, &cfg);
    let cluster = Cluster::local(4, 2);
    // One chunk: exact equality (chunk boundaries can differ at edges).
    let mut dfs = dfs_with_chunks(&cluster, &ds, 1 << 22);
    let stats = djcluster::mapreduce_preprocess(&cluster, &mut dfs, "d", "out", &cfg).unwrap();
    let out = gepeto::dfs_io::read_dataset(&dfs, "out").unwrap();
    assert_eq!(out, seq);
    assert_eq!(stats.after_dedup, seq.num_traces());
}

#[test]
fn djcluster_equivalence_regardless_of_rtree_construction() {
    let ds = dataset();
    let cfg = djcluster::DjConfig::default();
    let pre = djcluster::sequential_preprocess(&ds, &cfg);
    let cluster = Cluster::local(4, 2);
    let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, 16 * 1024);
    gepeto::dfs_io::put_dataset(&mut dfs, "pre", &pre).unwrap();

    let seq = djcluster::sequential_djcluster(&dfs.read("pre").unwrap(), &cfg);
    let (direct, _) = djcluster::mapreduce_djcluster(&cluster, &dfs, "pre", &cfg, None).unwrap();
    let rcfg = gepeto::rtree_build::RTreeBuildConfig {
        curve: gepeto_geo::SpaceFillingCurve::ZOrder,
        partitions: 5,
        ..gepeto::rtree_build::RTreeBuildConfig::default()
    };
    let (mr_tree, _) =
        djcluster::mapreduce_djcluster(&cluster, &dfs, "pre", &cfg, Some(&rcfg)).unwrap();

    assert_eq!(direct.canonical_ids(), seq.canonical_ids());
    assert_eq!(mr_tree.canonical_ids(), seq.canonical_ids());
    assert_eq!(direct.noise, seq.noise);
}

#[test]
fn rtree_build_equivalence_both_curves() {
    let ds = dataset();
    let cluster = Cluster::local(4, 2);
    let dfs = dfs_with_chunks(&cluster, &ds, 32 * 1024);
    let direct = gepeto::rtree_build::direct_build_rtree(&dfs, "d", 16).unwrap();
    for curve in [
        gepeto_geo::SpaceFillingCurve::ZOrder,
        gepeto_geo::SpaceFillingCurve::Hilbert,
    ] {
        let cfg = gepeto::rtree_build::RTreeBuildConfig {
            curve,
            partitions: 6,
            ..gepeto::rtree_build::RTreeBuildConfig::default()
        };
        let (tree, report) =
            gepeto::rtree_build::mapreduce_build_rtree(&cluster, &dfs, "d", &cfg).unwrap();
        assert_eq!(tree.len(), direct.len(), "{}", curve.name());
        let center = GeneratorConfig::paper().city_center;
        for radius in [100.0, 1_000.0, 10_000.0] {
            let mut a: Vec<u64> = tree
                .within_radius_m(center, radius)
                .iter()
                .map(|e| e.payload)
                .collect();
            let mut b: Vec<u64> = direct
                .within_radius_m(center, radius)
                .iter()
                .map(|e| e.payload)
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{} radius {radius}", curve.name());
        }
        assert!(
            report.imbalance() < 3.0,
            "{}: {:?}",
            curve.name(),
            report.partition_sizes
        );
    }
}

#[test]
fn chunk_size_controls_map_task_count() {
    // The §VI lever: halving the chunk size doubles the mappers.
    let ds = dataset();
    let cluster = Cluster::local(4, 2);
    let d64 = dfs_with_chunks(&cluster, &ds, 64 * 1024);
    let d32 = dfs_with_chunks(&cluster, &ds, 32 * 1024);
    let n64 = d64.num_blocks("d").unwrap();
    let n32 = d32.num_blocks("d").unwrap();
    assert!(
        (n32 as f64 / n64 as f64 - 2.0).abs() < 0.2,
        "{n32} vs {n64} chunks"
    );
}
