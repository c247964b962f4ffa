//! MapReduce ≡ sequential: every MapReduced algorithm must compute what
//! its single-machine reference computes, on generator-produced data and
//! across chunk sizes — and every execution context of a driver must
//! compute what the plain one computes, bit for bit.

use gepeto::prelude::*;
use gepeto_geo::DistanceMetric;
use gepeto_mapred::counters::builtin;
use gepeto_mapred::{RetryPolicy, RunJournal};
use gepeto_telemetry::Recorder;
use std::collections::BTreeMap;
use std::sync::Arc;

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
    let ctx = ExecCtx::new(&cluster);
    let cfg = sampling::SamplingConfig::new(60, sampling::Technique::ClosestToUpperLimit);
    let seq = sampling::sequential_sample(&ds, &cfg);
    for &chunk in &[1usize << 22, 64 * 1024, 8 * 1024] {
        let dfs = dfs_with_chunks(&cluster, &ds, chunk);
        let chunks = dfs.num_blocks("d").unwrap();
        let (mr, _, _) = sampling::mapreduce_sample_in(&ctx, &dfs, "d", &cfg).unwrap();
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
    let ctx = ExecCtx::new(&cluster);
    let dfs = dfs_with_chunks(&cluster, &ds, 32 * 1024);
    for metric in [DistanceMetric::SquaredEuclidean, DistanceMetric::Haversine] {
        let cfg = kmeans::KMeansConfig {
            k: 7,
            ..kmeans::KMeansConfig::paper(metric)
        };
        let centroids = kmeans::initial_centroids(&points, cfg.k, 3);
        let (mr, _, _) =
            kmeans::mapreduce_iteration_in(&ctx, &dfs, "d", 1, &centroids, &cfg).unwrap();
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
    let ctx = ExecCtx::new(&cluster);
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
    let (a, sa, _) =
        kmeans::mapreduce_iteration_in(&ctx, &dfs, "d", 1, &centroids, &per_trace).unwrap();
    let (b, sb, _) =
        kmeans::mapreduce_iteration_in(&ctx, &dfs, "d", 1, &centroids, &fused).unwrap();
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
    let ctx = ExecCtx::new(&cluster);
    // One chunk: exact equality (chunk boundaries can differ at edges).
    let mut dfs = dfs_with_chunks(&cluster, &ds, 1 << 22);
    let (stats, _) = djcluster::mapreduce_preprocess_in(&ctx, &mut dfs, "d", "out", &cfg).unwrap();
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
    let ctx = ExecCtx::new(&cluster);
    let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, 16 * 1024);
    gepeto::dfs_io::put_dataset(&mut dfs, "pre", &pre).unwrap();

    let seq = djcluster::sequential_djcluster(&dfs.read("pre").unwrap(), &cfg);
    let (direct, _, _) = djcluster::mapreduce_djcluster_in(&ctx, &dfs, "pre", &cfg, None).unwrap();
    let rcfg = gepeto::rtree_build::RTreeBuildConfig {
        curve: gepeto_geo::SpaceFillingCurve::ZOrder,
        partitions: 5,
        ..gepeto::rtree_build::RTreeBuildConfig::default()
    };
    let (mr_tree, _, _) =
        djcluster::mapreduce_djcluster_in(&ctx, &dfs, "pre", &cfg, Some(&rcfg)).unwrap();

    assert_eq!(direct.canonical_ids(), seq.canonical_ids());
    assert_eq!(mr_tree.canonical_ids(), seq.canonical_ids());
    assert_eq!(direct.noise, seq.noise);
}

#[test]
fn rtree_build_equivalence_both_curves() {
    let ds = dataset();
    let cluster = Cluster::local(4, 2);
    let ctx = ExecCtx::new(&cluster);
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
        let (tree, report, _) =
            gepeto::rtree_build::mapreduce_build_rtree(&ctx, &dfs, "d", &cfg).unwrap();
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

// ---------------------------------------------------------------------
// One driver per algorithm: every execution context computes the same
// bits. What used to be a family of sibling functions (plain, `_with`,
// `_resilient`, `_checkpointed`, `_durable`) is a table of `ExecCtx`
// configurations of the one function.
// ---------------------------------------------------------------------

/// Sizes the global pool from `GEPETO_TEST_THREADS` before the first
/// job. The pool is set once per process, so
/// `configuration_tables_hold_at_one_and_two_threads` re-runs the tables
/// below in child processes with this set.
fn pool_from_env() {
    if let Ok(threads) = std::env::var("GEPETO_TEST_THREADS") {
        let threads: usize = threads.parse().expect("GEPETO_TEST_THREADS");
        gepeto_pool::set_threads(threads);
        assert_eq!(gepeto_pool::global().threads(), threads);
    }
}

/// Runs `body` once per execution context — plain, retrying (nothing
/// fails, so nothing is retried), traced, starved to a 1-byte shuffle
/// budget, journaled (each in a fresh run directory), and all four at
/// once — and checks that every run returned what the plain one did, and
/// that the journaled run and the starved one committed the same bytes
/// for every reduce partition.
fn same_in_every_context<T: PartialEq + std::fmt::Debug>(
    tag: &str,
    cluster: &Cluster,
    mut body: impl FnMut(&ExecCtx<'_>) -> T,
) -> T {
    let root = std::env::temp_dir().join(format!("gepeto-ctx-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let ctx = |retry: bool, traced: bool, starved: bool, journal: Option<&str>| ExecCtx {
        cluster,
        telemetry: traced
            .then(Recorder::enabled)
            .unwrap_or_else(Recorder::disabled),
        retry: retry
            .then(RetryPolicy::default)
            .unwrap_or_else(RetryPolicy::none),
        journal: journal.map(|dir| Arc::new(RunJournal::attach(&root.join(dir)).unwrap())),
        memory_budget: starved.then_some(1),
    };
    let plain = body(&ctx(false, false, false, None));
    for (name, ctx) in [
        ("retry", ctx(true, false, false, None)),
        ("traced", ctx(false, true, false, None)),
        ("budget 1 B", ctx(false, false, true, None)),
        ("journal", ctx(false, false, false, Some("journal"))),
        ("all", ctx(true, true, true, Some("all"))),
    ] {
        assert_eq!(body(&ctx), plain, "{tag}: '{name}' differs from 'plain'");
    }
    let (in_memory, spilled) = (
        committed_parts(&root, "journal"),
        committed_parts(&root, "all"),
    );
    assert_eq!(
        in_memory.keys().collect::<Vec<_>>(),
        spilled.keys().collect::<Vec<_>>(),
        "{tag}: committed partitions"
    );
    for (part, bytes) in &in_memory {
        assert!(spilled[part] == *bytes, "{tag}: {part} spilled ≠ in memory");
    }
    let _ = std::fs::remove_dir_all(&root);
    plain
}

/// The reduce-partition artifacts the run in `root/dir` committed, by
/// file name.
fn committed_parts(root: &std::path::Path, dir: &str) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(root.join(dir).join("partitions"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "part"))
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

fn trace_bits(t: &MobilityTrace) -> (u32, i64, u64, u64, u32) {
    (
        t.user,
        t.timestamp.0,
        t.point.lat.to_bits(),
        t.point.lon.to_bits(),
        t.altitude.to_bits(),
    )
}

/// The job's out-of-core counters are all positive under a memory
/// budget and all absent without one.
fn assert_spilled_iff_starved(ctx: &ExecCtx<'_>, jobs: &[&gepeto_mapred::JobStats], keys: &[&str]) {
    for key in keys {
        let total: u64 = jobs.iter().map(|j| j.counter(key)).sum();
        assert_eq!(total > 0, ctx.memory_budget.is_some(), "{key} = {total}");
    }
}

#[test]
fn configurations_of_kmeans_land_on_the_same_bits() {
    pool_from_env();
    let cluster = Cluster::local(4, 2);
    let mut dfs = dfs_with_chunks(&cluster, &dataset(), 16 * 1024);
    // k = 11 without the combiner puts several keys in a partition, each
    // spread over every map task's bucket.
    for (k, use_combiner) in [(5, true), (5, false), (11, false)] {
        let cfg = kmeans::KMeansConfig {
            k,
            max_iterations: 4,
            convergence_delta: 0.0,
            use_combiner,
            ..kmeans::KMeansConfig::paper(DistanceMetric::SquaredEuclidean)
        };
        let tag = format!("kmeans-{k}-{use_combiner}");
        let (_, iterations, _, retries) = same_in_every_context(&tag, &cluster, |ctx| {
            let result = kmeans::mapreduce_kmeans_in(ctx, &mut dfs, "d", &cfg).unwrap();
            let jobs: Vec<_> = result.per_iteration.iter().map(|it| &it.job).collect();
            assert_spilled_iff_starved(ctx, &jobs, &[builtin::SPILL_FILES]);
            // Artifacts are keyed by job name: unique per iteration
            // under a journal, the one plain name without.
            let named = |i: usize| match ctx.journal {
                Some(_) => format!("kmeans-i{i:03}"),
                None => "kmeans-iteration".to_string(),
            };
            assert!(jobs.iter().zip(1..).all(|(job, i)| job.name == named(i)));
            let centroids: Vec<(u64, u64)> = result
                .centroids
                .iter()
                .map(|c| (c.lat.to_bits(), c.lon.to_bits()))
                .collect();
            let (iterations, retries) = (result.iterations, result.job_retries);
            (centroids, iterations, result.converged, retries)
        });
        assert_eq!((iterations, retries), (4, 0), "nothing fails or is retried");
    }
}

#[test]
fn configurations_of_sampling_land_on_the_same_bits() {
    pool_from_env();
    let cluster = Cluster::local(4, 2);
    let mut dfs = dfs_with_chunks(&cluster, &dataset(), 16 * 1024);
    let cfg = sampling::SamplingConfig::new(60, sampling::Technique::ClosestToUpperLimit);
    let bits = |ds: &Dataset| -> Vec<_> { ds.to_traces().iter().map(trace_bits).collect() };
    let map_only = same_in_every_context("sample", &cluster, |ctx| {
        let (sampled, stats, retries) =
            sampling::mapreduce_sample_in(ctx, &mut dfs, "d", &cfg).unwrap();
        assert_eq!((stats.name.as_str(), retries), ("sampling", 0));
        bits(&sampled)
    });
    assert!(!map_only.is_empty(), "vacuous comparison");
    let by_user = same_in_every_context("sample-by-user", &cluster, |ctx| {
        let (sampled, stats, retries) =
            sampling::mapreduce_sample_by_user_in(ctx, &mut dfs, "d", &cfg).unwrap();
        assert_eq!((stats.name.as_str(), retries), ("sampling-by-user", 0));
        // A 1-byte budget forces every partition out of core, and every
        // group into a window of its own; however a partition reached the
        // reducer, it takes every sampled trace in and hands one trail per
        // user out.
        use builtin::{SPILLED_BYTES, SPILL_FILES};
        let out_of_core = [SPILL_FILES, SPILLED_BYTES];
        assert_spilled_iff_starved(ctx, &[&stats], &out_of_core);
        let (users, traces) = (sampled.num_users() as u64, sampled.num_traces() as u64);
        assert_eq!(stats.counters[builtin::REDUCE_OUTPUT_RECORDS], users);
        assert_eq!(stats.counters[builtin::REDUCE_INPUT_RECORDS], traces);
        bits(&sampled)
    });
    // The reduce side adds a shuffle, not a different sample.
    assert_eq!(by_user, map_only);
}

/// A by-user regroup of input that is not user-major — a new user every
/// trace, in falling order, so every user's traces lie in many runs of
/// many buckets — hands back the map-only sample, in memory and spilled.
#[test]
fn configurations_of_an_interleaved_regroup_land_on_the_same_bits() {
    pool_from_env();
    let cluster = Cluster::local(4, 2);
    let trails: Vec<Vec<MobilityTrace>> = dataset().trails().map(|t| t.traces().to_vec()).collect();
    let longest = trails.iter().map(Vec::len).max().unwrap();
    let interleaved: Vec<MobilityTrace> = (0..longest)
        .flat_map(|i| trails.iter().rev().filter_map(move |t| t.get(i).copied()))
        .collect();
    let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, 16 * 1024);
    dfs.put_with_sizer("d", interleaved, |t| t.approx_plt_bytes())
        .unwrap();
    assert!(dfs.num_blocks("d").unwrap() > 1);
    let cfg = sampling::SamplingConfig::new(60, sampling::Technique::ClosestToUpperLimit);
    let bits = |ds: &Dataset| -> Vec<_> { ds.to_traces().iter().map(trace_bits).collect() };
    let (map_only, _, _) =
        sampling::mapreduce_sample_in(&ExecCtx::new(&cluster), &dfs, "d", &cfg).unwrap();
    for memory_budget in [None, Some(8_192)] {
        let ctx = ExecCtx {
            memory_budget,
            ..ExecCtx::new(&cluster)
        };
        let (by_user, stats, _) =
            sampling::mapreduce_sample_by_user_in(&ctx, &dfs, "d", &cfg).unwrap();
        assert_spilled_iff_starved(&ctx, &[&stats], &[builtin::SPILL_FILES]);
        assert_eq!(bits(&by_user), bits(&map_only), "budget {memory_budget:?}");
    }
}

#[test]
fn configurations_of_djcluster_land_on_the_same_bits() {
    pool_from_env();
    let cluster = Cluster::local(4, 2);
    let mut dfs = dfs_with_chunks(&cluster, &dataset(), 16 * 1024);
    let cfg = djcluster::DjConfig::default();
    let rcfg = gepeto::rtree_build::RTreeBuildConfig::default();
    for rtree_cfg in [None, Some(&rcfg)] {
        let (clusters, ..) = same_in_every_context("djcluster", &cluster, |ctx| {
            let (clustering, pre, stats, retries) =
                djcluster::mapreduce_djcluster_full_in(ctx, &mut dfs, "d", &cfg, rtree_cfg)
                    .unwrap();
            assert_eq!(retries, 0);
            assert_eq!(stats.rtree_report.is_some(), rtree_cfg.is_some());
            let clusters: Vec<Vec<_>> = clustering
                .clusters
                .iter()
                .map(|c| c.iter().map(trace_bits).collect())
                .collect();
            let counts = (pre.input, pre.after_speed_filter, pre.after_dedup);
            (clusters, clustering.noise, counts)
        });
        assert!(!clusters.is_empty(), "vacuous comparison");
    }
}

/// The three tables above, at `--threads 1` (everything inline) and
/// `--threads 2` (work-stealing pool): each child process runs exactly
/// them, with its pool sized before the first job.
#[test]
fn configuration_tables_hold_at_one_and_two_threads() {
    for threads in ["1", "2"] {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .arg("configurations_of")
            .env("GEPETO_TEST_THREADS", threads)
            .output()
            .expect("re-run this test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("4 passed"),
            "--threads {threads}:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
