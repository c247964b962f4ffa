//! Acceptance scenario for the trace-analysis layer: on a chaos run with
//! one node crash, the critical-path report must attribute the makespan
//! delta (vs. the clean run) to re-executed map work, and the node
//! timeline must show the crash and the recovery.

use gepeto::prelude::*;
use gepeto_mapred::counters::builtin;
use gepeto_mapred::{ChaosPlan, RetryPolicy, SimParams};
use gepeto_telemetry::Recorder;

fn dataset() -> Dataset {
    SyntheticGeoLife::new(GeneratorConfig {
        users: 6,
        scale: 0.006,
        ..GeneratorConfig::paper()
    })
    .generate()
}

/// 3 nodes × 2 slots, unit-time sim: every attempt costs exactly 1
/// virtual second, so the crash deterministically lands mid-map.
fn unit_cluster(chaos: ChaosPlan) -> Cluster {
    let mut c = Cluster::local(3, 2).with_chaos(chaos);
    c.sim = SimParams::unit_time();
    c
}

fn run_sampling(chaos: ChaosPlan) -> (gepeto_mapred::JobStats, Recorder) {
    let ds = dataset();
    let cluster = unit_cluster(chaos);
    let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, 8 * 1024);
    gepeto::dfs_io::put_dataset(&mut dfs, "d", &ds).unwrap();
    let cfg = sampling::SamplingConfig::new(60, sampling::Technique::ClosestToMiddle);
    let rec = Recorder::enabled();
    let ctx = ExecCtx::new(&cluster).traced(&rec);
    let (_, stats, _) = sampling::mapreduce_sample_in(&ctx, &dfs, "d", &cfg).unwrap();
    (stats, rec)
}

#[test]
fn crash_critical_path_attributes_makespan_delta_to_reexecuted_maps() {
    let (_, clean_rec) = run_sampling(ChaosPlan::none());
    // Node 1 dies 1.5 virtual seconds in: wave-1 maps it finished are
    // invalidated (their outputs died with it) and re-executed.
    let (chaos_stats, chaos_rec) = run_sampling(ChaosPlan::none().crash_node(1, 1.5));
    let reexecuted = chaos_stats.counter(builtin::REEXECUTED_MAPS);
    assert!(reexecuted > 0, "crash must cost re-executions");

    let clean = clean_rec.virtual_critical_path().expect("clean vcp");
    let chaotic = chaos_rec.virtual_critical_path().expect("chaotic vcp");

    // The clean run has nothing to recover from.
    assert_eq!(clean.reexecuted_maps, 0);
    assert_eq!(clean.recovery_attempts, 0);
    assert!(clean.crashes.is_empty());

    // The chaos run's extra makespan is explained by recovery work: the
    // report must carry the re-executed maps, the killed/failed
    // attempts' virtual cost, and the crash itself.
    let delta = chaotic.makespan_s - clean.makespan_s;
    assert!(delta > 0.0, "recovery must cost virtual time");
    assert_eq!(
        chaotic.reexecuted_maps as u64, reexecuted,
        "report and JobStats must agree on re-executed maps"
    );
    assert!(
        chaotic.reexecuted_maps as f64 + chaotic.recovery_s > 0.0,
        "no recovery work attributed"
    );
    assert_eq!(chaotic.crashes, vec![(1, 1.5)]);

    // The rendered report says so in words.
    let text = chaotic.render();
    assert!(text.contains("re-executed maps"), "{text}");
    assert!(text.contains("node 1 crashed @ 1.500 s"), "{text}");

    // And the map phase is where the time went (sampling is map-only).
    let map = chaotic
        .phases
        .iter()
        .find(|p| p.phase == "map")
        .expect("map phase on the critical path");
    assert!(map.share > 0.9, "map-only job: share = {}", map.share);
}

#[test]
fn crash_timeline_shows_reexecution_and_the_dead_node() {
    let (_, rec) = run_sampling(ChaosPlan::none().crash_node(1, 1.5));
    let timeline = rec.timeline().expect("timeline");
    let text = timeline.render();
    // The dead node's lane carries the crash marker and downtime; some
    // lane carries a re-executed map ('m').
    assert!(text.contains("crashed @ 1.500 s"), "{text}");
    assert!(text.contains('!'), "crash instant marker missing:\n{text}");
    assert!(text.contains('-'), "downtime region missing:\n{text}");
    assert!(text.contains('m'), "re-executed map glyph missing:\n{text}");
    assert!(text.contains('M'), "successful map glyph missing:\n{text}");
}

#[test]
fn host_critical_path_descends_driver_to_task() {
    let (_, rec) = run_sampling(ChaosPlan::none());
    let cp = rec.critical_path();
    assert!(cp.total_us > 0);
    let names: Vec<&str> = cp.steps.iter().map(|s| s.name).collect();
    assert_eq!(names.first(), Some(&"sampling"), "{names:?}");
    assert!(
        names.contains(&"job"),
        "driver -> job chain broken: {names:?}"
    );
    // Depths increase strictly along the chain.
    for (i, step) in cp.steps.iter().enumerate() {
        assert_eq!(step.depth, i);
    }
    // Self times telescope back to the total.
    let self_sum: u64 = cp.steps.iter().map(|s| s.self_us).sum();
    assert_eq!(self_sum, cp.total_us);
}

/// The one k-means loop opens its iteration spans the same way in every
/// context: with a retry policy set, `job` nests under
/// `kmeans.iteration` on the host critical path exactly as in a plain
/// run.
#[test]
fn kmeans_job_nests_under_its_iteration_with_or_without_a_retry_policy() {
    let chain = |retry: RetryPolicy| -> Vec<&'static str> {
        let cluster = unit_cluster(ChaosPlan::none());
        let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, 8 * 1024);
        gepeto::dfs_io::put_dataset(&mut dfs, "d", &dataset()).unwrap();
        let cfg = kmeans::KMeansConfig {
            k: 3,
            max_iterations: 3,
            ..kmeans::KMeansConfig::paper(DistanceMetric::SquaredEuclidean)
        };
        let ctx = ExecCtx {
            retry,
            ..ExecCtx::new(&cluster).traced(&Recorder::enabled())
        };
        kmeans::mapreduce_kmeans_in(&ctx, &mut dfs, "d", &cfg).unwrap();
        let steps = ctx.telemetry.critical_path().steps;
        steps.iter().take(3).map(|s| s.name).collect()
    };
    for retry in [RetryPolicy::none(), RetryPolicy::default()] {
        assert_eq!(chain(retry), ["kmeans", "kmeans.iteration", "job"]);
    }
}
