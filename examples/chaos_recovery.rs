//! Chaos-recovery study: the same k-means run replayed under 0, 1 and 2
//! scripted datanode crashes — the virtual makespan absorbs the recovery
//! work (killed attempts, re-executed maps, failed-over replica reads)
//! while the centroids stay bit-identical, because host results are
//! computed independently of the virtual schedule.
//!
//! Run with: `cargo run --release --example chaos_recovery`

use gepeto::prelude::*;
use gepeto_geo::DistanceMetric;
use gepeto_mapred::counters::builtin;
use gepeto_mapred::{ChaosPlan, SimParams, Topology};

fn main() {
    let dataset = SyntheticGeoLife::new(GeneratorConfig {
        users: 12,
        scale: 0.01,
        ..GeneratorConfig::paper()
    })
    .generate();
    let cfg = kmeans::KMeansConfig {
        k: 8,
        convergence_delta: 1e-6,
        max_iterations: 12,
        ..kmeans::KMeansConfig::paper(DistanceMetric::SquaredEuclidean)
    };
    println!(
        "dataset: {} traces | k-means k={} on a 5-node virtual cluster\n",
        dataset.num_traces(),
        cfg.k
    );

    // Crash times sit inside the first iteration's map waves, so the
    // dying nodes take completed map outputs with them (forcing
    // re-execution) and stay dark for every later iteration (forcing
    // replica failover on each read of their chunks).
    let scenarios: [(&str, ChaosPlan); 3] = [
        ("0 crashes", ChaosPlan::none()),
        (
            "1 crash   (node 0 @ 2 s)",
            ChaosPlan::none().crash_node(0, 2.0),
        ),
        (
            "2 crashes (node 0 @ 2 s, node 1 @ 3.5 s)",
            ChaosPlan::none().crash_node(0, 2.0).crash_node(1, 3.5),
        ),
    ];

    let mut baseline: Option<(f64, Vec<(u64, u64)>)> = None;
    println!(
        "{:<42} {:>10} {:>9} {:>8} {:>9} {:>9}",
        "scenario", "makespan", "overhead", "re-exec", "failover", "killed"
    );
    for (label, chaos) in scenarios {
        // Parapluie-class task costs on a *tight* cluster — 5 nodes × 2
        // slots over 2 racks — so losing a node visibly stretches the
        // schedule; no straggler noise, the comparison should show
        // recovery cost, not sampling jitter.
        let mut cluster = Cluster::parapluie().with_chaos(chaos);
        cluster.topology = Topology::new(5, 2, 2);
        cluster.sim = SimParams {
            straggler_prob: 0.0,
            ..SimParams::parapluie()
        };
        let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, 32 * 1024);
        gepeto::dfs_io::put_dataset(&mut dfs, "pts", &dataset).unwrap();
        let result =
            kmeans::mapreduce_kmeans_in(&ExecCtx::new(&cluster), &dfs, "pts", &cfg).unwrap();
        let makespan: f64 = result
            .per_iteration
            .iter()
            .map(|i| i.job.sim.makespan_s)
            .sum();
        let sum = |counter: &str| -> u64 {
            result
                .per_iteration
                .iter()
                .map(|i| i.job.counter(counter))
                .sum()
        };
        let bits: Vec<(u64, u64)> = result
            .centroids
            .iter()
            .map(|c| (c.lat.to_bits(), c.lon.to_bits()))
            .collect();
        let overhead = match &baseline {
            None => {
                baseline = Some((makespan, bits));
                "—".to_string()
            }
            Some((base_s, base_bits)) => {
                assert_eq!(*base_bits, bits, "recovery must never change an output bit");
                format!("+{:.1} %", 100.0 * (makespan - base_s) / base_s)
            }
        };
        println!(
            "{label:<42} {makespan:>8.1} s {overhead:>9} {:>8} {:>9} {:>9}",
            sum(builtin::REEXECUTED_MAPS),
            sum(builtin::FAILED_OVER_READS),
            result
                .per_iteration
                .iter()
                .map(|i| i.job.sim.crash_killed_attempts)
                .sum::<usize>(),
        );
    }
    println!(
        "\nEvery crash scenario converged to bit-identical centroids: the \
         jobtracker re-executes the dead node's map outputs on survivors \
         and map tasks read from living replicas, so failures \
         cost only virtual time — never correctness."
    );
}
