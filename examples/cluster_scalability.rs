//! Cluster-scalability study: the same k-means iteration replayed on
//! virtual clusters of growing size — the "distribution and
//! parallelization" motivation of §IV made visible.
//!
//! Tasks really execute on host threads; the per-task measured times are
//! then scheduled onto 1–16 virtual worker nodes (Parapluie-class) to
//! show how the simulated iteration time scales, and what chunk size does
//! to it (the paper's Table III lever).
//!
//! Run with: `cargo run --release --example cluster_scalability`

use gepeto::prelude::*;
use gepeto_geo::DistanceMetric;
use gepeto_mapred::{SimParams, Topology};

fn main() {
    let dataset = SyntheticGeoLife::new(GeneratorConfig {
        users: 40,
        scale: 0.05,
        ..GeneratorConfig::paper()
    })
    .generate();
    println!(
        "dataset: {} traces (~{:.1} MB as PLT)\n",
        dataset.num_traces(),
        dataset.approx_plt_bytes() as f64 / 1e6
    );

    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>20}",
        "nodes", "chunk", "map tasks", "sim iter", "locality d/r/r"
    );
    for &nodes in &[1usize, 2, 5, 10, 16] {
        for &chunk_kb in &[64usize, 256] {
            // 4 slots per node so the task count exceeds the cluster's
            // capacity at small sizes — the regime where adding nodes pays.
            let cluster = Cluster {
                topology: Topology::new(nodes, 2.min(nodes), 4),
                sim: SimParams::parapluie(),
                chaos: gepeto_mapred::ChaosPlan::none(),
            };
            let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, chunk_kb * 1024);
            gepeto::dfs_io::put_dataset(&mut dfs, "pts", &dataset).unwrap();
            let kcfg = kmeans::KMeansConfig {
                k: 11,
                use_combiner: true,
                ..kmeans::KMeansConfig::paper(DistanceMetric::Haversine)
            };
            let centroids = kmeans::initial_centroids(
                &dataset.iter_traces().map(|t| t.point).collect::<Vec<_>>(),
                kcfg.k,
                kcfg.seed,
            );
            let ctx = ExecCtx::new(&cluster);
            let (_, stats, _) =
                kmeans::mapreduce_iteration_in(&ctx, &dfs, "pts", 1, &centroids, &kcfg).unwrap();
            println!(
                "{nodes:>6} {:>8}KB {:>12} {:>10.1} s {:>14}/{}/{}",
                chunk_kb,
                stats.map_tasks,
                stats.sim.makespan_s,
                stats.sim.data_local,
                stats.sim.rack_local,
                stats.sim.remote
            );
        }
    }
    println!(
        "\nMore nodes shorten the simulated iteration until the task count \
         stops covering the slots; smaller chunks create more, shorter map \
         tasks, which schedule better — the §VI observation that \"a \
         smaller chunk size leads to a larger number of chunks … a higher \
         number of mappers working in parallel will improve the \
         computational time\"."
    );
}
