//! Quickstart: the full GEPETO-on-MapReduce loop in one file.
//!
//! Generates a small synthetic GeoLife-like dataset, stores it in the
//! simulated DFS of a local cluster, then runs the paper's three
//! MapReduced algorithms: down-sampling (§V), k-means (§VI) and
//! DJ-Cluster with its preprocessing pipeline (§VII).
//!
//! Run with: `cargo run --release --example quickstart`

use gepeto::prelude::*;
use gepeto_geo::DistanceMetric;

fn main() {
    // 1. A synthetic dataset calibrated to the paper's GeoLife cut
    //    (178 users / 2 M traces at scale 1.0; here 20 users, ~2 % scale).
    let dataset = SyntheticGeoLife::new(GeneratorConfig {
        users: 20,
        scale: 0.02,
        ..GeneratorConfig::paper()
    })
    .generate();
    println!("== dataset ==\n{}\n", DatasetStats::compute(&dataset));

    // 2. Store it in the DFS of a simulated cluster. Chunk size is the
    //    paper's Table III lever; 256 KiB gives a handful of map tasks at
    //    this scale.
    let cluster = Cluster::local(4, 4);
    let ctx = ExecCtx::new(&cluster);
    let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, 256 * 1024);
    gepeto::dfs_io::put_dataset(&mut dfs, "geolife", &dataset).unwrap();
    println!(
        "stored as {} chunks of ≤ {} KiB",
        dfs.num_blocks("geolife").unwrap(),
        dfs.block_bytes() / 1024
    );

    // 3. Down-sampling as a map-only job (Figure 2: closest to the upper
    //    limit of each 1-minute window).
    let scfg = sampling::SamplingConfig::new(60, sampling::Technique::ClosestToUpperLimit);
    let (sampled, stats, _) = sampling::mapreduce_sample_in(&ctx, &dfs, "geolife", &scfg).unwrap();
    println!(
        "\n== sampling ==\n{} -> {} traces in {} map tasks ({:?} real)",
        dataset.num_traces(),
        sampled.num_traces(),
        stats.map_tasks,
        stats.real_elapsed
    );

    // 4. MapReduce k-means: one job per iteration (Figure 4).
    let kcfg = kmeans::KMeansConfig {
        k: 8,
        convergence_delta: 1e-6,
        max_iterations: 40,
        ..kmeans::KMeansConfig::paper(DistanceMetric::SquaredEuclidean)
    };
    let km = kmeans::mapreduce_kmeans_in(&ctx, &dfs, "geolife", &kcfg).unwrap();
    println!(
        "\n== k-means ==\nk={} converged={} after {} iterations",
        kcfg.k, km.converged, km.iterations
    );
    for (i, c) in km.centroids.iter().take(3).enumerate() {
        println!("  centroid {i}: ({:.5}, {:.5})", c.lat, c.lon);
    }

    // 5. DJ-Cluster: preprocessing pipeline (Figure 5) + clustering with
    //    an R-tree built by MapReduce (Figure 6).
    gepeto::dfs_io::put_dataset(&mut dfs, "sampled", &sampled).unwrap();
    let djcfg = djcluster::DjConfig::default();
    let rtree_cfg = gepeto::rtree_build::RTreeBuildConfig::default();
    let (clustering, pre, _, _) =
        djcluster::mapreduce_djcluster_full_in(&ctx, &mut dfs, "sampled", &djcfg, Some(&rtree_cfg))
            .unwrap();
    println!(
        "\n== DJ-Cluster ==\npreprocessing: {} -> {} -> {} traces",
        pre.input, pre.after_speed_filter, pre.after_dedup
    );
    println!(
        "{} clusters (candidate POIs), {} noise traces",
        clustering.clusters.len(),
        clustering.noise
    );
}
