//! Rates of single public functions of each crate, measured on a fixed
//! slice of the workload's own input.
//!
//! Each rate is the stated work count over the median time of
//! [`CALLS`] calls. They exist to say *which layer* moved when an
//! end-to-end number moves, so a traced run measures only the functions
//! its workload calls (`README.md` has the table); the others read 0.

use crate::stats::median;
use crate::workloads::{Kind, Prepared};
use gepeto::djcluster::EncodedNeighborhood;
use gepeto::sampling::{self, SamplingConfig, Technique};
use gepeto::spill_codecs::trace_codec;
use gepeto_geo::{
    assign_points_pooled, CentroidsSoa, ClusterSum, DistanceMetric, PointsSoa, RTree,
};
use gepeto_geolife::{GeneratorConfig, SyntheticGeoLife};
use gepeto_mapred::spill::{seal_run, SpillDir, SpillMerge};
use gepeto_mapred::{
    commit, group_sorted, group_unsorted, ChaosPlan, Emitter, FnMapper, MapOnlyJob,
};
use gepeto_model::{Dataset, GeoPoint, MobilityTrace, UserId};
use gepeto_synth::SynthConfig;
use std::hint::black_box;
use std::time::Instant;

/// Calls per rate; the median of them is reported.
pub const CALLS: usize = 11;

/// Traces in the slice of the workload's input the rates run on.
const SLICE_TRACES: usize = 500_000;

/// Sorted runs the merge rate reads, as a reducer of `regroup-spill`
/// does.
const MERGE_RUNS: usize = 4;

/// One measured rate.
#[derive(Debug, Clone)]
pub struct Rate {
    /// Metric name, `layer.metric`.
    pub name: &'static str,
    /// Work per second (or seconds, or µs: the metric table has the unit).
    pub value: f64,
    /// The work one call did, for the printed line.
    pub work: String,
}

/// Median seconds of [`CALLS`] calls of `f`, each on a fresh `setup()`
/// value built outside the timed region.
fn median_secs<T, R>(mut setup: impl FnMut() -> T, mut f: impl FnMut(T) -> R) -> f64 {
    let times: Vec<f64> = (0..CALLS)
        .map(|_| {
            let input = setup();
            let started = Instant::now();
            black_box(f(black_box(input)));
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

struct Rates(Vec<Rate>);

impl Rates {
    /// Records `work` units per second of `f`, scaled by `per` (1e6 for
    /// mega-units per second).
    fn per_second<T, R>(
        &mut self,
        name: &'static str,
        work: f64,
        per: f64,
        what: &str,
        setup: impl FnMut() -> T,
        f: impl FnMut(T) -> R,
    ) {
        let secs = median_secs(setup, f);
        self.0.push(Rate {
            name,
            value: work / per / secs,
            work: format!("{work} {what} per call"),
        });
    }
}

/// Measures the public-function rates of the functions `prepared`'s
/// workload calls. `seed` feeds the generator; everything else runs on
/// the first [`SLICE_TRACES`] traces of the workload's input.
pub fn measure(
    prepared: &Prepared,
    seed: u64,
    spill_root: &std::path::Path,
) -> Result<Vec<Rate>, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut rates = Rates(Vec::new());
    let cluster = prepared.cluster();
    let kind = prepared.kind();
    let regroup = matches!(kind, Kind::RegroupSpill | Kind::RegroupMem);

    let slice: Vec<MobilityTrace> = prepared
        .dfs()
        .iter_records("input")
        .map_err(|e| err(&e))?
        .take(SLICE_TRACES)
        .collect::<Result<_, _>>()
        .map_err(|e| err(&e))?;
    let n = slice.len() as f64;
    let plt_mb = slice.iter().map(|t| t.approx_plt_bytes()).sum::<usize>() as f64 / 1e6;

    // --- generators and DFS (set-up cost) ------------------------------
    if kind == Kind::DjclusterPoi {
        let geolife = SyntheticGeoLife::new(GeneratorConfig {
            users: 16,
            scale: 0.005,
            seed,
            ..GeneratorConfig::paper()
        });
        let geolife_traces = geolife.generate().num_traces() as f64;
        rates.per_second(
            "geolife.gen_mtraces_s",
            geolife_traces,
            1e6,
            "traces",
            || (),
            |()| geolife.generate().num_traces(),
        );
    } else {
        let synth = SynthConfig::new(10_000).seed(seed);
        let synth_traces = synth.stream().count() as f64;
        rates.per_second(
            "synth.gen_mtraces_s",
            synth_traces,
            1e6,
            "traces",
            || (),
            |()| synth.stream().count(),
        );
    }
    let chunk_bytes = prepared
        .dfs()
        .block_bytes()
        .min(slice.len() * 64 / 4)
        .max(4096);
    rates.per_second(
        "dfs.put_mb_s",
        plt_mb,
        1.0,
        "MB of PLT text",
        || gepeto::dfs_io::trace_dfs(cluster, chunk_bytes),
        |mut dfs| {
            dfs.put_from_iter("slice", slice.iter().copied(), |t| t.approx_plt_bytes())
                .expect("fresh DFS");
            dfs
        },
    );
    let mut slice_dfs = gepeto::dfs_io::trace_dfs(cluster, chunk_bytes);
    slice_dfs
        .put_from_iter("slice", slice.iter().copied(), |t| t.approx_plt_bytes())
        .map_err(|e| err(&e))?;
    rates.per_second(
        "dfs.scan_mb_s",
        plt_mb,
        1.0,
        "MB of PLT text",
        || (),
        |()| {
            slice_dfs
                .iter_records("slice")
                .expect("file exists")
                .count()
        },
    );

    // --- job engine ----------------------------------------------------
    let noop =
        FnMapper::new(|_offset: u64, _trace: &MobilityTrace, _out: &mut Emitter<UserId, u64>| {});
    // One such job takes tens of microseconds; a call times a batch.
    const JOBS: usize = 200;
    let jobs_secs = median_secs(
        || (),
        |()| {
            for _ in 0..JOBS {
                let job = MapOnlyJob::new("noop", cluster, &slice_dfs, "slice", noop.clone());
                black_box(job.run().expect("no-op job"));
            }
        },
    );
    rates.0.push(Rate {
        name: "job.noop_maponly_s",
        value: jobs_secs / JOBS as f64,
        work: format!(
            "{JOBS} map-only jobs over {} chunks emitting nothing per call",
            slice_dfs.num_blocks("slice").unwrap_or(0)
        ),
    });
    let pairs: Vec<(UserId, MobilityTrace)> = slice.iter().map(|t| (t.user, *t)).collect();
    match kind {
        // The budgeted shuffle merges sealed runs and groups nothing in
        // memory.
        Kind::RegroupSpill => spill_and_commit(&mut rates, &pairs, spill_root)?,
        Kind::RegroupMem => rates.per_second(
            "job.group_sorted_mpairs_s",
            n,
            1e6,
            "pairs",
            || pairs.clone(),
            group_sorted,
        ),
        Kind::KmeansLloyd | Kind::DjclusterPoi => rates.per_second(
            "job.group_unsorted_mpairs_s",
            n,
            1e6,
            "pairs",
            || pairs.clone(),
            group_unsorted,
        ),
    }
    let points: Vec<GeoPoint> = slice.iter().map(|t| t.point).collect();
    match kind {
        Kind::KmeansLloyd => kernels_and_pool(&mut rates, &points, seed),
        Kind::DjclusterPoi => index_and_codec(&mut rates, &points),
        Kind::RegroupSpill | Kind::RegroupMem => {}
    }
    if regroup || kind == Kind::DjclusterPoi {
        let dataset = Dataset::from_traces(slice.iter().copied());
        let window = SamplingConfig::new(60, Technique::ClosestToUpperLimit);
        rates.per_second(
            "core.sample_trail_mtraces_s",
            n,
            1e6,
            "traces",
            || (),
            |()| {
                dataset
                    .trails()
                    .map(|trail| sampling::sample_trail(trail, &window).len())
                    .sum::<usize>()
            },
        );
    }
    Ok(rates.0)
}

/// The out-of-core tier's functions: codec, sealed runs, merge, commit.
fn spill_and_commit(
    rates: &mut Rates,
    pairs: &[(UserId, MobilityTrace)],
    spill_root: &std::path::Path,
) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let none = ChaosPlan::none();
    let codec = trace_codec();
    let mut encoded = Vec::new();
    for (k, v) in pairs {
        codec.encode(k, v, &mut encoded);
    }
    let encoded_mb = encoded.len() as f64 / 1e6;
    rates.per_second(
        "spill.encode_mb_s",
        encoded_mb,
        1.0,
        "MB encoded",
        || Vec::with_capacity(encoded.len()),
        |mut out: Vec<u8>| {
            for (k, v) in pairs {
                codec.encode(k, v, &mut out);
            }
            out
        },
    );
    rates.per_second(
        "spill.decode_mb_s",
        encoded_mb,
        1.0,
        "MB decoded",
        || (),
        |()| {
            let mut input = encoded.as_slice();
            let mut decoded = 0usize;
            while codec.decode(&mut input).is_some() {
                decoded += 1;
            }
            assert_eq!(decoded, pairs.len(), "codec round trip");
        },
    );
    let dir = SpillDir::create_in(spill_root, "layer-rates", None, None)?;
    let run_len = pairs.len().div_ceil(MERGE_RUNS);
    let (first_run, _) =
        seal_run(&codec, &dir, "size", &pairs[..run_len], &none).map_err(|e| err(&e))?;
    rates.per_second(
        "spill.seal_mb_s",
        first_run.bytes as f64 / 1e6,
        1.0,
        "MB sealed (encode, commit, verify)",
        || (),
        |()| seal_run(&codec, &dir, "seal", &pairs[..run_len], &none).expect("seal"),
    );
    // `pairs` is user-major, so consecutive quarters are sorted runs.
    let runs = pairs
        .chunks(run_len)
        .map(|run| seal_run(&codec, &dir, "merge", run, &none).map(|(r, _)| r))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| err(&e))?;
    let merged_mb = runs.iter().map(|r| r.bytes).sum::<u64>() as f64 / 1e6;
    rates.per_second(
        "spill.merge_mb_s",
        merged_mb,
        1.0,
        &format!("MB merged from {} runs", runs.len()),
        || (),
        |()| {
            let mut merge = SpillMerge::open(&runs, &codec).expect("open runs");
            let mut merged = 0usize;
            while merge.next_pair().expect("read run").is_some() {
                merged += 1;
            }
            assert_eq!(merged, pairs.len(), "merge lost pairs");
        },
    );
    let committed = dir.next_file("commit");
    rates.per_second(
        "commit.commit_mb_s",
        encoded_mb,
        1.0,
        "MB committed (write, fsync, rename)",
        || (),
        |()| commit::commit_bytes(&committed, &encoded, "layer-rates", 0, &none).expect("commit"),
    );
    rates.per_second(
        "commit.verify_deep_mb_s",
        encoded_mb,
        1.0,
        "MB re-hashed",
        || (),
        |()| commit::verify_deep(&committed).expect("verify"),
    );
    Ok(())
}

/// K-means' assignment kernels and the pool that runs them.
fn kernels_and_pool(rates: &mut Rates, points: &[GeoPoint], seed: u64) {
    let n = points.len() as f64;
    let columns = PointsSoa::from_points(points);
    let centroids = gepeto::kmeans::initial_centroids(points, 11, seed);
    let soa = CentroidsSoa::new(&centroids, DistanceMetric::SquaredEuclidean);
    let fresh_sums = || vec![ClusterSum::default(); centroids.len()];
    rates.per_second(
        "geo.assign_sum_mpts_s",
        n,
        1e6,
        "points x 11 centroids",
        fresh_sums,
        |mut sums| soa.assign_sum(&columns.lat, &columns.lon, &mut sums),
    );
    rates.per_second(
        "geo.assign_sum_scalar_mpts_s",
        n,
        1e6,
        "points x 11 centroids",
        fresh_sums,
        |mut sums| soa.assign_sum_scalar(&columns.lat, &columns.lon, &mut sums),
    );
    rates.per_second(
        "geo.assign_pooled_mpts_s",
        n,
        1e6,
        "points x 11 centroids",
        || (),
        |()| assign_points_pooled(points, &soa),
    );
    const DISPATCHED: usize = 200_000;
    let dispatch_secs = median_secs(
        || (),
        |()| {
            gepeto_pool::global().run(DISPATCHED, &|i| {
                black_box(i);
            })
        },
    );
    rates.0.push(Rate {
        name: "pool.dispatch_us_per_task",
        value: dispatch_secs * 1e6 / DISPATCHED as f64,
        work: format!("{DISPATCHED} empty tasks per call"),
    });
}

/// DJ-Cluster's spatial index and neighbourhood codec.
fn index_and_codec(rates: &mut Rates, points: &[GeoPoint]) {
    let n = points.len() as f64;
    let items: Vec<(GeoPoint, u64)> = points
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, i as u64))
        .collect();
    rates.per_second(
        "geo.rtree_bulk_load_mpts_s",
        n,
        1e6,
        "points",
        || items.clone(),
        RTree::bulk_load,
    );
    let tree = RTree::bulk_load(items);
    // Dense GeoLife dwell spots answer with hundreds of neighbours, so the
    // query count stays small enough for the slowest input.
    let queries: Vec<GeoPoint> = points.iter().step_by(100).copied().collect();
    let radius_m = gepeto::djcluster::DjConfig::default().radius_m;
    rates.per_second(
        "geo.rtree_radius_kqueries_s",
        queries.len() as f64,
        1e3,
        &format!("radius-{radius_m}-m queries"),
        || (),
        |()| {
            queries
                .iter()
                .map(|&q| tree.within_radius_m(q, radius_m).len())
                .sum::<usize>()
        },
    );
    // Neighbourhoods as the mapper emits them: ascending ids, 64 each,
    // with the gaps of a query result in a 200 k-entry tree.
    let neighbourhoods: Vec<Vec<u64>> = (0..2_000u64)
        .map(|q| (0..64).map(|i| q * 97 + i * (1 + q % 7)).collect())
        .collect();
    rates.per_second(
        "core.neighborhood_codec_mids_s",
        (neighbourhoods.len() * 64) as f64,
        1e6,
        "ids encoded and decoded",
        || (),
        |()| {
            neighbourhoods
                .iter()
                .map(|ids| EncodedNeighborhood::encode_sorted(ids).iter().sum::<u64>())
                .fold(0u64, u64::wrapping_add)
        },
    );
}
