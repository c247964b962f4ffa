//! k-means clustering (§VI, Figure 4, Tables II–III).
//!
//! The MapReduce formulation implements **each iteration as one MapReduce
//! job**: the map phase assigns every mobility trace to its closest
//! centroid (Algorithm 1), the reduce phase averages each cluster's
//! points into the new centroid (Algorithm 2), and the driver
//! (Algorithm 3) iterates until the centroids stabilize or `maxIter` is
//! reached. The initialization "requires no distribution because it is
//! computationally cheap": k random traces are drawn on a single node.
//!
//! The related-work optimization §VI discusses — pre-summing each
//! mapper's points locally so only one partial sum per (mapper, cluster)
//! is shuffled — is the default ([`KMeansConfig::use_combiner`]), and it
//! happens *inside* the map task: [`KMeansMapper`] overrides
//! [`Mapper::map_block`] and hands the chunk's traces, read in place, to
//! the fused assign + partial-sum kernel
//! ([`CentroidsSoa::assign_sum_points`], as wide as the host's vector
//! registers), so a task emits at most `k` pairs instead of one per
//! trace. An engine-level combiner was measured first and bought nothing
//! — the per-trace pairs were still emitted, bucketed and grouped, only
//! earlier (EXPERIMENTS.md) — and the engine no longer has one; this is
//! why the sums are taken before any pair exists. `use_combiner: false`
//! keeps the paper's Algorithm 1 verbatim (one pair per trace) for the
//! Table III shuffle volumes.
//!
//! ```
//! use gepeto::kmeans::{sequential_kmeans, KMeansConfig};
//! use gepeto_geo::DistanceMetric;
//! use gepeto_model::GeoPoint;
//!
//! // Two obvious blobs.
//! let mut points = Vec::new();
//! for i in 0..20 {
//!     points.push(GeoPoint::new(39.90 + i as f64 * 1e-4, 116.40));
//!     points.push(GeoPoint::new(39.99 + i as f64 * 1e-4, 116.49));
//! }
//! let cfg = KMeansConfig { k: 2, convergence_delta: 1e-9, ..KMeansConfig::paper(DistanceMetric::SquaredEuclidean) };
//! let result = sequential_kmeans(&points, &cfg);
//! assert!(result.converged);
//! assert_eq!(result.centroids.len(), 2);
//! ```

use gepeto_geo::{assign_points_pooled, CentroidsSoa, ClusterSum, DistanceMetric};
use gepeto_mapred::counters::builtin;
use gepeto_mapred::{
    map_records, Cluster, Counters, Dfs, DfsAccess, DistributedCache, Emitter, ExecCtx, Group,
    JobConfig, JobError, JobStats, JournalEntry, MapReduceJob, Mapper, Reducer, TaskContext,
};
use gepeto_model::{GeoPoint, MobilityTrace};
use gepeto_telemetry::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Cache key under which the current centroids are shipped to mappers
/// (the paper's mappers `load from file` in `setup`; the distributed
/// cache is our file).
pub const CENTROIDS_CACHE_KEY: &str = "kmeans.centroids";

/// The runtime arguments of the paper's Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters (`k`); the paper's experiments use 11.
    pub k: usize,
    /// `distanceMeasure`: squared Euclidean or Haversine in the paper.
    pub distance: DistanceMetric,
    /// `convergencedelta`: iteration stops when no centroid moves more
    /// than this (units of `distance`); the paper uses 0.5.
    pub convergence_delta: f64,
    /// `maxIter`: hard iteration cap; the paper uses 150.
    pub max_iterations: usize,
    /// Seed of the single-node random initialization.
    pub seed: u64,
    /// How a map task hands its assignments to the shuffle.
    ///
    /// `true` (the default): **in-mapper fused sums** — the task runs the
    /// lane assign + partial-sum kernel over its whole chunk and emits one
    /// [`ClusterSum`] per non-empty cluster (§VI related work's combiner,
    /// taken before any per-trace pair exists).
    ///
    /// `false`: **per-trace emit** — the paper's Algorithm 1, one
    /// `(cluster, point)` pair per trace. Kept because the Table III
    /// reproduction (`gepeto-bench tables`) needs the shuffle volume the
    /// cluster simulator was calibrated on; `tests/spill.rs` also uses it
    /// as its large spilling shuffle.
    ///
    /// Both sides fold a cluster's points in chunk order within a task
    /// and tasks in map order in the reducer, so either is deterministic
    /// at any thread count; they differ from each other only by
    /// floating-point reassociation (well under 1e-9°).
    pub use_combiner: bool,
}

impl KMeansConfig {
    /// The paper's runtime arguments: k = 11, delta = 0.5, maxIter = 150.
    pub fn paper(distance: DistanceMetric) -> Self {
        Self {
            k: 11,
            distance,
            convergence_delta: 0.5,
            max_iterations: 150,
            seed: 2,
            use_combiner: true,
        }
    }
}

/// Statistics of one k-means iteration (one MapReduce job).
#[derive(Debug, Clone)]
pub struct IterationStats {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Largest centroid movement in this iteration (metric units).
    pub max_shift: f64,
    /// The iteration job's engine statistics.
    pub job: JobStats,
}

/// The outcome of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Final centroids, cluster id = index.
    pub centroids: Vec<GeoPoint>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the convergence delta was reached before `maxIter`.
    pub converged: bool,
    /// Per-iteration job statistics (empty for the sequential runner).
    pub per_iteration: Vec<IterationStats>,
    /// Whole-job re-submissions the driver needed (always 0 under
    /// [`gepeto_mapred::RetryPolicy::none`]).
    pub job_retries: u64,
}

/// Index of the centroid closest to `p` under `metric`.
pub fn nearest_centroid(p: GeoPoint, centroids: &[GeoPoint], metric: DistanceMetric) -> u32 {
    debug_assert!(!centroids.is_empty());
    let mut best = 0u32;
    let mut best_d = f64::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d = metric.between(p, *c);
        if d < best_d {
            best_d = d;
            best = i as u32;
        }
    }
    best
}

/// Assigns every point to its nearest centroid (final labeling pass).
///
/// Runs on the columnar [`CentroidsSoa`] kernel — the centroid-side
/// trigonometry is hoisted out of the per-point loop, while the argmin is
/// bit-identical to [`nearest_centroid`]. Chunks fan out over the global
/// work-stealing pool; labels come back in input order regardless of the
/// thread count.
pub fn assign_points(
    points: &[GeoPoint],
    centroids: &[GeoPoint],
    metric: DistanceMetric,
) -> Vec<u32> {
    let soa = CentroidsSoa::new(centroids, metric);
    assign_points_pooled(points, &soa)
}

/// Single-node random initialization: k distinct traces from the input
/// (k is clamped to the dataset size).
pub fn initial_centroids(points: &[GeoPoint], k: usize, seed: u64) -> Vec<GeoPoint> {
    assert!(!points.is_empty(), "cannot initialize k-means on no points");
    let k = k.min(points.len());
    let mut rng = StdRng::seed_from_u64(seed);
    // Partial Fisher–Yates over indices.
    let mut indices: Vec<usize> = (0..points.len()).collect();
    for i in 0..k {
        let j = rng.random_range(i..indices.len());
        indices.swap(i, j);
    }
    indices[..k].iter().map(|&i| points[i]).collect()
}

/// The chunk size of the sequential assign+sum reduction. Chunk results
/// are folded in chunk order, so the accumulation order (and hence the
/// floating-point result) is independent of the worker count.
const SEQ_CHUNK: usize = 16_384;

/// Turns per-cluster [`ClusterSum`]s into new centroids; clusters that
/// received no point keep their previous centroid.
fn sums_to_centroids(sums: &[ClusterSum], centroids: &[GeoPoint]) -> Vec<GeoPoint> {
    sums.iter()
        .zip(centroids)
        .map(|(s, &old)| s.mean().unwrap_or(old))
        .collect()
}

/// One sequential assignment+update step; returns the new centroids.
/// Empty clusters keep their previous centroid.
///
/// Runs the fused assign + partial-sum kernel of [`CentroidsSoa`]: one
/// pass per chunk that both assigns and accumulates, with the same
/// chunking and fold order (and therefore bit-identical centroids) as
/// the original two-pass loop.
pub fn sequential_iteration(
    points: &[GeoPoint],
    centroids: &[GeoPoint],
    metric: DistanceMetric,
) -> Vec<GeoPoint> {
    let k = centroids.len();
    let soa = CentroidsSoa::new(centroids, metric);
    let chunks: Vec<&[GeoPoint]> = points.chunks(SEQ_CHUNK).collect();
    let partials = gepeto_pool::global().map_indexed(chunks.len(), |c| {
        let mut local = vec![ClusterSum::default(); k];
        soa.assign_sum_points(chunks[c], &mut local);
        local
    });
    sums_to_centroids(&merge_chunk_sums(partials, k), centroids)
}

/// Folds per-chunk partial sums **in chunk order** — the fixed
/// accumulation order that keeps centroids bit-identical at any thread
/// count (and to the pre-pool sequential reduction).
fn merge_chunk_sums(partials: Vec<Vec<ClusterSum>>, k: usize) -> Vec<ClusterSum> {
    let mut total = vec![ClusterSum::default(); k];
    for partial in &partials {
        for (t, p) in total.iter_mut().zip(partial) {
            t.merge(p);
        }
    }
    total
}

/// The full sequential baseline.
pub fn sequential_kmeans(points: &[GeoPoint], cfg: &KMeansConfig) -> KMeansResult {
    let mut centroids = initial_centroids(points, cfg.k, cfg.seed);
    let mut iterations = 0;
    let mut converged = false;
    while iterations < cfg.max_iterations {
        let next = sequential_iteration(points, &centroids, cfg.distance);
        iterations += 1;
        let shift = max_shift(&centroids, &next, cfg.distance);
        centroids = next;
        if shift <= cfg.convergence_delta {
            converged = true;
            break;
        }
    }
    KMeansResult {
        centroids,
        iterations,
        converged,
        per_iteration: Vec::new(),
        job_retries: 0,
    }
}

/// Mean distance from each point to its assigned centroid — the
/// objective k-means descends; used to pick the best restart.
pub fn within_cluster_cost(
    points: &[GeoPoint],
    centroids: &[GeoPoint],
    metric: DistanceMetric,
) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    // Chunks run on the pool; the final sum folds every per-point
    // distance in input order (not per-chunk partials), reproducing the
    // sequential accumulation bit for bit at any thread count.
    let chunks: Vec<&[GeoPoint]> = points.chunks(SEQ_CHUNK).collect();
    let per_chunk: Vec<Vec<f64>> = gepeto_pool::global().map_indexed(chunks.len(), |i| {
        chunks[i]
            .iter()
            .map(|&p| {
                centroids
                    .iter()
                    .map(|&c| metric.between(p, c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    });
    let total: f64 = per_chunk.iter().flatten().sum();
    total / points.len() as f64
}

/// Runs [`sequential_kmeans`] `restarts` times with seeds
/// `cfg.seed..cfg.seed + restarts` and keeps the run with the lowest
/// [`within_cluster_cost`] — the standard defense against the local
/// minima the paper lists among k-means' limitations.
pub fn sequential_kmeans_restarts(
    points: &[GeoPoint],
    cfg: &KMeansConfig,
    restarts: usize,
) -> KMeansResult {
    assert!(restarts >= 1);
    (0..restarts as u64)
        .map(|i| {
            sequential_kmeans(
                points,
                &KMeansConfig {
                    seed: cfg.seed + i,
                    ..cfg.clone()
                },
            )
        })
        .min_by(|a, b| {
            within_cluster_cost(points, &a.centroids, cfg.distance)
                .partial_cmp(&within_cluster_cost(points, &b.centroids, cfg.distance))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("at least one restart")
}

fn max_shift(old: &[GeoPoint], new: &[GeoPoint], metric: DistanceMetric) -> f64 {
    old.iter()
        .zip(new)
        .map(|(&a, &b)| metric.between(a, b))
        .fold(0.0, f64::max)
}

/// Algorithm 1: the assignment mapper. Loads the centroids in `setup`,
/// then either emits one `ClusterSum` per trace (`map`, the paper's
/// formulation) or — with fused sums on — overrides `map_block` to run
/// the fused assign + partial-sum kernel of [`CentroidsSoa`] over the
/// whole chunk and emit one `ClusterSum` per non-empty cluster.
///
/// Distance evaluations are accumulated locally and flushed to the
/// [`builtin::DISTANCE_EVALS`] counter in `cleanup`, so the hot loop
/// never touches the shared counter lock.
#[derive(Clone)]
pub struct KMeansMapper {
    metric: DistanceMetric,
    soa: Arc<CentroidsSoa>,
    /// In-mapper fused sums instead of one pair per trace.
    fused_sums: bool,
    distance_evals: u64,
    counters: Option<Counters>,
}

impl KMeansMapper {
    /// The mapper for `metric`: in-mapper fused sums when `fused_sums`,
    /// one pair per trace otherwise ([`KMeansConfig::use_combiner`]).
    pub fn new(metric: DistanceMetric, fused_sums: bool) -> Self {
        Self {
            metric,
            soa: Arc::new(CentroidsSoa::new(&[], metric)),
            fused_sums,
            distance_evals: 0,
            counters: None,
        }
    }
}

impl Mapper<MobilityTrace> for KMeansMapper {
    type KOut = u32;
    type VOut = ClusterSum;

    fn setup(&mut self, ctx: &TaskContext<'_>) {
        let centroids = ctx.cache.expect::<Vec<GeoPoint>>(CENTROIDS_CACHE_KEY);
        let metric = ctx
            .config
            .get("distanceMeasure")
            .and_then(DistanceMetric::parse);
        if let Some(m) = metric {
            self.metric = m;
        }
        self.soa = Arc::new(CentroidsSoa::new(&centroids, self.metric));
        self.counters = Some(ctx.counters.clone());
    }

    fn map(&mut self, _offset: u64, value: &MobilityTrace, out: &mut Emitter<u32, ClusterSum>) {
        let cid = self.soa.nearest(value.point);
        self.distance_evals += self.soa.len() as u64;
        out.emit(cid, ClusterSum::of(value.point));
    }

    /// With fused sums on: exactly what the per-record loop followed by an
    /// in-order per-cluster fold of the chunk would emit (`to_bits`-equal,
    /// property-tested below), in cluster-id order, empty clusters skipped.
    fn map_block(
        &mut self,
        base_offset: u64,
        block: &[MobilityTrace],
        out: &mut Emitter<u32, ClusterSum>,
    ) {
        if !self.fused_sums {
            return map_records(self, base_offset, block, out);
        }
        let mut sums = vec![ClusterSum::default(); self.soa.len()];
        self.distance_evals += self.soa.assign_sum_points(block, &mut sums);
        for (cid, s) in sums.iter().enumerate().filter(|(_, s)| s.count > 0) {
            out.emit(cid as u32, *s);
        }
    }

    fn cleanup(&mut self, _out: &mut Emitter<u32, ClusterSum>) {
        if let Some(c) = &self.counters {
            c.inc(builtin::DISTANCE_EVALS, self.distance_evals);
        }
        self.distance_evals = 0;
    }
}

/// Algorithm 2: the update reducer — averages a cluster's points into the
/// new centroid. Each cluster id is reduced independently and the driver
/// writes the result by id.
#[derive(Clone)]
pub struct KMeansReducer;

impl Reducer<u32, ClusterSum> for KMeansReducer {
    type KOut = u32;
    type VOut = GeoPoint;

    fn reduce(&mut self, key: &u32, vs: Group<'_, ClusterSum>, out: &mut Emitter<u32, GeoPoint>) {
        let mut acc = ClusterSum::default();
        for v in vs.iter() {
            acc.merge(v);
        }
        if let Some(mean) = acc.mean() {
            out.emit(*key, mean);
        }
    }
}

/// Journal label under which the driver checkpoints each finished
/// iteration's centroids.
pub const KMEANS_CHECKPOINT_LABEL: &str = "kmeans";

/// Algorithm 3: the driver — one MapReduce job per iteration until
/// convergence or `maxIter` (Figure 4's workflow), run the way `ctx`
/// says.
///
/// **Telemetry**: the run is wrapped in a `kmeans` span labelled with the
/// assignment `kernel` the host selected, every iteration
/// gets a `kmeans.iteration` span with its job nested under it, and the
/// centroid movement is recorded as a `kmeans.shift` point — the
/// convergence trajectory Figure 4's workflow monitors.
///
/// **Retry**: a whole-job death costs one iteration attempt, never the
/// progress already made — the loop state lives out here, and
/// [`ExecCtx::submit`] re-submits the dead iteration from it. Pass
/// `&mut dfs` so the DFS is healed between attempts.
///
/// **Journal**: each finished iteration's centroids are checkpointed
/// into the journal (bit-exact, via the IEEE-754 bit patterns) and its
/// reduce partitions committed into the run directory. A resumed run
/// restores the last checkpoint, skips the finished iterations entirely,
/// and the in-flight iteration replays whatever reduce partitions it had
/// already committed — so a SIGKILL anywhere lands on the same final
/// centroids as an undisturbed run. `per_iteration` holds only the
/// iterations executed by *this* process.
///
/// # Errors
/// [`JobError::EmptyInput`] when `input` holds no trace to initialize
/// from; otherwise the first job error `ctx.retry` did not absorb.
pub fn mapreduce_kmeans_in<'d>(
    ctx: &ExecCtx<'_>,
    dfs: impl Into<DfsAccess<'d, MobilityTrace>>,
    input: &str,
    cfg: &KMeansConfig,
) -> Result<KMeansResult, JobError> {
    let mut dfs = dfs.into();
    let telemetry = &ctx.telemetry;
    let kernel = CentroidsSoa::new(&[], cfg.distance).kernel();
    let run_span = telemetry.span(
        "kmeans",
        &[
            ("input", input),
            ("k", &cfg.k.to_string()),
            ("kernel", kernel),
        ],
    );
    let restored = ctx
        .journal
        .as_ref()
        .and_then(|j| j.last_checkpoint(KMEANS_CHECKPOINT_LABEL))
        .and_then(|p| decode_kmeans_checkpoint(&p));
    let (mut iterations, mut converged, mut centroids) = match restored {
        Some(state) => state,
        None => (0, false, sample_points(&dfs, input, cfg.k, cfg.seed)?),
    };
    if iterations > 0 {
        telemetry.point("kmeans.resumed", iterations as f64, &[("input", input)]);
    }
    let mut per_iteration = Vec::new();
    let mut job_retries = 0u64;
    while !converged && iterations < cfg.max_iterations {
        // `span()` (not `run_span.child()`) so the iteration enters the
        // recorder's context stack and the iteration's job span nests
        // under it on the critical path.
        let iter_span = telemetry.span(
            "kmeans.iteration",
            &[("iter", &(iterations + 1).to_string())],
        );
        let (next, job, retries) =
            mapreduce_iteration_in(ctx, &mut dfs, input, iterations + 1, &centroids, cfg)?;
        job_retries += u64::from(retries);
        iterations += 1;
        let shift = max_shift(&centroids, &next, cfg.distance);
        telemetry.point("kmeans.shift", shift, &[("iter", &iterations.to_string())]);
        if let Some(m) = telemetry.monitor() {
            m.set_driver_progress(iterations as u64, shift);
        }
        centroids = next;
        converged = shift <= cfg.convergence_delta;
        if let Some(journal) = &ctx.journal {
            journal
                .append(&JournalEntry::Checkpoint {
                    label: KMEANS_CHECKPOINT_LABEL.to_string(),
                    payload: encode_kmeans_checkpoint(iterations, converged, &centroids),
                })
                .map_err(JobError::Io)?;
        }
        iter_span.end();
        per_iteration.push(IterationStats {
            iteration: iterations,
            max_shift: shift,
            job,
        });
    }
    run_span.end();
    Ok(KMeansResult {
        centroids,
        iterations,
        converged,
        per_iteration,
        job_retries,
    })
}

/// Encodes `(iteration, converged, centroids)` as the checkpoint
/// payload: centroid floats travel as hex bit patterns, so the decoded
/// state is the same bits the driver checkpointed.
fn encode_kmeans_checkpoint(iteration: usize, converged: bool, centroids: &[GeoPoint]) -> String {
    let mut s = format!("{iteration} {}", u8::from(converged));
    for c in centroids {
        s.push_str(&format!(
            " {:016x}:{:016x}",
            c.lat.to_bits(),
            c.lon.to_bits()
        ));
    }
    s
}

fn decode_kmeans_checkpoint(payload: &str) -> Option<(usize, bool, Vec<GeoPoint>)> {
    let mut parts = payload.split(' ');
    let iteration = parts.next()?.parse().ok()?;
    let converged = parts.next()? == "1";
    let mut centroids = Vec::new();
    for pair in parts {
        let (lat, lon) = pair.split_once(':')?;
        centroids.push(GeoPoint::new(
            f64::from_bits(u64::from_str_radix(lat, 16).ok()?),
            f64::from_bits(u64::from_str_radix(lon, 16).ok()?),
        ));
    }
    Some((iteration, converged, centroids))
}

/// One MapReduce k-means iteration — assignment (map) + update (reduce)
/// — as one job submitted through `ctx`. Returns the new centroids, the
/// job's statistics and the re-submissions it took.
///
/// `iteration` (1-based) names the job under a journal: reduce artifacts
/// are keyed by job name, so every iteration of a journaled run must be
/// a *uniquely named* job (`kmeans-i{iteration:03}`) — a driver that
/// reused one name would replay a stale iteration's output on resume.
/// Unjournaled, every iteration is `kmeans-iteration`.
pub fn mapreduce_iteration_in<'d>(
    ctx: &ExecCtx<'_>,
    dfs: impl Into<DfsAccess<'d, MobilityTrace>>,
    input: &str,
    iteration: usize,
    centroids: &[GeoPoint],
    cfg: &KMeansConfig,
) -> Result<(Vec<GeoPoint>, JobStats, u32), JobError> {
    let base_name = match ctx.journal {
        Some(_) => format!("kmeans-i{iteration:03}"),
        None => "kmeans-iteration".to_string(),
    };
    let (result, retries) = ctx.submit(&base_name, dfs, |job_name, dfs, budget| {
        let cache = DistributedCache::new().with(CENTROIDS_CACHE_KEY, centroids.to_vec());
        let config = JobConfig::new()
            .set("k", cfg.k)
            .set(
                "distanceMeasure",
                format!("{:?}", cfg.distance).to_lowercase(),
            )
            .set("convergencedelta", cfg.convergence_delta)
            .set("maxIter", cfg.max_iterations);
        let mapper = KMeansMapper::new(cfg.distance, cfg.use_combiner);
        MapReduceJob::new(job_name, ctx.cluster, dfs, input, mapper, KMeansReducer)
            .reducers(ctx.cluster.topology.num_nodes())
            .config(config)
            .cache(cache)
            .pair_bytes(|_, _| std::mem::size_of::<(u32, ClusterSum)>())
            .codecs(
                crate::spill_codecs::point_sum_codec(),
                crate::spill_codecs::centroid_codec(),
            )
            .exec(ctx, budget)
            .run()
    })?;
    // Clusters that received no point keep their previous centroid.
    let mut next = centroids.to_vec();
    for (cid, mean) in result.output {
        next[cid as usize] = mean;
    }
    Ok((next, result.stats, retries))
}

// Kept for `benchmark/`, which is compiled against these two
// signatures.

/// [`mapreduce_kmeans_in`] under [`ExecCtx::new`].
pub fn mapreduce_kmeans(
    cluster: &Cluster,
    dfs: &Dfs<MobilityTrace>,
    input: &str,
    cfg: &KMeansConfig,
) -> Result<KMeansResult, JobError> {
    mapreduce_kmeans_in(&ExecCtx::new(cluster), dfs, input, cfg)
}

/// [`mapreduce_iteration_in`] under [`ExecCtx::new`] plus `telemetry`.
pub fn mapreduce_iteration_with(
    cluster: &Cluster,
    dfs: &Dfs<MobilityTrace>,
    input: &str,
    centroids: &[GeoPoint],
    cfg: &KMeansConfig,
    telemetry: &Recorder,
) -> Result<(Vec<GeoPoint>, JobStats), JobError> {
    let ctx = ExecCtx::new(cluster).traced(telemetry);
    mapreduce_iteration_in(&ctx, dfs, input, 1, centroids, cfg).map(|(next, job, _)| (next, job))
}

/// Draws `k` traces from the input file without reading it entirely —
/// the paper's cheap single-node initialization.
fn sample_points(
    dfs: &Dfs<MobilityTrace>,
    input: &str,
    k: usize,
    seed: u64,
) -> Result<Vec<GeoPoint>, JobError> {
    let total = dfs.num_records(input)?;
    if total == 0 {
        return Err(JobError::EmptyInput(input.to_string()));
    }
    let k = k.min(total);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picks: Vec<usize> = Vec::with_capacity(k);
    while picks.len() < k {
        let idx = rng.random_range(0..total);
        if !picks.contains(&idx) {
            picks.push(idx);
        }
    }
    picks.sort_unstable();
    let mut points = Vec::with_capacity(k);
    let mut next = picks.iter().peekable();
    let mut offset = 0usize;
    'outer: for &block_id in dfs.blocks_of(input)? {
        let block = dfs.block(block_id);
        while let Some(&&idx) = next.peek() {
            if idx < offset + block.data.len() {
                points.push(block.data[idx - offset].point);
                next.next();
            } else {
                offset += block.data.len();
                continue 'outer;
            }
        }
        break;
    }
    Ok(points)
}

// ---------------------------------------------------------------------
// k-medians: the outlier-robust variant §VI alludes to ("another
// drawback of using the mean as the center of the cluster instead of the
// median is that outliers can have a sensible impact").
// ---------------------------------------------------------------------

/// Component-wise median of a set of points (the k-medians center).
pub fn component_median(points: &mut [(f64, f64)]) -> Option<GeoPoint> {
    if points.is_empty() {
        return None;
    }
    let mid = points.len() / 2;
    let med = |vals: &mut Vec<f64>| -> f64 {
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        if vals.len() % 2 == 1 {
            vals[mid]
        } else {
            (vals[mid - 1] + vals[mid]) / 2.0
        }
    };
    let mut lats: Vec<f64> = points.iter().map(|p| p.0).collect();
    let mut lons: Vec<f64> = points.iter().map(|p| p.1).collect();
    Some(GeoPoint::new(med(&mut lats), med(&mut lons)))
}

/// One sequential k-medians step: assign to nearest center, update each
/// center to the component-wise median of its points.
pub fn sequential_median_iteration(
    points: &[GeoPoint],
    centroids: &[GeoPoint],
    metric: DistanceMetric,
) -> Vec<GeoPoint> {
    let k = centroids.len();
    let mut buckets: Vec<Vec<(f64, f64)>> = vec![Vec::new(); k];
    for &p in points {
        buckets[nearest_centroid(p, centroids, metric) as usize].push((p.lat, p.lon));
    }
    buckets
        .iter_mut()
        .zip(centroids)
        .map(|(b, &old)| component_median(b).unwrap_or(old))
        .collect()
}

/// The k-medians assignment mapper: emits the raw point per cluster —
/// unlike the mean, the median is not decomposable, so **no combiner can
/// shrink this shuffle** (the flip side of the §VI optimization).
#[derive(Clone)]
pub struct KMediansMapper {
    metric: DistanceMetric,
    centroids: Arc<Vec<GeoPoint>>,
}

impl Mapper<MobilityTrace> for KMediansMapper {
    type KOut = u32;
    type VOut = (f64, f64);

    fn setup(&mut self, ctx: &TaskContext<'_>) {
        self.centroids = ctx.cache.expect::<Vec<GeoPoint>>(CENTROIDS_CACHE_KEY);
    }

    fn map(&mut self, _offset: u64, value: &MobilityTrace, out: &mut Emitter<u32, (f64, f64)>) {
        let cid = nearest_centroid(value.point, &self.centroids, self.metric);
        out.emit(cid, (value.point.lat, value.point.lon));
    }
}

/// The k-medians update reducer.
#[derive(Clone)]
pub struct KMediansReducer;

impl Reducer<u32, (f64, f64)> for KMediansReducer {
    type KOut = u32;
    type VOut = GeoPoint;

    fn reduce(&mut self, key: &u32, vs: Group<'_, (f64, f64)>, out: &mut Emitter<u32, GeoPoint>) {
        let mut pts: Vec<(f64, f64)> = vs.iter().copied().collect();
        if let Some(center) = component_median(&mut pts) {
            out.emit(*key, center);
        }
    }
}

/// One MapReduce k-medians iteration.
pub fn mapreduce_median_iteration(
    cluster: &Cluster,
    dfs: &Dfs<MobilityTrace>,
    input: &str,
    centroids: &[GeoPoint],
    cfg: &KMeansConfig,
) -> Result<(Vec<GeoPoint>, JobStats), JobError> {
    let cache = DistributedCache::new().with(CENTROIDS_CACHE_KEY, centroids.to_vec());
    let result = MapReduceJob::new(
        "kmedians-iteration",
        cluster,
        dfs,
        input,
        KMediansMapper {
            metric: cfg.distance,
            centroids: Arc::new(Vec::new()),
        },
        KMediansReducer,
    )
    .reducers(cluster.topology.num_nodes())
    .cache(cache)
    .pair_bytes(|_, _| std::mem::size_of::<(u32, (f64, f64))>())
    .run()?;
    let mut next = centroids.to_vec();
    for (cid, center) in result.output {
        next[cid as usize] = center;
    }
    Ok((next, result.stats))
}

// ---------------------------------------------------------------------
// Choosing k: "the parameter has to be specified by the user or inferred
// by cross-validation" (§VI).
// ---------------------------------------------------------------------

/// Cost curve over candidate `k`s plus the elbow pick (the largest
/// relative drop in within-cluster cost, a standard heuristic stand-in
/// for the cross-validation the paper mentions).
pub fn select_k(
    points: &[GeoPoint],
    candidates: &[usize],
    base: &KMeansConfig,
) -> (Vec<(usize, f64)>, usize) {
    assert!(!candidates.is_empty());
    let curve: Vec<(usize, f64)> = candidates
        .iter()
        .map(|&k| {
            let cfg = KMeansConfig { k, ..base.clone() };
            // Restarts smooth out local minima, which would otherwise make
            // the cost curve non-monotone and fool the elbow pick.
            let result = sequential_kmeans_restarts(points, &cfg, 4);
            (
                k,
                within_cluster_cost(points, &result.centroids, cfg.distance),
            )
        })
        .collect();
    let mut best = curve[0].0;
    let mut best_gain = f64::NEG_INFINITY;
    for w in curve.windows(2) {
        let (_, prev_cost) = w[0];
        let (k, cost) = w[1];
        let gain = if prev_cost > 0.0 {
            (prev_cost - cost) / prev_cost
        } else {
            0.0
        };
        if gain > best_gain {
            best_gain = gain;
            best = k;
        }
    }
    (curve, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs_io::{put_dataset, trace_dfs};
    use gepeto_model::{Dataset, Timestamp};

    /// Three well-separated blobs of points.
    fn blobs() -> Vec<GeoPoint> {
        let mut pts = Vec::new();
        for (cx, cy) in [(40.0, 116.0), (40.3, 116.3), (39.7, 116.6)] {
            for i in 0..60 {
                let d = (i as f64) * 1e-4;
                pts.push(GeoPoint::new(cx + d * ((i % 7) as f64 - 3.0) / 3.0, cy + d));
            }
        }
        pts
    }

    fn blob_dataset() -> Dataset {
        Dataset::from_traces(
            blobs()
                .into_iter()
                .enumerate()
                .map(|(i, p)| MobilityTrace::new(0, p, Timestamp(i as i64))),
        )
    }

    fn cfg(metric: DistanceMetric) -> KMeansConfig {
        KMeansConfig {
            k: 3,
            distance: metric,
            convergence_delta: 1e-9,
            max_iterations: 100,
            // A seed whose random init lands one centroid per blob (random
            // initialization can hit local minima, as §VI notes; see also
            // `sequential_kmeans_restarts`).
            seed: 2,
            use_combiner: true,
        }
    }

    #[test]
    fn sequential_finds_the_three_blobs() {
        let points = blobs();
        let result = sequential_kmeans_restarts(&points, &cfg(DistanceMetric::SquaredEuclidean), 8);
        assert!(result.converged);
        assert_eq!(result.centroids.len(), 3);
        // Each blob center has a centroid within ~0.05 degrees.
        for (cx, cy) in [(40.0, 116.0), (40.3, 116.3), (39.7, 116.6)] {
            let best = result
                .centroids
                .iter()
                .map(|c| ((c.lat - cx).powi(2) + (c.lon - cy).powi(2)).sqrt())
                .fold(f64::INFINITY, f64::min);
            assert!(best < 0.05, "no centroid near ({cx},{cy}): {best}");
        }
    }

    #[test]
    fn assignment_is_consistent_with_centroids() {
        let points = blobs();
        let result = sequential_kmeans(&points, &cfg(DistanceMetric::Euclidean));
        let labels = assign_points(&points, &result.centroids, DistanceMetric::Euclidean);
        assert_eq!(labels.len(), points.len());
        // Every point is closer to its own centroid than to the others.
        for (p, &l) in points.iter().zip(&labels) {
            let own = DistanceMetric::Euclidean.between(*p, result.centroids[l as usize]);
            for c in &result.centroids {
                assert!(own <= DistanceMetric::Euclidean.between(*p, *c) + 1e-12);
            }
        }
    }

    #[test]
    fn squared_euclidean_and_euclidean_agree_on_assignment() {
        let points = blobs();
        let cs = initial_centroids(&points, 3, 5);
        assert_eq!(
            assign_points(&points, &cs, DistanceMetric::Euclidean),
            assign_points(&points, &cs, DistanceMetric::SquaredEuclidean),
        );
    }

    #[test]
    fn initial_centroids_are_input_points_and_deterministic() {
        let points = blobs();
        let a = initial_centroids(&points, 5, 99);
        let b = initial_centroids(&points, 5, 99);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        for c in &a {
            assert!(points.iter().any(|p| p == c));
        }
        // Distinct picks.
        for i in 0..a.len() {
            for j in (i + 1)..a.len() {
                assert_ne!(a[i], a[j]);
            }
        }
    }

    #[test]
    fn k_clamped_to_dataset_size() {
        let points = vec![GeoPoint::new(1.0, 2.0), GeoPoint::new(3.0, 4.0)];
        assert_eq!(initial_centroids(&points, 10, 1).len(), 2);
    }

    #[test]
    fn mapreduce_iteration_matches_sequential() {
        let ds = blob_dataset();
        let cluster = Cluster::local(3, 2);
        let ctx = ExecCtx::new(&cluster);
        let mut dfs = trace_dfs(&cluster, 2_048); // several chunks
        put_dataset(&mut dfs, "pts", &ds).unwrap();
        let points = blobs();
        let centroids = initial_centroids(&points, 3, 7);
        let c = cfg(DistanceMetric::SquaredEuclidean);
        let (mr, _, _) = mapreduce_iteration_in(&ctx, &dfs, "pts", 1, &centroids, &c).unwrap();
        let seq = sequential_iteration(&points, &centroids, c.distance);
        for (a, b) in mr.iter().zip(&seq) {
            assert!((a.lat - b.lat).abs() < 1e-9, "{a:?} vs {b:?}");
            assert!((a.lon - b.lon).abs() < 1e-9);
        }
    }

    #[test]
    fn soa_assignment_is_bit_identical_to_scalar_for_all_metrics() {
        let points = blobs();
        let centroids = initial_centroids(&points, 5, 11);
        for metric in [
            DistanceMetric::Euclidean,
            DistanceMetric::SquaredEuclidean,
            DistanceMetric::Manhattan,
            DistanceMetric::Haversine,
        ] {
            let scalar: Vec<u32> = points
                .iter()
                .map(|&p| nearest_centroid(p, &centroids, metric))
                .collect();
            assert_eq!(
                assign_points(&points, &centroids, metric),
                scalar,
                "{metric:?}"
            );
        }
    }

    #[test]
    fn fused_iteration_is_bit_identical_to_two_pass_reference() {
        let points = blobs();
        let centroids = initial_centroids(&points, 3, 7);
        for metric in [DistanceMetric::SquaredEuclidean, DistanceMetric::Haversine] {
            // The pre-optimization reference: assign, then sum, in input
            // order (one chunk — blobs() is far below the chunk size).
            let mut sums = vec![ClusterSum::default(); centroids.len()];
            for &p in &points {
                sums[nearest_centroid(p, &centroids, metric) as usize].merge(&ClusterSum::of(p));
            }
            let want: Vec<GeoPoint> = sums
                .iter()
                .zip(&centroids)
                .map(|(s, &old)| s.mean().unwrap_or(old))
                .collect();
            let got = sequential_iteration(&points, &centroids, metric);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.lat.to_bits(), w.lat.to_bits(), "{metric:?}");
                assert_eq!(g.lon.to_bits(), w.lon.to_bits(), "{metric:?}");
            }
        }
    }

    #[test]
    fn mapreduce_iteration_counts_evals() {
        let ds = blob_dataset();
        let cluster = Cluster::local(3, 2);
        let ctx = ExecCtx::new(&cluster);
        let mut dfs = trace_dfs(&cluster, 2_048);
        put_dataset(&mut dfs, "pts", &ds).unwrap();
        let points = blobs();
        let centroids = initial_centroids(&points, 3, 7);
        let c = cfg(DistanceMetric::SquaredEuclidean);
        let (_, stats, _) = mapreduce_iteration_in(&ctx, &dfs, "pts", 1, &centroids, &c).unwrap();
        // Every trace is compared against every centroid exactly once.
        assert_eq!(
            stats.counters[builtin::DISTANCE_EVALS],
            (points.len() * centroids.len()) as u64
        );
    }

    #[test]
    fn combiner_does_not_change_the_result_but_cuts_shuffle() {
        let ds = blob_dataset();
        let cluster = Cluster::local(3, 2);
        let ctx = ExecCtx::new(&cluster);
        let mut dfs = trace_dfs(&cluster, 2_048);
        put_dataset(&mut dfs, "pts", &ds).unwrap();
        let chunks = dfs.num_blocks("pts").unwrap() as u64;
        assert!(chunks > 1, "want several map tasks");
        let centroids = initial_centroids(&blobs(), 3, 7);
        let fused_cfg = cfg(DistanceMetric::Haversine);
        let per_trace_cfg = KMeansConfig {
            use_combiner: false,
            ..fused_cfg.clone()
        };
        let (a, sa, _) =
            mapreduce_iteration_in(&ctx, &dfs, "pts", 1, &centroids, &per_trace_cfg).unwrap();
        let (b, sb, _) =
            mapreduce_iteration_in(&ctx, &dfs, "pts", 1, &centroids, &fused_cfg).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x.lat - y.lat).abs() < 1e-9);
            assert!((x.lon - y.lon).abs() < 1e-9);
        }
        // Per-trace emit shuffles one pair per trace; fused sums at most
        // one per (chunk, cluster).
        assert_eq!(
            sa.counters[builtin::MAP_OUTPUT_RECORDS],
            blobs().len() as u64
        );
        assert!(
            sb.counters[builtin::MAP_OUTPUT_RECORDS] <= centroids.len() as u64 * chunks,
            "fused sums emitted {} pairs over {chunks} chunks",
            sb.counters[builtin::MAP_OUTPUT_RECORDS]
        );
        assert!(
            sb.sim.shuffle_bytes < sa.sim.shuffle_bytes / 2,
            "fused shuffle {} vs per-trace {}",
            sb.sim.shuffle_bytes,
            sa.sim.shuffle_bytes
        );
        // Both sides compare every trace against every centroid once.
        assert_eq!(
            sa.counters[builtin::DISTANCE_EVALS],
            sb.counters[builtin::DISTANCE_EVALS]
        );
    }

    #[test]
    fn full_mapreduce_kmeans_converges_like_sequential() {
        let ds = blob_dataset();
        let cluster = Cluster::local(4, 2);
        let mut dfs = trace_dfs(&cluster, 4_096);
        put_dataset(&mut dfs, "pts", &ds).unwrap();
        let c = KMeansConfig {
            convergence_delta: 1e-7,
            ..cfg(DistanceMetric::SquaredEuclidean)
        };
        let mr = mapreduce_kmeans(&cluster, &dfs, "pts", &c).unwrap();
        assert!(mr.converged, "did not converge in {} iters", mr.iterations);
        assert_eq!(mr.per_iteration.len(), mr.iterations);
        // Centroids land on the three blob centers.
        for (cx, cy) in [(40.0, 116.0), (40.3, 116.3), (39.7, 116.6)] {
            let best = mr
                .centroids
                .iter()
                .map(|c| ((c.lat - cx).powi(2) + (c.lon - cy).powi(2)).sqrt())
                .fold(f64::INFINITY, f64::min);
            assert!(best < 0.05, "no centroid near ({cx},{cy})");
        }
        // Shifts shrink towards convergence.
        let first = mr.per_iteration.first().unwrap().max_shift;
        let last = mr.per_iteration.last().unwrap().max_shift;
        assert!(last <= first);
        assert!(last <= c.convergence_delta);
    }

    #[test]
    fn haversine_is_costlier_than_squared_euclidean() {
        // The Table III effect, measured on the metric itself.
        let points = blobs();
        let cs = initial_centroids(&points, 3, 7);
        let time = |m: DistanceMetric| {
            let t0 = std::time::Instant::now();
            for _ in 0..200 {
                let _ = assign_points(&points, &cs, m);
            }
            t0.elapsed()
        };
        let se = time(DistanceMetric::SquaredEuclidean);
        let hv = time(DistanceMetric::Haversine);
        assert!(
            hv > se,
            "haversine {hv:?} should cost more than squared euclidean {se:?}"
        );
    }

    #[test]
    fn component_median_basics() {
        assert!(component_median(&mut []).is_none());
        let mut one = vec![(1.0, 2.0)];
        assert_eq!(component_median(&mut one), Some(GeoPoint::new(1.0, 2.0)));
        let mut odd = vec![(1.0, 10.0), (3.0, 30.0), (2.0, 20.0)];
        assert_eq!(component_median(&mut odd), Some(GeoPoint::new(2.0, 20.0)));
        let mut even = vec![(1.0, 10.0), (2.0, 20.0), (3.0, 30.0), (4.0, 40.0)];
        assert_eq!(component_median(&mut even), Some(GeoPoint::new(2.5, 25.0)));
    }

    #[test]
    fn median_is_robust_to_an_outlier() {
        // One far outlier drags the mean but not the median.
        let mut points: Vec<GeoPoint> = (0..20)
            .map(|i| GeoPoint::new(40.0 + (i % 5) as f64 * 1e-4, 116.0))
            .collect();
        points.push(GeoPoint::new(45.0, 120.0)); // outlier
        let centroids = vec![GeoPoint::new(40.0, 116.0)];
        let mean = sequential_iteration(&points, &centroids, DistanceMetric::Euclidean);
        let median = sequential_median_iteration(&points, &centroids, DistanceMetric::Euclidean);
        let d = |p: GeoPoint| ((p.lat - 40.0).powi(2) + (p.lon - 116.0).powi(2)).sqrt();
        assert!(d(mean[0]) > 0.1, "mean should be dragged: {:?}", mean[0]);
        assert!(d(median[0]) < 0.01, "median should hold: {:?}", median[0]);
    }

    #[test]
    fn mapreduce_kmedians_matches_sequential() {
        let ds = blob_dataset();
        let cluster = Cluster::local(3, 2);
        let mut dfs = trace_dfs(&cluster, 2_048);
        put_dataset(&mut dfs, "pts", &ds).unwrap();
        let points = blobs();
        let centroids = initial_centroids(&points, 3, 1);
        let c = cfg(DistanceMetric::SquaredEuclidean);
        let (mr, _) = mapreduce_median_iteration(&cluster, &dfs, "pts", &centroids, &c).unwrap();
        let seq = sequential_median_iteration(&points, &centroids, c.distance);
        for (a, b) in mr.iter().zip(&seq) {
            assert!((a.lat - b.lat).abs() < 1e-12 && (a.lon - b.lon).abs() < 1e-12);
        }
    }

    #[test]
    fn kmedians_shuffle_exceeds_combined_kmeans() {
        // The median is not decomposable: its shuffle volume scales with
        // the points, whereas the combined mean shuffles one partial sum
        // per (mapper, cluster).
        let ds = blob_dataset();
        let cluster = Cluster::local(3, 2);
        let ctx = ExecCtx::new(&cluster);
        let mut dfs = trace_dfs(&cluster, 2_048);
        put_dataset(&mut dfs, "pts", &ds).unwrap();
        let centroids = initial_centroids(&blobs(), 3, 1);
        let c = KMeansConfig {
            use_combiner: true,
            ..cfg(DistanceMetric::SquaredEuclidean)
        };
        let (_, mean_stats, _) =
            mapreduce_iteration_in(&ctx, &dfs, "pts", 1, &centroids, &c).unwrap();
        let (_, median_stats) =
            mapreduce_median_iteration(&cluster, &dfs, "pts", &centroids, &c).unwrap();
        assert!(
            median_stats.sim.shuffle_bytes > mean_stats.sim.shuffle_bytes * 3,
            "median {} vs combined mean {}",
            median_stats.sim.shuffle_bytes,
            mean_stats.sim.shuffle_bytes
        );
    }

    #[test]
    fn select_k_finds_the_blob_count() {
        let points = blobs();
        let base = KMeansConfig {
            max_iterations: 30,
            convergence_delta: 1e-9,
            ..cfg(DistanceMetric::SquaredEuclidean)
        };
        let (curve, best) = select_k(&points, &[1, 2, 3, 4, 5, 6], &base);
        assert_eq!(curve.len(), 6);
        // Cost is non-increasing in k (up to local-minimum noise at the
        // tail) and collapses at k = 3 for three well-separated blobs.
        assert!(curve[0].1 > curve[2].1);
        assert_eq!(best, 3, "{curve:?}");
    }

    #[test]
    fn empty_input_is_a_typed_error_and_zero_iterations_return_the_init() {
        let cluster = Cluster::local(2, 1);
        let mut dfs = trace_dfs(&cluster, 1_024);
        dfs.put_with_sizer("empty", vec![], |_| 64).unwrap();
        let c = cfg(DistanceMetric::Euclidean);
        let err = mapreduce_kmeans(&cluster, &dfs, "empty", &c).unwrap_err();
        assert_eq!(err, JobError::EmptyInput("empty".into()));
        assert!(!err.is_storage());
        assert!(err.to_string().contains("'empty' holds no records"));
        // The benchmark harness reads the initial centroids this way.
        put_dataset(&mut dfs, "pts", &blob_dataset()).unwrap();
        let init_only = KMeansConfig {
            max_iterations: 0,
            ..c
        };
        let init = mapreduce_kmeans(&cluster, &dfs, "pts", &init_only).unwrap();
        assert_eq!((init.iterations, init.centroids.len()), (0, 3));
        assert!(init.centroids.iter().all(|p| blobs().contains(p)));
    }
}

#[cfg(test)]
mod fused_props {
    use super::*;
    use gepeto_model::Timestamp;
    use proptest::prelude::*;

    const ALL_METRICS: [DistanceMetric; 4] = [
        DistanceMetric::Euclidean,
        DistanceMetric::SquaredEuclidean,
        DistanceMetric::Manhattan,
        DistanceMetric::Haversine,
    ];

    /// Deterministic point cloud (same generator as the `soa` tests).
    fn cloud(n: usize, seed: u64) -> Vec<GeoPoint> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| GeoPoint::new(39.0 + 2.0 * next(), 115.0 + 3.0 * next()))
            .collect()
    }

    /// One map task over `block`, as the engine runs it; returns the
    /// emitted pairs and the flushed distance-evaluation count.
    fn run_task(
        metric: DistanceMetric,
        fused_sums: bool,
        centroids: &[GeoPoint],
        block: &[MobilityTrace],
    ) -> (Vec<(u32, ClusterSum)>, u64) {
        let cache = DistributedCache::new().with(CENTROIDS_CACHE_KEY, centroids.to_vec());
        let config = JobConfig::new();
        let counters = Counters::new();
        let mut mapper = KMeansMapper::new(metric, fused_sums);
        mapper.setup(&TaskContext {
            task_id: 0,
            attempt: 1,
            config: &config,
            cache: &cache,
            counters: &counters,
        });
        let mut out = Emitter::new();
        mapper.map_block(17, block, &mut out);
        mapper.cleanup(&mut out);
        (out.into_pairs(), counters.get(builtin::DISTANCE_EVALS))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The fused `map_block` emits exactly what the per-record mapper
        /// followed by a per-chunk, in-order, per-cluster fold would:
        /// same clusters in id order, `to_bits`-equal sums, same counts
        /// and distance evaluations — for every metric, every lane
        /// remainder (`n` sweeps 0..96, so every `n % 16`, `n = 0`
        /// included), `k` above and below the chunk length and duplicated
        /// centroids (exact ties).
        #[test]
        fn map_block_equals_per_record_map_then_in_order_fold(
            seed in any::<u64>(),
            blocks in 0usize..24,
            rem in 0usize..4,
            k in 1usize..18,
            dup in 0usize..2,
        ) {
            let n = blocks * 4 + rem;
            let block: Vec<MobilityTrace> = cloud(n, seed)
                .into_iter()
                .enumerate()
                .map(|(i, p)| MobilityTrace::new(1, p, Timestamp(i as i64)))
                .collect();
            let mut centroids = cloud(k, seed ^ 0x5bd1_e995);
            if dup == 1 && k >= 2 {
                centroids[k - 1] = centroids[0];
            }
            for metric in ALL_METRICS {
                let (pairs, evals) = run_task(metric, false, &centroids, &block);
                prop_assert_eq!(pairs.len(), n);
                let mut folded = vec![ClusterSum::default(); k];
                for (cid, v) in &pairs {
                    folded[*cid as usize].merge(v);
                }
                let want: Vec<(u32, ClusterSum)> = folded
                    .into_iter()
                    .enumerate()
                    .filter(|(_, s)| s.count > 0)
                    .map(|(cid, s)| (cid as u32, s))
                    .collect();
                let (got, fused_evals) = run_task(metric, true, &centroids, &block);
                prop_assert_eq!(fused_evals, evals);
                prop_assert_eq!(got.len(), want.len());
                for ((gc, g), (wc, w)) in got.iter().zip(&want) {
                    prop_assert_eq!(gc, wc);
                    prop_assert_eq!(g.count, w.count);
                    prop_assert_eq!(g.lat_sum.to_bits(), w.lat_sum.to_bits());
                    prop_assert_eq!(g.lon_sum.to_bits(), w.lon_sum.to_bits());
                }
            }
        }
    }
}
