//! DJ-Cluster — Density-Joinable Clustering (§VII, Figure 5, Table IV,
//! Algorithms 4–5).
//!
//! The paper's three phases, each expressed in MapReduce:
//!
//! 1. **Preprocessing** — two pipelined map-only jobs: the first keeps
//!    stationary traces (speed between the neighboring traces below a
//!    small threshold ε), the second removes redundant consecutive
//!    traces (almost the same coordinate, different timestamps).
//! 2. **Neighborhood identification** — mappers load an R-tree from the
//!    distributed cache and compute, for each trace, its radius-`r`
//!    neighborhood; traces with fewer than `MinPts` neighbors are marked
//!    as noise (Algorithm 4).
//! 3. **Merging** — a single reducer joins all neighborhoods sharing at
//!    least one trace into clusters (Algorithm 5); the output clusters
//!    are non-overlapping and hold at least `MinPts` traces each.
//!
//! Phases 2 and 3 are one job, and the paper ships one neighborhood per
//! dense trace from the first to the second. Here no per-trace
//! neighborhood is ever materialised: map tasks union neighborhoods as
//! the R-tree returns them and emit one id set per *local component*
//! (see [`NeighborhoodMapper`]) — the solve-per-partition,
//! merge-small-summaries shape of *Fast Clustering using MapReduce* — so
//! Algorithm 5's "centralized" reducer merges a few thousand sets and is
//! no longer the job's critical path. Joining sets that share a trace is
//! associative, so the clusters are those of the per-trace shuffle. The
//! radius join itself runs through one cursor per input split: a user's
//! consecutive traces are served from a cached leaf list, and a leaf
//! inside the disc arrives as a block that is unioned id by id once.
//! Trace ids are global record offsets, kept in dense `u32` arrays; the
//! driver refuses longer inputs with [`JobError::InputTooLarge`].
//!
//! The sequential functions are the exact single-machine references; the
//! MapReduce clustering phase produces *identical* clusters because
//! radius queries are exact regardless of how the R-tree was built.
//!
//! ```
//! use gepeto::djcluster::{sequential_djcluster, DjConfig};
//! use gepeto_model::{GeoPoint, MobilityTrace, Timestamp};
//!
//! // A dense dwell spot plus one faraway stray.
//! let mut traces: Vec<MobilityTrace> = (0..8)
//!     .map(|i| MobilityTrace::new(
//!         1,
//!         GeoPoint::new(39.9 + (i % 3) as f64 * 1e-5, 116.4),
//!         Timestamp(i * 60),
//!     ))
//!     .collect();
//! traces.push(MobilityTrace::new(1, GeoPoint::new(39.5, 116.0), Timestamp(9_999)));
//! let clustering = sequential_djcluster(&traces, &DjConfig::default());
//! assert_eq!(clustering.clusters.len(), 1); // the dwell spot
//! assert_eq!(clustering.noise, 1);          // the stray
//! ```

use crate::rtree_build::{mapreduce_build_rtree, RTreeBuildConfig};
use gepeto_geo::distance::equirectangular_m;
use gepeto_geo::rtree::Hit;
use gepeto_geo::RTree;
use gepeto_mapred::counters::builtin;
use gepeto_mapred::{
    Cluster, Counters, Dfs, DfsAccess, DistributedCache, Emitter, ExecCtx, Group, JobError,
    JobStats, MapOnlyJob, MapReduceJob, Mapper, PipelineReport, Reducer, TaskContext,
};
use gepeto_model::{Dataset, MobilityTrace, UserId};
use gepeto_telemetry::Recorder;
use std::sync::{Arc, Mutex};

/// Distributed-cache key under which the driver ships the `RTree<u64>`
/// over the preprocessed input to the neighborhood mappers.
pub const RTREE_CACHE_KEY: &str = "djcluster.rtree";

/// DJ-Cluster parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DjConfig {
    /// Neighborhood radius `r` in meters.
    pub radius_m: f64,
    /// Minimum neighborhood population `MinPts` (the query point counts).
    pub min_pts: usize,
    /// Preprocessing speed threshold ε in m/s; the paper uses a small
    /// value ("2 km/h ≈ 0.55 m/s"-scale). Traces moving faster are
    /// discarded.
    pub speed_threshold_mps: f64,
    /// Redundancy threshold in meters for the duplicate-removal job.
    pub dup_threshold_m: f64,
}

impl Default for DjConfig {
    fn default() -> Self {
        Self {
            radius_m: 60.0,
            min_pts: 4,
            speed_threshold_mps: 1.0,
            dup_threshold_m: 0.5,
        }
    }
}

/// Trace counts through the preprocessing pipeline — the rows of
/// Table IV.
#[derive(Debug, Clone)]
pub struct PreprocessStats {
    /// Traces before preprocessing.
    pub input: usize,
    /// After the moving-trace filter.
    pub after_speed_filter: usize,
    /// After duplicate removal.
    pub after_dedup: usize,
    /// Engine statistics of the two pipelined jobs.
    pub jobs: PipelineReport,
}

/// A finished clustering: the clusters (each a set of traces) plus the
/// number of traces marked as noise.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// Non-overlapping clusters, each with ≥ `MinPts` members.
    pub clusters: Vec<Vec<MobilityTrace>>,
    /// Traces whose neighborhood was too sparse.
    pub noise: usize,
}

impl Clustering {
    /// Canonical form for comparisons: clusters as sorted lists of
    /// `(user, timestamp)` ids, clusters sorted by first member.
    pub fn canonical_ids(&self) -> Vec<Vec<(UserId, i64)>> {
        let mut out: Vec<Vec<(UserId, i64)>> = self
            .clusters
            .iter()
            .map(|c| {
                let mut ids: Vec<(UserId, i64)> =
                    c.iter().map(|t| (t.user, t.timestamp.secs())).collect();
                ids.sort_unstable();
                ids
            })
            .collect();
        out.sort();
        out
    }
}

// ---------------------------------------------------------------------
// Phase 1: preprocessing
// ---------------------------------------------------------------------

/// The speed of `cur` estimated from its neighbors, as the paper defines
/// it: distance between the previous and next traces over their time
/// difference (one-sided at trail edges).
fn neighbor_speed(
    prev: Option<&MobilityTrace>,
    cur: &MobilityTrace,
    next: Option<&MobilityTrace>,
) -> f64 {
    let (a, b) = match (prev, next) {
        (Some(p), Some(n)) => (p, n),
        (Some(p), None) => (p, cur),
        (None, Some(n)) => (cur, n),
        (None, None) => return 0.0,
    };
    let dt = b.timestamp.delta(a.timestamp);
    if dt <= 0 {
        return 0.0;
    }
    equirectangular_m(a.point, b.point) / dt as f64
}

/// Streaming speed filter over one user-ordered run of traces; shared by
/// the sequential reference and the mapper.
#[derive(Clone, Default)]
struct SpeedFilterState {
    prev: Option<MobilityTrace>,
    cur: Option<MobilityTrace>,
}

impl SpeedFilterState {
    fn push(&mut self, t: &MobilityTrace, threshold: f64, emit: &mut impl FnMut(MobilityTrace)) {
        // A user switch closes the previous run.
        if self.cur.map(|c| c.user) != Some(t.user) && self.cur.is_some() {
            self.flush(threshold, emit);
        }
        if let Some(cur) = self.cur {
            if neighbor_speed(self.prev.as_ref(), &cur, Some(t)) <= threshold {
                emit(cur);
            }
            self.prev = Some(cur);
        }
        self.cur = Some(*t);
    }

    fn flush(&mut self, threshold: f64, emit: &mut impl FnMut(MobilityTrace)) {
        if let Some(cur) = self.cur.take() {
            if neighbor_speed(self.prev.as_ref(), &cur, None) <= threshold {
                emit(cur);
            }
        }
        self.prev = None;
    }
}

/// Map-only job 1: keep stationary traces, discard moving ones.
#[derive(Clone)]
pub struct SpeedFilterMapper {
    threshold: f64,
    state: SpeedFilterState,
}

impl Mapper<MobilityTrace> for SpeedFilterMapper {
    type KOut = UserId;
    type VOut = MobilityTrace;

    fn setup(&mut self, ctx: &TaskContext<'_>) {
        if let Some(t) = ctx.config.get_f64("speed.threshold") {
            self.threshold = t;
        }
    }

    fn map(
        &mut self,
        _offset: u64,
        value: &MobilityTrace,
        out: &mut Emitter<UserId, MobilityTrace>,
    ) {
        let threshold = self.threshold;
        self.state
            .push(value, threshold, &mut |t| out.emit(t.user, t));
    }

    fn cleanup(&mut self, out: &mut Emitter<UserId, MobilityTrace>) {
        let threshold = self.threshold;
        self.state.flush(threshold, &mut |t| out.emit(t.user, t));
    }

    /// A user switch flushes the run just as `cleanup` does.
    fn splits_between(&self, prev: &MobilityTrace, next: &MobilityTrace) -> bool {
        prev.user != next.user
    }
}

/// Map-only job 2: keep the first trace of each redundant run.
#[derive(Clone)]
pub struct DedupMapper {
    threshold_m: f64,
    last_kept: Option<MobilityTrace>,
}

impl Mapper<MobilityTrace> for DedupMapper {
    type KOut = UserId;
    type VOut = MobilityTrace;

    fn setup(&mut self, ctx: &TaskContext<'_>) {
        if let Some(t) = ctx.config.get_f64("dup.threshold") {
            self.threshold_m = t;
        }
    }

    fn map(
        &mut self,
        _offset: u64,
        value: &MobilityTrace,
        out: &mut Emitter<UserId, MobilityTrace>,
    ) {
        let keep = match &self.last_kept {
            Some(last) if last.user == value.user => {
                equirectangular_m(last.point, value.point) > self.threshold_m
            }
            _ => true,
        };
        if keep {
            out.emit(value.user, *value);
            self.last_kept = Some(*value);
        }
    }

    /// A new user's first trace is kept whatever came before.
    fn splits_between(&self, prev: &MobilityTrace, next: &MobilityTrace) -> bool {
        prev.user != next.user
    }
}

/// Sequential reference for the whole preprocessing phase.
pub fn sequential_preprocess(dataset: &Dataset, cfg: &DjConfig) -> Dataset {
    let mut kept = Vec::new();
    for trail in dataset.trails() {
        let mut state = SpeedFilterState::default();
        let mut stationary = Vec::new();
        for t in trail.traces() {
            state.push(t, cfg.speed_threshold_mps, &mut |x| stationary.push(x));
        }
        state.flush(cfg.speed_threshold_mps, &mut |x| stationary.push(x));
        // Dedup.
        let mut last: Option<MobilityTrace> = None;
        for t in stationary {
            let keep = match &last {
                Some(l) => equirectangular_m(l.point, t.point) > cfg.dup_threshold_m,
                None => true,
            };
            if keep {
                kept.push(t);
                last = Some(t);
            }
        }
    }
    Dataset::from_traces(kept)
}

/// Runs the two pipelined preprocessing jobs (Figure 5) through `ctx`,
/// writing the filtered dataset to `output` on the DFS; returns the
/// Table IV counts plus the job re-submissions needed.
///
/// Both jobs are captured under a `djcluster.preprocess` span and
/// submitted through [`ExecCtx::submit`] (DFS healing + virtual-time
/// backoff between attempts). The pipeline hop itself is the checkpoint
/// — a job death never re-runs the stage before it. Map-only jobs have
/// no shuffle to bound and no reduce output to commit, so the context's
/// memory budget and journal do not apply.
pub fn mapreduce_preprocess_in(
    ctx: &ExecCtx<'_>,
    dfs: &mut Dfs<MobilityTrace>,
    input: &str,
    output: &str,
    cfg: &DjConfig,
) -> Result<(PreprocessStats, u64), JobError> {
    let (cluster, telemetry) = (ctx.cluster, &ctx.telemetry);
    let span = telemetry.span("djcluster.preprocess", &[("input", input)]);
    let input_count = dfs.num_records(input)?;
    let mut jobs = PipelineReport::new();

    // Job 1: filter moving traces.
    let (job1, retries1) = ctx.submit("dj-filter-moving", &mut *dfs, |name, dfs, budget| {
        let mapper = SpeedFilterMapper {
            threshold: cfg.speed_threshold_mps,
            state: SpeedFilterState::default(),
        };
        MapOnlyJob::new(name, cluster, dfs, input, mapper)
            .pair_bytes(|_, t| t.approx_plt_bytes())
            .exec(ctx, budget)
            .run()
    })?;
    let after_speed_filter = job1.output.len();
    jobs.add(job1.stats);
    let sizer = |t: &MobilityTrace| t.approx_plt_bytes();

    // Pipeline hop: job 1's output becomes job 2's input.
    let intermediate = format!("{output}.stationary");
    if dfs.exists(&intermediate) {
        dfs.delete(&intermediate)?;
    }
    let stationary = job1.output.into_iter().map(|(_, t)| t);
    dfs.put_from_iter(&intermediate, stationary, sizer)?;

    // Job 2: remove redundant consecutive traces. The hop file is read
    // by every attempt of job 2 and by nothing after it.
    let job2 = ctx.submit("dj-dedup", &mut *dfs, |name, dfs, budget| {
        let mapper = DedupMapper {
            threshold_m: cfg.dup_threshold_m,
            last_kept: None,
        };
        MapOnlyJob::new(name, cluster, dfs, &intermediate, mapper)
            .pair_bytes(|_, t| t.approx_plt_bytes())
            .exec(ctx, budget)
            .run()
    });
    dfs.delete(&intermediate)?;
    let (job2, retries2) = job2?;
    let after_dedup = job2.output.len();
    jobs.add(job2.stats);

    if dfs.exists(output) {
        dfs.delete(output)?;
    }
    dfs.put_from_iter(output, job2.output.into_iter().map(|(_, t)| t), sizer)?;
    telemetry.point(
        "djcluster.preprocessed",
        after_dedup as f64,
        &[("input", input)],
    );
    span.end();
    Ok((
        PreprocessStats {
            input: input_count,
            after_speed_filter,
            after_dedup,
            jobs,
        },
        u64::from(retries1 + retries2),
    ))
}

// ---------------------------------------------------------------------
// Phases 2–3: neighborhood identification + merging
// ---------------------------------------------------------------------

/// Appends `v` as an LEB128 varint (7 payload bits per byte, high bit =
/// continuation).
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A sorted set of trace ids — a neighborhood or, as the map tasks ship
/// them, a union of chained neighborhoods — delta-encoded as LEB128
/// varints: the first id raw, every later one as the gap to its
/// predecessor.
///
/// The ids are dense indexes into the preprocessed input and the R-tree
/// returns spatially close traces, so the gaps are tiny — one or two
/// bytes each instead of the eight a raw `u64` costs. The shuffle of the
/// merge job is *nothing but* these payloads, so the encoding directly
/// cuts the job's simulated `shuffle_bytes`; the saving is surfaced
/// through [`builtin::SHUFFLE_BYTES_SAVED`]. Decoding streams via
/// [`EncodedNeighborhood::iter`], so the merge reducer never
/// materializes the raw `Vec<u64>` again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedNeighborhood {
    bytes: Vec<u8>,
}

impl EncodedNeighborhood {
    /// Encodes an ascending-sorted id list (the mapper's union-find
    /// hands its components out sorted).
    pub fn encode_sorted(ids: &[u64]) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] <= w[1]), "ids must be sorted");
        let mut bytes = Vec::with_capacity(ids.len() * 2);
        let mut prev = 0u64;
        for &id in ids {
            write_varint(&mut bytes, id - prev);
            prev = id;
        }
        Self { bytes }
    }

    /// Encoded payload size in bytes — the job's `pair_bytes` sizer, and
    /// what the raw `8 * ids.len()` is compared against for the
    /// bytes-saved counter.
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the neighborhood holds no ids.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Streaming decoder over the original ascending id sequence.
    pub fn iter(&self) -> NeighborhoodIds<'_> {
        NeighborhoodIds {
            bytes: &self.bytes,
            prev: 0,
        }
    }

    /// Decodes back to the id vector (tests and diagnostics; the hot
    /// path streams with [`Self::iter`]).
    pub fn decode(&self) -> Vec<u64> {
        self.iter().collect()
    }
}

impl<'a> IntoIterator for &'a EncodedNeighborhood {
    type Item = u64;
    type IntoIter = NeighborhoodIds<'a>;

    fn into_iter(self) -> NeighborhoodIds<'a> {
        self.iter()
    }
}

/// Iterator of [`EncodedNeighborhood::iter`]: reads one varint delta per
/// step and adds it to the running previous id.
#[derive(Debug, Clone)]
pub struct NeighborhoodIds<'a> {
    bytes: &'a [u8],
    prev: u64,
}

impl Iterator for NeighborhoodIds<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let mut delta = 0u64;
        let mut shift = 0u32;
        loop {
            let (&b, rest) = self.bytes.split_first()?;
            self.bytes = rest;
            delta |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                break;
            }
            shift += 7;
        }
        self.prev += delta;
        Some(self.prev)
    }
}

/// Algorithm 4 with the merge started early. Loads the R-tree in
/// `setup`, queries each trace's radius-`r` neighborhood and marks sparse
/// traces as noise (nothing is emitted for them; the driver counts what
/// no cluster claims) — but a dense neighborhood is never materialised
/// and shipped on its own. Any cut is legal, so the engine runs each
/// chunk as ~4 096-trace input splits on its pool; a split unions each
/// dense neighborhood into a [`UnionFind`] the moment the query returns,
/// and emits `(const, members)` once per *local component*: the sorted
/// ids of every trace the split's dense neighborhoods chained together.
/// That is exactly the merge Algorithm 5 would have done on those
/// neighborhoods, so the single reducer computes the same clusters from
/// a few thousand pre-merged sets instead of one set per trace. Payloads
/// shuffle delta-encoded (see [`EncodedNeighborhood`]); the bytes saved
/// versus raw ids accumulate into [`builtin::SHUFFLE_BYTES_SAVED`] on
/// cleanup.
#[derive(Clone)]
pub struct NeighborhoodMapper {
    radius_m: f64,
    min_pts: usize,
    rtree: Option<Arc<RTree<u64>>>,
    /// Drained tree-sized union-finds, shared by every clone for the life
    /// of the job: a split borrows one and hands it back drained, so each
    /// executor allocates 8 B × N once, not once per split.
    idle: Arc<Mutex<Vec<UnionFind>>>,
    bytes_saved: u64,
    counters: Option<Counters>,
}

impl NeighborhoodMapper {
    /// A mapper for `cfg`'s radius and `MinPts`; the R-tree arrives in
    /// `setup` from the cache entry [`RTREE_CACHE_KEY`].
    pub fn new(cfg: &DjConfig) -> Self {
        Self {
            radius_m: cfg.radius_m,
            min_pts: cfg.min_pts,
            rtree: None,
            idle: Arc::default(),
            bytes_saved: 0,
            counters: None,
        }
    }
}

impl Mapper<MobilityTrace> for NeighborhoodMapper {
    type KOut = u8;
    type VOut = EncodedNeighborhood;

    fn setup(&mut self, ctx: &TaskContext<'_>) {
        self.rtree = Some(ctx.cache.expect(RTREE_CACHE_KEY));
        if let Some(r) = ctx.config.get_f64("dj.radius") {
            self.radius_m = r;
        }
        if let Some(m) = ctx.config.get_usize("dj.minpts") {
            self.min_pts = m;
        }
        self.counters = Some(ctx.counters.clone());
    }

    /// The one-record case of [`Self::map_block`].
    fn map(
        &mut self,
        offset: u64,
        value: &MobilityTrace,
        out: &mut Emitter<u8, EncodedNeighborhood>,
    ) {
        self.map_block(offset, std::slice::from_ref(value), out);
    }

    fn map_block(
        &mut self,
        _base_offset: u64,
        block: &[MobilityTrace],
        out: &mut Emitter<u8, EncodedNeighborhood>,
    ) {
        let tree = self.rtree.as_deref().expect("setup ran");
        // Which union-find a split borrowed never shows: it comes drained.
        let idle = self.idle.lock().expect("no split panicked").pop();
        let mut uf = idle.unwrap_or_else(|| UnionFind::with_len(tree.len()));
        uf.join_dense_neighborhoods(tree, block, self.radius_m, self.min_pts);
        uf.drain_groups(|members| {
            let encoded = EncodedNeighborhood::encode_sorted(members);
            self.bytes_saved += (8 * members.len()).saturating_sub(encoded.encoded_len()) as u64;
            out.emit(0, encoded);
        });
        self.idle.lock().expect("no split panicked").push(uf);
    }

    fn splits_between(&self, _prev: &MobilityTrace, _next: &MobilityTrace) -> bool {
        true
    }

    fn cleanup(&mut self, _out: &mut Emitter<u8, EncodedNeighborhood>) {
        if let Some(c) = &self.counters {
            c.inc(builtin::SHUFFLE_BYTES_SAVED, self.bytes_saved);
        }
        self.bytes_saved = 0;
    }
}

/// Algorithm 5: the single merging reducer — a union-find over trace ids
/// joins every pair of id sets sharing a trace. The sets are the map
/// tasks' local components (see [`NeighborhoodMapper`]), decoded in place
/// off their varint payloads; there are a few thousand of them where
/// there used to be one per dense trace, which is why this "centralized
/// entity" of the paper is no longer the job's critical path. There
/// being a single key, its group is the map buckets' runs where they lie:
/// the engine hands them over without a sort or a copy.
#[derive(Clone)]
pub struct MergeReducer;

impl Reducer<u8, EncodedNeighborhood> for MergeReducer {
    type KOut = u32;
    type VOut = Vec<u64>;

    fn reduce(
        &mut self,
        _key: &u8,
        values: Group<'_, EncodedNeighborhood>,
        out: &mut Emitter<u32, Vec<u64>>,
    ) {
        // The reducer does not know N: the array grows to the largest id.
        let mut uf = UnionFind::default();
        for component in values.iter() {
            uf.join(component.iter());
        }
        uf.drain_groups(|members| out.emit(out.len() as u32, members.to_vec()));
    }
}

/// Union-find over dense trace ids — global record offsets `< N ≤
/// u32::MAX` (the driver checks) — as a plain parent array: no hashing,
/// and the components come back out of an ascending walk over a bitmap
/// of the ids it was shown, not a sort of everything it was fed. Shared
/// by the map tasks' input splits, [`MergeReducer`] and
/// [`sequential_djcluster`].
///
/// Links always point at the smaller id, so a component's root is its
/// smallest member.
#[derive(Default, Clone)]
struct UnionFind {
    /// `parent[id]`, meaningful once `id`'s bit in `seen` is set.
    parent: Vec<u32>,
    /// Group number of a root; written and read by `drain_groups` only.
    slot: Vec<u32>,
    /// One bit per id: put in a set since the last drain.
    seen: Vec<u64>,
}

impl UnionFind {
    /// Room for ids `< n` up front (it still grows on demand).
    fn with_len(n: usize) -> Self {
        let mut uf = Self::default();
        uf.grow(n);
        uf
    }

    #[cold]
    fn grow(&mut self, len: usize) {
        assert!(len <= u32::MAX as usize, "trace ids must fit in u32");
        self.parent.resize(len, 0);
        self.slot.resize(len, 0);
        self.seen.resize(len.div_ceil(64), 0);
    }

    /// Root of `id`'s set, entering `id` as a singleton the first time it
    /// is seen.
    fn find(&mut self, id: u64) -> u32 {
        let x = id as usize;
        if x >= self.parent.len() {
            self.grow(x + 1);
        }
        let (word, bit) = (x / 64, 1u64 << (x % 64));
        if self.seen[word] & bit == 0 {
            self.seen[word] |= bit;
            self.parent[x] = x as u32;
        }
        self.root(x as u32)
    }

    /// Root of the set the already-seen `id` is in (path halving).
    fn root(&mut self, id: u32) -> u32 {
        let mut x = id as usize;
        while self.parent[x] as usize != x {
            let grandparent = self.parent[self.parent[x] as usize];
            self.parent[x] = grandparent;
            x = grandparent as usize;
        }
        x as u32
    }

    /// Puts all of `ids` into one set.
    fn join(&mut self, ids: impl IntoIterator<Item = u64>) {
        let mut ids = ids.into_iter();
        let Some(first) = ids.next() else {
            return;
        };
        let mut root = self.find(first);
        for id in ids {
            let other = self.find(id);
            if other != root {
                let (low, high) = (root.min(other), root.max(other));
                self.parent[high as usize] = low;
                root = low;
            }
        }
    }

    /// Algorithm 4's loop with the join done on the spot: each trace's
    /// radius-`r` neighborhood becomes one set if it holds `min_pts` ids
    /// (the trace's own among them), and is dropped as noise otherwise.
    ///
    /// `traces` is a run of the input — users' traces in time order — so
    /// one [`gepeto_geo::rtree::RadiusCursor`] serves them all. A leaf
    /// handed over whole counts toward `min_pts` by its length, no id
    /// read. The first dense neighborhood holding it puts all its ids in
    /// one set and marks its slot; sets only ever merge, so later dense
    /// neighborhoods join that set through the leaf's first id alone.
    /// Marks die with the cursor's anchor and with this call, i.e. before
    /// the sets do (those last until the caller drains them).
    fn join_dense_neighborhoods(
        &mut self,
        tree: &RTree<u64>,
        traces: &[MobilityTrace],
        radius_m: f64,
        min_pts: usize,
    ) {
        let mut cursor = tree.radius_cursor(radius_m);
        let (mut ids, mut blocks): (Vec<u64>, Vec<(usize, &[_])>) = (Vec::new(), Vec::new());
        let mut in_one_set: Vec<bool> = Vec::new();
        for trace in traces {
            let mut count = 0;
            ids.clear();
            blocks.clear();
            let reanchored = cursor.for_each(trace.point, |hit| {
                count += hit.entries().len();
                match hit {
                    Hit::Entry(e) => ids.push(e.payload),
                    Hit::Leaf { slot, entries } => blocks.push((slot, entries)),
                }
            });
            if reanchored {
                in_one_set.clear();
            }
            if count < min_pts {
                continue;
            }
            for &(slot, entries) in &blocks {
                if in_one_set.len() <= slot {
                    in_one_set.resize(slot + 1, false);
                }
                let whole = if in_one_set[slot] { 1 } else { entries.len() };
                in_one_set[slot] = true;
                ids.extend(entries[..whole].iter().map(|e| e.payload));
            }
            self.join(ids.iter().copied());
        }
    }

    /// Hands every set to `emit` as its ascending member list, sets in
    /// order of their smallest member, and forgets them all (the arrays
    /// stay allocated for the next round).
    fn drain_groups(&mut self, mut emit: impl FnMut(&[u64])) {
        let seen = std::mem::take(&mut self.seen);
        let ascending = || {
            seen.iter().enumerate().flat_map(|(word, &bits)| {
                let mut bits = bits;
                std::iter::from_fn(move || {
                    let bit = (bits != 0).then(|| bits.trailing_zeros())?;
                    bits &= bits - 1;
                    Some(word as u32 * 64 + bit)
                })
            })
        };
        // A root (its set's minimum) is met before any other member and
        // is final by then: count the groups' sizes…
        let mut ends: Vec<usize> = Vec::new();
        for id in ascending() {
            let root = self.root(id);
            self.parent[id as usize] = root;
            if root == id {
                self.slot[id as usize] = ends.len() as u32;
                ends.push(0);
            }
            ends[self.slot[root as usize] as usize] += 1;
        }
        // …turn them into start offsets, and scatter the members.
        let mut total = 0;
        for end in &mut ends {
            total += std::mem::replace(end, total);
        }
        let mut members = vec![0u64; total];
        for id in ascending() {
            let cursor = &mut ends[self.slot[self.parent[id as usize] as usize] as usize];
            members[*cursor] = u64::from(id);
            *cursor += 1;
        }
        let mut start = 0;
        for end in ends {
            emit(&members[start..end]);
            start = end;
        }
        self.seen = seen;
        self.seen.fill(0);
    }
}

/// Statistics of the clustering phases (2 and 3).
#[derive(Debug, Clone)]
pub struct DjClusterStats {
    /// The neighborhood + merge job.
    pub cluster_job: JobStats,
    /// R-tree construction report (when built with MapReduce).
    pub rtree_report: Option<crate::rtree_build::RTreeBuildReport>,
}

/// Runs DJ-Cluster phases 2–3 on an already-preprocessed `input` file,
/// through `ctx`; returns the clustering, the stats and the job
/// re-submissions needed.
///
/// The R-tree over the input is built with the MapReduce pipeline of
/// [`crate::rtree_build`] when `rtree_cfg` is given, or directly
/// otherwise, then shipped to mappers through the distributed cache. It
/// lives in the driver, so it survives job deaths and is not rebuilt
/// when the neighborhood+merge job is re-submitted. Everything is
/// captured under a `djcluster.cluster` span, the R-tree build's jobs
/// under `djcluster.rtree` inside it. Neighborhood sets carry no spill
/// or artifact codec, so the context's memory budget and journal do not
/// apply.
pub fn mapreduce_djcluster_in<'d>(
    ctx: &ExecCtx<'_>,
    dfs: impl Into<DfsAccess<'d, MobilityTrace>>,
    input: &str,
    cfg: &DjConfig,
    rtree_cfg: Option<&RTreeBuildConfig>,
) -> Result<(Clustering, DjClusterStats, u64), JobError> {
    let mut dfs = dfs.into();
    let telemetry = &ctx.telemetry;
    let span = telemetry.span("djcluster.cluster", &[("input", input)]);
    check_ids_fit(dfs.num_records(input)?)?;
    let (rtree, rtree_report, rtree_retries) = {
        let _rtree_span = telemetry.span("djcluster.rtree", &[]);
        match rtree_cfg {
            Some(rc) => {
                let (t, r, retries) = mapreduce_build_rtree(ctx, &mut dfs, input, rc)?;
                (t, Some(r), retries)
            }
            None => (
                crate::rtree_build::direct_build_rtree(&dfs, input, 16)?,
                None,
                0,
            ),
        }
    };
    let traces = dfs.read(input)?;

    let cache = {
        let mut c = DistributedCache::new();
        c.insert_arc(RTREE_CACHE_KEY, Arc::new(rtree));
        c
    };
    let (result, job_retries) = ctx.submit("dj-cluster", &mut dfs, |name, dfs, budget| {
        let mapper = NeighborhoodMapper::new(cfg);
        MapReduceJob::new(name, ctx.cluster, dfs, input, mapper, MergeReducer)
            .reducers(1) // the merge "must be done by a centralized entity"
            .cache(cache.clone())
            .pair_bytes(|_, n| n.encoded_len())
            .exec(ctx, budget)
            .run()
    })?;

    let clusters: Vec<Vec<MobilityTrace>> = result
        .output
        .iter()
        .map(|(_, members)| members.iter().map(|&id| traces[id as usize]).collect())
        .collect();
    let clustered: usize = clusters.iter().map(Vec::len).sum();
    let noise = traces.len() - clustered;
    telemetry.point(
        "djcluster.clusters",
        clusters.len() as f64,
        &[("noise", &noise.to_string())],
    );
    span.end();
    Ok((
        Clustering { clusters, noise },
        DjClusterStats {
            cluster_job: result.stats,
            rtree_report,
        },
        rtree_retries + u64::from(job_retries),
    ))
}

/// Trace ids are record offsets `< records`, and every [`UnionFind`]
/// keeps them in `u32`.
fn check_ids_fit(records: usize) -> Result<(), JobError> {
    let limit = u32::MAX as usize;
    if records > limit {
        return Err(JobError::InputTooLarge { records, limit });
    }
    Ok(())
}

/// Exact sequential reference for phases 2–3.
///
/// # Panics
/// If `traces` holds more than `u32::MAX` records (ids are kept in `u32`).
pub fn sequential_djcluster(traces: &[MobilityTrace], cfg: &DjConfig) -> Clustering {
    let items: Vec<(gepeto_model::GeoPoint, u64)> = traces
        .iter()
        .enumerate()
        .map(|(i, t)| (t.point, i as u64))
        .collect();
    let tree = RTree::bulk_load(items);
    let mut uf = UnionFind::with_len(traces.len());
    uf.join_dense_neighborhoods(&tree, traces, cfg.radius_m, cfg.min_pts);
    let mut clusters: Vec<Vec<MobilityTrace>> = Vec::new();
    uf.drain_groups(|members| {
        clusters.push(members.iter().map(|&i| traces[i as usize]).collect());
    });
    clusters.sort_by_key(|c: &Vec<MobilityTrace>| {
        c.first().map(|t| (t.user, t.timestamp)).unwrap_or_default()
    });
    let clustered: usize = clusters.iter().map(Vec::len).sum();
    Clustering {
        clusters,
        noise: traces.len() - clustered,
    }
}

/// End-to-end: preprocess then cluster through `ctx`, all phase timings
/// captured under a root `djcluster` span. The final element of the
/// result is the total number of whole-job re-submissions across all
/// stages.
pub fn mapreduce_djcluster_full_in(
    ctx: &ExecCtx<'_>,
    dfs: &mut Dfs<MobilityTrace>,
    input: &str,
    cfg: &DjConfig,
    rtree_cfg: Option<&RTreeBuildConfig>,
) -> Result<(Clustering, PreprocessStats, DjClusterStats, u64), JobError> {
    let span = ctx.telemetry.span("djcluster", &[("input", input)]);
    let pre_name = format!("{input}.preprocessed");
    if dfs.exists(&pre_name) {
        dfs.delete(&pre_name)?;
    }
    let (pre, pre_retries) = mapreduce_preprocess_in(ctx, dfs, input, &pre_name, cfg)?;
    let (clustering, stats, cluster_retries) =
        mapreduce_djcluster_in(ctx, dfs, &pre_name, cfg, rtree_cfg)?;
    span.end();
    Ok((clustering, pre, stats, pre_retries + cluster_retries))
}

// Kept for `benchmark/`, which is compiled against these two
// signatures.

/// [`mapreduce_preprocess_in`] under [`ExecCtx::new`] plus `telemetry`.
pub fn mapreduce_preprocess_with(
    cluster: &Cluster,
    dfs: &mut Dfs<MobilityTrace>,
    input: &str,
    output: &str,
    cfg: &DjConfig,
    telemetry: &Recorder,
) -> Result<PreprocessStats, JobError> {
    let ctx = ExecCtx::new(cluster).traced(telemetry);
    mapreduce_preprocess_in(&ctx, dfs, input, output, cfg).map(|(stats, _)| stats)
}

/// [`mapreduce_djcluster_in`] under [`ExecCtx::new`] plus `telemetry`.
pub fn mapreduce_djcluster_with(
    cluster: &Cluster,
    dfs: &Dfs<MobilityTrace>,
    input: &str,
    cfg: &DjConfig,
    rtree_cfg: Option<&RTreeBuildConfig>,
    telemetry: &Recorder,
) -> Result<(Clustering, DjClusterStats), JobError> {
    let ctx = ExecCtx::new(cluster).traced(telemetry);
    mapreduce_djcluster_in(&ctx, dfs, input, cfg, rtree_cfg).map(|(c, stats, _)| (c, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs_io::{put_dataset, trace_dfs};
    use gepeto_model::{GeoPoint, Timestamp};

    /// A trail that dwells at two spots with a fast trip in between.
    fn dwell_trip_dwell() -> Dataset {
        let mut traces = Vec::new();
        let spot_a = GeoPoint::new(39.90, 116.40);
        let spot_b = GeoPoint::new(39.92, 116.42);
        let mut t = 0i64;
        // Dwell A: 20 samples, 5 s apart, ~2 m GPS wobble (slow enough for
        // the speed filter, wide enough for the 0.5 m dedup threshold).
        for i in 0..20 {
            let p = GeoPoint::new(spot_a.lat + (i % 3) as f64 * 2e-5, spot_a.lon);
            traces.push(MobilityTrace::new(1, p, Timestamp(t)));
            t += 5;
        }
        // Trip: 10 samples at ~10 m/s.
        for i in 1..=10 {
            let frac = i as f64 / 10.0;
            let p = GeoPoint::new(
                spot_a.lat + (spot_b.lat - spot_a.lat) * frac,
                spot_a.lon + (spot_b.lon - spot_a.lon) * frac,
            );
            t += 30;
            traces.push(MobilityTrace::new(1, p, Timestamp(t)));
        }
        // Dwell B.
        for i in 0..20 {
            let p = GeoPoint::new(spot_b.lat, spot_b.lon + (i % 3) as f64 * 2e-5);
            t += 5;
            traces.push(MobilityTrace::new(1, p, Timestamp(t)));
        }
        Dataset::from_traces(traces)
    }

    #[test]
    fn speed_filter_drops_the_trip() {
        let ds = dwell_trip_dwell();
        let cfg = DjConfig::default();
        let pre = sequential_preprocess(&ds, &cfg);
        // The ~10 trip traces are gone; most dwell traces survive
        // (dedup may eat a few of the jittered dwell points).
        assert!(pre.num_traces() >= 30, "{}", pre.num_traces());
        assert!(pre.num_traces() < 45, "{}", pre.num_traces());
    }

    #[test]
    fn dedup_removes_exact_repeats() {
        let p = GeoPoint::new(39.9, 116.4);
        let traces: Vec<MobilityTrace> = (0..10)
            .map(|i| MobilityTrace::new(1, p, Timestamp(i * 60)))
            .collect();
        let ds = Dataset::from_traces(traces);
        let pre = sequential_preprocess(&ds, &DjConfig::default());
        assert_eq!(pre.num_traces(), 1);
    }

    #[test]
    fn preprocessing_mappers_cut_only_where_the_user_changes() {
        use crate::test_splits::{assert_cuts_change_nothing, seam_traces};
        let cache = DistributedCache::new();
        let speed = SpeedFilterMapper {
            threshold: 1.0,
            state: SpeedFilterState::default(),
        };
        assert_eq!(
            assert_cuts_change_nothing(&speed, &cache, 0, &seam_traces()),
            3
        );
        let dedup = DedupMapper {
            threshold_m: 0.5,
            last_kept: None,
        };
        assert_eq!(
            assert_cuts_change_nothing(&dedup, &cache, 0, &seam_traces()),
            3
        );
    }

    #[test]
    fn mapreduce_preprocess_matches_sequential_single_chunk() {
        let ds = dwell_trip_dwell();
        let cluster = Cluster::local(2, 2);
        let ctx = ExecCtx::new(&cluster);
        let mut dfs = trace_dfs(&cluster, 1 << 20);
        put_dataset(&mut dfs, "d", &ds).unwrap();
        let cfg = DjConfig::default();
        let (stats, _) = mapreduce_preprocess_in(&ctx, &mut dfs, "d", "out", &cfg).unwrap();
        let seq = sequential_preprocess(&ds, &cfg);
        assert_eq!(stats.input, ds.num_traces());
        assert_eq!(stats.after_dedup, seq.num_traces());
        assert!(stats.after_speed_filter >= stats.after_dedup);
        assert_eq!(stats.jobs.num_jobs(), 2);
        let out = crate::dfs_io::read_dataset(&dfs, "out").unwrap();
        assert_eq!(out, seq);
    }

    #[test]
    fn mapreduce_preprocess_leaves_no_pipeline_hop_behind() {
        let ds = dwell_trip_dwell();
        let cluster = Cluster::local(2, 2);
        let ctx = ExecCtx::new(&cluster);
        let mut dfs = trace_dfs(&cluster, 2_000);
        put_dataset(&mut dfs, "d", &ds).unwrap();
        let cfg = DjConfig::default();
        let mut counts = Vec::new();
        // A second run over the same DFS, as a benchmark's next repetition.
        for _ in 0..2 {
            let (stats, _) = mapreduce_preprocess_in(&ctx, &mut dfs, "d", "out", &cfg).unwrap();
            assert_eq!(dfs.ls(), vec!["d", "out"]);
            counts.push((stats.input, stats.after_speed_filter, stats.after_dedup));
        }
        let seq = sequential_preprocess(&ds, &cfg);
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[0].2, seq.num_traces());
        assert_eq!(crate::dfs_io::read_dataset(&dfs, "out").unwrap(), seq);
    }

    #[test]
    fn clustering_finds_the_two_dwell_spots() {
        let ds = dwell_trip_dwell();
        let cfg = DjConfig {
            radius_m: 50.0,
            min_pts: 4,
            ..DjConfig::default()
        };
        let pre = sequential_preprocess(&ds, &cfg);
        let clustering = sequential_djcluster(&pre.to_traces(), &cfg);
        assert_eq!(clustering.clusters.len(), 2, "noise={}", clustering.noise);
        for c in &clustering.clusters {
            assert!(c.len() >= cfg.min_pts);
        }
    }

    #[test]
    fn clusters_are_non_overlapping() {
        let ds = dwell_trip_dwell();
        let cfg = DjConfig::default();
        let pre = sequential_preprocess(&ds, &cfg);
        let clustering = sequential_djcluster(&pre.to_traces(), &cfg);
        let mut seen = std::collections::HashSet::new();
        for c in &clustering.clusters {
            for t in c {
                assert!(
                    seen.insert((t.user, t.timestamp.secs(), t.point.lat.to_bits())),
                    "trace in two clusters"
                );
            }
        }
    }

    #[test]
    fn sparse_points_are_noise() {
        // 3 isolated points: all noise under min_pts = 4.
        let traces: Vec<MobilityTrace> = (0..3)
            .map(|i| {
                MobilityTrace::new(
                    1,
                    GeoPoint::new(39.0 + i as f64, 116.0),
                    Timestamp(i as i64 * 1000),
                )
            })
            .collect();
        let clustering = sequential_djcluster(&traces, &DjConfig::default());
        assert!(clustering.clusters.is_empty());
        assert_eq!(clustering.noise, 3);
    }

    #[test]
    fn mapreduce_clustering_equals_sequential() {
        let ds = dwell_trip_dwell();
        let cfg = DjConfig::default();
        let cluster = Cluster::local(3, 2);
        let ctx = ExecCtx::new(&cluster);
        let mut dfs = trace_dfs(&cluster, 1_024); // multiple chunks
        let pre = sequential_preprocess(&ds, &cfg);
        put_dataset(&mut dfs, "pre", &pre).unwrap();
        let (mr, stats, _) = mapreduce_djcluster_in(&ctx, &dfs, "pre", &cfg, None).unwrap();
        let seq = sequential_djcluster(&dfs.read("pre").unwrap(), &cfg);
        assert_eq!(mr.canonical_ids(), seq.canonical_ids());
        assert_eq!(mr.noise, seq.noise);
        assert_eq!(stats.cluster_job.reduce_tasks, 1, "single merging reducer");
    }

    #[test]
    fn varint_delta_roundtrips_sorted_id_lists() {
        // Deterministic xorshift over assorted list shapes, plus edge
        // values straddling every varint byte-length boundary.
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![0, 0, 0],
            vec![127, 128, 16_383, 16_384, 2_097_151, 2_097_152],
            vec![u64::MAX - 1, u64::MAX],
            vec![0, u64::MAX],
        ];
        for len in [1usize, 2, 17, 300] {
            let mut ids: Vec<u64> = (0..len).map(|_| rand() % 1_000_000).collect();
            ids.sort_unstable();
            cases.push(ids);
        }
        for ids in cases {
            let enc = EncodedNeighborhood::encode_sorted(&ids);
            assert_eq!(enc.decode(), ids, "roundtrip failed for {ids:?}");
            assert_eq!(enc.is_empty(), ids.is_empty());
            // Streaming twice gives the same sequence (iter borrows).
            assert_eq!(enc.iter().count(), ids.len());
        }
    }

    #[test]
    fn delta_encoding_beats_raw_ids_on_dense_neighborhoods() {
        // Dense index neighborhoods — the real shape after preprocessing.
        let ids: Vec<u64> = (100..600).collect();
        let enc = EncodedNeighborhood::encode_sorted(&ids);
        let raw = 8 * ids.len();
        assert!(
            enc.encoded_len() * 3 < raw,
            "encoded {} vs raw {raw}",
            enc.encoded_len()
        );
    }

    #[test]
    fn clustering_shuffle_is_compressed() {
        let ds = dwell_trip_dwell();
        let cfg = DjConfig::default();
        let cluster = Cluster::local(3, 2);
        let ctx = ExecCtx::new(&cluster);
        let mut dfs = trace_dfs(&cluster, 1_024);
        let pre = sequential_preprocess(&ds, &cfg);
        put_dataset(&mut dfs, "pre", &pre).unwrap();
        let (clustering, stats, _) = mapreduce_djcluster_in(&ctx, &dfs, "pre", &cfg, None).unwrap();
        let job = &stats.cluster_job;
        // Two dwell spots 2.8 km apart: a map task ships one pre-merged
        // component per spot its chunk touches, not one neighborhood per
        // dense trace (27 of them here).
        let dense = pre.num_traces() - clustering.noise;
        assert_eq!(clustering.clusters.len(), 2);
        let shipped = job.counters[builtin::MAP_OUTPUT_RECORDS] as usize;
        assert!(
            (2..=2 * job.map_tasks).contains(&shipped) && shipped < dense,
            "{shipped} components from {} map tasks, {dense} dense traces",
            job.map_tasks
        );
        let saved = job.counters[builtin::SHUFFLE_BYTES_SAVED];
        assert!(saved > 0, "compression saved nothing");
        // The encoded shuffle plus the saving reconstructs the raw size,
        // and the encoding wins by a wide margin on dense indexes.
        let shuffled = job.sim.shuffle_bytes;
        assert!(
            saved >= 2 * shuffled,
            "saved {saved} vs shuffled {shuffled}"
        );
    }

    #[test]
    fn union_find_groups_come_out_ascending_and_it_starts_over() {
        let mut uf = UnionFind::with_len(4);
        uf.join([7, 3, 9]); // grows past its initial length
        uf.join([5]);
        uf.join([1, 2]);
        uf.join([9, 2, 2]); // chains {3, 7, 9} to {1, 2}
        uf.join(std::iter::empty());
        let mut groups: Vec<Vec<u64>> = Vec::new();
        uf.drain_groups(|members| groups.push(members.to_vec()));
        assert_eq!(groups, vec![vec![1, 2, 3, 7, 9], vec![5]]);
        // Drained: the same ids now fall into other sets.
        uf.join([9, 5]);
        groups.clear();
        uf.drain_groups(|members| groups.push(members.to_vec()));
        assert_eq!(groups, vec![vec![5, 9]]);
    }

    /// What `join_dense_neighborhoods` must leave in the union-find after
    /// `tile`: the components of "in one dense neighborhood", every
    /// neighborhood found by an O(n) Haversine scan of `points`.
    fn naive_components(
        points: &[GeoPoint],
        tile: &[MobilityTrace],
        radius_m: f64,
        min_pts: usize,
    ) -> Vec<Vec<u64>> {
        let mut set: Vec<usize> = (0..points.len()).collect();
        let mut shown = vec![false; points.len()];
        for trace in tile {
            let near: Vec<usize> = (0..points.len())
                .filter(|&j| gepeto_geo::haversine_m(trace.point, points[j]) <= radius_m)
                .collect();
            if near.len() >= min_pts {
                let into = set[near[0]];
                for &j in &near {
                    shown[j] = true;
                    let from = set[j];
                    set.iter_mut()
                        .filter(|s| **s == from)
                        .for_each(|s| *s = into);
                }
            }
        }
        let mut groups = std::collections::BTreeMap::<usize, Vec<u64>>::new();
        for j in (0..points.len()).filter(|&j| shown[j]) {
            groups.entry(set[j]).or_default().push(j as u64);
        }
        let mut groups: Vec<Vec<u64>> = groups.into_values().collect();
        groups.sort();
        groups
    }

    fn drained(uf: &mut UnionFind) -> Vec<Vec<u64>> {
        let mut groups = Vec::new();
        uf.drain_groups(|members| groups.push(members.to_vec()));
        groups
    }

    /// `(east, north)` metres from a point in Beijing.
    fn metres(east: f64, north: f64) -> GeoPoint {
        GeoPoint::new(39.9 + north * 8.993e-6, 116.4 + east * 1.172e-5)
    }

    fn as_traces(points: &[GeoPoint]) -> Vec<MobilityTrace> {
        let trace = |(i, &p)| MobilityTrace::new(1, p, Timestamp(i as i64));
        points.iter().enumerate().map(trace).collect()
    }

    fn tree_of(points: &[GeoPoint], max_entries: usize) -> RTree<u64> {
        let items = points.iter().enumerate().map(|(i, &p)| (p, i as u64));
        RTree::bulk_load_with_max_entries(items.collect(), max_entries)
    }

    #[test]
    fn block_unions_equal_the_naive_haversine_join_on_dwell_clouds() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for (n, max_entries) in [(1, 16), (90, 4), (400, 4), (400, 16), (700, 8)] {
            // A walker wobbling inside 60 m dwell spots 150 m apart — so
            // leaves are swallowed whole and spots chain — with strays,
            // and every seventh trace an exact copy of an earlier one.
            let mut points: Vec<GeoPoint> = Vec::new();
            let (mut spot, mut east, mut north) = (0.0, 0.0f64, 0.0f64);
            for i in 0..n {
                if i % 40 == 0 {
                    spot = (unit() * 5.0).floor();
                }
                east = (east + (unit() - 0.5) * 10.0).clamp(-30.0, 30.0);
                north = (north + (unit() - 0.5) * 10.0).clamp(-30.0, 30.0);
                points.push(match i % 7 {
                    6 => points[(unit() * i as f64) as usize],
                    3 if unit() < 0.3 => metres(unit() * 900.0 - 100.0, unit() * 400.0 - 200.0),
                    _ => metres(spot * 150.0 + east, north),
                });
            }
            let (traces, tree) = (as_traces(&points), tree_of(&points, max_entries));
            let mut uf = UnionFind::with_len(n);
            for min_pts in [1, 2, 4, 10] {
                uf.join_dense_neighborhoods(&tree, &traces, 60.0, min_pts);
                let want = naive_components(&points, &traces, 60.0, min_pts);
                assert_eq!(drained(&mut uf), want, "n {n}, MinPts {min_pts}");
                // Two tiles sharing every leaf, the union-find drained in
                // between: nothing the first learnt may leak into the second.
                let (first, second) = traces.split_at(n / 2);
                for tile in [first, second] {
                    uf.join_dense_neighborhoods(&tree, tile, 60.0, min_pts);
                    let want = naive_components(&points, tile, 60.0, min_pts);
                    assert_eq!(drained(&mut uf), want, "n {n}, MinPts {min_pts}, tiled");
                }
            }
        }
    }

    #[test]
    fn a_leaf_swallowed_by_a_sparse_query_is_still_joined_id_by_id() {
        // Four per leaf, MinPts 10. `sparse` sees the leaf `l` whole but
        // only 5 traces in all; `dense`, served from the same anchor,
        // sees `l` whole again plus the 7 of `g`: 12. Only then may `l`
        // count as being in one set.
        let l = [(0.0, 0.0), (1.0, 1.0), (-1.0, 2.0), (0.5, 3.0)];
        let g = (0..7).map(|i| (70.0 + (i % 3) as f64, 30.0 + i as f64 * 0.5));
        let far = [(-300.0, -500.0), (-700.0, -900.0), (-1100.0, -1300.0)];
        let (sparse, dense) = ((-25.0, -40.0), (25.0, 10.0));
        let points: Vec<GeoPoint> = [sparse, dense]
            .into_iter()
            .chain(l)
            .chain(g)
            .chain(far)
            .map(|(east, north)| metres(east, north))
            .collect();
        let (traces, tree) = (as_traces(&points), tree_of(&points, 4));

        let mut cursor = tree.radius_cursor(60.0);
        let mut blocks_of = |trace: usize| {
            let (mut blocks, mut total) = (Vec::new(), 0);
            let reanchored = cursor.for_each(points[trace], |hit| {
                total += hit.entries().len();
                if let Hit::Leaf { slot, entries } = hit {
                    blocks.push((slot, entries.iter().map(|e| e.payload).collect::<Vec<_>>()));
                }
            });
            (blocks, total, reanchored)
        };
        let (sparse_blocks, sparse_total, _) = blocks_of(0);
        let (dense_blocks, dense_total, reanchored) = blocks_of(1);
        assert_eq!((sparse_total, dense_total, reanchored), (5, 12, false));
        assert_eq!(sparse_blocks.len(), 1, "{sparse_blocks:?}");
        assert_eq!(sparse_blocks[0].1, vec![2, 3, 4, 5]);
        assert!(dense_blocks.contains(&sparse_blocks[0]), "{dense_blocks:?}");

        let mut uf = UnionFind::with_len(points.len());
        uf.join_dense_neighborhoods(&tree, &traces, 60.0, 10);
        let cluster: Vec<u64> = (1..13).collect(); // `dense`, `l` and `g`
        assert_eq!(drained(&mut uf), vec![cluster]);
        assert_eq!(
            naive_components(&points, &traces, 60.0, 10),
            vec![(1..13).collect::<Vec<u64>>()]
        );
    }

    #[test]
    fn more_records_than_ids_is_a_typed_error() {
        assert_eq!(check_ids_fit(u32::MAX as usize), Ok(()));
        let too_many = u32::MAX as usize + 1;
        assert_eq!(
            check_ids_fit(too_many),
            Err(JobError::InputTooLarge {
                records: too_many,
                limit: u32::MAX as usize
            })
        );
    }

    #[test]
    fn mapreduce_clustering_with_mapreduce_rtree() {
        let ds = dwell_trip_dwell();
        let cfg = DjConfig::default();
        let cluster = Cluster::local(3, 2);
        let ctx = ExecCtx::new(&cluster);
        let mut dfs = trace_dfs(&cluster, 1_024);
        let pre = sequential_preprocess(&ds, &cfg);
        put_dataset(&mut dfs, "pre", &pre).unwrap();
        let rc = RTreeBuildConfig {
            partitions: 3,
            ..RTreeBuildConfig::default()
        };
        let (mr, stats, _) = mapreduce_djcluster_in(&ctx, &dfs, "pre", &cfg, Some(&rc)).unwrap();
        let seq = sequential_djcluster(&dfs.read("pre").unwrap(), &cfg);
        assert_eq!(mr.canonical_ids(), seq.canonical_ids());
        assert!(stats.rtree_report.is_some());
    }

    #[test]
    fn full_pipeline_runs_end_to_end() {
        let ds = dwell_trip_dwell();
        let cfg = DjConfig::default();
        let cluster = Cluster::local(2, 2);
        let ctx = ExecCtx::new(&cluster);
        let mut dfs = trace_dfs(&cluster, 1 << 16);
        put_dataset(&mut dfs, "raw", &ds).unwrap();
        let (clustering, pre, _, _) =
            mapreduce_djcluster_full_in(&ctx, &mut dfs, "raw", &cfg, None).unwrap();
        assert_eq!(pre.input, ds.num_traces());
        assert!(pre.after_dedup <= pre.after_speed_filter);
        assert_eq!(clustering.clusters.len(), 2);
    }

    #[test]
    fn empty_input_clusters_to_nothing() {
        let clustering = sequential_djcluster(&[], &DjConfig::default());
        assert!(clustering.clusters.is_empty());
        assert_eq!(clustering.noise, 0);
    }
}

/// The in-mapper partial merge against the paper's one neighborhood per
/// trace, and both against the sequential reference.
#[cfg(test)]
mod partial_merge_props {
    use super::*;
    use crate::dfs_io::trace_dfs;
    use gepeto_mapred::JobConfig;
    use gepeto_model::{GeoPoint, Timestamp};
    use proptest::prelude::*;

    /// `n` traces: three in four scattered 130 m wide around one of
    /// `spots` dwell spots 220 m apart, the rest strays over a 2 km box —
    /// at r = 60 m that gives dense, sparse and chained neighborhoods —
    /// and every `dup`-th trace repeats an earlier position exactly.
    fn cloud(n: usize, spots: usize, dup: usize, seed: u64) -> Vec<MobilityTrace> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut points: Vec<GeoPoint> = Vec::with_capacity(n);
        for i in 0..n {
            let p = if i > 0 && i % dup == 0 {
                points[(next() * i as f64) as usize]
            } else if next() < 0.25 {
                GeoPoint::new(39.89 + next() * 0.02, 116.39 + next() * 0.02)
            } else {
                let spot = (next() * spots as f64) as usize;
                GeoPoint::new(
                    39.9 + spot as f64 * 2e-3 + next() * 1.2e-3,
                    116.4 + next() * 1.5e-3,
                )
            };
            points.push(p);
        }
        points
            .into_iter()
            .enumerate()
            .map(|(i, p)| MobilityTrace::new(1 + (i % 3) as u32, p, Timestamp(i as i64)))
            .collect()
    }

    /// The clustering job by hand: one map task per `chunk`-trace block,
    /// each cut into `tile`-trace input splits that run on fresh clones of
    /// one mapper, as the engine runs them, then the reducer. `tile = 1`
    /// makes every trace its own split, i.e. the per-trace emit of
    /// Algorithm 4.
    fn run_job(
        traces: &[MobilityTrace],
        cfg: &DjConfig,
        chunk: usize,
        tile: usize,
        per_record: bool,
    ) -> (Vec<Vec<u64>>, usize) {
        let shuffled = map_splits(
            &NeighborhoodMapper::new(cfg),
            traces,
            chunk,
            tile,
            per_record,
        );
        let pairs = shuffled.len();
        let mut out = Emitter::new();
        MergeReducer.reduce(&0, shuffled.as_slice().into(), &mut out);
        (
            out.into_pairs().into_iter().map(|(_, m)| m).collect(),
            pairs,
        )
    }

    /// The map side of [`run_job`], on clones of `job_mapper`: every
    /// split's payloads, in split order.
    fn map_splits(
        job_mapper: &NeighborhoodMapper,
        traces: &[MobilityTrace],
        chunk: usize,
        tile: usize,
        per_record: bool,
    ) -> Vec<EncodedNeighborhood> {
        let items = traces.iter().enumerate().map(|(i, t)| (t.point, i as u64));
        let mut cache = DistributedCache::new();
        cache.insert_arc(RTREE_CACHE_KEY, Arc::new(RTree::bulk_load(items.collect())));
        let (config, counters) = (JobConfig::new(), Counters::new());
        let mut shuffled = Vec::new();
        for (task_id, block) in traces.chunks(chunk).enumerate() {
            for (split, range) in block.chunks(tile).enumerate() {
                let mut mapper = job_mapper.clone();
                mapper.setup(&TaskContext {
                    task_id,
                    attempt: 1,
                    config: &config,
                    cache: &cache,
                    counters: &counters,
                });
                let mut out = Emitter::new();
                let base = (task_id * chunk + split * tile) as u64;
                if per_record {
                    gepeto_mapred::map_records(&mut mapper, base, range, &mut out);
                } else {
                    mapper.map_block(base, range, &mut out);
                }
                mapper.cleanup(&mut out);
                shuffled.extend(out.into_pairs().into_iter().map(|(_, v)| v));
            }
        }
        shuffled
    }

    /// Splits that run one after another on clones of one mapper borrow
    /// the union-find the first split allocated: however many ran, the
    /// job ends with one on the shared free list, and it is drained.
    #[test]
    fn serial_splits_share_one_drained_union_find() {
        let traces = cloud(200, 3, 5, 7);
        let mapper = NeighborhoodMapper::new(&DjConfig::default());
        let payloads = map_splits(&mapper, &traces, 100, 16, false);
        assert!(!payloads.is_empty());
        let mut idle = mapper.idle.lock().unwrap();
        assert_eq!(idle.len(), 1);
        let mut groups = 0;
        idle[0].drain_groups(|_| groups += 1);
        assert_eq!(groups, 0);
    }

    /// Records per input split of a job with a reduce phase.
    const SPLIT: usize = 4_096;

    fn as_clustering(traces: &[MobilityTrace], clusters: &[Vec<u64>]) -> Clustering {
        let clusters: Vec<Vec<MobilityTrace>> = clusters
            .iter()
            .map(|c| c.iter().map(|&i| traces[i as usize]).collect())
            .collect();
        let clustered: usize = clusters.iter().map(Vec::len).sum();
        Clustering {
            noise: traces.len() - clustered,
            clusters,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn partial_merge_equals_per_trace_emit_equals_sequential(
            seed in any::<u64>(),
            n in 0usize..300,
            spots in 1usize..6,
            dup in 2usize..9,
            min_pts in 0usize..3,
            chunks in 1usize..4,
            odd_tile in 1usize..50,
        ) {
            let traces = cloud(n, spots, dup, seed);
            let cfg = DjConfig { min_pts: [1, 2, 10][min_pts], ..DjConfig::default() };
            let want = sequential_djcluster(&traces, &cfg);
            let chunk = n.div_ceil(chunks).max(1);

            // Algorithm 4 as published: one pair per dense trace.
            let (per_trace, per_trace_pairs) = run_job(&traces, &cfg, chunk, 1, false);
            let paper = as_clustering(&traces, &per_trace);
            prop_assert_eq!(paper.canonical_ids(), want.canonical_ids());
            prop_assert_eq!(paper.noise, want.noise);
            // `map` is the one-record `map_block`: same pairs either way.
            let (via_map, via_map_pairs) = run_job(&traces, &cfg, chunk, SPLIT, true);
            prop_assert_eq!(&via_map, &per_trace);
            prop_assert_eq!(via_map_pairs, per_trace_pairs);

            // One split per chunk, the engine's split, a split dividing the
            // chunk when it can, and an arbitrary one.
            for tile in [chunk, SPLIT, chunk.div_ceil(2), odd_tile] {
                let (merged, pairs) = run_job(&traces, &cfg, chunk, tile, false);
                prop_assert_eq!(&merged, &per_trace, "tile {}", tile);
                prop_assert!(pairs <= per_trace_pairs, "tile {} shipped more", tile);
            }

            // And through the engine, over as many DFS chunks.
            let cluster = Cluster::local(2, 2);
            let ctx = ExecCtx::new(&cluster);
            let trace_bytes = traces.first().map_or(1, MobilityTrace::approx_plt_bytes);
            let mut dfs = trace_dfs(&cluster, chunk * trace_bytes);
            dfs.put_with_sizer("pre", traces.clone(), |t| t.approx_plt_bytes()).unwrap();
            let (mr, stats, _) = mapreduce_djcluster_in(&ctx, &dfs, "pre", &cfg, None).unwrap();
            prop_assert_eq!(mr.canonical_ids(), want.canonical_ids());
            prop_assert_eq!(mr.noise, want.noise);
            prop_assert_eq!(stats.cluster_job.map_tasks, n.div_ceil(chunk).max(1));
        }
    }
}
