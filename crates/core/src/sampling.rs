//! Down-sampling (§V, Figures 2–3, Table I): a temporal aggregation that
//! merges all mobility traces inside a time window into a single
//! *representative* trace.
//!
//! Two techniques, as in the paper: the representative is the trace
//! closest to the **upper limit** of the window (Figure 2), or the trace
//! closest to the **middle** of the window (Figure 3).
//!
//! The MapReduce version is a map-only job ("the reduce phase is not
//! necessary as sampling represents a computationally cheap operation").
//! Each mapper streams its chunk, tracking the best candidate of the
//! current `(user, window)` and emitting it when the window closes. A
//! chunk boundary that splits a window can therefore yield one extra
//! representative for that window — the same artifact the paper's
//! Hadoop implementation has; [`sequential_sample`] is the exact
//! single-machine reference.
//!
//! ```
//! use gepeto::sampling::{sequential_sample, SamplingConfig, Technique};
//! use gepeto_model::{Dataset, GeoPoint, MobilityTrace, Timestamp};
//!
//! // Three traces in one 60 s window, one in the next.
//! let ds = Dataset::from_traces([5i64, 29, 58, 61].map(|s| {
//!     MobilityTrace::new(1, GeoPoint::new(39.9, 116.4), Timestamp(s))
//! }));
//! let cfg = SamplingConfig::new(60, Technique::ClosestToUpperLimit);
//! let sampled = sequential_sample(&ds, &cfg);
//! let secs: Vec<i64> = sampled.iter_traces().map(|t| t.timestamp.secs()).collect();
//! assert_eq!(secs, vec![58, 61]); // Figure 2: latest trace per window
//! ```

use gepeto_mapred::{
    Cluster, Dfs, DfsAccess, Emitter, ExecCtx, FlatGroups, Group, JobError, JobResult, JobStats,
    MapOnlyJob, MapReduceJob, Mapper, Reducer,
};
use gepeto_model::{Dataset, MobilityTrace, Trail, UserId};
use gepeto_telemetry::Recorder;
use serde::{Deserialize, Serialize};

/// How the representative trace of a window is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Technique {
    /// The trace closest to the upper limit of the time window (Fig. 2).
    ClosestToUpperLimit,
    /// The trace closest to the middle of the time window (Fig. 3).
    ClosestToMiddle,
}

impl Technique {
    /// Distance (in seconds, lower is better) from a trace at `ts` to the
    /// reference instant of window `[w0, w0 + window)`.
    fn badness(self, ts: i64, w0: i64, window: i64) -> i64 {
        match self {
            // The reference is the (exclusive) upper limit; every trace is
            // below it, so the latest trace wins.
            Technique::ClosestToUpperLimit => w0 + window - ts,
            Technique::ClosestToMiddle => (ts - (w0 + window / 2)).abs(),
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "upper" | "upper-limit" | "end" => Some(Self::ClosestToUpperLimit),
            "middle" | "center" => Some(Self::ClosestToMiddle),
            _ => None,
        }
    }
}

/// Sampling parameters: the window size (the paper evaluates 60 s, 300 s
/// and 600 s) and the representative-selection technique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplingConfig {
    /// Window length in seconds (> 0).
    pub window_secs: i64,
    /// Representative selection.
    pub technique: Technique,
}

impl SamplingConfig {
    /// A config; panics if `window_secs` is not positive.
    pub fn new(window_secs: i64, technique: Technique) -> Self {
        assert!(window_secs > 0, "sampling window must be positive");
        Self {
            window_secs,
            technique,
        }
    }
}

/// Exact sequential reference: samples each user's trail independently
/// with global (absolute-time) windows.
pub fn sequential_sample(dataset: &Dataset, cfg: &SamplingConfig) -> Dataset {
    let trails = dataset.trails().map(|t| sample_trail(t, cfg));
    Dataset::from_trails(trails.collect::<Vec<_>>())
}

/// Samples a single trail.
pub fn sample_trail(trail: &Trail, cfg: &SamplingConfig) -> Trail {
    // At most one representative per window, and the trail is
    // time-ordered, so the span divided by the window length bounds the
    // output — pre-size to that instead of growing through reallocation.
    // Saturating arithmetic throughout: a trail spanning the whole i64
    // timestamp range must degrade to "pre-size to the trace count",
    // not overflow.
    let traces = trail.traces();
    let windows = match (traces.first(), traces.last()) {
        (Some(a), Some(b)) => {
            let span = b.timestamp.secs().saturating_sub(a.timestamp.secs());
            (span / cfg.window_secs)
                .saturating_add(1)
                .clamp(1, i64::try_from(traces.len()).unwrap_or(i64::MAX)) as usize
        }
        _ => 0,
    };
    let mut out = Vec::with_capacity(windows);
    let mut state: Option<WindowState> = None;
    for t in trail.traces() {
        push_trace(&mut state, t, cfg, &mut |tr| out.push(tr));
    }
    if let Some(s) = state {
        out.push(s.best);
    }
    Trail::new(trail.user, out)
}

/// The streaming state: current `(user, window)` plus its best candidate.
#[derive(Clone, Debug)]
struct WindowState {
    user: UserId,
    window: i64,
    best: MobilityTrace,
    best_badness: i64,
}

/// Core streaming step shared by the sequential and MapReduce paths.
fn push_trace(
    state: &mut Option<WindowState>,
    t: &MobilityTrace,
    cfg: &SamplingConfig,
    emit: &mut impl FnMut(MobilityTrace),
) {
    let window = t.timestamp.secs().div_euclid(cfg.window_secs);
    let badness = cfg.technique.badness(
        t.timestamp.secs(),
        window * cfg.window_secs,
        cfg.window_secs,
    );
    match state {
        Some(s) if s.user == t.user && s.window == window => {
            if badness < s.best_badness {
                s.best = *t;
                s.best_badness = badness;
            }
        }
        Some(s) => {
            emit(s.best);
            *state = Some(WindowState {
                user: t.user,
                window,
                best: *t,
                best_badness: badness,
            });
        }
        None => {
            *state = Some(WindowState {
                user: t.user,
                window,
                best: *t,
                best_badness: badness,
            });
        }
    }
}

/// The paper's sampling mapper: a pure filter with per-window state.
#[derive(Clone)]
pub struct SamplingMapper {
    cfg: SamplingConfig,
    state: Option<WindowState>,
}

impl SamplingMapper {
    /// A mapper applying `cfg`.
    pub fn new(cfg: SamplingConfig) -> Self {
        Self { cfg, state: None }
    }
}

impl Mapper<MobilityTrace> for SamplingMapper {
    type KOut = UserId;
    type VOut = MobilityTrace;

    fn map(
        &mut self,
        _offset: u64,
        value: &MobilityTrace,
        out: &mut Emitter<UserId, MobilityTrace>,
    ) {
        let cfg = self.cfg;
        push_trace(&mut self.state, value, &cfg, &mut |t| out.emit(t.user, t));
    }

    fn cleanup(&mut self, out: &mut Emitter<UserId, MobilityTrace>) {
        if let Some(s) = self.state.take() {
            out.emit(s.best.user, s.best);
        }
    }

    /// A user switch closes the window just as `cleanup` does.
    fn splits_between(&self, prev: &MobilityTrace, next: &MobilityTrace) -> bool {
        prev.user != next.user
    }
}

/// Runs sampling as a map-only MapReduce job over `input`, submitted
/// through `ctx`; returns the sampled dataset, the job statistics and the
/// re-submissions it took.
///
/// Telemetry: the job's spans are captured under a `sampling` span, and
/// a `sampling.throughput` point records the end-to-end records/second —
/// the number Table I's per-window rows normalize against. A map-only
/// job has no shuffle to bound and no reduce output to commit, so the
/// context's memory budget and journal do not apply; use
/// [`mapreduce_sample_by_user_in`] for a crash-safe or out-of-core run.
pub fn mapreduce_sample_in<'d>(
    ctx: &ExecCtx<'_>,
    dfs: impl Into<DfsAccess<'d, MobilityTrace>>,
    input: &str,
    cfg: &SamplingConfig,
) -> Result<(Dataset, JobStats, u32), JobError> {
    let (result, retries) = sample_job(ctx, dfs.into(), input, cfg)?;
    let dataset = Dataset::from_traces(result.output.into_iter().map(|(_, t)| t));
    Ok((dataset, result.stats, retries))
}

/// The job behind [`mapreduce_sample_in`], its output pairs in emission
/// order.
fn sample_job(
    ctx: &ExecCtx<'_>,
    mut dfs: DfsAccess<'_, MobilityTrace>,
    input: &str,
    cfg: &SamplingConfig,
) -> Result<(JobResult<UserId, MobilityTrace>, u32), JobError> {
    let telemetry = &ctx.telemetry;
    let span = telemetry.span(
        "sampling",
        &[("input", input), ("window", &cfg.window_secs.to_string())],
    );
    let (result, retries) = ctx.submit("sampling", &mut dfs, |job_name, dfs, budget| {
        MapOnlyJob::new(job_name, ctx.cluster, dfs, input, SamplingMapper::new(*cfg))
            .pair_bytes(|_, t| t.approx_plt_bytes())
            .exec(ctx, budget)
            .run()
    })?;
    span.end();
    let input_records = dfs.num_records(input)? as f64;
    let elapsed = result.stats.real_elapsed.as_secs_f64();
    if elapsed > 0.0 {
        telemetry.point(
            "sampling.throughput",
            input_records / elapsed,
            &[("input", input)],
        );
    }
    Ok((result, retries))
}

/// Regroups sampled traces per user — the reduce-side variant of sampling
/// used when the output should arrive user-grouped (and the shuffle it
/// adds is what the out-of-core spill path exercises at scale).
///
/// Emits what it computes: one `(user, Trail)` per key, time-sorted
/// inside the (parallel) reduce task — the stable sort
/// [`Dataset::from_traces`] would apply to the same values in the same
/// order. It takes its partition's columns whole — the map tasks' buckets,
/// or the windows of a spilled merge — and cuts every run into a trail of
/// its shared column, sorted in place ([`Trail::cut_column`]), so a user
/// of one run costs no allocation and no copy. A user of several runs
/// (split across map tasks, or an input that is not user-major) is
/// gathered alone: its runs being time-sorted, the stable sort of their
/// concatenation is that of its values. The driver only has to hand the
/// trails to [`Dataset::from_trails`].
#[derive(Clone)]
pub struct RegroupReducer;

impl Reducer<UserId, MobilityTrace> for RegroupReducer {
    type KOut = UserId;
    type VOut = Trail;

    fn reduce(
        &mut self,
        key: &UserId,
        values: Group<'_, MobilityTrace>,
        out: &mut Emitter<UserId, Trail>,
    ) {
        out.emit(*key, Trail::new(*key, values.iter().cloned().collect()));
    }

    fn reduce_partition(
        &mut self,
        groups: FlatGroups<UserId, MobilityTrace>,
        out: &mut Emitter<UserId, Trail>,
    ) {
        out.reserve(groups.len());
        let (columns, runs) = groups.into_runs();
        let mut trails: Vec<Vec<Trail>> = (columns.into_iter())
            .map(|(ends, column)| Trail::cut_column(column, &ends).collect())
            .collect();
        let mut runs = runs
            .map(|(column, run)| std::mem::take(&mut trails[column][run]))
            .peekable();
        while let Some(trail) = runs.next() {
            // A user's runs are adjacent, in map order.
            let user = trail.user;
            let more: Vec<_> = std::iter::from_fn(|| runs.next_if(|t| t.user == user)).collect();
            if more.is_empty() {
                out.emit(user, trail);
            } else {
                let traces = std::iter::once(&trail).chain(&more).flat_map(Trail::traces);
                out.emit(user, Trail::new(user, traces.copied().collect()));
            }
        }
    }
}

/// Sampling with a full shuffle: maps with [`SamplingMapper`], then
/// regroups the representatives per user through a real reduce phase,
/// as one job submitted through `ctx`. Under `ctx.memory_budget` the
/// shuffle spills to disk instead of holding every intermediate pair in
/// memory; under `ctx.journal` every reduce partition's output is
/// committed into the run directory, so a killed run resumed against
/// the same journal replays the committed partitions from disk instead
/// of re-shuffling them — bit-identically. Returns the user-grouped
/// dataset, the job statistics and the re-submissions it took.
pub fn mapreduce_sample_by_user_in<'d>(
    ctx: &ExecCtx<'_>,
    dfs: impl Into<DfsAccess<'d, MobilityTrace>>,
    input: &str,
    cfg: &SamplingConfig,
) -> Result<(Dataset, JobStats, u32), JobError> {
    let span = ctx.telemetry.span(
        "sampling-by-user",
        &[("input", input), ("window", &cfg.window_secs.to_string())],
    );
    let (result, retries) = ctx.submit("sampling-by-user", dfs, |job_name, dfs, budget| {
        let mapper = SamplingMapper::new(*cfg);
        MapReduceJob::new(job_name, ctx.cluster, dfs, input, mapper, RegroupReducer)
            .reducers(ctx.cluster.topology.num_nodes())
            .pair_bytes(|_, t| t.approx_plt_bytes())
            .codecs(
                crate::spill_codecs::trace_codec(),
                crate::spill_codecs::trail_codec(),
            )
            .exec(ctx, budget)
            .run()
    })?;
    span.end();
    let dataset = Dataset::from_trails(result.output.into_iter().map(|(_, trail)| trail));
    Ok((dataset, result.stats, retries))
}

// Kept for `benchmark/`, which is compiled against these two
// signatures.

/// [`mapreduce_sample_by_user_in`] under [`ExecCtx::new`] plus
/// `memory_budget` and `telemetry`.
pub fn mapreduce_sample_by_user(
    cluster: &Cluster,
    dfs: &Dfs<MobilityTrace>,
    input: &str,
    cfg: &SamplingConfig,
    memory_budget: Option<usize>,
    telemetry: &Recorder,
) -> Result<(Dataset, JobStats), JobError> {
    let ctx = ExecCtx {
        memory_budget,
        ..ExecCtx::new(cluster).traced(telemetry)
    };
    mapreduce_sample_by_user_in(&ctx, dfs, input, cfg).map(|(sampled, stats, _)| (sampled, stats))
}

/// [`mapreduce_sample_in`] under [`ExecCtx::new`], the result written
/// back to the DFS under `output` (the paper's jobs read and write HDFS
/// folders) in [`Dataset`] order: by user, then by time. The job's pairs
/// are stably sorted into that order in place — one pass over the
/// user-major output of a user-major input — and put as they are.
pub fn mapreduce_sample_to_dfs(
    cluster: &Cluster,
    dfs: &mut Dfs<MobilityTrace>,
    input: &str,
    output: &str,
    cfg: &SamplingConfig,
) -> Result<JobStats, JobError> {
    let (mut result, _) = sample_job(&ExecCtx::new(cluster), (&mut *dfs).into(), input, cfg)?;
    result.output.sort_by_key(|(_, t)| (t.user, t.timestamp));
    let traces = result.output.into_iter().map(|(_, t)| t);
    dfs.put_from_iter(output, traces, |t| t.approx_plt_bytes())?;
    Ok(result.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs_io::{put_dataset, trace_dfs};
    use gepeto_mapred::counters::builtin;
    use gepeto_model::{GeoPoint, Timestamp};

    fn tr(user: UserId, secs: i64) -> MobilityTrace {
        MobilityTrace::new(
            user,
            GeoPoint::new(40.0 + secs as f64 * 1e-6, 116.0),
            Timestamp(secs),
        )
    }

    #[test]
    fn sample_trail_presizing_survives_extreme_timestamps() {
        // A trail spanning the whole representable time range: the
        // span subtraction and the `span / window + 1` estimate would
        // both overflow without saturating arithmetic.
        let trail = Trail::new(1, vec![tr(1, i64::MIN + 1), tr(1, 0), tr(1, i64::MAX - 1)]);
        let cfg = SamplingConfig::new(1, Technique::ClosestToUpperLimit);
        let sampled = sample_trail(&trail, &cfg);
        assert_eq!(sampled.len(), 3, "three windows, three representatives");
    }

    #[test]
    fn upper_limit_takes_latest_trace_per_window() {
        // Window 60: [0,60) holds 5, 20, 59 → 59; [60,120) holds 61 → 61.
        let ds = Dataset::from_traces(vec![tr(1, 5), tr(1, 20), tr(1, 59), tr(1, 61)]);
        let cfg = SamplingConfig::new(60, Technique::ClosestToUpperLimit);
        let sampled = sequential_sample(&ds, &cfg);
        let secs: Vec<i64> = sampled.iter_traces().map(|t| t.timestamp.secs()).collect();
        assert_eq!(secs, vec![59, 61]);
    }

    #[test]
    fn middle_takes_trace_closest_to_center() {
        // Window 60, center 30: traces at 5, 29, 55 → 29 wins.
        let ds = Dataset::from_traces(vec![tr(1, 5), tr(1, 29), tr(1, 55)]);
        let cfg = SamplingConfig::new(60, Technique::ClosestToMiddle);
        let sampled = sequential_sample(&ds, &cfg);
        let secs: Vec<i64> = sampled.iter_traces().map(|t| t.timestamp.secs()).collect();
        assert_eq!(secs, vec![29]);
    }

    #[test]
    fn techniques_differ_on_the_same_input() {
        let ds = Dataset::from_traces(vec![tr(1, 5), tr(1, 29), tr(1, 55)]);
        let up = sequential_sample(
            &ds,
            &SamplingConfig::new(60, Technique::ClosestToUpperLimit),
        );
        let mid = sequential_sample(&ds, &SamplingConfig::new(60, Technique::ClosestToMiddle));
        assert_eq!(up.iter_traces().next().unwrap().timestamp.secs(), 55);
        assert_eq!(mid.iter_traces().next().unwrap().timestamp.secs(), 29);
    }

    #[test]
    fn windows_are_per_user() {
        let ds = Dataset::from_traces(vec![tr(1, 5), tr(1, 15), tr(2, 10), tr(2, 25)]);
        let cfg = SamplingConfig::new(60, Technique::ClosestToUpperLimit);
        let sampled = sequential_sample(&ds, &cfg);
        assert_eq!(sampled.num_traces(), 2); // one window each
        assert_eq!(sampled.num_users(), 2);
    }

    #[test]
    fn negative_timestamps_window_correctly() {
        // div_euclid keeps windows aligned across zero.
        let ds = Dataset::from_traces(vec![tr(1, -61), tr(1, -59), tr(1, -1), tr(1, 1)]);
        let cfg = SamplingConfig::new(60, Technique::ClosestToUpperLimit);
        let sampled = sequential_sample(&ds, &cfg);
        let secs: Vec<i64> = sampled.iter_traces().map(|t| t.timestamp.secs()).collect();
        // Windows: [-120,-60) → -61; [-60,0) → -1; [0,60) → 1.
        assert_eq!(secs, vec![-61, -1, 1]);
    }

    #[test]
    fn empty_dataset_samples_to_empty() {
        let cfg = SamplingConfig::new(60, Technique::ClosestToMiddle);
        assert!(sequential_sample(&Dataset::new(), &cfg).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        let _ = SamplingConfig::new(0, Technique::ClosestToMiddle);
    }

    #[test]
    fn mapreduce_equals_sequential_single_chunk() {
        let traces: Vec<MobilityTrace> = (0..500).map(|i| tr(1 + (i % 3) as u32, i * 7)).collect();
        let ds = Dataset::from_traces(traces);
        let cluster = Cluster::local(3, 2);
        let ctx = ExecCtx::new(&cluster);
        let mut dfs = trace_dfs(&cluster, 1 << 20); // everything in one chunk
        put_dataset(&mut dfs, "d", &ds).unwrap();
        let cfg = SamplingConfig::new(60, Technique::ClosestToUpperLimit);
        let (mr, stats, _) = mapreduce_sample_in(&ctx, &dfs, "d", &cfg).unwrap();
        assert_eq!(stats.map_tasks, 1);
        assert_eq!(mr, sequential_sample(&ds, &cfg));
    }

    #[test]
    fn mapreduce_boundary_artifact_is_bounded() {
        let traces: Vec<MobilityTrace> = (0..2_000).map(|i| tr(1, i * 3)).collect();
        let ds = Dataset::from_traces(traces);
        let cluster = Cluster::local(3, 2);
        let ctx = ExecCtx::new(&cluster);
        let mut dfs = trace_dfs(&cluster, 4_096); // ~64 traces per chunk
        put_dataset(&mut dfs, "d", &ds).unwrap();
        let chunks = dfs.num_blocks("d").unwrap();
        assert!(chunks > 10);
        let cfg = SamplingConfig::new(60, Technique::ClosestToUpperLimit);
        let (mr, _, _) = mapreduce_sample_in(&ctx, &dfs, "d", &cfg).unwrap();
        let seq = sequential_sample(&ds, &cfg);
        // Each chunk boundary can split at most one window in two.
        let diff = mr.num_traces() as i64 - seq.num_traces() as i64;
        assert!(
            (0..(chunks as i64)).contains(&diff),
            "diff {diff}, chunks {chunks}"
        );
    }

    #[test]
    fn to_dfs_variant_writes_output_file() {
        let ds = Dataset::from_traces((0..100).map(|i| tr(1, i * 10)).collect::<Vec<_>>());
        let cluster = Cluster::local(2, 2);
        let mut dfs = trace_dfs(&cluster, 1 << 16);
        put_dataset(&mut dfs, "in", &ds).unwrap();
        let cfg = SamplingConfig::new(60, Technique::ClosestToMiddle);
        let stats = mapreduce_sample_to_dfs(&cluster, &mut dfs, "in", "out", &cfg).unwrap();
        assert!(dfs.exists("out"));
        assert!(stats.map_tasks >= 1);
        assert!(dfs.num_records("out").unwrap() < 100);
    }

    #[test]
    fn sampling_mapper_cuts_only_where_the_user_changes() {
        use crate::test_splits::{assert_cuts_change_nothing, seam_traces};
        for technique in [Technique::ClosestToUpperLimit, Technique::ClosestToMiddle] {
            let mapper = SamplingMapper::new(SamplingConfig::new(60, technique));
            assert_eq!(assert_cuts_change_nothing(&mapper, 0, &seam_traces()), 3);
        }
    }

    /// The blocks of `name`: records, bytes and checksum, in file order.
    fn chunks(dfs: &Dfs<MobilityTrace>, name: &str) -> Vec<(Vec<MobilityTrace>, usize, u64)> {
        let ids = dfs.blocks_of(name).unwrap();
        ids.iter()
            .map(|&id| dfs.block(id))
            .map(|b| (b.data.to_vec(), b.bytes, b.checksum))
            .collect()
    }

    #[test]
    fn to_dfs_writes_the_dataset_order_chunk_for_chunk() {
        // User-major input samples to output already in dataset order;
        // interleaved users (a new user every trace, in falling order)
        // come out of the job unordered. Both files must be the one the
        // dataset round trip writes.
        let user_major: Vec<MobilityTrace> = (0..300u32)
            .map(|i| tr(1 + i / 100, i64::from(i % 100) * 25))
            .collect();
        let interleaved: Vec<MobilityTrace> = (0..300u32)
            .map(|i| tr(3 - i % 3, i64::from(i / 3) * 25))
            .collect();
        let cluster = Cluster::local(2, 2);
        let cfg = SamplingConfig::new(60, Technique::ClosestToMiddle);
        for input in [user_major, interleaved] {
            let mut dfs = trace_dfs(&cluster, 2_000);
            dfs.put_with_sizer("in", input, |t| t.approx_plt_bytes())
                .unwrap();
            mapreduce_sample_to_dfs(&cluster, &mut dfs, "in", "out", &cfg).unwrap();
            let (dataset, _, _) =
                mapreduce_sample_in(&ExecCtx::new(&cluster), &dfs, "in", &cfg).unwrap();
            let mut want = trace_dfs(&cluster, 2_000);
            want.put_with_sizer("out", dataset.to_traces(), |t| t.approx_plt_bytes())
                .unwrap();
            assert!(want.num_blocks("out").unwrap() > 1);
            assert_eq!(chunks(&dfs, "out"), chunks(&want, "out"));
        }
    }

    /// Columns a by-user regroup's trails share: the map buckets (a map
    /// task's output for one reduce partition) they were grouped in — at
    /// most one per bucket, more than one per reduce partition — plus a
    /// trail of its own for each user a chunk seam splits between two map
    /// tasks, gathered alone; and fewer than there are trails.
    fn assert_trails_share_map_buckets(grouped: &Dataset, stats: &JobStats) {
        let buckets = stats.map_tasks * stats.reduce_tasks;
        let split_users = stats.map_tasks - 1;
        let columns = grouped.column_count();
        assert!(
            (stats.reduce_tasks + 1..=buckets + split_users).contains(&columns),
            "{columns} columns for {buckets} map buckets in {} partitions",
            stats.reduce_tasks
        );
        assert!(
            columns < grouped.num_users(),
            "{columns} columns for {} trails",
            grouped.num_users()
        );
    }

    #[test]
    fn by_user_regroup_shares_the_map_buckets_as_columns() {
        let traces: Vec<MobilityTrace> = (0..900).map(|i| tr(1 + (i % 30) as u32, i * 7)).collect();
        let ds = Dataset::from_traces(traces);
        assert_eq!(ds.column_count(), 1);
        let cluster = Cluster::local(3, 2);
        let ctx = ExecCtx::new(&cluster);
        let mut dfs = trace_dfs(&cluster, 16_384);
        put_dataset(&mut dfs, "d", &ds).unwrap();
        let cfg = SamplingConfig::new(60, Technique::ClosestToUpperLimit);
        let (grouped, stats, _) = mapreduce_sample_by_user_in(&ctx, &dfs, "d", &cfg).unwrap();
        let (map_only, _, _) = mapreduce_sample_in(&ctx, &dfs, "d", &cfg).unwrap();
        assert_eq!(grouped, map_only);
        assert_eq!(grouped.num_users(), 30);
        assert!(stats.map_tasks > 1);
        assert_trails_share_map_buckets(&grouped, &stats);
        assert_eq!(map_only.column_count(), 1);
    }

    #[test]
    fn a_spilled_by_user_regroup_cuts_its_trails_from_shared_windows() {
        let traces: Vec<MobilityTrace> = (0..900).map(|i| tr(1 + (i % 30) as u32, i * 7)).collect();
        let ds = Dataset::from_traces(traces);
        let cluster = Cluster::local(3, 2);
        let mut dfs = trace_dfs(&cluster, 16_384);
        put_dataset(&mut dfs, "d", &ds).unwrap();
        let cfg = SamplingConfig::new(60, Technique::ClosestToUpperLimit);
        let (in_memory, _, _) =
            mapreduce_sample_by_user_in(&ExecCtx::new(&cluster), &dfs, "d", &cfg).unwrap();
        // Every partition spills; a window of its merge holds several users.
        let ctx = ExecCtx {
            memory_budget: Some(8_192),
            ..ExecCtx::new(&cluster)
        };
        let (spilled, stats, _) = mapreduce_sample_by_user_in(&ctx, &dfs, "d", &cfg).unwrap();
        assert!(stats.counter(builtin::SPILL_FILES) >= stats.reduce_tasks as u64);
        assert!(
            spilled.column_count() < spilled.num_users(),
            "{} columns for {} trails",
            spilled.column_count(),
            spilled.num_users()
        );
        assert_eq!(spilled, in_memory);
    }

    #[test]
    fn durable_by_user_replays_trail_artifacts_and_recomputes_per_trace_ones() {
        use crate::spill_codecs::trace_codec;
        use gepeto_mapred::spill::seal_run_at;
        use gepeto_mapred::{ChaosPlan, JournalEntry, RunJournal};
        use std::sync::Arc;
        const JOB: &str = "sampling-by-user";
        let run_dir = std::env::temp_dir().join(format!(
            "gepeto-by-user-artifacts-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&run_dir);
        let journal = Arc::new(RunJournal::attach(&run_dir).unwrap());
        let traces: Vec<MobilityTrace> = (0..800).map(|i| tr(1 + (i % 28) as u32, i * 9)).collect();
        let ds = Dataset::from_traces(traces);
        let cluster = Cluster::local(3, 2);
        let mut dfs = trace_dfs(&cluster, 16_384);
        put_dataset(&mut dfs, "d", &ds).unwrap();
        let cfg = SamplingConfig::new(60, Technique::ClosestToUpperLimit);
        let ctx = ExecCtx {
            journal: Some(Arc::clone(&journal)),
            ..ExecCtx::new(&cluster)
        };
        let run = || mapreduce_sample_by_user_in(&ctx, &dfs, "d", &cfg).unwrap();
        let (first, stats, _) = run();
        assert_eq!(stats.counter(builtin::JOURNAL_REPLAYED), 0);
        let partitions = journal.committed_reduces(JOB).len() as u64;
        assert_eq!(partitions, stats.reduce_tasks as u64);

        // What `resume` does: every partition comes back from its artifact.
        // The fresh trails are ranges of the map buckets they were grouped
        // in, the replayed ones decode into a vector each; equal by content.
        assert_trails_share_map_buckets(&first, &stats);
        let (replayed, stats, _) = run();
        assert_eq!(stats.counter(builtin::JOURNAL_REPLAYED), partitions);
        assert_eq!(replayed.column_count(), replayed.num_users());
        assert_eq!(replayed, first);

        // An artifact from before the reducer emitted trails: the same
        // partition as per-trace pairs, sealed and journaled correctly. It
        // verifies, but does not decode as trails — so it is quarantined
        // and the partition recomputed, never trusted and never a panic.
        let (partition, art) = journal
            .committed_reduces(JOB)
            .into_iter()
            .find(|(_, art)| art.records > 0)
            .expect("a non-empty partition");
        let trails = gepeto_mapred::spill::load_artifact(
            &crate::spill_codecs::trail_codec(),
            &art.path,
            art.records as u64,
            art.checksum,
        )
        .unwrap();
        let per_trace: Vec<(UserId, MobilityTrace)> = trails
            .iter()
            .flat_map(|(user, trail)| trail.traces().iter().map(|t| (*user, *t)))
            .collect();
        let (sealed, _) =
            seal_run_at(&trace_codec(), &art.path, &per_trace, &ChaosPlan::none()).unwrap();
        journal
            .append(&JournalEntry::ReduceCommit {
                job: JOB.to_string(),
                partition,
                path: art.path.display().to_string(),
                records: per_trace.len(),
                checksum: sealed.checksum,
            })
            .unwrap();
        let (recomputed, stats, _) = run();
        assert_eq!(recomputed, first);
        assert_eq!(stats.counter(builtin::JOURNAL_REPLAYED), partitions - 1);
        assert!(stats.counter(builtin::RUNS_QUARANTINED) >= 1);
        let _ = std::fs::remove_dir_all(&run_dir);
    }

    #[test]
    fn technique_parse() {
        assert_eq!(
            Technique::parse("upper"),
            Some(Technique::ClosestToUpperLimit)
        );
        assert_eq!(Technique::parse("MIDDLE"), Some(Technique::ClosestToMiddle));
        assert_eq!(Technique::parse("mean"), None);
    }
}
