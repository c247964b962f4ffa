//! Job submission and execution: the driver, the jobtracker's scheduling
//! and retry logic, and the shuffle.
//!
//! A [`MapReduceJob`] mirrors the paper's `Driver` class (§IV): it names
//! the input file, the mapper, the reducer and the runtime configuration,
//! then `run()`s the whole thing; a map-only job ([`MapOnlyJob`]) is one
//! without reduce tasks. Tasks execute in
//! parallel on the `gepeto-pool` work-stealing thread pool; every task's
//! wall time is measured and replayed by [`crate::sim::simulate_chaos`],
//! so the result carries both the real elapsed time and the
//! virtual-cluster makespan.
//!
//! Failure handling follows Hadoop: a task attempt may be killed (here:
//! deterministically injected via [`ChaosPlan::fail_tasks`]), and the
//! jobtracker reschedules it until the task has died as often as the
//! plan allows, at which point the job fails.

use crate::api::{Emitter, Mapper, MrKey, MrValue, Reducer, TaskContext};
use crate::chaos::ChaosPlan;
use crate::commit::{self, CommitError};
use crate::counters::{builtin, phase, Counters};
use crate::dfs::{BlockId, Dfs, DfsError};
use crate::exec::ExecCtx;
use crate::hash::{default_partition, FnvBuildHasher};
use crate::journal::{JournalEntry, RunJournal};
use crate::sim::{simulate_chaos, MapTaskSim, ReduceTaskSim, SimError, SimReport};
use crate::spill::{
    load_artifact, quarantine_run, sanitize, seal_groups, seal_run_at, verify_run, PartitionInput,
    SpillCodec, SpillDir, SpillRun, SpillSpec, SpilledPartition,
};
use crate::topology::Cluster;
use gepeto_pool::Pool;
use gepeto_telemetry::registry::{self, Kind};
use gepeto_telemetry::{LedgerScope, Recorder, Span};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Why a job did not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The input file could not be read (including every replica of an
    /// input chunk being lost to crashes or corruption).
    Dfs(DfsError),
    /// A task exhausted its attempts.
    TaskFailed {
        /// `"map"` or `"reduce"`.
        phase: &'static str,
        /// 0-based task index within the phase.
        task: usize,
        /// Attempts consumed before giving up.
        attempts: u32,
    },
    /// Tasks remained but every worker node was dead or blacklisted.
    ClusterDead,
    /// A spill file could not be written, read back, or decoded.
    Spill(String),
    /// Storage IO failed persistently (transient EIO retries exhausted,
    /// or a committed file stayed damaged through every rewrite) — the
    /// storage-aware retry policy re-executes the producing tasks.
    Io(String),
    /// The disk ran out of space (ENOSPC) — retryable with a larger
    /// memory budget, which shrinks the spill footprint.
    DiskFull(String),
    /// The driver refused the input before submitting anything: it holds
    /// more records than the algorithm's record ids can number.
    InputTooLarge {
        /// Records in the input file.
        records: usize,
        /// The most the driver accepts.
        limit: usize,
    },
    /// The driver refused the input before submitting anything: the
    /// named file holds no records to start from.
    EmptyInput(String),
}

impl JobError {
    /// Whether this is a storage failure — retried on the policy's
    /// `io_retries` budget, not the node-failure one.
    pub fn is_storage(&self) -> bool {
        matches!(self, JobError::Io(_) | JobError::DiskFull(_))
    }
}

impl From<DfsError> for JobError {
    fn from(e: DfsError) -> Self {
        JobError::Dfs(e)
    }
}

impl From<CommitError> for JobError {
    fn from(e: CommitError) -> Self {
        match e {
            CommitError::DiskFull(m) => JobError::DiskFull(m),
            other => JobError::Io(other.to_string()),
        }
    }
}

impl From<SimError> for JobError {
    fn from(e: SimError) -> Self {
        match e {
            SimError::UnreadableBlock(b) => JobError::Dfs(DfsError::AllReplicasLost(b)),
            SimError::NoLiveNodes => JobError::ClusterDead,
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Dfs(e) => write!(f, "{e}"),
            JobError::TaskFailed {
                phase,
                task,
                attempts,
            } => write!(f, "{phase} task {task} failed after {attempts} attempts"),
            JobError::ClusterDead => write!(f, "no live worker node left to run tasks"),
            JobError::Spill(e) => write!(f, "shuffle spill failed: {e}"),
            JobError::Io(e) => write!(f, "storage io failed: {e}"),
            JobError::DiskFull(e) => write!(f, "disk full: {e}"),
            JobError::InputTooLarge { records, limit } => {
                write!(
                    f,
                    "input holds {records} records, more than the {limit} supported"
                )
            }
            JobError::EmptyInput(file) => write!(f, "input file '{file}' holds no records"),
        }
    }
}

impl std::error::Error for JobError {}

/// Everything the driver learns from a finished job besides its output.
#[derive(Debug, Clone)]
pub struct JobStats {
    /// Job name (for reports).
    pub name: String,
    /// Number of map tasks (= number of input chunks).
    pub map_tasks: usize,
    /// Number of reduce tasks (0 for map-only jobs).
    pub reduce_tasks: usize,
    /// Real wall-clock time of the in-process parallel execution.
    pub real_elapsed: Duration,
    /// Virtual-cluster replay of the measured task times.
    pub sim: SimReport,
    /// Final counter values, the replay's recovery tallies included.
    pub counters: BTreeMap<String, u64>,
}

impl JobStats {
    /// Counter `name`'s final value (0 if the job never counted it).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// A finished job: its output pairs plus [`JobStats`].
#[derive(Debug, Clone)]
pub struct JobResult<K, V> {
    /// Output pairs, deterministically ordered (see [`MapReduceJob`]).
    pub output: Vec<(K, V)>,
    /// Execution statistics.
    pub stats: JobStats,
}

/// Placeholder reducer type of a [`MapOnlyJob`]: its output types are the
/// map output types, and it never runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoReducer;

impl<K2: MrKey, V2: MrValue> Reducer<K2, V2> for NoReducer {
    type KOut = K2;
    type VOut = V2;

    fn reduce(&mut self, _key: &K2, _values: Group<'_, V2>, _out: &mut Emitter<K2, V2>) {
        unreachable!("a map-only job has no reduce phase")
    }
}

type PairBytes<K, V> = Arc<dyn Fn(&K, &V) -> usize + Send + Sync>;
/// A partition's map-task buckets, in task order.
type Buckets<K, V> = Vec<KeyRuns<K, V>>;
type Partitioner<K> = Arc<dyn Fn(&K, usize) -> usize + Send + Sync>;

/// A job: map, shuffle and reduce — or, built by [`MapOnlyJob::new`],
/// map only.
///
/// Output ordering: reduce partitions in partition-index order; within a
/// partition, key groups in ascending key order, each group's values in
/// map-task emission order — fully deterministic, and the same whether
/// the partition was grouped in memory or merged from spill runs. A
/// map-only job outputs its map tasks' pairs in chunk order, each task's
/// in emission order.
#[allow(clippy::type_complexity)]
pub struct MapReduceJob<'a, V1, M, R>
where
    M: Mapper<V1>,
    R: Reducer<M::KOut, M::VOut>,
{
    name: String,
    cluster: &'a Cluster,
    dfs: &'a Dfs<V1>,
    input: String,
    mapper: M,
    reducer: R,
    num_reducers: usize,
    telemetry: Recorder,
    pair_bytes: Option<PairBytes<M::KOut, M::VOut>>,
    partitioner: Option<Partitioner<M::KOut>>,
    budget: Option<usize>,
    journal: Option<Arc<RunJournal>>,
    codecs: Option<(SpillCodec<M::KOut, M::VOut>, SpillCodec<R::KOut, R::VOut>)>,
    /// Set on a map-only job, which has no reduce phase: the identity from
    /// its map output to its output.
    map_only: Option<fn(Vec<(M::KOut, M::VOut)>) -> Vec<(R::KOut, R::VOut)>>,
}

impl<'a, V1, M, R> MapReduceJob<'a, V1, M, R>
where
    V1: MrValue,
    M: Mapper<V1>,
    R: Reducer<M::KOut, M::VOut>,
{
    /// A job reading `input` from `dfs`, with one reduce task per worker
    /// node by default.
    pub fn new(
        name: &str,
        cluster: &'a Cluster,
        dfs: &'a Dfs<V1>,
        input: &str,
        mapper: M,
        reducer: R,
    ) -> Self {
        Self {
            name: name.to_string(),
            cluster,
            dfs,
            input: input.to_string(),
            mapper,
            reducer,
            num_reducers: cluster.topology.num_nodes(),
            telemetry: Recorder::disabled(),
            pair_bytes: None,
            partitioner: None,
            budget: None,
            journal: None,
            codecs: None,
            map_only: None,
        }
    }

    /// Sets the number of reduce tasks (≥ 1; a job without any is a
    /// [`MapOnlyJob`]).
    pub fn reducers(mut self, n: usize) -> Self {
        assert!(
            n >= 1 && self.map_only.is_none(),
            "a job with reduce tasks has at least one; a map-only job has none"
        );
        self.num_reducers = n;
        self
    }

    /// Overrides the intermediate-pair size estimator used for shuffle
    /// accounting (default: `size_of::<(K, V)>()`).
    pub fn pair_bytes(
        mut self,
        f: impl Fn(&M::KOut, &M::VOut) -> usize + Send + Sync + 'static,
    ) -> Self {
        self.pair_bytes = Some(Arc::new(f));
        self
    }

    /// Gives the job codecs for its map output pairs (`shuffle`) and its
    /// reduce output pairs (`output`), which the memory budget and the
    /// journal of [`Self::exec`] need:
    ///
    /// - Past the budget, a reduce partition's buffered pairs are stably
    ///   sorted and spilled as a run file, and the reduce task merges its
    ///   runs — bit-identical to the in-memory grouping. A budget of `0`
    ///   spills after every map task's contribution.
    /// - Under a journal, every reduce partition's output is committed to
    ///   the run directory and journaled, as are sealed spill runs; on
    ///   resume a partition whose artifact still verifies is loaded
    ///   (bumping [`builtin::JOURNAL_REPLAYED`]) instead of recomputed, so
    ///   job names must be unique within a run directory.
    pub fn codecs(
        mut self,
        shuffle: SpillCodec<M::KOut, M::VOut>,
        output: SpillCodec<R::KOut, R::VOut>,
    ) -> Self {
        self.codecs = Some((shuffle, output));
        self
    }

    /// Runs the job the way `ctx` says, as one attempt of
    /// [`ExecCtx::submit`]: phases, tasks, retries and scheduling decisions
    /// go to the context's recorder; with [`Self::codecs`] and a reduce
    /// phase, the shuffle spills past `budget` (the attempt's budget
    /// `submit` handed out) and the reduce output is committed to the
    /// context's journal.
    pub fn exec(mut self, ctx: &ExecCtx<'_>, budget: Option<usize>) -> Self {
        self.telemetry = ctx.telemetry.clone();
        self.budget = budget;
        self.journal = ctx.journal.clone();
        self
    }

    /// Overrides the partitioner (default: deterministic hash modulo the
    /// reducer count — Hadoop's `HashPartitioner`). `f(key, num_reducers)`
    /// must return a value `< num_reducers`.
    pub fn partitioner(
        mut self,
        f: impl Fn(&M::KOut, usize) -> usize + Send + Sync + 'static,
    ) -> Self {
        self.partitioner = Some(Arc::new(f));
        self
    }

    /// Runs the job to completion.
    pub fn run(mut self) -> Result<JobResult<R::KOut, R::VOut>, JobError> {
        let started = Instant::now();
        let monitor = self.telemetry.monitor();
        let counters = Counters::live(monitor.clone());
        let job_ledger = LedgerScope::open();
        if let Some(m) = &monitor {
            m.add(registry::JOBS_STARTED, 1);
        }
        // Budget and journal need codecs and a reduce phase; `durable` is
        // where reduce outputs are committed and how they are encoded.
        let (spill, durable) = match self.codecs.take() {
            Some((shuffle, output)) if self.map_only.is_none() => (
                self.budget.map(|budget| SpillSpec {
                    codec: shuffle,
                    budget,
                }),
                self.journal.take().map(|journal| (journal, output)),
            ),
            _ => (None, None),
        };
        let job_span = self.telemetry.span(
            "job",
            &[
                ("job", &self.name),
                ("reducers", &self.num_reducers.to_string()),
            ],
        );
        let MapPhaseOutput {
            pairs,
            partitions,
            sim_tasks: map_sim,
            partition_bytes,
        } = run_map_phase(
            &self.name,
            self.cluster,
            self.dfs,
            &self.input,
            &self.mapper,
            self.num_reducers,
            &counters,
            &self.telemetry,
            &job_span,
            self.pair_bytes.as_ref(),
            self.partitioner.clone(),
            spill.as_ref(),
            durable.as_ref().map(|(journal, _)| journal.as_ref()),
        )?;
        let (output, reduce_sim) = match self.map_only {
            // No reduce phase: the map pairs in chunk and range order are
            // the output.
            Some(pass_through) => (pass_through(pairs), Vec::new()),
            None => self.reduce_phase(
                partitions,
                &partition_bytes,
                spill.map_or(usize::MAX, |s| s.budget),
                durable
                    .as_ref()
                    .map(|(journal, codec)| (journal.as_ref(), codec)),
                &counters,
                &job_span,
            )?,
        };
        let sim = simulate_chaos(
            &self.cluster.topology,
            &self.cluster.sim,
            &self.cluster.chaos,
            self.cluster.chaos.now(),
            &map_sim,
            &reduce_sim,
            &self.telemetry,
        )?;
        self.cluster.chaos.advance(sim.makespan_s);
        job_span.end();
        note_job_mem(job_ledger, &counters);
        let stats = finish_stats(
            self.name,
            map_sim.len(),
            reduce_sim.len(),
            started.elapsed(),
            sim,
            &counters,
            &self.telemetry,
        );
        Ok(JobResult { output, stats })
    }

    /// The shuffle's copy step and the reduce tasks, in parallel: one task
    /// per partition, its output and virtual-replay inputs in partition
    /// order.
    #[allow(clippy::type_complexity)]
    fn reduce_phase(
        &self,
        partitions: Vec<PartitionInput<M::KOut, M::VOut>>,
        partition_bytes: &[u64],
        group_budget: usize,
        durable: Option<(&RunJournal, &SpillCodec<R::KOut, R::VOut>)>,
        counters: &Counters,
        job_span: &Span,
    ) -> Result<(Vec<(R::KOut, R::VOut)>, Vec<ReduceTaskSim>), JobError> {
        // What the pool's tasks share (the job itself need not be `Sync`).
        let (name, cluster) = (&self.name, self.cluster);
        let telemetry = &self.telemetry;
        let monitor = telemetry.monitor();
        let shuffled: u64 = partition_bytes.iter().copied().sum();
        counters.inc(builtin::SHUFFLE_BYTES, shuffled);
        if let Some(m) = &monitor {
            m.add(
                registry::REDUCE_TASKS_SCHEDULED,
                partition_bytes.len() as u64,
            );
        }
        let reduce_span = job_span.child("phase.reduce", &[]);
        let reducer_clones: Vec<R> = (0..partition_bytes.len())
            .map(|_| self.reducer.clone())
            .collect();
        let chaos = &cluster.chaos;
        let committed = durable
            .map(|(journal, _)| journal.committed_reduces(name))
            .unwrap_or_default();
        type ReduceResults<K, V> = Vec<Result<ReduceTaskOutput<K, V>, JobError>>;
        // Each task owns one partition, so spilled partitions run their
        // external merges concurrently (earlier-run-wins order is a
        // per-partition property and is untouched by the scheduling).
        let reduce_inputs: Vec<_> = partitions
            .into_iter()
            .zip(reducer_clones)
            .enumerate()
            .collect();
        let reduce_results: ReduceResults<R::KOut, R::VOut> =
            gepeto_pool::global().map_vec(reduce_inputs, |(task_id, (payload, mut reducer))| {
                // Resume fast path: a reduce partition whose committed
                // artifact still passes a verifying read is loaded from
                // disk instead of re-executed — no failure injection,
                // no reducer run, bit-identical output by construction.
                if let (Some((_, codec)), Some(art)) = (durable, committed.get(&task_id)) {
                    let t0 = Instant::now();
                    match load_artifact(codec, &art.path, art.records as u64, art.checksum) {
                        Ok(output) => {
                            counters.inc(builtin::JOURNAL_REPLAYED, 1);
                            counters.inc(builtin::REDUCE_OUTPUT_RECORDS, output.len() as u64);
                            if let Some(m) = &monitor {
                                m.add(registry::REDUCE_TASKS_DONE, 1);
                            }
                            telemetry.point(
                                "task.reduce.replayed",
                                task_id as f64,
                                &[("job", name)],
                            );
                            return Ok(ReduceTaskOutput {
                                output,
                                host_secs: t0.elapsed().as_secs_f64(),
                                input_records: payload.records(),
                                failed_attempts: Vec::new(),
                            });
                        }
                        Err(_) => {
                            // The artifact rotted at rest since commit:
                            // quarantine it and fall through to a full
                            // recompute, which recommits below.
                            commit::quarantine(&art.path, chaos);
                            counters.inc(builtin::RUNS_QUARANTINED, 1);
                        }
                    }
                }
                let (attempt, failed_attempts) =
                    draw_attempts(name, phase::REDUCE, task_id, cluster, counters, telemetry)?;
                let task_span = reduce_span.child(
                    "task.reduce",
                    &[
                        ("task", &task_id.to_string()),
                        ("attempt", &attempt.to_string()),
                    ],
                );
                let t0 = Instant::now();
                let input_records = payload.records();
                counters.inc(builtin::REDUCE_INPUT_RECORDS, input_records);
                let ctx = TaskContext {
                    task_id,
                    attempt,
                    counters,
                };
                reducer.setup(&ctx);
                let mut out = Emitter::new();
                let mut groups = 0u64;
                let mut reduce = |flat: FlatGroups<M::KOut, M::VOut>| {
                    groups += flat.len() as u64;
                    reducer.reduce_partition(flat, &mut out);
                };
                match payload {
                    PartitionInput::Memory(buckets) => {
                        // Grouping, on the pool: the buckets stay where
                        // they are, and only their runs are sorted — not
                        // even those when they arrive in key order (a
                        // by-user regroup of a user-major input, a
                        // single-key merge).
                        let sort_span = || task_span.child("phase.sort", &[]);
                        reduce(FlatGroups::from_runs_sorting(buckets, sort_span));
                    }
                    PartitionInput::Spilled(sp) => {
                        // Verifying read: every sealed run must still be
                        // structurally intact before the merge trusts
                        // its record count (seal time already
                        // deep-verified the payload). A damaged run is
                        // quarantined and the task fails with an IO
                        // error, which the storage-aware retry loop
                        // answers by re-executing the producing maps.
                        for run in &sp.runs {
                            if let Err(e) = verify_run(run, false) {
                                quarantine_run(run, &sp.dir, chaos);
                                counters.inc(builtin::RUNS_QUARANTINED, 1);
                                return Err(JobError::Io(format!(
                                    "spill run failed verification: {e}"
                                )));
                            }
                        }
                        // External k-way merge over the sorted runs:
                        // equal keys break toward the earlier run, which
                        // reproduces the stable sort of the in-memory
                        // concatenation — spilled output is bit-identical
                        // to the in-memory grouping.
                        let _merge_span =
                            task_span.child("phase.merge", &[("runs", &sp.runs.len().to_string())]);
                        crate::spill::merge_groups(&sp, group_budget, &mut reduce)
                            .map_err(JobError::Spill)?;
                    }
                }
                counters.inc(builtin::REDUCE_INPUT_GROUPS, groups);
                reducer.cleanup(&mut out);
                let host_secs = t0.elapsed().as_secs_f64();
                task_span.end();
                if let Some(m) = &monitor {
                    m.add(registry::REDUCE_TASKS_DONE, 1);
                    m.observe("task.reduce.us", (host_secs * 1e6) as u64);
                }
                let output = out.into_pairs();
                counters.inc(builtin::REDUCE_OUTPUT_RECORDS, output.len() as u64);
                if let Some((journal, codec)) = durable {
                    // Commit this partition's output as a run-directory
                    // artifact and journal it; a resumed run replays
                    // from here instead of re-reducing.
                    let art_path = journal
                        .partitions_dir()
                        .join(format!("{}-p{task_id}.part", sanitize(name)));
                    let (run, seal) = seal_run_at(codec, &art_path, &output, chaos)?;
                    seal.repairs().for_each(|(c, n)| counters.inc(c, n));
                    journal
                        .append(&JournalEntry::ReduceCommit {
                            job: name.clone(),
                            partition: task_id,
                            path: art_path.display().to_string(),
                            records: output.len(),
                            checksum: run.checksum,
                        })
                        .map_err(JobError::Io)?;
                }
                Ok(ReduceTaskOutput {
                    output,
                    host_secs,
                    input_records,
                    failed_attempts,
                })
            });

        reduce_span.end();
        let reduce_results = reduce_results.into_iter().collect::<Result<Vec<_>, _>>()?;
        // Sized exactly: the job's output is often collected in place
        // downstream, where spare capacity would stay alive.
        let mut output = Vec::with_capacity(reduce_results.iter().map(|r| r.output.len()).sum());
        let mut reduce_sim = Vec::with_capacity(reduce_results.len());
        for (task_id, r) in reduce_results.into_iter().enumerate() {
            reduce_sim.push(ReduceTaskSim {
                host_secs: r.host_secs,
                shuffle_bytes: partition_bytes[task_id],
                records: r.input_records,
                failed_attempts: r.failed_attempts,
            });
            output.extend(r.output);
        }
        Ok((output, reduce_sim))
    }
}

/// A map-only job (the paper's sampling and DJ-Cluster preprocessing:
/// "the reduce phase is not necessary"): [`MapOnlyJob::new`] builds a
/// [`MapReduceJob`] without reduce tasks, configured and run like any
/// other. Its output is its map output, in chunk order with pairs in
/// emission order — i.e. input order is preserved for record-to-record
/// filters.
pub enum MapOnlyJob {}

impl MapOnlyJob {
    /// A map-only job reading `input` from `dfs`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new<'a, V1: MrValue, M: Mapper<V1>>(
        name: &str,
        cluster: &'a Cluster,
        dfs: &'a Dfs<V1>,
        input: &str,
        mapper: M,
    ) -> MapReduceJob<'a, V1, M, NoReducer> {
        MapReduceJob {
            num_reducers: 0,
            map_only: Some(|pairs| pairs),
            ..MapReduceJob::new(name, cluster, dfs, input, mapper, NoReducer)
        }
    }
}

/// Draws a task's injected failures under the cluster's
/// [`ChaosPlan::fail_tasks`]: the attempt that succeeds and the runtime
/// fractions of those that died before it, or the error once the task has
/// died as often as the plan allows.
fn draw_attempts(
    job: &str,
    phase_name: &'static str,
    task: usize,
    cluster: &Cluster,
    counters: &Counters,
    telemetry: &Recorder,
) -> Result<(u32, Vec<f64>), JobError> {
    let chaos = &cluster.chaos;
    let mut attempt = 1u32;
    let mut failed_attempts = Vec::new();
    while let Some(fraction) = chaos.attempt_dies(job, phase_name, task, attempt) {
        counters.inc(builtin::TASK_RETRIES, 1);
        telemetry.point(
            "task.retry",
            attempt as f64,
            &[("phase", phase_name), ("task", &task.to_string())],
        );
        failed_attempts.push(fraction);
        if attempt == chaos.max_task_attempts {
            return Err(JobError::TaskFailed {
                phase: phase_name,
                task,
                attempts: attempt,
            });
        }
        attempt += 1;
    }
    Ok((attempt, failed_attempts))
}

/// Closes the job-level memory ledger into the job counters: the
/// allocator peak folds as a high-water mark, turnover adds.
fn note_job_mem(ledger: LedgerScope, counters: &Counters) {
    let mem = ledger.close();
    counters.set_max(builtin::MEM_PEAK_BYTES, mem.peak_bytes);
    if mem.allocated > 0 {
        counters.inc(builtin::MEM_ALLOCATED_BYTES, mem.allocated);
        counters.inc(builtin::MEM_ALLOCS, mem.allocs);
    }
}

/// Folds the sim report's recovery tallies into the job counters (and
/// through them the live monitor), mirrors everything into telemetry,
/// and assembles the final [`JobStats`].
fn finish_stats(
    name: String,
    map_tasks: usize,
    reduce_tasks: usize,
    real_elapsed: Duration,
    sim: SimReport,
    counters: &Counters,
    telemetry: &Recorder,
) -> JobStats {
    for (counter, tally) in [
        (builtin::REEXECUTED_MAPS, sim.reexecuted_maps),
        (builtin::FAILED_OVER_READS, sim.failed_over_reads),
        (builtin::BLACKLISTED_NODES, sim.blacklisted_nodes),
    ] {
        if tally > 0 {
            counters.inc(counter, tally as u64);
        }
    }
    let counters = counters.snapshot();
    if telemetry.is_enabled() {
        for (k, &v) in &counters {
            if registry::kind(k) == Kind::Max {
                // High-water marks: raise the recorder's aggregate to
                // this job's watermark instead of summing watermarks
                // across jobs and iterations.
                let cur = telemetry.counter(k);
                if v > cur {
                    telemetry.count(k, v - cur);
                }
            } else {
                telemetry.count(k, v);
            }
        }
    }
    if let Some(m) = telemetry.monitor() {
        m.add(registry::JOBS_FINISHED, 1);
    }
    JobStats {
        name,
        map_tasks,
        reduce_tasks,
        real_elapsed,
        sim,
        counters,
    }
}

struct ReduceTaskOutput<K, V> {
    output: Vec<(K, V)>,
    host_secs: f64,
    input_records: u64,
    failed_attempts: Vec<f64>,
}

struct MapPhaseOutput<K, V> {
    /// A map-only job's output: its pairs in chunk and range order, as
    /// emitted (empty in a job with a reduce phase).
    pairs: Vec<(K, V)>,
    /// One input per reduce partition (none in a map-only job). Partitions
    /// that overflowed the memory budget live on disk as sorted spill runs.
    partitions: Vec<PartitionInput<K, V>>,
    sim_tasks: Vec<MapTaskSim>,
    partition_bytes: Vec<u64>,
}

#[allow(clippy::too_many_arguments)]
fn run_map_phase<V1, M>(
    job_name: &str,
    cluster: &Cluster,
    dfs: &Dfs<V1>,
    input: &str,
    mapper: &M,
    num_reducers: usize,
    counters: &Counters,
    telemetry: &Recorder,
    job_span: &Span,
    pair_bytes: Option<&PairBytes<M::KOut, M::VOut>>,
    partitioner: Option<Partitioner<M::KOut>>,
    spill: Option<&SpillSpec<M::KOut, M::VOut>>,
    journal: Option<&RunJournal>,
) -> Result<MapPhaseOutput<M::KOut, M::VOut>, JobError>
where
    V1: MrValue,
    M: Mapper<V1>,
{
    let block_ids = dfs.blocks_of(input)?.to_vec();
    let monitor = telemetry.monitor();
    if let Some(m) = &monitor {
        m.add(registry::MAP_TASKS_SCHEDULED, block_ids.len() as u64);
    }
    // Global record offset of each chunk.
    let mut offsets = Vec::with_capacity(block_ids.len());
    let mut acc = 0u64;
    for &id in &block_ids {
        offsets.push(acc);
        acc += dfs.block(id).data.len() as u64;
    }

    let default_pair_size = std::mem::size_of::<(M::KOut, M::VOut)>();
    let map_span = job_span.child("phase.map", &[("tasks", &block_ids.len().to_string())]);
    let pool = gepeto_pool::global();
    // Input splits: a job with a reduce phase cuts each chunk into record
    // ranges at the mapper's declared cut points and runs the ranges as
    // pool items, so a range's output is partitioned while it is still in
    // cache and no task holds its whole output more than once. A map-only
    // job has nothing to partition, so it splits only to occupy executors
    // its chunks leave idle.
    let chunks: Vec<&[V1]> = block_ids
        .iter()
        .map(|&id| dfs.block(id).data.as_slice())
        .collect();
    let split = num_reducers > 0 || chunks.len() < pool.threads();
    let planned = if split {
        plan_splits(pool, &chunks, mapper, SPLIT_RECORDS)
    } else {
        chunks
            .iter()
            .map(|c| std::iter::once(0..c.len()).collect())
            .collect()
    };
    let mut tasks = Vec::with_capacity(block_ids.len());
    let mut items = Vec::with_capacity(block_ids.len());
    for (task_id, (&block_id, ranges)) in block_ids.iter().zip(planned).enumerate() {
        let (attempt, failed_attempts) =
            draw_attempts(job_name, phase::MAP, task_id, cluster, counters, telemetry)?;
        tasks.push(MapTaskRun {
            block_id,
            attempt,
            failed_attempts,
            ranges: ranges.len(),
            remaining: AtomicUsize::new(ranges.len()),
            busy_ns: AtomicU64::new(0),
            span: Mutex::new(None),
        });
        items.extend(
            ranges
                .into_iter()
                .map(|range| (task_id, range, mapper.clone())),
        );
    }
    let outputs: Vec<RangeOutput<M::KOut, M::VOut>> =
        pool.map_vec(items, |(task_id, range, mut m)| {
            let task = &tasks[task_id];
            let block = dfs.block(task.block_id);
            let t0 = Instant::now();
            // The task's first range to start opens its span, its last
            // range to finish closes it.
            task.span.lock().unwrap().get_or_insert_with(|| {
                map_span.child(
                    "task.map",
                    &[
                        ("task", &task_id.to_string()),
                        ("block", &task.block_id.to_string()),
                        ("attempt", &task.attempt.to_string()),
                        ("ranges", &task.ranges.to_string()),
                    ],
                )
            });
            let ctx = TaskContext {
                task_id,
                attempt: task.attempt,
                counters,
            };
            m.setup(&ctx);
            let mut out = Emitter::new();
            let base = offsets[task_id] + range.start as u64;
            counters.inc(builtin::MAP_INPUT_RECORDS, range.len() as u64);
            m.map_block(base, &block.data[range], &mut out);
            m.cleanup(&mut out);
            counters.inc(builtin::MAP_OUTPUT_RECORDS, out.len() as u64);

            // Partition this range's output into key runs; a map-only
            // job keeps it as emitted, without the slack a filter's
            // emitter grew by, since it is held until the join.
            let mut pairs = out.into_pairs();
            let buckets = if num_reducers == 0 {
                pairs.shrink_to_fit();
                Vec::new()
            } else {
                let buckets = KeyRuns::partitioned(std::mem::take(&mut pairs), num_reducers, |k| {
                    let p = partitioner.as_ref().map_or_else(
                        || default_partition(k, num_reducers),
                        |f| f(k, num_reducers),
                    );
                    assert!(
                        p < num_reducers,
                        "partitioner returned {p} for {num_reducers} reducers"
                    );
                    p
                });
                counters.inc(
                    builtin::SPILLED_RECORDS,
                    buckets.iter().map(|b| b.len() as u64).sum(),
                );
                buckets
            };
            let bytes = buckets
                .iter()
                .map(|b| {
                    b.iter()
                        .map(|(k, values)| match pair_bytes {
                            Some(f) => values.iter().map(|v| f(k, v) as u64).sum(),
                            None => (default_pair_size * values.len()) as u64,
                        })
                        .sum()
                })
                .collect();
            let pairs_bytes = match pair_bytes {
                Some(f) => pairs.iter().map(|(k, v)| f(k, v) as u64).sum(),
                None => (default_pair_size * pairs.len()) as u64,
            };
            let busy_ns = t0.elapsed().as_nanos() as u64;
            task.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
            if task.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                drop(task.span.lock().unwrap().take());
                if let Some(m) = &monitor {
                    m.add(registry::MAP_TASKS_DONE, 1);
                    m.observe("task.map.us", task.busy_ns.load(Ordering::Relaxed) / 1_000);
                }
            }
            RangeOutput {
                pairs,
                pairs_bytes,
                buckets,
                bytes,
            }
        });

    map_span.end();
    // Routing map outputs to reduce partitions: each partition buffers its
    // map tasks' buckets in task and range order, and its reduce task
    // groups them; under a budget, this is the memory-bounded copy step.
    let _shuffle_span = (num_reducers > 0).then(|| job_span.child("phase.shuffle", &[]));
    // A map-only job's ranges, joined in chunk and range order.
    let mut pairs = Vec::with_capacity(outputs.iter().map(|r| r.pairs.len()).sum());
    // Highest buffered intermediate size the copy step's own accounting
    // saw — the value the spill trigger compares against the budget; a
    // map-only job's largest task.
    let mut acct_peak = 0u64;
    // One result per task: its ranges' buckets, per partition in range
    // order, and its busy time summed over them.
    let mut ok_results = Vec::with_capacity(block_ids.len());
    let mut outputs = outputs.into_iter();
    for task in tasks {
        let mut buckets: Vec<Buckets<M::KOut, M::VOut>> = (0..num_reducers)
            .map(|_| Vec::with_capacity(task.ranges))
            .collect();
        let mut bucket_bytes = vec![0u64; num_reducers];
        let mut pairs_bytes = 0;
        for range in outputs.by_ref().take(task.ranges) {
            pairs.extend(range.pairs);
            pairs_bytes += range.pairs_bytes;
            for (p, (bucket, bytes)) in range.buckets.into_iter().zip(range.bytes).enumerate() {
                buckets[p].push(bucket);
                bucket_bytes[p] += bytes;
            }
        }
        acct_peak = acct_peak.max(pairs_bytes);
        let block = dfs.block(task.block_id);
        ok_results.push(MapTaskResult {
            buckets,
            bucket_bytes,
            sim: MapTaskSim {
                host_secs: task.busy_ns.into_inner() as f64 / 1e9,
                input_bytes: block.bytes as u64,
                records: block.data.len() as u64,
                block: task.block_id,
                replicas: block.replicas.clone(),
                corrupted: block
                    .replicas
                    .iter()
                    .map(|&n| cluster.chaos.is_corrupted(task.block_id, n))
                    .collect(),
                failed_attempts: task.failed_attempts,
            },
        });
    }
    let mut partition_bytes = vec![0u64; num_reducers];
    let mut sim_tasks = Vec::with_capacity(block_ids.len());
    // Partitions buffer their buckets; past the budget, if any, a
    // partition's buffered buckets are grouped as their stable sort would
    // order them and spilled as one run. Runs are consecutive chunks of the
    // map-order concatenation, which is what lets the reduce-side merge
    // reproduce the stable sort exactly.
    let mut bufs: Vec<Buckets<M::KOut, M::VOut>> = (0..num_reducers)
        .map(|_| Vec::with_capacity(ok_results.len()))
        .collect();
    let mut mem_bytes = vec![0u64; num_reducers];
    let mut runs: Vec<Vec<SpillRun>> = vec![Vec::new(); num_reducers];
    let mut spill_dir: Option<Arc<SpillDir>> = None;
    // Groups one buffer, seals it as a verified spill run (absorbing
    // injected storage faults), frees it, journals the seal on durable
    // runs, and accounts the spill. `estimate` is the buffered size the
    // trigger believed it was flushing; its gap to the run's encoded size
    // accumulates in `SPILL_ESTIMATE_ERROR`, so chronically wrong
    // estimators are visible.
    let spill_run = |sp: &SpillSpec<M::KOut, M::VOut>,
                     buf,
                     dir: &SpillDir,
                     estimate: u64|
     -> Result<SpillRun, JobError> {
        let groups = FlatGroups::from_runs(buf);
        let (run, seal) = seal_groups(&sp.codec, dir, "run", &groups, &cluster.chaos)?;
        drop(groups);
        seal.repairs().for_each(|(c, n)| counters.inc(c, n));
        counters.inc(builtin::SPILL_ESTIMATE_ERROR, estimate.abs_diff(run.bytes));
        if let Some(j) = journal {
            j.append(&JournalEntry::SpillSealed {
                job: job_name.to_string(),
                path: run.path.display().to_string(),
                records: run.records as usize,
                bytes: run.bytes as usize,
                checksum: run.checksum,
            })
            .map_err(JobError::Io)?;
        }
        counters.inc(builtin::SPILLED_BYTES, run.bytes);
        counters.inc(builtin::SPILL_FILES, 1);
        Ok(run)
    };
    for r in ok_results {
        sim_tasks.push(r.sim);
        for (p, ranges) in r.buckets.into_iter().enumerate() {
            partition_bytes[p] += r.bucket_bytes[p];
            mem_bytes[p] += r.bucket_bytes[p];
            acct_peak = acct_peak.max(mem_bytes[p]);
            bufs[p].extend(ranges.into_iter().filter(|b| !b.is_empty()));
            if let Some(sp) =
                spill.filter(|sp| mem_bytes[p] > sp.budget as u64 && !bufs[p].is_empty())
            {
                let dir = lazy_spill_dir(&mut spill_dir, job_name, &cluster.chaos, journal)?;
                let buf = std::mem::take(&mut bufs[p]);
                runs[p].push(spill_run(sp, buf, &dir, mem_bytes[p])?);
                mem_bytes[p] = 0;
            }
        }
    }
    let mut partitions = Vec::with_capacity(num_reducers);
    for ((buf, mut partition_runs), tail_estimate) in bufs.into_iter().zip(runs).zip(mem_bytes) {
        match spill.filter(|_| !partition_runs.is_empty()) {
            None => partitions.push(PartitionInput::Memory(buf)),
            Some(sp) => {
                // Once any run exists the whole partition merges from
                // disk, so the in-memory tail becomes the final run.
                let dir = Arc::clone(spill_dir.as_ref().expect("spill dir exists once runs do"));
                if !buf.is_empty() {
                    partition_runs.push(spill_run(sp, buf, &dir, tail_estimate)?);
                }
                partitions.push(PartitionInput::Spilled(SpilledPartition {
                    runs: partition_runs,
                    codec: sp.codec.clone(),
                    dir,
                }));
            }
        }
    }
    // Budget-vs-actual accounting: what the spill trigger compared
    // against the budget, and how far past it the buffers got. The
    // budgeted path can overshoot by up to one map task's bucket — the
    // granularity at which the trigger runs.
    if let Some(sp) = spill {
        counters.set_max(builtin::MEM_BUDGET_BYTES, sp.budget as u64);
        let over = acct_peak.saturating_sub(sp.budget as u64);
        if over > 0 {
            counters.set_max(builtin::MEM_PEAK_OVER_BUDGET, over);
        }
    }
    if acct_peak > 0 {
        counters.set_max(builtin::MEM_ACCOUNTED_PEAK, acct_peak);
    }
    Ok(MapPhaseOutput {
        pairs,
        partitions,
        sim_tasks,
        partition_bytes,
    })
}

/// Creates the job's spill directory on first use, under the run
/// directory's `spill/` (durable runs) or else the OS temp dir, which
/// honours `TMPDIR`. The directory's name carries the process id and a
/// per-process sequence number, so runs sharing a root never collide.
fn lazy_spill_dir(
    slot: &mut Option<Arc<SpillDir>>,
    job_name: &str,
    chaos: &ChaosPlan,
    journal: Option<&RunJournal>,
) -> Result<Arc<SpillDir>, JobError> {
    if slot.is_none() {
        let root = journal.map_or_else(std::env::temp_dir, |j| j.spill_root());
        *slot = Some(Arc::new(
            SpillDir::create_in(&root, job_name, None, chaos.io_plan().cloned())
                .map_err(JobError::Spill)?,
        ));
    }
    Ok(Arc::clone(slot.as_ref().unwrap()))
}

struct MapTaskResult<K, V> {
    /// Per reduce partition, the task's range buckets in range order.
    buckets: Vec<Buckets<K, V>>,
    bucket_bytes: Vec<u64>,
    sim: MapTaskSim,
}

/// Records per input split: a chunk of a job that splits is cut about
/// this often, at its mapper's declared cut points — a range of pairs
/// small enough to partition while it is still in cache.
const SPLIT_RECORDS: usize = 4_096;

/// A map task on its way through the pool: its identity, and what its
/// ranges share while they run.
struct MapTaskRun {
    block_id: BlockId,
    attempt: u32,
    failed_attempts: Vec<f64>,
    ranges: usize,
    /// Ranges still running; the one that takes this to zero closes the
    /// task.
    remaining: AtomicUsize,
    /// Busy time summed over the ranges — the task's `host_secs`.
    busy_ns: AtomicU64,
    /// The `task.map` span, opened by the first range to start.
    span: Mutex<Option<Span>>,
}

/// One range's output: a map-only job's pairs as emitted and their bytes,
/// or per reduce partition its bucket and the bucket's bytes.
struct RangeOutput<K, V> {
    pairs: Vec<(K, V)>,
    pairs_bytes: u64,
    buckets: Buckets<K, V>,
    bytes: Vec<u64>,
}

/// Plans every chunk's input splits, on the pool. A cut is due every
/// `every` records ([`SPLIT_RECORDS`] in a job), counted from the chunk's
/// start, and lands on the first position `i` with
/// `mapper.splits_between(&records[i - 1], &records[i])` at or past its
/// due point; the next cut is due at the first multiple past it. So
/// window `w` of a chunk — its records `w × every .. (w + 1) × every`,
/// for `w ≥ 1` — holds a cut exactly when it holds a legal position, at
/// its first one: a window without one defers its due point to the next
/// window's cut. Windows are therefore scanned independently, each
/// chunk's as about `threads / chunks` pool items that each own a clone
/// of the mapper, and no two records are compared twice. A mapper that
/// declares no cut points runs each chunk as one range, and its scan
/// compiles away. The ranges depend on the records alone, never on the
/// thread count.
fn plan_splits<V1: MrValue, M: Mapper<V1>>(
    pool: &Pool,
    chunks: &[&[V1]],
    mapper: &M,
    every: usize,
) -> Vec<Vec<Range<usize>>> {
    let slices = pool.threads().div_ceil(chunks.len().max(1));
    let mut items = Vec::new();
    for (chunk, records) in chunks.iter().enumerate() {
        let windows = records.len().div_ceil(every);
        let per_slice = windows.saturating_sub(1).div_ceil(slices).max(1);
        for first in (1..windows).step_by(per_slice) {
            items.push((
                chunk,
                first..(first + per_slice).min(windows),
                mapper.clone(),
            ));
        }
    }
    let found = pool.map_vec(items, |(chunk, windows, m)| {
        let records = chunks[chunk];
        let cuts: Vec<usize> = windows
            .filter_map(|w| {
                // The window's records and the one before its first.
                let scanned = &records[w * every - 1..((w + 1) * every).min(records.len())];
                let cut = scanned
                    .windows(2)
                    .position(|p| m.splits_between(&p[0], &p[1]));
                cut.map(|j| w * every + j)
            })
            .collect();
        (chunk, cuts)
    });
    let mut starts: Vec<Vec<usize>> = vec![vec![0]; chunks.len()];
    for (chunk, cuts) in found {
        starts[chunk].extend(cuts);
    }
    starts
        .into_iter()
        .zip(chunks)
        .map(|(starts, records)| {
            let ends = starts.iter().skip(1).copied().chain([records.len()]);
            starts.iter().zip(ends).map(|(&s, e)| s..e).collect()
        })
        .collect()
}

/// Pairs stored as runs of one key: each run's key with the index one
/// past its last value, beside one column of all the values — the shape
/// of a [`FlatGroups`] column, whose runs are its groups. A map task
/// keeps each input split's output for a reduce partition this way, so a
/// key that adjacent pairs share (a user's traces) is stored once per run
/// instead of once per pair, and a bucket whose keys arrive in order
/// becomes a reduce column without being copied. A run never mixes keys;
/// adjacent runs may share one.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyRuns<K, V> {
    pub(crate) runs: Vec<(K, usize)>,
    pub(crate) values: Vec<V>,
}

impl<K, V> KeyRuns<K, V> {
    /// Number of values, one per pair.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no pair is held.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The runs in order, each as its key and its slice of the column.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &[V])> {
        let mut start = 0;
        self.runs.iter().map(move |(key, end)| {
            let run = &self.values[start..*end];
            start = *end;
            (key, run)
        })
    }

    /// Heap bytes held: the run bounds and the value column.
    pub fn heap_bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<(K, usize)>()
            + self.values.capacity() * std::mem::size_of::<V>()
    }
}

impl<K: MrKey, V> KeyRuns<K, V> {
    /// Splits `pairs` into `parts` key runs, keeping emission order within
    /// each: `partition(key)` (`< parts`) picks a run's part, once per run
    /// of equal adjacent keys. A count pass sizes every part exactly —
    /// no guess to outgrow when the keys skew — and a move pass fills
    /// them.
    pub fn partitioned(
        pairs: Vec<(K, V)>,
        parts: usize,
        mut partition: impl FnMut(&K) -> usize,
    ) -> Vec<Self> {
        // Each run's part and length.
        let mut runs: Vec<(usize, usize)> = Vec::new();
        let mut prev: Option<&K> = None;
        for (k, _) in &pairs {
            match runs.last_mut() {
                Some((_, len)) if prev == Some(k) => *len += 1,
                _ => runs.push((partition(k), 1)),
            }
            prev = Some(k);
        }
        let mut sizes = vec![(0, 0); parts];
        for &(p, len) in &runs {
            sizes[p].0 += 1;
            sizes[p].1 += len;
        }
        let mut out: Vec<Self> = sizes
            .into_iter()
            .map(|(runs, values)| KeyRuns {
                runs: Vec::with_capacity(runs),
                values: Vec::with_capacity(values),
            })
            .collect();
        let mut pairs = pairs.into_iter();
        for (p, len) in runs {
            let part = &mut out[p];
            let (key, first) = pairs.next().expect("counted");
            part.values.push(first);
            part.values
                .extend(pairs.by_ref().take(len - 1).map(|(_, v)| v));
            part.runs.push((key, part.values.len()));
        }
        out
    }
}

/// One reduce partition grouped where it lies: the non-empty buckets it
/// was given, each kept whole as a column with its runs' `(key, end)`
/// bounds, and one descriptor per run, stably sorted by key. A group is
/// one stretch of equal keys in that list — groups in key order, a
/// group's runs in map-task order — so grouping copies no value.
/// [`MapReduceJob::run`] groups every partition this way: in memory from
/// its map tasks' [`KeyRuns`], spilled in windows of its merged runs.
#[derive(Debug)]
pub struct FlatGroups<K, V> {
    /// Each column's runs: adjacent ones never share a key.
    ends: Vec<Vec<(K, usize)>>,
    columns: Vec<Vec<V>>,
    slices: Vec<Slice>,
}

/// A column's runs' `(key, end)` bounds, beside its values.
type Column<K, V> = (Vec<(K, usize)>, Vec<V>);

/// Run `run` of column `column`: its `len` values from `start`.
#[derive(Debug, Clone, Copy)]
struct Slice {
    column: u32,
    run: u32,
    start: u32,
    len: u32,
}

impl Slice {
    fn of<V>(self, columns: &[Vec<V>]) -> &[V] {
        &columns[self.column as usize][self.start as usize..][..self.len as usize]
    }
}

impl<K: MrKey, V> FlatGroups<K, V> {
    /// Groups the concatenation of `buckets` as its stable sort by key
    /// would: the groups [`group_sorted`] makes of the sorted pairs, in
    /// the same order with the same value order. Adjacent runs of one key
    /// in a bucket merge by their bounds, and the runs, not their pairs,
    /// are sorted — unless their keys are in order end to end.
    pub fn from_runs(buckets: Vec<KeyRuns<K, V>>) -> Self {
        Self::from_runs_sorting(buckets, || ())
    }

    /// [`Self::from_runs`], holding what `sorting` returns (a span) while
    /// it sorts the runs, if it has to.
    pub(crate) fn from_runs_sorting<T>(
        buckets: Vec<KeyRuns<K, V>>,
        sorting: impl FnOnce() -> T,
    ) -> Self {
        let (mut ends, mut columns) = (Vec::new(), Vec::new());
        let mut slices = Vec::with_capacity(buckets.iter().map(|b| b.runs.len()).sum());
        for mut bucket in buckets.into_iter().filter(|b| !b.is_empty()) {
            bucket.runs.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                kept.1 = if same { later.1 } else { kept.1 };
                same
            });
            let column = columns.len() as u32;
            assert!(
                bucket.len() <= u32::MAX as usize,
                "a column holds under 2^32 values"
            );
            let mut start = 0;
            for (run, &(_, end)) in bucket.runs.iter().enumerate() {
                let (run, len) = (run as u32, (end - start) as u32);
                slices.push(Slice {
                    column,
                    run,
                    start: start as u32,
                    len,
                });
                start = end;
            }
            ends.push(bucket.runs);
            columns.push(bucket.values);
        }
        let key = |s: &Slice| &ends[s.column as usize][s.run as usize].0;
        if !slices.is_sorted_by(|a, b| key(a) <= key(b)) {
            let _sorting = sorting();
            // Ties broken by position: the stable sort, without its buffer.
            let at = |s: &Slice| (key(s), s.column, s.run);
            slices.sort_unstable_by(|a, b| at(a).cmp(&at(b)));
        }
        Self {
            ends,
            columns,
            slices,
        }
    }
}

impl<K: Eq, V> FlatGroups<K, V> {
    /// Number of groups.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether there is no group.
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// The groups in order, each as its key and its runs.
    pub fn iter(&self) -> impl Iterator<Item = (&K, Group<'_, V>)> {
        let key = |s: &Slice| &self.ends[s.column as usize][s.run as usize].0;
        let groups = self.slices.chunk_by(move |a, b| key(a) == key(b));
        groups.map(move |runs| (key(&runs[0]), Group::of(runs, &self.columns)))
    }

    /// Takes the groups apart without copying: every column, and every
    /// run as `(column, run)` in group order — a group's runs adjacent.
    pub fn into_runs(self) -> (Vec<Column<K, V>>, impl Iterator<Item = (usize, usize)>) {
        let runs = self.slices.into_iter();
        let columns = self.ends.into_iter().zip(self.columns).collect();
        (columns, runs.map(|s| (s.column as usize, s.run as usize)))
    }
}

/// The values of one key in map-task order, as the runs they lie in:
/// what [`Reducer::reduce`] is handed.
pub struct Group<'a, V> {
    first: &'a [V],
    /// The runs after the first, in `columns`.
    rest: &'a [Slice],
    columns: &'a [Vec<V>],
}

impl<'a, V> Group<'a, V> {
    fn of(runs: &'a [Slice], columns: &'a [Vec<V>]) -> Self {
        let (first, rest) = (runs[0].of(columns), &runs[1..]);
        Group {
            first,
            rest,
            columns,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.first.len() + self.rest.iter().map(|s| s.len as usize).sum::<usize>()
    }

    /// Whether there is no value: never, for a group the engine hands over.
    pub fn is_empty(&self) -> bool {
        self.first.is_empty()
    }

    /// The values in order.
    pub fn iter(&self) -> impl Iterator<Item = &'a V> + 'a {
        let columns = self.columns;
        (self.first.iter()).chain(self.rest.iter().flat_map(move |s| s.of(columns)))
    }

    /// The values as one slice, if they lie in one run.
    pub fn as_slice(&self) -> Option<&'a [V]> {
        self.rest.is_empty().then_some(self.first)
    }
}

impl<'a, V> From<&'a [V]> for Group<'a, V> {
    fn from(first: &'a [V]) -> Self {
        Group {
            first,
            rest: &[],
            columns: &[],
        }
    }
}

/// Groups a key-sorted pair vector into `(key, values)` runs, *moving*
/// the values out of the input — no per-value clone. Equal keys must be
/// adjacent (guaranteed after the stable sort), and the stable sort means
/// each run's values keep their map-task emission order.
///
/// The nested shape: one `Vec` per key. The reduce path groups flat
/// ([`FlatGroups::from_runs`]); this remains as the reference the flat
/// grouping is tested against.
pub fn group_sorted<K: MrKey, V>(pairs: Vec<(K, V)>) -> Vec<(K, Vec<V>)> {
    let mut groups: Vec<(K, Vec<V>)> = Vec::new();
    for (k, v) in pairs {
        match groups.last_mut() {
            Some((gk, vs)) if *gk == k => vs.push(v),
            _ => groups.push((k, vec![v])),
        }
    }
    groups
}

/// Groups an *unsorted* pair vector by key in first-encounter order,
/// moving the values; each group's values keep their input order, as
/// after the stable sort of [`group_sorted`].
///
/// The nested shape: one `Vec` per key. No reduce path groups by hash;
/// this remains as the baseline the sorted grouping's cost is timed
/// against.
pub fn group_unsorted<K: MrKey, V>(pairs: Vec<(K, V)>) -> Vec<(K, Vec<V>)> {
    let mut index: HashMap<K, usize, FnvBuildHasher> =
        HashMap::with_capacity_and_hasher(16, FnvBuildHasher::default());
    let mut groups: Vec<(K, Vec<V>)> = Vec::new();
    for (k, v) in pairs {
        match index.get(&k) {
            Some(&i) => groups[i].1.push(v),
            None => {
                index.insert(k.clone(), groups.len());
                groups.push((k, vec![v]));
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::FnMapper;
    use crate::spill::SpillEncode;

    /// `job` with derived codecs, its shuffle spilling past `bytes`.
    fn budgeted<'a, V1, M, R>(
        job: MapReduceJob<'a, V1, M, R>,
        bytes: usize,
    ) -> MapReduceJob<'a, V1, M, R>
    where
        V1: MrValue,
        M: Mapper<V1, KOut: SpillEncode, VOut: SpillEncode>,
        R: Reducer<M::KOut, M::VOut, KOut: SpillEncode, VOut: SpillEncode>,
    {
        let ctx = ExecCtx::new(job.cluster);
        job.codecs(SpillCodec::of(), SpillCodec::of())
            .exec(&ctx, Some(bytes))
    }

    /// Word-count style: map emits (word, 1), reduce sums.
    #[derive(Clone)]
    struct SumReducer;
    impl Reducer<String, u64> for SumReducer {
        type KOut = String;
        type VOut = u64;
        fn reduce(&mut self, key: &String, values: Group<'_, u64>, out: &mut Emitter<String, u64>) {
            out.emit(key.clone(), values.iter().sum());
        }
    }

    fn word_dfs(cluster: &Cluster) -> Dfs<String> {
        let mut dfs = Dfs::new(cluster.topology.clone(), 32, 3);
        let words: Vec<String> = "a b c a b a d e a b c d"
            .split_whitespace()
            .map(String::from)
            .collect();
        dfs.put_fixed("words", words, 8).unwrap();
        dfs
    }

    fn tokenizer() -> impl Mapper<String, KOut = String, VOut = u64> {
        FnMapper::new(|_off: u64, w: &String, out: &mut Emitter<String, u64>| {
            out.emit(w.clone(), 1);
        })
    }

    fn word_counts(result: &JobResult<String, u64>) -> BTreeMap<String, u64> {
        result.output.iter().cloned().collect()
    }

    #[test]
    fn word_count_end_to_end() {
        let cluster = Cluster::local(3, 2);
        let dfs = word_dfs(&cluster);
        let result = MapReduceJob::new("wc", &cluster, &dfs, "words", tokenizer(), SumReducer)
            .reducers(2)
            .run()
            .unwrap();
        let counts = word_counts(&result);
        assert_eq!(counts["a"], 4);
        assert_eq!(counts["b"], 3);
        assert_eq!(counts["c"], 2);
        assert_eq!(counts["d"], 2);
        assert_eq!(counts["e"], 1);
        assert!(result.stats.map_tasks > 1, "want multiple chunks");
        assert_eq!(result.stats.reduce_tasks, 2);
        assert_eq!(result.stats.counters[builtin::MAP_INPUT_RECORDS], 12);
        assert_eq!(result.stats.counters[builtin::MAP_OUTPUT_RECORDS], 12);
        assert_eq!(result.stats.counters[builtin::REDUCE_OUTPUT_RECORDS], 5);
    }

    #[test]
    fn output_is_deterministic_across_runs() {
        let cluster = Cluster::local(3, 2);
        let dfs = word_dfs(&cluster);
        let run = || {
            MapReduceJob::new("wc", &cluster, &dfs, "words", tokenizer(), SumReducer)
                .reducers(3)
                .run()
                .unwrap()
                .output
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn spilled_shuffle_output_is_bit_identical_to_in_memory() {
        let cluster = Cluster::local(3, 2);
        let dfs = word_dfs(&cluster);
        let in_memory = MapReduceJob::new("wc", &cluster, &dfs, "words", tokenizer(), SumReducer)
            .reducers(2)
            .run()
            .unwrap();
        // A 1-byte budget forces a spill after every map contribution.
        let job = MapReduceJob::new("wc", &cluster, &dfs, "words", tokenizer(), SumReducer);
        let spilled = budgeted(job.reducers(2), 1).run().unwrap();
        assert_eq!(in_memory.output, spilled.output);
        assert!(spilled.stats.counters[builtin::SPILL_FILES] > 0);
        assert!(spilled.stats.counters[builtin::SPILLED_BYTES] > 0);
        assert!(!in_memory.stats.counters.contains_key(builtin::SPILL_FILES));
        let counts = word_counts(&spilled);
        assert_eq!(counts["a"], 4);
        assert_eq!(counts["e"], 1);
    }

    #[test]
    fn oversized_groups_spill_and_reduce_correctly() {
        let cluster = Cluster::local(3, 2);
        let dfs = word_dfs(&cluster);
        // Budget 1 byte: every partition spills, and every group outgrows
        // the budget and reaches the reducer alone in its window, its
        // values in memory.
        let job = MapReduceJob::new("wc", &cluster, &dfs, "words", tokenizer(), SumReducer);
        let spilled = budgeted(job.reducers(1), 1).run().unwrap();
        assert!(spilled.stats.counters[builtin::SPILL_FILES] > 0);
        assert_eq!(spilled.stats.counters[builtin::REDUCE_INPUT_GROUPS], 5);
        let counts = word_counts(&spilled);
        assert_eq!(counts["a"], 4);
        assert_eq!(counts["b"], 3);
    }

    #[test]
    fn generous_budget_never_spills() {
        let cluster = Cluster::local(3, 2);
        let dfs = word_dfs(&cluster);
        let job = MapReduceJob::new("wc", &cluster, &dfs, "words", tokenizer(), SumReducer);
        let result = budgeted(job.reducers(2), 1 << 30).run().unwrap();
        assert!(!result.stats.counters.contains_key(builtin::SPILL_FILES));
        assert_eq!(word_counts(&result)["a"], 4);
    }

    #[test]
    fn budgeted_runs_account_their_shuffle_peak_against_the_budget() {
        let cluster = Cluster::local(3, 2);
        let dfs = word_dfs(&cluster);
        let budget = 64;
        let job = MapReduceJob::new("wc", &cluster, &dfs, "words", tokenizer(), SumReducer);
        let result = budgeted(job.reducers(2), budget).run().unwrap();
        let c = &result.stats.counters;
        assert_eq!(c[builtin::MEM_BUDGET_BYTES], budget as u64);
        let peak = c[builtin::MEM_ACCOUNTED_PEAK];
        assert!(peak > 0);
        // With a 64-byte budget the shuffle spills, and the overshoot is
        // exactly how far the accounted peak passed the budget.
        let over = c[builtin::MEM_PEAK_OVER_BUDGET];
        assert_eq!(over, peak - budget as u64);
        // Every sealed run records its estimate error (possibly zero).
        assert!(c.contains_key(builtin::SPILL_ESTIMATE_ERROR));
        // The tracking allocator always observes real heap traffic.
        assert!(c[builtin::MEM_PEAK_BYTES] > 0);
        assert!(c[builtin::MEM_ALLOCATED_BYTES] > 0);
        assert!(c[builtin::MEM_ALLOCS] > 0);

        // Unbudgeted runs still report an accounted peak, but no budget
        // and no overshoot.
        let free = MapReduceJob::new("wc", &cluster, &dfs, "words", tokenizer(), SumReducer)
            .reducers(2)
            .run()
            .unwrap();
        let fc = &free.stats.counters;
        assert!(!fc.contains_key(builtin::MEM_BUDGET_BYTES));
        assert!(!fc.contains_key(builtin::MEM_PEAK_OVER_BUDGET));
        assert!(fc[builtin::MEM_ACCOUNTED_PEAK] > 0);
    }

    #[test]
    fn spilled_shuffle_survives_injected_storage_faults() {
        use crate::chaos::IoFaultPlan;
        let clean_cluster = Cluster::local(3, 2);
        let clean_dfs = word_dfs(&clean_cluster);
        let expected = MapReduceJob::new(
            "wc",
            &clean_cluster,
            &clean_dfs,
            "words",
            tokenizer(),
            SumReducer,
        )
        .reducers(2)
        .run()
        .unwrap()
        .output;

        let cluster = Cluster::local(3, 2).with_chaos(
            ChaosPlan::none().io_faults(IoFaultPlan::new(41).eio(0.4).torn(0.6).bitrot(0.3)),
        );
        let dfs = word_dfs(&cluster);
        let job = MapReduceJob::new("wc", &cluster, &dfs, "words", tokenizer(), SumReducer);
        let faulty = budgeted(job.reducers(2), 1).run().unwrap();
        assert_eq!(
            faulty.output, expected,
            "sealed spills must be bit-identical under fault injection"
        );
        assert!(
            faulty.stats.counter(builtin::IO_RETRIES) + faulty.stats.counter(builtin::TORN_WRITES)
                > 0,
            "fault plan must have fired at least once: {:?}",
            faulty.stats.counters
        );
    }

    #[test]
    fn a_spilling_job_under_storage_faults_gives_back_its_virtual_disk() {
        use crate::chaos::IoFaultPlan;
        let run_dir =
            std::env::temp_dir().join(format!("gepeto-disk-charge-test-{}", std::process::id()));
        for seed in [5, 41, 77] {
            let cluster = Cluster::local(3, 2).with_chaos(
                ChaosPlan::none().io_faults(
                    IoFaultPlan::new(seed)
                        .eio(0.3)
                        .torn(0.4)
                        .bitrot(0.2)
                        .disk_capacity(1 << 30),
                ),
            );
            let io = cluster.chaos.io_plan().unwrap();
            let dfs = word_dfs(&cluster);
            let job = || MapReduceJob::new("wc", &cluster, &dfs, "words", tokenizer(), SumReducer);
            let spilled = budgeted(job().reducers(2), 1).run().unwrap();
            let repaired = spilled.stats.counter(builtin::RUNS_QUARANTINED);
            assert!(repaired > 0, "seed {seed}: {:?}", spilled.stats.counters);
            assert_eq!(io.bytes_in_use(), 0, "seed {seed}: spill runs left charged");

            // Durable: the committed `.part` files, and nothing else, stay
            // charged.
            let _ = std::fs::remove_dir_all(&run_dir);
            let journal = Arc::new(RunJournal::attach(&run_dir).unwrap());
            let ctx = ExecCtx {
                journal: Some(Arc::clone(&journal)),
                ..ExecCtx::new(&cluster)
            };
            let durable = job()
                .reducers(2)
                .codecs(SpillCodec::of(), SpillCodec::of())
                .exec(&ctx, Some(1))
                .run()
                .unwrap();
            assert_eq!(durable.output, spilled.output);
            let parts: u64 = std::fs::read_dir(journal.partitions_dir())
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|x| x == "part"))
                .map(|p| std::fs::metadata(p).unwrap().len() - commit::FOOTER_BYTES)
                .sum();
            assert!(parts > 0);
            assert_eq!(io.bytes_in_use(), parts, "seed {seed}");
        }
        let _ = std::fs::remove_dir_all(&run_dir);
    }

    /// The word count with its reduce output committed to `journal`.
    fn durable_word_count(
        cluster: &Cluster,
        dfs: &Dfs<String>,
        journal: &Arc<RunJournal>,
    ) -> JobResult<String, u64> {
        let ctx = ExecCtx {
            journal: Some(Arc::clone(journal)),
            ..ExecCtx::new(cluster)
        };
        MapReduceJob::new("wc", cluster, dfs, "words", tokenizer(), SumReducer)
            .reducers(2)
            .codecs(SpillCodec::of(), SpillCodec::of())
            .exec(&ctx, None)
            .run()
            .unwrap()
    }

    #[test]
    fn durable_job_replays_committed_reduces_bit_identically() {
        let run_dir =
            std::env::temp_dir().join(format!("gepeto-durable-job-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&run_dir);
        let journal = Arc::new(RunJournal::attach(&run_dir).unwrap());
        let cluster = Cluster::local(3, 2);
        let dfs = word_dfs(&cluster);
        let run = || durable_word_count(&cluster, &dfs, &journal);
        let first = run();
        assert_eq!(first.stats.counter(builtin::JOURNAL_REPLAYED), 0);
        assert_eq!(journal.committed_reduces("wc").len(), 2);

        // A second run against the same journal (what `resume` does
        // after a kill) loads both partitions from their artifacts.
        let second = run();
        assert_eq!(second.output, first.output);
        assert_eq!(second.stats.counter(builtin::JOURNAL_REPLAYED), 2);
        let _ = std::fs::remove_dir_all(&run_dir);
    }

    #[test]
    fn durable_job_recomputes_a_rotted_artifact() {
        let run_dir = std::env::temp_dir().join(format!(
            "gepeto-rotted-artifact-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&run_dir);
        let journal = Arc::new(RunJournal::attach(&run_dir).unwrap());
        let cluster = Cluster::local(3, 2);
        let dfs = word_dfs(&cluster);
        let run = |j: &Arc<RunJournal>| durable_word_count(&cluster, &dfs, j);
        let first = run(&journal);
        // Rot one committed artifact at rest: flip a payload byte.
        let art = journal.committed_reduces("wc")[&0].path.clone();
        let mut data = std::fs::read(&art).unwrap();
        data[0] ^= 0x40;
        std::fs::write(&art, &data).unwrap();
        let second = run(&journal);
        assert_eq!(second.output, first.output);
        assert_eq!(
            second.stats.counter(builtin::JOURNAL_REPLAYED),
            1,
            "only the intact partition replays"
        );
        assert!(second.stats.counter(builtin::RUNS_QUARANTINED) >= 1);
        let _ = std::fs::remove_dir_all(&run_dir);
    }

    #[test]
    fn grouping_helpers_agree_and_preserve_value_order() {
        let pairs = vec![(2, 'a'), (1, 'b'), (2, 'c'), (3, 'd'), (1, 'e')];
        let mut key_sorted = pairs.clone();
        key_sorted.sort_by_key(|a| a.0);
        let s = group_sorted(key_sorted);
        assert_eq!(
            s,
            vec![(1, vec!['b', 'e']), (2, vec!['a', 'c']), (3, vec!['d'])]
        );
        // First-encounter group order, identical within-group value order.
        let u = group_unsorted(pairs);
        assert_eq!(
            u,
            vec![(2, vec!['a', 'c']), (1, vec!['b', 'e']), (3, vec!['d'])]
        );
    }

    /// Hands each group back whole, so a job's output shows the order of
    /// the reduce calls and of the values inside each group.
    #[derive(Clone)]
    struct CollectGroups;
    impl Reducer<u64, u64> for CollectGroups {
        type KOut = u64;
        type VOut = Vec<u64>;
        fn reduce(&mut self, key: &u64, values: Group<'_, u64>, out: &mut Emitter<u64, Vec<u64>>) {
            out.emit(*key, values.iter().cloned().collect());
        }
    }

    /// `0..200` in 4-record chunks, each record `v` mapped to `(key(v), v)`,
    /// collected in memory and with a 1-byte budget.
    fn collected_in_memory_and_spilled(
        key: fn(u64) -> u64,
        reducers: usize,
    ) -> [JobResult<u64, Vec<u64>>; 2] {
        let cluster = Cluster::local(4, 2);
        let mut dfs = Dfs::new(cluster.topology.clone(), 8, 2);
        dfs.put_fixed("r", (0..200u64).collect(), 4).unwrap();
        let mapper = FnMapper::new(move |_off: u64, v: &u64, out: &mut Emitter<u64, u64>| {
            out.emit(key(*v), *v);
        });
        let job = || MapReduceJob::new("col", &cluster, &dfs, "r", mapper.clone(), CollectGroups);
        let in_memory = job().reducers(reducers).run().unwrap();
        let spilled = budgeted(job().reducers(reducers), 1).run().unwrap();
        assert!(spilled.stats.counters[builtin::SPILL_FILES] > 0);
        [in_memory, spilled]
    }

    #[test]
    fn every_reducer_sees_its_groups_in_key_order() {
        // Descending keys put every map bucket out of order (its runs are
        // sorted); `v / 10` keeps them in order with keys running across
        // buckets (no sort). One reducer makes the output one
        // partition, so its keys must strictly ascend.
        for key in [|v: u64| 1_000 - v, |v: u64| v / 10] {
            let [in_memory, spilled] = collected_in_memory_and_spilled(key, 1);
            let keys: Vec<u64> = in_memory.output.iter().map(|(k, _)| *k).collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
            let mut expected: Vec<u64> = (0..200).map(key).collect();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(keys, expected);
            assert_eq!(in_memory.output, spilled.output);
        }
    }

    #[test]
    fn sort_fallback_keeps_each_groups_values_in_map_order() {
        // `v % 5` gives every 4-record bucket a wrap-around (3, 4, 0, 1),
        // so each partition takes the stable sort; a group's values must
        // still come in input order, in memory and spilled alike.
        let [in_memory, spilled] = collected_in_memory_and_spilled(|v| v % 5, 3);
        assert_eq!(in_memory.output, spilled.output);
        let by_key: BTreeMap<u64, Vec<u64>> = in_memory.output.into_iter().collect();
        let expected: BTreeMap<u64, Vec<u64>> = (0..5)
            .map(|k| (k, (0..200).filter(|v| v % 5 == k).collect()))
            .collect();
        assert_eq!(by_key, expected);
    }

    /// The serial plan [`plan_splits`] must reproduce: cuts `records` into
    /// consecutive ranges. A cut is due every `every` records, counted
    /// from the start, and moves forward to the first position `i` with
    /// `legal(&records[i - 1], &records[i])`; once no legal position is
    /// left, the last range runs to the end.
    fn split_ranges<V>(
        records: &[V],
        every: usize,
        legal: impl Fn(&V, &V) -> bool,
    ) -> Vec<Range<usize>> {
        let mut ranges = Vec::new();
        let (mut start, mut due) = (0, every);
        while let Some(cut) = (due..records.len()).find(|&i| legal(&records[i - 1], &records[i])) {
            ranges.push(start..cut);
            start = cut;
            due = (cut / every + 1) * every;
        }
        ranges.push(start..records.len());
        ranges
    }

    /// The ranges `split_ranges` must return, by a plain scan: a cut at
    /// the first legal position at or past each due point.
    fn scanned_ranges(users: &[u64], every: usize) -> Vec<Range<usize>> {
        let (mut ranges, mut start, mut due) = (Vec::new(), 0, every);
        for i in 1..users.len() {
            if i >= due && users[i - 1] != users[i] {
                ranges.push(start..i);
                start = i;
                due = (i / every + 1) * every;
            }
        }
        ranges.push(start..users.len());
        ranges
    }

    /// Declares a cut wherever the record — a user id — changes.
    #[derive(Clone)]
    struct UserSwitch;
    impl Mapper<u64> for UserSwitch {
        type KOut = u64;
        type VOut = u64;
        fn map(&mut self, _off: u64, _user: &u64, _out: &mut Emitter<u64, u64>) {}
        fn splits_between(&self, prev: &u64, next: &u64) -> bool {
            prev != next
        }
    }

    /// Chunks of user ids, each from `(user, run length)` draws.
    fn user_chunks(draws: &[Vec<(u64, usize)>]) -> Vec<Vec<u64>> {
        draws
            .iter()
            .map(|runs| {
                runs.iter()
                    .flat_map(|&(user, len)| std::iter::repeat_n(user, len))
                    .collect()
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Cuts fall only between different users, at the first such
        /// position from each due point, and the ranges tile the chunk —
        /// at every range size from one record to the whole chunk.
        fn split_ranges_cut_at_the_first_legal_position(
            runs in proptest::collection::vec((0u64..4, 1usize..1_500), 0..12),
            size in 0usize..5,
        ) {
            let users = user_chunks(&[runs]).pop().unwrap();
            let every = [1, 2, 7, SPLIT_RECORDS, users.len().max(1)][size];
            let ranges = split_ranges(&users, every, |a, b| a != b);
            assert_eq!(ranges, scanned_ranges(&users, every));
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            assert_eq!(ranges.last().map(|r| r.end), Some(users.len()));
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
                assert!(pair[0].end >= every && users[pair[0].end - 1] != users[pair[0].end]);
            }
        }

        /// The plan made window by window on the pool is the serial plan,
        /// chunk for chunk, whatever the thread count: for several chunks
        /// and one, empty ones, users longer than many windows, and range
        /// sizes from one record to past the chunk.
        fn pool_planned_ranges_are_the_serial_plan(
            draws in proptest::collection::vec(
                proptest::collection::vec((0u64..4, 1usize..1_500), 0..12),
                1..5,
            ),
            size in 0usize..5,
        ) {
            let chunks = user_chunks(&draws);
            let every = [1, 2, 7, 300, SPLIT_RECORDS][size];
            let serial: Vec<Vec<Range<usize>>> = chunks
                .iter()
                .map(|users| split_ranges(users, every, |a, b| a != b))
                .collect();
            let slices: Vec<&[u64]> = chunks.iter().map(Vec::as_slice).collect();
            for threads in [1, 2, 5] {
                let pool = Pool::new(threads);
                assert_eq!(plan_splits(&pool, &slices, &UserSwitch, every), serial, "{threads}");
            }
        }
    }

    #[test]
    fn split_ranges_without_a_legal_cut_or_with_the_last_record_alone() {
        let one_user = vec![7u64; 10_000];
        assert_eq!(split_ranges(&one_user, 7, |a, b| a != b), vec![0..10_000]);
        assert_eq!(split_ranges(&one_user, 7, |_, _| false), vec![0..10_000]);
        let mut last_apart = one_user;
        last_apart[9_999] = 8;
        assert_eq!(
            split_ranges(&last_apart, SPLIT_RECORDS, |a, b| a != b),
            vec![0..9_999, 9_999..10_000]
        );
        assert_eq!(
            split_ranges(&[1u64, 2, 3], 1, |_, _| true),
            vec![0..1, 1..2, 2..3]
        );
        assert_eq!(split_ranges(&[] as &[u64], 4, |_, _| true), vec![0..0]);
    }

    #[test]
    fn map_only_preserves_input_order() {
        let cluster = Cluster::local(2, 2);
        let mut dfs = Dfs::new(cluster.topology.clone(), 16, 2);
        dfs.put_fixed("nums", (0..100u64).collect(), 4).unwrap();
        let mapper = FnMapper::new(|off: u64, v: &u64, out: &mut Emitter<u64, u64>| {
            if v.is_multiple_of(3) {
                out.emit(off, *v);
            }
        });
        let result = MapOnlyJob::new("filter", &cluster, &dfs, "nums", mapper)
            .run()
            .unwrap();
        let values: Vec<u64> = result.output.iter().map(|&(_, v)| v).collect();
        let expected: Vec<u64> = (0..100).filter(|v| v % 3 == 0).collect();
        assert_eq!(values, expected);
        assert_eq!(result.stats.reduce_tasks, 0);
        assert!(result.stats.map_tasks >= 2);
    }

    #[test]
    fn map_offsets_are_global_record_indices() {
        let cluster = Cluster::local(2, 2);
        let mut dfs = Dfs::new(cluster.topology.clone(), 16, 2);
        dfs.put_fixed("nums", (100..200u64).collect(), 4).unwrap();
        assert!(dfs.num_blocks("nums").unwrap() > 1);
        let mapper = FnMapper::new(|off: u64, v: &u64, out: &mut Emitter<u64, u64>| {
            out.emit(off, *v);
        });
        let result = MapOnlyJob::new("ident", &cluster, &dfs, "nums", mapper)
            .run()
            .unwrap();
        for (off, v) in result.output {
            assert_eq!(v, off + 100);
        }

        // A block-level mapper sees each chunk once, at the global offset
        // of its first record.
        #[derive(Clone)]
        struct ChunkProbe;
        impl Mapper<u64> for ChunkProbe {
            type KOut = u64;
            type VOut = (u64, u64);
            fn map(&mut self, _off: u64, _v: &u64, _out: &mut Emitter<u64, (u64, u64)>) {
                unreachable!("the engine only calls map_block");
            }
            fn map_block(&mut self, base: u64, block: &[u64], out: &mut Emitter<u64, (u64, u64)>) {
                out.emit(base, (block[0], block.len() as u64));
            }
        }
        let result = MapOnlyJob::new("probe", &cluster, &dfs, "nums", ChunkProbe)
            .run()
            .unwrap();
        assert_eq!(result.output.len(), dfs.num_blocks("nums").unwrap());
        let mut expected_base = 0;
        for (base, (first, len)) in result.output {
            assert_eq!(base, expected_base);
            assert_eq!(first, base + 100);
            expected_base += len;
        }
        assert_eq!(expected_base, 100);
    }

    #[test]
    fn default_map_block_is_the_per_record_loop() {
        /// The tokenizer with `map_block` spelled out by hand as the plain
        /// per-record loop; `map_records` differs from it in capacity only.
        #[derive(Clone)]
        struct ExplicitLoop;
        impl Mapper<String> for ExplicitLoop {
            type KOut = String;
            type VOut = u64;
            fn map(&mut self, _off: u64, w: &String, out: &mut Emitter<String, u64>) {
                out.emit(w.clone(), 1);
            }
            fn map_block(&mut self, base: u64, block: &[String], out: &mut Emitter<String, u64>) {
                for (j, w) in block.iter().enumerate() {
                    self.map(base + j as u64, w, out);
                }
            }
        }
        // Everything but the process-wide allocator readings, which move
        // with whatever other tests run concurrently.
        fn counters(result: &JobResult<String, u64>) -> BTreeMap<String, u64> {
            let heap = [
                builtin::MEM_PEAK_BYTES,
                builtin::MEM_ALLOCATED_BYTES,
                builtin::MEM_ALLOCS,
            ];
            let mut counters = result.stats.counters.clone();
            counters.retain(|name, _| !heap.contains(&name.as_str()));
            counters
        }
        fn run<M>(mapper: M, budget: Option<usize>) -> JobResult<String, u64>
        where
            M: Mapper<String, KOut = String, VOut = u64>,
        {
            let cluster = Cluster::local(3, 2);
            let dfs = word_dfs(&cluster);
            let job =
                MapReduceJob::new("wc", &cluster, &dfs, "words", mapper, SumReducer).reducers(2);
            match budget {
                Some(bytes) => budgeted(job, bytes).run().unwrap(),
                None => job.run().unwrap(),
            }
        }
        for budget in [None, Some(1)] {
            let default = run(tokenizer(), budget);
            let explicit = run(ExplicitLoop, budget);
            assert_eq!(default.output, explicit.output, "{budget:?}");
            assert_eq!(counters(&default), counters(&explicit), "{budget:?}");
        }
    }

    #[test]
    fn all_values_of_a_key_reach_one_reduce_call() {
        let cluster = Cluster::local(4, 2);
        let mut dfs = Dfs::new(cluster.topology.clone(), 8, 2);
        // 50 records of key k spread over many chunks.
        let records: Vec<u64> = (0..200).collect();
        dfs.put_fixed("r", records, 4).unwrap();
        let mapper = FnMapper::new(|_off: u64, v: &u64, out: &mut Emitter<u64, u64>| {
            out.emit(v % 4, *v);
        });
        #[derive(Clone)]
        struct CountReducer;
        impl Reducer<u64, u64> for CountReducer {
            type KOut = u64;
            type VOut = u64;
            fn reduce(&mut self, key: &u64, values: Group<'_, u64>, out: &mut Emitter<u64, u64>) {
                // One call per key: emit the group size once.
                out.emit(*key, values.len() as u64);
            }
        }
        let result = MapReduceJob::new("group", &cluster, &dfs, "r", mapper, CountReducer)
            .reducers(3)
            .run()
            .unwrap();
        let counts: BTreeMap<u64, u64> = result.output.into_iter().collect();
        assert_eq!(counts.len(), 4);
        for k in 0..4 {
            assert_eq!(counts[&k], 50, "key {k}");
        }
        assert_eq!(result.stats.counters[builtin::REDUCE_INPUT_GROUPS], 4);
    }

    /// Emits one `(Arc::as_ptr of its side data, 1)` pair per input split
    /// and counts its `setup` calls; it may cut anywhere.
    #[derive(Clone)]
    struct SideData(Arc<Vec<u64>>);
    impl Mapper<u64> for SideData {
        type KOut = u64;
        type VOut = u64;
        fn setup(&mut self, ctx: &TaskContext<'_>) {
            ctx.counters.inc("test.setups", 1);
        }
        fn map(&mut self, _off: u64, _v: &u64, _out: &mut Emitter<u64, u64>) {}
        fn map_block(&mut self, _base: u64, _block: &[u64], out: &mut Emitter<u64, u64>) {
            out.emit(Arc::as_ptr(&self.0) as u64, 1);
        }
        fn splits_between(&self, _prev: &u64, _next: &u64) -> bool {
            true
        }
    }

    #[derive(Clone)]
    struct CountValues;
    impl Reducer<u64, u64> for CountValues {
        type KOut = u64;
        type VOut = u64;
        fn reduce(&mut self, key: &u64, values: Group<'_, u64>, out: &mut Emitter<u64, u64>) {
            out.emit(*key, values.len() as u64);
        }
    }

    /// 3 chunks of 10 000 records, run through [`SideData`].
    fn side_data_run(side: &Arc<Vec<u64>>) -> JobResult<u64, u64> {
        let cluster = Cluster::local(2, 2);
        let mut dfs = Dfs::new(cluster.topology.clone(), 80_000, 1);
        dfs.put_fixed("nums", (0..30_000u64).collect(), 8).unwrap();
        assert_eq!(dfs.blocks_of("nums").unwrap().len(), 3);
        let mapper = SideData(Arc::clone(side));
        MapReduceJob::new("side", &cluster, &dfs, "nums", mapper, CountValues)
            .reducers(2)
            .run()
            .unwrap()
    }

    /// Each chunk is cut every 4 096 records: 3 splits a chunk.
    const SIDE_DATA_SPLITS: u64 = 9;

    #[test]
    fn setup_runs_once_per_split_on_a_fresh_clone() {
        let result = side_data_run(&Arc::new(vec![7; 16]));
        let splits: u64 = result.output.iter().map(|&(_, n)| n).sum();
        assert_eq!(splits, SIDE_DATA_SPLITS);
        assert_eq!(result.stats.counters["test.setups"], splits);
    }

    #[test]
    fn splits_share_the_mappers_side_data() {
        let side = Arc::new(vec![7u64; 1024]);
        let result = side_data_run(&side);
        let driver = Arc::as_ptr(&side) as u64;
        assert_eq!(result.output, vec![(driver, SIDE_DATA_SPLITS)]);
    }

    #[test]
    fn injected_failures_are_retried_and_result_unchanged() {
        let base = Cluster::local(3, 2);
        let dfs = word_dfs(&base);
        let clean = MapReduceJob::new("wc", &base, &dfs, "words", tokenizer(), SumReducer)
            .reducers(2)
            .run()
            .unwrap();

        let flaky = base
            .clone()
            .with_chaos(ChaosPlan::none().fail_tasks(0.7, 0.7, 13, 50));
        let rec = Recorder::enabled();
        let retried = MapReduceJob::new("wc", &flaky, &dfs, "words", tokenizer(), SumReducer)
            .reducers(2)
            .exec(&ExecCtx::new(&flaky).traced(&rec), None)
            .run()
            .unwrap();
        assert_eq!(word_counts(&clean), word_counts(&retried));
        // The draw is a pure function of (job, phase, task, attempt, seed):
        // these numbers move only if the draw itself does.
        let points = rec
            .events()
            .iter()
            .filter(|e| e.name == "task.retry")
            .count();
        assert_eq!(retried.stats.counters[builtin::TASK_RETRIES], 2);
        assert_eq!(points, 2);
    }

    /// What a map-only job shows the outside: its spans, its counters and
    /// its monitor rows — and, run under a budgeted, journaled context,
    /// that neither the budget nor the journal touches it.
    #[test]
    fn map_only_outside_view() {
        let cluster = Cluster::local(2, 2);
        let mut dfs = Dfs::new(cluster.topology.clone(), 16, 2);
        dfs.put_fixed("nums", (0..100u64).collect(), 4).unwrap();
        let chunks = dfs.num_blocks("nums").unwrap();
        let mapper = FnMapper::new(|off: u64, v: &u64, out: &mut Emitter<u64, u64>| {
            if v.is_multiple_of(3) {
                out.emit(off, *v);
            }
        });
        let plain = MapOnlyJob::new("filter", &cluster, &dfs, "nums", mapper.clone())
            .run()
            .unwrap();

        let run_dir =
            std::env::temp_dir().join(format!("gepeto-map-only-view-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&run_dir);
        let journal = Arc::new(RunJournal::attach(&run_dir).unwrap());
        let rec = Recorder::monitored();
        let ctx = ExecCtx {
            journal: Some(Arc::clone(&journal)),
            memory_budget: Some(1),
            ..ExecCtx::new(&cluster)
        }
        .traced(&rec);
        let (result, _) = ctx
            .submit("filter", &dfs, |name, dfs, budget| {
                MapOnlyJob::new(name, &cluster, dfs, "nums", mapper.clone())
                    .exec(&ctx, budget)
                    .run()
            })
            .unwrap();
        assert_eq!(result.output, plain.output);
        assert_eq!(result.stats.map_tasks, chunks);
        assert_eq!(result.stats.reduce_tasks, 0);

        // Spans: the job, its map phase and one task per chunk — nothing
        // of a shuffle or a reduce.
        use gepeto_telemetry::EventKind;
        let events = rec.events();
        let starts: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanStart)
            .collect();
        let named = |name: &'static str| starts.iter().filter(move |e| e.name == name);
        let job: Vec<_> = named("job").collect();
        assert_eq!(job.len(), 1);
        assert_eq!(
            job[0].labels,
            [
                ("job".to_string(), "filter".to_string()),
                ("reducers".to_string(), "0".to_string())
            ]
        );
        let map: Vec<_> = named("phase.map").collect();
        assert_eq!(map.len(), 1);
        assert_eq!(map[0].label("tasks"), Some(chunks.to_string().as_str()));
        let mut tasks: Vec<usize> = named("task.map")
            .map(|e| e.label("task").unwrap().parse().unwrap())
            .collect();
        tasks.sort_unstable();
        assert_eq!(tasks, (0..chunks).collect::<Vec<_>>());
        assert!(starts
            .iter()
            .all(|e| matches!(e.name, "job" | "phase.map" | "task.map")));

        // Counters: everything but the process-wide allocator readings.
        let heap = [
            builtin::MEM_PEAK_BYTES,
            builtin::MEM_ALLOCATED_BYTES,
            builtin::MEM_ALLOCS,
        ];
        let mut counters = result.stats.counters.clone();
        counters.retain(|name, _| !heap.contains(&name.as_str()));
        let expected: BTreeMap<String, u64> = [
            (builtin::MAP_INPUT_RECORDS, 100),
            (builtin::MAP_OUTPUT_RECORDS, 34),
            (builtin::MEM_ACCOUNTED_PEAK, 32),
        ]
        .into_iter()
        .map(|(name, v)| (name.to_string(), v))
        .collect();
        assert_eq!(counters, expected);

        // Monitor rows: map progress only, and every other registry row as
        // the job counted it.
        let snap = rec.monitor().unwrap().snapshot();
        let progress = [
            (registry::JOBS_STARTED, 1),
            (registry::JOBS_FINISHED, 1),
            (registry::MAP_TASKS_SCHEDULED, chunks as u64),
            (registry::MAP_TASKS_DONE, chunks as u64),
            (registry::REDUCE_TASKS_SCHEDULED, 0),
            (registry::REDUCE_TASKS_DONE, 0),
            (registry::CRASH_KILLED, 0),
        ];
        for row in registry::METRICS {
            let expected = match progress.iter().find(|(name, _)| *name == row.name) {
                Some(&(_, v)) => v,
                None => result.stats.counters.get(row.name).copied().unwrap_or(0),
            };
            assert_eq!(snap.get(row.name), expected, "monitor: {}", row.name);
        }

        // Neither a spill run nor a journal entry.
        assert!(journal.entries().is_empty());
        let spilled = std::fs::read_dir(journal.spill_root()).map_or(0, |d| d.count());
        assert_eq!(spilled, 0);
        let _ = std::fs::remove_dir_all(&run_dir);
    }

    #[test]
    fn exhausted_attempts_fail_the_job() {
        // Every map attempt dies; a cap below one attempt means one.
        for (cap, ran) in [(0, 1), (1, 1), (3, 3)] {
            let chaos = ChaosPlan::none().fail_tasks(1.0, 0.0, 1, cap);
            let cluster = Cluster::local(2, 2).with_chaos(chaos);
            let dfs = word_dfs(&cluster);
            let rec = Recorder::enabled();
            let err = MapReduceJob::new("wc", &cluster, &dfs, "words", tokenizer(), SumReducer)
                .exec(&ExecCtx::new(&cluster).traced(&rec), None)
                .run()
                .unwrap_err();
            assert_eq!(
                err,
                JobError::TaskFailed {
                    phase: "map",
                    task: 0,
                    attempts: ran,
                },
                "cap {cap}"
            );
            let died = rec
                .events()
                .iter()
                .filter(|e| e.name == "task.retry")
                .count();
            assert_eq!(died, ran as usize, "cap {cap}");
        }
    }

    #[test]
    fn missing_input_is_a_dfs_error() {
        let cluster = Cluster::local(2, 2);
        let dfs: Dfs<String> = Dfs::new(cluster.topology.clone(), 64, 2);
        let err = MapReduceJob::new("wc", &cluster, &dfs, "nope", tokenizer(), SumReducer)
            .run()
            .unwrap_err();
        assert!(matches!(err, JobError::Dfs(DfsError::FileNotFound(_))));
    }

    #[test]
    fn telemetry_captures_phases_tasks_and_shuffle() {
        let cluster = Cluster::local(3, 2);
        let dfs = word_dfs(&cluster);
        let rec = Recorder::enabled();
        let result = MapReduceJob::new("wc", &cluster, &dfs, "words", tokenizer(), SumReducer)
            .reducers(2)
            .exec(&ExecCtx::new(&cluster).traced(&rec), None)
            .run()
            .unwrap();
        let events = rec.events();
        use gepeto_telemetry::EventKind;
        let ends = |name: &str| {
            events
                .iter()
                .filter(|e| e.kind == EventKind::SpanEnd && e.name == name)
                .count()
        };
        assert_eq!(ends("job"), 1);
        assert_eq!(ends("phase.map"), 1);
        assert_eq!(ends("phase.shuffle"), 1);
        assert_eq!(ends("phase.reduce"), 1);
        assert_eq!(ends("task.map"), result.stats.map_tasks);
        assert_eq!(ends("task.reduce"), 2);
        assert_eq!(ends("phase.sort"), 2, "one sort span per reducer");
        // Every task span carries its identity labels.
        for e in events
            .iter()
            .filter(|e| e.kind == EventKind::SpanStart && e.name == "task.map")
        {
            assert!(e.label("task").is_some() && e.label("block").is_some());
        }
        // The virtual scheduler logged one decision per task, tagged.
        let sched: Vec<_> = events.iter().filter(|e| e.name == "sched.map").collect();
        assert_eq!(sched.len(), result.stats.map_tasks);
        assert!(sched.iter().all(|e| e.label("locality").is_some()));
        // Engine counters are mirrored into the recorder at job end.
        assert_eq!(
            rec.counter(builtin::SHUFFLE_BYTES),
            result.stats.counters[builtin::SHUFFLE_BYTES]
        );
        let summary = rec.summary();
        assert!(summary.phases.iter().any(|p| p.name == "map"));
        assert_eq!(
            summary.counter(builtin::SHUFFLE_BYTES),
            result.stats.counters[builtin::SHUFFLE_BYTES]
        );
    }

    /// The word count under a spill budget, injected task failures and a
    /// mid-job node crash, reporting into `rec`.
    fn spilling_retrying_job(rec: &Recorder, budget: usize) -> JobStats {
        let chaos = ChaosPlan::none()
            .fail_tasks(0.5, 0.5, 13, 50)
            .crash_node(0, 1.5);
        let mut cluster = Cluster::local(2, 1).with_chaos(chaos);
        cluster.sim = crate::sim::SimParams::unit_time();
        let dfs = word_dfs(&cluster);
        MapReduceJob::new("wc", &cluster, &dfs, "words", tokenizer(), SumReducer)
            .reducers(2)
            .codecs(SpillCodec::of(), SpillCodec::of())
            .exec(&ExecCtx::new(&cluster).traced(rec), Some(budget))
            .run()
            .unwrap()
            .stats
    }

    #[test]
    fn the_live_monitor_agrees_with_the_recorded_counters() {
        let rec = Recorder::monitored();
        let jobs = [
            spilling_retrying_job(&rec, 256),
            spilling_retrying_job(&rec, 1),
        ];
        let snap = rec.monitor().unwrap().snapshot();
        assert!(snap.get(builtin::SPILLED_BYTES) > 0);
        assert!(snap.get(builtin::TASK_RETRIES) > 0);
        assert!(snap.get(builtin::REEXECUTED_MAPS) > 0);
        assert_eq!(snap.get(registry::JOBS_FINISHED), 2);
        // What `Counters::merge` makes of the two jobs' counters.
        let merged = Counters::new();
        for job in &jobs {
            let one = Counters::new();
            for (k, &v) in &job.counters {
                one.inc(k, v);
            }
            merged.merge(&one);
        }
        // Progress and crash rows are the Monitor's own; every other row
        // reaches it through the job counters, one bump per event, and
        // folds across the two jobs by its kind in all three places.
        let monitor_only = [
            registry::JOBS_STARTED,
            registry::JOBS_FINISHED,
            registry::MAP_TASKS_SCHEDULED,
            registry::MAP_TASKS_DONE,
            registry::REDUCE_TASKS_SCHEDULED,
            registry::REDUCE_TASKS_DONE,
            registry::CRASH_KILLED,
        ];
        for row in registry::METRICS {
            if monitor_only.contains(&row.name) {
                continue;
            }
            let per_job = jobs
                .iter()
                .map(|j| j.counters.get(row.name).copied().unwrap_or(0));
            let expected = match row.kind {
                Kind::Sum => per_job.sum(),
                Kind::Max => per_job.max().unwrap_or(0),
            };
            assert_eq!(rec.counter(row.name), expected, "recorder: {}", row.name);
            assert_eq!(snap.get(row.name), expected, "monitor: {}", row.name);
            assert_eq!(merged.get(row.name), expected, "merge: {}", row.name);
        }
        let (a, b) = (&jobs[0].counters, &jobs[1].counters);
        assert_ne!(
            a[builtin::MEM_BUDGET_BYTES],
            b[builtin::MEM_BUDGET_BYTES],
            "the two jobs must differ on a max-folded row"
        );
    }

    #[test]
    fn telemetry_records_retry_points() {
        let cluster =
            Cluster::local(3, 2).with_chaos(ChaosPlan::none().fail_tasks(0.7, 0.7, 13, 50));
        let dfs = word_dfs(&cluster);
        let rec = Recorder::enabled();
        let result = MapReduceJob::new("wc", &cluster, &dfs, "words", tokenizer(), SumReducer)
            .reducers(2)
            .exec(&ExecCtx::new(&cluster).traced(&rec), None)
            .run()
            .unwrap();
        let retries = result.stats.counters[builtin::TASK_RETRIES];
        assert!(retries > 0);
        let points = rec
            .events()
            .iter()
            .filter(|e| e.name == "task.retry")
            .count() as u64;
        assert_eq!(points, retries);
        assert_eq!(rec.summary().retries, retries);
    }

    #[test]
    fn sim_report_attached() {
        let cluster = Cluster::parapluie();
        let mut dfs = Dfs::new(cluster.topology.clone(), 64, 3);
        dfs.put_fixed("nums", (0..1000u64).collect(), 8).unwrap();
        let mapper = FnMapper::new(|_o: u64, v: &u64, out: &mut Emitter<u64, u64>| {
            out.emit(*v % 10, *v);
        });
        let result = MapReduceJob::new("sim", &cluster, &dfs, "nums", mapper, {
            #[derive(Clone)]
            struct Max;
            impl Reducer<u64, u64> for Max {
                type KOut = u64;
                type VOut = u64;
                fn reduce(&mut self, k: &u64, vs: Group<'_, u64>, out: &mut Emitter<u64, u64>) {
                    out.emit(*k, vs.iter().copied().max().unwrap());
                }
            }
            Max
        })
        .run()
        .unwrap();
        let sim = &result.stats.sim;
        assert!(sim.makespan_s > 0.0);
        assert_eq!(sim.cluster_startup_s, 25.0);
        assert_eq!(
            sim.data_local + sim.rack_local + sim.remote,
            result.stats.map_tasks
        );
        assert!(sim.shuffle_bytes > 0);
    }
}

#[cfg(test)]
mod partitioner_tests {
    use super::*;
    use crate::api::FnMapper;

    #[derive(Clone)]
    struct KeyLister;
    impl Reducer<u64, u64> for KeyLister {
        type KOut = usize;
        type VOut = u64;
        fn setup(&mut self, _ctx: &TaskContext<'_>) {}
        fn reduce(&mut self, key: &u64, _values: Group<'_, u64>, out: &mut Emitter<usize, u64>) {
            out.emit(0, *key); // keys flow through; partition recovered below
        }
    }

    #[test]
    fn custom_range_partitioner_routes_keys() {
        // Verify routing via output ordering: partitions are concatenated
        // in order, so with a range partitioner the keys come out sorted
        // across partition boundaries.
        let cluster = Cluster::local(2, 2);
        let mut dfs = Dfs::new(cluster.topology.clone(), 64, 2);
        dfs.put_fixed("r", (0..100u64).rev().collect(), 8).unwrap();
        let mapper = FnMapper::new(|_o: u64, v: &u64, out: &mut Emitter<u64, u64>| {
            out.emit(*v, 1);
        });
        let result = MapReduceJob::new("range", &cluster, &dfs, "r", mapper, KeyLister)
            .reducers(4)
            .partitioner(|key: &u64, n: usize| (*key as usize * n / 100).min(n - 1))
            .run()
            .unwrap();
        let keys: Vec<u64> = result.output.iter().map(|&(_, k)| k).collect();
        // Globally sorted: within a partition keys are sorted by the
        // shuffle, and the range partitioner makes partitions ordered.
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), 100);
    }

    /// `(key, arrival index)` pairs whose keys come in runs: each draw is a
    /// key and how many times it repeats.
    fn runs_of_keys(draws: &[(u64, usize)]) -> Vec<(u64, usize)> {
        draws
            .iter()
            .flat_map(|&(key, repeat)| std::iter::repeat_n(key, repeat))
            .enumerate()
            .map(|(i, key)| (key, i))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// A map task's buckets are its output filtered by each pair's own
        /// partition, in emission order, sized exactly: one partitioner
        /// call per run of equal adjacent keys answers what a call per
        /// pair would, and each bucket stores a key once per run.
        fn map_task_buckets_are_the_per_pair_partitions(
            draws in proptest::collection::vec((0u64..12, 1usize..5), 0..40),
            reducers in 1usize..7,
        ) {
            let pairs = runs_of_keys(&draws);
            let partition = |k: &u64| (*k as usize * 7 + 3) % reducers;
            let mut calls = 0;
            let buckets = KeyRuns::partitioned(pairs.clone(), reducers, |k| {
                calls += 1;
                partition(k)
            });
            let runs = pairs.chunk_by(|a, b| a.0 == b.0).count();
            assert_eq!(calls, runs);
            assert_eq!(buckets.len(), reducers);
            let mut bucket_runs = 0;
            for (p, bucket) in buckets.into_iter().enumerate() {
                let want: Vec<(u64, usize)> =
                    pairs.iter().copied().filter(|(k, _)| partition(k) == p).collect();
                bucket_runs += bucket.iter().count();
                assert_eq!(bucket.runs.capacity(), bucket.runs.len());
                assert_eq!(bucket.values.capacity(), want.len());
                let got: Vec<(u64, usize)> = bucket
                    .iter()
                    .flat_map(|(&k, values)| values.iter().map(move |&v| (k, v)))
                    .collect();
                assert_eq!(got, want);
            }
            assert_eq!(bucket_runs, runs);
        }
    }

    #[test]
    #[should_panic(expected = "partitioner returned")]
    fn out_of_range_partitioner_is_caught() {
        let cluster = Cluster::local(2, 1);
        let mut dfs = Dfs::new(cluster.topology.clone(), 64, 2);
        dfs.put_fixed("r", vec![1u64], 8).unwrap();
        let mapper = FnMapper::new(|_o: u64, v: &u64, out: &mut Emitter<u64, u64>| {
            out.emit(*v, 1);
        });
        let _ = MapReduceJob::new("bad", &cluster, &dfs, "r", mapper, KeyLister)
            .reducers(2)
            .partitioner(|_: &u64, n: usize| n) // == n, out of range
            .run();
    }
}
