//! The cluster-time simulator.
//!
//! Map/reduce tasks *really* execute in parallel on host threads (see
//! [`crate::job`]); this module answers "how long would this job have
//! taken on the paper's cluster?" by replaying each task's **measured**
//! CPU time through a locality-aware slot scheduler over a virtual
//! [`Topology`]. It models the effects the paper's evaluation turns on:
//!
//! - one map task per chunk, scheduled preferring data-local, then
//!   rack-local, then remote nodes (§III: "priority is given to
//!   neighboring nodes, i.e. belonging to the same network rack");
//! - reducers start only after the map phase completes;
//! - shuffle transfer time proportional to intermediate bytes;
//! - a constant deployment overhead ("approximately 25 seconds", §VI);
//! - the failure modes of [`crate::chaos::ChaosPlan`]: nodes crashing
//!   mid-job (killing in-flight attempts, invalidating their completed
//!   map outputs, making their chunk replicas unreadable), corrupt
//!   replicas forcing read failover, degraded nodes running slow, and
//!   the jobtracker blacklisting nodes after repeated task failures —
//!   with every failed or re-executed attempt charged to the makespan.

use crate::chaos::{ChaosEvent, ChaosPlan};
use crate::dfs::BlockId;
use crate::topology::{NodeId, Topology};
use gepeto_telemetry::{registry, Recorder};
use serde::{Deserialize, Serialize};

/// Where a map task ran relative to its input chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Locality {
    /// On a node holding a replica of the chunk.
    DataLocal,
    /// On a different node of a replica-holding rack.
    RackLocal,
    /// Anywhere else: the chunk crosses racks.
    Remote,
}

impl Locality {
    /// Stable lowercase tag used in telemetry labels.
    pub fn as_str(self) -> &'static str {
        match self {
            Locality::DataLocal => "data-local",
            Locality::RackLocal => "rack-local",
            Locality::Remote => "remote",
        }
    }
}

/// Time-model parameters of the virtual cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimParams {
    /// Fixed per-task overhead (task launch, JVM reuse, heartbeat), secs.
    pub task_startup_s: f64,
    /// Multiplier from measured host-thread seconds to virtual-node
    /// seconds (>1 emulates slower 2013-era cores). This carries the
    /// *algorithmic* cost differences (e.g. Haversine vs squared
    /// Euclidean) into the virtual timeline.
    pub cpu_scale: f64,
    /// Fixed per-record cost in microseconds, modeling Hadoop's
    /// per-record overhead (text parsing, serialization, object churn) —
    /// the dominant term of the paper's per-iteration times, invisible
    /// to a Rust host measurement.
    pub per_record_us: f64,
    /// Intra-rack network bandwidth, MB/s.
    pub net_mb_s: f64,
    /// Cross-rack network bandwidth, MB/s.
    pub cross_rack_mb_s: f64,
    /// One-off HDFS deployment + daemon startup overhead, secs.
    pub cluster_startup_s: f64,
    /// Per-job fixed overhead (job setup, split computation, commit) —
    /// what dominates small Hadoop jobs; added once to every makespan.
    pub job_overhead_s: f64,
    /// Probability that a task lands on a straggling executor
    /// (deterministic per task index; 0 disables straggler modeling).
    pub straggler_prob: f64,
    /// Slowdown factor a straggling task suffers.
    pub straggler_slowdown: f64,
    /// Hadoop's speculative execution: when a straggler is detected a
    /// backup task is launched on another node, capping the effective
    /// slowdown at ~2× nominal (detection + fresh run).
    pub speculative_execution: bool,
}

impl SimParams {
    /// Profile calibrated to the paper's §VI observations: ~25 s
    /// deployment overhead, gigabit-class network, sub-second task
    /// startup, and a CPU scale that maps one 2026 host thread to one
    /// 1.7 GHz Opteron core.
    pub fn parapluie() -> Self {
        Self {
            task_startup_s: 0.8,
            cpu_scale: 15.0,
            per_record_us: 25.0,
            net_mb_s: 112.0,
            cross_rack_mb_s: 80.0,
            cluster_startup_s: 25.0,
            job_overhead_s: 20.0,
            straggler_prob: 0.03,
            straggler_slowdown: 6.0,
            speculative_execution: true,
        }
    }

    /// Overhead-free profile for unit tests: virtual time ≈ pure measured
    /// CPU time.
    pub fn instant() -> Self {
        Self {
            task_startup_s: 0.0,
            cpu_scale: 1.0,
            per_record_us: 0.0,
            net_mb_s: f64::INFINITY,
            cross_rack_mb_s: f64::INFINITY,
            cluster_startup_s: 0.0,
            job_overhead_s: 0.0,
            straggler_prob: 0.0,
            straggler_slowdown: 1.0,
            speculative_execution: false,
        }
    }

    /// Profile for chaos tests: the virtual schedule is fully determined
    /// by task *counts* (every task costs exactly 1 s), independent of
    /// measured host times — so crash times scripted against virtual
    /// seconds land on the same task attempt in every run.
    pub fn unit_time() -> Self {
        Self {
            task_startup_s: 1.0,
            cpu_scale: 0.0,
            ..Self::instant()
        }
    }
}

/// One map task's inputs to the simulator.
#[derive(Debug, Clone)]
pub struct MapTaskSim {
    /// Measured host-thread seconds of the task body.
    pub host_secs: f64,
    /// Bytes of the input chunk (transferred when run non-locally).
    pub input_bytes: u64,
    /// Records in the input chunk (drives the per-record cost model).
    pub records: u64,
    /// The chunk this task reads (for unreadable-block error reporting).
    pub block: BlockId,
    /// Datanodes holding replicas of the input chunk; the scheduler reads
    /// those [`ChaosPlan::replica_readable`] admits.
    pub replicas: Vec<NodeId>,
    /// One entry per injected failed attempt (from
    /// [`ChaosPlan::fail_tasks`]): the fraction of the attempt's
    /// nominal post-startup runtime it burned before dying. Each entry
    /// is charged to the virtual schedule before the task can succeed.
    pub failed_attempts: Vec<f64>,
}

impl MapTaskSim {
    /// The replicas of the input chunk `chaos` lets a read use at `at_s`,
    /// in failover order.
    fn readable<'a>(
        &'a self,
        chaos: &'a ChaosPlan,
        at_s: f64,
    ) -> impl Iterator<Item = NodeId> + 'a {
        let block = self.block;
        self.replicas
            .iter()
            .copied()
            .filter(move |&r| chaos.replica_readable(block, r, at_s))
    }
}

/// One reduce task's inputs to the simulator.
#[derive(Debug, Clone)]
pub struct ReduceTaskSim {
    /// Measured host-thread seconds of the task body.
    pub host_secs: f64,
    /// Intermediate bytes this reducer pulls from mappers.
    pub shuffle_bytes: u64,
    /// Intermediate records this reducer consumes.
    pub records: u64,
    /// Injected failed attempts; see [`MapTaskSim::failed_attempts`].
    pub failed_attempts: Vec<f64>,
}

/// The simulator's verdict for one job.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Virtual job time excluding cluster startup, seconds.
    pub makespan_s: f64,
    /// Virtual map-phase span, seconds.
    pub map_phase_s: f64,
    /// Virtual shuffle+reduce span, seconds.
    pub reduce_phase_s: f64,
    /// The modeled one-off deployment overhead, seconds.
    pub cluster_startup_s: f64,
    /// Tasks that hit a straggling executor.
    pub stragglers: usize,
    /// Stragglers rescued by a speculative backup task.
    pub speculated: usize,
    /// Map tasks that ran data-local / rack-local / remote.
    pub data_local: usize,
    /// See [`SimReport::data_local`].
    pub rack_local: usize,
    /// See [`SimReport::data_local`].
    pub remote: usize,
    /// Total bytes shuffled from mappers to reducers.
    pub shuffle_bytes: u64,
    /// Completed map tasks re-executed because their node crashed before
    /// the map barrier and took their locally-stored outputs with it.
    pub reexecuted_maps: usize,
    /// Successful map-input reads that had to skip at least one replica
    /// [`ChaosPlan::replica_readable`] rejects (dead or corrupt).
    pub failed_over_reads: usize,
    /// Nodes the jobtracker blacklisted after repeated task failures.
    pub blacklisted_nodes: usize,
    /// Attempts killed in flight by their node crashing.
    pub crash_killed_attempts: usize,
    /// Virtual seconds burned by failed, killed and invalidated attempts
    /// — the recovery cost inside `makespan_s`.
    pub failed_attempt_s: f64,
}

/// Why a chaos replay could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A map attempt found no readable replica of its chunk: every copy
    /// sits on a crashed node or is corrupt.
    UnreadableBlock(BlockId),
    /// Work remains but every node is dead or blacklisted.
    NoLiveNodes,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnreadableBlock(b) => {
                write!(f, "sim: no readable replica of block {b}")
            }
            SimError::NoLiveNodes => write!(f, "sim: no live node left to run tasks"),
        }
    }
}

impl std::error::Error for SimError {}

/// Per-node slot pool: each node owns `slots` identical slots whose next
/// free times are tracked individually.
struct SlotPool {
    free_at: Vec<Vec<f64>>, // free_at[node][slot]
    /// Rotates the tie-break start so simultaneous-idle nodes take turns
    /// (a heartbeat-order stand-in; without it every task of an idle
    /// cluster would land on node 0).
    rotation: usize,
}

impl SlotPool {
    fn new(topology: &Topology) -> Self {
        Self {
            free_at: vec![vec![0.0; topology.slots_per_node()]; topology.num_nodes()],
            rotation: 0,
        }
    }

    /// `(node, slot, time)` of the earliest slot that frees *before its
    /// node dies*, skipping blacklisted nodes; ties broken round-robin
    /// across nodes (deterministic). `None` when no node can accept
    /// work any more.
    fn earliest_usable(
        &mut self,
        death: &[f64],
        blacklisted: &[bool],
    ) -> Option<(NodeId, usize, f64)> {
        let n_nodes = self.free_at.len();
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..n_nodes {
            let n = (self.rotation + i) % n_nodes;
            if blacklisted[n] {
                continue;
            }
            for (s, &t) in self.free_at[n].iter().enumerate() {
                if t >= death[n] {
                    continue; // the node is dead by the time this slot frees
                }
                if best.is_none_or(|b| t < b.2) {
                    best = Some((n, s, t));
                }
            }
        }
        if let Some(b) = best {
            self.rotation = (b.0 + 1) % n_nodes;
        }
        best
    }

    fn occupy(&mut self, node: NodeId, slot: usize, until: f64) {
        self.free_at[node][slot] = until;
    }
}

/// Replays a job's measured task times on the virtual cluster, under a
/// [`ChaosPlan`].
///
/// Scheduling model: whenever a slot frees (pull-based, like tasktracker
/// heartbeats), the jobtracker hands it the first still-pending map task
/// that is data-local to that node, else rack-local, else any pending
/// task — Hadoop's locality waterfall. Every slot assignment is recorded
/// as a `sched.map` / `sched.reduce` point event carrying the simulated
/// task duration (seconds) and `task` / `node` / `locality` labels — the
/// jobtracker-side scheduling log the paper's locality analysis reads.
///
/// Chaos: injected failed attempts charge their partial runtime; nodes
/// crash at scripted virtual times (`start_s` maps the plan's absolute
/// clock onto this job's local timeline), killing in-flight attempts,
/// invalidating
/// completed map outputs held on the crashed node (which the jobtracker
/// re-executes on survivors), and making the node's chunk replicas
/// unreadable so map-input reads fail over to surviving replicas.
/// Nodes accumulating [`ChaosPlan::blacklist_threshold`] failed attempts
/// are blacklisted (never the last usable node). Every failed, killed or
/// re-executed attempt occupies its slot for the time it burned, so the
/// makespan carries the recovery cost.
///
/// # Errors
/// [`SimError::UnreadableBlock`] when every replica of a map input is on
/// crashed nodes or corrupt; [`SimError::NoLiveNodes`] when tasks remain
/// but every node is dead or blacklisted.
#[allow(clippy::too_many_arguments)]
pub fn simulate_chaos(
    topology: &Topology,
    params: &SimParams,
    chaos: &ChaosPlan,
    start_s: f64,
    map_tasks: &[MapTaskSim],
    reduce_tasks: &[ReduceTaskSim],
    telemetry: &Recorder,
) -> Result<SimReport, SimError> {
    let mut report = SimReport {
        cluster_startup_s: params.cluster_startup_s,
        ..SimReport::default()
    };
    let n_nodes = topology.num_nodes();
    // Crash times on this job's local timeline (∞ = never dies).
    let death: Vec<f64> = (0..n_nodes)
        .map(|n| chaos.crash_time(n).map_or(f64::INFINITY, |t| t - start_s))
        .collect();
    let mut blacklisted = vec![false; n_nodes];
    let mut node_failures = vec![0u32; n_nodes];
    let mut task_seq = 0usize;
    let monitor = telemetry.monitor();

    // Scripted chaos, projected onto this job's local timeline, is
    // announced up front so the timeline/Gantt layer can overlay the
    // annotations without re-deriving them from the plan.
    if telemetry.is_enabled() {
        for (node, &d) in death.iter().enumerate() {
            if d.is_finite() {
                telemetry.point("chaos.crash", d, &[("node", &node.to_string())]);
            }
        }
        for ev in chaos.events() {
            if let ChaosEvent::DegradeNode {
                node,
                at_s,
                slowdown,
            } = ev
            {
                telemetry.point(
                    "chaos.degrade",
                    at_s - start_s,
                    &[
                        ("node", &node.to_string()),
                        ("factor", &slowdown.to_string()),
                    ],
                );
            }
        }
    }

    // ---- map wave(s): schedule until done, re-executing maps whose
    // node died before the barrier (their outputs lived on local disk,
    // as in Hadoop). ----
    let mut pool = SlotPool::new(topology);
    let mut pending: Vec<usize> = (0..map_tasks.len()).collect();
    // Remaining injected-failure charges per task (consumed front-first).
    let mut fail_cursor: Vec<usize> = vec![0; map_tasks.len()];
    let mut completed: Vec<Option<(NodeId, f64)>> = vec![None; map_tasks.len()];
    // Tasks whose completed output was lost to a crash: their next
    // successful run is tagged `reexec` so trace analysis can attribute
    // the makespan delta to re-executed work.
    let mut lost_output: Vec<bool> = vec![false; map_tasks.len()];
    let mut invalidated = vec![false; n_nodes];
    let mut map_end: f64 = 0.0;
    loop {
        while !pending.is_empty() {
            let Some((node, slot, at)) = pool.earliest_usable(&death, &blacklisted) else {
                return Err(SimError::NoLiveNodes);
            };
            let rack = topology.rack_of(node);
            let abs_now = start_s + at;
            let readable = |t: usize| map_tasks[t].readable(chaos, abs_now);
            // Locality waterfall over the pending list, on *readable*
            // replicas only.
            let idx = pending
                .iter()
                .position(|&t| readable(t).any(|r| r == node))
                .or_else(|| {
                    pending
                        .iter()
                        .position(|&t| readable(t).any(|r| topology.rack_of(r) == rack))
                })
                .unwrap_or(0);
            let tid = pending.swap_remove(idx);
            let task = &map_tasks[tid];
            // The map-input read: classify against the readable replicas;
            // error out when none is left.
            let readable_count = readable(tid).count();
            if readable_count == 0 {
                return Err(SimError::UnreadableBlock(task.block));
            }
            let local_ok = readable(tid).any(|r| r == node);
            let rack_ok = readable(tid).any(|r| topology.rack_of(r) == rack);
            let locality = if local_ok {
                Locality::DataLocal
            } else if rack_ok {
                Locality::RackLocal
            } else {
                Locality::Remote
            };
            let failover = readable_count < task.replicas.len();
            let transfer_s = match locality {
                Locality::DataLocal => 0.0,
                Locality::RackLocal => task.input_bytes as f64 / (params.net_mb_s * 1e6),
                Locality::Remote => task.input_bytes as f64 / (params.cross_rack_mb_s * 1e6),
            };
            let body = transfer_s
                + chaos.slowdown(node, abs_now)
                    * (task.records as f64 * params.per_record_us * 1e-6
                        + task.host_secs * params.cpu_scale);
            let nominal = params.task_startup_s + body;
            // Injected (`ChaosPlan::fail_tasks`) failure: the attempt burns part of
            // its runtime, occupies the slot for it, and is requeued.
            if let Some(&fraction) = task.failed_attempts.get(fail_cursor[tid]) {
                fail_cursor[tid] += 1;
                let end = (at + params.task_startup_s + fraction * body).min(death[node]);
                pool.occupy(node, slot, end);
                report.failed_attempt_s += end - at;
                node_failures[node] += 1;
                if let Some(m) = &monitor {
                    m.node_busy(node, end - at);
                }
                maybe_blacklist(
                    node,
                    &death,
                    &mut blacklisted,
                    &node_failures,
                    chaos,
                    &pool,
                    &mut report,
                    telemetry,
                    end,
                );
                if telemetry.is_enabled() {
                    telemetry.point(
                        "sched.map.failed",
                        end - at,
                        &[
                            ("task", &tid.to_string()),
                            ("node", &node.to_string()),
                            ("start", &fmt_secs(at)),
                        ],
                    );
                }
                pending.push(tid);
                continue;
            }
            task_seq += 1;
            let dur = straggler_adjusted(params, task_seq, nominal, &mut report);
            let end = at + dur;
            if end > death[node] {
                // The node crashes mid-attempt: the attempt is lost, the
                // task goes back to the queue for a surviving node.
                pool.occupy(node, slot, death[node]);
                report.failed_attempt_s += death[node] - at;
                report.crash_killed_attempts += 1;
                if let Some(m) = &monitor {
                    m.add(registry::CRASH_KILLED, 1);
                    m.node_busy(node, death[node] - at);
                }
                if telemetry.is_enabled() {
                    telemetry.point(
                        "sched.map.killed",
                        death[node] - at,
                        &[
                            ("task", &tid.to_string()),
                            ("node", &node.to_string()),
                            ("start", &fmt_secs(at)),
                        ],
                    );
                }
                pending.push(tid);
                continue;
            }
            match locality {
                Locality::DataLocal => report.data_local += 1,
                Locality::RackLocal => report.rack_local += 1,
                Locality::Remote => report.remote += 1,
            }
            if failover {
                report.failed_over_reads += 1;
            }
            if telemetry.is_enabled() {
                let task_label = tid.to_string();
                let node_label = node.to_string();
                let start_label = fmt_secs(at);
                let mut labels: Vec<(&str, &str)> = vec![
                    ("task", &task_label),
                    ("node", &node_label),
                    ("locality", locality.as_str()),
                    ("start", &start_label),
                ];
                if lost_output[tid] {
                    labels.push(("reexec", "1"));
                }
                if failover {
                    labels.push(("failover", "1"));
                }
                telemetry.point("sched.map", dur, &labels);
            }
            if let Some(m) = &monitor {
                m.node_busy(node, dur);
            }
            pool.occupy(node, slot, end);
            completed[tid] = Some((node, end));
            map_end = map_end.max(end);
        }
        // Barrier check: any node that died strictly before the map
        // barrier takes its completed map outputs with it — those maps
        // re-execute on the survivors, Hadoop's jobtracker behavior.
        let mut requeued = 0usize;
        for node in 0..n_nodes {
            if invalidated[node] || death[node] >= map_end {
                continue;
            }
            invalidated[node] = true;
            for (tid, c) in completed.iter_mut().enumerate() {
                if matches!(c, Some((n, _)) if *n == node) {
                    *c = None;
                    lost_output[tid] = true;
                    pending.push(tid);
                    requeued += 1;
                }
            }
        }
        if requeued == 0 {
            break;
        }
        report.reexecuted_maps += requeued;
        if telemetry.is_enabled() {
            telemetry.point("sched.map.invalidated", requeued as f64, &[]);
        }
    }
    report.map_phase_s = map_end;

    // ---- shuffle + reduce wave (starts when the map phase completes) ----
    let mut reduce_end = map_end;
    if !reduce_tasks.is_empty() {
        let mut pool = SlotPool::new(topology);
        // Slots only become usable at map_end.
        for node in pool.free_at.iter_mut() {
            for t in node.iter_mut() {
                *t = map_end;
            }
        }
        // On average (N-1)/N of a reducer's input crosses the network.
        let remote_fraction = if topology.num_nodes() > 1 {
            (topology.num_nodes() - 1) as f64 / topology.num_nodes() as f64
        } else {
            0.0
        };
        let mut pending: std::collections::VecDeque<usize> = (0..reduce_tasks.len()).collect();
        let mut fail_cursor: Vec<usize> = vec![0; reduce_tasks.len()];
        while let Some(tid) = pending.pop_front() {
            let task = &reduce_tasks[tid];
            let Some((node, slot, at)) = pool.earliest_usable(&death, &blacklisted) else {
                return Err(SimError::NoLiveNodes);
            };
            let transfer_s = task.shuffle_bytes as f64 * remote_fraction / (params.net_mb_s * 1e6);
            let body = transfer_s
                + chaos.slowdown(node, start_s + at)
                    * (task.records as f64 * params.per_record_us * 1e-6
                        + task.host_secs * params.cpu_scale);
            let nominal = params.task_startup_s + body;
            if let Some(&fraction) = task.failed_attempts.get(fail_cursor[tid]) {
                fail_cursor[tid] += 1;
                let end = (at + params.task_startup_s + fraction * body).min(death[node]);
                pool.occupy(node, slot, end);
                report.failed_attempt_s += end - at;
                node_failures[node] += 1;
                if let Some(m) = &monitor {
                    m.node_busy(node, end - at);
                }
                maybe_blacklist(
                    node,
                    &death,
                    &mut blacklisted,
                    &node_failures,
                    chaos,
                    &pool,
                    &mut report,
                    telemetry,
                    end,
                );
                if telemetry.is_enabled() {
                    telemetry.point(
                        "sched.reduce.failed",
                        end - at,
                        &[
                            ("task", &tid.to_string()),
                            ("node", &node.to_string()),
                            ("start", &fmt_secs(at)),
                        ],
                    );
                }
                pending.push_back(tid);
                continue;
            }
            task_seq += 1;
            let dur = straggler_adjusted(params, task_seq, nominal, &mut report);
            let end = at + dur;
            if end > death[node] {
                pool.occupy(node, slot, death[node]);
                report.failed_attempt_s += death[node] - at;
                report.crash_killed_attempts += 1;
                if let Some(m) = &monitor {
                    m.add(registry::CRASH_KILLED, 1);
                    m.node_busy(node, death[node] - at);
                }
                if telemetry.is_enabled() {
                    telemetry.point(
                        "sched.reduce.killed",
                        death[node] - at,
                        &[
                            ("task", &tid.to_string()),
                            ("node", &node.to_string()),
                            ("start", &fmt_secs(at)),
                        ],
                    );
                }
                pending.push_back(tid);
                continue;
            }
            if telemetry.is_enabled() {
                telemetry.point(
                    "sched.reduce",
                    dur,
                    &[
                        ("task", &tid.to_string()),
                        ("node", &node.to_string()),
                        ("start", &fmt_secs(at)),
                    ],
                );
            }
            if let Some(m) = &monitor {
                m.node_busy(node, dur);
            }
            pool.occupy(node, slot, end);
            reduce_end = reduce_end.max(end);
            report.shuffle_bytes += task.shuffle_bytes;
        }
    }
    report.reduce_phase_s = reduce_end - map_end;
    report.makespan_s = reduce_end + params.job_overhead_s;
    Ok(report)
}

/// Blacklists `node` once it reaches the failure threshold — unless it is
/// the last node still able to accept work (blacklisting it would wedge
/// the job; Hadoop likewise keeps limping along on its last tracker).
#[allow(clippy::too_many_arguments)]
fn maybe_blacklist(
    node: NodeId,
    death: &[f64],
    blacklisted: &mut [bool],
    node_failures: &[u32],
    chaos: &ChaosPlan,
    pool: &SlotPool,
    report: &mut SimReport,
    telemetry: &Recorder,
    at: f64,
) {
    if blacklisted[node] || node_failures[node] < chaos.blacklist_threshold() {
        return;
    }
    let another_usable = (0..death.len())
        .any(|m| m != node && !blacklisted[m] && pool.free_at[m].iter().any(|&t| t < death[m]));
    if another_usable {
        blacklisted[node] = true;
        report.blacklisted_nodes += 1;
        if telemetry.is_enabled() {
            telemetry.point("chaos.blacklist", at, &[("node", &node.to_string())]);
        }
    }
}

/// Virtual-seconds label value for `sched.*` points (fixed precision so
/// the telemetry timeline layer can parse it back).
fn fmt_secs(s: f64) -> String {
    format!("{s:.6}")
}

/// Applies the straggler model to one task's nominal duration.
///
/// With probability `straggler_prob` (deterministic in the task's
/// sequence number) the executor is slow by `straggler_slowdown`. With
/// speculative execution on, the jobtracker launches a backup once the
/// task overruns its nominal time, so the effective duration caps at
/// ~2× nominal (detection latency + a fresh full run).
fn straggler_adjusted(
    params: &SimParams,
    task_seq: usize,
    nominal: f64,
    report: &mut SimReport,
) -> f64 {
    if params.straggler_prob <= 0.0 {
        return nominal;
    }
    let roll = crate::hash::unit_hash(&("straggler", task_seq));
    if roll >= params.straggler_prob {
        return nominal;
    }
    report.stragglers += 1;
    let slowed = nominal * params.straggler_slowdown.max(1.0);
    if params.speculative_execution {
        report.speculated += 1;
        slowed.min(nominal * 2.0)
    } else {
        slowed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The untraced replay without chaos.
    fn simulate(
        topology: &Topology,
        params: &SimParams,
        map_tasks: &[MapTaskSim],
        reduce_tasks: &[ReduceTaskSim],
    ) -> SimReport {
        let (chaos, untraced) = (ChaosPlan::none(), Recorder::disabled());
        simulate_chaos(
            topology,
            params,
            &chaos,
            0.0,
            map_tasks,
            reduce_tasks,
            &untraced,
        )
        .unwrap()
    }

    fn map_task(secs: f64, replicas: Vec<NodeId>) -> MapTaskSim {
        MapTaskSim {
            host_secs: secs,
            input_bytes: 64 << 20,
            records: 0,
            block: 0,
            replicas,
            failed_attempts: Vec::new(),
        }
    }

    fn reduce_task(secs: f64, shuffle_bytes: u64) -> ReduceTaskSim {
        ReduceTaskSim {
            host_secs: secs,
            shuffle_bytes,
            records: 0,
            failed_attempts: Vec::new(),
        }
    }

    #[test]
    fn single_task_takes_its_duration() {
        let topo = Topology::new(2, 1, 1);
        let r = simulate(&topo, &SimParams::instant(), &[map_task(3.0, vec![0])], &[]);
        assert!((r.makespan_s - 3.0).abs() < 1e-9);
        assert_eq!(r.data_local, 1);
        assert_eq!(r.reduce_phase_s, 0.0);
    }

    #[test]
    fn parallel_tasks_overlap() {
        let topo = Topology::new(4, 1, 1);
        let tasks: Vec<MapTaskSim> = (0..4).map(|n| map_task(2.0, vec![n])).collect();
        let r = simulate(&topo, &SimParams::instant(), &tasks, &[]);
        assert!((r.makespan_s - 2.0).abs() < 1e-9, "{}", r.makespan_s);
        assert_eq!(r.data_local, 4);
    }

    #[test]
    fn limited_slots_serialize_work() {
        let topo = Topology::new(1, 1, 2);
        let tasks: Vec<MapTaskSim> = (0..4).map(|_| map_task(1.0, vec![0])).collect();
        let r = simulate(&topo, &SimParams::instant(), &tasks, &[]);
        // 4 tasks of 1 s on 2 slots = 2 s.
        assert!((r.makespan_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn more_chunks_faster_with_free_slots() {
        // The Table III effect: with slots to spare, halving the chunk
        // size (twice the tasks, each half as long) shortens the job
        // because the long tail shrinks.
        let topo = Topology::new(5, 1, 4); // 20 slots
        let coarse: Vec<MapTaskSim> = (0..24).map(|n| map_task(2.0, vec![n % 5])).collect();
        let fine: Vec<MapTaskSim> = (0..48).map(|n| map_task(1.0, vec![n % 5])).collect();
        let p = SimParams {
            task_startup_s: 0.05,
            ..SimParams::instant()
        };
        let rc = simulate(&topo, &p, &coarse, &[]);
        let rf = simulate(&topo, &p, &fine, &[]);
        assert!(
            rf.makespan_s < rc.makespan_s,
            "fine {} vs coarse {}",
            rf.makespan_s,
            rc.makespan_s
        );
    }

    #[test]
    fn locality_waterfall_prefers_local() {
        let topo = Topology::new(2, 2, 1); // 2 nodes, 2 racks
                                           // Both tasks' data on node 0; node 1's slot is equally free, so one
                                           // task must run remote (different rack).
        let tasks = vec![map_task(1.0, vec![0]), map_task(1.0, vec![0])];
        let r = simulate(&topo, &SimParams::instant(), &tasks, &[]);
        assert_eq!(r.data_local, 1);
        assert_eq!(r.remote, 1);
    }

    #[test]
    fn rack_local_counted() {
        let topo = Topology::new(4, 2, 1); // racks 0,1,0,1
                                           // Data on nodes 0 (rack 0) only; nodes 2 shares rack 0.
        let tasks = vec![
            map_task(1.0, vec![0]),
            map_task(1.0, vec![0]),
            map_task(1.0, vec![0]),
            map_task(1.0, vec![0]),
        ];
        let r = simulate(&topo, &SimParams::instant(), &tasks, &[]);
        assert_eq!(r.data_local + r.rack_local + r.remote, 4);
        assert!(r.rack_local >= 1, "{r:?}");
    }

    #[test]
    fn reducers_wait_for_map_phase() {
        let topo = Topology::new(2, 1, 2);
        let maps = vec![map_task(2.0, vec![0]), map_task(1.0, vec![1])];
        let reduces = vec![reduce_task(1.0, 0)];
        let r = simulate(&topo, &SimParams::instant(), &maps, &reduces);
        // map phase = 2 s, reduce = 1 s, strictly sequential phases.
        assert!((r.makespan_s - 3.0).abs() < 1e-9, "{}", r.makespan_s);
        assert!((r.map_phase_s - 2.0).abs() < 1e-9);
        assert!((r.reduce_phase_s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn shuffle_bytes_add_transfer_time() {
        let topo = Topology::new(2, 1, 1);
        let maps = vec![map_task(1.0, vec![0])];
        let mk = |bytes| {
            simulate(
                &topo,
                &SimParams {
                    net_mb_s: 100.0,
                    cross_rack_mb_s: 100.0,
                    ..SimParams::instant()
                },
                &maps,
                &[reduce_task(0.0, bytes)],
            )
        };
        let small = mk(0);
        let big = mk(1_000_000_000); // 1 GB over 100 MB/s, half remote
        assert!(big.makespan_s > small.makespan_s + 4.0);
        assert_eq!(big.shuffle_bytes, 1_000_000_000);
    }

    #[test]
    fn startup_overhead_reported_not_included() {
        let topo = Topology::parapluie();
        let r = simulate(
            &topo,
            &SimParams::parapluie(),
            &[map_task(0.1, vec![0])],
            &[],
        );
        assert!((r.cluster_startup_s - 25.0).abs() < 1e-9);
        // Cluster startup is reported separately, not in the makespan; the
        // makespan still carries the per-job overhead.
        let p = SimParams::parapluie();
        assert!(r.makespan_s >= p.job_overhead_s);
        assert!(r.makespan_s < p.job_overhead_s + p.cluster_startup_s);
    }

    #[test]
    fn speculative_execution_caps_straggler_damage() {
        let topo = Topology::new(4, 1, 2);
        let tasks: Vec<MapTaskSim> = (0..32).map(|n| map_task(1.0, vec![n % 4])).collect();
        let base = SimParams {
            straggler_prob: 0.25,
            straggler_slowdown: 10.0,
            speculative_execution: false,
            ..SimParams::instant()
        };
        let slow = simulate(&topo, &base, &tasks, &[]);
        let spec = simulate(
            &topo,
            &SimParams {
                speculative_execution: true,
                ..base
            },
            &tasks,
            &[],
        );
        assert!(slow.stragglers > 0, "{slow:?}");
        assert_eq!(slow.stragglers, spec.stragglers, "same injected stragglers");
        assert_eq!(spec.speculated, spec.stragglers);
        assert_eq!(slow.speculated, 0);
        assert!(
            spec.makespan_s < slow.makespan_s,
            "speculation should help: {} vs {}",
            spec.makespan_s,
            slow.makespan_s
        );
        // Without stragglers both match the clean schedule.
        let clean = simulate(&topo, &SimParams::instant(), &tasks, &[]);
        assert!(clean.makespan_s <= spec.makespan_s);
        assert_eq!(clean.stragglers, 0);
    }

    #[test]
    fn scheduling_decisions_recorded_with_locality_tags() {
        let topo = Topology::new(2, 2, 1); // 2 nodes, 2 racks
        let tasks = vec![map_task(1.0, vec![0]), map_task(1.0, vec![0])];
        let reduces = vec![reduce_task(1.0, 8)];
        let rec = Recorder::enabled();
        let params = SimParams::instant();
        simulate_chaos(
            &topo,
            &params,
            &ChaosPlan::none(),
            0.0,
            &tasks,
            &reduces,
            &rec,
        )
        .unwrap();
        let events = rec.events();
        let map_points: Vec<_> = events.iter().filter(|e| e.name == "sched.map").collect();
        assert_eq!(map_points.len(), 2);
        let localities: Vec<_> = map_points
            .iter()
            .filter_map(|e| e.label("locality"))
            .collect();
        assert!(localities.contains(&"data-local"), "{localities:?}");
        assert!(localities.contains(&"remote"), "{localities:?}");
        for p in &map_points {
            assert!(p.label("task").is_some() && p.label("node").is_some());
            assert!(p.value.unwrap() > 0.0);
        }
        assert_eq!(
            events.iter().filter(|e| e.name == "sched.reduce").count(),
            1
        );
    }

    #[test]
    fn cpu_scale_stretches_time() {
        let topo = Topology::new(1, 1, 1);
        let p = SimParams {
            cpu_scale: 10.0,
            ..SimParams::instant()
        };
        let r = simulate(&topo, &p, &[map_task(1.0, vec![0])], &[]);
        assert!((r.makespan_s - 10.0).abs() < 1e-9);
    }

    // ---- chaos-path tests ----

    /// 1 s per task regardless of host time: see [`SimParams::unit_time`].
    fn unit() -> SimParams {
        SimParams::unit_time()
    }

    fn unit_tasks(n: usize, nodes: usize) -> Vec<MapTaskSim> {
        (0..n)
            .map(|i| MapTaskSim {
                block: i as BlockId,
                replicas: vec![i % nodes, (i + 1) % nodes],
                ..map_task(5.0, vec![])
            })
            .collect()
    }

    #[test]
    fn failed_attempts_charge_virtual_time() {
        let topo = Topology::new(1, 1, 1);
        let mut task = map_task(0.0, vec![0]);
        task.failed_attempts = vec![0.5, 0.5];
        let clean = simulate(&topo, &unit(), &[map_task(0.0, vec![0])], &[]);
        let flaky = simulate(&topo, &unit(), &[task], &[]);
        // Each failed attempt burns the 1 s startup (body is 0 here).
        assert!((clean.makespan_s - 1.0).abs() < 1e-9);
        assert!(
            (flaky.makespan_s - 3.0).abs() < 1e-9,
            "{}",
            flaky.makespan_s
        );
        assert!((flaky.failed_attempt_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn reduce_failed_attempts_charge_too() {
        let topo = Topology::new(1, 1, 1);
        let maps = vec![map_task(0.0, vec![0])];
        let mut red = reduce_task(0.0, 0);
        red.failed_attempts = vec![0.0];
        let r = simulate(&topo, &unit(), &maps, &[red]);
        // 1 s map + 1 s failed reduce startup + 1 s good reduce.
        assert!((r.makespan_s - 3.0).abs() < 1e-9, "{}", r.makespan_s);
        assert!(r.failed_attempt_s > 0.0);
    }

    #[test]
    fn node_crash_invalidates_completed_maps_and_reexecutes() {
        let topo = Topology::new(2, 1, 1);
        // 4 unit tasks over 2 nodes ⇒ map barrier at 2 s without chaos.
        // Node 0 dies at t=2.5 s... but with reducers pushing the barrier
        // past it we instead crash it *during* the map phase tail: use 6
        // tasks (barrier at 3 s) and kill node 0 at 2.5 s — its completed
        // maps from t<2.5 are re-executed on node 1.
        let tasks: Vec<MapTaskSim> = (0..6)
            .map(|i| MapTaskSim {
                block: i as BlockId,
                replicas: vec![0, 1],
                ..map_task(0.0, vec![])
            })
            .collect();
        let chaos = ChaosPlan::none().crash_node(0, 2.5);
        let r = simulate_chaos(
            &topo,
            &unit(),
            &chaos,
            0.0,
            &tasks,
            &[],
            &Recorder::disabled(),
        )
        .unwrap();
        assert!(r.reexecuted_maps >= 2, "{r:?}");
        // All 6 tasks eventually completed on the surviving node only.
        let clean = simulate(&topo, &unit(), &tasks, &[]);
        assert!(r.makespan_s > clean.makespan_s, "{r:?} vs {clean:?}");
    }

    #[test]
    fn dead_replicas_fail_over_and_count() {
        let topo = Topology::new(3, 1, 1);
        // Task data on nodes 0 and 1; node 0 dead from the start.
        let mut task = map_task(0.0, vec![0, 1]);
        task.block = 7;
        let chaos = ChaosPlan::none().crash_node(0, 0.0);
        let r = simulate_chaos(
            &topo,
            &unit(),
            &chaos,
            0.0,
            &[task],
            &[],
            &Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(r.failed_over_reads, 1, "{r:?}");
    }

    #[test]
    fn corrupt_replicas_fail_over_and_count() {
        let topo = Topology::new(2, 1, 1);
        let mut task = map_task(0.0, vec![0, 1]);
        task.block = 3;
        let r = simulate_chaos(
            &topo,
            &unit(),
            &ChaosPlan::none().corrupt_replica(3, 0),
            0.0,
            &[task],
            &[],
            &Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(r.failed_over_reads, 1, "{r:?}");
    }

    #[test]
    fn unreadable_block_is_a_typed_error() {
        let topo = Topology::new(3, 1, 1);
        let mut task = map_task(0.0, vec![0, 1]);
        task.block = 9;
        let chaos = ChaosPlan::none().crash_node(0, 0.0).crash_node(1, 0.0);
        let err = simulate_chaos(
            &topo,
            &unit(),
            &chaos,
            0.0,
            &[task],
            &[],
            &Recorder::disabled(),
        )
        .unwrap_err();
        assert_eq!(err, SimError::UnreadableBlock(9));
    }

    #[test]
    fn all_nodes_dead_is_a_typed_error() {
        let topo = Topology::new(2, 1, 1);
        let chaos = ChaosPlan::none().crash_node(0, 0.0).crash_node(1, 0.0);
        let err = simulate_chaos(
            &topo,
            &unit(),
            &chaos,
            0.0,
            &unit_tasks(2, 2),
            &[],
            &Recorder::disabled(),
        )
        .unwrap_err();
        assert_eq!(err, SimError::NoLiveNodes);
    }

    #[test]
    fn repeated_failures_blacklist_a_node_but_never_the_last() {
        let topo = Topology::new(2, 1, 1);
        // Every task's injected failures would land rotation-fairly on
        // both nodes; give tasks enough failures to cross the threshold.
        let mut tasks = unit_tasks(4, 2);
        for t in &mut tasks {
            t.failed_attempts = vec![0.0, 0.0];
        }
        let chaos = ChaosPlan::none().blacklist_after(2);
        let r = simulate_chaos(
            &topo,
            &unit(),
            &chaos,
            0.0,
            &tasks,
            &[],
            &Recorder::disabled(),
        )
        .unwrap();
        // One node crosses the threshold and is blacklisted; the other
        // is the last usable node and must survive to finish the job.
        assert_eq!(r.blacklisted_nodes, 1, "{r:?}");
    }

    #[test]
    fn degraded_node_slows_its_tasks() {
        let topo = Topology::new(1, 1, 1);
        let task = map_task(1.0, vec![0]);
        let p = SimParams::instant();
        let clean = simulate(&topo, &p, std::slice::from_ref(&task), &[]);
        let slow = simulate_chaos(
            &topo,
            &p,
            &ChaosPlan::none().degrade_node(0, 0.0, 3.0),
            0.0,
            &[task],
            &[],
            &Recorder::disabled(),
        )
        .unwrap();
        assert!((clean.makespan_s - 1.0).abs() < 1e-9);
        assert!((slow.makespan_s - 3.0).abs() < 1e-9, "{}", slow.makespan_s);
    }

    #[test]
    fn start_offset_shifts_crash_times() {
        let topo = Topology::new(2, 1, 1);
        let tasks = unit_tasks(4, 2);
        // Crash at absolute t=1.0; a job starting at t=10 never sees it
        // as "mid-job" — the node is simply dead from its start.
        let chaos = ChaosPlan::none().crash_node(0, 1.0);
        let late = simulate_chaos(
            &topo,
            &unit(),
            &chaos,
            10.0,
            &tasks,
            &[],
            &Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(late.crash_killed_attempts, 0);
        assert_eq!(late.reexecuted_maps, 0);
        // Everything ran on node 1 ⇒ 4 s of serialized unit tasks.
        assert!((late.map_phase_s - 4.0).abs() < 1e-9, "{late:?}");
    }

    #[test]
    fn chaos_replay_is_deterministic() {
        let topo = Topology::new(3, 2, 2);
        let tasks = unit_tasks(12, 3);
        let chaos = || {
            ChaosPlan::none()
                .crash_node(1, 2.5)
                .degrade_node(2, 0.0, 2.0)
        };
        let a = simulate_chaos(
            &topo,
            &unit(),
            &chaos(),
            0.0,
            &tasks,
            &[reduce_task(0.0, 100)],
            &Recorder::disabled(),
        )
        .unwrap();
        let b = simulate_chaos(
            &topo,
            &unit(),
            &chaos(),
            0.0,
            &tasks,
            &[reduce_task(0.0, 100)],
            &Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(a, b);
    }
}
