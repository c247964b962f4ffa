//! Deterministic fault injection for the virtual cluster.
//!
//! Hadoop's robustness story (§III of the paper: the jobtracker "monitors
//! tasks and handles failures", HDFS keeps 3 replicas of every chunk) only
//! matters when something actually fails. A [`ChaosPlan`] scripts those
//! failures against *virtual* cluster time, so every recovery path — replica
//! failover, map re-execution, node blacklisting, driver checkpoint/resume —
//! is exercised by ordinary unit tests and replays bit-identically on every
//! run. Task attempts die at random but reproducibly
//! ([`ChaosPlan::fail_tasks`]), and three event kinds are modeled:
//!
//! - **node crash** at virtual time `t`: the node stops accepting tasks,
//!   in-flight attempts are killed, its local map outputs and chunk
//!   replicas become unreadable;
//! - **replica corruption** of (block, node): that one datanode's copy of
//!   the chunk is damaged, so map tasks read another replica and the
//!   re-replication sweep drops it;
//! - **node degradation** from time `t`: the node keeps running but its
//!   compute slows by a factor (a failing disk / thermal-throttled CPU).
//!
//! The plan carries the cluster's shared **virtual clock**: each job run
//! advances it by the job's simulated makespan, so "crash node 2 at t=40 s"
//! lands mid-pipeline in exactly the same place every time.

use crate::dfs::BlockId;
use crate::hash::unit_hash;
use crate::topology::NodeId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One scripted failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosEvent {
    /// `node` dies (permanently) at virtual time `at_s`.
    CrashNode {
        /// The worker that crashes.
        node: NodeId,
        /// Virtual time of the crash, seconds since cluster start.
        at_s: f64,
    },
    /// The replica of `block` stored on `node` is silently corrupted
    /// (effective immediately; [`ChaosPlan::replica_readable`] excludes it).
    CorruptReplica {
        /// The damaged chunk.
        block: BlockId,
        /// The datanode whose copy is damaged.
        node: NodeId,
    },
    /// `node`'s compute slows by `slowdown`× from virtual time `at_s`.
    DegradeNode {
        /// The degraded worker.
        node: NodeId,
        /// Virtual time the degradation starts, seconds.
        at_s: f64,
        /// Multiplier applied to the node's compute time (≥ 1).
        slowdown: f64,
    },
}

/// One injected storage fault, as decided by an [`IoFaultPlan`] for a
/// particular (site, attempt) pair.
#[derive(Debug, Clone, PartialEq)]
pub enum IoFault {
    /// The write fails with a transient EIO; retrying the same site at a
    /// later attempt eventually succeeds.
    TransientEio,
    /// The disk is out of capacity for this payload (ENOSPC). Durable
    /// until bytes are released or the payload shrinks.
    DiskFull,
    /// The write is acknowledged but only the first `keep_bytes` of the
    /// full stream (payload + footer) actually reach the platter.
    TornWrite {
        /// Bytes of the full commit stream that survive.
        keep_bytes: usize,
    },
    /// The write lands intact, then one byte at `offset` within the
    /// payload flips at rest (silent media corruption).
    BitRot {
        /// Payload offset of the flipped byte.
        offset: usize,
    },
}

/// A deterministic storage-fault schedule injected beneath every file the
/// engine commits (spill runs, reduce artifacts; see
/// [`crate::commit::commit_bytes`]). Every decision is a pure function of
/// `(seed, kind, site, attempt)` through [`unit_hash`], so a run with the
/// same plan replays its faults bit-identically.
///
/// Faults are *guaranteed transient by construction*: torn writes and
/// bit-rot fire only on attempt 0 of a site (a verified rewrite always
/// heals), and transient EIOs stop firing once `attempt` reaches
/// `max_eio_streak`. ENOSPC is the exception — it models real capacity:
/// a write fails while `bytes_in_use + payload > disk_capacity`, and
/// succeeds once space is released or the caller shrinks its footprint
/// (e.g. by raising the spill budget so fewer bytes hit disk).
#[derive(Debug, Clone)]
pub struct IoFaultPlan {
    seed: u64,
    eio_prob: f64,
    max_eio_streak: u32,
    torn_prob: f64,
    bitrot_prob: f64,
    disk_capacity: Option<u64>,
    /// Extra virtual seconds charged per MiB written (slow disk).
    slow_s_per_mib: f64,
    bytes_in_use: Arc<AtomicU64>,
}

impl IoFaultPlan {
    /// A plan with every probability at zero; faults are opted into via
    /// the builder methods.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            eio_prob: 0.0,
            max_eio_streak: 2,
            torn_prob: 0.0,
            bitrot_prob: 0.0,
            disk_capacity: None,
            slow_s_per_mib: 0.0,
            bytes_in_use: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Probability that a given (site, attempt) write fails with a
    /// transient EIO (builder style; clamped to [0, 1]).
    pub fn eio(mut self, prob: f64) -> Self {
        self.eio_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Attempts past this index never draw an EIO, bounding every retry
    /// loop (builder style; min 1).
    pub fn eio_streak(mut self, max: u32) -> Self {
        self.max_eio_streak = max.max(1);
        self
    }

    /// Probability that a site's first write is torn (builder style).
    pub fn torn(mut self, prob: f64) -> Self {
        self.torn_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Probability that a site's first write bit-rots at rest
    /// (builder style).
    pub fn bitrot(mut self, prob: f64) -> Self {
        self.bitrot_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Caps the virtual disk at `bytes`; committed writes charge it and
    /// deletions release it (builder style).
    pub fn disk_capacity(mut self, bytes: u64) -> Self {
        self.disk_capacity = Some(bytes);
        self
    }

    /// Charges `secs_per_mib` virtual seconds per MiB written — a slow,
    /// failing disk (builder style).
    pub fn slow(mut self, secs_per_mib: f64) -> Self {
        self.slow_s_per_mib = secs_per_mib.max(0.0);
        self
    }

    fn roll(&self, kind: &str, site: &str, attempt: u32) -> f64 {
        unit_hash(&(self.seed, kind, site, attempt))
    }

    /// The fault (if any) injected into a commit of `payload_len` bytes
    /// at `site`, on retry number `attempt`. Precedence: disk-full, then
    /// torn write, then bit-rot (both first-attempt-only, so `torn(1.0)`
    /// deterministically tears every site's first write), then transient
    /// EIO.
    pub fn write_fault(&self, site: &str, attempt: u32, payload_len: usize) -> Option<IoFault> {
        if let Some(cap) = self.disk_capacity {
            let used = self.bytes_in_use.load(Ordering::Relaxed);
            if used.saturating_add(payload_len as u64) > cap {
                return Some(IoFault::DiskFull);
            }
        }
        if attempt == 0 && payload_len > 0 {
            if self.roll("torn", site, 0) < self.torn_prob {
                // Keep a hash-derived prefix of the full stream; the
                // footer is 24 bytes so anything short of full length
                // is structurally detectable.
                let keep = (self.roll("torn-len", site, 0) * payload_len as f64) as usize;
                return Some(IoFault::TornWrite { keep_bytes: keep });
            }
            if self.roll("rot", site, 0) < self.bitrot_prob {
                let offset = (self.roll("rot-off", site, 0) * payload_len as f64) as usize;
                return Some(IoFault::BitRot {
                    offset: offset.min(payload_len - 1),
                });
            }
        }
        if attempt < self.max_eio_streak && self.roll("w-eio", site, attempt) < self.eio_prob {
            return Some(IoFault::TransientEio);
        }
        None
    }

    /// Records `bytes` as committed to the virtual disk.
    pub fn charge(&self, bytes: u64) {
        self.bytes_in_use.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Releases `bytes` of virtual disk (file deleted or spill dir
    /// dropped).
    pub fn release(&self, bytes: u64) {
        let _ = self
            .bytes_in_use
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(bytes))
            });
    }

    /// Bytes currently charged against the virtual disk.
    pub fn bytes_in_use(&self) -> u64 {
        self.bytes_in_use.load(Ordering::Relaxed)
    }

    /// Virtual seconds a `bytes`-sized write costs on the (possibly
    /// slow) disk.
    pub fn slow_penalty_s(&self, bytes: u64) -> f64 {
        self.slow_s_per_mib * bytes as f64 / (1024.0 * 1024.0)
    }
}

/// A scripted, reproducible failure schedule plus the cluster's virtual
/// clock. Cloning shares the clock (all handles see the same timeline),
/// exactly like [`gepeto_telemetry::Recorder`] shares its event sink.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    events: Vec<ChaosEvent>,
    /// Failed attempts on one node before the jobtracker blacklists it
    /// (Hadoop's `mapred.max.tracker.failures`; default 3). The last
    /// live node is never blacklisted.
    blacklist_after: u32,
    /// The task-attempt failures of [`Self::fail_tasks`].
    map_fail_prob: f64,
    reduce_fail_prob: f64,
    task_seed: u64,
    pub(crate) max_task_attempts: u32,
    clock: Arc<Mutex<f64>>,
    io: Option<IoFaultPlan>,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl ChaosPlan {
    /// An empty plan: nothing ever fails (the clock still ticks).
    pub fn none() -> Self {
        Self {
            events: Vec::new(),
            blacklist_after: 3,
            map_fail_prob: 0.0,
            reduce_fail_prob: 0.0,
            task_seed: 0,
            max_task_attempts: 4,
            clock: Arc::new(Mutex::new(0.0)),
            io: None,
        }
    }

    /// Attaches a storage fault plan injected beneath the engine's
    /// committed writes (builder style).
    pub fn io_faults(mut self, plan: IoFaultPlan) -> Self {
        self.io = Some(plan);
        self
    }

    /// The attached storage fault plan, if any.
    pub fn io_plan(&self) -> Option<&IoFaultPlan> {
        self.io.as_ref()
    }

    /// Whether storage faults are being injected (fast path check; the
    /// verifying readers upgrade to deep checksum verification when
    /// this is true).
    pub fn io_active(&self) -> bool {
        self.io.is_some()
    }

    /// Adds a node crash at virtual time `at_s` (builder style).
    pub fn crash_node(mut self, node: NodeId, at_s: f64) -> Self {
        self.events.push(ChaosEvent::CrashNode { node, at_s });
        self
    }

    /// Adds a corrupted replica of `block` on `node` (builder style).
    pub fn corrupt_replica(mut self, block: BlockId, node: NodeId) -> Self {
        self.events.push(ChaosEvent::CorruptReplica { block, node });
        self
    }

    /// Degrades `node` by `slowdown`× from virtual time `at_s`
    /// (builder style). Slowdowns below 1 are clamped to 1.
    pub fn degrade_node(mut self, node: NodeId, at_s: f64, slowdown: f64) -> Self {
        self.events.push(ChaosEvent::DegradeNode {
            node,
            at_s,
            slowdown: slowdown.max(1.0),
        });
        self
    }

    /// Sets the blacklisting threshold (builder style; min 1).
    pub fn blacklist_after(mut self, attempts: u32) -> Self {
        self.blacklist_after = attempts.max(1);
        self
    }

    /// Fails task attempts: an attempt of a map task dies iff a fixed hash
    /// of `(job, phase, task, attempt, seed)` falls below `map_prob`
    /// (`reduce_prob` for a reduce task) — reproducible across runs, so
    /// tests can assert exact retry counts. The jobtracker reschedules a
    /// dead attempt until the task has died `max_attempts` times (Hadoop:
    /// 4), which fails the job (builder style; probabilities clamped to
    /// [0, 1], attempts min 1).
    pub fn fail_tasks(
        mut self,
        map_prob: f64,
        reduce_prob: f64,
        seed: u64,
        max_attempts: u32,
    ) -> Self {
        self.map_fail_prob = map_prob.clamp(0.0, 1.0);
        self.reduce_fail_prob = reduce_prob.clamp(0.0, 1.0);
        self.task_seed = seed;
        self.max_task_attempts = max_attempts.max(1);
        self
    }

    /// Whether attempt `attempt` (from 1) of `phase` task `task` of `job`
    /// dies under [`Self::fail_tasks`], and if so the fraction of its
    /// runtime it burned first: a hash of the attempt mapped into
    /// `[0.2, 0.95)`, a visible but partial share of the task body.
    pub(crate) fn attempt_dies(
        &self,
        job: &str,
        phase: &'static str,
        task: usize,
        attempt: u32,
    ) -> Option<f64> {
        let prob = match phase {
            crate::counters::phase::MAP => self.map_fail_prob,
            _ => self.reduce_fail_prob,
        };
        let seed = self.task_seed;
        (unit_hash(&(job, phase, task, attempt, seed)) < prob)
            .then(|| 0.2 + 0.75 * unit_hash(&(job, phase, task, attempt, seed, "runtime")))
    }

    /// The scripted events, in insertion order.
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// The blacklisting threshold.
    pub fn blacklist_threshold(&self) -> u32 {
        self.blacklist_after
    }

    /// Current virtual time, seconds since cluster start.
    pub fn now(&self) -> f64 {
        *self.clock.lock()
    }

    /// Advances the virtual clock by `secs` (each job run adds its
    /// simulated makespan; driver backoffs add their wait).
    pub fn advance(&self, secs: f64) {
        *self.clock.lock() += secs.max(0.0);
    }

    /// The virtual time at which `node` crashes, if it ever does (the
    /// earliest crash wins if several are scripted).
    pub fn crash_time(&self, node: NodeId) -> Option<f64> {
        self.events
            .iter()
            .filter_map(|e| match e {
                ChaosEvent::CrashNode { node: n, at_s } if *n == node => Some(*at_s),
                _ => None,
            })
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Whether `node` is dead at virtual time `at_s`.
    pub fn is_dead(&self, node: NodeId, at_s: f64) -> bool {
        self.crash_time(node).is_some_and(|t| t <= at_s)
    }

    /// Whether the replica of `block` on `node` is corrupted.
    pub fn is_corrupted(&self, block: BlockId, node: NodeId) -> bool {
        self.events.iter().any(|e| {
            matches!(e, ChaosEvent::CorruptReplica { block: b, node: n }
                     if *b == block && *n == node)
        })
    }

    /// Whether the replica of `block` on `node` can be read at virtual
    /// time `at_s`: its datanode is alive and its copy is not corrupt.
    /// The one rule behind map-input failover and re-replication.
    pub fn replica_readable(&self, block: BlockId, node: NodeId, at_s: f64) -> bool {
        !self.is_dead(node, at_s) && !self.is_corrupted(block, node)
    }

    /// Compute slowdown factor of `node` at virtual time `at_s` (the
    /// largest active degradation; 1.0 when healthy).
    pub fn slowdown(&self, node: NodeId, at_s: f64) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                ChaosEvent::DegradeNode {
                    node: n,
                    at_s: t,
                    slowdown,
                } if *n == node && *t <= at_s => Some(*slowdown),
                _ => None,
            })
            .fold(1.0f64, f64::max)
    }

    /// Nodes of a `num_nodes`-worker cluster still alive at `at_s`.
    pub fn live_nodes(&self, num_nodes: usize, at_s: f64) -> Vec<NodeId> {
        (0..num_nodes).filter(|&n| !self.is_dead(n, at_s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let p = ChaosPlan::none();
        assert!(p.events().is_empty());
        assert!(!p.is_dead(0, 1e9));
        assert!(!p.is_corrupted(42, 0));
        assert_eq!(p.slowdown(0, 1e9), 1.0);
        assert_eq!(p.crash_time(3), None);
        assert_eq!(p.live_nodes(4, 100.0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn crash_takes_effect_at_its_time() {
        let p = ChaosPlan::none().crash_node(2, 40.0);
        assert!(!p.is_dead(2, 39.9));
        assert!(p.is_dead(2, 40.0));
        assert!(p.is_dead(2, 1e9));
        assert!(!p.is_dead(1, 1e9));
        assert_eq!(p.crash_time(2), Some(40.0));
        assert_eq!(p.live_nodes(4, 50.0), vec![0, 1, 3]);
    }

    #[test]
    fn earliest_crash_wins() {
        let p = ChaosPlan::none().crash_node(1, 80.0).crash_node(1, 30.0);
        assert_eq!(p.crash_time(1), Some(30.0));
    }

    #[test]
    fn corruption_is_per_replica() {
        let p = ChaosPlan::none().corrupt_replica(7, 1);
        assert!(p.is_corrupted(7, 1));
        assert!(!p.is_corrupted(7, 0));
        assert!(!p.is_corrupted(8, 1));
    }

    #[test]
    fn degradation_starts_at_its_time_and_clamps() {
        let p = ChaosPlan::none()
            .degrade_node(0, 10.0, 4.0)
            .degrade_node(0, 20.0, 0.5); // clamped to 1.0
        assert_eq!(p.slowdown(0, 5.0), 1.0);
        assert_eq!(p.slowdown(0, 15.0), 4.0);
        assert_eq!(p.slowdown(0, 25.0), 4.0); // max of active factors
    }

    #[test]
    fn clock_is_shared_across_clones() {
        let p = ChaosPlan::none().crash_node(0, 100.0);
        let q = p.clone();
        p.advance(60.0);
        assert_eq!(q.now(), 60.0);
        q.advance(-5.0); // negative advances ignored
        assert_eq!(p.now(), 60.0);
    }

    #[test]
    fn io_faults_are_deterministic_and_transient() {
        let p = IoFaultPlan::new(7).eio(0.5).torn(0.5).bitrot(0.5);
        // Same (site, attempt) always draws the same fault.
        for site in ["run-0", "run-1", "chunk-3"] {
            assert_eq!(p.write_fault(site, 0, 1000), p.write_fault(site, 0, 1000));
        }
        // Past the EIO streak and attempt 0, nothing fires.
        for site in ["a", "b", "c", "d", "e"] {
            assert_eq!(p.write_fault(site, 2, 1000), None);
        }
        // Torn keeps strictly fewer bytes than the payload.
        let mut saw_torn = false;
        for i in 0..64 {
            let site = format!("s{i}");
            if let Some(IoFault::TornWrite { keep_bytes }) = p.write_fault(&site, 0, 1000) {
                assert!(keep_bytes < 1000);
                saw_torn = true;
            }
        }
        assert!(saw_torn, "expected at least one torn write at p=0.5");
    }

    #[test]
    fn disk_capacity_charges_and_releases() {
        let p = IoFaultPlan::new(0).disk_capacity(1000);
        assert_eq!(p.write_fault("x", 0, 800), None);
        p.charge(800);
        assert_eq!(p.write_fault("y", 0, 300), Some(IoFault::DiskFull));
        p.release(600);
        assert_eq!(p.bytes_in_use(), 200);
        assert_eq!(p.write_fault("y", 1, 300), None);
    }

    #[test]
    fn io_plan_rides_the_chaos_plan() {
        let c = ChaosPlan::none();
        assert!(!c.io_active());
        let c = c.io_faults(IoFaultPlan::new(1).slow(2.0));
        assert!(c.io_active());
        assert!(c.events().is_empty(), "io faults do not imply node chaos");
        let penalty = c.io_plan().unwrap().slow_penalty_s(1024 * 1024);
        assert!((penalty - 2.0).abs() < 1e-9);
    }

    #[test]
    fn blacklist_threshold_floor() {
        assert_eq!(
            ChaosPlan::none().blacklist_after(0).blacklist_threshold(),
            1
        );
        assert_eq!(ChaosPlan::none().blacklist_threshold(), 3);
    }
}
