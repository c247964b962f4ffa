//! The execution context: everything about *how* a job is run that is
//! not the algorithm's business.
//!
//! The paper's drivers have one loop per algorithm and let the
//! environment — Hadoop's `JobConf`, the jobtracker's retries, HDFS —
//! decide how each job executes. [`ExecCtx`] is that environment here:
//! a driver takes `(&ExecCtx, dfs, input, cfg…)`, hands every job it
//! builds to [`ExecCtx::submit`], and neither knows nor cares whether
//! the run is traced, retried, journaled or memory-bounded.
//!
//! [`ExecCtx::submit`] is the engine's one recovery entry point — what a
//! driver does when an *entire* job dies (every replica of a chunk
//! unreadable, a task out of attempts, the disk full). The jobtracker
//! already retries individual task attempts; this is the layer above it.
//! Iterative drivers keep their loop state outside the job, so a failed
//! job costs one attempt, not the whole computation. Between attempts
//! `submit`:
//!
//! 1. re-replicates under-replicated DFS blocks onto surviving nodes
//!    ([`Dfs::rereplicate`]), the namenode's reaction to a datanode
//!    death — when it holds the DFS exclusively (see [`DfsAccess`]);
//! 2. advances the shared virtual clock by an exponential backoff, so
//!    recovery time shows up in the replayed makespan;
//! 3. re-submits under the name `{base}.r{attempt}` — a distinct job
//!    name, so deterministic failure injection re-rolls its per-attempt
//!    coin flips exactly like a real resubmission would. Attempt 0 keeps
//!    the bare name, so a run that never fails is byte-identical under
//!    any [`RetryPolicy`].
//!
//! Storage failures ([`JobError::is_storage`]) draw from the policy's
//! separate `io_retries` budget, and every ENOSPC grows the memory
//! budget the next attempt is handed — a larger budget spills fewer
//! bytes (graceful degradation: trade RAM for disk).

use crate::dfs::Dfs;
use crate::job::JobError;
use crate::journal::RunJournal;
use crate::recover::RetryPolicy;
use crate::topology::Cluster;
use gepeto_telemetry::Recorder;
use std::sync::Arc;

/// How a driver's jobs are executed. `ExecCtx::new(&cluster)` is the
/// plain run: untraced, fail-fast, unjournaled, all in memory; set
/// fields with struct-update syntax to change that:
///
/// ```
/// use gepeto_mapred::{Cluster, ExecCtx, RetryPolicy};
///
/// let cluster = Cluster::local(3, 2);
/// let ctx = ExecCtx {
///     retry: RetryPolicy::default(),
///     memory_budget: Some(64 << 20),
///     ..ExecCtx::new(&cluster)
/// };
/// assert!(ctx.journal.is_none());
/// ```
///
/// What stays in [`Cluster`]: the topology, the virtual-time model and
/// the fault plan ([`crate::ChaosPlan`], with its task-attempt failures,
/// its [`crate::IoFaultPlan`] and the shared virtual clock) — properties
/// of the machines, not of one run on them.
pub struct ExecCtx<'a> {
    /// The cluster every job of the run is scheduled on.
    pub cluster: &'a Cluster,
    /// Where spans, points and counters go (disabled = no-ops).
    pub telemetry: Recorder,
    /// Whole-job retry budgets and backoff ([`RetryPolicy::none`] =
    /// the first [`JobError`] is final).
    pub retry: RetryPolicy,
    /// Write-ahead run journal: jobs that carry an output codec commit
    /// their reduce partitions into its run directory and replay them
    /// on resume.
    pub journal: Option<Arc<RunJournal>>,
    /// Shuffle memory budget in bytes per reduce partition: jobs that
    /// carry a shuffle codec spill sorted runs to disk past it. `None`
    /// keeps every shuffle in memory.
    pub memory_budget: Option<usize>,
}

impl<'a> ExecCtx<'a> {
    /// The plain run on `cluster`.
    pub fn new(cluster: &'a Cluster) -> Self {
        Self {
            cluster,
            telemetry: Recorder::disabled(),
            retry: RetryPolicy::none(),
            journal: None,
            memory_budget: None,
        }
    }

    /// This context recording into `telemetry` (builder style).
    pub fn traced(mut self, telemetry: &Recorder) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    /// Runs `run` until it succeeds or the retry budget is spent.
    ///
    /// `run` receives the attempt's job name (`base_name`, then
    /// `{base_name}.r1`, `.r2`, …), the DFS, and the memory budget this
    /// attempt should give its shuffle (see [`crate::MapReduceJob::exec`]):
    /// [`Self::memory_budget`], grown by
    /// the policy's ENOSPC factor once per disk-full failure so far.
    /// Returns the successful value with the number of re-submissions it
    /// took (0 = first attempt succeeded).
    ///
    /// A failure that is not storage-classified draws on
    /// `retry.max_job_retries`, heals the DFS (exclusive access only) and
    /// charges `retry.backoff_s` (× `backoff_factor` per failure) to the
    /// virtual clock; a storage failure draws on `retry.io_retries` and
    /// charges `retry.io_backoff_s` (doubling).
    ///
    /// # Errors
    /// The last [`JobError`], unchanged, once the relevant budget is
    /// exhausted.
    pub fn submit<'d, V: Clone + 'd, T>(
        &self,
        base_name: &str,
        dfs: impl Into<DfsAccess<'d, V>>,
        mut run: impl FnMut(&str, &Dfs<V>, Option<usize>) -> Result<T, JobError>,
    ) -> Result<(T, u32), JobError> {
        let mut dfs = dfs.into();
        let chaos = &self.cluster.chaos;
        let mut backoff = self.retry.backoff_s;
        let mut io_backoff = self.retry.io_backoff_s;
        let (mut job_fails, mut io_fails, mut enospc_fails) = (0u32, 0u32, 0u32);
        let mut attempt = 0u32;
        loop {
            let job_name = if attempt == 0 {
                base_name.to_string()
            } else {
                format!("{base_name}.r{attempt}")
            };
            let budget = self.retry.scaled_budget(self.memory_budget, enospc_fails);
            let err = match run(&job_name, &dfs, budget) {
                Ok(value) => return Ok((value, attempt)),
                Err(err) => err,
            };
            let storage = err.is_storage();
            let budget_left = if storage {
                io_fails + enospc_fails < self.retry.io_retries
            } else {
                job_fails < self.retry.max_job_retries
            };
            if !budget_left {
                return Err(err);
            }
            self.telemetry.point(
                if storage {
                    "driver.io_retry"
                } else {
                    "driver.retry"
                },
                (attempt + 1) as f64,
                &[("job", base_name), ("error", &err.to_string())],
            );
            if storage {
                if matches!(err, JobError::DiskFull(_)) {
                    enospc_fails += 1;
                } else {
                    io_fails += 1;
                }
                chaos.advance(io_backoff);
                io_backoff *= 2.0;
            } else {
                job_fails += 1;
                if let DfsAccess::Exclusive(dfs) = &mut dfs {
                    let report = dfs.rereplicate(chaos);
                    if report.new_replicas > 0 || !report.lost_blocks.is_empty() {
                        self.telemetry.point(
                            "driver.rereplicated",
                            report.new_replicas as f64,
                            &[
                                ("job", base_name),
                                ("lost_blocks", &report.lost_blocks.len().to_string()),
                            ],
                        );
                    }
                }
                chaos.advance(backoff);
                backoff *= self.retry.backoff_factor.max(0.0);
            }
            attempt += 1;
        }
    }
}

/// How a driver holds the DFS: shared (`&Dfs`, all a job needs) or
/// exclusive (`&mut Dfs`, which additionally lets [`ExecCtx::submit`]
/// re-replicate blocks between attempts). One driver serves both kinds
/// of caller by taking `impl Into<DfsAccess>`; pass `&mut dfs` whenever
/// the context retries on a cluster that loses nodes.
pub enum DfsAccess<'a, V> {
    /// Read-only: failed attempts are retried without healing.
    Shared(&'a Dfs<V>),
    /// Read-write: failed attempts heal the DFS before the next one.
    Exclusive(&'a mut Dfs<V>),
}

impl<V> std::ops::Deref for DfsAccess<'_, V> {
    type Target = Dfs<V>;

    fn deref(&self) -> &Dfs<V> {
        match self {
            Self::Shared(dfs) => dfs,
            Self::Exclusive(dfs) => dfs,
        }
    }
}

impl<'a, V> From<&'a Dfs<V>> for DfsAccess<'a, V> {
    fn from(dfs: &'a Dfs<V>) -> Self {
        Self::Shared(dfs)
    }
}

impl<'a, V> From<&'a mut Dfs<V>> for DfsAccess<'a, V> {
    fn from(dfs: &'a mut Dfs<V>) -> Self {
        Self::Exclusive(dfs)
    }
}

/// Re-borrows an access for one call, so a driver that submits several
/// jobs (or calls another driver) keeps its own.
impl<'a, V> From<&'a mut DfsAccess<'_, V>> for DfsAccess<'a, V> {
    fn from(access: &'a mut DfsAccess<'_, V>) -> Self {
        match access {
            DfsAccess::Shared(dfs) => Self::Shared(dfs),
            DfsAccess::Exclusive(dfs) => Self::Exclusive(dfs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosPlan;
    use crate::dfs::DfsError;

    fn tiny_dfs(cluster: &Cluster) -> Dfs<u64> {
        let mut dfs = Dfs::new(cluster.topology.clone(), 64, 2);
        dfs.put_fixed("f", (0..32u64).collect(), 8).unwrap();
        dfs
    }

    fn retrying(cluster: &Cluster, retry: RetryPolicy) -> ExecCtx<'_> {
        ExecCtx {
            retry,
            ..ExecCtx::new(cluster)
        }
    }

    /// Submits a job that dies `deaths` times with `ClusterDead`, then
    /// succeeds; returns the names it ran under.
    fn names_after_deaths(ctx: &ExecCtx<'_>, deaths: usize) -> Result<Vec<String>, JobError> {
        let mut dfs = tiny_dfs(ctx.cluster);
        let mut names = Vec::new();
        let (_, retries) = ctx.submit("job", &mut dfs, |name, _, _| {
            names.push(name.to_string());
            if names.len() <= deaths {
                Err(JobError::ClusterDead)
            } else {
                Ok(())
            }
        })?;
        assert_eq!(retries as usize, deaths);
        Ok(names)
    }

    #[test]
    fn attempts_are_named_counted_and_backed_off_on_the_virtual_clock() {
        let chaos = ChaosPlan::none();
        let cluster = Cluster::local(2, 2).with_chaos(chaos.clone());
        let ctx = retrying(&cluster, RetryPolicy::default()); // 5s backoff, ×2
                                                              // A first-attempt success keeps the bare name and costs no time.
        assert_eq!(names_after_deaths(&ctx, 0).unwrap(), ["job"]);
        assert_eq!(chaos.now(), 0.0);
        let names = names_after_deaths(&ctx, 2).unwrap();
        assert_eq!(names, ["job", "job.r1", "job.r2"]);
        // Two failed attempts: 5s + 10s of backoff on the shared clock.
        assert!((chaos.now() - 15.0).abs() < 1e-9, "clock: {}", chaos.now());
    }

    #[test]
    fn an_exhausted_or_absent_budget_returns_the_last_error_unchanged() {
        let cluster = Cluster::local(2, 2);
        let ctx = retrying(&cluster, RetryPolicy::default().retries(1));
        let err = ctx
            .submit("job", &tiny_dfs(&cluster), |_, _, _| -> Result<(), _> {
                Err(JobError::Dfs(DfsError::AllReplicasLost(7)))
            })
            .unwrap_err();
        assert_eq!(err, JobError::Dfs(DfsError::AllReplicasLost(7)));
        // The plain context fails fast.
        let err = names_after_deaths(&ExecCtx::new(&cluster), 1).unwrap_err();
        assert_eq!(err, JobError::ClusterDead);
    }

    #[test]
    fn storage_failures_draw_their_own_budget_and_grow_the_memory_budget() {
        let chaos = ChaosPlan::none();
        let cluster = Cluster::local(2, 2).with_chaos(chaos.clone());
        let ctx = ExecCtx {
            memory_budget: Some(1000),
            ..retrying(&cluster, RetryPolicy::default().retries(0).io_retries(3))
        };
        let mut budgets = Vec::new();
        let (_, retries) = ctx
            .submit("job", &tiny_dfs(&cluster), |_, _, budget| {
                budgets.push(budget);
                match budgets.len() {
                    1 => Err(JobError::DiskFull("spill: no room".into())),
                    2 => Err(JobError::Io("transient EIO persisted".into())),
                    3 => Err(JobError::DiskFull("still tight".into())),
                    _ => Ok(()),
                }
            })
            .unwrap();
        assert_eq!(retries, 3, "three storage failures absorbed");
        // ENOSPC failures double the handed-out budget; plain IO does not.
        assert_eq!(budgets, [Some(1000), Some(2000), Some(2000), Some(4000)]);
        // IO backoff: 1 + 2 + 4 virtual seconds.
        assert!((chaos.now() - 7.0).abs() < 1e-9, "clock: {}", chaos.now());
    }

    #[test]
    fn storage_budget_exhaustion_returns_the_storage_error() {
        let cluster = Cluster::local(2, 2);
        let ctx = retrying(&cluster, RetryPolicy::default().retries(5).io_retries(1));
        let mut calls = 0;
        let err = ctx
            .submit("job", &tiny_dfs(&cluster), |_, _, _| -> Result<(), _> {
                calls += 1;
                Err(JobError::DiskFull("full".into()))
            })
            .unwrap_err();
        assert!(matches!(err, JobError::DiskFull(_)));
        assert_eq!(calls, 2, "io budget, not the job budget, applies");
    }

    /// Node 0 dies immediately; every block it held is under-replicated
    /// until `rereplicate` copies it onto a survivor — which only an
    /// exclusive borrow lets `submit` do before the second attempt.
    #[test]
    fn failed_attempts_heal_the_dfs_only_under_exclusive_access() {
        for exclusive in [true, false] {
            let chaos = ChaosPlan::none().crash_node(0, 0.0);
            let cluster = Cluster::local(3, 2).with_chaos(chaos.clone());
            let mut dfs = tiny_dfs(&cluster);
            let ctx =
                retrying(&cluster, RetryPolicy::default().retries(1)).traced(&Recorder::enabled());
            let access = if exclusive {
                DfsAccess::from(&mut dfs)
            } else {
                DfsAccess::from(&dfs)
            };
            let mut healed = None;
            ctx.submit("job", access, |_, dfs, _| {
                if healed.is_none() {
                    healed = Some(false);
                    return Err(JobError::ClusterDead);
                }
                healed = Some(dfs.blocks_of("f").unwrap().iter().all(|&id| {
                    let replicas = dfs.block(id).replicas.iter();
                    replicas
                        .filter(|&&n| chaos.replica_readable(id, n, chaos.now()))
                        .count()
                        == 2
                }));
                Ok(())
            })
            .unwrap();
            assert_eq!(healed, Some(exclusive));
            let events = ctx.telemetry.events();
            assert_eq!(
                events.iter().filter(|e| e.name == "driver.retry").count(),
                1
            );
        }
    }
}
