//! The metric registry: every engine metric, declared once.
//!
//! One row per metric gives its dotted name (the key in job counters,
//! recorder aggregates and bench reports), its Prometheus family when
//! the live [`crate::Monitor`] exports it as a scalar, how it folds
//! across tasks, jobs and iterations, and its help text (the row
//! constant's documentation and the exposition's `# HELP` line). Job
//! counters, the Monitor's cells, the Prometheus exposition and the run
//! summary all read this table instead of naming metrics themselves.
//!
//! To add a metric, add one row: the constant, its fold in counters and
//! in the Monitor, and (with a family) its Prometheus lines follow.

/// How a metric folds across tasks, jobs and iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A running total: folds by addition.
    Sum,
    /// A high-water mark: folds by max.
    Max,
}

/// One registry row.
#[derive(Debug)]
pub struct Metric {
    /// Dotted name, e.g. `shuffle.spilled_bytes`.
    pub name: &'static str,
    /// Prometheus family the live exposition writes the row under, for
    /// the rows the Monitor exports.
    pub family: Option<&'static str>,
    /// Fold across tasks, jobs and iterations.
    pub kind: Kind,
    /// One-line description.
    pub help: &'static str,
}

macro_rules! metrics {
    ($($id:ident: $kind:ident, $name:literal, $family:tt, $help:literal;)*) => {
        $(
            #[doc = $help]
            pub const $id: &str = $name;
        )*
        /// Every row, in exposition order.
        pub const METRICS: &[Metric] = &[$(
            Metric { name: $id, family: metrics!(@family $family), kind: Kind::$kind, help: $help },
        )*];
    };
    (@family _) => { None };
    (@family $family:literal) => { Some($family) };
}

metrics! {
    JOBS_STARTED: Sum, "mapred.jobs.started", "gepeto_jobs_started_total",
        "Jobs that entered their run loop.";
    JOBS_FINISHED: Sum, "mapred.jobs.finished", "gepeto_jobs_finished_total",
        "Jobs whose stats were folded.";
    MAP_TASKS_SCHEDULED: Sum, "mapred.map.tasks.scheduled", "gepeto_map_tasks_total",
        "Map tasks scheduled.";
    MAP_TASKS_DONE: Sum, "mapred.map.tasks.done", "gepeto_map_tasks_done",
        "Map tasks completed.";
    REDUCE_TASKS_SCHEDULED: Sum, "mapred.reduce.tasks.scheduled", "gepeto_reduce_tasks_total",
        "Reduce tasks scheduled.";
    REDUCE_TASKS_DONE: Sum, "mapred.reduce.tasks.done", "gepeto_reduce_tasks_done",
        "Reduce tasks completed.";
    SHUFFLE_BYTES: Sum, "mapred.shuffle.bytes", "gepeto_shuffle_bytes_total",
        "Bytes shuffled between map and reduce.";
    TASK_RETRIES: Sum, "mapred.task.retries", "gepeto_task_retries_total",
        "Failure-injected task retries.";
    REEXECUTED_MAPS: Sum, "mapred.maps.reexecuted", "gepeto_reexecuted_maps_total",
        "Map tasks re-executed after output loss.";
    FAILED_OVER_READS: Sum, "dfs.reads.failed_over", "gepeto_failed_over_reads_total",
        "Block reads failed over to a replica.";
    BLACKLISTED_NODES: Sum, "mapred.nodes.blacklisted", "gepeto_blacklisted_nodes_total",
        "Nodes blacklisted by the failure policy.";
    CRASH_KILLED: Sum, "mapred.attempts.crash_killed", "gepeto_crash_killed_attempts_total",
        "Attempts killed mid-flight by node crashes.";
    DISTANCE_EVALS: Sum, "kernel.distance_evals", "gepeto_kernel_distance_evals_total",
        "Point-to-centroid distance evaluations in the clustering kernels.";
    SHUFFLE_BYTES_SAVED: Sum, "shuffle.bytes_saved", "gepeto_shuffle_bytes_saved_total",
        "Shuffle bytes avoided by compressed payload encodings.";
    SPILLED_BYTES: Sum, "shuffle.spilled_bytes", "gepeto_shuffle_spilled_bytes_total",
        "Intermediate bytes spilled to disk by memory-bounded shuffles.";
    SPILL_FILES: Sum, "shuffle.spill_files", "gepeto_shuffle_spill_files_total",
        "Sorted spill runs written to disk by memory-bounded map tasks.";
    IO_RETRIES: Sum, "io.retries", "gepeto_io_retries_total",
        "IO operations retried after transient storage faults.";
    TORN_WRITES: Sum, "io.torn_writes_detected", "gepeto_io_torn_writes_detected_total",
        "Torn (partial) writes caught by commit verification.";
    RUNS_QUARANTINED: Sum, "spill.runs_quarantined", "gepeto_spill_runs_quarantined_total",
        "Corrupt spill runs quarantined by verifying reads.";
    IO_STALL_MS: Sum, "io.stall_ms", "gepeto_io_stall_ms_total",
        "Virtual milliseconds stalled on storage faults and slow disks.";
    JOURNAL_REPLAYED: Sum, "journal.replayed_tasks", "gepeto_journal_replayed_tasks_total",
        "Reduce tasks replayed from committed artifacts on resume.";
    MEM_BUDGET_BYTES: Max, "mem.budget_bytes", _,
        "The configured per-task memory budget in bytes (absent when unbudgeted).";
    MEM_ACCOUNTED_PEAK: Max, "mem.accounted_peak", _,
        "Highest buffered intermediate size the engine's own accounting observed: \
         what the spill trigger compares against the budget.";
    MEM_PEAK_OVER_BUDGET: Max, "mem.peak_over_budget_bytes", _,
        "How far the accounted peak overshot the memory budget.";
    MEM_PEAK_BYTES: Max, "mem.peak_bytes", _,
        "Tracking-allocator peak live heap bytes over a job.";
    MEM_ALLOCATED_BYTES: Sum, "mem.allocated_bytes", _,
        "Tracking-allocator bytes allocated over a job.";
    MEM_ALLOCS: Sum, "mem.allocs", _,
        "Tracking-allocator allocation calls over a job (also a span's `mem.*` label).";
    SPILL_ESTIMATE_ERROR: Sum, "spill.estimate_error_bytes", _,
        "Absolute error between the estimated buffered size that triggered each spill \
         and the bytes its sealed run wrote.";
    MEM_LIVE_BYTES: Max, "mem.live_bytes", _,
        "Live heap bytes, sampled into the event stream as each phase span closes.";
    HOST_IDLE_MS: Sum, "host.idle_ms", _,
        "Milliseconds the host pool's executors spent not running tasks \
         (bench reports add it from their host block).";
}

/// The row index of `name`, if it is a registry metric.
pub(crate) fn position(name: &str) -> Option<usize> {
    METRICS.iter().position(|m| m.name == name)
}

/// How `name` folds: its row's kind, and [`Kind::Sum`] for any counter
/// outside the registry.
pub fn kind(name: &str) -> Kind {
    position(name).map_or(Kind::Sum, |i| METRICS[i].kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Monitor;

    #[test]
    fn names_and_families_are_unique_and_well_formed() {
        for (i, m) in METRICS.iter().enumerate() {
            assert!(!m.help.is_empty(), "{}: empty help", m.name);
            assert_eq!(position(m.name), Some(i), "{}: declared twice", m.name);
            let Some(family) = m.family else { continue };
            let mut chars = family.chars();
            let first = chars.next().expect("non-empty family");
            assert!(
                (first.is_ascii_alphabetic() || first == '_' || first == ':')
                    && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "{family}: not a Prometheus metric name"
            );
            let twins = METRICS.iter().filter(|o| o.family == Some(family));
            assert_eq!(twins.count(), 1, "{family}: exported twice");
        }
    }

    #[test]
    fn every_row_has_its_own_monitor_cell() {
        let m = Monitor::new();
        for (i, row) in METRICS.iter().enumerate() {
            m.add(row.name, i as u64);
            m.add(row.name, 1);
            m.max(row.name, 1);
        }
        let snap = m.snapshot();
        for (i, row) in METRICS.iter().enumerate() {
            assert_eq!(snap.get(row.name), i as u64 + 1, "{}", row.name);
        }
        // Counters outside the registry stay out of the Monitor.
        assert_eq!(kind("records.seen"), Kind::Sum);
        m.add("records.seen", 1);
        assert_eq!(m.snapshot().get("records.seen"), 0);
    }
}
