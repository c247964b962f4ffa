//! Hadoop-style job counters: named `u64` accumulators that tasks bump
//! concurrently and the driver reads after the job completes.

use gepeto_telemetry::registry::{self, Kind};
use gepeto_telemetry::Monitor;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Phase names used in failure hashing, error reporting and telemetry
/// labels. Shared constants so the jobtracker, the simulator and the
/// telemetry layer can never drift apart on a typo.
pub mod phase {
    /// The map phase.
    pub const MAP: &str = "map";
    /// The reduce phase.
    pub const REDUCE: &str = "reduce";
}

/// Built-in counter names used by the engine itself: the Hadoop record
/// counters, plus the engine metrics of the telemetry registry
/// ([`gepeto_telemetry::registry`]) under the names callers know them by.
pub mod builtin {
    pub use gepeto_telemetry::registry::{
        BLACKLISTED_NODES, DISTANCE_EVALS, FAILED_OVER_READS, IO_RETRIES, IO_STALL_MS,
        JOURNAL_REPLAYED, MEM_ACCOUNTED_PEAK, MEM_ALLOCATED_BYTES, MEM_ALLOCS, MEM_BUDGET_BYTES,
        MEM_PEAK_BYTES, MEM_PEAK_OVER_BUDGET, REEXECUTED_MAPS, RUNS_QUARANTINED, SHUFFLE_BYTES,
        SHUFFLE_BYTES_SAVED, SORT_SKIPPED, SPILLED_BYTES, SPILLED_GROUPS, SPILL_ESTIMATE_ERROR,
        SPILL_FILES, TASK_RETRIES, TORN_WRITES,
    };
    /// Intermediate pairs written out by map tasks — what Hadoop would
    /// spill to local disk for the shuffle.
    pub const SPILLED_RECORDS: &str = "mapred.spilled.records";
    /// Records read by all map tasks.
    pub const MAP_INPUT_RECORDS: &str = "mapred.map.input.records";
    /// Pairs emitted by all map tasks.
    pub const MAP_OUTPUT_RECORDS: &str = "mapred.map.output.records";
    /// Distinct keys presented to reduce calls.
    pub const REDUCE_INPUT_GROUPS: &str = "mapred.reduce.input.groups";
    /// Pairs consumed by all reduce tasks.
    pub const REDUCE_INPUT_RECORDS: &str = "mapred.reduce.input.records";
    /// Pairs emitted by all reduce tasks.
    pub const REDUCE_OUTPUT_RECORDS: &str = "mapred.reduce.output.records";
}

/// A concurrent set of named counters. Cloning shares the underlying
/// storage (it is an `Arc` internally), matching how every task of a job
/// reports into the same jobtracker-side counters.
///
/// A set built with [`Counters::live`] also folds every bump of a
/// registry metric into the run's live [`Monitor`], so the monitor and
/// the job's counters are fed by the same call.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    inner: Arc<Mutex<BTreeMap<String, u64>>>,
    monitor: Option<Arc<Monitor>>,
}

impl Counters {
    /// A fresh, empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh, empty counter set that also updates `monitor`, when
    /// there is one.
    pub fn live(monitor: Option<Arc<Monitor>>) -> Self {
        Self {
            monitor,
            ..Self::default()
        }
    }

    /// Adds `delta` to counter `name` (creating it at zero).
    pub fn inc(&self, name: &str, delta: u64) {
        let mut map = self.inner.lock();
        *map.entry(name.to_string()).or_insert(0) += delta;
        drop(map);
        if let Some(m) = &self.monitor {
            m.add(name, delta);
        }
    }

    /// Raises counter `name` to `value` if it is currently lower — the
    /// fold for [`Kind::Max`] high-water marks.
    pub fn set_max(&self, name: &str, value: u64) {
        let mut map = self.inner.lock();
        let entry = map.entry(name.to_string()).or_insert(0);
        *entry = (*entry).max(value);
        drop(map);
        if let Some(m) = &self.monitor {
            m.max(name, value);
        }
    }

    /// Current value of `name` (0 when never incremented).
    pub fn get(&self, name: &str) -> u64 {
        self.inner.lock().get(name).copied().unwrap_or(0)
    }

    /// Snapshot of all counters in name order.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        self.inner.lock().clone()
    }

    /// Merges another counter set into this one: [`Kind::Max`] rows of
    /// the registry fold by max, everything else by addition. The other
    /// set's bumps already reached its own monitor, so this one's is left
    /// alone.
    pub fn merge(&self, other: &Counters) {
        let other_snapshot = other.snapshot();
        let mut map = self.inner.lock();
        for (k, v) in other_snapshot {
            let kind = registry::kind(&k);
            let entry = map.entry(k).or_insert(0);
            match kind {
                Kind::Max => *entry = (*entry).max(v),
                Kind::Sum => *entry += v,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn inc_and_get() {
        let c = Counters::new();
        c.inc("records", 3);
        c.inc("records", 4);
        assert_eq!(c.get("records"), 7);
        assert_eq!(c.get("missing"), 0);
    }

    #[test]
    fn clones_share_storage() {
        let c = Counters::new();
        let c2 = c.clone();
        c2.inc("x", 5);
        assert_eq!(c.get("x"), 5);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let c = Counters::new();
        thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc("n", 1);
                    }
                });
            }
        });
        assert_eq!(c.get("n"), 8000);
    }

    #[test]
    fn merge_adds() {
        let a = Counters::new();
        a.inc("x", 1);
        a.inc("y", 2);
        let b = Counters::new();
        b.inc("y", 3);
        b.inc("z", 4);
        a.merge(&b);
        let snap = a.snapshot();
        assert_eq!(snap["x"], 1);
        assert_eq!(snap["y"], 5);
        assert_eq!(snap["z"], 4);
    }

    #[test]
    fn names_the_frozen_benchmark_reads_are_unchanged() {
        assert_eq!(builtin::MAP_OUTPUT_RECORDS, "mapred.map.output.records");
        assert_eq!(builtin::SPILLED_BYTES, "shuffle.spilled_bytes");
        assert_eq!(builtin::SPILL_FILES, "shuffle.spill_files");
        assert_eq!(builtin::MEM_ACCOUNTED_PEAK, "mem.accounted_peak");
        assert_eq!(builtin::DISTANCE_EVALS, "kernel.distance_evals");
        assert_eq!(builtin::SHUFFLE_BYTES_SAVED, "shuffle.bytes_saved");
    }

    #[test]
    fn high_water_counters_fold_by_max() {
        let a = Counters::new();
        a.set_max(builtin::MEM_ACCOUNTED_PEAK, 100);
        a.set_max(builtin::MEM_ACCOUNTED_PEAK, 40);
        assert_eq!(a.get(builtin::MEM_ACCOUNTED_PEAK), 100);
        a.set_max(builtin::MEM_ACCOUNTED_PEAK, 250);
        assert_eq!(a.get(builtin::MEM_ACCOUNTED_PEAK), 250);
        // merge keeps the larger watermark instead of summing.
        let b = Counters::new();
        b.set_max(builtin::MEM_ACCOUNTED_PEAK, 120);
        b.inc("x", 7);
        a.merge(&b);
        assert_eq!(a.get(builtin::MEM_ACCOUNTED_PEAK), 250);
        assert_eq!(a.get("x"), 7);
    }
}
