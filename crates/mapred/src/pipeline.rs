//! The statistics of multi-job pipelines.
//!
//! DJ-Cluster's preprocessing runs "two MapReduce jobs executed in
//! pipeline: the output of the first job constitutes the input of the
//! second one" (§VII-A), and k-means submits one job per iteration. This
//! module keeps the per-job statistics of such a chain together, in
//! execution order.

use crate::job::JobStats;

/// The statistics of a chain of jobs.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    stages: Vec<JobStats>,
}

impl PipelineReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one finished job.
    pub fn add(&mut self, stats: JobStats) {
        self.stages.push(stats);
    }

    /// The per-job statistics, in execution order.
    pub fn stages(&self) -> &[JobStats] {
        &self.stages
    }

    /// Number of jobs in the chain.
    pub fn num_jobs(&self) -> usize {
        self.stages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimReport;
    use std::collections::BTreeMap;
    use std::time::Duration;

    fn stats(name: &str) -> JobStats {
        JobStats {
            name: name.into(),
            map_tasks: 4,
            reduce_tasks: 1,
            real_elapsed: Duration::from_millis(10),
            sim: SimReport::default(),
            counters: BTreeMap::new(),
        }
    }

    #[test]
    fn empty_report() {
        let r = PipelineReport::new();
        assert_eq!(r.num_jobs(), 0);
        assert!(r.stages().is_empty());
    }

    #[test]
    fn keeps_jobs_in_execution_order() {
        let mut r = PipelineReport::new();
        r.add(stats("filter-moving"));
        r.add(stats("dedup"));
        assert_eq!(r.num_jobs(), 2);
        let names: Vec<&str> = r.stages().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["filter-moving", "dedup"]);
    }
}
