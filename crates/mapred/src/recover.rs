//! Driver-level retry policy: how hard [`crate::ExecCtx::submit`] tries
//! to keep a job alive across whole-job failures.

/// How hard a driver tries to keep a job alive across whole-job
/// failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Re-submissions after the first attempt (0 = fail fast).
    pub max_job_retries: u32,
    /// Virtual seconds charged before the first re-submission.
    pub backoff_s: f64,
    /// Multiplier applied to the backoff after each failed attempt.
    pub backoff_factor: f64,
    /// Extra re-submissions reserved for storage failures
    /// ([`JobError::Io`] / [`JobError::DiskFull`]) — these draw from
    /// their own budget so a flaky disk does not eat the node-failure
    /// budget.
    pub io_retries: u32,
    /// Virtual seconds charged before an IO re-submission (doubles per
    /// IO failure).
    pub io_backoff_s: f64,
    /// How much the advised memory budget *grows* after each ENOSPC —
    /// a larger budget spills fewer bytes, shrinking the disk
    /// footprint (graceful degradation: trade RAM for disk).
    pub enospc_budget_factor: f64,
}

impl RetryPolicy {
    /// No retries: the first [`JobError`] is final.
    pub fn none() -> Self {
        Self {
            max_job_retries: 0,
            backoff_s: 0.0,
            backoff_factor: 1.0,
            io_retries: 0,
            io_backoff_s: 0.0,
            enospc_budget_factor: 1.0,
        }
    }

    /// Sets the retry budget.
    pub fn retries(mut self, n: u32) -> Self {
        self.max_job_retries = n;
        self
    }

    /// Sets the initial virtual-time backoff in seconds.
    pub fn backoff(mut self, secs: f64) -> Self {
        self.backoff_s = secs.max(0.0);
        self
    }

    /// Sets the storage-failure retry budget (builder style).
    pub fn io_retries(mut self, n: u32) -> Self {
        self.io_retries = n;
        self
    }

    /// Sets the initial IO backoff in virtual seconds (builder style).
    pub fn io_backoff(mut self, secs: f64) -> Self {
        self.io_backoff_s = secs.max(0.0);
        self
    }

    /// Sets the ENOSPC budget growth factor (builder style; min 1).
    pub fn enospc_factor(mut self, factor: f64) -> Self {
        self.enospc_budget_factor = factor.max(1.0);
        self
    }

    /// The memory budget an attempt runs with after `enospc_failures`
    /// disk-full failures: `base` grown by the ENOSPC factor once per
    /// failure. A `None` base (fully in-memory) stays `None`.
    pub fn scaled_budget(&self, base: Option<usize>, enospc_failures: u32) -> Option<usize> {
        base.map(|b| {
            let factor = self
                .enospc_budget_factor
                .max(1.0)
                .powi(enospc_failures.min(16) as i32);
            (b as f64 * factor) as usize
        })
    }
}

impl Default for RetryPolicy {
    /// Two re-submissions, 5 virtual seconds of backoff doubling each
    /// time — roughly Hadoop's `mapreduce.am.max-attempts` posture —
    /// plus three storage retries with a short 1 s backoff and 2×
    /// budget growth per ENOSPC.
    fn default() -> Self {
        Self {
            max_job_retries: 2,
            backoff_s: 5.0,
            backoff_factor: 2.0,
            io_retries: 3,
            io_backoff_s: 1.0,
            enospc_budget_factor: 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_budget_stays_in_memory_regardless_of_enospc() {
        assert_eq!(RetryPolicy::default().scaled_budget(None, 3), None);
    }
}
