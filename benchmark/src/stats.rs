//! Order statistics of a run's repetitions.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the gate judging
//! these numbers computes; `agree` must see the spread the gate sees.

/// Min, quartiles and max of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
}

impl Summary {
    /// Summarises `values`.
    ///
    /// # Panics
    /// If `values` is empty or holds a NaN.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "no samples to summarise");
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        Self {
            n: sorted.len(),
            min: sorted[0],
            q1: quantile_exclusive(&sorted, 0.25),
            median: quantile_exclusive(&sorted, 0.5),
            q3: quantile_exclusive(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
        }
    }

    /// Inter-quartile range as a share of the median — the spread the
    /// gate compares with a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// Quantile `q` of an ascending sample at position `q·(n+1)` (1-based),
/// interpolated linearly and clamped to the sample's ends.
fn quantile_exclusive(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let pos = q * (n as f64 + 1.0);
    let below = (pos.floor() as usize).clamp(1, n);
    let above = (below + 1).min(n);
    let frac = (pos - below as f64).clamp(0.0, 1.0);
    sorted[below - 1] + frac * (sorted[above - 1] - sorted[below - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 2.0, 9.0, 3.0, 8.0, 4.0, 7.0, 5.0, 6.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([3, 1, 2, 10], n=4) == [1.25, 2.5, 8.25]
        let s = Summary::of(&[3.0, 1.0, 2.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 8.25));
    }

    #[test]
    fn odd_and_even_medians() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_clamp_on_tiny_samples() {
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] extrapolates;
        // a repetition time below the fastest repetition is not a
        // measurement, so the ends clamp instead.
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 1.5, 2.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }
}
