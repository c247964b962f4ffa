//! Stage spans around the calls into the library's public functions.
//!
//! The harness records one span per call: name, start, end and the span
//! that was open when it started. Spans stay in memory and are written
//! with the result file when the run ends. A span's *self time* is its
//! duration minus what its children cover, so the self times of a
//! repetition's spans add up to the repetition's wall time.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span. Times are microseconds since the log was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.dj_preprocess_s`.
    pub name: &'static str,
    /// Start, µs.
    pub start_us: u64,
    /// End, µs.
    pub end_us: u64,
    /// Index of the enclosing span in the log, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn duration_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// An in-memory span log with a stack of open spans.
#[derive(Debug)]
pub struct SpanLog {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Self {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A log that records nothing: what the untraced repetitions get, so
    /// that traced and untraced runs share their code.
    pub fn off() -> Self {
        Self {
            on: false,
            ..Self::new()
        }
    }

    /// Whether this log records.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Runs `f` inside a span called `name`, nested under the span that
    /// is open now.
    pub fn within<T>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanLog) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let start_us = self.now_us();
        let id = self.push(name, start_us, start_us);
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Records a finished child of the open span of which only the
    /// duration is known — a job's `JobStats::real_elapsed`. It is placed
    /// at the open span's start, or after the children already recorded
    /// there, which keeps siblings from overlapping.
    pub fn child_of_duration(&mut self, name: &'static str, duration: Duration) {
        if !self.on {
            return;
        }
        let parent = *self.open.last().expect("a job span needs an open parent");
        let start_us = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_us)
            .max()
            .unwrap_or(self.spans[parent].start_us);
        self.push(name, start_us, start_us + duration.as_micros() as u64);
    }

    fn push(&mut self, name: &'static str, start_us: u64, end_us: u64) -> usize {
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent: self.open.last().copied(),
        });
        self.spans.len() - 1
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration per span name, seconds.
    pub fn totals(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += s.duration_us() as f64 / 1e6;
        }
        out
    }

    /// Self time per span name, seconds: each span's duration minus its
    /// children's, never below zero.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_us();
            }
        }
        let mut out = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&covered) {
            let own = s.duration_us().saturating_sub(children);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(spans: &[(&'static str, u64, u64, Option<usize>)]) -> SpanLog {
        let mut log = SpanLog::new();
        log.spans = spans
            .iter()
            .map(|&(name, start_us, end_us, parent)| Span {
                name,
                start_us,
                end_us,
                parent,
            })
            .collect();
        log
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let log = log_of(&[
            ("rep", 0, 1_000_000, None),
            ("call", 100_000, 900_000, Some(0)),
            ("job", 100_000, 700_000, Some(1)),
            ("verify", 900_000, 950_000, Some(0)),
        ]);
        let own = log.self_times();
        assert_eq!(own["rep"], 0.15);
        assert_eq!(own["call"], 0.2);
        assert_eq!(own["job"], 0.6);
        assert_eq!(own["verify"], 0.05);
        let sum: f64 = own.values().sum();
        assert!((sum - 1.0).abs() < 1e-9, "self times sum to the root");
    }

    #[test]
    fn same_named_spans_accumulate() {
        let log = log_of(&[
            ("rep", 0, 100, None),
            ("iter", 0, 40, Some(0)),
            ("iter", 40, 90, Some(0)),
        ]);
        assert_eq!(log.totals()["iter"], 90e-6);
        assert_eq!(log.self_times()["rep"], 10e-6);
    }

    #[test]
    fn children_longer_than_the_parent_do_not_go_negative() {
        let log = log_of(&[("call", 0, 100, None), ("job", 0, 130, Some(0))]);
        assert_eq!(log.self_times()["call"], 0.0);
    }

    #[test]
    fn a_log_that_is_off_runs_the_closure_and_records_nothing() {
        let mut log = SpanLog::off();
        let out = log.within("rep", |log| {
            log.child_of_duration("job", Duration::from_micros(5));
            7
        });
        assert_eq!(out, 7);
        assert!(log.spans().is_empty() && !log.is_on());
    }

    #[test]
    fn within_nests_and_job_children_follow_each_other() {
        let mut log = SpanLog::new();
        log.within("rep", |log| {
            log.within("call", |log| {
                log.child_of_duration("job", Duration::from_micros(30));
                log.child_of_duration("job", Duration::from_micros(20));
            });
        });
        let s = log.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert_eq!((s[2].parent, s[3].parent), (Some(1), Some(1)));
        assert_eq!(s[3].start_us, s[2].end_us);
        assert_eq!(s[3].end_us - s[2].start_us, 50);
        assert!(s[0].end_us >= s[1].end_us);
    }
}
