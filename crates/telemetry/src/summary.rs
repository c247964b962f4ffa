//! End-of-run aggregation: folds the flat event stream into the
//! jobtracker-style report the paper's tables are built from — per-phase
//! wall time, task-time quantiles, stragglers, retries, shuffle volume.

use crate::event::{Event, EventKind};
use crate::histogram::Histogram;
use crate::monitor::fmt_bytes;
use crate::registry::*;
use std::fmt::Write as _;

/// Wall time attributed to one phase (summed across repeats, e.g.
/// k-means iterations each contributing a map phase).
#[derive(Debug, Clone)]
pub struct PhaseStat {
    /// Phase name (the part after `phase.`).
    pub name: String,
    /// Total wall time in microseconds.
    pub wall_us: u64,
    /// How many spans contributed.
    pub spans: u64,
}

/// Task-duration distribution for one task kind (`task.map`, ...).
#[derive(Debug, Clone)]
pub struct TaskStats {
    /// Task kind (the part after `task.`).
    pub kind: String,
    /// Number of tasks.
    pub count: u64,
    /// Median task wall time (µs, log-bucket resolution).
    pub p50_us: u64,
    /// 95th-percentile task wall time (µs, log-bucket resolution).
    pub p95_us: u64,
    /// Slowest task wall time (µs, exact).
    pub max_us: u64,
}

/// A task whose wall time stands far above its cohort's median.
#[derive(Debug, Clone)]
pub struct Straggler {
    /// Task kind (the part after `task.`).
    pub kind: String,
    /// The task's identity labels, as captured on its span.
    pub labels: Vec<(String, String)>,
    /// The task's wall time in microseconds.
    pub dur_us: u64,
    /// Its cohort's median in microseconds.
    pub p50_us: u64,
}

/// The end-of-run rollup produced by [`crate::Recorder::summary`].
#[derive(Debug, Clone, Default)]
pub struct SummaryReport {
    /// Per-phase wall time, in order of first appearance.
    pub phases: Vec<PhaseStat>,
    /// Per-task-kind duration quantiles.
    pub tasks: Vec<TaskStats>,
    /// Tasks slower than 2x their cohort median (and ≥ 1 ms).
    pub stragglers: Vec<Straggler>,
    /// Total task retries: the [`TASK_RETRIES`] counter, or the
    /// `task.retry` points when they are more.
    pub retries: u64,
    /// Every counter, sorted by name (see [`Self::counter`]).
    pub counters: Vec<(String, u64)>,
}

/// Threshold below which a slow task is noise, not a straggler.
const STRAGGLER_MIN_US: u64 = 1_000;

impl SummaryReport {
    /// Builds the report from a captured event stream and counter
    /// snapshot.
    ///
    /// Conventions: spans named `phase.<p>` feed the phase table; spans
    /// named `task.<kind>` feed the task-time table (their `span_start`
    /// labels identify the task); `task.retry` points count as retries
    /// in addition to [`TASK_RETRIES`].
    pub fn from_events(events: &[Event], counters: &[(String, u64)]) -> Self {
        let mut phases: Vec<PhaseStat> = Vec::new();
        let mut task_hists: Vec<(String, Histogram)> = Vec::new();
        let mut task_durs: Vec<(String, u64, u64)> = Vec::new(); // kind, span_id, dur
        let mut retry_points = 0u64;

        for e in events {
            match e.kind {
                EventKind::SpanEnd => {
                    if let Some(name) = e.name.strip_prefix("phase.") {
                        let dur = e.dur_us.unwrap_or(0);
                        match phases.iter_mut().find(|p| p.name == name) {
                            Some(p) => {
                                p.wall_us += dur;
                                p.spans += 1;
                            }
                            None => phases.push(PhaseStat {
                                name: name.to_owned(),
                                wall_us: dur,
                                spans: 1,
                            }),
                        }
                    } else if let Some(kind) = e.name.strip_prefix("task.") {
                        let dur = e.dur_us.unwrap_or(0);
                        match task_hists.iter_mut().find(|(k, _)| k == kind) {
                            Some((_, h)) => h.observe(dur),
                            None => {
                                let mut h = Histogram::new();
                                h.observe(dur);
                                task_hists.push((kind.to_owned(), h));
                            }
                        }
                        task_durs.push((kind.to_owned(), e.span_id, dur));
                    }
                }
                EventKind::Point if e.name == "task.retry" => retry_points += 1,
                _ => {}
            }
        }

        let tasks: Vec<TaskStats> = task_hists
            .iter()
            .map(|(kind, h)| TaskStats {
                kind: kind.clone(),
                count: h.count(),
                p50_us: h.quantile(0.5).unwrap_or(0),
                p95_us: h.quantile(0.95).unwrap_or(0),
                max_us: h.max().unwrap_or(0),
            })
            .collect();

        // A straggler runs past twice its cohort's median (Hadoop's
        // speculative-execution heuristic) and past an absolute floor.
        let mut stragglers = Vec::new();
        for (kind, span_id, dur) in &task_durs {
            let p50 = tasks
                .iter()
                .find(|t| &t.kind == kind)
                .map(|t| t.p50_us)
                .unwrap_or(0);
            if *dur >= STRAGGLER_MIN_US && *dur > p50.saturating_mul(2) {
                let labels = events
                    .iter()
                    .find(|e| e.kind == EventKind::SpanStart && e.span_id == *span_id)
                    .map(|e| e.labels.clone())
                    .unwrap_or_default();
                stragglers.push(Straggler {
                    kind: kind.clone(),
                    labels,
                    dur_us: *dur,
                    p50_us: p50,
                });
            }
        }
        stragglers.sort_by_key(|s| std::cmp::Reverse(s.dur_us));

        let mut report = Self {
            phases,
            tasks,
            stragglers,
            retries: 0,
            counters: counters.to_vec(),
        };
        report.retries = report.counter(TASK_RETRIES).max(retry_points);
        report
    }

    /// The named counter, when the run reported it.
    fn reported(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// The named counter's value (0 when the run never reported it).
    pub fn counter(&self, name: &str) -> u64 {
        self.reported(name).unwrap_or(0)
    }

    /// Renders the report as an aligned plain-text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== run summary ==");
        if !self.phases.is_empty() {
            let _ = writeln!(out, "{:<18} {:>12} {:>7}", "phase", "wall", "spans");
            for p in &self.phases {
                let _ = writeln!(
                    out,
                    "{:<18} {:>12} {:>7}",
                    p.name,
                    fmt_us(p.wall_us),
                    p.spans
                );
            }
        }
        if !self.tasks.is_empty() {
            let _ = writeln!(
                out,
                "{:<18} {:>7} {:>12} {:>12} {:>12}",
                "task kind", "n", "p50", "p95", "max"
            );
            for t in &self.tasks {
                let _ = writeln!(
                    out,
                    "{:<18} {:>7} {:>12} {:>12} {:>12}",
                    t.kind,
                    t.count,
                    fmt_us(t.p50_us),
                    fmt_us(t.p95_us),
                    fmt_us(t.max_us)
                );
            }
        }
        if !self.stragglers.is_empty() {
            let _ = writeln!(out, "stragglers ({}):", self.stragglers.len());
            for s in &self.stragglers {
                let tags: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                let _ = writeln!(
                    out,
                    "  {} [{}] {} (cohort p50 {})",
                    s.kind,
                    tags.join(" "),
                    fmt_us(s.dur_us),
                    fmt_us(s.p50_us)
                );
            }
        }
        let _ = writeln!(out, "retries: {}", self.retries);
        let c = |name| self.counter(name);
        let (reexecuted, failed_over, blacklisted) = (
            c(REEXECUTED_MAPS),
            c(FAILED_OVER_READS),
            c(BLACKLISTED_NODES),
        );
        if reexecuted > 0 || failed_over > 0 || blacklisted > 0 {
            let _ = writeln!(
                out,
                "recovery: {reexecuted} reexecuted maps, {failed_over} failed-over reads, \
                 {blacklisted} blacklisted nodes"
            );
        }
        if let Some(bytes) = self.reported(SHUFFLE_BYTES) {
            let _ = writeln!(out, "shuffle bytes: {bytes}");
        }
        if c(SHUFFLE_BYTES_SAVED) > 0 {
            let _ = writeln!(out, "shuffle bytes saved: {}", c(SHUFFLE_BYTES_SAVED));
        }
        let (spilled, spill_files) = (c(SPILLED_BYTES), c(SPILL_FILES));
        if spilled > 0 || spill_files > 0 {
            let _ = writeln!(out, "spill: {spilled} bytes in {spill_files} files");
        }
        if c(SPILL_ESTIMATE_ERROR) > 0 {
            let _ = writeln!(
                out,
                "spill estimate error: {} bytes (|estimated - written| across runs)",
                c(SPILL_ESTIMATE_ERROR)
            );
        }
        let (budget, accounted) = (c(MEM_BUDGET_BYTES), c(MEM_ACCOUNTED_PEAK));
        if budget > 0 {
            let over = c(MEM_PEAK_OVER_BUDGET);
            let _ = writeln!(
                out,
                "memory: budget {}, actual peak {} ({:.2}x){}",
                fmt_bytes(budget),
                fmt_bytes(accounted),
                accounted as f64 / budget as f64,
                if over > 0 {
                    format!(" — {} over budget", fmt_bytes(over))
                } else {
                    String::new()
                }
            );
        } else if accounted > 0 {
            let _ = writeln!(
                out,
                "memory: unbudgeted, accounted peak {} (shuffle buffers only; \
                 heap: counts the whole process)",
                fmt_bytes(accounted)
            );
        }
        if c(MEM_PEAK_BYTES) > 0 {
            let _ = writeln!(
                out,
                "heap: peak {}, allocated {} in {} calls",
                fmt_bytes(c(MEM_PEAK_BYTES)),
                fmt_bytes(c(MEM_ALLOCATED_BYTES)),
                c(MEM_ALLOCS)
            );
        }
        let (io_retries, torn, quarantined) = (c(IO_RETRIES), c(TORN_WRITES), c(RUNS_QUARANTINED));
        if io_retries > 0 || torn > 0 || quarantined > 0 {
            let _ = writeln!(
                out,
                "storage: {io_retries} io retries, {torn} torn writes detected, \
                 {quarantined} runs quarantined"
            );
        }
        if c(IO_STALL_MS) > 0 {
            let _ = writeln!(
                out,
                "storage stall: {} of virtual time",
                fmt_us(c(IO_STALL_MS).saturating_mul(1_000))
            );
        }
        if c(JOURNAL_REPLAYED) > 0 {
            let _ = writeln!(
                out,
                "journal: {} reduce tasks replayed from committed artifacts",
                c(JOURNAL_REPLAYED)
            );
        }
        if c(DISTANCE_EVALS) > 0 {
            let _ = writeln!(out, "distance evals: {}", c(DISTANCE_EVALS));
        }
        out
    }
}

/// Human-readable microseconds.
pub(crate) fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.3} s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.3} ms", us as f64 / 1e3)
    } else {
        format!("{us} µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_pair(
        name: &'static str,
        span_id: u64,
        dur_us: u64,
        labels: &[(&str, &str)],
    ) -> [Event; 2] {
        [
            Event {
                ts_us: 0,
                kind: EventKind::SpanStart,
                name,
                span_id,
                parent_id: 0,
                dur_us: None,
                value: None,
                labels: labels
                    .iter()
                    .map(|&(k, v)| (k.to_owned(), v.to_owned()))
                    .collect(),
            },
            Event {
                ts_us: dur_us,
                kind: EventKind::SpanEnd,
                name,
                span_id,
                parent_id: 0,
                dur_us: Some(dur_us),
                value: None,
                labels: Vec::new(),
            },
        ]
    }

    #[test]
    fn folds_phases_tasks_and_stragglers() {
        let mut events = Vec::new();
        events.extend(span_pair("phase.map", 1, 10_000, &[]));
        events.extend(span_pair("phase.map", 2, 5_000, &[]));
        events.extend(span_pair("phase.reduce", 3, 7_000, &[]));
        for (i, dur) in [2_000u64, 2_100, 1_900, 2_050, 9_000].iter().enumerate() {
            events.extend(span_pair(
                "task.map",
                10 + i as u64,
                *dur,
                &[("task", &i.to_string())],
            ));
        }
        let counters = vec![
            (TASK_RETRIES.to_owned(), 2),
            (SHUFFLE_BYTES.to_owned(), 4096),
        ];
        let report = SummaryReport::from_events(&events, &counters);

        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.phases[0].name, "map");
        assert_eq!(report.phases[0].wall_us, 15_000);
        assert_eq!(report.phases[0].spans, 2);
        assert_eq!(report.phases[1].wall_us, 7_000);

        assert_eq!(report.tasks.len(), 1);
        let t = &report.tasks[0];
        assert_eq!(t.count, 5);
        assert_eq!(t.max_us, 9_000);
        assert!(t.p50_us >= 1_900);

        assert_eq!(report.stragglers.len(), 1);
        assert_eq!(report.stragglers[0].dur_us, 9_000);
        assert_eq!(report.stragglers[0].labels[0].1, "4");

        assert_eq!(report.retries, 2);
        assert_eq!(report.counter(SHUFFLE_BYTES), 4096);

        let text = report.render();
        assert!(text.contains("phase"));
        assert!(text.contains("map"));
        assert!(text.contains("stragglers (1)"));
        assert!(text.contains("shuffle bytes: 4096"));
    }

    #[test]
    fn empty_events_give_empty_report() {
        let report = SummaryReport::from_events(&[], &[]);
        assert!(report.phases.is_empty());
        assert!(report.tasks.is_empty());
        assert!(report.stragglers.is_empty());
        assert_eq!(report.retries, 0);
        assert!(report.render().contains("retries: 0"));
    }

    #[test]
    fn single_span_yields_one_phase_row() {
        let events = span_pair("phase.map", 1, 4_000, &[]);
        let report = SummaryReport::from_events(&events, &[]);
        assert_eq!(report.phases.len(), 1);
        assert_eq!(report.phases[0].name, "map");
        assert_eq!(report.phases[0].wall_us, 4_000);
        assert_eq!(report.phases[0].spans, 1);
        assert!(report.tasks.is_empty());
        assert!(report.render().contains("map"));
    }

    #[test]
    fn unclosed_spans_are_ignored_without_panicking() {
        // Only the starts — the run was cut short before any span_end.
        let mut events: Vec<Event> = span_pair("phase.map", 1, 9_999, &[])[..1].to_vec();
        events.push(span_pair("task.map", 2, 9_999, &[("task", "0")])[0].clone());
        let report = SummaryReport::from_events(&events, &[]);
        assert!(report.phases.is_empty(), "open phase span must not count");
        assert!(report.tasks.is_empty(), "open task span must not count");
        assert!(report.stragglers.is_empty());
        report.render();
    }

    #[test]
    fn single_sample_quantiles_collapse_to_that_sample() {
        let events = span_pair("task.reduce", 1, 5_000, &[("task", "0")]);
        let report = SummaryReport::from_events(&events, &[]);
        assert_eq!(report.tasks.len(), 1);
        let t = &report.tasks[0];
        assert_eq!(t.count, 1);
        assert_eq!(t.p50_us, 5_000);
        assert_eq!(t.p95_us, 5_000);
        assert_eq!(t.max_us, 5_000);
        // A lone task is never a straggler against its own cohort.
        assert!(report.stragglers.is_empty());
    }
}
