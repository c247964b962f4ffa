//! Perf-diff root-cause engine: explains *why* one run was slower than
//! another.
//!
//! The bench harness's `compare` gate (and any operator staring at two
//! metrics files) can see *that* wall time or makespan moved; this
//! module walks the two runs' phase breakdowns, task cohorts and
//! counters and attributes the movement — producing a ranked "why it
//! got slower" report in both ASCII and machine-readable JSON.
//!
//! Attribution is deliberately heuristic but unit-honest: causes that
//! carry a real time delta (phase walls, cohort totals, storage stall
//! milliseconds) are ranked by their seconds-equivalent contribution;
//! dimensionless counter swings (io retries, re-executions, distance
//! evaluations) rank below them by relative change, as corroborating
//! evidence rather than attributed time.

use crate::analysis::{CriticalPath, VirtualCriticalPath};
use crate::event::Event;
use crate::json::Writer;
use crate::monitor::fmt_bytes;
use crate::registry::{HOST_IDLE_MS, IO_STALL_MS, MEM_LIVE_BYTES, MEM_PEAK_OVER_BUDGET};
use crate::summary::SummaryReport;
use std::fmt::Write as _;

/// Task-duration quantiles for one task kind, as carried by a profile.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskCohort {
    /// Task kind (`map`, `reduce`, ...).
    pub kind: String,
    /// Number of tasks in the cohort.
    pub count: u64,
    /// Median task wall time, microseconds.
    pub p50_us: u64,
    /// 95th-percentile task wall time, microseconds.
    pub p95_us: u64,
    /// Slowest task wall time, microseconds.
    pub max_us: u64,
}

/// Everything the diff engine needs to know about one run — a common
/// denominator of a bench report and a metrics JSONL stream.
#[derive(Debug, Clone, Default)]
pub struct RunProfile {
    /// Where this profile came from (file name, workload tag).
    pub label: String,
    /// Host wall time, milliseconds.
    pub wall_ms: u64,
    /// Virtual-cluster makespan, seconds (0 when no simulated job ran).
    pub makespan_s: f64,
    /// Per-phase wall seconds (host spans, summed across repeats), in
    /// first-appearance order.
    pub phases: Vec<(String, f64)>,
    /// Counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Per-task-kind duration quantiles.
    pub tasks: Vec<TaskCohort>,
}

impl RunProfile {
    fn phase(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, s)| s)
            .unwrap_or(0.0)
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    fn cohort(&self, kind: &str) -> Option<&TaskCohort> {
        self.tasks.iter().find(|t| t.kind == kind)
    }
}

/// Builds a [`RunProfile`] from a captured (or replayed) event stream —
/// the same stream `--metrics-out` writes as JSONL.
pub fn profile_from_events(label: &str, events: &[Event]) -> RunProfile {
    // Counters ride in the stream as `count` events (the archive writer
    // materializes the recorder's aggregate totals on stop).
    let mut counters: Vec<(String, u64)> = Vec::new();
    for e in events {
        if e.kind == crate::event::EventKind::Count {
            let v = e.value.unwrap_or(0.0).max(0.0) as u64;
            match counters.iter_mut().find(|(n, _)| n == e.name) {
                // The live-heap gauge is sampled at every phase
                // boundary; its profile value is the peak sample, not
                // the sum of samples.
                Some((_, total)) if e.name == MEM_LIVE_BYTES => *total = (*total).max(v),
                Some((_, total)) => *total += v,
                None => counters.push((e.name.to_owned(), v)),
            }
        }
    }
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    let summary = SummaryReport::from_events(events, &counters);
    let host = CriticalPath::from_events(events);
    let makespan_s = VirtualCriticalPath::from_events(events)
        .map(|v| v.makespan_s)
        .unwrap_or(0.0);
    RunProfile {
        label: label.to_owned(),
        wall_ms: host.total_us / 1_000,
        makespan_s,
        phases: summary
            .phases
            .iter()
            .map(|p| (p.name.clone(), p.wall_us as f64 / 1e6))
            .collect(),
        counters,
        tasks: summary
            .tasks
            .iter()
            .map(|t| TaskCohort {
                kind: t.kind.clone(),
                count: t.count,
                p50_us: t.p50_us,
                p95_us: t.p95_us,
                max_us: t.max_us,
            })
            .collect(),
    }
}

/// One ranked explanation for the delta between two runs.
#[derive(Debug, Clone)]
pub struct Cause {
    /// Attribution class: `phase`, `stall`, `tasks`, `memory`, or
    /// `counter`.
    pub kind: &'static str,
    /// What moved (phase name, counter name, task kind).
    pub name: String,
    /// Baseline value (seconds for timed causes, raw for counters).
    pub base: f64,
    /// Candidate value.
    pub cand: f64,
    /// `cand - base`, in `unit`.
    pub delta: f64,
    /// `"s"` for seconds-equivalent causes, `""` for raw counters.
    pub unit: &'static str,
    /// Seconds-equivalent share of the baseline reference time (0 for
    /// raw counter causes).
    pub share: f64,
    /// Human explanation of what the movement means.
    pub note: String,
}

impl Cause {
    /// Seconds this cause contributes to the ranking (raw counters
    /// rank by relative change, far below any timed cause).
    fn weight(&self) -> f64 {
        if self.unit == "s" {
            self.delta.abs()
        } else {
            0.0
        }
    }

    fn relative(&self) -> f64 {
        if self.base.abs() > 0.0 {
            (self.delta / self.base).abs()
        } else if self.delta.abs() > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    }
}

/// The full two-run comparison: headline deltas plus ranked causes.
#[derive(Debug, Clone)]
pub struct PerfDiff {
    /// Baseline label.
    pub base: String,
    /// Candidate label.
    pub cand: String,
    /// Candidate minus baseline host wall, milliseconds.
    pub wall_delta_ms: f64,
    /// Candidate minus baseline virtual makespan, seconds.
    pub makespan_delta_s: f64,
    /// Ranked causes, biggest attributed time first; empty when nothing
    /// moved past the significance floor.
    pub causes: Vec<Cause>,
}

/// A timed delta is significant past this share of the baseline's
/// dominant time scale.
const TIME_SIGNIFICANCE: f64 = 0.01;
/// A raw counter swing is significant past this relative change.
const COUNTER_SIGNIFICANCE: f64 = 0.10;

/// Attributes the performance delta between `base` and `cand`.
pub fn diff(base: &RunProfile, cand: &RunProfile) -> PerfDiff {
    // The baseline's dominant time scale: virtual makespan when a
    // simulated job ran, host wall otherwise. Floored so an all-zero
    // baseline cannot make everything "significant".
    let reference_s = base
        .makespan_s
        .max(base.wall_ms as f64 / 1e3)
        .max(cand.makespan_s.max(cand.wall_ms as f64 / 1e3) * 0.01)
        .max(1e-6);
    let significant_s = TIME_SIGNIFICANCE * reference_s;
    let mut causes: Vec<Cause> = Vec::new();

    // Phase wall deltas (host seconds).
    let mut phase_names: Vec<&str> = base.phases.iter().map(|(n, _)| n.as_str()).collect();
    for (n, _) in &cand.phases {
        if !phase_names.contains(&n.as_str()) {
            phase_names.push(n);
        }
    }
    for name in phase_names {
        let (b, c) = (base.phase(name), cand.phase(name));
        let delta = c - b;
        if delta.abs() >= significant_s {
            causes.push(Cause {
                kind: "phase",
                name: name.to_owned(),
                base: b,
                cand: c,
                delta,
                unit: "s",
                share: delta.abs() / reference_s,
                note: format!(
                    "phase.{name} wall {} by {:.3} s ({:.3} s -> {:.3} s)",
                    if delta > 0.0 { "grew" } else { "shrank" },
                    delta.abs(),
                    b,
                    c
                ),
            });
        }
    }

    // Task cohort totals (count x median, in seconds).
    let mut kinds: Vec<&str> = base.tasks.iter().map(|t| t.kind.as_str()).collect();
    for t in &cand.tasks {
        if !kinds.contains(&t.kind.as_str()) {
            kinds.push(&t.kind);
        }
    }
    for kind in kinds {
        let total_s = |p: &RunProfile| {
            p.cohort(kind)
                .map(|t| t.count as f64 * t.p50_us as f64 / 1e6)
                .unwrap_or(0.0)
        };
        let (b, c) = (total_s(base), total_s(cand));
        let delta = c - b;
        if delta.abs() >= significant_s {
            let (bc, cc) = (
                base.cohort(kind).map_or(0, |t| t.count),
                cand.cohort(kind).map_or(0, |t| t.count),
            );
            causes.push(Cause {
                kind: "tasks",
                name: kind.to_owned(),
                base: b,
                cand: c,
                delta,
                unit: "s",
                share: delta.abs() / reference_s,
                note: format!(
                    "task.{kind} cohort time (count x p50) moved {:.3} s ({bc} -> {cc} tasks)",
                    delta.abs()
                ),
            });
        }
    }

    // Counter deltas. The storage-stall counter is milliseconds of
    // virtual time, so it attributes as a timed cause; everything else
    // is corroborating evidence ranked by relative change.
    let mut counter_names: Vec<&str> = base.counters.iter().map(|(n, _)| n.as_str()).collect();
    for (n, _) in &cand.counters {
        if !counter_names.contains(&n.as_str()) {
            counter_names.push(n);
        }
    }
    for name in counter_names {
        let (b, c) = (base.counter(name), cand.counter(name));
        if b == c {
            continue;
        }
        let delta = c as f64 - b as f64;
        if name == IO_STALL_MS {
            let delta_s = delta / 1e3;
            if delta_s.abs() >= significant_s {
                causes.push(Cause {
                    kind: "stall",
                    name: name.to_owned(),
                    base: b as f64 / 1e3,
                    cand: c as f64 / 1e3,
                    delta: delta_s,
                    unit: "s",
                    share: delta_s.abs() / reference_s,
                    note: format!(
                        "storage stall in the shuffle/spill commit path (spill seals, \
                         artifact commits) {} by {:.3} s — the shuffle phase was IO-bound \
                         (slow disk or EIO retry backoff)",
                        if delta_s > 0.0 { "grew" } else { "shrank" },
                        delta_s.abs()
                    ),
                });
            }
        } else if name == HOST_IDLE_MS {
            let delta_s = delta / 1e3;
            if delta_s.abs() >= significant_s {
                causes.push(Cause {
                    kind: "idle",
                    name: name.to_owned(),
                    base: b as f64 / 1e3,
                    cand: c as f64 / 1e3,
                    delta: delta_s,
                    unit: "s",
                    share: delta_s.abs() / reference_s,
                    note: if delta_s > 0.0 {
                        format!(
                            "got slower because workers idled — pool executors spent \
                             {:.3} s more doing nothing (serial sections, lock contention \
                             or too few runnable tasks for the thread count)",
                            delta_s
                        )
                    } else {
                        format!(
                            "pool executors idled {:.3} s less — the run kept its \
                             workers fed",
                            delta_s.abs()
                        )
                    },
                });
            }
        } else if name == MEM_PEAK_OVER_BUDGET {
            // Crossing the memory budget is the canonical "why did it
            // start spilling" explanation — call it out by name instead
            // of burying it in the generic counter list.
            let rel = if b > 0 {
                delta.abs() / b as f64
            } else {
                f64::INFINITY
            };
            if rel >= COUNTER_SIGNIFICANCE {
                causes.push(Cause {
                    kind: "memory",
                    name: name.to_owned(),
                    base: b as f64,
                    cand: c as f64,
                    delta,
                    unit: "",
                    share: 0.0,
                    note: if b == 0 && c > 0 {
                        format!(
                            "got slower because it started spilling — the accounted shuffle \
                             peak crossed the memory budget by {} (spill writes and merge \
                             reads follow the overshoot)",
                            fmt_bytes(c)
                        )
                    } else {
                        format!(
                            "accounted peak over budget {} from {} to {}",
                            if delta > 0.0 { "grew" } else { "shrank" },
                            fmt_bytes(b),
                            fmt_bytes(c)
                        )
                    },
                });
            }
        } else {
            let rel = if b > 0 {
                delta.abs() / b as f64
            } else {
                f64::INFINITY
            };
            if rel >= COUNTER_SIGNIFICANCE {
                causes.push(Cause {
                    kind: "counter",
                    name: name.to_owned(),
                    base: b as f64,
                    cand: c as f64,
                    delta,
                    unit: "",
                    share: 0.0,
                    note: format!(
                        "counter {name} moved {b} -> {c} ({})",
                        if b > 0 {
                            format!("{:+.0}%", 100.0 * delta / b as f64)
                        } else {
                            "new".to_owned()
                        }
                    ),
                });
            }
        }
    }

    // Rank: attributed seconds first, then relative swing.
    causes.sort_by(|a, b| {
        b.weight()
            .total_cmp(&a.weight())
            .then(b.relative().total_cmp(&a.relative()))
            .then(a.name.cmp(&b.name))
    });

    PerfDiff {
        base: base.label.clone(),
        cand: cand.label.clone(),
        wall_delta_ms: cand.wall_ms as f64 - base.wall_ms as f64,
        makespan_delta_s: cand.makespan_s - base.makespan_s,
        causes,
    }
}

impl PerfDiff {
    /// Renders the ranked report as plain text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== perf diff: {} -> {} ==", self.base, self.cand);
        let _ = writeln!(
            out,
            "wall     {:+.1} ms | makespan {:+.3} s",
            self.wall_delta_ms, self.makespan_delta_s
        );
        if self.causes.is_empty() {
            let _ = writeln!(out, "no significant delta");
            return out;
        }
        // Direction follows the headline deltas, unless the top
        // attributed time swing dwarfs them — a run whose makespan
        // barely moved but stalled 100 s on disk still "got slower".
        let headline_s = (self.wall_delta_ms / 1000.0)
            .abs()
            .max(self.makespan_delta_s.abs());
        let top = &self.causes[0];
        let slower = if top.unit == "s" && top.delta.abs() > headline_s {
            top.delta > 0.0
        } else if self.makespan_delta_s.abs() >= (self.wall_delta_ms / 1000.0).abs() {
            self.makespan_delta_s > 0.0
        } else {
            self.wall_delta_ms > 0.0
        };
        let _ = writeln!(
            out,
            "why it got {} (ranked):",
            if slower { "slower" } else { "faster" }
        );
        for (i, c) in self.causes.iter().enumerate() {
            let amount = if c.unit == "s" {
                format!("{:+.3} s ({:.0}% of baseline)", c.delta, 100.0 * c.share)
            } else {
                format!("{:+.0}", c.delta)
            };
            let _ = writeln!(out, "  {}. [{:<7}] {:<24} {amount}", i + 1, c.kind, c.name);
            let _ = writeln!(out, "      {}", c.note);
        }
        out
    }

    /// Serializes the report as machine-readable JSON.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.open_obj();
        w.str_field("schema", "gepeto-perf-diff/1");
        w.str_field("base", &self.base);
        w.str_field("cand", &self.cand);
        w.f64_field("wall_delta_ms", self.wall_delta_ms);
        w.f64_field("makespan_delta_s", self.makespan_delta_s);
        w.open_arr_field("causes");
        for c in &self.causes {
            w.open_obj();
            w.str_field("kind", c.kind);
            w.str_field("name", &c.name);
            w.f64_field("base", c.base);
            w.f64_field("cand", c.cand);
            w.f64_field("delta", c.delta);
            w.str_field("unit", c.unit);
            w.f64_field("share", c.share);
            w.str_field("note", &c.note);
            w.close_obj();
        }
        w.close_arr();
        w.close_obj();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(label: &str) -> RunProfile {
        RunProfile {
            label: label.to_owned(),
            wall_ms: 1_000,
            makespan_s: 100.0,
            phases: vec![
                ("map".to_owned(), 0.6),
                ("shuffle".to_owned(), 0.2),
                ("reduce".to_owned(), 0.2),
            ],
            counters: vec![
                ("io.retries".to_owned(), 10),
                ("shuffle.spilled_bytes".to_owned(), 1_000_000),
            ],
            tasks: vec![TaskCohort {
                kind: "map".to_owned(),
                count: 100,
                p50_us: 5_000,
                p95_us: 9_000,
                max_us: 12_000,
            }],
        }
    }

    #[test]
    fn self_diff_reports_no_significant_delta() {
        let p = profile("a");
        let d = diff(&p, &p);
        assert!(d.causes.is_empty());
        assert_eq!(d.wall_delta_ms, 0.0);
        assert!(
            d.render().contains("no significant delta"),
            "{}",
            d.render()
        );
    }

    #[test]
    fn storage_stall_dominates_and_names_the_io_bound_phase() {
        let base = profile("clean");
        let mut cand = profile("slow-disk");
        cand.makespan_s = 250.0;
        cand.counters.push((IO_STALL_MS.to_owned(), 150_000));
        cand.counters.sort();
        // A small decoy phase wiggle that must NOT outrank the stall.
        cand.phases[0].1 = 2.0;
        let d = diff(&base, &cand);
        assert!(!d.causes.is_empty());
        assert_eq!(d.causes[0].kind, "stall");
        assert_eq!(d.causes[0].name, IO_STALL_MS);
        assert!((d.causes[0].delta - 150.0).abs() < 1e-9);
        assert!(d.causes[0].note.contains("shuffle"), "{}", d.causes[0].note);
        assert!(
            d.causes[0].note.contains("IO-bound"),
            "{}",
            d.causes[0].note
        );
        let text = d.render();
        assert!(text.contains("why it got slower"), "{text}");
        assert!(text.contains("io.stall_ms"), "{text}");
        let json = d.to_json();
        let parsed = crate::json::Json::parse(&json).unwrap();
        assert_eq!(
            parsed
                .get("causes")
                .and_then(crate::json::Json::as_arr)
                .and_then(|a| a.first())
                .and_then(|c| c.get("kind"))
                .and_then(crate::json::Json::as_str),
            Some("stall")
        );
    }

    #[test]
    fn counter_swings_rank_below_timed_causes() {
        let base = profile("a");
        let mut cand = profile("b");
        cand.counters[0].1 = 100; // io.retries 10 -> 100
        cand.phases[2].1 = 5.0; // reduce grew by 4.8 s
        let d = diff(&base, &cand);
        let kinds: Vec<&str> = d.causes.iter().map(|c| c.kind).collect();
        assert_eq!(d.causes[0].kind, "phase");
        assert_eq!(d.causes[0].name, "reduce");
        assert!(kinds.contains(&"counter"), "{kinds:?}");
        let counter_pos = kinds.iter().position(|&k| k == "counter").unwrap();
        assert!(counter_pos > 0);
    }

    #[test]
    fn crossing_the_memory_budget_reads_as_started_spilling() {
        let base = profile("fits");
        let mut cand = profile("spills");
        cand.counters
            .push((MEM_PEAK_OVER_BUDGET.to_owned(), 27_000_000));
        cand.counters.sort();
        let d = diff(&base, &cand);
        let mem = d
            .causes
            .iter()
            .find(|c| c.kind == "memory")
            .expect("memory cause");
        assert_eq!(mem.name, MEM_PEAK_OVER_BUDGET);
        assert!(mem.note.contains("started spilling"), "{}", mem.note);
        assert!(mem.note.contains("27.0 MB"), "{}", mem.note);
        // A further overshoot reads as growth, not a fresh crossing.
        let mut worse = cand.clone();
        for (n, v) in worse.counters.iter_mut() {
            if n == MEM_PEAK_OVER_BUDGET {
                *v = 54_000_000;
            }
        }
        let d2 = diff(&cand, &worse);
        let grew = d2.causes.iter().find(|c| c.kind == "memory").unwrap();
        assert!(
            grew.note.contains("grew from 27.0 MB to 54.0 MB"),
            "{}",
            grew.note
        );
    }

    #[test]
    fn idling_pool_workers_read_as_got_slower_because_workers_idled() {
        let base = profile("busy");
        let mut cand = profile("starved");
        cand.counters.push((HOST_IDLE_MS.to_owned(), 40_000));
        cand.counters.sort();
        let d = diff(&base, &cand);
        let idle = d
            .causes
            .iter()
            .find(|c| c.kind == "idle")
            .expect("idle cause");
        assert_eq!(idle.name, HOST_IDLE_MS);
        assert_eq!(idle.unit, "s");
        assert!((idle.delta - 40.0).abs() < 1e-9);
        assert!(
            idle.note.contains("got slower because workers idled"),
            "{}",
            idle.note
        );
        // The reverse direction credits the fix.
        let d2 = diff(&cand, &base);
        let fed = d2.causes.iter().find(|c| c.kind == "idle").unwrap();
        assert!(fed.note.contains("kept its workers fed"), "{}", fed.note);
    }

    #[test]
    fn live_heap_samples_profile_as_a_peak_not_a_sum() {
        use crate::event::{Event, EventKind};
        let sample = |v: f64| Event {
            ts_us: 0,
            kind: EventKind::Count,
            name: "mem.live_bytes",
            span_id: 0,
            parent_id: 0,
            dur_us: None,
            value: Some(v),
            labels: Vec::new(),
        };
        let events = vec![sample(40.0), sample(91.0), sample(12.0)];
        let p = profile_from_events("x", &events);
        assert_eq!(p.counters, vec![("mem.live_bytes".to_owned(), 91)]);
    }

    #[test]
    fn task_cohort_growth_is_attributed() {
        let base = profile("a");
        let mut cand = profile("b");
        cand.tasks[0].count = 300;
        cand.tasks[0].p50_us = 20_000; // 0.5 s -> 6 s of cohort time
        let d = diff(&base, &cand);
        assert!(d
            .causes
            .iter()
            .any(|c| c.kind == "tasks" && c.name == "map" && c.delta > 5.0));
    }

    #[test]
    fn profile_from_events_reads_spans_and_count_events() {
        use crate::event::{Event, EventKind};
        let span = |name: &'static str, id: u64, ts: u64, dur: u64| {
            [
                Event {
                    ts_us: ts,
                    kind: EventKind::SpanStart,
                    name,
                    span_id: id,
                    parent_id: 0,
                    dur_us: None,
                    value: None,
                    labels: Vec::new(),
                },
                Event {
                    ts_us: ts + dur,
                    kind: EventKind::SpanEnd,
                    name,
                    span_id: id,
                    parent_id: 0,
                    dur_us: Some(dur),
                    value: None,
                    labels: Vec::new(),
                },
            ]
        };
        let mut events: Vec<Event> = Vec::new();
        events.extend(span("job", 1, 0, 2_000_000));
        events.extend(span("phase.map", 2, 0, 1_500_000));
        events.push(Event {
            ts_us: 2_000_000,
            kind: EventKind::Count,
            name: "io.retries",
            span_id: 0,
            parent_id: 0,
            dur_us: None,
            value: Some(4.0),
            labels: Vec::new(),
        });
        let p = profile_from_events("x", &events);
        assert_eq!(p.label, "x");
        assert_eq!(p.wall_ms, 2_000);
        assert_eq!(p.phases, vec![("map".to_owned(), 1.5)]);
        assert_eq!(p.counters, vec![("io.retries".to_owned(), 4)]);
    }
}
