//! Machine-readable bench reports (`BENCH_<workload>.json`) and the
//! regression comparison between two of them.
//!
//! The schema is versioned (`gepeto-bench/2`); [`BenchReport::from_json`]
//! doubles as the validator — a file that parses back is a valid bench
//! artifact, and `gepeto-bench validate` exposes exactly that check.

use crate::json::{Json, Writer};
use gepeto_mapred::JobStats;
use gepeto_telemetry::registry::{
    HOST_IDLE_MS, MEM_ACCOUNTED_PEAK, MEM_ALLOCATED_BYTES, MEM_BUDGET_BYTES, MEM_PEAK_BYTES,
    MEM_PEAK_OVER_BUDGET, REEXECUTED_MAPS, RUNS_QUARANTINED, SPILL_ESTIMATE_ERROR, TASK_RETRIES,
};
use gepeto_telemetry::{MemDelta, Recorder};

/// Current schema identifier, bumped on breaking field changes.
/// Version 2 added the `mem` block (tracking-allocator peaks and the
/// engine's budget-vs-actual accounting) so memory regressions gate the
/// same way time regressions do.
pub const SCHEMA: &str = "gepeto-bench/2";

/// One phase of the virtual critical path (see
/// [`gepeto_telemetry::VirtualCriticalPath`]), flattened for JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseBreakdown {
    /// `"map"` or `"reduce"`.
    pub phase: String,
    /// Virtual wall time attributed to this phase, seconds.
    pub wall_s: f64,
    /// Fraction of the dominant job's makespan (0..=1).
    pub share: f64,
    /// Task index finishing the phase (the critical task).
    pub critical_task: u64,
    /// Node that ran the critical task.
    pub critical_node: u64,
    /// The critical task's virtual duration, seconds.
    pub critical_dur_s: f64,
    /// Critical-task duration over the phase median (straggler factor).
    pub median_ratio: f64,
}

/// Duration quantiles for one task kind, from the telemetry summary.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskQuantiles {
    /// Task kind (`map`, `reduce`, ...).
    pub kind: String,
    /// Number of task spans.
    pub count: u64,
    /// Median host-side wall time, µs.
    pub p50_us: u64,
    /// 95th percentile host-side wall time, µs.
    pub p95_us: u64,
    /// Slowest task, µs.
    pub max_us: u64,
}

/// Memory footprint of one workload run: what the tracking allocator
/// observed over the whole workload, plus the engine's own
/// budget-vs-actual shuffle accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemBlock {
    /// Tracking-allocator peak live bytes over the workload window.
    pub peak_bytes: u64,
    /// Total heap bytes allocated over the window (turnover, not live).
    pub allocated_bytes: u64,
    /// Heap allocation calls over the window.
    pub allocs: u64,
    /// Highest buffered intermediate size the engine's accounting saw
    /// (max across jobs — the value compared against the spill budget).
    pub accounted_peak: u64,
    /// Configured per-task memory budget (0 = unbudgeted workload).
    pub budget_bytes: u64,
    /// How far the accounted peak overshot the budget (0 when inside).
    pub peak_over_budget_bytes: u64,
}

/// Host-parallelism telemetry for one workload run: what the
/// `gepeto-pool` work-stealing pool did while the workload executed.
/// Written by every report this build produces; parsed leniently (a
/// file without the block reads back as all-zero) so pre-pool bench
/// artifacts stay valid under the same schema.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostBlock {
    /// Pool executors (workers + the submitting thread); 0 when the
    /// workload never touched the pool.
    pub threads: u64,
    /// Pool tasks executed during the workload window.
    pub tasks: u64,
    /// Steal-half operations during the window.
    pub steals: u64,
    /// Wall seconds executors spent running pool tasks (summed across
    /// executors — can exceed the workload wall time).
    pub busy_s: f64,
    /// Executor-seconds spent NOT running pool tasks:
    /// `threads x wall - busy`, floored at zero. Large values against a
    /// similar baseline mean the run got slower because workers idled.
    pub idle_s: f64,
}

/// Everything `gepeto-bench run` measures for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Always [`SCHEMA`] on files this build writes.
    pub schema: String,
    /// `"sampling"`, `"kmeans"` or `"djcluster"`.
    pub workload: String,
    /// `GEPETO_SCALE` the run used.
    pub scale: f64,
    /// Users in the synthetic dataset.
    pub users: u64,
    /// Real host wall-clock of the whole workload, milliseconds.
    pub wall_ms: u64,
    /// Summed virtual makespan across the workload's jobs, seconds.
    pub makespan_s: f64,
    /// Summed virtual map-phase time, seconds.
    pub map_phase_s: f64,
    /// Summed virtual shuffle+reduce time, seconds.
    pub reduce_phase_s: f64,
    /// MapReduce jobs the workload submitted.
    pub jobs: u64,
    /// Total map tasks across jobs.
    pub map_tasks: u64,
    /// Total reduce tasks across jobs.
    pub reduce_tasks: u64,
    /// Total bytes shuffled.
    pub shuffle_bytes: u64,
    /// Failure-injected task retries (0 on a clean bench run).
    pub retries: u64,
    /// Map tasks re-executed after output loss.
    pub reexecuted_maps: u64,
    /// Memory footprint: allocator peaks plus budget-vs-actual shuffle
    /// accounting.
    pub mem: MemBlock,
    /// Work-stealing pool activity over the workload window.
    pub host: HostBlock,
    /// Per-phase critical path of the dominant job, when telemetry
    /// captured scheduler points.
    pub critical_path: Vec<PhaseBreakdown>,
    /// Host-side task-duration quantiles per kind.
    pub tasks: Vec<TaskQuantiles>,
    /// Every telemetry counter, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl BenchReport {
    /// Folds job statistics, the run's telemetry and the workload-wide
    /// ledger window (`mem`) into a report.
    #[allow(clippy::too_many_arguments)]
    pub fn from_run(
        workload: &str,
        scale: f64,
        users: usize,
        wall_ms: u64,
        jobs: &[&JobStats],
        telemetry: &Recorder,
        mem: MemDelta,
        host: HostBlock,
    ) -> Self {
        let summary = telemetry.summary();
        let mem = MemBlock {
            peak_bytes: mem.peak_bytes,
            allocated_bytes: mem.allocated,
            allocs: mem.allocs,
            accounted_peak: summary.counter(MEM_ACCOUNTED_PEAK),
            budget_bytes: summary.counter(MEM_BUDGET_BYTES),
            peak_over_budget_bytes: summary.counter(MEM_PEAK_OVER_BUDGET),
        };
        let critical_path = telemetry
            .virtual_critical_path()
            .map(|vcp| {
                vcp.phases
                    .iter()
                    .map(|p| PhaseBreakdown {
                        phase: p.phase.to_string(),
                        wall_s: p.wall_s,
                        share: p.share,
                        critical_task: p.critical.task as u64,
                        critical_node: p.critical.node as u64,
                        critical_dur_s: p.critical.dur_s,
                        median_ratio: p.median_ratio,
                    })
                    .collect()
            })
            .unwrap_or_default();
        Self {
            schema: SCHEMA.to_string(),
            workload: workload.to_string(),
            scale,
            users: users as u64,
            wall_ms,
            makespan_s: jobs.iter().map(|s| s.sim.makespan_s).sum(),
            map_phase_s: jobs.iter().map(|s| s.sim.map_phase_s).sum(),
            reduce_phase_s: jobs.iter().map(|s| s.sim.reduce_phase_s).sum(),
            jobs: jobs.len() as u64,
            map_tasks: jobs.iter().map(|s| s.map_tasks as u64).sum(),
            reduce_tasks: jobs.iter().map(|s| s.reduce_tasks as u64).sum(),
            shuffle_bytes: jobs.iter().map(|s| s.sim.shuffle_bytes).sum(),
            retries: jobs.iter().map(|s| s.counter(TASK_RETRIES)).sum(),
            reexecuted_maps: jobs.iter().map(|s| s.counter(REEXECUTED_MAPS)).sum(),
            mem,
            host,
            critical_path,
            tasks: summary
                .tasks
                .iter()
                .map(|t| TaskQuantiles {
                    kind: t.kind.clone(),
                    count: t.count,
                    p50_us: t.p50_us,
                    p95_us: t.p95_us,
                    max_us: t.max_us,
                })
                .collect(),
            counters: summary.counters.clone(),
        }
    }

    /// Serialises to pretty JSON (ends with a newline).
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.open_obj();
        w.str_field("schema", &self.schema);
        w.str_field("workload", &self.workload);
        w.f64_field("scale", self.scale);
        w.u64_field("users", self.users);
        w.u64_field("wall_ms", self.wall_ms);
        w.f64_field("makespan_s", self.makespan_s);
        w.f64_field("map_phase_s", self.map_phase_s);
        w.f64_field("reduce_phase_s", self.reduce_phase_s);
        w.u64_field("jobs", self.jobs);
        w.u64_field("map_tasks", self.map_tasks);
        w.u64_field("reduce_tasks", self.reduce_tasks);
        w.u64_field("shuffle_bytes", self.shuffle_bytes);
        w.u64_field("retries", self.retries);
        w.u64_field("reexecuted_maps", self.reexecuted_maps);
        w.open_obj_field("mem");
        w.u64_field("peak_bytes", self.mem.peak_bytes);
        w.u64_field("allocated_bytes", self.mem.allocated_bytes);
        w.u64_field("allocs", self.mem.allocs);
        w.u64_field("accounted_peak", self.mem.accounted_peak);
        w.u64_field("budget_bytes", self.mem.budget_bytes);
        w.u64_field("peak_over_budget_bytes", self.mem.peak_over_budget_bytes);
        w.close_obj();
        w.open_obj_field("host");
        w.u64_field("threads", self.host.threads);
        w.u64_field("tasks", self.host.tasks);
        w.u64_field("steals", self.host.steals);
        w.f64_field("busy_s", self.host.busy_s);
        w.f64_field("idle_s", self.host.idle_s);
        w.close_obj();
        w.open_arr_field("critical_path");
        for p in &self.critical_path {
            w.open_obj();
            w.str_field("phase", &p.phase);
            w.f64_field("wall_s", p.wall_s);
            w.f64_field("share", p.share);
            w.u64_field("critical_task", p.critical_task);
            w.u64_field("critical_node", p.critical_node);
            w.f64_field("critical_dur_s", p.critical_dur_s);
            w.f64_field("median_ratio", p.median_ratio);
            w.close_obj();
        }
        w.close_arr();
        w.open_arr_field("tasks");
        for t in &self.tasks {
            w.open_obj();
            w.str_field("kind", &t.kind);
            w.u64_field("count", t.count);
            w.u64_field("p50_us", t.p50_us);
            w.u64_field("p95_us", t.p95_us);
            w.u64_field("max_us", t.max_us);
            w.close_obj();
        }
        w.close_arr();
        w.open_obj_field("counters");
        for (name, value) in &self.counters {
            w.u64_field(name, *value);
        }
        w.close_obj();
        w.close_obj();
        w.finish()
    }

    /// Flattens this report into the diff engine's [`RunProfile`] so
    /// `gepeto-bench diff` (and the compare gate's failure diagnosis)
    /// can attribute deltas between two bench artifacts.
    pub fn profile(&self, label: &str) -> gepeto_telemetry::RunProfile {
        // Host-pool activity rides along as synthetic counters so the
        // diff engine can attribute a slowdown to idling executors
        // ([`HOST_IDLE_MS`] is special-cased there as a timed cause).
        let mut counters = self.counters.clone();
        if self.host.threads > 0 {
            counters.push(("host.busy_ms".to_string(), (self.host.busy_s * 1e3) as u64));
            counters.push((HOST_IDLE_MS.to_string(), (self.host.idle_s * 1e3) as u64));
            counters.push(("host.steals".to_string(), self.host.steals));
            counters.push(("host.threads".to_string(), self.host.threads));
        }
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gepeto_telemetry::RunProfile {
            label: label.to_string(),
            wall_ms: self.wall_ms,
            makespan_s: self.makespan_s,
            phases: vec![
                ("map".to_string(), self.map_phase_s),
                ("reduce".to_string(), self.reduce_phase_s),
            ],
            counters,
            tasks: self
                .tasks
                .iter()
                .map(|t| gepeto_telemetry::TaskCohort {
                    kind: t.kind.clone(),
                    count: t.count,
                    p50_us: t.p50_us,
                    p95_us: t.p95_us,
                    max_us: t.max_us,
                })
                .collect(),
        }
    }

    /// Parses and validates a bench file; errors name the missing or
    /// ill-typed field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| format!("malformed JSON: {e}"))?;
        let str_of = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string field '{key}'"))
        };
        let u64_of = |obj: &Json, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or non-integer field '{key}'"))
        };
        let f64_of = |obj: &Json, key: &str| -> Result<f64, String> {
            obj.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing or non-numeric field '{key}'"))
        };
        let schema = str_of("schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema '{schema}' (want '{SCHEMA}')"));
        }
        let critical_path = v
            .get("critical_path")
            .and_then(Json::as_arr)
            .ok_or("missing array field 'critical_path'")?
            .iter()
            .map(|p| {
                Ok(PhaseBreakdown {
                    phase: p
                        .get("phase")
                        .and_then(Json::as_str)
                        .ok_or("critical_path entry without 'phase'")?
                        .to_string(),
                    wall_s: f64_of(p, "wall_s")?,
                    share: f64_of(p, "share")?,
                    critical_task: u64_of(p, "critical_task")?,
                    critical_node: u64_of(p, "critical_node")?,
                    critical_dur_s: f64_of(p, "critical_dur_s")?,
                    median_ratio: f64_of(p, "median_ratio")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let tasks = v
            .get("tasks")
            .and_then(Json::as_arr)
            .ok_or("missing array field 'tasks'")?
            .iter()
            .map(|t| {
                Ok(TaskQuantiles {
                    kind: t
                        .get("kind")
                        .and_then(Json::as_str)
                        .ok_or("tasks entry without 'kind'")?
                        .to_string(),
                    count: u64_of(t, "count")?,
                    p50_us: u64_of(t, "p50_us")?,
                    p95_us: u64_of(t, "p95_us")?,
                    max_us: u64_of(t, "max_us")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mem_obj = v.get("mem").ok_or("missing object field 'mem'")?;
        let mem = MemBlock {
            peak_bytes: u64_of(mem_obj, "peak_bytes")?,
            allocated_bytes: u64_of(mem_obj, "allocated_bytes")?,
            allocs: u64_of(mem_obj, "allocs")?,
            accounted_peak: u64_of(mem_obj, "accounted_peak")?,
            budget_bytes: u64_of(mem_obj, "budget_bytes")?,
            peak_over_budget_bytes: u64_of(mem_obj, "peak_over_budget_bytes")?,
        };
        // Lenient by design: reports written before the pool existed
        // have no host block and read back as all-zero.
        let host = match v.get("host") {
            None => HostBlock::default(),
            Some(h) => HostBlock {
                threads: u64_of(h, "threads")?,
                tasks: u64_of(h, "tasks")?,
                steals: u64_of(h, "steals")?,
                busy_s: f64_of(h, "busy_s")?,
                idle_s: f64_of(h, "idle_s")?,
            },
        };
        let counters = v
            .get("counters")
            .and_then(Json::as_obj)
            .ok_or("missing object field 'counters'")?
            .iter()
            .map(|(name, value)| {
                value
                    .as_u64()
                    .map(|n| (name.clone(), n))
                    .ok_or_else(|| format!("counter '{name}' is not an integer"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            schema,
            workload: str_of("workload")?,
            scale: f64_of(&v, "scale")?,
            users: u64_of(&v, "users")?,
            wall_ms: u64_of(&v, "wall_ms")?,
            makespan_s: f64_of(&v, "makespan_s")?,
            map_phase_s: f64_of(&v, "map_phase_s")?,
            reduce_phase_s: f64_of(&v, "reduce_phase_s")?,
            jobs: u64_of(&v, "jobs")?,
            map_tasks: u64_of(&v, "map_tasks")?,
            reduce_tasks: u64_of(&v, "reduce_tasks")?,
            shuffle_bytes: u64_of(&v, "shuffle_bytes")?,
            retries: u64_of(&v, "retries")?,
            reexecuted_maps: u64_of(&v, "reexecuted_maps")?,
            mem,
            host,
            critical_path,
            tasks,
            counters,
        })
    }
}

/// One metric that moved between baseline and candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric name (`makespan_s`, `task.map.p95_us`, ...).
    pub metric: String,
    /// Baseline value.
    pub old: f64,
    /// Candidate value.
    pub new: f64,
    /// Relative change in percent (positive = candidate is larger).
    pub delta_pct: f64,
}

/// The outcome of `gepeto-bench compare`.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Cost metrics that grew past the threshold.
    pub regressions: Vec<MetricDelta>,
    /// Cost metrics that shrank past the threshold.
    pub improvements: Vec<MetricDelta>,
    /// Informational drift (counters, task counts) — never fails a run.
    pub notes: Vec<String>,
}

impl Comparison {
    /// Human-readable diff, one line per moved metric.
    pub fn render(&self, threshold_pct: f64) -> String {
        let mut out = String::new();
        let line = |out: &mut String, d: &MetricDelta, tag: &str| {
            out.push_str(&format!(
                "  {tag} {:<24} {:>14.3} -> {:>14.3}  ({:+.1}%)\n",
                d.metric, d.old, d.new, d.delta_pct
            ));
        };
        if self.regressions.is_empty() && self.improvements.is_empty() {
            out.push_str(&format!(
                "no cost metric moved more than {threshold_pct:.1}%\n"
            ));
        }
        for d in &self.regressions {
            line(&mut out, d, "REGRESSION");
        }
        for d in &self.improvements {
            line(&mut out, d, "improved  ");
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }
}

fn delta_pct(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (new - old) / old * 100.0
    }
}

/// Diffs two bench reports. Cost metrics (times, shuffled bytes, task
/// p95s) whose relative growth exceeds `threshold_pct` become
/// regressions; shrinkage past the same threshold is reported as an
/// improvement. Structural drift (task counts, counters, recovery
/// activity) lands in `notes`.
pub fn compare(old: &BenchReport, new: &BenchReport, threshold_pct: f64) -> Comparison {
    compare_ignoring(old, new, threshold_pct, &[])
}

/// Like [`compare`], but skips cost metrics matching an `ignore` entry:
/// a metric is skipped when its name equals the entry or starts with
/// `entry + "."` (so `task` covers every `task.<kind>.p95_us`). Used
/// when diffing against committed baselines, where host-dependent
/// metrics (`wall_ms`, task p95s) would flag machine speed, not code.
pub fn compare_ignoring(
    old: &BenchReport,
    new: &BenchReport,
    threshold_pct: f64,
    ignore: &[&str],
) -> Comparison {
    let mut cmp = Comparison::default();
    if old.workload != new.workload {
        cmp.notes.push(format!(
            "comparing different workloads: '{}' vs '{}'",
            old.workload, new.workload
        ));
    }
    if old.scale != new.scale || old.users != new.users {
        cmp.notes.push(format!(
            "shape mismatch: scale {} users {} vs scale {} users {}",
            old.scale, old.users, new.scale, new.users
        ));
    }
    let mut cost = |metric: &str, old_v: f64, new_v: f64| {
        let skipped = ignore
            .iter()
            .any(|e| metric == *e || metric.starts_with(&format!("{e}.")));
        if skipped {
            return;
        }
        let pct = delta_pct(old_v, new_v);
        let moved = MetricDelta {
            metric: metric.to_string(),
            old: old_v,
            new: new_v,
            delta_pct: pct,
        };
        if pct > threshold_pct {
            cmp.regressions.push(moved);
        } else if pct < -threshold_pct {
            cmp.improvements.push(moved);
        }
    };
    cost("wall_ms", old.wall_ms as f64, new.wall_ms as f64);
    cost("makespan_s", old.makespan_s, new.makespan_s);
    cost("map_phase_s", old.map_phase_s, new.map_phase_s);
    cost("reduce_phase_s", old.reduce_phase_s, new.reduce_phase_s);
    cost(
        "shuffle_bytes",
        old.shuffle_bytes as f64,
        new.shuffle_bytes as f64,
    );
    // Memory is a cost metric like time: a candidate whose heap peak or
    // accounted shuffle peak grew past the threshold fails the gate. An
    // overshoot appearing where the baseline had none is an infinite
    // regression — the run started spilling.
    cost(
        MEM_PEAK_BYTES,
        old.mem.peak_bytes as f64,
        new.mem.peak_bytes as f64,
    );
    cost(
        MEM_ALLOCATED_BYTES,
        old.mem.allocated_bytes as f64,
        new.mem.allocated_bytes as f64,
    );
    cost(
        MEM_ACCOUNTED_PEAK,
        old.mem.accounted_peak as f64,
        new.mem.accounted_peak as f64,
    );
    cost(
        MEM_PEAK_OVER_BUDGET,
        old.mem.peak_over_budget_bytes as f64,
        new.mem.peak_over_budget_bytes as f64,
    );
    if old.mem.budget_bytes != new.mem.budget_bytes {
        cmp.notes.push(format!(
            "mem budget: {} -> {}",
            old.mem.budget_bytes, new.mem.budget_bytes
        ));
    }
    // Host parallelism is a run configuration, not a cost: a different
    // thread count explains wall-time movement rather than gating it.
    if old.host.threads != new.host.threads {
        cmp.notes.push(format!(
            "host threads: {} -> {}",
            old.host.threads, new.host.threads
        ));
    }
    for t_new in &new.tasks {
        if let Some(t_old) = old.tasks.iter().find(|t| t.kind == t_new.kind) {
            cost(
                &format!("task.{}.p95_us", t_new.kind),
                t_old.p95_us as f64,
                t_new.p95_us as f64,
            );
        }
    }
    for (name, old_v, new_v) in [
        ("jobs", old.jobs, new.jobs),
        ("map_tasks", old.map_tasks, new.map_tasks),
        ("reduce_tasks", old.reduce_tasks, new.reduce_tasks),
        ("retries", old.retries, new.retries),
        ("reexecuted_maps", old.reexecuted_maps, new.reexecuted_maps),
    ] {
        if old_v != new_v {
            cmp.notes.push(format!("{name}: {old_v} -> {new_v}"));
        }
    }
    for (name, new_v) in &new.counters {
        // Durability bookkeeping (retry/repair/replay tallies) tracks
        // fault-injection luck and resume history, not workload cost —
        // drift there is expected and must not spam baseline diffs.
        if DURABILITY_COUNTER_PREFIXES
            .iter()
            .any(|p| name.starts_with(p))
        {
            continue;
        }
        let old_v = old
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v);
        if old_v != Some(*new_v) {
            cmp.notes.push(format!(
                "counter {name}: {} -> {new_v}",
                old_v.map_or("absent".to_string(), |v| v.to_string())
            ));
        }
    }
    cmp
}

/// Counter families exempt from baseline-drift notes: storage-fault
/// repairs and journal replays vary run to run by design, and the
/// memory counters already gate through the dedicated `mem` block (a
/// second note per moved byte would just be noise).
const DURABILITY_COUNTER_PREFIXES: &[&str] = &[
    "io.",
    "journal.",
    RUNS_QUARANTINED,
    "mem.",
    SPILL_ESTIMATE_ERROR,
];

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            schema: SCHEMA.to_string(),
            workload: "sampling".to_string(),
            scale: 0.05,
            users: 178,
            wall_ms: 1234,
            makespan_s: 87.5,
            map_phase_s: 60.0,
            reduce_phase_s: 27.5,
            jobs: 1,
            map_tasks: 9,
            reduce_tasks: 7,
            shuffle_bytes: 1_000_000,
            retries: 0,
            reexecuted_maps: 0,
            mem: MemBlock {
                peak_bytes: 40_000_000,
                allocated_bytes: 250_000_000,
                allocs: 1_200_000,
                accounted_peak: 30_000_000,
                budget_bytes: 64_000_000,
                peak_over_budget_bytes: 0,
            },
            host: HostBlock {
                threads: 4,
                tasks: 640,
                steals: 12,
                busy_s: 3.5,
                idle_s: 1.5,
            },
            critical_path: vec![PhaseBreakdown {
                phase: "map".to_string(),
                wall_s: 60.0,
                share: 0.685,
                critical_task: 3,
                critical_node: 2,
                critical_dur_s: 14.0,
                median_ratio: 2.8,
            }],
            tasks: vec![TaskQuantiles {
                kind: "map".to_string(),
                count: 9,
                p50_us: 1500,
                p95_us: 4000,
                max_us: 4100,
            }],
            counters: vec![("mapred.shuffle.bytes".to_string(), 1_000_000)],
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let report = sample_report();
        let text = report.to_json();
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn reports_without_a_host_block_parse_as_all_zero() {
        // Pre-pool artifacts have no "host" object; they stay valid
        // under the same schema and read back with a zeroed block.
        let report = sample_report();
        let text = report.to_json();
        let start = text.find("\"host\": {").unwrap();
        let end = start + text[start..].find('}').unwrap() + 2; // "},"
        let stripped = format!("{}{}", &text[..start], &text[end..]);
        let back = BenchReport::from_json(&stripped).unwrap();
        assert_eq!(back.host, HostBlock::default());
        assert_eq!(back.wall_ms, report.wall_ms);
        // And a thread-count change is a note, never a regression.
        let cmp = compare(&back, &report, 5.0);
        assert!(cmp.regressions.is_empty(), "{:?}", cmp.regressions);
        assert!(
            cmp.notes.iter().any(|n| n.contains("host threads: 0 -> 4")),
            "{:?}",
            cmp.notes
        );
    }

    #[test]
    fn from_json_rejects_missing_fields_and_wrong_schema() {
        let mut report = sample_report();
        report.schema = "gepeto-bench/999".to_string();
        let err = BenchReport::from_json(&report.to_json()).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");

        let text = sample_report().to_json().replace("\"makespan_s\"", "\"x\"");
        let err = BenchReport::from_json(&text).unwrap_err();
        assert!(err.contains("makespan_s"), "{err}");
    }

    #[test]
    fn identical_reports_have_no_regressions() {
        let a = sample_report();
        let cmp = compare(&a, &a.clone(), 5.0);
        assert!(cmp.regressions.is_empty());
        assert!(cmp.improvements.is_empty());
        assert!(cmp.notes.is_empty());
    }

    #[test]
    fn injected_slowdown_is_flagged_and_speedup_is_credited() {
        let a = sample_report();
        let mut b = a.clone();
        b.makespan_s *= 1.20; // +20% past a 5% threshold
        b.tasks[0].p95_us = 2000; // -50%: an improvement
        let cmp = compare(&a, &b, 5.0);
        assert_eq!(cmp.regressions.len(), 1);
        assert_eq!(cmp.regressions[0].metric, "makespan_s");
        assert!((cmp.regressions[0].delta_pct - 20.0).abs() < 1e-9);
        assert_eq!(cmp.improvements.len(), 1);
        assert_eq!(cmp.improvements[0].metric, "task.map.p95_us");
    }

    #[test]
    fn structural_drift_lands_in_notes_not_regressions() {
        let a = sample_report();
        let mut b = a.clone();
        b.map_tasks = 12;
        b.counters[0].1 = 999;
        b.counters.push(("mapred.task.retries".to_string(), 2));
        let cmp = compare(&a, &b, 5.0);
        assert!(cmp.regressions.is_empty());
        assert_eq!(cmp.notes.len(), 3);
        assert!(cmp.notes.iter().any(|n| n.contains("map_tasks")));
        assert!(cmp.notes.iter().any(|n| n.contains("absent")));
    }

    #[test]
    fn memory_regressions_trip_the_gate() {
        let a = sample_report();
        let mut b = a.clone();
        b.mem.peak_bytes = (a.mem.peak_bytes as f64 * 1.30) as u64; // +30%
        let cmp = compare(&a, &b, 5.0);
        assert_eq!(cmp.regressions.len(), 1);
        assert_eq!(cmp.regressions[0].metric, "mem.peak_bytes");

        // An overshoot appearing from a zero baseline is infinite: the
        // candidate started spilling.
        let mut c = a.clone();
        c.mem.peak_over_budget_bytes = 27_000_000;
        let cmp = compare(&a, &c, 5.0);
        assert!(cmp
            .regressions
            .iter()
            .any(|d| d.metric == "mem.peak_over_budget_bytes" && d.delta_pct.is_infinite()));

        // A shrinking heap is credited, and a budget change is a note,
        // not a regression.
        let mut d = a.clone();
        d.mem.allocated_bytes /= 2;
        d.mem.budget_bytes = 128_000_000;
        let cmp = compare(&a, &d, 5.0);
        assert!(cmp.regressions.is_empty());
        assert!(cmp
            .improvements
            .iter()
            .any(|m| m.metric == "mem.allocated_bytes"));
        assert!(cmp.notes.iter().any(|n| n.contains("mem budget")));
    }

    #[test]
    fn memory_counters_are_exempt_from_notes_like_durability() {
        let a = sample_report();
        let mut b = a.clone();
        b.counters.push(("mem.accounted_peak".to_string(), 123));
        b.counters.push(("mem.peak_bytes".to_string(), 456));
        b.counters
            .push(("spill.estimate_error_bytes".to_string(), 789));
        let cmp = compare(&a, &b, 5.0);
        assert!(cmp.notes.is_empty(), "{:?}", cmp.notes);
        // Other spill counters still note drift.
        b.counters.push(("spill.files".to_string(), 3));
        assert_eq!(compare(&a, &b, 5.0).notes.len(), 1);
    }

    #[test]
    fn durability_counter_drift_is_exempt_from_notes() {
        let a = sample_report();
        let mut b = a.clone();
        b.counters.push(("io.retries".to_string(), 14));
        b.counters.push(("io.torn_writes_detected".to_string(), 3));
        b.counters.push(("journal.replayed_tasks".to_string(), 7));
        b.counters.push(("spill.runs_quarantined".to_string(), 2));
        let cmp = compare(&a, &b, 5.0);
        assert!(cmp.notes.is_empty(), "{:?}", cmp.notes);
        // A non-durability counter appearing still makes a note.
        b.counters.push(("mapred.task.retries".to_string(), 1));
        assert_eq!(compare(&a, &b, 5.0).notes.len(), 1);
    }

    #[test]
    fn ignore_list_skips_exact_and_prefixed_cost_metrics() {
        let a = sample_report();
        let mut b = a.clone();
        b.wall_ms = 100_000; // host noise: must be ignorable
        b.tasks[0].p95_us = 40_000; // task.map.p95_us: covered by "task"
        b.makespan_s *= 1.5; // virtual: must still be flagged
        let cmp = compare_ignoring(&a, &b, 5.0, &["wall_ms", "task"]);
        assert_eq!(cmp.regressions.len(), 1);
        assert_eq!(cmp.regressions[0].metric, "makespan_s");
        // Without the ignore list all three are regressions.
        assert_eq!(compare(&a, &b, 5.0).regressions.len(), 3);
    }

    #[test]
    fn profile_flattens_report_and_self_diff_is_clean() {
        let a = sample_report();
        let p = a.profile("base");
        assert_eq!(p.wall_ms, a.wall_ms);
        assert_eq!(p.makespan_s, a.makespan_s);
        assert_eq!(p.phases[0], ("map".to_string(), a.map_phase_s));
        let d = gepeto_telemetry::diff::diff(&p, &a.profile("cand"));
        assert!(d.causes.is_empty());
        assert!(d.render().contains("no significant delta"));
    }

    #[test]
    fn zero_baseline_growth_is_a_regression() {
        let a = sample_report();
        let mut b = a.clone();
        let mut zeroed = a.clone();
        zeroed.shuffle_bytes = 0;
        b.shuffle_bytes = 10;
        let cmp = compare(&zeroed, &b, 5.0);
        assert!(cmp
            .regressions
            .iter()
            .any(|d| d.metric == "shuffle_bytes" && d.delta_pct.is_infinite()));
    }
}
