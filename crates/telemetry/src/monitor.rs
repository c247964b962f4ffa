//! Live run monitoring: a lock-light progress registry updated in place
//! by the engine, plus a background [`Reporter`] that renders
//! jobtracker-style heartbeat lines and Prometheus text exposition
//! while the run is still in flight.
//!
//! The paper's cluster runs were watched through Hadoop's
//! jobtracker/tasktracker heartbeats; everything else in this crate is
//! post-hoc (computed from a finished [`crate::Recorder`]). The
//! [`Monitor`] closes that gap: hot paths bump relaxed atomics (no
//! event allocation, no lock on the counter path), and a snapshot at
//! any instant is a consistent-enough [`MetricsSnapshot`] for an
//! operator to spot stragglers, crashes and stalled iterations before
//! the run completes.

use crate::histogram::Histogram;
use crate::registry::{self, Kind, METRICS};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The live progress registry shared between the engine's hot paths and
/// the reporter thread. Every [`registry`] row has one relaxed atomic
/// cell; per-node occupancy and histograms take a short `parking_lot`
/// lock on the (rare) task-completion path only.
#[derive(Debug)]
pub struct Monitor {
    /// One cell per registry row, in table order.
    values: [AtomicU64; METRICS.len()],
    driver_iteration: AtomicU64,
    /// The driver's latest convergence delta, stored as `f64` bits.
    driver_delta_bits: AtomicU64,
    /// Virtual busy microseconds per node, indexed by node id.
    node_busy_us: Mutex<Vec<u64>>,
    /// Allocator peak observed inside each `phase.*` span, max-merged
    /// across repeats (k-means iterations), fed by span close.
    phase_peak_bytes: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    /// Run identity (`run_id`, command line) surfaced as the
    /// `gepeto_run_info` Prometheus family, set once by the driver.
    run_info: Mutex<Option<(String, String)>>,
}

impl Default for Monitor {
    fn default() -> Self {
        Self::new()
    }
}

impl Monitor {
    /// An empty registry (all zeros).
    pub fn new() -> Self {
        Self {
            values: [const { AtomicU64::new(0) }; METRICS.len()],
            driver_iteration: AtomicU64::new(0),
            driver_delta_bits: AtomicU64::new(f64::NAN.to_bits()),
            node_busy_us: Mutex::default(),
            phase_peak_bytes: Mutex::default(),
            histograms: Mutex::default(),
            run_info: Mutex::default(),
        }
    }

    fn cell(&self, metric: &str) -> Option<&AtomicU64> {
        registry::position(metric).map(|i| &self.values[i])
    }

    /// Adds `n` to registry metric `metric` (names outside the registry
    /// are ignored).
    pub fn add(&self, metric: &str, n: u64) {
        if let Some(cell) = self.cell(metric) {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Raises registry metric `metric` to `n` if it is lower — the fold
    /// of [`Kind::Max`] rows.
    pub fn max(&self, metric: &str, n: u64) {
        if let Some(cell) = self.cell(metric) {
            cell.fetch_max(n, Ordering::Relaxed);
        }
    }

    /// Records the run's identity for the `gepeto_run_info` family.
    pub fn set_run_info(&self, run_id: &str, command: &str) {
        *self.run_info.lock() = Some((run_id.to_owned(), command.to_owned()));
    }

    /// The iterative driver finished an iteration with this delta.
    pub fn set_driver_progress(&self, iteration: u64, delta: f64) {
        self.driver_iteration.store(iteration, Ordering::Relaxed);
        self.driver_delta_bits
            .store(delta.to_bits(), Ordering::Relaxed);
    }

    /// `node` spent `secs` more virtual seconds running attempts.
    pub fn node_busy(&self, node: usize, secs: f64) {
        if secs.is_nan() || secs <= 0.0 {
            return;
        }
        let mut busy = self.node_busy_us.lock();
        if busy.len() <= node {
            busy.resize(node + 1, 0);
        }
        busy[node] += (secs * 1e6) as u64;
    }

    /// A `phase.<phase>` span closed having observed this allocator
    /// peak; the per-phase high-water mark keeps the max across repeats.
    pub fn note_phase_peak(&self, phase: &str, peak_bytes: u64) {
        let mut peaks = self.phase_peak_bytes.lock();
        let entry = peaks.entry(phase.to_owned()).or_insert(0);
        *entry = (*entry).max(peak_bytes);
    }

    /// Records a sample into the named live histogram.
    pub fn observe(&self, name: &str, value: u64) {
        let mut histograms = self.histograms.lock();
        match histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                let mut h = Histogram::new();
                h.observe(value);
                histograms.insert(name.to_owned(), h);
            }
        }
    }

    /// A point-in-time copy of every gauge, counter and histogram.
    /// Heap gauges are read straight off the process-wide
    /// [`crate::alloc::TrackingAllocator`] counters; pool gauges off the
    /// global `gepeto-pool` counters (all zero until something creates
    /// the pool — the snapshot never forces its creation).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mem = crate::alloc::mem_stats();
        let pool = gepeto_pool::global_stats();
        MetricsSnapshot {
            values: self.values.each_ref().map(|v| v.load(Ordering::Relaxed)),
            driver_iteration: self.driver_iteration.load(Ordering::Relaxed),
            driver_delta: f64::from_bits(self.driver_delta_bits.load(Ordering::Relaxed)),
            mem_live_bytes: mem.live_bytes,
            mem_peak_bytes: mem.peak_bytes,
            mem_allocated_bytes: mem.total_allocated,
            mem_allocs: mem.allocs,
            pool_threads: pool.threads as u64,
            pool_tasks: pool.tasks,
            pool_steals: pool.steals,
            pool_batches: pool.batches,
            pool_worker_busy_s: pool
                .worker_busy_ns
                .iter()
                .map(|&ns| ns as f64 / 1e9)
                .collect(),
            pool_caller_busy_s: pool.caller_busy_ns as f64 / 1e9,
            phase_peak_bytes: self
                .phase_peak_bytes
                .lock()
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            node_busy_s: self
                .node_busy_us
                .lock()
                .iter()
                .map(|&us| us as f64 / 1e6)
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            run_info: self.run_info.lock().clone(),
        }
    }
}

/// One consistent-enough copy of the [`Monitor`]'s state.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Every registry row's value, in table order (see [`Self::get`]).
    values: [u64; METRICS.len()],
    /// The driver's current iteration (0 before the first completes).
    pub driver_iteration: u64,
    /// The driver's latest convergence delta (NaN before the first).
    pub driver_delta: f64,
    /// Bytes currently live on the heap (tracking allocator).
    pub mem_live_bytes: u64,
    /// All-time peak live heap bytes (tracking allocator).
    pub mem_peak_bytes: u64,
    /// Cumulative bytes allocated by the process.
    pub mem_allocated_bytes: u64,
    /// Cumulative allocation calls made by the process.
    pub mem_allocs: u64,
    /// Work-stealing pool parallelism (0 until the pool exists).
    pub pool_threads: u64,
    /// Tasks executed on the work-stealing pool.
    pub pool_tasks: u64,
    /// Steal-half operations between pool workers.
    pub pool_steals: u64,
    /// Batches submitted to the pool.
    pub pool_batches: u64,
    /// Busy seconds per spawned pool worker.
    pub pool_worker_busy_s: Vec<f64>,
    /// Busy seconds submitting threads spent executing pool tasks.
    pub pool_caller_busy_s: f64,
    /// Allocator peak observed inside each phase, max across repeats.
    pub phase_peak_bytes: Vec<(String, u64)>,
    /// Virtual busy seconds per node, indexed by node id.
    pub node_busy_s: Vec<f64>,
    /// Live histograms, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
    /// Run identity (`run_id`, command), when the driver set one.
    pub run_info: Option<(String, String)>,
}

/// Formats a byte count with a binary-ish human unit.
pub(crate) fn fmt_bytes(n: u64) -> String {
    match n {
        0..=9_999 => format!("{n} B"),
        10_000..=9_999_999 => format!("{:.1} KB", n as f64 / 1e3),
        10_000_000..=9_999_999_999 => format!("{:.1} MB", n as f64 / 1e6),
        _ => format!("{:.1} GB", n as f64 / 1e9),
    }
}

impl MetricsSnapshot {
    /// Registry metric `metric`'s value (0 for names outside the
    /// registry).
    pub fn get(&self, metric: &str) -> u64 {
        registry::position(metric).map_or(0, |i| self.values[i])
    }

    /// One Hadoop-jobtracker-style heartbeat line, e.g.
    ///
    /// ```text
    /// maps 12/16 75% | reduces 2/4 50% | shuffle 1.2 MB | retries 3 reexec 2 blacklist 1 killed 0 | iter 3 delta 0.00123
    /// ```
    pub fn status_line(&self) -> String {
        use registry::*;
        let get = |metric| self.get(metric);
        let progress = |done: u64, total: u64| -> String {
            if total == 0 {
                format!("{done}/{total}")
            } else {
                format!("{done}/{total} {:.0}%", 100.0 * done as f64 / total as f64)
            }
        };
        let mut line = format!(
            "maps {} | reduces {} | shuffle {} | retries {} reexec {} blacklist {} killed {}",
            progress(get(MAP_TASKS_DONE), get(MAP_TASKS_SCHEDULED)),
            progress(get(REDUCE_TASKS_DONE), get(REDUCE_TASKS_SCHEDULED)),
            fmt_bytes(get(SHUFFLE_BYTES)),
            get(TASK_RETRIES),
            get(REEXECUTED_MAPS),
            get(BLACKLISTED_NODES),
            get(CRASH_KILLED),
        );
        let (spilled, spill_files) = (get(SPILLED_BYTES), get(SPILL_FILES));
        if spilled > 0 || spill_files > 0 {
            let _ = write!(
                line,
                " | spill {} in {spill_files} runs",
                fmt_bytes(spilled)
            );
        }
        let (io_retries, torn, quarantined) =
            (get(IO_RETRIES), get(TORN_WRITES), get(RUNS_QUARANTINED));
        if io_retries > 0 || torn > 0 || quarantined > 0 {
            let _ = write!(
                line,
                " | io retries {io_retries} torn {torn} quarantined {quarantined}"
            );
        }
        if get(IO_STALL_MS) > 0 {
            let _ = write!(line, " stall {:.1}s", get(IO_STALL_MS) as f64 / 1e3);
        }
        if get(JOURNAL_REPLAYED) > 0 {
            let _ = write!(line, " | replayed {}", get(JOURNAL_REPLAYED));
        }
        if self.mem_live_bytes > 0 || self.mem_peak_bytes > 0 {
            let _ = write!(
                line,
                " | mem {} peak {}",
                fmt_bytes(self.mem_live_bytes),
                fmt_bytes(self.mem_peak_bytes)
            );
        }
        if self.driver_iteration > 0 {
            let _ = write!(line, " | iter {}", self.driver_iteration);
            if self.driver_delta.is_finite() {
                let _ = write!(line, " delta {:.5}", self.driver_delta);
            }
        }
        if !self.node_busy_s.is_empty() {
            line.push_str(" | busy");
            for (node, s) in self.node_busy_s.iter().enumerate() {
                let _ = write!(line, " n{node}:{s:.1}s");
            }
        }
        line
    }

    /// Serializes the snapshot in the Prometheus text-exposition format
    /// (one `# HELP`/`# TYPE` header per family; histogram families
    /// reuse the log-bucket bounds of [`Histogram`] as `le` values).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        let mut metric = |name: &str, kind: &str, help: &str, value: f64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let _ = writeln!(out, "{name} {value}");
        };
        for (row, &value) in METRICS.iter().zip(&self.values) {
            if let Some(family) = row.family {
                let kind = match row.kind {
                    Kind::Sum => "counter",
                    Kind::Max => "gauge",
                };
                metric(family, kind, row.help, value as f64);
            }
        }
        metric(
            "gepeto_jobs_running",
            "gauge",
            "Jobs started but not yet finished.",
            self.get(registry::JOBS_STARTED)
                .saturating_sub(self.get(registry::JOBS_FINISHED)) as f64,
        );
        metric(
            "gepeto_driver_iteration",
            "gauge",
            "Current driver iteration (0 before the first completes).",
            self.driver_iteration as f64,
        );
        if self.driver_delta.is_finite() {
            metric(
                "gepeto_driver_delta",
                "gauge",
                "Latest driver convergence delta.",
                self.driver_delta,
            );
        }
        metric(
            "gepeto_mem_live_bytes",
            "gauge",
            "Bytes currently live on the heap (tracking allocator).",
            self.mem_live_bytes as f64,
        );
        metric(
            "gepeto_mem_peak_bytes",
            "gauge",
            "All-time peak live heap bytes (tracking allocator).",
            self.mem_peak_bytes as f64,
        );
        metric(
            "gepeto_mem_allocated_bytes_total",
            "counter",
            "Cumulative bytes allocated by the process.",
            self.mem_allocated_bytes as f64,
        );
        metric(
            "gepeto_mem_allocs_total",
            "counter",
            "Cumulative allocation calls made by the process.",
            self.mem_allocs as f64,
        );
        metric(
            "gepeto_pool_threads",
            "gauge",
            "Work-stealing pool parallelism (0 until the pool exists).",
            self.pool_threads as f64,
        );
        metric(
            "gepeto_pool_tasks_total",
            "counter",
            "Tasks executed on the work-stealing pool.",
            self.pool_tasks as f64,
        );
        metric(
            "gepeto_pool_steals_total",
            "counter",
            "Steal-half operations between pool workers.",
            self.pool_steals as f64,
        );
        metric(
            "gepeto_pool_batches_total",
            "counter",
            "Batches submitted to the work-stealing pool.",
            self.pool_batches as f64,
        );
        if !self.pool_worker_busy_s.is_empty() || self.pool_caller_busy_s > 0.0 {
            let _ = writeln!(
                out,
                "# HELP gepeto_pool_worker_busy_seconds Wall seconds each pool executor spent running tasks."
            );
            let _ = writeln!(out, "# TYPE gepeto_pool_worker_busy_seconds gauge");
            for (worker, s) in self.pool_worker_busy_s.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "gepeto_pool_worker_busy_seconds{{worker=\"{worker}\"}} {s}"
                );
            }
            let _ = writeln!(
                out,
                "gepeto_pool_worker_busy_seconds{{worker=\"caller\"}} {}",
                self.pool_caller_busy_s
            );
        }
        if !self.phase_peak_bytes.is_empty() {
            let _ = writeln!(
                out,
                "# HELP gepeto_mem_phase_peak_bytes Allocator peak observed inside each phase (max across repeats)."
            );
            let _ = writeln!(out, "# TYPE gepeto_mem_phase_peak_bytes gauge");
            for (phase, peak) in &self.phase_peak_bytes {
                let _ = writeln!(
                    out,
                    "gepeto_mem_phase_peak_bytes{{phase=\"{}\"}} {peak}",
                    escape_label_value(phase)
                );
            }
        }
        if let Some((run_id, command)) = &self.run_info {
            let _ = writeln!(
                out,
                "# HELP gepeto_run_info Identity of the run behind this exposition."
            );
            let _ = writeln!(out, "# TYPE gepeto_run_info gauge");
            let _ = writeln!(
                out,
                "gepeto_run_info{{run_id=\"{}\",command=\"{}\"}} 1",
                escape_label_value(run_id),
                escape_label_value(command)
            );
        }
        if !self.node_busy_s.is_empty() {
            let _ = writeln!(
                out,
                "# HELP gepeto_node_busy_seconds Virtual seconds each node spent running attempts."
            );
            let _ = writeln!(out, "# TYPE gepeto_node_busy_seconds gauge");
            for (node, s) in self.node_busy_s.iter().enumerate() {
                let _ = writeln!(out, "gepeto_node_busy_seconds{{node=\"{node}\"}} {s}");
            }
        }
        for (name, h) in &self.histograms {
            let family = format!("gepeto_{}", sanitize_metric_name(name));
            let _ = writeln!(out, "# HELP {family} Live histogram '{name}'.");
            let _ = writeln!(out, "# TYPE {family} histogram");
            let mut cumulative = 0u64;
            for (i, &count) in h.buckets().iter().enumerate() {
                if count == 0 {
                    continue;
                }
                cumulative += count;
                let (_, upper) = Histogram::bucket_bounds(i);
                let _ = writeln!(out, "{family}_bucket{{le=\"{upper}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{family}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{family}_sum {}", h.sum());
            let _ = writeln!(out, "{family}_count {}", h.count());
        }
        out
    }
}

/// Escapes a Prometheus label *value* per the text-exposition rules:
/// backslash, double-quote and newline must be backslash-escaped (and we
/// fold carriage returns into `\n` so no raw control byte survives).
pub(crate) fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' | '\r' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Maps a dotted internal metric name onto the Prometheus charset.
fn sanitize_metric_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// The background heartbeat thread behind `--watch` / `--prom-out`.
///
/// Ticks every `every` until stopped, rendering the monitor's
/// [`MetricsSnapshot::status_line`] to stderr (when `echo`) and
/// rewriting the Prometheus exposition file (when `prom_out` is set).
/// A final tick runs at shutdown, so even runs shorter than one
/// interval leave a complete exposition file behind.
#[derive(Debug)]
pub struct Reporter {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Reporter {
    /// Spawns the reporter thread.
    pub fn start(
        monitor: Arc<Monitor>,
        every: Duration,
        prom_out: Option<PathBuf>,
        echo: bool,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let started = Instant::now();
            let tick = |final_tick: bool| {
                let snapshot = monitor.snapshot();
                if echo {
                    let tag = if final_tick { "done" } else { "watch" };
                    eprintln!(
                        "[{tag} +{:.1}s] {}",
                        started.elapsed().as_secs_f64(),
                        snapshot.status_line()
                    );
                }
                if let Some(path) = &prom_out {
                    // Best-effort: a transiently unwritable path must not
                    // kill the run being observed.
                    let _ = std::fs::write(path, snapshot.to_prometheus());
                }
            };
            while !stop_flag.load(Ordering::Relaxed) {
                // Sleep in short slices so stop() returns promptly even
                // with a multi-second interval.
                let mut slept = Duration::ZERO;
                while slept < every && !stop_flag.load(Ordering::Relaxed) {
                    let slice = (every - slept).min(Duration::from_millis(25));
                    std::thread::sleep(slice);
                    slept += slice;
                }
                if stop_flag.load(Ordering::Relaxed) {
                    break;
                }
                tick(false);
            }
            tick(true);
        });
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Signals the thread, waits for its final tick, and joins it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Reporter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::*;

    #[test]
    fn snapshot_reflects_updates_and_progress_is_monotonic() {
        let m = Monitor::new();
        m.add(JOBS_STARTED, 1);
        m.add(MAP_TASKS_SCHEDULED, 4);
        let mut last_done = 0;
        for _ in 0..4 {
            m.add(MAP_TASKS_DONE, 1);
            let s = m.snapshot();
            assert!(s.get(MAP_TASKS_DONE) > last_done);
            last_done = s.get(MAP_TASKS_DONE);
        }
        m.add(SHUFFLE_BYTES, 1_000);
        m.add(TASK_RETRIES, 1);
        m.add(BLACKLISTED_NODES, 1);
        m.set_driver_progress(3, 0.125);
        m.node_busy(2, 1.5);
        m.add(JOBS_FINISHED, 1);
        let s = m.snapshot();
        assert_eq!(s.get(MAP_TASKS_DONE), 4);
        assert_eq!(s.get(MAP_TASKS_SCHEDULED), 4);
        assert_eq!(s.get(SHUFFLE_BYTES), 1_000);
        assert_eq!(s.get(TASK_RETRIES), 1);
        assert_eq!(s.get(BLACKLISTED_NODES), 1);
        assert_eq!(s.driver_iteration, 3);
        assert_eq!(s.driver_delta, 0.125);
        assert_eq!(s.node_busy_s.len(), 3);
        assert!((s.node_busy_s[2] - 1.5).abs() < 1e-9);
        assert_eq!(s.get(JOBS_STARTED), 1);
        assert_eq!(s.get(JOBS_FINISHED), 1);
    }

    #[test]
    fn status_line_shows_progress_and_guards_empty_totals() {
        let m = Monitor::new();
        let empty = m.snapshot().status_line();
        assert!(empty.contains("maps 0/0"), "{empty}");
        assert!(!empty.contains('%'), "{empty}");
        assert!(!empty.contains("iter"), "{empty}");
        m.add(MAP_TASKS_SCHEDULED, 4);
        m.add(MAP_TASKS_DONE, 1);
        m.add(MAP_TASKS_DONE, 1);
        m.set_driver_progress(2, 0.5);
        let line = m.snapshot().status_line();
        assert!(line.contains("maps 2/4 50%"), "{line}");
        assert!(line.contains("iter 2 delta 0.50000"), "{line}");
    }

    #[test]
    fn status_line_surfaces_spill_io_and_replay_counters_when_nonzero() {
        let m = Monitor::new();
        let quiet = m.snapshot().status_line();
        assert!(!quiet.contains("spill"), "{quiet}");
        assert!(!quiet.contains("io retries"), "{quiet}");
        assert!(!quiet.contains("replayed"), "{quiet}");
        m.add(SPILLED_BYTES, 65_536);
        m.add(SPILL_FILES, 3);
        m.add(IO_RETRIES, 5);
        m.add(TORN_WRITES, 1);
        m.add(RUNS_QUARANTINED, 2);
        m.add(IO_STALL_MS, 2_500);
        m.add(JOURNAL_REPLAYED, 4);
        let line = m.snapshot().status_line();
        assert!(line.contains("spill 65.5 KB in 3 runs"), "{line}");
        assert!(line.contains("io retries 5 torn 1 quarantined 2"), "{line}");
        assert!(line.contains("stall 2.5s"), "{line}");
        assert!(line.contains("replayed 4"), "{line}");
    }

    #[test]
    fn run_info_labels_are_escaped() {
        let m = Monitor::new();
        m.add(IO_STALL_MS, 7);
        m.set_run_info("r\"1\"\n", "kmeans --run-dir C:\\tmp");
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("gepeto_io_stall_ms_total 7"), "{text}");
        assert!(
            text.contains("gepeto_run_info{run_id=\"r\\\"1\\\"\\n\",command=\"kmeans --run-dir C:\\\\tmp\"} 1"),
            "{text}"
        );
        // No raw newline inside a sample line.
        for line in text.lines() {
            assert!(!line.contains('\r'));
        }
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }

    #[test]
    fn mem_gauges_flow_from_the_allocator_into_the_exposition() {
        let m = Monitor::new();
        m.note_phase_peak("map", 100);
        m.note_phase_peak("map", 50);
        m.note_phase_peak("reduce", 7);
        let s = m.snapshot();
        // The tracking allocator is process-wide, so a live test process
        // always has a nonzero heap.
        assert!(s.mem_live_bytes > 0);
        assert!(s.mem_peak_bytes >= s.mem_live_bytes);
        assert!(s.mem_allocated_bytes > 0);
        assert!(s.mem_allocs > 0);
        assert_eq!(
            s.phase_peak_bytes,
            vec![("map".to_owned(), 100), ("reduce".to_owned(), 7)]
        );
        let line = s.status_line();
        assert!(line.contains(" | mem "), "{line}");
        assert!(line.contains(" peak "), "{line}");
        let text = s.to_prometheus();
        assert!(
            text.contains("# TYPE gepeto_mem_live_bytes gauge"),
            "{text}"
        );
        assert!(text.contains("gepeto_mem_peak_bytes "), "{text}");
        assert!(text.contains("gepeto_mem_allocated_bytes_total "), "{text}");
        assert!(text.contains("gepeto_mem_allocs_total "), "{text}");
        assert!(
            text.contains("gepeto_mem_phase_peak_bytes{phase=\"map\"} 100"),
            "{text}"
        );
        assert!(
            text.contains("gepeto_mem_phase_peak_bytes{phase=\"reduce\"} 7"),
            "{text}"
        );
    }

    #[test]
    fn reporter_writes_exposition_file_on_final_tick() {
        let dir = std::env::temp_dir().join(format!(
            "gepeto-monitor-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.prom");
        let monitor = Arc::new(Monitor::new());
        monitor.add(MAP_TASKS_SCHEDULED, 1);
        // An interval far longer than the run: only the final tick fires.
        let reporter = Reporter::start(
            Arc::clone(&monitor),
            Duration::from_secs(3600),
            Some(path.clone()),
            false,
        );
        monitor.add(MAP_TASKS_DONE, 1);
        reporter.stop();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("gepeto_map_tasks_done 1"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
