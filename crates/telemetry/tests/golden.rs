//! Golden renderings of the three run-facing outputs: the Prometheus
//! exposition, the heartbeat status line and the end-of-run summary.
//! Each is pinned byte for byte for a fixed input that makes every line
//! appear, so a change to how metrics are declared or stored cannot
//! move a family, a label or a summary line unnoticed.
//!
//! Allocator and pool figures are process-wide, so their sample values
//! are masked: those families are compared by `# HELP` / `# TYPE` only.

use gepeto_telemetry::registry::*;
use gepeto_telemetry::{Event, EventKind, Monitor, SummaryReport};

/// A monitor on which every scalar and labelled family is non-zero.
fn busy_monitor() -> Monitor {
    let m = Monitor::new();
    m.add(JOBS_STARTED, 1);
    m.add(JOBS_STARTED, 1);
    m.add(JOBS_FINISHED, 1);
    m.add(MAP_TASKS_SCHEDULED, 8);
    for _ in 0..6 {
        m.add(MAP_TASKS_DONE, 1);
    }
    m.add(REDUCE_TASKS_SCHEDULED, 4);
    m.add(REDUCE_TASKS_DONE, 1);
    m.add(SHUFFLE_BYTES, 12_345_678);
    m.add(TASK_RETRIES, 1);
    m.add(TASK_RETRIES, 1);
    m.add(REEXECUTED_MAPS, 3);
    m.add(FAILED_OVER_READS, 1);
    m.add(BLACKLISTED_NODES, 1);
    m.add(CRASH_KILLED, 1);
    m.add(DISTANCE_EVALS, 1_000_000);
    m.add(SHUFFLE_BYTES_SAVED, 2_048);
    m.add(SPILLED_BYTES, 65_536);
    m.add(SPILL_FILES, 3);
    m.add(IO_RETRIES, 7);
    m.add(TORN_WRITES, 1);
    m.add(RUNS_QUARANTINED, 2);
    m.add(IO_STALL_MS, 2_500);
    m.add(JOURNAL_REPLAYED, 4);
    m.set_driver_progress(3, 0.125);
    m.node_busy(0, 1.5);
    m.node_busy(2, 0.75);
    m.note_phase_peak("map", 4_096);
    m.note_phase_peak("reduce", 1_024);
    m.observe("task.map.us", 10);
    m.observe("task.map.us", 1_000);
    m.set_run_info("run-1", "kmeans --k 3");
    m
}

/// Families whose samples are read off process-wide allocator and pool
/// counters rather than the monitor.
const PROCESS_GLOBAL_FAMILIES: &[&str] = &[
    "gepeto_mem_live_bytes",
    "gepeto_mem_peak_bytes",
    "gepeto_mem_allocated_bytes_total",
    "gepeto_mem_allocs_total",
    "gepeto_pool_threads",
    "gepeto_pool_tasks_total",
    "gepeto_pool_steals_total",
    "gepeto_pool_batches_total",
    "gepeto_pool_worker_busy_seconds",
];

/// Drops the sample lines of [`PROCESS_GLOBAL_FAMILIES`], keeping their
/// `# HELP` / `# TYPE` headers.
fn mask_process_globals(text: &str) -> String {
    text.lines()
        .filter(|line| {
            let family = line.split(['{', ' ']).next().unwrap_or("");
            line.starts_with('#') || !PROCESS_GLOBAL_FAMILIES.contains(&family)
        })
        .map(|line| format!("{line}\n"))
        .collect()
}

const GOLDEN_PROMETHEUS: &str = r#"# HELP gepeto_jobs_started_total Jobs that entered their run loop.
# TYPE gepeto_jobs_started_total counter
gepeto_jobs_started_total 2
# HELP gepeto_jobs_finished_total Jobs whose stats were folded.
# TYPE gepeto_jobs_finished_total counter
gepeto_jobs_finished_total 1
# HELP gepeto_map_tasks_total Map tasks scheduled.
# TYPE gepeto_map_tasks_total counter
gepeto_map_tasks_total 8
# HELP gepeto_map_tasks_done Map tasks completed.
# TYPE gepeto_map_tasks_done counter
gepeto_map_tasks_done 6
# HELP gepeto_reduce_tasks_total Reduce tasks scheduled.
# TYPE gepeto_reduce_tasks_total counter
gepeto_reduce_tasks_total 4
# HELP gepeto_reduce_tasks_done Reduce tasks completed.
# TYPE gepeto_reduce_tasks_done counter
gepeto_reduce_tasks_done 1
# HELP gepeto_shuffle_bytes_total Bytes shuffled between map and reduce.
# TYPE gepeto_shuffle_bytes_total counter
gepeto_shuffle_bytes_total 12345678
# HELP gepeto_task_retries_total Failure-injected task retries.
# TYPE gepeto_task_retries_total counter
gepeto_task_retries_total 2
# HELP gepeto_reexecuted_maps_total Map tasks re-executed after output loss.
# TYPE gepeto_reexecuted_maps_total counter
gepeto_reexecuted_maps_total 3
# HELP gepeto_failed_over_reads_total Block reads failed over to a replica.
# TYPE gepeto_failed_over_reads_total counter
gepeto_failed_over_reads_total 1
# HELP gepeto_blacklisted_nodes_total Nodes blacklisted by the failure policy.
# TYPE gepeto_blacklisted_nodes_total counter
gepeto_blacklisted_nodes_total 1
# HELP gepeto_crash_killed_attempts_total Attempts killed mid-flight by node crashes.
# TYPE gepeto_crash_killed_attempts_total counter
gepeto_crash_killed_attempts_total 1
# HELP gepeto_kernel_distance_evals_total Point-to-centroid distance evaluations in the clustering kernels.
# TYPE gepeto_kernel_distance_evals_total counter
gepeto_kernel_distance_evals_total 1000000
# HELP gepeto_shuffle_bytes_saved_total Shuffle bytes avoided by compressed payload encodings.
# TYPE gepeto_shuffle_bytes_saved_total counter
gepeto_shuffle_bytes_saved_total 2048
# HELP gepeto_shuffle_spilled_bytes_total Intermediate bytes spilled to disk by memory-bounded shuffles.
# TYPE gepeto_shuffle_spilled_bytes_total counter
gepeto_shuffle_spilled_bytes_total 65536
# HELP gepeto_shuffle_spill_files_total Sorted spill runs written to disk by memory-bounded map tasks.
# TYPE gepeto_shuffle_spill_files_total counter
gepeto_shuffle_spill_files_total 3
# HELP gepeto_io_retries_total IO operations retried after transient storage faults.
# TYPE gepeto_io_retries_total counter
gepeto_io_retries_total 7
# HELP gepeto_io_torn_writes_detected_total Torn (partial) writes caught by commit verification.
# TYPE gepeto_io_torn_writes_detected_total counter
gepeto_io_torn_writes_detected_total 1
# HELP gepeto_spill_runs_quarantined_total Corrupt spill runs quarantined by verifying reads.
# TYPE gepeto_spill_runs_quarantined_total counter
gepeto_spill_runs_quarantined_total 2
# HELP gepeto_io_stall_ms_total Virtual milliseconds stalled on storage faults and slow disks.
# TYPE gepeto_io_stall_ms_total counter
gepeto_io_stall_ms_total 2500
# HELP gepeto_journal_replayed_tasks_total Reduce tasks replayed from committed artifacts on resume.
# TYPE gepeto_journal_replayed_tasks_total counter
gepeto_journal_replayed_tasks_total 4
# HELP gepeto_jobs_running Jobs started but not yet finished.
# TYPE gepeto_jobs_running gauge
gepeto_jobs_running 1
# HELP gepeto_driver_iteration Current driver iteration (0 before the first completes).
# TYPE gepeto_driver_iteration gauge
gepeto_driver_iteration 3
# HELP gepeto_driver_delta Latest driver convergence delta.
# TYPE gepeto_driver_delta gauge
gepeto_driver_delta 0.125
# HELP gepeto_mem_live_bytes Bytes currently live on the heap (tracking allocator).
# TYPE gepeto_mem_live_bytes gauge
# HELP gepeto_mem_peak_bytes All-time peak live heap bytes (tracking allocator).
# TYPE gepeto_mem_peak_bytes gauge
# HELP gepeto_mem_allocated_bytes_total Cumulative bytes allocated by the process.
# TYPE gepeto_mem_allocated_bytes_total counter
# HELP gepeto_mem_allocs_total Cumulative allocation calls made by the process.
# TYPE gepeto_mem_allocs_total counter
# HELP gepeto_pool_threads Work-stealing pool parallelism (0 until the pool exists).
# TYPE gepeto_pool_threads gauge
# HELP gepeto_pool_tasks_total Tasks executed on the work-stealing pool.
# TYPE gepeto_pool_tasks_total counter
# HELP gepeto_pool_steals_total Steal-half operations between pool workers.
# TYPE gepeto_pool_steals_total counter
# HELP gepeto_pool_batches_total Batches submitted to the work-stealing pool.
# TYPE gepeto_pool_batches_total counter
# HELP gepeto_pool_worker_busy_seconds Wall seconds each pool executor spent running tasks.
# TYPE gepeto_pool_worker_busy_seconds gauge
# HELP gepeto_mem_phase_peak_bytes Allocator peak observed inside each phase (max across repeats).
# TYPE gepeto_mem_phase_peak_bytes gauge
gepeto_mem_phase_peak_bytes{phase="map"} 4096
gepeto_mem_phase_peak_bytes{phase="reduce"} 1024
# HELP gepeto_run_info Identity of the run behind this exposition.
# TYPE gepeto_run_info gauge
gepeto_run_info{run_id="run-1",command="kmeans --k 3"} 1
# HELP gepeto_node_busy_seconds Virtual seconds each node spent running attempts.
# TYPE gepeto_node_busy_seconds gauge
gepeto_node_busy_seconds{node="0"} 1.5
gepeto_node_busy_seconds{node="1"} 0
gepeto_node_busy_seconds{node="2"} 0.75
# HELP gepeto_task_map_us Live histogram 'task.map.us'.
# TYPE gepeto_task_map_us histogram
gepeto_task_map_us_bucket{le="15"} 1
gepeto_task_map_us_bucket{le="1023"} 2
gepeto_task_map_us_bucket{le="+Inf"} 2
gepeto_task_map_us_sum 1010
gepeto_task_map_us_count 2
"#;

#[test]
fn prometheus_exposition_is_pinned_family_by_family() {
    // A two-thread pool always has a spawned worker, so the worker-busy
    // family is present whatever the host's core count.
    gepeto_pool::set_threads(2);
    gepeto_pool::global().run(4, &|_| {});
    let text = busy_monitor().snapshot().to_prometheus();
    assert_eq!(mask_process_globals(&text), GOLDEN_PROMETHEUS, "{text}");
}

#[test]
fn status_line_is_pinned() {
    let line = busy_monitor().snapshot().status_line();
    // The allocator segment reads process-wide heap gauges.
    let start = line.find(" | mem ").expect("a live process has a heap");
    let end = start + 3 + line[start + 3..].find(" | ").expect("segments follow");
    let masked = format!("{} | mem …{}", &line[..start], &line[end..]);
    assert_eq!(
        masked,
        "maps 6/8 75% | reduces 1/4 25% | shuffle 12.3 MB | retries 2 reexec 3 blacklist 1 \
         killed 1 | spill 65.5 KB in 3 runs | io retries 7 torn 1 quarantined 2 stall 2.5s \
         | replayed 4 | mem … | iter 3 delta 0.12500 | busy n0:1.5s n1:0.0s n2:0.8s",
        "{line}"
    );
}

fn span(kind: EventKind, name: &'static str, span_id: u64, dur_us: u64, task: &str) -> Event {
    Event {
        ts_us: 0,
        kind,
        name,
        span_id,
        parent_id: 0,
        dur_us: (kind == EventKind::SpanEnd).then_some(dur_us),
        value: None,
        labels: if kind == EventKind::SpanStart && !task.is_empty() {
            vec![("task".to_owned(), task.to_owned())]
        } else {
            Vec::new()
        },
    }
}

/// Two phases, a five-task map cohort with one straggler, and a retry
/// point.
fn run_events() -> Vec<Event> {
    let mut events = Vec::new();
    for (id, name, dur) in [(1, "phase.map", 40_000), (2, "phase.reduce", 7_000)] {
        events.push(span(EventKind::SpanStart, name, id, 0, ""));
        events.push(span(EventKind::SpanEnd, name, id, dur, ""));
    }
    for (i, dur) in [2_000u64, 2_100, 1_900, 2_050, 9_000]
        .into_iter()
        .enumerate()
    {
        let (id, task) = (10 + i as u64, i.to_string());
        events.push(span(EventKind::SpanStart, "task.map", id, 0, &task));
        events.push(span(EventKind::SpanEnd, "task.map", id, dur, &task));
    }
    let mut retry = span(EventKind::Point, "task.retry", 0, 0, "");
    retry.value = Some(1.0);
    events.push(retry);
    events
}

#[test]
fn summary_render_is_pinned() {
    let counters: Vec<(String, u64)> = [
        (TASK_RETRIES, 3),
        (REEXECUTED_MAPS, 2),
        (FAILED_OVER_READS, 1),
        (BLACKLISTED_NODES, 1),
        (SHUFFLE_BYTES, 4_096),
        (SHUFFLE_BYTES_SAVED, 999),
        (SPILLED_BYTES, 65_536),
        (SPILL_FILES, 3),
        (SPILL_ESTIMATE_ERROR, 512),
        (MEM_BUDGET_BYTES, 64_000_000),
        (MEM_ACCOUNTED_PEAK, 91_000_000),
        (MEM_PEAK_OVER_BUDGET, 27_000_000),
        (MEM_PEAK_BYTES, 120_000_000),
        (MEM_ALLOCATED_BYTES, 500_000_000),
        (MEM_ALLOCS, 1_234),
        (IO_RETRIES, 7),
        (TORN_WRITES, 2),
        (RUNS_QUARANTINED, 3),
        (IO_STALL_MS, 4_500),
        (JOURNAL_REPLAYED, 5),
        (DISTANCE_EVALS, 123_456),
    ]
    .into_iter()
    .map(|(name, v)| (name.to_owned(), v))
    .collect();
    let report = SummaryReport::from_events(&run_events(), &counters);
    assert_eq!(
        report.render(),
        "== run summary ==
phase                      wall   spans
map                   40.000 ms       1
reduce                 7.000 ms       1
task kind                n          p50          p95          max
map                      5     4.095 ms     9.000 ms     9.000 ms
stragglers (1):
  map [task=4] 9.000 ms (cohort p50 4.095 ms)
retries: 3
recovery: 2 reexecuted maps, 1 failed-over reads, 1 blacklisted nodes
shuffle bytes: 4096
shuffle bytes saved: 999
spill: 65536 bytes in 3 files
spill estimate error: 512 bytes (|estimated - written| across runs)
memory: budget 64.0 MB, actual peak 91.0 MB (1.42x) — 27.0 MB over budget
heap: peak 120.0 MB, allocated 500.0 MB in 1234 calls
storage: 7 io retries, 2 torn writes detected, 3 runs quarantined
storage stall: 4.500 s of virtual time
journal: 5 reduce tasks replayed from committed artifacts
distance evals: 123456
"
    );

    // The other memory branch, and a run that reported nothing.
    let unbudgeted = [(MEM_ACCOUNTED_PEAK.to_owned(), 50_000_000)];
    assert_eq!(
        SummaryReport::from_events(&[], &unbudgeted).render(),
        "== run summary ==\nretries: 0\nmemory: unbudgeted, accounted peak 50.0 MB \
         (shuffle buffers only; heap: counts the whole process)\n"
    );
    assert_eq!(
        SummaryReport::from_events(&[], &[]).render(),
        "== run summary ==\nretries: 0\n"
    );
}
