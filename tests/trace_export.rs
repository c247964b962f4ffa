//! Acceptance suite for the cross-run trace archive: Chrome trace
//! export, resume-stitched telemetry, and the perf-diff root-cause
//! engine — all exercised against the real `gepeto` binary.
//!
//! - A durable k-means run is SIGKILLed mid-flight and resumed; the
//!   resumed run's `--trace-out` export must validate structurally and
//!   show both attempts as distinct lanes of one timeline, and the
//!   stitched archive's flamegraph self-times must telescope to the
//!   stitched critical-path wall.
//! - A clean and a slow-disk (`--io-faults slow=...`) run of the same
//!   spilling workload are diffed; the top-ranked cause must be the
//!   storage-stall counter, naming the IO-bound shuffle/spill path.

use gepeto_telemetry::json::Json;
use gepeto_telemetry::Event;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

const GEPETO: &str = env!("CARGO_BIN_EXE_gepeto");

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gepeto-trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn run(argv: &[String]) -> Output {
    Command::new(GEPETO)
        .args(argv)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("spawn gepeto")
}

fn spawn(argv: &[String]) -> Child {
    Command::new(GEPETO)
        .args(argv)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn gepeto")
}

/// Polls the run journal until it holds at least `n` lines of `kind`.
fn wait_for_entries(run_dir: &Path, kind: &str, n: usize, deadline: Duration) -> bool {
    let journal = run_dir.join("journal.log");
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        let count = std::fs::read_to_string(&journal)
            .unwrap_or_default()
            .lines()
            .filter(|l| l.split(' ').nth(1) == Some(kind))
            .count();
        if count >= n {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

/// Parses a `--metrics-out` JSONL stream back into events.
fn load_jsonl(path: &Path) -> Vec<Event> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let v = Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
            gepeto_telemetry::archive::event_from_json(&v)
                .unwrap_or_else(|| panic!("not an event: {line}"))
        })
        .collect()
}

/// Sum of the per-stack self-times in a folded flamegraph file.
fn folded_total_us(folded: &str) -> u64 {
    folded
        .lines()
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum()
}

#[test]
fn sigkilled_run_exports_one_stitched_validated_trace() {
    let dir = scratch("stitch");
    let trace_path = dir.join("trace.json");
    let argv: Vec<String> = [
        "kmeans",
        "--users",
        "20",
        "--scale",
        "0.01",
        "--k",
        "5",
        "--max-iter",
        "40",
        "--delta",
        "0",
        "--memory-budget",
        "1",
        "--combiner",
        "false",
        "--trace-out",
    ]
    .iter()
    .map(ToString::to_string)
    .chain([
        trace_path.display().to_string(),
        "--run-dir".to_string(),
        dir.display().to_string(),
    ])
    .collect();

    // Kill the run once the journal proves real progress, far from
    // done, and the archive writer has flushed events to the segment
    // (it flushes on a cadence, so progress alone is not enough).
    let mut victim = spawn(&argv);
    assert!(
        wait_for_entries(&dir, "checkpoint", 2, Duration::from_secs(60)),
        "victim made no journaled progress to kill"
    );
    let segment = dir.join("telemetry").join("attempt-000.jsonl");
    let flushed = Instant::now();
    while flushed.elapsed() < Duration::from_secs(30) {
        if std::fs::metadata(&segment)
            .map(|m| m.len() > 0)
            .unwrap_or(false)
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    victim.kill().expect("SIGKILL victim");
    victim.wait().expect("reap victim");
    assert!(
        !dir.join("OUTPUT").exists(),
        "victim finished before the kill; raise --max-iter"
    );
    // The journal recorded the attempt's telemetry segment...
    assert!(
        wait_for_entries(&dir, "telemetry", 1, Duration::from_secs(1)),
        "no telemetry segment journaled"
    );
    // ...and the killed attempt left a (possibly torn) segment behind
    // with real events in it.
    let pre_kill = gepeto_telemetry::load_segments(&dir);
    assert_eq!(pre_kill.len(), 1, "killed attempt left no segment");
    assert!(!pre_kill[0].events.is_empty(), "segment is empty");

    // Resume finishes the run and re-exports the trace, stitched.
    let resume = run(&["resume".to_string(), dir.display().to_string()]);
    assert!(
        resume.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resume.stderr)
    );

    // The export is a structurally sound Chrome trace with both
    // attempts on distinct lanes.
    let trace_text = std::fs::read_to_string(&trace_path).expect("trace.json written");
    let report = gepeto_bench::trace::validate(&trace_text)
        .unwrap_or_else(|e| panic!("exported trace failed validation: {e}"));
    assert!(report.events > 10, "{report:?}");
    assert!(
        report
            .thread_names
            .iter()
            .any(|t| t.starts_with("attempt 0")),
        "no attempt-0 lane: {:?}",
        report.thread_names
    );
    assert!(
        report
            .thread_names
            .iter()
            .any(|t| t.starts_with("attempt 1")),
        "pre-kill work is not a lane of the stitched trace: {:?}",
        report.thread_names
    );

    // The stitched archive is one coherent span forest: flamegraph
    // self-times telescope to the stitched critical-path wall (1%).
    let segments = gepeto_telemetry::load_segments(&dir);
    assert!(segments.len() >= 2, "expected >= 2 attempts");
    let stitched = gepeto_telemetry::stitch(&segments);
    let folded = gepeto_telemetry::host_folded(&stitched);
    assert!(folded.contains(';'), "no nested frames:\n{folded}");
    let folded_us = folded_total_us(&folded) as f64;
    let critical_us = gepeto_telemetry::CriticalPath::from_events(&stitched).total_us as f64;
    assert!(critical_us > 0.0);
    assert!(
        (folded_us - critical_us).abs() <= 0.01 * critical_us,
        "folded self-time {folded_us} !~ critical-path wall {critical_us}"
    );
    // The stitched wall covers more than the resumed attempt alone —
    // the killed attempt's work is part of the timeline.
    let resumed_only =
        gepeto_telemetry::CriticalPath::from_events(&gepeto_telemetry::stitch(&segments[1..]))
            .total_us as f64;
    assert!(
        critical_us >= resumed_only,
        "stitching lost the pre-kill attempt"
    );

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn diff_blames_the_io_bound_path_on_a_slow_disk_run() {
    let dir = scratch("diff");
    let clean_jsonl = dir.join("clean.jsonl");
    let slow_jsonl = dir.join("slow.jsonl");
    let base_argv = |metrics: &Path| -> Vec<String> {
        [
            "sample",
            "--users",
            "5",
            "--scale",
            "0.01",
            "--memory-budget",
            "1",
            "--metrics-out",
        ]
        .iter()
        .map(ToString::to_string)
        .chain([metrics.display().to_string()])
        .collect()
    };
    let clean = run(&base_argv(&clean_jsonl));
    assert!(
        clean.status.success(),
        "{}",
        String::from_utf8_lossy(&clean.stderr)
    );
    let mut slow_argv = base_argv(&slow_jsonl);
    // Every spilled MiB costs 2000 virtual seconds of disk time: the
    // shuffle/spill commit path becomes massively IO-bound.
    slow_argv.extend(["--io-faults".to_string(), "slow=2000".to_string()]);
    let slow = run(&slow_argv);
    assert!(
        slow.status.success(),
        "{}",
        String::from_utf8_lossy(&slow.stderr)
    );

    let base = gepeto_telemetry::profile_from_events("clean", &load_jsonl(&clean_jsonl));
    let cand = gepeto_telemetry::profile_from_events("slow-disk", &load_jsonl(&slow_jsonl));
    let stall = cand
        .counters
        .iter()
        .find(|(n, _)| n == "io.stall_ms")
        .map(|&(_, v)| v)
        .unwrap_or(0);
    assert!(stall > 0, "slow-disk run recorded no storage stall");

    let report = gepeto_telemetry::diff::diff(&base, &cand);
    assert!(
        !report.causes.is_empty(),
        "diff found nothing:\n{}",
        report.render()
    );
    let top = &report.causes[0];
    assert_eq!(top.kind, "stall", "top cause:\n{}", report.render());
    assert_eq!(top.name, "io.stall_ms");
    assert!(
        top.note.contains("shuffle") && top.note.contains("IO-bound"),
        "note does not name the IO-bound phase: {}",
        top.note
    );
    let text = report.render();
    assert!(text.contains("why it got slower"), "{text}");
    // The machine-readable form round-trips as JSON.
    let json = Json::parse(&report.to_json()).expect("diff JSON parses");
    assert_eq!(
        json.get("schema").and_then(Json::as_str),
        Some("gepeto-perf-diff/1")
    );

    // Self-diff control: a run diffed against itself has no causes.
    let self_diff = gepeto_telemetry::diff::diff(&base, &base);
    assert!(self_diff.render().contains("no significant delta"));

    let _ = std::fs::remove_dir_all(dir);
}
