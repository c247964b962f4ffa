//! Thread-count invariance contract, exercised against the real
//! `gepeto` binary: `--threads 1` (fully inline, the sequential
//! reference) and `--threads N` (work-stealing pool) must produce
//! byte-identical committed `OUTPUT` artifacts for every workload —
//! including runs forced onto the out-of-core spill path by a 1-byte
//! memory budget and runs recovering from an injected node crash.
//! Parallelism here is an execution detail; results are pinned to the
//! sequential semantics bit for bit.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const GEPETO: &str = env!("CARGO_BIN_EXE_gepeto");

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gepeto-threads-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(argv: &[&str]) -> Output {
    Command::new(GEPETO)
        .args(argv)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("spawn gepeto")
}

/// Reads a run's committed `OUTPUT` payload, verifying the checksum
/// footer on the way.
fn output_payload(run_dir: &Path) -> Vec<u8> {
    gepeto_mapred::commit::read_committed(&run_dir.join("OUTPUT"))
        .unwrap_or_else(|e| panic!("{}: OUTPUT failed verification: {e}", run_dir.display()))
}

/// Runs `argv ++ [--run-dir DIR --threads N]` once per thread count and
/// returns each run's committed OUTPUT bytes.
fn outputs_at_thread_counts(tag: &str, argv: &[&str], counts: &[&str]) -> Vec<Vec<u8>> {
    counts
        .iter()
        .map(|threads| {
            let dir = scratch(&format!("{tag}-t{threads}"));
            let dir_s = dir.display().to_string();
            let mut full: Vec<&str> = argv.to_vec();
            full.extend_from_slice(&["--run-dir", &dir_s, "--threads", threads]);
            let out = run(&full);
            assert!(
                out.status.success(),
                "{tag} --threads {threads} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let payload = output_payload(&dir);
            let _ = std::fs::remove_dir_all(&dir);
            payload
        })
        .collect()
}

#[test]
fn sample_output_is_byte_identical_across_thread_counts() {
    let argv = [
        "sample", "--users", "6", "--scale", "0.004", "--window", "60",
    ];
    let outs = outputs_at_thread_counts("sample", &argv, &["1", "2", "4"]);
    assert_eq!(
        outs[0], outs[1],
        "sample OUTPUT diverged across thread counts"
    );
    assert_eq!(
        outs[0], outs[2],
        "sample OUTPUT diverged across thread counts"
    );
    // Under `--run-dir` the sample is regrouped by user through a reduce
    // phase; without it (and without a budget) the same command is the
    // paper's map-only job. Both keep the same traces.
    let map_only = run(&argv);
    assert!(map_only.status.success());
    let stdout = String::from_utf8_lossy(&map_only.stdout).into_owned();
    let kept = stdout
        .lines()
        .find_map(|l| l.strip_prefix("sampling window 60 s: "))
        .and_then(|l| l.split(" -> ").nth(1))
        .and_then(|l| l.split(' ').next())
        .unwrap_or_else(|| panic!("no sampling line in:\n{stdout}"));
    let output = String::from_utf8_lossy(&outs[0]).into_owned();
    assert!(
        output.contains(&format!("traces: {kept}\n")),
        "map-only kept {kept} traces, by-user OUTPUT says:\n{output}"
    );
}

#[test]
fn kmeans_output_is_byte_identical_across_thread_counts() {
    // Centroid bit patterns are in the OUTPUT digest: any reassociation
    // of the parallel sums would flip low-order mantissa bits and fail.
    // Both map-output modes: in-mapper fused sums (the default) and one
    // pair per trace.
    for combiner in ["true", "false"] {
        let outs = outputs_at_thread_counts(
            &format!("kmeans-combiner-{combiner}"),
            &[
                "kmeans",
                "--users",
                "8",
                "--scale",
                "0.006",
                "--k",
                "4",
                "--max-iter",
                "6",
                "--combiner",
                combiner,
            ],
            &["1", "4"],
        );
        assert_eq!(
            outs[0], outs[1],
            "kmeans --combiner {combiner} OUTPUT diverged across thread counts"
        );
    }
}

#[test]
fn spilling_synth_run_is_thread_count_invariant() {
    // The by-user regroup in memory (flat groups, buckets gathered inside
    // the reduce tasks) and under a 1-byte budget, which forces every
    // partition through the external spill/merge path: parallel gathers
    // and per-partition merges must both preserve the map-task order byte
    // for byte, so all five runs commit the same OUTPUT.
    let in_memory = ["synth", "--users", "300", "--chunk-mb", "1"];
    let mut spilling = in_memory.to_vec();
    spilling.extend_from_slice(&["--memory-budget", "1"]);
    let mut outs = outputs_at_thread_counts("synth-mem", &in_memory, &["1", "2"]);
    outs.extend(outputs_at_thread_counts(
        "synth-spill",
        &spilling,
        &["1", "2", "4"],
    ));
    for (i, out) in outs.iter().enumerate().skip(1) {
        assert_eq!(
            &outs[0], out,
            "synth OUTPUT diverged between run 0 and run {i} (in-memory at 1, 2 threads, \
             then spilled at 1, 2, 4)"
        );
    }
    assert!(String::from_utf8_lossy(&outs[0]).contains("users: 300\n"));

    // The regroup's reducer hands back one trail per user, spilled or not.
    for (tag, argv) in [("mem", &in_memory[..]), ("spill", &spilling[..])] {
        let metrics = scratch(&format!("synth-metrics-{tag}")).with_extension("jsonl");
        let metrics_s = metrics.display().to_string();
        let mut full = argv.to_vec();
        full.extend_from_slice(&["--threads", "2", "--metrics-out", &metrics_s]);
        let out = run(&full);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let events = std::fs::read_to_string(&metrics).expect("metrics file");
        let _ = std::fs::remove_file(&metrics);
        assert!(
            events.contains(r#""name":"mapred.reduce.output.records","value":300}"#),
            "{tag}: reduce output records is not the user count"
        );
        assert!(
            events.contains(r#""name":"phase.ingest""#),
            "{tag}: no ingest span"
        );
    }
}

#[test]
fn block_parallel_synth_ingest_is_thread_count_invariant() {
    // 5 000 users are five 1 024-user generation blocks — more than one
    // wave at --threads 1 — sealed into four 1 MB chunks, so any slip in
    // block order or chunk cuts would change the OUTPUT.
    let argv = ["synth", "--users", "5000", "--chunk-mb", "1"];
    let outs = outputs_at_thread_counts("synth-blocks", &argv, &["1", "2", "4"]);
    assert_eq!(outs[0], outs[1], "synth OUTPUT diverged at 1 vs 2 threads");
    assert_eq!(outs[0], outs[2], "synth OUTPUT diverged at 1 vs 4 threads");
    let out = run(&argv);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains(" (4 blocks, "), "{stdout}");
}

#[test]
fn crash_recovery_is_thread_count_invariant() {
    // An injected node crash re-executes map work on surviving nodes;
    // the recovered result must still match the sequential reference.
    let outs = outputs_at_thread_counts(
        "kmeans-crash",
        &[
            "kmeans",
            "--users",
            "8",
            "--scale",
            "0.006",
            "--k",
            "3",
            "--max-iter",
            "4",
            "--crash",
            "1@40",
        ],
        &["1", "4"],
    );
    assert_eq!(
        outs[0], outs[1],
        "crash-recovered OUTPUT diverged across thread counts"
    );
}

#[test]
fn djcluster_results_are_thread_count_invariant() {
    // djcluster has no durable OUTPUT artifact; pin the deterministic
    // result lines of stdout (cluster/noise counts, preprocessing
    // funnel) instead — timings vary, results must not.
    let result_lines = |threads: &str| -> Vec<String> {
        let out = run(&[
            "djcluster",
            "--users",
            "6",
            "--scale",
            "0.004",
            "--mr-rtree",
            "false",
            "--threads",
            threads,
        ]);
        assert!(
            out.status.success(),
            "djcluster --threads {threads} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.starts_with("DJ-Cluster:") || l.starts_with("preprocessing:"))
            .map(str::to_string)
            .collect()
    };
    let one = result_lines("1");
    let four = result_lines("4");
    assert!(!one.is_empty(), "expected result lines in stdout");
    assert_eq!(one, four, "djcluster results diverged across thread counts");
}
