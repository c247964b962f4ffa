//! Crash-safe resume contract, exercised against the real `gepeto`
//! binary with a real `SIGKILL` — not a simulated fault. A durable run
//! is killed mid-flight (after its journal shows committed progress but
//! long before completion), resumed with `gepeto resume <run-dir>`, and
//! the committed `OUTPUT` artifact must be byte-identical to an
//! undisturbed run's. Exit-code contracts ride along: `3` for a job
//! that chaos killed for good, `0` for a no-op resume of a complete run.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

const GEPETO: &str = env!("CARGO_BIN_EXE_gepeto");

/// Reads a run's committed `OUTPUT` payload, verifying the checksum
/// footer on the way (so a torn/rotten artifact fails the test here).
fn output_payload(run_dir: &Path) -> Vec<u8> {
    gepeto_mapred::commit::read_committed(&run_dir.join("OUTPUT"))
        .unwrap_or_else(|e| panic!("{}: OUTPUT failed verification: {e}", run_dir.display()))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gepeto-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A k-means run that cannot finish quickly: `--delta 0` never
/// converges, so it always executes all 40 iterations (each one a
/// checkpointed MapReduce job), `--combiner false` shuffles one pair
/// per trace, and the 1-byte memory budget keeps every iteration's
/// shuffle on the spill path — the kill has to land mid-run.
fn kmeans_argv(run_dir: &Path) -> Vec<String> {
    [
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
        "--run-dir",
    ]
    .iter()
    .map(ToString::to_string)
    .chain([run_dir.display().to_string()])
    .collect()
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

fn journal_count(run_dir: &Path, kind: &str) -> usize {
    std::fs::read_to_string(run_dir.join("journal.log"))
        .unwrap_or_default()
        .lines()
        .filter(|l| l.split(' ').nth(1) == Some(kind))
        .count()
}

#[test]
fn sigkilled_run_resumes_bit_identically() {
    // Reference: the same durable run, never disturbed.
    let clean_dir = scratch("clean");
    let clean = run(&kmeans_argv(&clean_dir));
    assert!(
        clean.status.success(),
        "clean run failed: {}",
        String::from_utf8_lossy(&clean.stderr)
    );
    let clean_output = output_payload(&clean_dir);

    // Victim: identical run, SIGKILLed once the journal proves real
    // progress (two finished iterations) — far from the 40th iteration.
    let kill_dir = scratch("killed");
    let mut victim = spawn(&kmeans_argv(&kill_dir));
    assert!(
        wait_for_entries(&kill_dir, "checkpoint", 2, Duration::from_secs(60)),
        "victim made no journaled progress to kill"
    );
    victim.kill().expect("SIGKILL victim");
    let status = victim.wait().expect("reap victim");
    assert!(!status.success(), "victim survived the kill");
    assert!(
        !kill_dir.join("OUTPUT").exists(),
        "victim finished before the kill; raise --max-iter"
    );
    let checkpoints_at_kill = journal_count(&kill_dir, "checkpoint");

    // Resume finishes the run from the journal.
    let resume = run(&["resume".to_string(), kill_dir.display().to_string()]);
    assert!(
        resume.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resume.stderr)
    );
    let resumed_output = output_payload(&kill_dir);
    assert_eq!(
        clean_output, resumed_output,
        "resumed OUTPUT differs from the undisturbed run's"
    );
    // The resume actually reused journaled progress instead of starting
    // over: checkpoints only accumulate, and the finished run holds
    // exactly the 40 per-iteration checkpoints plus what the killed
    // attempt had already banked would be re-made — so strictly fewer
    // than 40 new ones were appended.
    let checkpoints_after = journal_count(&kill_dir, "checkpoint");
    assert!(
        checkpoints_after < 40 + checkpoints_at_kill,
        "resume re-ran every iteration: {checkpoints_at_kill} -> {checkpoints_after}"
    );
    assert_eq!(journal_count(&kill_dir, "complete"), 1);

    // Resuming a complete run is a no-op that leaves OUTPUT untouched.
    let again = run(&["resume".to_string(), kill_dir.display().to_string()]);
    assert!(again.status.success());
    assert!(String::from_utf8_lossy(&again.stdout).contains("already complete"));
    assert_eq!(output_payload(&kill_dir), clean_output);

    let _ = std::fs::remove_dir_all(clean_dir);
    let _ = std::fs::remove_dir_all(kill_dir);
}

/// The crash state a SIGKILL leaves, built without a race: a finished
/// run's journal cut back to the middle of iteration 3 (two of its
/// reduce partitions journaled, no checkpoint yet) and its OUTPUT
/// removed. Resume must replay what is journaled, redo the rest and
/// commit the clean run's bytes — for in-mapper fused sums (the default,
/// whose runs are too short to kill reliably) and for per-trace emit.
/// The journal composes with a driver retry policy: with
/// `--driver-retries 2` nothing dies, every job keeps attempt 0's bare
/// name, and the OUTPUT bytes are those of the run without it.
#[test]
fn journal_cut_mid_iteration_resumes_bit_identically() {
    let mut fused_outputs = Vec::new();
    for (combiner, retries) in [("true", "0"), ("false", "0"), ("true", "2")] {
        let dir = scratch(&format!("cut-{combiner}-{retries}"));
        let argv: Vec<String> = [
            "kmeans",
            "--users",
            "6",
            "--scale",
            "0.004",
            "--k",
            "3",
            "--max-iter",
            "6",
            "--delta",
            "0",
            "--memory-budget",
            "1",
            "--combiner",
            combiner,
            "--driver-retries",
            retries,
            "--run-dir",
        ]
        .iter()
        .map(ToString::to_string)
        .chain([dir.display().to_string()])
        .collect();
        let clean = run(&argv);
        assert!(
            clean.status.success(),
            "{}",
            String::from_utf8_lossy(&clean.stderr)
        );
        let clean_output = output_payload(&dir);

        let journal_path = dir.join("journal.log");
        let journal = std::fs::read_to_string(&journal_path).unwrap();
        let is_i003_reduce =
            |l: &str| l.split(' ').nth(1) == Some("reduce") && l.contains(" kmeans-i003 ");
        let cut = journal
            .lines()
            .position(is_i003_reduce)
            .expect("iteration 3 committed no reduce partition")
            + 2;
        let kept: Vec<&str> = journal.lines().take(cut).collect();
        assert!(is_i003_reduce(kept[cut - 1]), "{kept:?}");
        std::fs::write(&journal_path, kept.join("\n") + "\n").unwrap();
        std::fs::remove_file(dir.join("OUTPUT")).unwrap();
        assert_eq!(journal_count(&dir, "checkpoint"), 2);
        assert_eq!(journal_count(&dir, "complete"), 0);

        let resume = run(&["resume".to_string(), dir.display().to_string()]);
        assert!(
            resume.status.success(),
            "resume failed: {}",
            String::from_utf8_lossy(&resume.stderr)
        );
        assert_eq!(
            output_payload(&dir),
            clean_output,
            "--combiner {combiner} --driver-retries {retries}: resumed OUTPUT differs from the \
             clean run's"
        );
        // Iterations 1–2 were restored from the checkpoint, not re-run.
        assert_eq!(journal_count(&dir, "checkpoint"), 6);
        assert_eq!(journal_count(&dir, "complete"), 1);
        if combiner == "true" {
            fused_outputs.push(clean_output);
        }
        let _ = std::fs::remove_dir_all(dir);
    }
    assert_eq!(fused_outputs[0], fused_outputs[1]);
}

#[test]
fn durable_sample_commits_manifest_journal_and_output() {
    let dir = scratch("sample");
    let argv: Vec<String> = [
        "sample",
        "--users",
        "3",
        "--scale",
        "0.003",
        "--memory-budget",
        "1",
        "--run-dir",
    ]
    .iter()
    .map(ToString::to_string)
    .chain([dir.display().to_string()])
    .collect();
    let out = run(&argv);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("MANIFEST").exists());
    assert!(dir.join("journal.log").exists());
    let output = String::from_utf8(output_payload(&dir)).unwrap();
    assert!(output.starts_with("command: sample"), "{output}");
    assert!(output.contains("fnv64:"), "{output}");
    assert!(journal_count(&dir, "reduce") > 0, "no reduce commits");
    assert_eq!(journal_count(&dir, "complete"), 1);
    // The per-run spill root was swept on completion.
    let spill_entries = std::fs::read_dir(dir.join("spill")).unwrap().count();
    assert_eq!(spill_entries, 0, "stale spill runs left behind");

    // A second identical run in a fresh dir commits identical bytes —
    // the digest is deterministic, not timestamped.
    let dir2 = scratch("sample2");
    let argv2: Vec<String> = argv[..argv.len() - 1]
        .iter()
        .cloned()
        .chain([dir2.display().to_string()])
        .collect();
    assert!(run(&argv2).status.success());
    assert_eq!(output_payload(&dir), output_payload(&dir2));
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(dir2);
}

#[test]
fn chaos_exhausted_job_exits_with_the_job_failure_code() {
    // Every node dead at t=0: the job can never finish; the driver must
    // report it as a *job* failure (exit 3), not a usage error (1).
    let out = run(&[
        "kmeans",
        "--users",
        "2",
        "--scale",
        "0.002",
        "--k",
        "2",
        "--max-iter",
        "2",
        "--crash",
        "0@0,1@0,2@0,3@0",
    ]
    .iter()
    .map(ToString::to_string)
    .collect::<Vec<_>>());
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("job failed"));

    // A plain usage error keeps the generic failure code.
    let usage = run(&[
        "kmeans".to_string(),
        "--users".to_string(),
        "abc".to_string(),
    ]);
    assert_eq!(usage.status.code(), Some(1), "{usage:?}");
}

#[test]
fn io_chaos_run_is_bit_identical_and_surfaces_counters() {
    // The same durable workload with and without injected storage
    // faults: retries/rebuilds must be invisible in the committed bytes.
    let calm_dir = scratch("calm");
    let mut calm_argv = kmeans_argv(&calm_dir);
    calm_argv[8] = "4".to_string(); // --max-iter 4: keep it short
    let calm = run(&calm_argv);
    assert!(calm.status.success());

    let chaos_dir = scratch("chaos");
    let mut chaos_argv = kmeans_argv(&chaos_dir);
    chaos_argv[8] = "4".to_string();
    chaos_argv.extend([
        "--io-faults".to_string(),
        "eio=0.3,torn=0.4,bitrot=0.2,seed=11".to_string(),
        "--summary".to_string(),
    ]);
    let chaotic = run(&chaos_argv);
    assert!(
        chaotic.status.success(),
        "{}",
        String::from_utf8_lossy(&chaotic.stderr)
    );
    assert_eq!(
        output_payload(&calm_dir),
        output_payload(&chaos_dir),
        "storage faults changed committed output bits"
    );
    let stdout = String::from_utf8_lossy(&chaotic.stdout);
    let stderr = String::from_utf8_lossy(&chaotic.stderr);
    assert!(
        stdout.contains("durability:") || stderr.contains("io retries"),
        "no durability counters surfaced:\n{stdout}\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(calm_dir);
    let _ = std::fs::remove_dir_all(chaos_dir);
}

#[test]
fn a_repaired_output_reaches_the_run_counters() {
    // Under `torn=1.0` every first write tears and is rewritten: the spill
    // runs and `.part` files the job seals, and the `OUTPUT` the command
    // commits itself. The run's counter holds the job's repairs and the
    // OUTPUT's.
    let run_dir = scratch("torn-output");
    let metrics = run_dir.with_extension("jsonl");
    let argv: Vec<String> = [
        "synth",
        "--users",
        "200",
        "--chunk-mb",
        "1",
        "--memory-budget",
        "1",
        "--io-faults",
        "torn=1.0,seed=3",
    ]
    .iter()
    .map(ToString::to_string)
    .chain(["--run-dir".into(), run_dir.display().to_string()])
    .chain(["--metrics-out".into(), metrics.display().to_string()])
    .collect();
    let out = run(&argv);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        run_dir.join("OUTPUT.quarantined").exists(),
        "OUTPUT did not tear"
    );
    output_payload(&run_dir);

    let stdout = String::from_utf8_lossy(&out.stdout);
    let job_torn: u64 = stdout
        .split(" | ")
        .find_map(|field| field.strip_suffix(" torn writes detected"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no durability line:\n{stdout}"));
    let events = std::fs::read_to_string(&metrics).unwrap();
    let counted = events
        .lines()
        .map(|l| gepeto_telemetry::json::Json::parse(l).unwrap())
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("io.torn_writes_detected"))
        .filter_map(|e| e.get("value").and_then(|v| v.as_u64()))
        .next_back()
        .expect("an io.torn_writes_detected count");
    assert_eq!(
        counted,
        job_torn + 1,
        "the OUTPUT's torn write went uncounted"
    );
    let _ = std::fs::remove_dir_all(run_dir);
    let _ = std::fs::remove_file(metrics);
}

#[test]
fn a_run_directory_with_a_non_ascii_name_replays_its_committed_reduces() {
    // Killed after the last reduce commit: the journal lost its
    // `artifact` and `complete` lines. Resume must read the committed
    // `.part` paths back as written, whatever characters the run
    // directory's name holds, and replay them instead of recomputing.
    let run_dir = scratch("rundir-données");
    let metrics = run_dir.with_extension("jsonl");
    let argv: Vec<String> = [
        "synth",
        "--users",
        "200",
        "--chunk-mb",
        "1",
        "--memory-budget",
        "1",
        "--threads",
        "1",
    ]
    .iter()
    .map(ToString::to_string)
    .chain(["--run-dir".into(), run_dir.display().to_string()])
    .collect();
    let out = run(&argv);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let journal_path = run_dir.join("journal.log");
    let journal = std::fs::read_to_string(&journal_path).unwrap();
    let kept: Vec<&str> = journal
        .lines()
        .filter(|l| !matches!(l.split(' ').nth(1), Some("artifact" | "complete")))
        .collect();
    assert!(kept.len() < journal.lines().count());
    std::fs::write(&journal_path, kept.join("\n") + "\n").unwrap();

    let resume = run(&[
        "resume".to_string(),
        run_dir.display().to_string(),
        "--metrics-out".to_string(),
        metrics.display().to_string(),
    ]);
    assert!(
        resume.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resume.stderr)
    );
    let events = std::fs::read_to_string(&metrics).unwrap();
    let last = |name: &str| {
        events
            .lines()
            .map(|l| gepeto_telemetry::json::Json::parse(l).unwrap())
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
            .filter_map(|e| e.get("value").and_then(|v| v.as_u64()))
            .next_back()
            .unwrap_or(0)
    };
    assert_eq!(last("journal.replayed_tasks"), 4);
    assert_eq!(last("spill.runs_quarantined"), 0);
    let _ = std::fs::remove_dir_all(run_dir);
    let _ = std::fs::remove_file(metrics);
}

#[test]
fn a_forged_reduce_record_count_is_recomputed_not_allocated() {
    // A checksummed `reduce` line claiming 2^40 records, appended to the
    // journal of a run killed after its last reduce commit: resume must
    // quarantine that artifact and recompute its partition, not size an
    // allocation by the claim.
    let run_dir = scratch("forged-count");
    let argv: Vec<String> = [
        "synth",
        "--users",
        "200",
        "--chunk-mb",
        "1",
        "--memory-budget",
        "1",
    ]
    .iter()
    .map(ToString::to_string)
    .chain(["--run-dir".into(), run_dir.display().to_string()])
    .collect();
    let out = run(&argv);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let clean_output = output_payload(&run_dir);
    let journal_path = run_dir.join("journal.log");
    let journal = std::fs::read_to_string(&journal_path).unwrap();
    let kept: Vec<&str> = journal
        .lines()
        .filter(|l| !matches!(l.split(' ').nth(1), Some("artifact" | "complete")))
        .collect();
    std::fs::write(&journal_path, kept.join("\n") + "\n").unwrap();
    let journal = gepeto_mapred::RunJournal::attach(&run_dir).unwrap();
    let forged = journal
        .entries()
        .into_iter()
        .rev()
        .find_map(|e| match e {
            gepeto_mapred::JournalEntry::ReduceCommit {
                job,
                partition,
                path,
                checksum,
                ..
            } => Some(gepeto_mapred::JournalEntry::ReduceCommit {
                job,
                partition,
                path,
                records: 1 << 40,
                checksum,
            }),
            _ => None,
        })
        .expect("a committed reduce partition");
    journal.append(&forged).unwrap();

    let resume = run(&["resume".to_string(), run_dir.display().to_string()]);
    assert!(
        resume.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resume.stderr)
    );
    assert_eq!(output_payload(&run_dir), clean_output);
    let _ = std::fs::remove_dir_all(run_dir);
}
