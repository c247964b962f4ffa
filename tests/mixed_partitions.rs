//! One job, both shuffle paths: a by-user regroup whose memory budget sits
//! between its reduce partitions' sizes keeps the small partitions in
//! memory — merged from the map tasks' sorted runs — and spills the large
//! ones to sorted runs on disk. The committed `OUTPUT` must be the
//! unbudgeted run's byte for byte, at `--threads` 1, 2 and 4.

use gepeto::sampling::{self, SamplingConfig, Technique};
use gepeto_mapred::hash::default_partition;
use gepeto_mapred::{Cluster, ExecCtx};
use gepeto_synth::SynthConfig;
use std::process::Command;

const GEPETO: &str = env!("CARGO_BIN_EXE_gepeto");

/// What `gepeto synth --users 300 --chunk-mb 1` regroups, with its
/// defaults spelled out: seed 20130520, a 4-node cluster, 60 s windows.
const USERS: u64 = 300;
const SEED: u64 = 20130520;

/// Shuffle bytes per reduce partition of that run, as the spill trigger
/// counts them: the PLT size of every pair, and the regroup's output
/// keeps every pair it was sent.
fn partition_bytes() -> Vec<u64> {
    let cluster = Cluster::local(4, 2);
    let mut dfs = gepeto::dfs_io::trace_dfs(&cluster, 1 << 20);
    SynthConfig::new(USERS)
        .seed(SEED)
        .to_dfs(&mut dfs, "synth")
        .unwrap();
    let cfg = SamplingConfig::new(60, Technique::ClosestToUpperLimit);
    let (sampled, stats, _) =
        sampling::mapreduce_sample_by_user_in(&ExecCtx::new(&cluster), &dfs, "synth", &cfg)
            .unwrap();
    let mut bytes = vec![0u64; stats.reduce_tasks];
    for trail in sampled.trails() {
        let p = default_partition(&trail.user, stats.reduce_tasks);
        bytes[p] += trail
            .traces()
            .iter()
            .map(|t| t.approx_plt_bytes() as u64)
            .sum::<u64>();
    }
    bytes
}

/// Runs `gepeto synth` into a fresh run directory and returns its
/// stdout and committed `OUTPUT` payload.
fn synth(tag: &str, threads: &str, budget: Option<u64>) -> (String, Vec<u8>) {
    let dir = std::env::temp_dir().join(format!(
        "gepeto-mixed-partitions-{tag}-t{threads}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let users = USERS.to_string();
    let dir_s = dir.display().to_string();
    let mut argv = vec![
        "synth",
        "--users",
        &users,
        "--chunk-mb",
        "1",
        "--run-dir",
        &dir_s,
        "--threads",
        threads,
    ];
    let budget_s = budget.map(|b| b.to_string());
    if let Some(b) = &budget_s {
        argv.extend(["--memory-budget", b]);
    }
    let out = Command::new(GEPETO)
        .args(&argv)
        .output()
        .expect("spawn gepeto");
    assert!(
        out.status.success(),
        "{tag} --threads {threads} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let payload = gepeto_mapred::commit::read_committed(&dir.join("OUTPUT"))
        .unwrap_or_else(|e| panic!("{tag}: OUTPUT failed verification: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
    (String::from_utf8_lossy(&out.stdout).into_owned(), payload)
}

#[test]
fn half_spilled_regroup_equals_the_in_memory_run_at_every_thread_count() {
    let bytes = partition_bytes();
    let (small, large) = (*bytes.iter().min().unwrap(), *bytes.iter().max().unwrap());
    assert!(
        small < large,
        "equal partitions {bytes:?}: pick another seed"
    );
    // A partition spills iff its bytes exceed the budget.
    let budget = (small + large) / 2;
    let spilled = bytes.iter().filter(|&&b| b > budget).count();
    assert!(
        (1..bytes.len()).contains(&spilled),
        "budget {budget} over {bytes:?} does not split the partitions"
    );

    let (_, in_memory) = synth("mem", "1", None);
    for threads in ["1", "2", "4"] {
        let (stdout, mixed) = synth("mixed", threads, Some(budget));
        assert!(
            stdout.contains("out-of-core:"),
            "--threads {threads}: nothing spilled under budget {budget}:\n{stdout}"
        );
        assert_eq!(
            mixed, in_memory,
            "--threads {threads}: half-spilled OUTPUT differs from the in-memory run"
        );
    }
}
