//! Out-of-core execution contract: routing a shuffle through the
//! spill-to-disk path must never change a single output bit relative to
//! the all-in-memory path, and a node crash in the middle of a spilling
//! run must recover to the same bits. Inputs come from `gepeto-synth`,
//! the deterministic streaming workload generator, so every case is
//! reproducible from its `(users, seed)` pair.

use gepeto::prelude::*;
use gepeto::sampling::{self, SamplingConfig, Technique};
use gepeto_mapred::counters::builtin;
use gepeto_mapred::{ChaosPlan, IoFaultPlan, RetryPolicy, SimParams};
use gepeto_synth::SynthConfig;
use proptest::prelude::*;

/// Bit-exact fingerprint of a dataset: float coordinates compared via
/// `to_bits`, so "equal" means equal down to the last mantissa bit.
fn bits(ds: &Dataset) -> Vec<(u32, i64, u64, u64, u32)> {
    ds.to_traces()
        .iter()
        .map(|t| {
            (
                t.user,
                t.timestamp.0,
                t.point.lat.to_bits(),
                t.point.lon.to_bits(),
                t.altitude.to_bits(),
            )
        })
        .collect()
}

fn synth_dfs(cluster: &Cluster, users: u64, seed: u64, chunk: usize) -> Dfs<MobilityTrace> {
    let mut dfs = gepeto::dfs_io::trace_dfs(cluster, chunk);
    SynthConfig::new(users)
        .seed(seed)
        .to_dfs(&mut dfs, "synth")
        .unwrap();
    dfs
}

/// The plain context plus a shuffle memory budget.
fn budgeted(cluster: &Cluster, memory_budget: Option<usize>) -> ExecCtx<'_> {
    ExecCtx {
        memory_budget,
        ..ExecCtx::new(cluster)
    }
}

/// Runs the by-user regrouping shuffle over `dfs`'s synth workload in
/// `ctx` and returns (output, stats).
fn regroup_in(
    ctx: &ExecCtx<'_>,
    dfs: &Dfs<MobilityTrace>,
    window: i64,
) -> (Dataset, gepeto_mapred::JobStats) {
    let cfg = SamplingConfig::new(window, Technique::ClosestToUpperLimit);
    let (out, stats, _) = sampling::mapreduce_sample_by_user_in(ctx, dfs, "synth", &cfg).unwrap();
    (out, stats)
}

/// [`regroup_chaos`] on a calm cluster.
fn regroup(
    users: u64,
    seed: u64,
    window: i64,
    budget: Option<usize>,
) -> (Dataset, gepeto_mapred::JobStats) {
    regroup_chaos(users, seed, window, budget, ChaosPlan::none())
}

/// The by-user regrouping shuffle with a storage-fault plan injected
/// beneath the spill writer.
fn regroup_chaos(
    users: u64,
    seed: u64,
    window: i64,
    budget: Option<usize>,
    chaos: ChaosPlan,
) -> (Dataset, gepeto_mapred::JobStats) {
    let mut cluster = Cluster::local(4, 2).with_chaos(chaos);
    cluster.sim = SimParams::unit_time();
    let dfs = synth_dfs(&cluster, users, seed, 16 * 1024);
    regroup_in(&budgeted(&cluster, budget), &dfs, window)
}

/// Chaos: a datanode dies while the shuffle is spilling. The re-executed
/// attempts rebuild their runs from scratch and the merged output is
/// still bit-identical to the undisturbed spilling run.
#[test]
fn crash_mid_spill_recovers_bit_identically() {
    let run = |chaos: ChaosPlan| {
        let mut cluster = Cluster::local(3, 2).with_chaos(chaos);
        cluster.sim = SimParams::unit_time();
        let dfs = synth_dfs(&cluster, 120, 11, 4 * 1024);
        regroup_in(&budgeted(&cluster, Some(64)), &dfs, 60)
    };
    let (clean, clean_stats) = run(ChaosPlan::none());
    let (chaotic, chaotic_stats) = run(ChaosPlan::none().crash_node(0, 1.5));

    assert!(clean_stats.counter(builtin::SPILL_FILES) > 0);
    assert!(chaotic_stats.counter(builtin::SPILL_FILES) > 0);
    let recovered = [
        builtin::TASK_RETRIES,
        builtin::REEXECUTED_MAPS,
        builtin::FAILED_OVER_READS,
    ]
    .map(|c| chaotic_stats.counter(c));
    assert!(
        recovered.iter().sum::<u64>() > 0,
        "the crash was a no-op; move it earlier"
    );
    assert_eq!(
        bits(&clean),
        bits(&chaotic),
        "crash-mid-spill recovery changed output bits"
    );
}

/// Storage chaos: transient EIOs, torn writes, and bit-rot all firing
/// under a starvation budget. The commit/verify/quarantine machinery
/// must absorb every fault — the counters prove faults actually fired,
/// and the merged output is still bit-identical to the calm spill run.
#[test]
fn spill_under_io_faults_is_bit_identical_and_counts_repairs() {
    let (calm, _) = regroup(40, 7, 60, Some(1));
    let plan = IoFaultPlan::new(13).eio(0.3).torn(0.4).bitrot(0.25);
    let (faulted, stats) = regroup_chaos(40, 7, 60, Some(1), ChaosPlan::none().io_faults(plan));

    let repairs = stats.counter(builtin::IO_RETRIES)
        + stats.counter(builtin::TORN_WRITES)
        + stats.counter(builtin::RUNS_QUARANTINED);
    assert!(
        repairs > 0,
        "fault plan was a no-op; raise the probabilities"
    );
    assert_eq!(
        bits(&calm),
        bits(&faulted),
        "storage faults changed output bits"
    );
}

/// ENOSPC degradation: a virtual disk too small for the starved run's
/// spill footprint fails the job with `DiskFull`; the context's retry
/// policy re-submits it with a grown memory budget that no longer needs
/// the disk, and the output matches the unconstrained run's bits.
#[test]
fn enospc_recovers_by_growing_the_memory_budget() {
    let (unconstrained, _) = regroup(20, 5, 60, None);

    let chaos = ChaosPlan::none().io_faults(IoFaultPlan::new(1).disk_capacity(512));
    let mut cluster = Cluster::local(4, 2).with_chaos(chaos);
    cluster.sim = SimParams::unit_time();
    let dfs = synth_dfs(&cluster, 20, 5, 16 * 1024);
    let cfg = SamplingConfig::new(60, Technique::ClosestToUpperLimit);
    // 1 byte forces every partition out of core; after one ENOSPC the
    // grown budget is large enough to spill nothing.
    let ctx = ExecCtx {
        retry: RetryPolicy::none()
            .io_retries(3)
            .enospc_factor((64 * 1024 * 1024) as f64),
        ..budgeted(&cluster, Some(1))
    };
    let (sampled, stats, resubmissions) =
        sampling::mapreduce_sample_by_user_in(&ctx, &dfs, "synth", &cfg).unwrap();
    assert_eq!(resubmissions, 1, "the 512-byte disk never filled up");
    assert_eq!(stats.name, "sampling-by-user.r1");
    assert_eq!(stats.counter(builtin::SPILL_FILES), 0);
    assert_eq!(bits(&unconstrained), bits(&sampled));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The equivalence holds for arbitrary workload seeds, user counts,
    /// sampling windows and budget sizes — budgets in 1..4096 land
    /// anywhere between "everything spills" and "nothing spills".
    #[test]
    fn spill_equivalence_holds_for_arbitrary_workloads(
        users in 1u64..12,
        seed in any::<u64>(),
        window in 1i64..10_000,
        budget in 1usize..4096,
    ) {
        let (in_mem, _) = regroup(users, seed, window, None);
        let (spilled, stats) = regroup(users, seed, window, Some(budget));
        prop_assert_eq!(bits(&in_mem), bits(&spilled));
        prop_assert_eq!(
            stats.counter(builtin::REDUCE_OUTPUT_RECORDS),
            in_mem.num_users() as u64
        );
    }

    /// Bit-identity also holds under arbitrary storage-fault plans:
    /// whatever mix of transient EIOs, torn writes, and bit-rot a seed
    /// produces, repaired spill runs merge to the same bytes.
    #[test]
    fn spill_equivalence_survives_arbitrary_io_faults(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        eio in 0.0f64..0.5,
        torn in 0.0f64..0.6,
        bitrot in 0.0f64..0.4,
    ) {
        let (calm, _) = regroup(8, seed, 60, Some(1));
        let plan = IoFaultPlan::new(fault_seed).eio(eio).torn(torn).bitrot(bitrot);
        let (faulted, _) = regroup_chaos(8, seed, 60, Some(1), ChaosPlan::none().io_faults(plan));
        prop_assert_eq!(bits(&calm), bits(&faulted));
    }
}
