//! The heap a filtering map-only job holds is sized by what its mappers
//! emit, not by what they read.
//!
//! This binary holds a single test on purpose: the allocator's ledger is
//! process-global, so no sibling test may allocate inside its window.

use gepeto_mapred::{Cluster, Dfs, Emitter, FnMapper, MapOnlyJob};
use gepeto_telemetry::LedgerScope;

#[test]
fn a_filter_job_holds_what_it_keeps_not_what_it_reads() {
    // Ten chunks of 96 000 records; the filter keeps one record in twelve.
    let records: Vec<u64> = (0..960_000).collect();
    let cluster = Cluster::local(4, 2);
    let mut dfs = Dfs::new(cluster.topology.clone(), 96_000 * 8, 2);
    dfs.put_fixed("r", records, 8).unwrap();
    let filter = FnMapper::new(|off: u64, v: &u64, out: &mut Emitter<u64, u64>| {
        if off.is_multiple_of(12) {
            out.emit(off, *v);
        }
    });

    let scope = LedgerScope::open();
    let result = MapOnlyJob::new("filter", &cluster, &dfs, "r", filter)
        .run()
        .unwrap();
    let delta = scope.close();

    assert_eq!(result.output.len(), 80_000);
    let input_pair_bytes = (960_000 * std::mem::size_of::<(u64, u64)>()) as u64;
    assert!(
        delta.peak_delta < input_pair_bytes / 4,
        "peak {} B against {} B of input pairs",
        delta.peak_delta,
        input_pair_bytes
    );
}
