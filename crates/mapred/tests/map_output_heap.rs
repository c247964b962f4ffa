//! The heap a map phase holds is sized by what its mappers emit, not by
//! what they read, and not by how many tasks partition at once.
//!
//! The allocator's ledger is process-global, so the tests of this binary
//! take turns: each holds `LEDGER` while its window is open, and no other
//! test binary shares the process.

use gepeto_mapred::{
    Cluster, Dfs, Emitter, ExecCtx, FnMapper, MapOnlyJob, MapReduceJob, Mapper, Reducer,
};
use gepeto_telemetry::{mem_stats, EventKind, LedgerScope, Recorder};
use std::sync::Mutex;

static LEDGER: Mutex<()> = Mutex::new(());

/// Two executors, whatever the host: enough for two map tasks to run at
/// once. Inert once the pool exists, and every test here asks for two.
fn two_executors() {
    gepeto_pool::set_threads(2);
    assert_eq!(gepeto_pool::global().threads(), 2);
}

#[test]
fn a_filter_job_holds_what_it_keeps_not_what_it_reads() {
    let _turn = LEDGER.lock().unwrap_or_else(|e| e.into_inner());
    two_executors();
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

/// Records of one user: `v / 16` names it, so users come in runs of 16.
const TRACES_PER_USER: u64 = 16;

/// A by-user regroup in miniature: one 32-byte value per record under its
/// user's key, cut wherever the user changes.
#[derive(Clone)]
struct ByUser;

impl Mapper<u64> for ByUser {
    type KOut = u32;
    type VOut = [u64; 4];

    fn map(&mut self, _offset: u64, v: &u64, out: &mut Emitter<u32, [u64; 4]>) {
        out.emit((v / TRACES_PER_USER) as u32, [*v; 4]);
    }

    fn splits_between(&self, prev: &u64, next: &u64) -> bool {
        prev / TRACES_PER_USER != next / TRACES_PER_USER
    }
}

#[derive(Clone)]
struct CountPerUser;

impl Reducer<u32, [u64; 4]> for CountPerUser {
    type KOut = u32;
    type VOut = usize;

    fn reduce(&mut self, key: &u32, values: &[[u64; 4]], out: &mut Emitter<u32, usize>) {
        out.emit(*key, values.len());
    }
}

#[test]
fn a_keyed_map_phase_peaks_at_what_it_hands_the_shuffle() {
    let _turn = LEDGER.lock().unwrap_or_else(|e| e.into_inner());
    two_executors();
    // Four chunks of 50 000 records on two executors: two map tasks run
    // at once, as in a by-user job on a two-core host.
    let records: Vec<u64> = (0..200_000).collect();
    let cluster = Cluster::local(4, 2);
    let mut dfs = Dfs::new(cluster.topology.clone(), 50_000 * 8, 2);
    dfs.put_fixed("r", records, 8).unwrap();
    assert_eq!(dfs.num_blocks("r").unwrap(), 4);

    let recorder = Recorder::enabled();
    let live_at_start = mem_stats().live_bytes;
    let result = MapReduceJob::new("by-user", &cluster, &dfs, "r", ByUser, CountPerUser)
        .reducers(3)
        .exec(&ExecCtx::new(&cluster).traced(&recorder), None)
        .run()
        .unwrap();
    assert_eq!(result.output.len(), (200_000 / TRACES_PER_USER) as usize);

    // The map phase's own peak, and what it still held when it ended: the
    // buckets it hands the shuffle (the live heap is sampled right after
    // the phase's span closes).
    let events = recorder.events();
    let end = events
        .iter()
        .position(|e| e.kind == EventKind::SpanEnd && e.name == "phase.map")
        .expect("a map phase");
    let peak_delta: u64 = events[end]
        .label("mem.peak_delta")
        .expect("a traced span carries its ledger")
        .parse()
        .unwrap();
    let live_after = events[end..]
        .iter()
        .find(|e| e.kind == EventKind::Count && e.name == "mem.live_bytes")
        .and_then(|e| e.value)
        .expect("a phase samples the live heap") as u64;
    let bucket_bytes = live_after - live_at_start;
    assert!(
        peak_delta as f64 <= 1.15 * bucket_bytes as f64,
        "map phase peaked {peak_delta} B above its start for {bucket_bytes} B of buckets \
         ({:.2} x)",
        peak_delta as f64 / bucket_bytes as f64
    );
}
