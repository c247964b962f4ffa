//! The heap a map phase holds is sized by what its mappers emit, not by
//! what they read, and not by how many tasks partition at once; a reduce
//! phase allocates no copy of its buckets' values, whether they arrive in
//! key order or not and whether a key spans one bucket or all of them;
//! a commit writes its payload without a copy of it; and a spill run's
//! damaged length prefix sizes no allocation.
//!
//! The allocator's ledger is process-global, so the tests of this binary
//! take turns: each holds `LEDGER` while its window is open, and no other
//! test binary shares the process.

use gepeto_mapred::spill::{seal_run, SpillDir, SpillMerge};
use gepeto_mapred::{
    commit, ChaosPlan, Cluster, Dfs, Emitter, ExecCtx, FnMapper, Group, MapOnlyJob, MapReduceJob,
    Mapper, Reducer, SpillCodec,
};
use gepeto_telemetry::{mem_stats, Event, EventKind, LedgerScope, Recorder};
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

#[test]
fn a_map_only_job_allocates_its_emitters_and_one_joined_output() {
    let _turn = LEDGER.lock().unwrap_or_else(|e| e.into_inner());
    two_executors();
    // Four chunks of 50 000 records, one pair out per record, every key
    // distinct: the emitters' vectors, then the output they are joined
    // into, and no copy of the pairs between.
    let records: Vec<u64> = (0..200_000).collect();
    let cluster = Cluster::local(4, 2);
    let mut dfs = Dfs::new(cluster.topology.clone(), 50_000 * 8, 2);
    dfs.put_fixed("r", records, 8).unwrap();
    assert_eq!(dfs.num_blocks("r").unwrap(), 4);
    let one_to_one = FnMapper::new(|off: u64, v: &u64, out: &mut Emitter<u64, u64>| {
        out.emit(off, *v);
    });

    let recorder = Recorder::enabled();
    let result = MapOnlyJob::new("one-to-one", &cluster, &dfs, "r", one_to_one)
        .exec(&ExecCtx::new(&cluster).traced(&recorder), None)
        .run()
        .unwrap();
    assert_eq!(result.output.len(), 200_000);
    assert!(result
        .output
        .iter()
        .enumerate()
        .all(|(i, &(k, v))| k == i as u64 && v == k));

    // The emitters reserve their range's pairs exactly, and the output is
    // reserved once: two copies of the pairs in all.
    let pair_bytes = (200_000 * std::mem::size_of::<(u64, u64)>()) as f64;
    let allocated = span_ledger(&recorder.events(), "job", "mem.allocated");
    assert!(
        (allocated as f64) <= 2.1 * pair_bytes,
        "map-only job allocated {allocated} B for {pair_bytes} B of pairs ({:.2} x)",
        allocated as f64 / pair_bytes
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

    fn reduce(&mut self, key: &u32, values: Group<'_, [u64; 4]>, out: &mut Emitter<u32, usize>) {
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
    // buckets it hands the shuffle.
    let events = recorder.events();
    let peak_delta = span_ledger(&events, "phase.map", "mem.peak_delta");
    let bucket_bytes = map_output_bytes(&events, live_at_start);
    assert!(
        peak_delta as f64 <= 1.15 * bucket_bytes as f64,
        "map phase peaked {peak_delta} B above its start for {bucket_bytes} B of buckets \
         ({:.2} x)",
        peak_delta as f64 / bucket_bytes as f64
    );
}

/// Adds up a partition's values: one pair out per reduce task, so what
/// the reduce phase allocates is its grouping.
#[derive(Clone)]
struct CountAll(usize);

impl Reducer<u32, [u64; 4]> for CountAll {
    type KOut = u32;
    type VOut = usize;

    fn reduce(&mut self, _key: &u32, values: Group<'_, [u64; 4]>, _out: &mut Emitter<u32, usize>) {
        self.0 += values.len();
    }

    fn cleanup(&mut self, out: &mut Emitter<u32, usize>) {
        out.emit(0, self.0);
    }
}

#[test]
fn an_in_order_reduce_phase_groups_its_buckets_without_copying_them() {
    let _turn = LEDGER.lock().unwrap_or_else(|e| e.into_inner());
    two_executors();
    // A user-major input: every partition's buckets are in key order end
    // to end, users cross the chunk seams, and each partition is fed by
    // several buckets.
    let records: Vec<u64> = (8..200_008).collect();
    let cluster = Cluster::local(4, 2);
    let mut dfs = Dfs::new(cluster.topology.clone(), 50_000 * 8, 2);
    dfs.put_fixed("r", records, 8).unwrap();
    assert_eq!(dfs.num_blocks("r").unwrap(), 4);

    let recorder = Recorder::enabled();
    let live_at_start = mem_stats().live_bytes;
    let result = MapReduceJob::new("by-user", &cluster, &dfs, "r", ByUser, CountAll(0))
        .reducers(3)
        .exec(&ExecCtx::new(&cluster).traced(&recorder), None)
        .run()
        .unwrap();
    let counted: usize = result.output.iter().map(|&(_, n)| n).sum();
    assert_eq!(counted, 200_000);

    let events = recorder.events();
    let bucket_bytes = map_output_bytes(&events, live_at_start);
    let allocated = span_ledger(&events, "phase.reduce", "mem.allocated");
    assert!(
        (allocated as f64) < 0.05 * bucket_bytes as f64,
        "reduce phase allocated {allocated} B for {bucket_bytes} B of buckets ({:.2} x)",
        allocated as f64 / bucket_bytes as f64
    );
}

/// Every record under one key, cut anywhere: one partition fed by dozens
/// of buckets, each continuing the key of the one before.
#[derive(Clone)]
struct OneKey;

impl Mapper<u64> for OneKey {
    type KOut = u32;
    type VOut = [u64; 4];

    fn map(&mut self, _offset: u64, v: &u64, out: &mut Emitter<u32, [u64; 4]>) {
        out.emit(0, [*v; 4]);
    }

    fn splits_between(&self, _prev: &u64, _next: &u64) -> bool {
        true
    }
}

#[test]
fn a_key_across_every_bucket_is_reduced_without_a_copy() {
    let _turn = LEDGER.lock().unwrap_or_else(|e| e.into_inner());
    two_executors();
    let records: Vec<u64> = (0..200_000).collect();
    let cluster = Cluster::local(4, 2);
    let mut dfs = Dfs::new(cluster.topology.clone(), 50_000 * 8, 2);
    dfs.put_fixed("r", records, 8).unwrap();

    let recorder = Recorder::enabled();
    let live_at_start = mem_stats().live_bytes;
    let result = MapReduceJob::new("one-key", &cluster, &dfs, "r", OneKey, CountAll(0))
        .reducers(1)
        .exec(&ExecCtx::new(&cluster).traced(&recorder), None)
        .run()
        .unwrap();
    assert_eq!(result.output, vec![(0, 200_000)]);

    let events = recorder.events();
    let ranges: usize = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanStart && e.name == "task.map")
        .map(|e| {
            e.label("ranges")
                .expect("a map task's ranges")
                .parse::<usize>()
                .unwrap()
        })
        .sum();
    assert!(ranges > 40, "{ranges} buckets");
    let bucket_bytes = map_output_bytes(&events, live_at_start);
    let allocated = span_ledger(&events, "phase.reduce", "mem.allocated");
    assert!(
        (allocated as f64) < 0.05 * bucket_bytes as f64,
        "reduce phase allocated {allocated} B for {bucket_bytes} B of buckets ({:.2} x)",
        allocated as f64 / bucket_bytes as f64
    );
}

/// [`ByUser`] with the users in falling order: every bucket's runs are
/// out of key order, so each partition's runs are sorted.
#[derive(Clone)]
struct ByUserFalling;

impl Mapper<u64> for ByUserFalling {
    type KOut = u32;
    type VOut = [u64; 4];

    fn map(&mut self, _offset: u64, v: &u64, out: &mut Emitter<u32, [u64; 4]>) {
        out.emit(u32::MAX - (v / TRACES_PER_USER) as u32, [*v; 4]);
    }

    fn splits_between(&self, prev: &u64, next: &u64) -> bool {
        prev / TRACES_PER_USER != next / TRACES_PER_USER
    }
}

#[test]
fn an_out_of_order_reduce_phase_copies_no_values() {
    let _turn = LEDGER.lock().unwrap_or_else(|e| e.into_inner());
    two_executors();
    let records: Vec<u64> = (0..200_000).collect();
    let cluster = Cluster::local(4, 2);
    let mut dfs = Dfs::new(cluster.topology.clone(), 50_000 * 8, 2);
    dfs.put_fixed("r", records, 8).unwrap();

    let recorder = Recorder::enabled();
    let result = MapReduceJob::new("falling", &cluster, &dfs, "r", ByUserFalling, CountAll(0))
        .reducers(3)
        .exec(&ExecCtx::new(&cluster).traced(&recorder), None)
        .run()
        .unwrap();
    let counted: usize = result.output.iter().map(|&(_, n)| n).sum();
    assert_eq!(counted, 200_000);

    // Only the run descriptors are sorted: the values are reduced where
    // the map tasks left them.
    let value_bytes = (200_000 * std::mem::size_of::<[u64; 4]>()) as f64;
    let allocated = span_ledger(&recorder.events(), "phase.reduce", "mem.allocated");
    assert!(
        (allocated as f64) < 0.05 * value_bytes,
        "reduce phase allocated {allocated} B for {value_bytes} B of values ({:.2} x)",
        allocated as f64 / value_bytes
    );
}

#[test]
fn a_commit_writes_its_payload_without_copying_it() {
    let _turn = LEDGER.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("gepeto-commit-heap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("payload.run");
    let payload = vec![7u8; 4 << 20];
    let chaos = ChaosPlan::none();

    let scope = LedgerScope::open();
    let receipt = commit::commit_bytes(&path, &payload, "payload.run", 0, &chaos).unwrap();
    let delta = scope.close();

    assert_eq!(receipt.payload_bytes, 4 << 20);
    assert_eq!(commit::read_committed(&path).unwrap(), payload);
    let _ = std::fs::remove_dir_all(&dir);
    // The payload, then its footer: no stream holding both.
    assert!(
        delta.allocated < 64 << 10,
        "a 4 MiB commit allocated {} B",
        delta.allocated
    );
}

/// The ledger label `key` of the first span `name` to end.
#[test]
fn a_damaged_length_prefix_is_an_error_not_an_allocation() {
    let _turn = LEDGER.lock().unwrap_or_else(|e| e.into_inner());
    let dir = SpillDir::create_in(&std::env::temp_dir(), "prefix", None, None).unwrap();
    let codec = SpillCodec::<u64, u64>::of();
    let (run, _) = seal_run(
        &codec,
        &dir,
        "prefix",
        &[(1, 2), (3, 4)],
        &ChaosPlan::none(),
    )
    .unwrap();
    // The first record's prefix now claims 64 MiB.
    let mut bytes = std::fs::read(&run.path).unwrap();
    bytes[..4].copy_from_slice(&(64u32 << 20).to_le_bytes());
    std::fs::write(&run.path, bytes).unwrap();

    let scope = LedgerScope::open();
    let merge = SpillMerge::open(std::slice::from_ref(&run), &codec);
    let delta = scope.close();

    assert!(merge.is_err());
    assert!(
        delta.peak_delta < 1 << 20,
        "peak {} B opening a run with a forged prefix",
        delta.peak_delta
    );
}

fn span_ledger(events: &[Event], name: &str, key: &str) -> u64 {
    events
        .iter()
        .find(|e| e.kind == EventKind::SpanEnd && e.name == name)
        .unwrap_or_else(|| panic!("a {name} span"))
        .label(key)
        .expect("a traced span carries its ledger")
        .parse()
        .unwrap()
}

/// What the map phase still held when it ended, above `live_at_start`:
/// the buckets it hands the shuffle (the live heap is sampled right after
/// the phase's span closes).
fn map_output_bytes(events: &[Event], live_at_start: u64) -> u64 {
    let end = events
        .iter()
        .position(|e| e.kind == EventKind::SpanEnd && e.name == "phase.map")
        .expect("a map phase");
    let live_after = events[end..]
        .iter()
        .find(|e| e.kind == EventKind::Count && e.name == "mem.live_bytes")
        .and_then(|e| e.value)
        .expect("a phase samples the live heap") as u64;
    live_after - live_at_start
}
