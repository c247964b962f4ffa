//! Engine-level properties: the shuffle groups every value of a key into
//! exactly one reduce call, map-only jobs are order-preserving filters,
//! combining in `map_block` never changes results, and failure injection
//! never changes results (only retry counts).

use gepeto_mapred::counters::builtin;
use gepeto_mapred::hash::default_partition;
use gepeto_mapred::{
    group_sorted, map_records, ChaosPlan, Cluster, Dfs, Emitter, ExecCtx, FlatGroups, FnMapper,
    Group, JobStats, KeyRuns, MapOnlyJob, MapReduceJob, Mapper, Reducer, SpillCodec, Topology,
};
use gepeto_telemetry::{EventKind, Recorder};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone)]
struct CollectReducer;
impl Reducer<u64, u64> for CollectReducer {
    type KOut = u64;
    type VOut = Vec<u64>;
    fn reduce(&mut self, key: &u64, values: Group<'_, u64>, out: &mut Emitter<u64, Vec<u64>>) {
        let mut vs: Vec<u64> = values.iter().cloned().collect();
        vs.sort_unstable();
        out.emit(*key, vs);
    }
}

#[derive(Clone)]
struct SumReducer;
impl Reducer<u64, u64> for SumReducer {
    type KOut = u64;
    type VOut = u64;
    fn reduce(&mut self, key: &u64, values: Group<'_, u64>, out: &mut Emitter<u64, u64>) {
        out.emit(*key, values.iter().sum());
    }
}

/// Emits every group exactly as `reduce` received it, in call order.
#[derive(Clone)]
struct RecordSorted;
impl Reducer<u64, u64> for RecordSorted {
    type KOut = u64;
    type VOut = Vec<u64>;
    fn reduce(&mut self, key: &u64, values: Group<'_, u64>, out: &mut Emitter<u64, Vec<u64>>) {
        out.emit(*key, values.iter().cloned().collect());
    }
}

/// [`RecordSorted`] that takes its partition apart run by run
/// ([`run_groups`]): a group whose runs were not adjacent would be emitted
/// twice.
#[derive(Clone)]
struct RecordRuns;
impl Reducer<u64, u64> for RecordRuns {
    type KOut = u64;
    type VOut = Vec<u64>;
    fn reduce(&mut self, key: &u64, values: Group<'_, u64>, out: &mut Emitter<u64, Vec<u64>>) {
        out.emit(*key, values.iter().cloned().collect());
    }
    fn reduce_partition(&mut self, groups: FlatGroups<u64, u64>, out: &mut Emitter<u64, Vec<u64>>) {
        for (key, values) in run_groups(groups).1 {
            out.emit(key, values);
        }
    }
}

/// `(key, arrival index)` pairs over `key_space` keys; `key_space == 0`
/// makes every key distinct. The arrival index as the value makes any
/// reordering inside a group visible.
fn keyed(draws: &[u64], key_space: u64) -> Vec<(u64, u64)> {
    draws
        .iter()
        .enumerate()
        .map(|(i, &d)| match key_space {
            0 => (d * 1_000 + i as u64, i as u64),
            n => (d % n, i as u64),
        })
        .collect()
}

/// `pairs` as one map-task bucket: a run per stretch of equal adjacent
/// keys.
fn one_bucket(pairs: Vec<(u64, u64)>) -> KeyRuns<u64, u64> {
    KeyRuns::partitioned(pairs, 1, |_| 0)
        .pop()
        .expect("one part")
}

fn flat_to_nested(groups: &FlatGroups<u64, u64>) -> Vec<(u64, Vec<u64>)> {
    groups
        .iter()
        .map(|(k, vs)| (*k, vs.iter().cloned().collect()))
        .collect()
}

/// The number of columns and the groups, taken apart by
/// [`FlatGroups::into_runs`]: every column is a whole bucket, ends and
/// all, and runs of one key that follow each other join into its group —
/// a group whose runs were not adjacent shows as its key twice.
fn run_groups(groups: FlatGroups<u64, u64>) -> (usize, Vec<(u64, Vec<u64>)>) {
    let (columns, runs) = groups.into_runs();
    for (ends, column) in &columns {
        assert!(!ends.is_empty(), "an empty column");
        assert_eq!(ends.last().map(|&(_, end)| end), Some(column.len()));
    }
    let mut groups: Vec<(u64, Vec<u64>)> = Vec::new();
    for (column, run) in runs {
        let (ends, values) = &columns[column];
        let start = run.checked_sub(1).map_or(0, |before| ends[before].1);
        let (key, end) = ends[run];
        match groups.last_mut() {
            Some((last, group)) if *last == key => group.extend_from_slice(&values[start..end]),
            _ => groups.push((key, values[start..end].to_vec())),
        }
    }
    (columns.len(), groups)
}

/// Run-length encodes the input's `v / 1_000` groups: emits `(group,
/// first offset << 16 | run length)` when the group changes and in
/// `cleanup`. Its state resets exactly where the group changes, so it may
/// declare those cut points; `declares = false` is the same mapper that
/// never splits.
#[derive(Clone)]
struct RunProbe {
    declares: bool,
    run: Option<(u64, u64, u64)>,
}

impl RunProbe {
    fn new(declares: bool) -> Self {
        Self {
            declares,
            run: None,
        }
    }

    fn flush(&mut self, out: &mut Emitter<u64, u64>) {
        if let Some((group, first, n)) = self.run.take() {
            out.emit(group, first << 16 | n);
        }
    }
}

impl Mapper<u64> for RunProbe {
    type KOut = u64;
    type VOut = u64;

    fn map(&mut self, offset: u64, v: &u64, out: &mut Emitter<u64, u64>) {
        match &mut self.run {
            Some((group, _, n)) if *group == v / 1_000 => *n += 1,
            _ => {
                self.flush(out);
                self.run = Some((v / 1_000, offset, 1));
            }
        }
    }

    fn cleanup(&mut self, out: &mut Emitter<u64, u64>) {
        self.flush(out);
    }

    fn splits_between(&self, prev: &u64, next: &u64) -> bool {
        self.declares && prev / 1_000 != next / 1_000
    }
}

/// The counters a split must not move: every engine count except the
/// allocator's, which measure the host.
fn record_counters(stats: &JobStats) -> BTreeMap<String, u64> {
    let mut counters = stats.counters.clone();
    counters.retain(|name, _| !name.contains("mem"));
    counters
}

/// The `ranges` label of each `task.map` span the recorder saw, in task
/// order.
fn map_task_ranges(recorder: &Recorder) -> Vec<usize> {
    let mut ranges: Vec<(usize, usize)> = recorder
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::SpanStart && e.name == "task.map")
        .map(|e| {
            let label = |key| e.label(key).unwrap().parse().unwrap();
            (label("task"), label("ranges"))
        })
        .collect();
    ranges.sort_unstable();
    ranges.into_iter().map(|(_, n)| n).collect()
}

fn key_mapper() -> impl gepeto_mapred::Mapper<u64, KOut = u64, VOut = u64> {
    FnMapper::new(|_off: u64, v: &u64, out: &mut Emitter<u64, u64>| {
        out.emit(v % 7, *v);
    })
}

/// [`key_mapper`] combining in the mapper: `map_block` sums its block's
/// values per key and emits one pair per key. A cut only spreads a key's
/// sum over more pairs, so every position is a legal one.
#[derive(Clone)]
struct KeySums;

impl Mapper<u64> for KeySums {
    type KOut = u64;
    type VOut = u64;

    fn map(&mut self, _offset: u64, v: &u64, out: &mut Emitter<u64, u64>) {
        out.emit(v % 7, *v);
    }

    fn map_block(&mut self, _base: u64, block: &[u64], out: &mut Emitter<u64, u64>) {
        let mut sums = BTreeMap::new();
        for v in block {
            *sums.entry(v % 7).or_insert(0) += v;
        }
        for (key, sum) in sums {
            out.emit(key, sum);
        }
    }

    fn splits_between(&self, _prev: &u64, _next: &u64) -> bool {
        true
    }
}

/// Combining in `map_block` cuts what a job emits and shuffles, and not
/// what it reduces to.
#[test]
fn combining_in_map_block_shrinks_the_shuffle() {
    let cluster = Cluster::local(3, 2);
    let mut dfs = Dfs::new(cluster.topology.clone(), 256, 2);
    dfs.put_fixed("r", (0..1_000).collect(), 4).unwrap();
    let plain = MapReduceJob::new("s", &cluster, &dfs, "r", key_mapper(), SumReducer)
        .reducers(2)
        .run()
        .unwrap();
    let combined = MapReduceJob::new("s", &cluster, &dfs, "r", KeySums, SumReducer)
        .reducers(2)
        .run()
        .unwrap();
    assert_eq!(plain.output, combined.output);
    let emitted = |stats: &JobStats| stats.counter(builtin::MAP_OUTPUT_RECORDS);
    assert!(emitted(&combined.stats) < emitted(&plain.stats));
    assert!(combined.stats.sim.shuffle_bytes < plain.stats.sim.shuffle_bytes);
}

/// A job combining in `map_block` reduces to the same output whether its
/// shuffle spills or stays in memory.
#[test]
fn a_combining_job_spills_to_its_in_memory_output() {
    let cluster = Cluster::local(3, 2);
    let mut dfs = Dfs::new(cluster.topology.clone(), 256, 2);
    dfs.put_fixed("r", (0..1_000).collect(), 4).unwrap();
    let job = || MapReduceJob::new("s", &cluster, &dfs, "r", KeySums, SumReducer).reducers(2);
    let in_memory = job().run().unwrap();
    let spilled = job()
        .codecs(SpillCodec::of(), SpillCodec::of())
        .exec(&ExecCtx::new(&cluster), Some(1))
        .run()
        .unwrap();
    assert_eq!(in_memory.output, spilled.output);
    assert!(spilled.stats.counter(builtin::SPILL_FILES) > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The flat grouping the reduce path uses is the nested reference,
    /// reshaped: same groups, same order, same values in the same order —
    /// for no pair at all, one key, a few keys, and all-distinct keys. A
    /// key-sorted bucket makes every group one slice of it.
    #[test]
    fn flat_groups_are_the_nested_groups(
        draws in prop::collection::vec(0u64..1000, 0..200),
        key_space in 0u64..9,
    ) {
        let mut by_key = keyed(&draws, key_space);
        by_key.sort_by_key(|&(k, _)| k);
        let sorted = FlatGroups::from_runs(vec![one_bucket(by_key.clone())]);
        prop_assert_eq!(flat_to_nested(&sorted), group_sorted(by_key));
        prop_assert_eq!(sorted.len(), sorted.iter().count());
        prop_assert_eq!(sorted.is_empty(), draws.is_empty());
        prop_assert!(sorted.iter().all(|(_, vs)| vs.as_slice().is_some()));
    }

    /// Buckets are grouped where they lie, as the stable sort of their
    /// concatenation — equal keys keep bucket order — with every non-empty
    /// bucket kept whole as a column, in order or not. Buckets are cut
    /// from one arrival sequence at arbitrary points, so empty buckets, a
    /// single bucket, buckets out of order after any number of moved
    /// groups, and (`key_space` 1) a single key all occur; `presorted`
    /// sorts the sequence first, for buckets in order with ties at their
    /// seams.
    #[test]
    fn from_runs_keeps_every_bucket_as_a_column(
        draws in prop::collection::vec(0u64..1000, 0..200),
        key_space in 0u64..9,
        cuts in prop::collection::vec(0usize..60, 0..8),
        presorted in 0u64..2,
    ) {
        let mut pairs = keyed(&draws, key_space);
        if presorted == 1 {
            pairs.sort_by_key(|&(k, _)| k);
        }
        let mut runs: Vec<KeyRuns<u64, u64>> = Vec::new();
        let mut rest = pairs.as_slice();
        for &cut in cuts.iter().chain([&usize::MAX]) {
            let (run, tail) = rest.split_at(cut.min(rest.len()));
            runs.push(one_bucket(run.to_vec()));
            rest = tail;
        }
        let non_empty = runs.iter().filter(|b| !b.is_empty()).count();
        let mut by_key = pairs.clone();
        by_key.sort_by_key(|&(k, _)| k);
        let want = group_sorted(by_key);
        let groups = FlatGroups::from_runs(runs);
        prop_assert_eq!(flat_to_nested(&groups), want.clone());
        prop_assert_eq!(run_groups(groups), (non_empty, want));
    }

    /// Out-of-order buckets are grouped by sorting their runs, not their
    /// pairs: the result is still the nested grouping of the stably
    /// sorted concatenation, for runs of one pair up to a whole bucket,
    /// keys that come back later in their bucket and in later buckets,
    /// and empty buckets.
    #[test]
    fn sorted_runs_are_the_stably_sorted_groups(
        buckets in prop::collection::vec(
            prop::collection::vec((0u64..6, 1usize..24), 0..6),
            0..8,
        ),
    ) {
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        let mut runs: Vec<KeyRuns<u64, u64>> = Vec::new();
        for bucket in &buckets {
            let start = pairs.len();
            for &(key, len) in bucket {
                for _ in 0..len {
                    pairs.push((key, pairs.len() as u64));
                }
            }
            runs.push(one_bucket(pairs[start..].to_vec()));
        }
        let mut by_key = pairs.clone();
        by_key.sort_by_key(|&(k, _)| k);
        let non_empty = runs.iter().filter(|b| !b.is_empty()).count();
        let groups = FlatGroups::from_runs(runs);
        let want = group_sorted(by_key);
        prop_assert_eq!(flat_to_nested(&groups), want.clone());
        prop_assert_eq!(run_groups(groups), (non_empty, want));
    }

    /// A budget anywhere between "everything spills" and "nothing does"
    /// — most draws keep some partitions in memory and spill others in
    /// the same job — hands every reducer the groups of the unbudgeted run:
    /// the in-memory partitions group their map tasks' buckets, the
    /// spilled ones merge sealed runs, and both keep map-task order within
    /// a key.
    #[test]
    fn partly_spilled_jobs_hand_reducers_the_in_memory_groups(
        draws in prop::collection::vec(0u64..1000, 0..200),
        key_space in 0u64..9,
        chunk in 8usize..64,
        budget in 1usize..2048,
    ) {
        let pairs = keyed(&draws, key_space);
        let cluster = Cluster::local(3, 2);
        let mut dfs = Dfs::new(cluster.topology.clone(), chunk, 2);
        dfs.put_fixed("r", pairs, 4).unwrap();
        let identity = FnMapper::new(|_off: u64, p: &(u64, u64), out: &mut Emitter<u64, u64>| {
            out.emit(p.0, p.1);
        });
        let run = |budget: Option<usize>| {
            let job = MapReduceJob::new("s", &cluster, &dfs, "r", identity.clone(), RecordSorted)
                .reducers(3);
            match budget {
                Some(bytes) => {
                    let job = job.codecs(SpillCodec::of(), SpillCodec::of());
                    job.exec(&ExecCtx::new(&cluster), Some(bytes)).run().unwrap().output
                }
                None => job.run().unwrap().output,
            }
        };
        prop_assert_eq!(run(Some(budget)), run(None));
    }

    /// The default `reduce_partition` hands a reducer exactly the `(key,
    /// slice)` sequence that calling `reduce` per group does.
    #[test]
    fn default_reduce_partition_is_reduce_per_group(
        draws in prop::collection::vec(0u64..1000, 0..200),
        key_space in 0u64..9,
    ) {
        let mut pairs = keyed(&draws, key_space);
        pairs.sort_by_key(|&(k, _)| k);
        let groups = FlatGroups::from_runs(vec![one_bucket(pairs.clone())]);
        let mut per_group = Emitter::new();
        for (key, values) in groups.iter() {
            RecordSorted.reduce(key, values, &mut per_group);
        }
        let mut whole = Emitter::new();
        RecordSorted.reduce_partition(FlatGroups::from_runs(vec![one_bucket(pairs)]), &mut whole);
        prop_assert_eq!(whole.into_pairs(), per_group.into_pairs());
    }

    /// What a reducer is handed: the slices of one partition, in call
    /// order, are the nested grouping of the map outputs concatenated in
    /// task order and stably sorted. `presorted` stores the input in key
    /// order, so the map tasks' buckets arrive in order end to end and are
    /// grouped without a sort.
    #[test]
    fn reducers_are_handed_the_nested_groups_as_slices(
        draws in prop::collection::vec(0u64..1000, 0..200),
        key_space in 0u64..9,
        chunk in 8usize..64,
        presorted in 0u64..2,
    ) {
        let mut pairs = keyed(&draws, key_space);
        if presorted == 1 {
            pairs.sort_by_key(|&(k, _)| k);
        }
        let cluster = Cluster::local(3, 2);
        let mut dfs = Dfs::new(cluster.topology.clone(), chunk, 2);
        dfs.put_fixed("r", pairs.clone(), 4).unwrap();
        let identity = FnMapper::new(|_off: u64, p: &(u64, u64), out: &mut Emitter<u64, u64>| {
            out.emit(p.0, p.1);
        });
        let sorted = MapReduceJob::new("s", &cluster, &dfs, "r", identity, RecordSorted)
            .reducers(1)
            .run()
            .unwrap();
        let mut by_key = pairs;
        by_key.sort_by_key(|&(k, _)| k);
        prop_assert_eq!(sorted.output, group_sorted(by_key));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Input splits change nothing but the cores a chunk runs on: a job
    /// whose mapper declares its cut points equals the same job that never
    /// splits — output, record counters and map-task count — map-only and
    /// with 1 or 3 reducers. The input is one to four chunks of runs of
    /// `v / 1_000` groups: fewer chunks than executors, as many, or more.
    /// A job with reducers splits each chunk whatever the counts; a
    /// map-only job only while executors outnumber its chunks. A chunk
    /// splits at cuts that land anywhere from inside its first 4 096
    /// records to nowhere.
    #[test]
    fn declared_splits_equal_the_unsplit_job(
        runs in prop::collection::vec((0u64..40, 1usize..2_500), 1..14),
        chunks in 1usize..5,
    ) {
        let records: Vec<u64> = runs
            .iter()
            .enumerate()
            .flat_map(|(i, &(group, len))| (0..len as u64).map(move |j| group * 1_000 + (i as u64 + j) % 1_000))
            .collect();
        let per_chunk = records.len().div_ceil(chunks);
        let cluster = Cluster::local(3, 2);
        let mut dfs = Dfs::new(cluster.topology.clone(), per_chunk * 8, 2);
        dfs.put_fixed("r", records.clone(), 8).unwrap();
        let late_cut = |chunk: &[u64]| {
            (4_096..chunk.len()).any(|i| chunk[i - 1] / 1_000 != chunk[i] / 1_000)
        };
        let splits: Vec<bool> = records.chunks(per_chunk).map(late_cut).collect();
        let map_only_splits = dfs.num_blocks("r").unwrap() < gepeto_pool::global().threads();

        let recorder = Recorder::enabled();
        let split = MapOnlyJob::new("m", &cluster, &dfs, "r", RunProbe::new(true))
            .exec(&ExecCtx::new(&cluster).traced(&recorder), None)
            .run()
            .unwrap();
        let whole = MapOnlyJob::new("m", &cluster, &dfs, "r", RunProbe::new(false)).run().unwrap();
        prop_assert_eq!(&split.output, &whole.output);
        prop_assert_eq!(record_counters(&split.stats), record_counters(&whole.stats));
        prop_assert_eq!(split.stats.map_tasks, whole.stats.map_tasks);
        let want: Vec<bool> = splits.iter().map(|&s| s && map_only_splits).collect();
        let ranges: Vec<bool> = map_task_ranges(&recorder).iter().map(|&n| n > 1).collect();
        prop_assert_eq!(ranges, want);

        for reducers in [1, 3] {
            let recorder = Recorder::enabled();
            let run = |declares: bool| {
                let job = MapReduceJob::new("r", &cluster, &dfs, "r", RunProbe::new(declares), RecordSorted)
                    .reducers(reducers);
                match declares {
                    true => job.exec(&ExecCtx::new(&cluster).traced(&recorder), None).run(),
                    false => job.run(),
                }
                .unwrap()
            };
            let (split, whole) = (run(true), run(false));
            prop_assert_eq!(split.output, whole.output);
            prop_assert_eq!(record_counters(&split.stats), record_counters(&whole.stats));
            prop_assert_eq!(split.stats.map_tasks, whole.stats.map_tasks);
            let ranges: Vec<bool> = map_task_ranges(&recorder).iter().map(|&n| n > 1).collect();
            prop_assert_eq!(&ranges, &splits);
        }
    }
}

/// Emits a `(key, arrival index)` record as it is, and may cut wherever
/// the key changes: the output comes in runs of one key, split or not.
#[derive(Clone)]
struct KeyedRecords;

impl Mapper<(u64, u64)> for KeyedRecords {
    type KOut = u64;
    type VOut = u64;

    fn map(&mut self, _offset: u64, record: &(u64, u64), out: &mut Emitter<u64, u64>) {
        out.emit(record.0, record.1);
    }

    fn splits_between(&self, prev: &(u64, u64), next: &(u64, u64)) -> bool {
        prev.0 != next.0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Map outputs stored as key runs hand every path the groups the
    /// per-pair references make of the same pairs: each reduce partition
    /// (its pairs in map order) grouped by `group_sorted` after a stable
    /// sort — for buckets in key order end to end (`presorted`) and out of
    /// it (their runs sorted), and spilled past `budget`; a map-only job
    /// outputs the pairs themselves. Runs of one key are up to 700 long
    /// and chunks up to 9 000 records, so chunks split into ranges and a
    /// key's run can span a cut, a range or a chunk. A reducer that takes
    /// its partition apart run by run sees every group whole.
    ///
    /// The same pairs in key order, cut into buckets at `seams` (so a key
    /// spans one bucket or several, and a repeated seam leaves a bucket
    /// empty) with a bucket's run of one key broken in two at each of
    /// `breaks`, group as `group_sorted` of their concatenation: one
    /// column per non-empty bucket, and a key one slice of each bucket it
    /// lies in — one slice in all where it lies in one bucket.
    #[test]
    fn key_run_buckets_group_as_the_per_pair_references(
        draws in prop::collection::vec((0u64..9, 1usize..700), 0..24),
        chunk in 100usize..9_000,
        reducers in 1usize..4,
        budget in 1usize..200_000,
        presorted in 0u64..2,
        seams in prop::collection::vec(0.0f64..1.0, 0..6),
        breaks in prop::collection::vec(0.0f64..1.0, 0..6),
    ) {
        let mut records: Vec<(u64, u64)> = draws
            .iter()
            .flat_map(|&(key, len)| std::iter::repeat_n(key, len))
            .enumerate()
            .map(|(i, key)| (key, i as u64))
            .collect();
        if presorted == 1 {
            records.sort_by_key(|&(k, _)| k);
        }
        let cluster = Cluster::local(3, 2);
        let mut dfs = Dfs::new(cluster.topology.clone(), chunk * 16, 2);
        dfs.put_fixed("r", records.clone(), 16).unwrap();
        let partition = |p: usize| -> Vec<(u64, u64)> {
            records.iter().copied().filter(|(k, _)| default_partition(k, reducers) == p).collect()
        };
        let mut sorted_groups = Vec::new();
        for p in 0..reducers {
            let mut by_key = partition(p);
            by_key.sort_by_key(|&(k, _)| k);
            sorted_groups.extend(group_sorted(by_key));
        }

        let sorted = MapReduceJob::new("s", &cluster, &dfs, "r", KeyedRecords, RecordSorted)
            .reducers(reducers)
            .run()
            .unwrap();
        prop_assert_eq!(&sorted.output, &sorted_groups);
        let runs = MapReduceJob::new("c", &cluster, &dfs, "r", KeyedRecords, RecordRuns)
            .reducers(reducers)
            .run()
            .unwrap();
        prop_assert_eq!(&runs.output, &sorted_groups);
        let spilled = MapReduceJob::new("s", &cluster, &dfs, "r", KeyedRecords, RecordSorted)
            .reducers(reducers)
            .codecs(SpillCodec::of(), SpillCodec::of())
            .exec(&ExecCtx::new(&cluster), Some(budget))
            .run()
            .unwrap();
        prop_assert_eq!(&spilled.output, &sorted_groups);
        let map_only = MapOnlyJob::new("m", &cluster, &dfs, "r", KeyedRecords).run().unwrap();
        prop_assert_eq!(&map_only.output, &records);

        let mut in_order = records;
        in_order.sort_by_key(|&(k, _)| k);
        let at = |f: f64| (f * in_order.len() as f64) as usize;
        let mut seams: Vec<usize> = seams.into_iter().map(at).collect();
        seams.sort_unstable();
        let breaks: Vec<usize> = breaks.into_iter().map(at).collect();
        let mut buckets = Vec::new();
        let mut start = 0;
        for end in seams.into_iter().chain([in_order.len()]) {
            // A sentinel pair at each break, dropped with its own part,
            // leaves two adjacent runs of one key in the kept part.
            let mut pairs = Vec::new();
            for (i, &pair) in in_order.iter().enumerate().take(end).skip(start) {
                if breaks.contains(&i) {
                    pairs.push((u64::MAX, 0));
                }
                pairs.push(pair);
            }
            let parts = KeyRuns::partitioned(pairs, 2, |&k| usize::from(k == u64::MAX));
            buckets.push(parts.into_iter().next().expect("two parts"));
            start = end;
        }
        let non_empty = buckets.iter().filter(|b| !b.is_empty()).count();
        let mut buckets_of: BTreeMap<u64, usize> = BTreeMap::new();
        for bucket in &buckets {
            let mut keys: Vec<u64> = bucket.iter().map(|(&key, _)| key).collect();
            keys.dedup();
            for key in keys {
                *buckets_of.entry(key).or_default() += 1;
            }
        }
        let want = group_sorted(in_order);
        let groups = FlatGroups::from_runs(buckets);
        prop_assert_eq!(groups.len(), want.len());
        for (key, values) in groups.iter() {
            prop_assert_eq!(values.as_slice().is_some(), buckets_of[key] == 1);
        }
        prop_assert_eq!(run_groups(groups), (non_empty, want));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn shuffle_groups_every_value_exactly_once(
        records in prop::collection::vec(0u64..1000, 0..300),
        chunk in 8usize..64,
        reducers in 1usize..6,
    ) {
        let cluster = Cluster::local(3, 2);
        let mut dfs = Dfs::new(cluster.topology.clone(), chunk, 2);
        dfs.put_fixed("r", records.clone(), 4).unwrap();
        let result = MapReduceJob::new("group", &cluster, &dfs, "r", key_mapper(), CollectReducer)
            .reducers(reducers)
            .run()
            .unwrap();
        // Each key appears exactly once in the output…
        let mut got: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for (k, vs) in result.output {
            prop_assert!(got.insert(k, vs).is_none(), "key reduced twice");
        }
        // …and carries exactly the values the input holds for it.
        let mut want: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for v in &records {
            want.entry(v % 7).or_default().push(*v);
        }
        for vs in want.values_mut() {
            vs.sort_unstable();
        }
        prop_assert_eq!(got, want);
    }

    /// `map_records` sizes a task's output by what its mapper keeps: over
    /// any keep-mask its pairs are the plain per-record loop's, and its
    /// capacity is at most the block, twice the kept pairs, or one
    /// unreserved window — whichever is largest.
    #[test]
    fn map_records_sizes_its_output_by_what_it_keeps(
        len in 0usize..12_000,
        keep_per_256 in 0u64..257,
        seed in any::<u64>(),
        base in 0u64..1_000_000,
    ) {
        let keeps =
            move |off: u64| ((off ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) < keep_per_256;
        let block: Vec<u64> = (0..len as u64).map(|j| j * 3).collect();
        let mut mapper = FnMapper::new(move |off: u64, v: &u64, out: &mut Emitter<u64, u64>| {
            if keeps(off) {
                out.emit(off, *v);
            }
        });
        let mut out = Emitter::new();
        map_records(&mut mapper, base, &block, &mut out);
        let pairs = out.into_pairs();
        let want: Vec<(u64, u64)> = (0..len as u64)
            .filter(|&j| keeps(base + j))
            .map(|j| (base + j, j * 3))
            .collect();
        prop_assert_eq!(&pairs, &want);
        let bound = len.max(2 * pairs.len()).max(32);
        prop_assert!(
            pairs.capacity() <= bound,
            "{len} records, {} kept: capacity {}",
            pairs.len(),
            pairs.capacity()
        );
    }

    #[test]
    fn map_only_filter_preserves_order(
        records in prop::collection::vec(0u64..1000, 0..300),
        chunk in 8usize..64,
        modulus in 2u64..6,
    ) {
        let cluster = Cluster::local(4, 2);
        let mut dfs = Dfs::new(cluster.topology.clone(), chunk, 2);
        dfs.put_fixed("r", records.clone(), 4).unwrap();
        let mapper = FnMapper::new(move |off: u64, v: &u64, out: &mut Emitter<u64, u64>| {
            if v.is_multiple_of(modulus) {
                out.emit(off, *v);
            }
        });
        let result = MapOnlyJob::new("filter", &cluster, &dfs, "r", mapper).run().unwrap();
        let got: Vec<u64> = result.output.iter().map(|&(_, v)| v).collect();
        let want: Vec<u64> = records.iter().copied().filter(|v| v % modulus == 0).collect();
        prop_assert_eq!(got, want);
    }

    /// A job that combines in `map_block` and may be cut anywhere reduces
    /// to what the per-record job reduces to, and never shuffles more.
    /// Chunks of more than 4 096 records run as one range per 4 096.
    #[test]
    fn combiner_is_transparent(
        records in prop::collection::vec(0u64..1000, 1..12_000),
        chunks in 1usize..4,
    ) {
        let per_chunk = records.len().div_ceil(chunks);
        let ranges: Vec<usize> = records.chunks(per_chunk).map(|c| c.len().div_ceil(4_096)).collect();
        let cluster = Cluster::local(3, 2);
        let mut dfs = Dfs::new(cluster.topology.clone(), per_chunk * 4, 2);
        dfs.put_fixed("r", records, 4).unwrap();
        let plain = MapReduceJob::new("s", &cluster, &dfs, "r", key_mapper(), SumReducer)
            .reducers(3).run().unwrap();
        let recorder = Recorder::enabled();
        let combined = MapReduceJob::new("s", &cluster, &dfs, "r", KeySums, SumReducer)
            .reducers(3)
            .exec(&ExecCtx::new(&cluster).traced(&recorder), None)
            .run()
            .unwrap();
        prop_assert_eq!(plain.output, combined.output);
        prop_assert!(combined.stats.sim.shuffle_bytes <= plain.stats.sim.shuffle_bytes);
        prop_assert_eq!(map_task_ranges(&recorder), ranges);
    }

    #[test]
    fn failure_injection_never_changes_output(
        records in prop::collection::vec(0u64..1000, 1..200),
        p in 0.0f64..0.8,
        seed in any::<u64>(),
    ) {
        let clean_cluster = Cluster::local(3, 2);
        let mut dfs = Dfs::new(clean_cluster.topology.clone(), 16, 2);
        dfs.put_fixed("r", records, 4).unwrap();
        let clean = MapReduceJob::new("s", &clean_cluster, &dfs, "r", key_mapper(), SumReducer)
            .reducers(2).run().unwrap();
        // 1000 attempts per task: never exhausted.
        let flaky_cluster =
            Cluster::local(3, 2).with_chaos(ChaosPlan::none().fail_tasks(p, p, seed, 1000));
        let flaky = MapReduceJob::new("s", &flaky_cluster, &dfs, "r", key_mapper(), SumReducer)
            .reducers(2).run().unwrap();
        prop_assert_eq!(clean.output, flaky.output);
    }

    #[test]
    fn dfs_chunk_count_matches_byte_math(
        n in 1usize..2000,
        rec_bytes in 1usize..64,
        chunk in 1usize..4096,
    ) {
        let cluster = Cluster::local(5, 1);
        let mut dfs = Dfs::new(cluster.topology.clone(), chunk, 3);
        dfs.put_fixed("f", (0..n as u64).collect(), rec_bytes).unwrap();
        let per_chunk = chunk.div_ceil(rec_bytes);
        let want = n.div_ceil(per_chunk);
        prop_assert_eq!(dfs.num_blocks("f").unwrap(), want);
        prop_assert_eq!(dfs.read("f").unwrap().len(), n);
    }

    // The documented contract of `Dfs::place_replicas`: the effective
    // factor is clamped to the node count, the returned nodes are always
    // pairwise distinct, and a factor ≥ 3 on a multi-rack topology spans
    // at least two racks.
    #[test]
    fn replica_placement_is_clamped_distinct_and_rack_diverse(
        nodes in 1usize..12,
        racks in 1usize..5,
        replication in 1usize..6,
        chunk_index in 0usize..40,
        file_tag in 0u64..1000,
    ) {
        let topo = Topology::new(nodes, racks.min(nodes), 2);
        let dfs: Dfs<u64> = Dfs::new(topo.clone(), 64, replication);
        let file = format!("f{file_tag}");
        let replicas = dfs.place_replicas(&file, chunk_index);
        prop_assert_eq!(replicas.len(), replication.min(nodes));
        let mut uniq = replicas.clone();
        uniq.sort_unstable();
        uniq.dedup();
        prop_assert_eq!(uniq.len(), replicas.len(), "duplicate datanode in {:?}", &replicas);
        prop_assert!(replicas.iter().all(|&n| n < nodes));
        if replication.min(nodes) >= 3 && topo.num_racks() >= 2 {
            let rack_count = {
                let mut rs: Vec<_> = replicas.iter().map(|&n| topo.rack_of(n)).collect();
                rs.sort_unstable();
                rs.dedup();
                rs.len()
            };
            prop_assert!(rack_count >= 2, "replicas {:?} all on one rack", &replicas);
        }
    }
}
