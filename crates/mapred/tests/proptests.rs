//! Engine-level properties: the shuffle groups every value of a key into
//! exactly one reduce call, map-only jobs are order-preserving filters,
//! combiners never change results, and failure injection never changes
//! results (only retry counts).

use gepeto_mapred::{
    group_sorted, group_unsorted, map_records, ChaosPlan, Cluster, Combiner, Dfs, Emitter, ExecCtx,
    FlatGroups, FnMapper, JobStats, MapOnlyJob, MapReduceJob, Mapper, Reducer, SpillCodec,
    Topology,
};
use gepeto_telemetry::{EventKind, Recorder};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone)]
struct CollectReducer;
impl Reducer<u64, u64> for CollectReducer {
    type KOut = u64;
    type VOut = Vec<u64>;
    fn reduce(&mut self, key: &u64, values: &[u64], out: &mut Emitter<u64, Vec<u64>>) {
        let mut vs = values.to_vec();
        vs.sort_unstable();
        out.emit(*key, vs);
    }
}

#[derive(Clone)]
struct SumReducer;
impl Reducer<u64, u64> for SumReducer {
    type KOut = u64;
    type VOut = u64;
    fn reduce(&mut self, key: &u64, values: &[u64], out: &mut Emitter<u64, u64>) {
        out.emit(*key, values.iter().sum());
    }
}

#[derive(Clone)]
struct SumCombiner;
impl Combiner<u64, u64> for SumCombiner {
    fn combine(&mut self, _key: &u64, values: &[u64]) -> Vec<u64> {
        vec![values.iter().sum()]
    }
}

/// Emits every group exactly as `reduce` received it, in call order.
#[derive(Clone)]
struct RecordSorted;
impl Reducer<u64, u64> for RecordSorted {
    type KOut = u64;
    type VOut = Vec<u64>;
    fn reduce(&mut self, key: &u64, values: &[u64], out: &mut Emitter<u64, Vec<u64>>) {
        out.emit(*key, values.to_vec());
    }
}

/// [`RecordSorted`] for the sort-skipping path.
#[derive(Clone)]
struct RecordUnsorted;
impl Reducer<u64, u64> for RecordUnsorted {
    type KOut = u64;
    type VOut = Vec<u64>;
    const SORTED_INPUT: bool = false;
    fn reduce(&mut self, key: &u64, values: &[u64], out: &mut Emitter<u64, Vec<u64>>) {
        out.emit(*key, values.to_vec());
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

fn flat_to_nested(groups: &FlatGroups<u64, u64>) -> Vec<(u64, Vec<u64>)> {
    groups.iter().map(|(k, vs)| (*k, vs.to_vec())).collect()
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

/// The `ranges` label of each `task.map` span the recorder saw.
fn map_task_ranges(recorder: &Recorder) -> Vec<usize> {
    recorder
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::SpanStart && e.name == "task.map")
        .filter_map(|e| e.labels.iter().find(|(k, _)| k == "ranges"))
        .map(|(_, v)| v.parse().unwrap())
        .collect()
}

fn key_mapper() -> impl gepeto_mapred::Mapper<u64, KOut = u64, VOut = u64> {
    FnMapper::new(|_off: u64, v: &u64, out: &mut Emitter<u64, u64>| {
        out.emit(v % 7, *v);
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The flat grouping the reduce path uses is the nested reference,
    /// reshaped: same groups, same order, same values in the same order —
    /// for no pair at all, one key, a few keys, and all-distinct keys.
    #[test]
    fn flat_groups_are_the_nested_groups(
        draws in prop::collection::vec(0u64..1000, 0..200),
        key_space in 0u64..9,
    ) {
        let pairs = keyed(&draws, key_space);
        let unsorted = FlatGroups::unsorted(pairs.clone());
        prop_assert_eq!(flat_to_nested(&unsorted), group_unsorted(pairs.clone()));
        prop_assert_eq!(unsorted.len(), unsorted.iter().count());

        let mut by_key = pairs;
        by_key.sort_by_key(|&(k, _)| k);
        let sorted = FlatGroups::sorted(by_key.clone());
        prop_assert_eq!(flat_to_nested(&sorted), group_sorted(by_key));
        prop_assert_eq!(sorted.is_empty(), draws.is_empty());
    }

    /// Runs in key order end to end are grouped in place as the sorted
    /// grouping of their concatenation; any other concatenation is handed
    /// back unchanged, and its stable sort groups the same way — equal
    /// keys keep run order. Runs are cut from one arrival sequence at
    /// arbitrary points, so empty runs, a single run, runs out of order
    /// after any number of moved groups, and (`key_space` 1) a single key
    /// all occur; `presorted` sorts the sequence first, for runs in order
    /// with ties at their seams.
    #[test]
    fn sorted_runs_group_in_place_or_hand_back_the_concatenation(
        draws in prop::collection::vec(0u64..1000, 0..200),
        key_space in 0u64..9,
        cuts in prop::collection::vec(0usize..60, 0..8),
        presorted in 0u64..2,
    ) {
        let mut pairs = keyed(&draws, key_space);
        if presorted == 1 {
            pairs.sort_by_key(|&(k, _)| k);
        }
        let mut runs = Vec::new();
        let mut rest = pairs.as_slice();
        for &cut in cuts.iter().chain([&usize::MAX]) {
            let (run, tail) = rest.split_at(cut.min(rest.len()));
            runs.push(run.to_vec());
            rest = tail;
        }
        let grouped = FlatGroups::sorted_runs(runs);
        prop_assert_eq!(grouped.is_ok(), pairs.is_sorted_by_key(|&(k, _)| k));
        let groups = match grouped {
            Ok(groups) => groups,
            Err(mut concatenation) => {
                prop_assert_eq!(&concatenation, &pairs);
                concatenation.sort_by_key(|&(k, _)| k);
                FlatGroups::sorted(concatenation)
            }
        };
        let mut by_key = pairs;
        by_key.sort_by_key(|&(k, _)| k);
        prop_assert_eq!(flat_to_nested(&groups), group_sorted(by_key));
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
        let groups = FlatGroups::sorted(pairs.clone());
        let mut per_group = Emitter::new();
        for (key, values) in groups.iter() {
            RecordSorted.reduce(key, values, &mut per_group);
        }
        let mut whole = Emitter::new();
        RecordSorted.reduce_partition(FlatGroups::sorted(pairs), &mut whole);
        prop_assert_eq!(whole.into_pairs(), per_group.into_pairs());
    }

    /// What a reducer is handed, on both `SORTED_INPUT` values: the slices
    /// of one partition, in call order, are the nested grouping of the map
    /// outputs concatenated in task order (stably sorted first, or not).
    /// `presorted` stores the input in key order, so the map tasks' buckets
    /// arrive in order end to end and the sorted path groups them without
    /// a sort.
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
        let hashed = MapReduceJob::new("h", &cluster, &dfs, "r", identity.clone(), RecordUnsorted)
            .reducers(1)
            .run()
            .unwrap();
        prop_assert_eq!(hashed.output, group_unsorted(pairs.clone()));
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
    /// with 1 or 3 reducers. The input is one chunk of runs of `v / 1_000`
    /// groups, so it splits wherever the pool has two executors, at cuts
    /// that land anywhere from inside the first 4 096 records to nowhere.
    #[test]
    fn declared_splits_equal_the_unsplit_job(
        runs in prop::collection::vec((0u64..40, 1usize..2_500), 1..14),
    ) {
        let records: Vec<u64> = runs
            .iter()
            .enumerate()
            .flat_map(|(i, &(group, len))| (0..len as u64).map(move |j| group * 1_000 + (i as u64 + j) % 1_000))
            .collect();
        let cluster = Cluster::local(3, 2);
        let mut dfs = Dfs::new(cluster.topology.clone(), 1 << 30, 2);
        dfs.put_fixed("r", records.clone(), 8).unwrap();
        let late_cut = (4_096..records.len()).any(|i| records[i - 1] / 1_000 != records[i] / 1_000);
        let splits = gepeto_pool::global().threads() > 1 && late_cut;

        let recorder = Recorder::enabled();
        let split = MapOnlyJob::new("m", &cluster, &dfs, "r", RunProbe::new(true))
            .exec(&ExecCtx::new(&cluster).traced(&recorder), None)
            .run()
            .unwrap();
        let whole = MapOnlyJob::new("m", &cluster, &dfs, "r", RunProbe::new(false)).run().unwrap();
        prop_assert_eq!(&split.output, &whole.output);
        prop_assert_eq!(record_counters(&split.stats), record_counters(&whole.stats));
        prop_assert_eq!(split.stats.map_tasks, whole.stats.map_tasks);
        prop_assert_eq!(map_task_ranges(&recorder)[0] > 1, splits);

        for reducers in [1, 3] {
            let run = |declares: bool| {
                MapReduceJob::new("r", &cluster, &dfs, "r", RunProbe::new(declares), RecordSorted)
                    .reducers(reducers)
                    .run()
                    .unwrap()
            };
            let (split, whole) = (run(true), run(false));
            prop_assert_eq!(split.output, whole.output);
            prop_assert_eq!(record_counters(&split.stats), record_counters(&whole.stats));
            prop_assert_eq!(split.stats.map_tasks, whole.stats.map_tasks);
        }
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
        let bound = len.max(2 * pairs.len()).max(4_096);
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

    #[test]
    fn combiner_is_transparent(
        records in prop::collection::vec(0u64..1000, 1..300),
        chunk in 8usize..64,
    ) {
        let cluster = Cluster::local(3, 2);
        let mut dfs = Dfs::new(cluster.topology.clone(), chunk, 2);
        dfs.put_fixed("r", records, 4).unwrap();
        let plain = MapReduceJob::new("s", &cluster, &dfs, "r", key_mapper(), SumReducer)
            .reducers(3).run().unwrap();
        let combined = MapReduceJob::new("s", &cluster, &dfs, "r", key_mapper(), SumReducer)
            .with_combiner(SumCombiner)
            .reducers(3).run().unwrap();
        prop_assert_eq!(plain.output, combined.output);
        prop_assert!(combined.stats.sim.shuffle_bytes <= plain.stats.sim.shuffle_bytes);
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
