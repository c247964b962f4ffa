//! The user-facing programming model: `Mapper` and `Reducer`.
//!
//! "A developer designing a MapReduce-based application is left with the
//! task of specifying two primary functions, map and reduce" (§III). As in
//! Hadoop, tasks also get `setup`/`cleanup` lifecycle hooks, a
//! configuration object, counters and the distributed cache — everything
//! the paper's Algorithms 1–9 use.

use crate::cache::DistributedCache;
use crate::config::JobConfig;
use crate::counters::Counters;
use crate::job::{FlatGroups, Group};
use std::hash::Hash;

/// Bound for intermediate keys: they are hashed to pick a reduce
/// partition and sorted within each partition during the shuffle.
pub trait MrKey: Clone + Send + Sync + Eq + Ord + Hash + 'static {}
impl<T: Clone + Send + Sync + Eq + Ord + Hash + 'static> MrKey for T {}

/// Bound for values (and final output keys), which only need to move
/// between threads.
pub trait MrValue: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> MrValue for T {}

/// Per-task context handed to `setup`: the task's identity, the job
/// configuration, the distributed cache and the job's counters.
pub struct TaskContext<'a> {
    /// 0-based task index within its phase.
    pub task_id: usize,
    /// 1-based attempt number (> 1 after injected failures).
    pub attempt: u32,
    /// Job configuration strings.
    pub config: &'a JobConfig,
    /// Read-only side data.
    pub cache: &'a DistributedCache,
    /// Shared job counters.
    pub counters: &'a Counters,
}

/// Collects the key/value pairs a task emits, Hadoop's
/// `context.write(k, v)`.
#[derive(Debug)]
pub struct Emitter<K, V> {
    pairs: Vec<(K, V)>,
}

impl<K, V> Default for Emitter<K, V> {
    fn default() -> Self {
        Self { pairs: Vec::new() }
    }
}

impl<K, V> Emitter<K, V> {
    /// A fresh, empty emitter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes room for exactly `additional` more pairs — what
    /// [`map_records`] calls, for one pair per record of the block, once
    /// its first few records show a near one-to-one mapper, so such a
    /// mapper stops reallocating after them.
    ///
    /// This is `reserve_exact`: it skips the amortised doubling, so call it
    /// once per range — per `map_block` call, which is one per input split
    /// or one per task that does not split — with that range's total,
    /// never once per group or per record: repeated exact reservations
    /// reallocate every time.
    pub fn reserve(&mut self, additional: usize) {
        self.pairs.reserve_exact(additional);
    }

    /// Emits one pair.
    pub fn emit(&mut self, key: K, value: V) {
        self.pairs.push((key, value));
    }

    /// Number of pairs emitted so far.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Consumes the emitter, returning the pairs in emission order.
    pub fn into_pairs(self) -> Vec<(K, V)> {
        self.pairs
    }
}

/// The map phase of a job. One instance is cloned per map task, `setup`
/// runs once per task, then `map_block` runs once over the task's chunk
/// (by default: `map` for every input record), then `cleanup`.
pub trait Mapper<V1>: Clone + Send {
    /// Intermediate key type.
    type KOut: MrKey;
    /// Intermediate value type.
    type VOut: MrValue;

    /// Once-per-task initialization (load centroids, R-trees, … from the
    /// cache or configuration).
    fn setup(&mut self, _ctx: &TaskContext<'_>) {}

    /// Processes one input record. `offset` is the record's 0-based
    /// position within the whole input file (Hadoop's byte-offset key).
    fn map(&mut self, offset: u64, value: &V1, out: &mut Emitter<Self::KOut, Self::VOut>);

    /// Processes the task's whole chunk; `base_offset` is the global
    /// offset of `block[0]`. The engine calls this once per map task, or
    /// once per input split for a mapper that declares cut points
    /// ([`Self::splits_between`]). The default is [`map_records`]; a
    /// mapper whose work vectorizes or pre-aggregates across records (the
    /// fused k-means assignment, DJ-Cluster's local components) overrides
    /// it. This is the one place a job pre-aggregates: the engine has no
    /// separate combiner.
    fn map_block(
        &mut self,
        base_offset: u64,
        block: &[V1],
        out: &mut Emitter<Self::KOut, Self::VOut>,
    ) {
        map_records(self, base_offset, block, out);
    }

    /// Once-per-task teardown; may emit trailing pairs (used by windowed
    /// mappers to flush their last window).
    fn cleanup(&mut self, _out: &mut Emitter<Self::KOut, Self::VOut>) {}

    /// Whether the engine may cut a chunk between the adjacent records
    /// `prev` and `next` (Hadoop's input split, taken inside one chunk).
    ///
    /// Each side of a cut runs on a fresh clone — `setup`, then
    /// `map_block(base + start, range)`, then `cleanup` — and the two
    /// sides' pairs are concatenated in order. Return `true` only if:
    ///
    /// - in a map-only job, the cut changes no emitted pair: the
    ///   concatenation is exactly what one clone emits for the whole chunk;
    /// - in a job with a reduce phase, the cut changes no reduce output.
    ///   The pairs themselves may differ, as a pre-aggregating
    ///   `map_block`'s partial results do — what Hadoop asks of a combiner.
    ///
    /// The default never cuts, so such a mapper runs each chunk as one
    /// range. A job with a reduce phase splits every chunk, whatever its
    /// chunk and thread counts, about every 4 096 records at the first
    /// legal cut, so each range's output is partitioned while it is still
    /// in cache. A map-only job splits only while it has fewer chunks than
    /// the pool has executors. A split job still counts, retries and
    /// simulates one task per chunk.
    fn splits_between(&self, _prev: &V1, _next: &V1) -> bool {
        false
    }
}

/// Records [`map_records`] maps before it sizes its output: few, so that
/// a one-to-one input split of about 4 096 records makes a handful of
/// small allocations and then one of its size, instead of doubling
/// through a dozen.
const SIZING_RECORDS: usize = 32;

/// The per-record loop behind the default [`Mapper::map_block`]: calls
/// `map` on every record with its global offset. It sizes the output by
/// what the mapper emits, not by what it reads: the first 32 records map
/// without a reservation, and only if they emitted at least one pair per
/// two records is the output reserved exactly to one pair per record of
/// the block — which also holds a mapper that emits each pair a record
/// late and the last in `cleanup`. A filter's output grows by amortised
/// doubling, so its capacity stays under twice what it keeps. Public so
/// that a mapper which overrides `map_block` for one mode can fall back
/// to it for the other.
pub fn map_records<V1, M: Mapper<V1>>(
    mapper: &mut M,
    base_offset: u64,
    block: &[V1],
    out: &mut Emitter<M::KOut, M::VOut>,
) {
    let (head, rest) = block.split_at(block.len().min(SIZING_RECORDS));
    let emitted_before = out.len();
    for (j, record) in head.iter().enumerate() {
        mapper.map(base_offset + j as u64, record, out);
    }
    let emitted = out.len() - emitted_before;
    if 2 * emitted >= head.len() {
        out.reserve(block.len().saturating_sub(emitted));
    }
    let rest_offset = base_offset + head.len() as u64;
    for (j, record) in rest.iter().enumerate() {
        mapper.map(rest_offset + j as u64, record, out);
    }
}

/// The reduce phase. One instance is cloned per reduce task; `reduce` is
/// called once per distinct key with *all* values for that key.
pub trait Reducer<K2: MrKey, V2: MrValue>: Clone + Send {
    /// Final output key type.
    type KOut: MrValue;
    /// Final output value type.
    type VOut: MrValue;

    /// Once-per-task initialization.
    fn setup(&mut self, _ctx: &TaskContext<'_>) {}

    /// Reduces one key group. `vs` holds all of the key's values in
    /// map-task emission order, as the runs of the map tasks' buckets they
    /// lie in, handed over by the default [`Self::reduce_partition`]. The
    /// engine calls only `reduce_partition`, so a reducer that overrides it
    /// is reduced through its override alone.
    fn reduce(&mut self, key: &K2, vs: Group<'_, V2>, out: &mut Emitter<Self::KOut, Self::VOut>);

    /// Reduces key groups in key order ([`FlatGroups`]). A partition
    /// grouped in memory is handed over in one call; one merged from spill
    /// runs in several, one per window of whole groups that fits the
    /// memory budget — so a group never spans two calls. The default calls
    /// [`Self::reduce`] once per group, in order. A reducer that keeps its
    /// values overrides it to take the columns whole
    /// ([`FlatGroups::into_runs`]) instead of copying runs out of them; it
    /// must emit what the per-group calls would.
    fn reduce_partition(
        &mut self,
        groups: FlatGroups<K2, V2>,
        out: &mut Emitter<Self::KOut, Self::VOut>,
    ) {
        for (key, values) in groups.iter() {
            self.reduce(key, values, out);
        }
    }

    /// Once-per-task teardown; may emit trailing pairs (used by the
    /// single-reducer cluster-merging phase of DJ-Cluster to emit the
    /// final clusters).
    fn cleanup(&mut self, _out: &mut Emitter<Self::KOut, Self::VOut>) {}
}

/// Adapts a closure into a [`Mapper`] — handy for map-only filters where a
/// full struct would be noise.
#[derive(Clone)]
pub struct FnMapper<F, K, V> {
    f: F,
    _marker: std::marker::PhantomData<fn() -> (K, V)>,
}

impl<F, K, V> FnMapper<F, K, V> {
    /// Wraps `f(offset, value, out)`.
    pub fn new(f: F) -> Self {
        Self {
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<V1, F, K, V> Mapper<V1> for FnMapper<F, K, V>
where
    F: FnMut(u64, &V1, &mut Emitter<K, V>) + Clone + Send,
    K: MrKey,
    V: MrValue,
{
    type KOut = K;
    type VOut = V;

    fn map(&mut self, offset: u64, value: &V1, out: &mut Emitter<K, V>) {
        (self.f)(offset, value, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_collects_in_order() {
        let mut e: Emitter<u32, &str> = Emitter::new();
        assert!(e.is_empty());
        e.emit(2, "b");
        e.emit(1, "a");
        assert_eq!(e.len(), 2);
        assert_eq!(e.into_pairs(), vec![(2, "b"), (1, "a")]);
    }

    /// Block lengths around the unreserved window, an input split's, and
    /// one well past both.
    const LENGTHS: [usize; 8] = [0, 1, 31, 32, 33, 4_096, 4_097, 10_000];

    /// `map_records` of `f` over the records `0..len`: its pairs, with the
    /// capacity they were emitted into.
    fn mapped<F>(len: usize, f: F) -> Vec<(u64, u64)>
    where
        F: FnMut(u64, &u64, &mut Emitter<u64, u64>) + Clone + Send,
    {
        let block: Vec<u64> = (0..len as u64).collect();
        let mut out = Emitter::new();
        map_records(&mut FnMapper::new(f), 0, &block, &mut out);
        out.into_pairs()
    }

    #[test]
    fn a_one_to_one_mapper_reserves_its_block_once_exactly() {
        for len in LENGTHS {
            let pairs = mapped(len, |off, v, out| out.emit(off, *v));
            assert_eq!(pairs.len(), len);
            if len >= SIZING_RECORDS {
                assert_eq!(pairs.capacity(), len);
            } else {
                assert!(pairs.capacity() <= SIZING_RECORDS, "{len}");
            }
        }
    }

    /// Emits each record's pair one record late and the last one in
    /// `cleanup`, as the sampling mapper does.
    #[derive(Clone, Default)]
    struct Lagged(Option<u64>);

    impl Mapper<u64> for Lagged {
        type KOut = u64;
        type VOut = u64;

        fn map(&mut self, offset: u64, _v: &u64, out: &mut Emitter<u64, u64>) {
            if let Some(prev) = self.0.replace(offset) {
                out.emit(prev, prev);
            }
        }

        fn cleanup(&mut self, out: &mut Emitter<u64, u64>) {
            if let Some(last) = self.0.take() {
                out.emit(last, last);
            }
        }
    }

    #[test]
    fn a_lagged_one_to_one_mapper_fits_its_cleanup_in_the_reservation() {
        for len in LENGTHS {
            let block: Vec<u64> = (0..len as u64).collect();
            let mut mapper = Lagged::default();
            let mut out = Emitter::new();
            map_records(&mut mapper, 0, &block, &mut out);
            mapper.cleanup(&mut out);
            let pairs = out.into_pairs();
            assert_eq!(pairs.len(), len);
            if len >= SIZING_RECORDS {
                assert_eq!(pairs.capacity(), len, "{len}");
            }
        }
    }

    #[test]
    fn a_filter_holds_under_twice_what_it_keeps() {
        for len in LENGTHS {
            let pairs = mapped(len, |off, v, out| {
                if off.is_multiple_of(12) {
                    out.emit(off, *v);
                }
            });
            assert_eq!(pairs.len(), len.div_ceil(12));
            // std's smallest non-empty vector holds four pairs.
            let bound = (2 * pairs.len()).max(4);
            assert!(pairs.capacity() <= bound, "{len}: {}", pairs.capacity());
        }
    }

    #[test]
    fn a_mapper_that_emits_nothing_allocates_nothing() {
        for len in LENGTHS {
            assert_eq!(mapped(len, |_, _, _| {}).capacity(), 0, "{len}");
        }
    }

    #[test]
    fn a_two_pair_mapper_emits_what_the_per_record_loop_emits() {
        let twice = |off: u64, v: &u64, out: &mut Emitter<u64, u64>| {
            out.emit(off, *v);
            out.emit(*v, off + 1);
        };
        for len in LENGTHS {
            let mut looped = Emitter::new();
            for j in 0..len as u64 {
                twice(j, &j, &mut looped);
            }
            assert_eq!(mapped(len, twice), looped.into_pairs(), "{len}");
        }
    }

    #[test]
    fn fn_mapper_adapts_closures() {
        let mut m = FnMapper::new(|off: u64, v: &u32, out: &mut Emitter<u64, u32>| {
            if v.is_multiple_of(2) {
                out.emit(off, *v);
            }
        });
        let mut out = Emitter::new();
        m.map(0, &4, &mut out);
        m.map(1, &5, &mut out);
        m.map(2, &6, &mut out);
        assert_eq!(out.into_pairs(), vec![(0, 4), (2, 6)]);
    }
}
