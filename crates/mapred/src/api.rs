//! The user-facing programming model: `Mapper`, `Reducer`, `Combiner`.
//!
//! "A developer designing a MapReduce-based application is left with the
//! task of specifying two primary functions, map and reduce" (§III). As in
//! Hadoop, tasks also get `setup`/`cleanup` lifecycle hooks, a
//! configuration object, counters and the distributed cache — everything
//! the paper's Algorithms 1–9 use.

use crate::cache::DistributedCache;
use crate::config::JobConfig;
use crate::counters::Counters;
use crate::job::FlatGroups;
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

    /// Makes room for exactly `additional` more pairs — what the default
    /// [`Mapper::map_block`] calls with the chunk length, so per-record
    /// mappers never reallocate in the hot loop.
    ///
    /// This is `reserve_exact`: it skips the amortised doubling, so call it
    /// once per task with the task's total, never once per group or per
    /// record — repeated exact reservations reallocate every time.
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
    /// ([`Self::splits_between`]). The
    /// default is [`map_records`]; a mapper whose work vectorizes or
    /// pre-aggregates across records (the fused k-means assignment)
    /// overrides it and emits whatever the per-record loop followed by a
    /// per-chunk fold would have.
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
    /// Return `true` only if the cut changes no emitted pair. Each side of
    /// a cut runs on a fresh clone — `setup`, then `map_block(base +
    /// start, range)`, then `cleanup` — and the two sides' pairs,
    /// concatenated in order, must be exactly the pairs, in the same
    /// order, that one clone emits for the whole chunk. The default never
    /// cuts. The engine splits only a job with fewer chunks than pool
    /// executors and no combiner, and still counts, retries and simulates
    /// one task per chunk.
    fn splits_between(&self, _prev: &V1, _next: &V1) -> bool {
        false
    }
}

/// The per-record loop behind the default [`Mapper::map_block`]: reserves
/// one pair per record (most mappers emit at most that), then calls `map`
/// on every record with its global offset. Public so that a mapper which
/// overrides `map_block` for one mode can fall back to it for the other.
pub fn map_records<V1, M: Mapper<V1>>(
    mapper: &mut M,
    base_offset: u64,
    block: &[V1],
    out: &mut Emitter<M::KOut, M::VOut>,
) {
    out.reserve(block.len());
    for (j, record) in block.iter().enumerate() {
        mapper.map(base_offset + j as u64, record, out);
    }
}

/// The reduce phase. One instance is cloned per reduce task; `reduce` is
/// called once per distinct key with *all* values for that key.
pub trait Reducer<K2: MrKey, V2: MrValue>: Clone + Send {
    /// Final output key type.
    type KOut: MrValue;
    /// Final output value type.
    type VOut: MrValue;

    /// Whether this reducer requires its key groups in ascending key
    /// order (Hadoop's sorted-shuffle contract). Defaults to `true` for
    /// fidelity. Reducers whose final result does not depend on group
    /// order (e.g. k-means centroid updates written by cluster id, or a
    /// single-key merge) may set this to `false`; the engine then groups
    /// by hash in first-encounter order and skips the partition sort
    /// entirely, which removes the dominant `O(n log n)` shuffle cost.
    /// Within each group, value order is unchanged: it is the same
    /// deterministic map-task-order concatenation either way.
    const SORTED_INPUT: bool = true;

    /// Once-per-task initialization.
    fn setup(&mut self, _ctx: &TaskContext<'_>) {}

    /// Reduces one key group. `values` holds all of the key's values in
    /// map-task emission order. For a partition grouped in memory it is a
    /// slice of the partition's value column, handed over by the default
    /// [`Self::reduce_partition`]; a partition merged from spill runs
    /// hands over one buffer per group, always through this method.
    fn reduce(&mut self, key: &K2, values: &[V2], out: &mut Emitter<Self::KOut, Self::VOut>);

    /// Reduces a partition grouped in memory: its key groups as one value
    /// column plus bounds ([`FlatGroups`]), in the order `reduce` would
    /// see them. The default calls [`Self::reduce`] once per group, in
    /// order. A reducer that keeps its values overrides it to take the
    /// column whole instead of copying slices out of it; it must emit
    /// what the per-group calls would.
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

/// A map-side pre-aggregator (the *combiner* of §VI's related work): runs
/// on each map task's local output, per key, to shrink the data shuffled
/// to reducers. Must be algebraically compatible with the reducer.
pub trait Combiner<K2: MrKey, V2: MrValue>: Clone + Send {
    /// Combines the values of one key emitted by a single map task into a
    /// (usually shorter) list of values.
    fn combine(&mut self, key: &K2, values: &[V2]) -> Vec<V2>;
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
