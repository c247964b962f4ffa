//! Trails (one user's time-ordered traces) and geolocated datasets.

use crate::{MobilityTrace, UserId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::mem::ManuallyDrop;
use std::sync::Arc;

/// A trail of traces: the movements of a single individual over time,
/// ordered by timestamp (ties broken arbitrarily but deterministically).
///
/// Two storages behind one behaviour. A trail built by [`Trail::new`] or
/// [`Trail::empty`] owns its traces in one `Vec`. A trail cut from a
/// column ([`Trail::cut_column`] — what [`Dataset::from_traces`] and the
/// by-user regroup build) is a range of a shared, immutable column
/// (`Arc`): cloning it bumps a reference count, and the column stays
/// allocated while any trail of it lives, so a shared trail pins its
/// column until it is dropped or detached. Every reader goes through
/// [`Trail::traces`]; equality and `Debug` are by content, so the storage
/// never shows. [`Trail::push`] and [`Trail::into_traces`] detach a
/// shared trail first by copying its range into a `Vec` of its own; the
/// column and the trails sharing it are untouched. Either way a trail is
/// 32 bytes.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct Trail {
    /// Owner of the trail.
    pub user: UserId,
    traces: Traces,
}

#[derive(Clone)]
enum Traces {
    Owned(Vec<MobilityTrace>),
    /// `column[start..end]`. `u32` bounds keep the variant inside the
    /// bytes `Vec`'s layout leaves free, which is what keeps a trail at
    /// 32 bytes; [`Trail::cut_column`] shares only columns they can index.
    Shared {
        column: Column,
        start: u32,
        end: u32,
    },
}

/// A reference to a shared column whose release — `Arc`'s atomic
/// decrement — is one out-of-line call. Inlined into a trail's drop glue,
/// it stopped std's iterators from inlining moves of trails: building a
/// dataset's tree from 150 k trails took 2 ms longer than with `Vec`s.
#[derive(Clone)]
struct Column(ManuallyDrop<Option<Arc<Vec<MobilityTrace>>>>);

impl Column {
    fn new(column: &Arc<Vec<MobilityTrace>>) -> Self {
        Self(ManuallyDrop::new(Some(Arc::clone(column))))
    }

    #[inline]
    fn traces(&self) -> &[MobilityTrace] {
        self.0
            .as_deref()
            .expect("a column is released only on drop")
    }
}

impl Drop for Column {
    #[inline(never)]
    fn drop(&mut self) {
        drop(self.0.take());
    }
}

impl Default for Traces {
    fn default() -> Self {
        Traces::Owned(Vec::new())
    }
}

const _: () = assert!(std::mem::size_of::<Trail>() == 32);

impl PartialEq for Trail {
    fn eq(&self, other: &Self) -> bool {
        self.user == other.user && self.traces() == other.traces()
    }
}

impl fmt::Debug for Trail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trail")
            .field("user", &self.user)
            .field("traces", &self.traces())
            .finish()
    }
}

impl Trail {
    /// Creates a trail, sorting the traces by timestamp.
    pub fn new(user: UserId, mut traces: Vec<MobilityTrace>) -> Self {
        traces.sort_by_key(|t| t.timestamp);
        Self {
            user,
            traces: Traces::Owned(traces),
        }
    }

    /// An empty trail for `user`.
    pub fn empty(user: UserId) -> Self {
        Self::new(user, Vec::new())
    }

    /// Cuts a user-grouped column into trails without copying it: trail
    /// `i` belongs to `ends[i].0` and holds `column[ends[i - 1].1 ..
    /// ends[i].1]` (from 0 for the first), stably time-sorted in place —
    /// what [`Trail::new`] does to its vector — and every trail shares the
    /// column. A column longer than `u32::MAX` traces is cut into owned
    /// trails instead.
    ///
    /// # Panics
    /// If the ends decrease or do not finish at the column's end.
    pub fn cut_column(
        mut column: Vec<MobilityTrace>,
        ends: &[(UserId, usize)],
    ) -> impl Iterator<Item = Trail> + '_ {
        assert_eq!(
            ends.last().map_or(0, |&(_, end)| end),
            column.len(),
            "the last trail must end at the column's end"
        );
        let mut start = 0;
        for &(_, end) in ends {
            let own = &mut column[start..end];
            if !own.is_sorted_by_key(|t| t.timestamp) {
                own.sort_by_key(|t| t.timestamp);
            }
            start = end;
        }
        let indexable = u32::try_from(column.len()).is_ok();
        let column = Arc::new(column);
        let mut start = 0;
        ends.iter().map(move |&(user, end)| {
            let traces = if indexable {
                // Both bounds are at most `column.len()`, checked above.
                Traces::Shared {
                    column: Column::new(&column),
                    start: start as u32,
                    end: end as u32,
                }
            } else {
                Traces::Owned(column[start..end].to_vec())
            };
            start = end;
            Trail { user, traces }
        })
    }

    /// The owned vector, detaching a shared trail first.
    fn owned_mut(&mut self) -> &mut Vec<MobilityTrace> {
        if let Traces::Shared { .. } = self.traces {
            self.traces = Traces::Owned(self.traces().to_vec());
        }
        let Traces::Owned(traces) = &mut self.traces else {
            unreachable!("detached above")
        };
        traces
    }

    /// Appends a trace, keeping the trail sorted. Appending in timestamp
    /// order is O(1); out-of-order appends fall back to a sorted insert.
    pub fn push(&mut self, trace: MobilityTrace) {
        let traces = self.owned_mut();
        match traces.last() {
            Some(last) if last.timestamp > trace.timestamp => {
                let idx = traces.partition_point(|t| t.timestamp <= trace.timestamp);
                traces.insert(idx, trace);
            }
            _ => traces.push(trace),
        }
    }

    /// The traces, sorted by timestamp.
    #[inline]
    pub fn traces(&self) -> &[MobilityTrace] {
        match &self.traces {
            Traces::Owned(traces) => traces,
            Traces::Shared { column, start, end } => {
                &column.traces()[*start as usize..*end as usize]
            }
        }
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.traces().len()
    }

    /// Whether the trail holds no trace.
    pub fn is_empty(&self) -> bool {
        self.traces().is_empty()
    }

    /// Consumes the trail, returning its sorted traces.
    pub fn into_traces(mut self) -> Vec<MobilityTrace> {
        std::mem::take(self.owned_mut())
    }

    /// Total time span covered, in seconds (0 for fewer than two traces).
    pub fn duration_secs(&self) -> i64 {
        let traces = self.traces();
        match (traces.first(), traces.last()) {
            (Some(a), Some(b)) => b.timestamp.delta(a.timestamp),
            _ => 0,
        }
    }

    /// Mean interval between consecutive traces, in seconds.
    pub fn mean_period_secs(&self) -> f64 {
        if self.len() < 2 {
            return 0.0;
        }
        self.duration_secs() as f64 / (self.len() - 1) as f64
    }

    /// Splits the trail into recording sessions: maximal runs of traces
    /// whose consecutive gaps are at most `max_gap_secs` (GeoLife's
    /// "trajectories" — the logger was on continuously).
    pub fn sessions(&self, max_gap_secs: i64) -> Vec<&[MobilityTrace]> {
        assert!(max_gap_secs > 0, "session gap must be positive");
        let traces = self.traces();
        let mut out = Vec::new();
        let mut start = 0usize;
        for i in 1..traces.len() {
            if traces[i].timestamp.delta(traces[i - 1].timestamp) > max_gap_secs {
                out.push(&traces[start..i]);
                start = i;
            }
        }
        if start < traces.len() {
            out.push(&traces[start..]);
        }
        out
    }
}

/// A geolocated dataset: trails from many individuals. This is the unit the
/// paper's sanitizers and inference attacks operate on.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    trails: BTreeMap<UserId, Trail>,
}

impl Dataset {
    /// An empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a dataset from a flat bag of traces, grouping by user and
    /// sorting each trail by time — the shape a map-only job's output or a
    /// raw DFS scan comes in.
    ///
    /// Run-aware and one column for all users: the traces are cut into
    /// maximal same-user runs; runs already in ascending user order (a
    /// user-major scan, the DFS layout) are kept where they arrived,
    /// anything else is stably sorted by user into one new column; the
    /// trails are then cut from that column ([`Trail::cut_column`]) and
    /// share it. No trace is looked up in a tree and no vector is
    /// allocated per user. Any arrival order gives the same dataset:
    /// traces of one user with equal timestamps keep their arrival order.
    pub fn from_traces(traces: impl IntoIterator<Item = MobilityTrace>) -> Self {
        let traces: Vec<MobilityTrace> = traces.into_iter().collect();
        let mut runs: Vec<&[MobilityTrace]> = traces.chunk_by(|a, b| a.user == b.user).collect();
        let column = if runs.is_sorted_by(|a, b| a[0].user < b[0].user) {
            traces
        } else {
            runs.sort_by_key(|run| run[0].user);
            runs.concat()
        };
        let ends: Vec<(UserId, usize)> = column
            .chunk_by(|a, b| a.user == b.user)
            .scan(0, |end, run| {
                *end += run.len();
                Some((run[0].user, *end))
            })
            .collect();
        Self::from_sorted(
            Trail::cut_column(column, &ends)
                .map(|t| (t.user, t))
                .collect(),
        )
    }

    /// Builds a dataset from complete trails, e.g. the by-user regroup's
    /// reduce output. Trails with duplicate user ids are merged: the result
    /// is the stable time-sort of their traces in arrival order.
    ///
    /// The trails are stably sorted by user, duplicates are folded into
    /// their first occurrence, and the tree is bulk-built from the sorted
    /// run — no per-trail insert, and no trace is touched unless its user
    /// appears twice. The `(user, trail)` entries are collected once (into
    /// the input's own buffer when it is a job's `(user, trail)` output)
    /// and merged in place.
    pub fn from_trails(trails: impl IntoIterator<Item = Trail>) -> Self {
        let mut entries: Vec<(UserId, Trail)> = trails.into_iter().map(|t| (t.user, t)).collect();
        entries.sort_by_key(|&(user, _)| user);
        entries.dedup_by(|(user, later), (kept_user, kept)| {
            let duplicate = user == kept_user;
            if duplicate {
                let traces = kept.owned_mut();
                traces.extend_from_slice(later.traces());
                traces.sort_by_key(|t| t.timestamp);
            }
            duplicate
        });
        Self::from_sorted(entries)
    }

    /// Bulk-builds the tree from entries in strictly ascending user order.
    fn from_sorted(entries: Vec<(UserId, Trail)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        Self {
            trails: entries.into_iter().collect(),
        }
    }

    /// Appends one trace to its user's trail, creating the trail on first
    /// sight. Appending a user's traces in time order is O(1) per trace,
    /// so streaming a user-by-user, time-ordered scan (the DFS layout)
    /// never re-sorts.
    pub fn push_trace(&mut self, trace: MobilityTrace) {
        self.trails
            .entry(trace.user)
            .or_insert_with(|| Trail::empty(trace.user))
            .push(trace);
    }

    /// The trail of `user`, if present.
    pub fn trail(&self, user: UserId) -> Option<&Trail> {
        self.trails.get(&user)
    }

    /// Iterator over trails in ascending user order.
    pub fn trails(&self) -> impl Iterator<Item = &Trail> {
        self.trails.values()
    }

    /// Iterator over all traces of all users (user order, then time order).
    pub fn iter_traces(&self) -> impl Iterator<Item = &MobilityTrace> {
        self.trails.values().flat_map(|t| t.traces().iter())
    }

    /// All traces flattened into one vector (user order, then time order).
    pub fn to_traces(&self) -> Vec<MobilityTrace> {
        let mut traces = Vec::with_capacity(self.num_traces());
        for trail in self.trails.values() {
            traces.extend_from_slice(trail.traces());
        }
        traces
    }

    /// Number of distinct users.
    pub fn num_users(&self) -> usize {
        self.trails.len()
    }

    /// Total number of traces across all trails.
    pub fn num_traces(&self) -> usize {
        self.trails.values().map(Trail::len).sum()
    }

    /// Whether the dataset holds no trace at all.
    pub fn is_empty(&self) -> bool {
        self.num_traces() == 0
    }

    /// Approximate serialized size in bytes if written as PLT text.
    pub fn approx_plt_bytes(&self) -> usize {
        self.iter_traces().map(|t| t.approx_plt_bytes()).sum()
    }

    /// Distinct buffers holding the traces: one per shared column, one per
    /// non-empty owned trail — one for [`Dataset::from_traces`], one per
    /// map bucket the trails were grouped in for an in-memory by-user
    /// regroup. For tests that pin how many allocations a builder leaves
    /// behind.
    #[doc(hidden)]
    pub fn column_count(&self) -> usize {
        let mut buffers: Vec<*const MobilityTrace> = self
            .trails
            .values()
            .filter(|t| !t.is_empty())
            .map(|t| match &t.traces {
                Traces::Owned(traces) => traces.as_ptr(),
                Traces::Shared { column, .. } => column.traces().as_ptr(),
            })
            .collect();
        buffers.sort_unstable();
        buffers.dedup();
        buffers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GeoPoint, Timestamp};
    use proptest::prelude::*;

    fn t(user: UserId, secs: i64) -> MobilityTrace {
        MobilityTrace::new(user, GeoPoint::new(1.0, 2.0), Timestamp(secs))
    }

    #[test]
    fn trail_sorts_on_construction() {
        let trail = Trail::new(1, vec![t(1, 30), t(1, 10), t(1, 20)]);
        let secs: Vec<i64> = trail.traces().iter().map(|x| x.timestamp.secs()).collect();
        assert_eq!(secs, vec![10, 20, 30]);
    }

    #[test]
    fn trail_push_keeps_order() {
        let mut trail = Trail::empty(1);
        trail.push(t(1, 10));
        trail.push(t(1, 30));
        trail.push(t(1, 20)); // out of order
        let secs: Vec<i64> = trail.traces().iter().map(|x| x.timestamp.secs()).collect();
        assert_eq!(secs, vec![10, 20, 30]);
    }

    #[test]
    fn trail_stats() {
        let trail = Trail::new(1, vec![t(1, 0), t(1, 10), t(1, 30)]);
        assert_eq!(trail.duration_secs(), 30);
        assert!((trail.mean_period_secs() - 15.0).abs() < 1e-12);
        assert_eq!(Trail::empty(9).duration_secs(), 0);
        assert_eq!(Trail::empty(9).mean_period_secs(), 0.0);
    }

    #[test]
    fn sessions_split_at_gaps() {
        let trail = Trail::new(1, vec![t(1, 0), t(1, 5), t(1, 10), t(1, 500), t(1, 505)]);
        let sessions = trail.sessions(300);
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0].len(), 3);
        assert_eq!(sessions[1].len(), 2);
        // One big gap tolerance → a single session.
        assert_eq!(trail.sessions(1_000).len(), 1);
        // Empty trail → no sessions.
        assert!(Trail::empty(2).sessions(300).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn sessions_reject_zero_gap() {
        let _ = Trail::empty(1).sessions(0);
    }

    /// Users 1, 2 and 3 cut from one column; user 2's traces arrive out of
    /// time order and come out sorted.
    fn three_shared() -> Vec<Trail> {
        let column = vec![
            t(1, 0),
            t(1, 10),
            t(2, 500),
            t(2, 5),
            t(2, 10),
            t(2, 505),
            t(3, 7),
        ];
        Trail::cut_column(column, &[(1, 2), (2, 6), (3, 7)]).collect()
    }

    #[test]
    fn shared_trails_compare_and_print_by_content() {
        let shared = three_shared();
        let owned = Trail::new(2, vec![t(2, 500), t(2, 5), t(2, 10), t(2, 505)]);
        assert!(matches!(shared[1].traces, Traces::Shared { .. }));
        assert_eq!(shared[1], owned);
        assert_ne!(shared[0], owned);
        assert_ne!(Trail::empty(2), Trail::empty(3));

        let derived = {
            /// The shape `#[derive(Debug)]` printed before trails could
            /// share.
            #[derive(Debug)]
            #[allow(dead_code)]
            struct Trail {
                user: UserId,
                traces: Vec<MobilityTrace>,
            }
            Trail {
                user: 2,
                traces: owned.traces().to_vec(),
            }
        };
        assert_eq!(format!("{:?}", shared[1]), format!("{derived:?}"));
        assert_eq!(format!("{:#?}", shared[1]), format!("{derived:#?}"));
        assert_eq!(format!("{owned:?}"), format!("{derived:?}"));
    }

    #[test]
    fn cloning_a_shared_trail_only_bumps_a_count() {
        let shared = three_shared();
        let count = |trail: &Trail| match &trail.traces {
            Traces::Shared { column, .. } => Arc::strong_count(column.0.as_ref().unwrap()),
            Traces::Owned(_) => panic!("expected a shared trail"),
        };
        assert_eq!(count(&shared[1]), 3);
        let clone = shared[1].clone();
        assert_eq!(count(&shared[1]), 4);
        assert_eq!(clone.traces().as_ptr(), shared[1].traces().as_ptr());
        drop(clone);
        assert_eq!(count(&shared[1]), 3);
    }

    #[test]
    fn detaching_a_shared_trail_leaves_its_siblings_untouched() {
        let mut shared = three_shared();
        let before = shared.clone();
        let column = shared[0].traces().as_ptr();

        shared[1].push(t(2, 7));
        assert!(matches!(shared[1].traces, Traces::Owned(_)));
        let secs: Vec<i64> = shared[1]
            .traces()
            .iter()
            .map(|x| x.timestamp.secs())
            .collect();
        assert_eq!(secs, vec![5, 7, 10, 500, 505]);

        let sibling = shared.remove(2);
        assert_eq!(sibling.clone().into_traces(), before[2].traces());
        assert_eq!(shared[0], before[0]);
        assert_eq!(
            shared[0].traces().as_ptr(),
            column,
            "the column did not move"
        );
        assert_eq!(sibling, before[2]);
        assert_eq!(before[1].len(), 4);
    }

    #[test]
    fn sessions_and_duration_read_the_range() {
        let shared = three_shared();
        assert_eq!(shared[1].duration_secs(), 500);
        assert!((shared[1].mean_period_secs() - 500.0 / 3.0).abs() < 1e-12);
        let sessions = shared[1].sessions(300);
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0], &shared[1].traces()[..2]);
        assert_eq!(sessions[1], &shared[1].traces()[2..]);
        assert_eq!(shared[0].sessions(300).len(), 1);
        assert_eq!(shared[2].duration_secs(), 0);
    }

    #[test]
    #[should_panic(expected = "column's end")]
    fn cut_column_rejects_ends_short_of_the_column() {
        let _ = Trail::cut_column(vec![t(1, 0), t(2, 0)], &[(1, 1)]);
    }

    #[test]
    fn dataset_groups_by_user() {
        let ds = Dataset::from_traces(vec![t(2, 5), t(1, 1), t(2, 3), t(1, 2)]);
        assert_eq!(ds.num_users(), 2);
        assert_eq!(ds.num_traces(), 4);
        assert_eq!(ds.trail(1).unwrap().len(), 2);
        assert_eq!(ds.trail(2).unwrap().len(), 2);
        // trail 2 sorted
        let secs: Vec<i64> = ds
            .trail(2)
            .unwrap()
            .traces()
            .iter()
            .map(|x| x.timestamp.secs())
            .collect();
        assert_eq!(secs, vec![3, 5]);
    }

    #[test]
    fn dataset_merge_trails_with_same_user() {
        let a = Trail::new(1, vec![t(1, 1), t(1, 5)]);
        let b = Trail::new(1, vec![t(1, 3)]);
        let ds = Dataset::from_trails(vec![a, b]);
        assert_eq!(ds.num_users(), 1);
        let secs: Vec<i64> = ds
            .trail(1)
            .unwrap()
            .traces()
            .iter()
            .map(|x| x.timestamp.secs())
            .collect();
        assert_eq!(secs, vec![1, 3, 5]);
    }

    #[test]
    fn push_trace_streams_into_trails() {
        let mut ds = Dataset::new();
        for tr in [t(2, 5), t(1, 1), t(2, 3), t(1, 2)] {
            ds.push_trace(tr);
        }
        assert_eq!(
            ds,
            Dataset::from_traces(vec![t(2, 5), t(1, 1), t(2, 3), t(1, 2)])
        );
    }

    /// The entry-per-trace `from_traces` this module used to have, kept as
    /// the reference the run-aware one is held to.
    fn from_traces_reference(traces: impl IntoIterator<Item = MobilityTrace>) -> Dataset {
        let mut per_user: BTreeMap<UserId, Vec<MobilityTrace>> = BTreeMap::new();
        for t in traces {
            per_user.entry(t.user).or_default().push(t);
        }
        Dataset {
            trails: per_user
                .into_iter()
                .map(|(u, ts)| (u, Trail::new(u, ts)))
                .collect(),
        }
    }

    /// The insert-or-merge `from_trails` this module used to have: a tree
    /// insert per trail, a sorted `Trail::push` per trace of a duplicate.
    fn from_trails_reference(trails: impl IntoIterator<Item = Trail>) -> Dataset {
        let mut ds = Dataset::new();
        for trail in trails {
            match ds.trails.get_mut(&trail.user) {
                Some(existing) => {
                    for t in trail.into_traces() {
                        existing.push(t);
                    }
                }
                None => {
                    ds.trails.insert(trail.user, trail);
                }
            }
        }
        ds
    }

    /// `(user, secs)` draws as traces; the latitude is the arrival index,
    /// so two traces of one user with equal timestamps stay tell-apart and
    /// a stability slip changes the dataset.
    fn numbered(draws: &[(u32, i64)]) -> Vec<MobilityTrace> {
        draws
            .iter()
            .enumerate()
            .map(|(i, &(user, secs))| {
                MobilityTrace::new(user, GeoPoint::new(i as f64, 2.0), Timestamp(secs))
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Few users and few distinct timestamps: interleavings, repeated
        /// runs of one user, equal timestamps, and (from length 0) empty
        /// input all occur.
        fn from_traces_matches_the_entry_per_trace_reference(
            draws in prop::collection::vec((0u32..6, 0i64..8), 0..120),
        ) {
            let traces = numbered(&draws);
            let ds = Dataset::from_traces(traces.iter().copied());
            prop_assert_eq!(ds.column_count(), usize::from(!draws.is_empty()));
            prop_assert_eq!(ds, from_traces_reference(traces));
        }

        /// User-major input with long runs — the DFS layout — plus a few
        /// stragglers that reopen an earlier user.
        fn from_traces_matches_the_reference_on_long_runs(
            runs in prop::collection::vec((0u32..5, 1usize..40, 0i64..50), 0..12),
        ) {
            let draws: Vec<(u32, i64)> = runs
                .iter()
                .flat_map(|&(user, len, t0)| (0..len).map(move |i| (user, t0 + i as i64 / 2)))
                .collect();
            let traces = numbered(&draws);
            prop_assert_eq!(
                Dataset::from_traces(traces.iter().copied()),
                from_traces_reference(traces),
            );
        }

        /// Trails cut from an arbitrary trace list: duplicate users across
        /// trails, empty trails, unsorted arrival, and no trail at all.
        fn from_trails_matches_the_merge_trail_reference(
            draws in prop::collection::vec((0u32..5, 0i64..8), 0..80),
            cuts in prop::collection::vec(0usize..12, 0..16),
        ) {
            let traces = numbered(&draws);
            let mut trails = Vec::new();
            let mut rest = traces.as_slice();
            for (i, &cut) in cuts.iter().enumerate() {
                let (head, tail) = rest.split_at(cut.min(rest.len()));
                // A trail is one user's: keep the head's first user's traces.
                let user = head.first().map_or(i as u32 % 5, |t| t.user);
                let own: Vec<_> = head.iter().filter(|t| t.user == user).copied().collect();
                trails.push(Trail::new(user, own));
                rest = tail;
            }
            prop_assert_eq!(
                Dataset::from_trails(trails.clone()),
                from_trails_reference(trails),
            );
        }
    }

    #[test]
    fn empty_trails_keep_their_user() {
        let ds = Dataset::from_trails(vec![Trail::empty(7), Trail::empty(3), Trail::empty(7)]);
        assert_eq!(ds.num_users(), 2);
        assert!(ds.is_empty());
        assert_eq!(
            ds,
            from_trails_reference(vec![Trail::empty(7), Trail::empty(3)])
        );
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::new();
        assert!(ds.is_empty());
        assert_eq!(ds.num_traces(), 0);
        assert_eq!(ds.num_users(), 0);
        assert!(ds.trail(0).is_none());
    }

    #[test]
    fn round_trip_traces() {
        let original = vec![t(1, 1), t(1, 2), t(2, 1)];
        let ds = Dataset::from_traces(original.clone());
        let mut back = ds.to_traces();
        back.sort_by_key(|x| (x.user, x.timestamp));
        assert_eq!(back, original);
    }
}
