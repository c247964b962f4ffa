//! Trails (one user's time-ordered traces) and geolocated datasets.

use crate::{MobilityTrace, UserId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A trail of traces: the movements of a single individual over time,
/// ordered by timestamp (ties broken arbitrarily but deterministically).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trail {
    /// Owner of the trail.
    pub user: UserId,
    traces: Vec<MobilityTrace>,
}

impl Trail {
    /// Creates a trail, sorting the traces by timestamp.
    pub fn new(user: UserId, mut traces: Vec<MobilityTrace>) -> Self {
        traces.sort_by_key(|t| t.timestamp);
        Self { user, traces }
    }

    /// An empty trail for `user`.
    pub fn empty(user: UserId) -> Self {
        Self {
            user,
            traces: Vec::new(),
        }
    }

    /// Appends a trace, keeping the trail sorted. Appending in timestamp
    /// order is O(1); out-of-order appends fall back to a sorted insert.
    pub fn push(&mut self, trace: MobilityTrace) {
        match self.traces.last() {
            Some(last) if last.timestamp > trace.timestamp => {
                let idx = self
                    .traces
                    .partition_point(|t| t.timestamp <= trace.timestamp);
                self.traces.insert(idx, trace);
            }
            _ => self.traces.push(trace),
        }
    }

    /// The traces, sorted by timestamp.
    pub fn traces(&self) -> &[MobilityTrace] {
        &self.traces
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the trail holds no trace.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Consumes the trail, returning its sorted traces.
    pub fn into_traces(self) -> Vec<MobilityTrace> {
        self.traces
    }

    /// Total time span covered, in seconds (0 for fewer than two traces).
    pub fn duration_secs(&self) -> i64 {
        match (self.traces.first(), self.traces.last()) {
            (Some(a), Some(b)) => b.timestamp.delta(a.timestamp),
            _ => 0,
        }
    }

    /// Mean interval between consecutive traces, in seconds.
    pub fn mean_period_secs(&self) -> f64 {
        if self.traces.len() < 2 {
            return 0.0;
        }
        self.duration_secs() as f64 / (self.traces.len() - 1) as f64
    }

    /// Splits the trail into recording sessions: maximal runs of traces
    /// whose consecutive gaps are at most `max_gap_secs` (GeoLife's
    /// "trajectories" — the logger was on continuously).
    pub fn sessions(&self, max_gap_secs: i64) -> Vec<&[MobilityTrace]> {
        assert!(max_gap_secs > 0, "session gap must be positive");
        let mut out = Vec::new();
        let mut start = 0usize;
        for i in 1..self.traces.len() {
            if self.traces[i].timestamp.delta(self.traces[i - 1].timestamp) > max_gap_secs {
                out.push(&self.traces[start..i]);
                start = i;
            }
        }
        if start < self.traces.len() {
            out.push(&self.traces[start..]);
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
    /// Run-aware: the traces are cut into maximal same-user runs, the runs
    /// are stably sorted by user, and each user's runs are concatenated
    /// into one exactly-sized trail, so a user-major scan (the DFS layout)
    /// costs one comparison per trace and one allocation per user, and no
    /// trace is looked up in a tree. Any arrival order gives the same
    /// dataset: traces of one user with equal timestamps keep their
    /// arrival order.
    pub fn from_traces(traces: impl IntoIterator<Item = MobilityTrace>) -> Self {
        let traces: Vec<MobilityTrace> = traces.into_iter().collect();
        let mut runs: Vec<&[MobilityTrace]> = traces.chunk_by(|a, b| a.user == b.user).collect();
        runs.sort_by_key(|run| run[0].user);
        let trails = runs
            .chunk_by(|a, b| a[0].user == b[0].user)
            .map(|of_user| Trail::new(of_user[0][0].user, of_user.concat()))
            .collect();
        Self::from_sorted_trails(trails)
    }

    /// Builds a dataset from complete trails, e.g. the by-user regroup's
    /// reduce output. Trails with duplicate user ids are merged: the result
    /// is the stable time-sort of their traces in arrival order.
    ///
    /// The trails are stably sorted by user, duplicates are folded into
    /// their first occurrence, and the tree is bulk-built from the sorted
    /// run — no per-trail insert, and no trace is touched unless its user
    /// appears twice.
    pub fn from_trails(trails: impl IntoIterator<Item = Trail>) -> Self {
        let mut trails: Vec<Trail> = trails.into_iter().collect();
        trails.sort_by_key(|t| t.user);
        let mut merged: Vec<Trail> = Vec::with_capacity(trails.len());
        for trail in trails {
            match merged.last_mut() {
                Some(last) if last.user == trail.user => {
                    last.traces.extend(trail.traces);
                    last.traces.sort_by_key(|t| t.timestamp);
                }
                _ => merged.push(trail),
            }
        }
        Self::from_sorted_trails(merged)
    }

    /// Bulk-builds the tree from trails in strictly ascending user order.
    fn from_sorted_trails(trails: Vec<Trail>) -> Self {
        debug_assert!(trails.windows(2).all(|w| w[0].user < w[1].user));
        Self {
            trails: trails.into_iter().map(|t| (t.user, t)).collect(),
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
        self.iter_traces().copied().collect()
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
            prop_assert_eq!(
                Dataset::from_traces(traces.iter().copied()),
                from_traces_reference(traces),
            );
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
