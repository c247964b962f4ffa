//! The input-split contract, checked mapper by mapper: a mapper that
//! declares cut points ([`Mapper::splits_between`]) must emit, as one
//! fresh clone per range, exactly what one clone emits for the chunk.

use gepeto_mapred::{Counters, Emitter, Mapper, TaskContext};
use gepeto_model::{GeoPoint, MobilityTrace, Timestamp, UserId};
use std::fmt::Debug;
use std::ops::Range;

/// Cuts `records` at every position `mapper` declares, runs each range
/// on a fresh clone (`setup`, `map_block` at `base` + the range start,
/// `cleanup`) and asserts their concatenated pairs are the whole-chunk
/// pairs. Returns the number of cuts.
pub(crate) fn assert_cuts_change_nothing<M>(
    mapper: &M,
    base: u64,
    records: &[MobilityTrace],
) -> usize
where
    M: Mapper<MobilityTrace>,
    M::KOut: Debug + PartialEq,
    M::VOut: Debug + PartialEq,
{
    let counters = Counters::new();
    let ctx = TaskContext {
        task_id: 0,
        attempt: 1,
        counters: &counters,
    };
    let run = |range: Range<usize>| {
        let mut m = mapper.clone();
        m.setup(&ctx);
        let mut out = Emitter::new();
        m.map_block(base + range.start as u64, &records[range], &mut out);
        m.cleanup(&mut out);
        out.into_pairs()
    };
    let cuts: Vec<usize> = (1..records.len())
        .filter(|&i| mapper.splits_between(&records[i - 1], &records[i]))
        .collect();
    let mut split = Vec::new();
    let mut start = 0;
    for &cut in cuts.iter().chain([&records.len()]) {
        split.extend(run(start..cut));
        start = cut;
    }
    assert_eq!(split, run(0..records.len()), "cuts at {cuts:?}");
    cuts.len()
}

/// Three users' traces with the awkward seams: a 60 s window that the
/// next user's first trace falls into, duplicate timestamps, a stationary
/// run straddling a user switch, near-duplicate points, and a user that
/// comes back after another.
pub(crate) fn seam_traces() -> Vec<MobilityTrace> {
    let at = |user: UserId, secs: i64, north_m: f64| {
        MobilityTrace::new(
            user,
            GeoPoint::new(39.9 + north_m * 9e-6, 116.4),
            Timestamp(secs),
        )
    };
    let mut traces = Vec::new();
    for (i, secs) in [0, 10, 10, 25, 50, 58, 58, 59].into_iter().enumerate() {
        traces.push(at(
            1,
            secs,
            [0.0, 0.1, 0.2, 40.0, 400.0, 400.2, 400.2, 401.0][i],
        ));
    }
    for (i, secs) in [59, 59, 61, 62, 130, 131, 300].into_iter().enumerate() {
        traces.push(at(
            2,
            secs,
            [401.0, 401.1, 401.3, 5_000.0, 5_000.2, 5_000.2, 9_000.0][i],
        ));
    }
    for secs in [300, 301, 302] {
        traces.push(at(1, secs, 0.3));
    }
    traces.push(at(3, 302, 0.3));
    traces
}
