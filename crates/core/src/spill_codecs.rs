//! [`SpillCodec`] constructors for the toolkit's shuffle pair types.
//!
//! The out-of-core shuffle needs to serialize intermediate `(key,
//! value)` pairs to spill runs and read them back bit-identically. The
//! engine's [`SpillCodec`] is closure-based precisely so that this crate
//! can provide codecs for its own types without an orphan-rule fight;
//! the encodings below are fixed-width little-endian (floats via their
//! IEEE-754 bit patterns), so a decoded trace is the *same bits* as the
//! encoded one and spilled job output cannot drift from the in-memory
//! path.

use gepeto_geo::ClusterSum;
use gepeto_mapred::{SpillCodec, SpillEncode};
use gepeto_model::{GeoPoint, MobilityTrace, Timestamp, Trail, UserId};

/// Encoded size of one trace: user, latitude, longitude, seconds,
/// altitude.
const TRACE_BYTES: usize = 4 + 8 + 8 + 8 + 4;

fn encode_trace(t: &MobilityTrace, out: &mut Vec<u8>) {
    t.user.encode(out);
    t.point.lat.encode(out);
    t.point.lon.encode(out);
    t.timestamp.0.encode(out);
    t.altitude.encode(out);
}

fn decode_trace(input: &mut &[u8]) -> Option<MobilityTrace> {
    let user = u32::decode(input)?;
    let lat = f64::decode(input)?;
    let lon = f64::decode(input)?;
    let secs = i64::decode(input)?;
    let altitude = f32::decode(input)?;
    Some(MobilityTrace::with_altitude(
        user,
        GeoPoint::new(lat, lon),
        Timestamp(secs),
        altitude,
    ))
}

/// Codec for `(UserId, MobilityTrace)` — the shuffle pair of the
/// sampling and regrouping jobs. 36 bytes per pair.
pub fn trace_codec() -> SpillCodec<UserId, MobilityTrace> {
    SpillCodec::new(
        |k: &UserId, v: &MobilityTrace, out: &mut Vec<u8>| {
            k.encode(out);
            encode_trace(v, out);
        },
        |input: &mut &[u8]| Some((u32::decode(input)?, decode_trace(input)?)),
    )
}

/// Codec for `(UserId, Trail)` — the by-user regroup's reduce output, as
/// committed to a run journal's partition artifacts: key, the trail's
/// user, a `u64` trace count, then that many 32-byte traces.
///
/// The decoder reads bytes that sat on disk, so it trusts nothing: the
/// count is checked against the bytes that remain *before* anything is
/// allocated for it, and a short input decodes to `None`. The trail is
/// rebuilt through [`Trail::new`], so it is time-ordered whatever the
/// bytes said.
pub fn trail_codec() -> SpillCodec<UserId, Trail> {
    SpillCodec::new(
        |k: &UserId, v: &Trail, out: &mut Vec<u8>| {
            k.encode(out);
            v.user.encode(out);
            (v.len() as u64).encode(out);
            out.reserve(v.len() * TRACE_BYTES);
            for t in v.traces() {
                encode_trace(t, out);
            }
        },
        |input: &mut &[u8]| {
            let k = u32::decode(input)?;
            let user = u32::decode(input)?;
            let len = usize::try_from(u64::decode(input)?).ok()?;
            if len > input.len() / TRACE_BYTES {
                return None;
            }
            let mut traces = Vec::with_capacity(len);
            for _ in 0..len {
                traces.push(decode_trace(input)?);
            }
            Some((k, Trail::new(user, traces)))
        },
    )
}

/// Codec for `(u32, ClusterSum)` — the k-means iteration shuffle pair.
pub fn point_sum_codec() -> SpillCodec<u32, ClusterSum> {
    SpillCodec::new(
        |k: &u32, v: &ClusterSum, out: &mut Vec<u8>| {
            k.encode(out);
            v.lat_sum.encode(out);
            v.lon_sum.encode(out);
            v.count.encode(out);
        },
        |input: &mut &[u8]| {
            let k = u32::decode(input)?;
            let lat_sum = f64::decode(input)?;
            let lon_sum = f64::decode(input)?;
            let count = u64::decode(input)?;
            Some((
                k,
                ClusterSum {
                    lat_sum,
                    lon_sum,
                    count,
                },
            ))
        },
    )
}

/// Codec for `(u32, GeoPoint)` — the k-means reduce output (cluster id
/// to updated centroid), used when iteration jobs commit their reduce
/// partitions into a run journal.
pub fn centroid_codec() -> SpillCodec<u32, GeoPoint> {
    SpillCodec::new(
        |k: &u32, v: &GeoPoint, out: &mut Vec<u8>| {
            k.encode(out);
            v.lat.encode(out);
            v.lon.encode(out);
        },
        |input: &mut &[u8]| {
            let k = u32::decode(input)?;
            let lat = f64::decode(input)?;
            let lon = f64::decode(input)?;
            Some((k, GeoPoint::new(lat, lon)))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_codec_round_trips_bit_exactly() {
        let codec = trace_codec();
        let t = MobilityTrace::with_altitude(
            42,
            GeoPoint::new(39.906631, 116.385564),
            Timestamp(1_234_567_890),
            492.25,
        );
        let mut buf = Vec::new();
        codec.encode(&7u32, &t, &mut buf);
        let mut input = buf.as_slice();
        let (k, back) = codec.decode(&mut input).unwrap();
        assert_eq!(k, 7);
        assert_eq!(back.user, t.user);
        assert_eq!(back.point.lat.to_bits(), t.point.lat.to_bits());
        assert_eq!(back.point.lon.to_bits(), t.point.lon.to_bits());
        assert_eq!(back.timestamp, t.timestamp);
        assert_eq!(back.altitude.to_bits(), t.altitude.to_bits());
        assert!(input.is_empty());
    }

    #[test]
    fn point_sum_codec_round_trips() {
        let codec = point_sum_codec();
        let v = ClusterSum {
            lat_sum: 123.456,
            lon_sum: -78.9,
            count: 1_000_000,
        };
        let mut buf = Vec::new();
        codec.encode(&3u32, &v, &mut buf);
        let mut input = buf.as_slice();
        let (k, back) = codec.decode(&mut input).unwrap();
        assert_eq!(k, 3);
        assert_eq!(back.lat_sum.to_bits(), v.lat_sum.to_bits());
        assert_eq!(back.lon_sum.to_bits(), v.lon_sum.to_bits());
        assert_eq!(back.count, v.count);
    }

    fn sample_trail() -> Trail {
        // Awkward bits on purpose: a negative zero, a subnormal, a NaN
        // altitude, and two traces sharing a timestamp.
        let t = |secs: i64, lat: f64, alt: f32| {
            MobilityTrace::with_altitude(9, GeoPoint::new(lat, -116.385564), Timestamp(secs), alt)
        };
        Trail::new(
            9,
            vec![
                t(-5, -0.0, 492.25),
                t(7, f64::MIN_POSITIVE / 2.0, f32::NAN),
                t(7, 39.906631, -777.0),
                t(1_234_567_890, 89.999_999_9, 0.0),
            ],
        )
    }

    fn trace_bits(t: &MobilityTrace) -> (u32, u64, u64, i64, u32) {
        (
            t.user,
            t.point.lat.to_bits(),
            t.point.lon.to_bits(),
            t.timestamp.0,
            t.altitude.to_bits(),
        )
    }

    #[test]
    fn trail_codec_round_trips_bit_exactly() {
        let codec = trail_codec();
        for trail in [sample_trail(), Trail::empty(3)] {
            let mut buf = Vec::new();
            codec.encode(&7u32, &trail, &mut buf);
            assert_eq!(buf.len(), 4 + 4 + 8 + trail.len() * TRACE_BYTES);
            let mut input = buf.as_slice();
            let (k, back) = codec.decode(&mut input).unwrap();
            assert!(input.is_empty());
            assert_eq!(k, 7);
            assert_eq!(back.user, trail.user);
            assert_eq!(
                back.traces().iter().map(trace_bits).collect::<Vec<_>>(),
                trail.traces().iter().map(trace_bits).collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn trail_codec_rejects_every_truncation() {
        let codec = trail_codec();
        let mut buf = Vec::new();
        codec.encode(&7u32, &sample_trail(), &mut buf);
        for cut in 0..buf.len() {
            let mut short = &buf[..cut];
            assert!(codec.decode(&mut short).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn trail_codec_bounds_the_length_prefix_before_allocating() {
        let codec = trail_codec();
        let mut buf = Vec::new();
        codec.encode(&7u32, &sample_trail(), &mut buf);
        // Claim u64::MAX traces, then one more than the bytes can hold: a
        // decoder that allocated for the claim would abort on the first
        // and over-read on the second.
        let real = sample_trail().len() as u64;
        for claimed in [u64::MAX, u64::MAX / 32, 1 << 40, real + 1] {
            let mut forged = buf.clone();
            forged[8..16].copy_from_slice(&claimed.to_le_bytes());
            let mut input = forged.as_slice();
            assert!(codec.decode(&mut input).is_none(), "claimed {claimed}");
        }
        // A count below the truth decodes but leaves bytes behind, which
        // the run reader treats as a corrupt record.
        let mut forged = buf.clone();
        forged[8..16].copy_from_slice(&(real - 1).to_le_bytes());
        let mut input = forged.as_slice();
        assert!(codec.decode(&mut input).is_some());
        assert_eq!(input.len(), TRACE_BYTES);
    }

    #[test]
    fn a_per_trace_record_is_not_a_trail_record() {
        // A reduce artifact committed before the reducer emitted trails
        // holds 36-byte `trace_codec` records. Under `trail_codec` such a
        // record must not decode cleanly, so `resume` quarantines the
        // artifact and recomputes the partition.
        let t = MobilityTrace::new(1, GeoPoint::new(0.0, 2.0), Timestamp(3));
        let mut buf = Vec::new();
        trace_codec().encode(&1u32, &t, &mut buf);
        let mut input = buf.as_slice();
        let clean = trail_codec().decode(&mut input).is_some() && input.is_empty();
        assert!(!clean);
    }

    #[test]
    fn truncated_input_decodes_to_none() {
        let codec = trace_codec();
        let t = MobilityTrace::new(1, GeoPoint::new(1.0, 2.0), Timestamp(3));
        let mut buf = Vec::new();
        codec.encode(&1u32, &t, &mut buf);
        let mut short = &buf[..buf.len() - 1];
        assert!(codec.decode(&mut short).is_none());
    }
}
