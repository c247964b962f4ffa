//! Deterministic hashing for partitioners and failure injection.
//!
//! Hadoop's default `HashPartitioner` sends a key to reducer
//! `hash(key) mod R`. Rust's `RandomState` is seeded per process, which
//! would make shuffle statistics differ between runs, so a fixed-seed
//! FNV-1a hasher is used instead.

use std::hash::{Hash, Hasher};

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A FNV-1a [`Hasher`] with a fixed offset basis — deterministic across
/// processes and platforms.
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// A [`std::hash::BuildHasher`] producing [`FnvHasher`]s — plug this into
/// `HashMap` when iteration-independent, process-stable hashing matters
/// (the sort-skipping reduce path groups keys with it).
pub type FnvBuildHasher = std::hash::BuildHasherDefault<FnvHasher>;

/// Deterministic 64-bit hash of any `Hash` value.
pub fn fnv_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FnvHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// The default partitioner: `hash(key) mod num_partitions`.
pub fn default_partition<K: Hash>(key: &K, num_partitions: usize) -> usize {
    debug_assert!(num_partitions > 0);
    (fnv_hash(key) % num_partitions as u64) as usize
}

/// Deterministic uniform `[0, 1)` value derived from a tuple of seeds —
/// the basis of reproducible failure injection.
pub fn unit_hash<T: Hash>(value: &T) -> f64 {
    // Use the top 53 bits for a full-precision mantissa.
    (fnv_hash(value) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(fnv_hash("alpha"), fnv_hash("alpha"));
        assert_ne!(fnv_hash("alpha"), fnv_hash("beta"));
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(FnvHasher::default().finish(), FNV_OFFSET);
    }

    #[test]
    fn partition_in_range_and_stable() {
        for k in 0..1000u64 {
            let p = default_partition(&k, 7);
            assert!(p < 7);
            assert_eq!(p, default_partition(&k, 7));
        }
    }

    #[test]
    fn partitions_roughly_uniform() {
        let mut counts = [0usize; 8];
        for k in 0..8000u64 {
            counts[default_partition(&k, 8)] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "skewed: {counts:?}");
        }
    }

    #[test]
    fn unit_hash_in_unit_interval() {
        for k in 0..1000u32 {
            let u = unit_hash(&("job", k, 0u32));
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn unit_hash_mean_is_centered() {
        let n = 10_000;
        let mean: f64 = (0..n).map(|k| unit_hash(&k)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "{mean}");
    }
}
