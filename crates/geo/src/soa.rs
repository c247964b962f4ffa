//! Columnar (structure-of-arrays) clustering kernels.
//!
//! The k-means hot loop evaluates `n × k` point-to-centroid distances per
//! iteration. Doing that through [`DistanceMetric::between`] on an
//! array-of-structs layout recomputes `sin`/`cos`/`to_radians` for every
//! pair and defeats auto-vectorization because the compiler cannot prove
//! the `GeoPoint` loads are independent lanes. This module keeps the same
//! arithmetic — bit for bit — but lays the data out as separate `f64`
//! columns and hoists the per-centroid (and per-point) trigonometry out of
//! the inner loop:
//!
//! - [`CentroidsSoa`] — centroids split into `lat`/`lon` columns, with
//!   `lat_rad`/`lon_rad`/`cos_lat` precomputed once for Haversine.
//! - [`PointsSoa`] — an input block split into `lat`/`lon` columns.
//! - [`CentroidsSoa::assign_sum`] — the fused *assign + partial-sum* loop:
//!   one pass that finds each point's nearest centroid **and** accumulates
//!   the per-cluster coordinate sums, so callers no longer need a second
//!   combiner pass over the assignments.
//!
//! ## Bit-identical by construction
//!
//! Every kernel reproduces the exact floating-point expressions of
//! [`DistanceMetric::between`] / [`crate::haversine_m`] with the same operand
//! order (`a` = point, `b` = centroid, matching every clustering call
//! site). Hoisting `to_radians`/`cos` is exact: the same input bits go
//! through the same operations, just once instead of `k` (or `n`) times.
//! The argmin scan is a strict `<` first-minimum-wins loop, identical to
//! the scalar reference, and the partial sums add points in slice order —
//! so centroids, assignments and sums match the scalar path bit for bit.
//! Property tests in this module and in `gepeto` assert this.
//!
//! ## Explicit SIMD lanes
//!
//! The planar metrics (Euclidean, squared Euclidean, Manhattan) run on
//! explicit [`LANES`]-wide f64 blocks — plain `[f64; 4]` arrays the
//! compiler lowers to vector registers:
//!
//! - [`CentroidsSoa::assign_sum`] vectorizes over **points**: four
//!   independent points race through the centroid scan side by side.
//!   Each lane evaluates the same expression in the same operand order
//!   as the scalar loop and keeps its own strict-`<` argmin state, and
//!   the per-cluster sums are folded lane 0→3 (= point order), so the
//!   result is `to_bits`-identical to the scalar kernel by construction.
//! - [`CentroidsSoa::nearest`] vectorizes over **centroids**: four
//!   distances per block, then an in-order lane scan that preserves the
//!   strict-`<` first-minimum-wins tie-break exactly.
//!
//! Haversine stays on the scalar path: its per-pair `sin`/`cos`/`asin`
//! calls cannot be laned without changing the libm call sequence, and
//! the bit-exactness contract outranks the speedup. The pre-lane scalar
//! kernels remain as [`CentroidsSoa::assign_sum_scalar`] /
//! [`CentroidsSoa::nearest_scalar`] — the reference the property tests
//! (and the `kernels` bench) compare against.

use crate::distance::{DistanceMetric, EARTH_RADIUS_M};
use gepeto_model::GeoPoint;

/// Lane width of the vectorized planar kernels: four f64s, one 256-bit
/// vector register on AVX2-class hosts (two 128-bit ops elsewhere).
pub const LANES: usize = 4;

/// Running coordinate sum for one cluster: sum of latitudes, sum of
/// longitudes, member count. It is both the fused kernel's accumulator and
/// the k-means jobs' intermediate value, so partial results merge across
/// tiles, chunks and the shuffle without a conversion.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClusterSum {
    /// Sum of member latitudes, in the order the points were scanned.
    pub lat_sum: f64,
    /// Sum of member longitudes, in the order the points were scanned.
    pub lon_sum: f64,
    /// Number of points accumulated.
    pub count: u64,
}

impl ClusterSum {
    /// The sum holding the single point `p`.
    pub fn of(p: GeoPoint) -> Self {
        Self {
            lat_sum: p.lat,
            lon_sum: p.lon,
            count: 1,
        }
    }

    /// The mean of the accumulated points; `None` for an empty sum.
    pub fn mean(&self) -> Option<GeoPoint> {
        (self.count > 0).then(|| {
            GeoPoint::new(
                self.lat_sum / self.count as f64,
                self.lon_sum / self.count as f64,
            )
        })
    }

    /// Folds another partial sum into this one (chunk merge).
    ///
    /// Addition order matters for bit-identity: fold chunk results in
    /// chunk order, exactly like the scalar reduction does.
    pub fn merge(&mut self, other: &ClusterSum) {
        self.lat_sum += other.lat_sum;
        self.lon_sum += other.lon_sum;
        self.count += other.count;
    }
}

/// An input block split into latitude and longitude columns.
#[derive(Debug, Clone, Default)]
pub struct PointsSoa {
    /// Latitude column, decimal degrees.
    pub lat: Vec<f64>,
    /// Longitude column, decimal degrees.
    pub lon: Vec<f64>,
}

impl PointsSoa {
    /// Splits an array-of-structs slice into columns.
    pub fn from_points(points: &[GeoPoint]) -> Self {
        Self {
            lat: points.iter().map(|p| p.lat).collect(),
            lon: points.iter().map(|p| p.lon).collect(),
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.lat.len()
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.lat.is_empty()
    }
}

/// Centroids in columnar layout with precomputed Haversine trigonometry.
///
/// Build once per iteration (k is small), then evaluate `nearest` /
/// `assign_sum` over millions of points without touching `sin`/`cos` for
/// the centroid side again.
#[derive(Debug, Clone)]
pub struct CentroidsSoa {
    metric: DistanceMetric,
    /// Centroid latitudes, decimal degrees.
    lat: Vec<f64>,
    /// Centroid longitudes, decimal degrees.
    lon: Vec<f64>,
    /// `lat.to_radians()` per centroid (Haversine only).
    lat_rad: Vec<f64>,
    /// `lon.to_radians()` per centroid (Haversine only).
    lon_rad: Vec<f64>,
    /// `lat.to_radians().cos()` per centroid (Haversine only).
    cos_lat: Vec<f64>,
}

impl CentroidsSoa {
    /// Splits `centroids` into columns and precomputes the trigonometry
    /// the chosen metric needs.
    pub fn new(centroids: &[GeoPoint], metric: DistanceMetric) -> Self {
        let lat: Vec<f64> = centroids.iter().map(|c| c.lat).collect();
        let lon: Vec<f64> = centroids.iter().map(|c| c.lon).collect();
        let (lat_rad, lon_rad, cos_lat) = if metric == DistanceMetric::Haversine {
            let lat_rad: Vec<f64> = lat.iter().map(|l| l.to_radians()).collect();
            let lon_rad: Vec<f64> = lon.iter().map(|l| l.to_radians()).collect();
            let cos_lat: Vec<f64> = lat_rad.iter().map(|l| l.cos()).collect();
            (lat_rad, lon_rad, cos_lat)
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };
        Self {
            metric,
            lat,
            lon,
            lat_rad,
            lon_rad,
            cos_lat,
        }
    }

    /// Number of centroids.
    pub fn len(&self) -> usize {
        self.lat.len()
    }

    /// Whether there are no centroids.
    pub fn is_empty(&self) -> bool {
        self.lat.is_empty()
    }

    /// The metric these kernels evaluate.
    pub fn metric(&self) -> DistanceMetric {
        self.metric
    }

    /// Distance from `p` to centroid `i` — bit-identical to
    /// `metric.between(p, centroids[i])`.
    pub fn distance(&self, p: GeoPoint, i: usize) -> f64 {
        match self.metric {
            DistanceMetric::Haversine => {
                let lat1 = p.lat.to_radians();
                let lon1 = p.lon.to_radians();
                self.haversine_to(lat1, lon1, lat1.cos(), i)
            }
            _ => self.planar(p.lat, p.lon, i),
        }
    }

    /// Index of the nearest centroid under strict-`<` first-minimum-wins
    /// semantics — bit-identical to the scalar argmin over
    /// `metric.between(p, c)`. Planar metrics run [`LANES`] centroids per
    /// block; Haversine stays scalar (see the module docs).
    pub fn nearest(&self, p: GeoPoint) -> u32 {
        debug_assert!(!self.is_empty());
        match self.metric {
            DistanceMetric::Haversine => self.nearest_scalar(p),
            DistanceMetric::Euclidean => self.nearest_lanes(p.lat, p.lon, |dlat, dlon| {
                (dlat * dlat + dlon * dlon).sqrt()
            }),
            DistanceMetric::SquaredEuclidean => {
                self.nearest_lanes(p.lat, p.lon, |dlat, dlon| dlat * dlat + dlon * dlon)
            }
            DistanceMetric::Manhattan => {
                self.nearest_lanes(p.lat, p.lon, |dlat, dlon| dlat.abs() + dlon.abs())
            }
        }
    }

    /// The scalar argmin — the reference the lane kernel must reproduce
    /// bit for bit (property-tested below and used directly for
    /// Haversine).
    pub fn nearest_scalar(&self, p: GeoPoint) -> u32 {
        debug_assert!(!self.is_empty());
        match self.metric {
            DistanceMetric::Haversine => {
                let lat1 = p.lat.to_radians();
                let lon1 = p.lon.to_radians();
                let cos1 = lat1.cos();
                let mut best = 0u32;
                let mut best_d = f64::INFINITY;
                for i in 0..self.len() {
                    let d = self.haversine_to(lat1, lon1, cos1, i);
                    if d < best_d {
                        best_d = d;
                        best = i as u32;
                    }
                }
                best
            }
            _ => {
                let mut best = 0u32;
                let mut best_d = f64::INFINITY;
                for i in 0..self.len() {
                    let d = self.planar(p.lat, p.lon, i);
                    if d < best_d {
                        best_d = d;
                        best = i as u32;
                    }
                }
                best
            }
        }
    }

    /// Planar argmin over [`LANES`]-wide centroid blocks. Each block
    /// evaluates four distances with the exact scalar expressions, then
    /// scans the lanes **in index order** with the same strict-`<`
    /// comparison — so the first minimum wins exactly as in the scalar
    /// loop, ties and all. The tail runs the scalar loop.
    #[inline]
    fn nearest_lanes<D>(&self, plat: f64, plon: f64, dist: D) -> u32
    where
        D: Fn(f64, f64) -> f64 + Copy,
    {
        let k = self.len();
        let mut best = 0u32;
        let mut best_d = f64::INFINITY;
        let mut i = 0;
        while i + LANES <= k {
            let mut d = [0.0f64; LANES];
            for (j, dj) in d.iter_mut().enumerate() {
                *dj = dist(plat - self.lat[i + j], plon - self.lon[i + j]);
            }
            for (j, &dj) in d.iter().enumerate() {
                if dj < best_d {
                    best_d = dj;
                    best = (i + j) as u32;
                }
            }
            i += LANES;
        }
        while i < k {
            let d = dist(plat - self.lat[i], plon - self.lon[i]);
            if d < best_d {
                best_d = d;
                best = i as u32;
            }
            i += 1;
        }
        best
    }

    /// The fused assign + partial-sum kernel over columnar points.
    ///
    /// For each point, finds the nearest centroid and accumulates the
    /// point into `sums[cid]` — one pass, no assignment buffer. `sums`
    /// must hold exactly `self.len()` entries; points are accumulated in
    /// slice order, so chunked callers that merge partials in chunk order
    /// reproduce the scalar reduction bit for bit.
    ///
    /// Returns the number of distance evaluations performed
    /// (`points × centroids`). Planar metrics run [`LANES`] points per
    /// block (see the module docs); Haversine runs the scalar reference.
    pub fn assign_sum(&self, lat: &[f64], lon: &[f64], sums: &mut [ClusterSum]) -> u64 {
        assert_eq!(lat.len(), lon.len());
        assert_eq!(sums.len(), self.len());
        match self.metric {
            DistanceMetric::Haversine => {
                self.assign_sum_haversine(lat, lon, sums);
            }
            DistanceMetric::Euclidean => {
                self.assign_sum_lanes(lat, lon, sums, |dlat, dlon| {
                    (dlat * dlat + dlon * dlon).sqrt()
                });
            }
            DistanceMetric::SquaredEuclidean => {
                self.assign_sum_lanes(lat, lon, sums, |dlat, dlon| dlat * dlat + dlon * dlon);
            }
            DistanceMetric::Manhattan => {
                self.assign_sum_lanes(lat, lon, sums, |dlat, dlon| dlat.abs() + dlon.abs());
            }
        }
        lat.len() as u64 * self.len() as u64
    }

    /// The pre-lane scalar kernel, kept verbatim as the bit-exactness
    /// reference for [`assign_sum`](Self::assign_sum) (property-tested
    /// below, raced against the lane kernel in the `kernels` bench).
    pub fn assign_sum_scalar(&self, lat: &[f64], lon: &[f64], sums: &mut [ClusterSum]) -> u64 {
        assert_eq!(lat.len(), lon.len());
        assert_eq!(sums.len(), self.len());
        match self.metric {
            DistanceMetric::Haversine => self.assign_sum_haversine(lat, lon, sums),
            _ => {
                for (&plat, &plon) in lat.iter().zip(lon) {
                    let mut best = 0usize;
                    let mut best_d = f64::INFINITY;
                    for i in 0..self.len() {
                        let d = self.planar(plat, plon, i);
                        if d < best_d {
                            best_d = d;
                            best = i;
                        }
                    }
                    let s = &mut sums[best];
                    s.lat_sum += plat;
                    s.lon_sum += plon;
                    s.count += 1;
                }
            }
        }
        lat.len() as u64 * self.len() as u64
    }

    /// The Haversine assign+sum loop — scalar by contract (laning would
    /// reorder the libm `sin`/`cos`/`asin` sequence).
    fn assign_sum_haversine(&self, lat: &[f64], lon: &[f64], sums: &mut [ClusterSum]) {
        for (&plat, &plon) in lat.iter().zip(lon) {
            let lat1 = plat.to_radians();
            let lon1 = plon.to_radians();
            let cos1 = lat1.cos();
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for i in 0..self.len() {
                let d = self.haversine_to(lat1, lon1, cos1, i);
                if d < best_d {
                    best_d = d;
                    best = i;
                }
            }
            let s = &mut sums[best];
            s.lat_sum += plat;
            s.lon_sum += plon;
            s.count += 1;
        }
    }

    /// The laned planar assign+sum core: [`LANES`] points per block, one
    /// strict-`<` argmin state per lane, sums folded lane 0→3 (= point
    /// order) after the centroid scan, scalar tail for `n % LANES`
    /// points. Bit-identical to the scalar kernel by construction — each
    /// lane runs the same expressions on the same operands in the same
    /// order; only *independent* points run side by side.
    #[inline]
    fn assign_sum_lanes<D>(&self, lat: &[f64], lon: &[f64], sums: &mut [ClusterSum], dist: D)
    where
        D: Fn(f64, f64) -> f64 + Copy,
    {
        let k = self.len();
        let lat_blocks = lat.chunks_exact(LANES);
        let lon_blocks = lon.chunks_exact(LANES);
        let lat_tail = lat_blocks.remainder();
        let lon_tail = lon_blocks.remainder();
        for (lat_block, lon_block) in lat_blocks.zip(lon_blocks) {
            let plat: &[f64; LANES] = lat_block.try_into().expect("exact chunk");
            let plon: &[f64; LANES] = lon_block.try_into().expect("exact chunk");
            let mut best = [0usize; LANES];
            let mut best_d = [f64::INFINITY; LANES];
            for i in 0..k {
                let clat = self.lat[i];
                let clon = self.lon[i];
                for j in 0..LANES {
                    let d = dist(plat[j] - clat, plon[j] - clon);
                    if d < best_d[j] {
                        best_d[j] = d;
                        best[j] = i;
                    }
                }
            }
            for j in 0..LANES {
                let s = &mut sums[best[j]];
                s.lat_sum += plat[j];
                s.lon_sum += plon[j];
                s.count += 1;
            }
        }
        for (&plat, &plon) in lat_tail.iter().zip(lon_tail) {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for i in 0..k {
                let d = dist(plat - self.lat[i], plon - self.lon[i]);
                if d < best_d {
                    best_d = d;
                    best = i;
                }
            }
            let s = &mut sums[best];
            s.lat_sum += plat;
            s.lon_sum += plon;
            s.count += 1;
        }
    }

    /// [`assign_sum`](Self::assign_sum) over an array-of-structs slice —
    /// same lane/scalar split, reading `GeoPoint`s directly (the lat/lon
    /// columns of each block are gathered into lane arrays on the fly).
    pub fn assign_sum_points(&self, points: &[GeoPoint], sums: &mut [ClusterSum]) -> u64 {
        assert_eq!(sums.len(), self.len());
        match self.metric {
            DistanceMetric::Haversine => {
                for p in points {
                    let lat1 = p.lat.to_radians();
                    let lon1 = p.lon.to_radians();
                    let cos1 = lat1.cos();
                    let mut best = 0usize;
                    let mut best_d = f64::INFINITY;
                    for i in 0..self.len() {
                        let d = self.haversine_to(lat1, lon1, cos1, i);
                        if d < best_d {
                            best_d = d;
                            best = i;
                        }
                    }
                    let s = &mut sums[best];
                    s.lat_sum += p.lat;
                    s.lon_sum += p.lon;
                    s.count += 1;
                }
            }
            DistanceMetric::Euclidean => {
                self.assign_sum_points_lanes(points, sums, |dlat, dlon| {
                    (dlat * dlat + dlon * dlon).sqrt()
                });
            }
            DistanceMetric::SquaredEuclidean => {
                self.assign_sum_points_lanes(points, sums, |dlat, dlon| dlat * dlat + dlon * dlon);
            }
            DistanceMetric::Manhattan => {
                self.assign_sum_points_lanes(points, sums, |dlat, dlon| dlat.abs() + dlon.abs());
            }
        }
        points.len() as u64 * self.len() as u64
    }

    /// AoS front-end of [`assign_sum_lanes`](Self::assign_sum_lanes).
    #[inline]
    fn assign_sum_points_lanes<D>(&self, points: &[GeoPoint], sums: &mut [ClusterSum], dist: D)
    where
        D: Fn(f64, f64) -> f64 + Copy,
    {
        let k = self.len();
        let blocks = points.chunks_exact(LANES);
        let tail = blocks.remainder();
        for block in blocks {
            let plat: [f64; LANES] = std::array::from_fn(|j| block[j].lat);
            let plon: [f64; LANES] = std::array::from_fn(|j| block[j].lon);
            let mut best = [0usize; LANES];
            let mut best_d = [f64::INFINITY; LANES];
            for i in 0..k {
                let clat = self.lat[i];
                let clon = self.lon[i];
                for j in 0..LANES {
                    let d = dist(plat[j] - clat, plon[j] - clon);
                    if d < best_d[j] {
                        best_d[j] = d;
                        best[j] = i;
                    }
                }
            }
            for j in 0..LANES {
                let s = &mut sums[best[j]];
                s.lat_sum += plat[j];
                s.lon_sum += plon[j];
                s.count += 1;
            }
        }
        for p in tail {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for i in 0..k {
                let d = dist(p.lat - self.lat[i], p.lon - self.lon[i]);
                if d < best_d {
                    best_d = d;
                    best = i;
                }
            }
            let s = &mut sums[best];
            s.lat_sum += p.lat;
            s.lon_sum += p.lon;
            s.count += 1;
        }
    }

    /// Planar metrics — the exact expressions of `DistanceMetric::between`
    /// with `a` = point, `b` = centroid.
    #[inline]
    fn planar(&self, plat: f64, plon: f64, i: usize) -> f64 {
        let dlat = plat - self.lat[i];
        let dlon = plon - self.lon[i];
        match self.metric {
            DistanceMetric::Euclidean => (dlat * dlat + dlon * dlon).sqrt(),
            DistanceMetric::SquaredEuclidean => dlat * dlat + dlon * dlon,
            DistanceMetric::Manhattan => dlat.abs() + dlon.abs(),
            DistanceMetric::Haversine => unreachable!("haversine uses the precomputed path"),
        }
    }

    /// Haversine core with the point-side trig (`lat1`/`lon1` in radians,
    /// `cos1 = lat1.cos()`) hoisted by the caller — the exact per-pair
    /// expression of [`crate::haversine_m`], operand order preserved.
    #[inline]
    fn haversine_to(&self, lat1: f64, lon1: f64, cos1: f64, i: usize) -> f64 {
        let dlat = self.lat_rad[i] - lat1;
        let dlon = self.lon_rad[i] - lon1;
        let h = (dlat / 2.0).sin().powi(2) + cos1 * self.cos_lat[i] * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * h.sqrt().min(1.0).asin()
    }
}

/// Chunk size of the pooled labeling pass — matches the k-means
/// `SEQ_CHUNK`, so the work granularity is identical across kernels.
const POOL_CHUNK: usize = 16_384;

/// Labels every point with its nearest centroid, fanning fixed-size
/// chunks out over the global work-stealing pool.
///
/// Each chunk's labels land in their own slot and the slots are
/// concatenated in chunk order, so the output is identical to the
/// sequential `points.iter().map(|&p| soa.nearest(p))` scan at any
/// thread count.
pub fn assign_points_pooled(points: &[GeoPoint], soa: &CentroidsSoa) -> Vec<u32> {
    let chunks: Vec<&[GeoPoint]> = points.chunks(POOL_CHUNK).collect();
    let labeled: Vec<Vec<u32>> = gepeto_pool::global().map_indexed(chunks.len(), |c| {
        chunks[c].iter().map(|&p| soa.nearest(p)).collect()
    });
    labeled.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::haversine_m;

    /// Deterministic pseudo-random point cloud (no `rand` dependency).
    fn cloud(n: usize, seed: u64) -> Vec<GeoPoint> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| GeoPoint::new(39.0 + 2.0 * next(), 115.0 + 3.0 * next()))
            .collect()
    }

    fn scalar_nearest(p: GeoPoint, centroids: &[GeoPoint], metric: DistanceMetric) -> u32 {
        let mut best = 0u32;
        let mut best_d = f64::INFINITY;
        for (i, c) in centroids.iter().enumerate() {
            let d = metric.between(p, *c);
            if d < best_d {
                best_d = d;
                best = i as u32;
            }
        }
        best
    }

    const ALL_METRICS: [DistanceMetric; 4] = [
        DistanceMetric::Euclidean,
        DistanceMetric::SquaredEuclidean,
        DistanceMetric::Manhattan,
        DistanceMetric::Haversine,
    ];

    #[test]
    fn squared_euclidean_distance_is_bit_identical_to_scalar() {
        let points = cloud(500, 7);
        let centroids = cloud(9, 42);
        let soa = CentroidsSoa::new(&centroids, DistanceMetric::SquaredEuclidean);
        for p in &points {
            for (i, c) in centroids.iter().enumerate() {
                let reference = DistanceMetric::SquaredEuclidean.between(*p, *c);
                assert_eq!(soa.distance(*p, i).to_bits(), reference.to_bits());
            }
        }
    }

    #[test]
    fn haversine_distance_matches_scalar_within_1e9_relative() {
        let points = cloud(500, 11);
        let centroids = cloud(9, 43);
        let soa = CentroidsSoa::new(&centroids, DistanceMetric::Haversine);
        for p in &points {
            for (i, c) in centroids.iter().enumerate() {
                let reference = haversine_m(*p, *c);
                let got = soa.distance(*p, i);
                if reference == 0.0 {
                    assert_eq!(got, 0.0);
                } else {
                    assert!(
                        ((got - reference) / reference).abs() < 1e-9,
                        "got={got} want={reference}"
                    );
                }
            }
        }
    }

    #[test]
    fn haversine_distance_is_in_fact_bit_identical() {
        // Hoisting to_radians/cos is exact, so the guarantee is stronger
        // than the 1e-9 contract: the bits match.
        let points = cloud(300, 23);
        let centroids = cloud(7, 29);
        let soa = CentroidsSoa::new(&centroids, DistanceMetric::Haversine);
        for p in &points {
            for (i, c) in centroids.iter().enumerate() {
                assert_eq!(soa.distance(*p, i).to_bits(), haversine_m(*p, *c).to_bits());
            }
        }
    }

    #[test]
    fn nearest_matches_scalar_argmin_for_all_metrics() {
        let points = cloud(1000, 3);
        let centroids = cloud(11, 77);
        for metric in ALL_METRICS {
            let soa = CentroidsSoa::new(&centroids, metric);
            for p in &points {
                assert_eq!(
                    soa.nearest(*p),
                    scalar_nearest(*p, &centroids, metric),
                    "{metric:?}"
                );
            }
        }
    }

    #[test]
    fn fused_assign_sum_matches_scalar_two_pass() {
        let points = cloud(2000, 5);
        let centroids = cloud(8, 13);
        for metric in ALL_METRICS {
            let soa = CentroidsSoa::new(&centroids, metric);
            // Scalar reference: assign, then sum in slice order.
            let mut want = vec![ClusterSum::default(); centroids.len()];
            for p in &points {
                let cid = scalar_nearest(*p, &centroids, metric) as usize;
                want[cid].lat_sum += p.lat;
                want[cid].lon_sum += p.lon;
                want[cid].count += 1;
            }
            let cols = PointsSoa::from_points(&points);
            let mut got = vec![ClusterSum::default(); centroids.len()];
            let evals = soa.assign_sum(&cols.lat, &cols.lon, &mut got);
            assert_eq!(evals, (points.len() * centroids.len()) as u64);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.count, w.count, "{metric:?}");
                assert_eq!(g.lat_sum.to_bits(), w.lat_sum.to_bits(), "{metric:?}");
                assert_eq!(g.lon_sum.to_bits(), w.lon_sum.to_bits(), "{metric:?}");
            }
            // The AoS variant runs the same kernel.
            let mut aos = vec![ClusterSum::default(); centroids.len()];
            soa.assign_sum_points(&points, &mut aos);
            assert_eq!(aos, got);
        }
    }

    #[test]
    fn chunked_merge_reproduces_whole_slice_sums() {
        let points = cloud(1000, 17);
        let centroids = cloud(5, 19);
        let soa = CentroidsSoa::new(&centroids, DistanceMetric::SquaredEuclidean);
        let cols = PointsSoa::from_points(&points);
        let mut whole = vec![ClusterSum::default(); centroids.len()];
        soa.assign_sum(&cols.lat, &cols.lon, &mut whole);

        let mut merged = vec![ClusterSum::default(); centroids.len()];
        for (lat_chunk, lon_chunk) in cols.lat.chunks(97).zip(cols.lon.chunks(97)) {
            let mut partial = vec![ClusterSum::default(); centroids.len()];
            soa.assign_sum(lat_chunk, lon_chunk, &mut partial);
            for (m, p) in merged.iter_mut().zip(&partial) {
                m.merge(p);
            }
        }
        // Same chunking as a scalar chunked fold ⇒ same bits.
        for (m, w) in merged.iter().zip(&whole) {
            assert_eq!(m.count, w.count);
            // Chunked addition reassociates ⇒ compare within fp tolerance.
            assert!((m.lat_sum - w.lat_sum).abs() < 1e-9);
            assert!((m.lon_sum - w.lon_sum).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_and_single_point_edge_cases() {
        let centroids = cloud(3, 1);
        let soa = CentroidsSoa::new(&centroids, DistanceMetric::Haversine);
        let mut sums = vec![ClusterSum::default(); 3];
        assert_eq!(soa.assign_sum(&[], &[], &mut sums), 0);
        assert!(sums.iter().all(|s| s.count == 0));
        let p = centroids[1];
        assert_eq!(soa.nearest(p), 1);
    }

    #[test]
    fn exact_tie_centroids_prefer_the_lower_index_in_lanes() {
        // Four centroids exactly equidistant from the probe (and a
        // duplicate pair), at k values that place the tie inside one
        // lane block, across the block boundary, and in the scalar tail.
        let probe = GeoPoint::new(40.0, 116.0);
        for metric in [
            DistanceMetric::Euclidean,
            DistanceMetric::SquaredEuclidean,
            DistanceMetric::Manhattan,
        ] {
            for k in 4..=9 {
                let ring = [
                    GeoPoint::new(40.5, 116.0),
                    GeoPoint::new(39.5, 116.0),
                    GeoPoint::new(40.0, 116.5),
                    GeoPoint::new(40.0, 115.5),
                ];
                let centroids: Vec<GeoPoint> = (0..k).map(|i| ring[i % ring.len()]).collect();
                let soa = CentroidsSoa::new(&centroids, metric);
                assert_eq!(soa.nearest(probe), 0, "{metric:?} k={k}");
                assert_eq!(
                    soa.nearest(probe),
                    soa.nearest_scalar(probe),
                    "{metric:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn pooled_assignment_matches_the_sequential_scan() {
        let points = cloud(40_000, 31);
        let centroids = cloud(7, 37);
        for metric in ALL_METRICS {
            let soa = CentroidsSoa::new(&centroids, metric);
            let sequential: Vec<u32> = points.iter().map(|&p| soa.nearest(p)).collect();
            assert_eq!(
                assign_points_pooled(&points, &soa),
                sequential,
                "{metric:?}"
            );
        }
    }
}

#[cfg(test)]
mod lane_props {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic point cloud, same generator as the unit tests.
    fn cloud(n: usize, seed: u64) -> Vec<GeoPoint> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| GeoPoint::new(39.0 + 2.0 * next(), 115.0 + 3.0 * next()))
            .collect()
    }

    const LANE_METRICS: [DistanceMetric; 3] = [
        DistanceMetric::Euclidean,
        DistanceMetric::SquaredEuclidean,
        DistanceMetric::Manhattan,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The lane kernels match the scalar references bit for bit for
        /// arbitrary clouds, every lane-remainder length (`n % LANES`
        /// and `k % LANES` both sweep 0..LANES), and adversarial
        /// near-tie centroid sets (`dup` duplicates centroid 0 at the
        /// highest index, forcing exact distance ties the strict-<
        /// first-win scan must resolve toward the lower index).
        #[test]
        fn laned_kernels_are_bit_identical_to_scalar(
            seed in any::<u64>(),
            blocks in 0usize..24,
            rem in 0usize..LANES,
            k in 1usize..18,
            dup in 0usize..2,
        ) {
            let n = blocks * LANES + rem;
            let points = cloud(n, seed);
            let mut centroids = cloud(k, seed ^ 0x5bd1_e995);
            if dup == 1 && k >= 2 {
                centroids[k - 1] = centroids[0];
            }
            for metric in LANE_METRICS {
                let soa = CentroidsSoa::new(&centroids, metric);
                for p in &points {
                    prop_assert_eq!(soa.nearest(*p), soa.nearest_scalar(*p));
                }
                let cols = PointsSoa::from_points(&points);
                let mut laned = vec![ClusterSum::default(); k];
                let mut scalar = vec![ClusterSum::default(); k];
                soa.assign_sum(&cols.lat, &cols.lon, &mut laned);
                soa.assign_sum_scalar(&cols.lat, &cols.lon, &mut scalar);
                for (l, s) in laned.iter().zip(&scalar) {
                    prop_assert_eq!(l.count, s.count);
                    prop_assert_eq!(l.lat_sum.to_bits(), s.lat_sum.to_bits());
                    prop_assert_eq!(l.lon_sum.to_bits(), s.lon_sum.to_bits());
                }
                // The AoS front-end gathers lanes on the fly but must
                // land on the same bits.
                let mut aos = vec![ClusterSum::default(); k];
                soa.assign_sum_points(&points, &mut aos);
                prop_assert_eq!(aos, laned);
            }
        }
    }
}
