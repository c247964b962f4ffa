//! Columnar (structure-of-arrays) clustering kernels.
//!
//! The k-means hot loop evaluates `n × k` point-to-centroid distances per
//! iteration. Doing that through [`DistanceMetric::between`] one pair at a
//! time recomputes `sin`/`cos`/`to_radians` for every pair and leaves the
//! vector units idle. This module keeps the same arithmetic — bit for
//! bit — but holds the centroids as `f64` columns ([`CentroidsSoa`], with
//! the Haversine trigonometry precomputed once), hoists the point-side
//! trigonometry out of the inner loop, and races a block of independent
//! points through the centroid scan side by side. Points are read where
//! they lie ([`PointSource`]: split columns, `&[GeoPoint]`, or the
//! `&[MobilityTrace]` of a DFS chunk). [`CentroidsSoa::assign_sum_points`]
//! fuses *assign + partial-sum* into that one pass, so callers need no
//! second pass over the assignments; [`assign_points_pooled`] runs the
//! same scan and keeps the labels instead.
//!
//! ## One lane core, as wide as the host
//!
//! Every entry point runs the same loop, `lanes`: take `L` points, scan
//! the centroids once with one strict-`<` argmin state per lane, hand the
//! `L` results to the caller in point order, and finish the `n % L`
//! remainder with the same block at `L = 1`. The block is plain
//! `[f64; L]` arrays in safe Rust; the compiler lowers it to whatever
//! vector registers the enclosing function may use. The planar metrics
//! (Euclidean, squared Euclidean, Manhattan) instantiate it three times:
//!
//! | [`CentroidsSoa::kernel`] | `L` | compiled under | selected when the CPU reports |
//! |---|---|---|---|
//! | `avx512f/16` | 16 | `#[target_feature(enable = "avx512f")]` | `avx512f` |
//! | `avx2/8` | 8 | `#[target_feature(enable = "avx2")]` | `avx2` |
//! | `baseline/4` | 4 | the build's baseline (SSE2 on x86-64) | neither, or any other architecture |
//!
//! [`CentroidsSoa::new`] picks the widest row the CPU supports, once,
//! from `is_x86_feature_detected!`. There is nothing to set — no flag,
//! environment variable, Cargo feature or `target-cpu`: a release build
//! targets baseline x86-64, so without the run-time choice it would never
//! touch a 256- or 512-bit register. Haversine is `scalar` (`L = 1`): its
//! per-pair `sin`/`cos`/`asin` calls cannot be laned without changing the
//! libm call sequence.
//!
//! ## Bit-identical by construction
//!
//! The width cannot change a bit of output. Lanes hold *independent*
//! points; each lane evaluates the exact expression of
//! [`DistanceMetric::between`] / [`crate::haversine_m`] in the same
//! operand order (`a` = point, `b` = centroid, matching every clustering
//! call site), and `target_feature` only widens the registers — it
//! licenses neither FMA contraction nor reassociation. Hoisting
//! `to_radians`/`cos` is exact: the same input bits go through the same
//! operations, just once instead of `k` (or `n`) times. Each lane's
//! argmin is the scalar strict-`<` first-minimum-wins scan, and results
//! leave a block lane 0 → `L - 1`, which is point order, so sums fold in
//! slice order. [`CentroidsSoa::assign_sum_scalar`] and
//! [`CentroidsSoa::nearest_scalar`] keep the scalar loops: the reference
//! the property tests hold every width the host supports to.

use crate::distance::{DistanceMetric, EARTH_RADIUS_M};
use gepeto_model::{GeoPoint, MobilityTrace};

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

/// Where the lane core reads its points: split coordinate columns
/// `(&lat, &lon)`, a `&[GeoPoint]`, or a `&[MobilityTrace]` read in place.
/// Every source yields the same bits, so which one a caller holds never
/// shows in the result (columns of unequal length end at the shorter).
pub trait PointSource: Copy {
    /// Latitudes and longitudes of the first `L` points and the source
    /// past them; `None` when fewer than `L` are left.
    fn take<const L: usize>(self) -> Option<([f64; L], [f64; L], Self)>;
}

impl PointSource for (&[f64], &[f64]) {
    #[inline(always)]
    fn take<const L: usize>(self) -> Option<([f64; L], [f64; L], Self)> {
        let (lat, lat_rest) = self.0.split_first_chunk::<L>()?;
        let (lon, lon_rest) = self.1.split_first_chunk::<L>()?;
        Some((*lat, *lon, (lat_rest, lon_rest)))
    }
}

impl PointSource for &[GeoPoint] {
    #[inline(always)]
    fn take<const L: usize>(self) -> Option<([f64; L], [f64; L], Self)> {
        let (block, rest) = self.split_first_chunk::<L>()?;
        Some((block.map(|p| p.lat), block.map(|p| p.lon), rest))
    }
}

impl PointSource for &[MobilityTrace] {
    #[inline(always)]
    fn take<const L: usize>(self) -> Option<([f64; L], [f64; L], Self)> {
        let (block, rest) = self.split_first_chunk::<L>()?;
        Some((block.map(|t| t.point.lat), block.map(|t| t.point.lon), rest))
    }
}

/// The lane core. For every point of `points`, in point order: `prep`
/// hoists the point-side work out of the centroid scan, `dist(lat, lon,
/// prepared, i)` is the distance to centroid `i < k`, and `sink(nearest,
/// lat, lon)` receives the strict-`<` first-minimum argmin. Whole blocks
/// of `L` points run side by side; the remainder runs at `L = 1`.
#[inline(always)]
fn lanes<const L: usize, P: PointSource, T: Copy>(
    k: usize,
    mut points: P,
    prep: impl Fn(f64, f64) -> T,
    dist: impl Fn(f64, f64, T, usize) -> f64,
    sink: &mut impl FnMut(usize, f64, f64),
) {
    while let Some((plat, plon, rest)) = points.take::<L>() {
        block(k, plat, plon, &prep, &dist, sink);
        points = rest;
    }
    while let Some((plat, plon, rest)) = points.take::<1>() {
        block(k, plat, plon, &prep, &dist, sink);
        points = rest;
    }
}

/// One block of [`lanes`]: `L` independent points, each lane running the
/// scalar expression in the scalar order with its own argmin state.
#[inline(always)]
fn block<const L: usize, T: Copy>(
    k: usize,
    plat: [f64; L],
    plon: [f64; L],
    prep: &impl Fn(f64, f64) -> T,
    dist: &impl Fn(f64, f64, T, usize) -> f64,
    sink: &mut impl FnMut(usize, f64, f64),
) {
    let pre: [T; L] = std::array::from_fn(|j| prep(plat[j], plon[j]));
    let mut best = [0usize; L];
    let mut best_d = [f64::INFINITY; L];
    for i in 0..k {
        for j in 0..L {
            let d = dist(plat[j], plon[j], pre[j], i);
            if d < best_d[j] {
                best_d[j] = d;
                best[j] = i;
            }
        }
    }
    for j in 0..L {
        sink(best[j], plat[j], plon[j]);
    }
}

/// The planar instantiations of the lane core, narrowest first.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// `L = 4` under the build's own target features.
    Baseline,
    /// `L = 8` under `avx2`.
    Avx2,
    /// `L = 16` under `avx512f`.
    Avx512,
}

impl Kernel {
    /// `<what it is compiled under>/<points per block>`.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Baseline => "baseline/4",
            Kernel::Avx2 => "avx2/8",
            Kernel::Avx512 => "avx512f/16",
        }
    }

    /// Whether this CPU can run the kernel.
    fn supported(self) -> bool {
        match self {
            Kernel::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// Every planar kernel this CPU can run, narrowest first — what the tests
/// and the `kernels` bench iterate to cover each width, not only the one
/// [`CentroidsSoa::new`] selects.
#[doc(hidden)]
pub fn kernels_available() -> impl Iterator<Item = Kernel> {
    [Kernel::Baseline, Kernel::Avx2, Kernel::Avx512]
        .into_iter()
        .filter(|kernel| kernel.supported())
}

/// Centroids in columnar layout with precomputed Haversine trigonometry.
///
/// Build once per iteration (k is small), then evaluate `nearest` /
/// `assign_sum` over millions of points without touching `sin`/`cos` for
/// the centroid side again.
#[derive(Debug, Clone)]
pub struct CentroidsSoa {
    metric: DistanceMetric,
    /// The planar kernel the scans run on: the widest this CPU supports,
    /// unless `with_kernel` narrowed it.
    kernel: Kernel,
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
    /// Splits `centroids` into columns, precomputes the trigonometry the
    /// chosen metric needs and selects the widest lane kernel the CPU
    /// supports (see the module docs).
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
            kernel: kernels_available().last().unwrap_or(Kernel::Baseline),
            lat,
            lon,
            lat_rad,
            lon_rad,
            cos_lat,
        }
    }

    /// The same centroids on `kernel` instead of the widest one; an
    /// unsupported kernel runs as the baseline.
    #[doc(hidden)]
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The kernel the scans run on: `"avx512f/16"`, `"avx2/8"` or
    /// `"baseline/4"` for the planar metrics, `"scalar"` for Haversine.
    pub fn kernel(&self) -> &'static str {
        match self.metric {
            DistanceMetric::Haversine => "scalar",
            _ => self.kernel.name(),
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
    /// `metric.between(p, c)`. One point fills no lanes, so this is the
    /// lane core at `L = 1`, inlined into the caller; scans over many
    /// points should hand the core the whole slice
    /// ([`assign_sum_points`](Self::assign_sum_points),
    /// [`assign_points_pooled`]).
    #[inline]
    pub fn nearest(&self, p: GeoPoint) -> u32 {
        debug_assert!(!self.is_empty());
        let mut nearest = 0;
        self.scan_lanes::<1, _>(std::slice::from_ref(&p), &mut |best, _, _| {
            nearest = best as u32
        });
        nearest
    }

    /// The scalar argmin — the reference the lane core must reproduce
    /// bit for bit (property-tested below).
    pub fn nearest_scalar(&self, p: GeoPoint) -> u32 {
        debug_assert!(!self.is_empty());
        let mut best = 0u32;
        let mut best_d = f64::INFINITY;
        for i in 0..self.len() {
            let d = self.distance(p, i);
            if d < best_d {
                best_d = d;
                best = i as u32;
            }
        }
        best
    }

    /// The fused assign + partial-sum kernel.
    ///
    /// For each point, finds the nearest centroid and accumulates the
    /// point into `sums[cid]` — one pass, no assignment buffer. `sums`
    /// must hold exactly `self.len()` entries; points are accumulated in
    /// source order, so chunked callers that merge partials in chunk
    /// order reproduce the scalar reduction bit for bit.
    ///
    /// Returns the number of distance evaluations performed
    /// (`points × centroids`).
    pub fn assign_sum_points<P: PointSource>(&self, points: P, sums: &mut [ClusterSum]) -> u64 {
        assert_eq!(sums.len(), self.len());
        let mut n = 0u64;
        self.scan(points, |best, lat, lon| {
            let s = &mut sums[best];
            s.lat_sum += lat;
            s.lon_sum += lon;
            s.count += 1;
            n += 1;
        });
        n * self.len() as u64
    }

    /// [`assign_sum_points`](Self::assign_sum_points) over split
    /// coordinate columns.
    pub fn assign_sum(&self, lat: &[f64], lon: &[f64], sums: &mut [ClusterSum]) -> u64 {
        assert_eq!(lat.len(), lon.len());
        self.assign_sum_points((lat, lon), sums)
    }

    /// The pre-lane scalar kernel, kept verbatim as the bit-exactness
    /// reference for [`assign_sum`](Self::assign_sum) (property-tested
    /// below, raced against the lane kernels in the `kernels` bench).
    pub fn assign_sum_scalar(&self, lat: &[f64], lon: &[f64], sums: &mut [ClusterSum]) -> u64 {
        assert_eq!(lat.len(), lon.len());
        assert_eq!(sums.len(), self.len());
        match self.metric {
            DistanceMetric::Haversine => {
                for (&plat, &plon) in lat.iter().zip(lon) {
                    let best = self.nearest_scalar(GeoPoint::new(plat, plon));
                    sums[best as usize].merge(&ClusterSum::of(GeoPoint::new(plat, plon)));
                }
            }
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

    /// Runs the lane core over `points` on the selected kernel: `sink`
    /// receives `(nearest centroid, lat, lon)` for every point, in point
    /// order.
    fn scan<P: PointSource>(&self, points: P, mut sink: impl FnMut(usize, f64, f64)) {
        #[cfg(target_arch = "x86_64")]
        if self.metric != DistanceMetric::Haversine {
            if self.kernel == Kernel::Avx512 && is_x86_feature_detected!("avx512f") {
                // SAFETY: `avx512f` was detected on this CPU one line up.
                return unsafe { self.scan_avx512(points, &mut sink) };
            }
            if self.kernel == Kernel::Avx2 && is_x86_feature_detected!("avx2") {
                // SAFETY: `avx2` was detected on this CPU one line up.
                return unsafe { self.scan_avx2(points, &mut sink) };
            }
        }
        self.scan_lanes::<4, P>(points, &mut sink)
    }

    /// [`scan_lanes`](Self::scan_lanes) at `L = 16`, compiled for 512-bit
    /// registers.
    ///
    /// # Safety
    /// The CPU must support `avx512f`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn scan_avx512<P: PointSource>(
        &self,
        points: P,
        sink: &mut impl FnMut(usize, f64, f64),
    ) {
        self.scan_lanes::<16, P>(points, sink)
    }

    /// [`scan_lanes`](Self::scan_lanes) at `L = 8`, compiled for 256-bit
    /// registers.
    ///
    /// # Safety
    /// The CPU must support `avx2`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn scan_avx2<P: PointSource>(&self, points: P, sink: &mut impl FnMut(usize, f64, f64)) {
        self.scan_lanes::<8, P>(points, sink)
    }

    /// The lane core under this metric's distance expression — the exact
    /// expressions of `DistanceMetric::between` with `a` = point, `b` =
    /// centroid. Always inlined, so the block is compiled under the
    /// caller's target features. Haversine runs at `L = 1` whatever the
    /// caller asks for.
    #[inline(always)]
    fn scan_lanes<const L: usize, P: PointSource>(
        &self,
        points: P,
        sink: &mut impl FnMut(usize, f64, f64),
    ) {
        let k = self.len();
        let (clat, clon) = (&self.lat[..k], &self.lon[..k]);
        let delta = |plat: f64, plon: f64, i: usize| (plat - clat[i], plon - clon[i]);
        let no_prep = |_: f64, _: f64| ();
        match self.metric {
            DistanceMetric::Euclidean => {
                let dist = |plat, plon, (), i| {
                    let (dlat, dlon) = delta(plat, plon, i);
                    (dlat * dlat + dlon * dlon).sqrt()
                };
                lanes::<L, P, ()>(k, points, no_prep, dist, sink)
            }
            DistanceMetric::SquaredEuclidean => {
                let dist = |plat, plon, (), i| {
                    let (dlat, dlon) = delta(plat, plon, i);
                    dlat * dlat + dlon * dlon
                };
                lanes::<L, P, ()>(k, points, no_prep, dist, sink)
            }
            DistanceMetric::Manhattan => {
                let dist = |plat, plon, (), i| {
                    let (dlat, dlon) = delta(plat, plon, i);
                    dlat.abs() + dlon.abs()
                };
                lanes::<L, P, ()>(k, points, no_prep, dist, sink)
            }
            DistanceMetric::Haversine => {
                let radians = |plat: f64, plon: f64| {
                    let lat1 = plat.to_radians();
                    (lat1, plon.to_radians(), lat1.cos())
                };
                let dist = |_, _, (lat1, lon1, cos1), i| self.haversine_to(lat1, lon1, cos1, i);
                lanes::<1, P, _>(k, points, radians, dist, sink)
            }
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
/// chunks out over the global work-stealing pool; each chunk is one scan
/// of the lane core.
///
/// Each chunk's labels land in their own slot and the slots are
/// concatenated in chunk order, so the output is identical to the
/// sequential `points.iter().map(|&p| soa.nearest(p))` scan at any
/// thread count.
pub fn assign_points_pooled(points: &[GeoPoint], soa: &CentroidsSoa) -> Vec<u32> {
    let chunks: Vec<&[GeoPoint]> = points.chunks(POOL_CHUNK).collect();
    let labeled: Vec<Vec<u32>> = gepeto_pool::global().map_indexed(chunks.len(), |c| {
        let mut labels = Vec::with_capacity(chunks[c].len());
        soa.scan(chunks[c], |best, _, _| labels.push(best as u32));
        labels
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
            // The AoS source runs the same kernel.
            let mut aos = vec![ClusterSum::default(); centroids.len()];
            soa.assign_sum_points(&points[..], &mut aos);
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
        // duplicate pair), scanned by every lane of every width the host
        // supports — whole blocks and the `L = 1` remainder alike.
        let probe = GeoPoint::new(40.0, 116.0);
        for kernel in kernels_available() {
            let probes = vec![probe; 3 * 16 + 1];
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
                    let soa = CentroidsSoa::new(&centroids, metric).with_kernel(kernel);
                    assert_eq!(soa.kernel(), kernel.name());
                    assert_eq!(soa.nearest_scalar(probe), 0, "{metric:?} k={k}");
                    assert_eq!(soa.nearest(probe), 0, "{kernel:?} {metric:?} k={k}");
                    assert_eq!(
                        assign_points_pooled(&probes, &soa),
                        vec![0; probes.len()],
                        "{kernel:?} {metric:?} k={k}"
                    );
                }
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
    use gepeto_model::Timestamp;
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

    /// Coordinates no real trace holds but the argmin must still treat
    /// like the scalar loop does: signed zeros (exact ties against a
    /// zero centroid), infinities (every distance ∞, nothing is `<`) and
    /// NaN (every comparison false).
    const ODD: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];

    /// `to_bits` view of the sums: NaN sums must match too.
    fn bits(sums: &[ClusterSum]) -> Vec<(u64, u64, u64)> {
        sums.iter()
            .map(|s| (s.lat_sum.to_bits(), s.lon_sum.to_bits(), s.count))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every lane kernel the host supports matches the scalar
        /// references bit for bit: arbitrary clouds, every length from
        /// empty to three blocks and a remainder, `k` below, at and
        /// above a block, adversarial exact ties (`dup` duplicates
        /// centroid 0 at the highest index; a ±0.0 centroid pair ties on
        /// the ±0.0 points), non-finite coordinates, and all three point
        /// sources.
        #[test]
        fn laned_kernels_are_bit_identical_to_scalar(
            seed in any::<u64>(),
            dup in 0usize..2,
            odd_every in 2usize..9,
        ) {
            let mut ran = Vec::new();
            for kernel in kernels_available() {
                ran.push(kernel.name());
                for k in [1usize, 3, 11, 17] {
                    let mut centroids = cloud(k, seed ^ 0x5bd1_e995);
                    if k >= 3 {
                        centroids[1] = GeoPoint::new(0.0, -0.0);
                        centroids[2] = GeoPoint::new(-0.0, 0.0);
                    }
                    if dup == 1 && k >= 2 {
                        centroids[k - 1] = centroids[0];
                    }
                    for n in 0..=3 * 16 + 1 {
                        let mut points = cloud(n, seed.wrapping_add(n as u64));
                        for (i, p) in points.iter_mut().enumerate().filter(|(i, _)| i % odd_every == 0) {
                            *p = GeoPoint::new(ODD[i % ODD.len()], ODD[(i / odd_every) % ODD.len()]);
                        }
                        let cols = PointsSoa::from_points(&points);
                        let traces: Vec<MobilityTrace> = points
                            .iter()
                            .map(|&p| MobilityTrace::new(7, p, Timestamp(0)))
                            .collect();
                        for metric in LANE_METRICS {
                            let soa = CentroidsSoa::new(&centroids, metric).with_kernel(kernel);
                            prop_assert_eq!(soa.kernel(), kernel.name());
                            let labels: Vec<u32> =
                                points.iter().map(|&p| soa.nearest_scalar(p)).collect();
                            for (p, want) in points.iter().zip(&labels) {
                                prop_assert_eq!(soa.nearest(*p), *want);
                            }
                            prop_assert_eq!(assign_points_pooled(&points, &soa), labels);
                            let mut scalar = vec![ClusterSum::default(); k];
                            soa.assign_sum_scalar(&cols.lat, &cols.lon, &mut scalar);
                            let mut from_cols = vec![ClusterSum::default(); k];
                            let mut from_points = vec![ClusterSum::default(); k];
                            let mut from_traces = vec![ClusterSum::default(); k];
                            soa.assign_sum(&cols.lat, &cols.lon, &mut from_cols);
                            soa.assign_sum_points(&points[..], &mut from_points);
                            soa.assign_sum_points(&traces[..], &mut from_traces);
                            prop_assert_eq!(bits(&from_cols), bits(&scalar));
                            prop_assert_eq!(bits(&from_points), bits(&scalar));
                            prop_assert_eq!(bits(&from_traces), bits(&scalar));
                        }
                    }
                }
            }
            // Not vacuous: a host that reports a feature must have run
            // that width, and `new` must have picked the widest one.
            #[cfg(target_arch = "x86_64")]
            {
                prop_assert_eq!(ran.contains(&"avx2/8"), is_x86_feature_detected!("avx2"));
                prop_assert_eq!(ran.contains(&"avx512f/16"), is_x86_feature_detected!("avx512f"));
            }
            prop_assert_eq!(ran[0], "baseline/4");
            let selected = CentroidsSoa::new(&[], DistanceMetric::Euclidean).kernel();
            prop_assert_eq!(Some(&selected), ran.last());
        }
    }
}
