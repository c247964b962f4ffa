//! Space-filling curves (§VII-C of the paper).
//!
//! The MapReduce R-tree construction needs a *partitioning function* that
//! "maps multidimensional datapoints into an ordered sequence of
//! unidimensional values" while preserving data locality. The paper
//! implements and tests two curves, **Z-order** (Morton) and **Hilbert**;
//! both are provided here over a `2^order × 2^order` grid.
//!
//! Geographic points are first discretized onto the grid with a
//! [`GridMapper`] anchored at a dataset bounding rectangle.

use crate::Rect;
use gepeto_model::GeoPoint;
use serde::{Deserialize, Serialize};

/// Maximum supported curve order: 31 keeps `x`, `y` in `u32` and the scalar
/// index in `u64` without overflow.
pub const MAX_ORDER: u32 = 31;

/// Which curve to use as the R-tree partitioning function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpaceFillingCurve {
    /// Bit-interleaving Morton curve.
    ZOrder,
    /// Hilbert curve — better locality preservation, costlier to evaluate.
    Hilbert,
}

impl SpaceFillingCurve {
    /// Scalar index of grid cell `(x, y)` on a curve of the given `order`.
    ///
    /// # Panics
    /// If `order > MAX_ORDER` or a coordinate does not fit in the grid.
    pub fn index(self, x: u32, y: u32, order: u32) -> u64 {
        assert!(order <= MAX_ORDER, "curve order {order} too large");
        assert!(
            (order == 32) || (x < (1 << order) && y < (1 << order)),
            "coordinate ({x},{y}) outside 2^{order} grid"
        );
        match self {
            SpaceFillingCurve::ZOrder => morton_encode(x, y),
            SpaceFillingCurve::Hilbert => hilbert_xy_to_d(order, x, y),
        }
    }

    /// Inverse of [`Self::index`]: the grid cell of scalar `d`.
    pub fn point(self, d: u64, order: u32) -> (u32, u32) {
        assert!(order <= MAX_ORDER);
        match self {
            SpaceFillingCurve::ZOrder => morton_decode(d),
            SpaceFillingCurve::Hilbert => hilbert_d_to_xy(order, d),
        }
    }

    /// Parses the CLI spelling of a curve name.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "z" | "zorder" | "z-order" | "morton" => Some(Self::ZOrder),
            "hilbert" => Some(Self::Hilbert),
            _ => None,
        }
    }

    /// Canonical display name.
    pub fn name(self) -> &'static str {
        match self {
            SpaceFillingCurve::ZOrder => "Z-order",
            SpaceFillingCurve::Hilbert => "Hilbert",
        }
    }
}

/// Spreads the low 32 bits of `v` so one zero bit separates each data bit.
fn spread_bits(v: u32) -> u64 {
    let mut v = u64::from(v);
    v = (v | (v << 16)) & 0x0000_FFFF_0000_FFFF;
    v = (v | (v << 8)) & 0x00FF_00FF_00FF_00FF;
    v = (v | (v << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    v = (v | (v << 2)) & 0x3333_3333_3333_3333;
    v = (v | (v << 1)) & 0x5555_5555_5555_5555;
    v
}

/// Inverse of [`spread_bits`].
fn collapse_bits(mut v: u64) -> u32 {
    v &= 0x5555_5555_5555_5555;
    v = (v | (v >> 1)) & 0x3333_3333_3333_3333;
    v = (v | (v >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    v = (v | (v >> 4)) & 0x00FF_00FF_00FF_00FF;
    v = (v | (v >> 8)) & 0x0000_FFFF_0000_FFFF;
    v = (v | (v >> 16)) & 0x0000_0000_FFFF_FFFF;
    v as u32
}

/// Z-order (Morton) index: interleaves the bits of `x` (even positions)
/// and `y` (odd positions).
pub fn morton_encode(x: u32, y: u32) -> u64 {
    spread_bits(x) | (spread_bits(y) << 1)
}

/// Inverse of [`morton_encode`].
pub fn morton_decode(d: u64) -> (u32, u32) {
    (collapse_bits(d), collapse_bits(d >> 1))
}

/// Hilbert curve distance of cell `(x, y)` on a `2^order` grid: the
/// per-bit descent of [`hilbert_xy_to_d_bitwise`], taken a nibble of `x`
/// and `y` at a time through a 1 024-entry table.
///
/// The descent's state is the transform the quadrants so far applied to
/// the remaining bits: swap the coordinates or not, complement both or
/// not. An order that is not a multiple of 4 is padded with leading zero
/// bits; each zero level swaps and adds nothing, so an odd padding starts
/// the walk swapped and leaves it unswapped when the real bits begin.
pub fn hilbert_xy_to_d(order: u32, x: u32, y: u32) -> u64 {
    let steps = order.div_ceil(4);
    let mut state = (steps * 4 - order) & 1;
    let mut d = 0u64;
    for step in (0..steps).rev() {
        let (xn, yn) = ((x >> (4 * step)) & 15, (y >> (4 * step)) & 15);
        let entry = HILBERT_NIBBLES[(state << 8 | xn << 4 | yn) as usize];
        d = d << 8 | u64::from(entry >> 2);
        state = u32::from(entry & 3);
    }
    d
}

/// One Hilbert descent over 4 bit levels, per entry state (bit 0: swap,
/// bit 1: complement) and 4-bit `x` and `y` nibbles, indexed
/// `state << 8 | x << 4 | y`: the 8 bits of curve distance the levels add,
/// shifted left by 2, or'ed with the state they leave.
const HILBERT_NIBBLES: [u16; 1024] = {
    let mut table = [0u16; 1024];
    let mut i = 0;
    while i < 1024 {
        let mut state = i >> 8;
        let mut d = 0;
        let mut level = 4;
        while level > 0 {
            level -= 1;
            let (mut rx, mut ry) = ((i >> (4 + level)) & 1, (i >> level) & 1);
            if state & 1 == 1 {
                (rx, ry) = (ry, rx);
            }
            if state & 2 == 2 {
                (rx, ry) = (rx ^ 1, ry ^ 1);
            }
            d = d << 2 | ((3 * rx) ^ ry);
            if ry == 0 {
                state ^= 1 | (rx << 1);
            }
        }
        table[i] = (d << 2 | state) as u16;
        i += 1;
    }
    table
};

/// The per-bit Hilbert descent (iterative algorithm, Lawder & King /
/// Wikipedia formulation): the reference [`hilbert_xy_to_d`] is tested
/// against, and its speed baseline.
#[doc(hidden)]
pub fn hilbert_xy_to_d_bitwise(order: u32, mut x: u32, mut y: u32) -> u64 {
    let n: u64 = 1u64 << order; // grid side
    let mut d: u64 = 0;
    let mut s: u64 = n / 2;
    while s > 0 {
        let rx = u64::from((u64::from(x) & s) > 0);
        let ry = u64::from((u64::from(y) & s) > 0);
        d += s * s * ((3 * rx) ^ ry);
        // Rotate the quadrant (reflection within the full grid).
        if ry == 0 {
            if rx == 1 {
                x = (n - 1 - u64::from(x)) as u32;
                y = (n - 1 - u64::from(y)) as u32;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

/// Inverse of [`hilbert_xy_to_d`].
pub fn hilbert_d_to_xy(order: u32, d: u64) -> (u32, u32) {
    let (mut x, mut y): (u32, u32) = (0, 0);
    let mut t = d;
    let mut s: u64 = 1;
    while s < (1u64 << order) {
        let rx = 1 & (t / 2);
        let ry = 1 & (t ^ rx);
        // Rotate back.
        if ry == 0 {
            if rx == 1 {
                x = (s as u32).wrapping_sub(1).wrapping_sub(x);
                y = (s as u32).wrapping_sub(1).wrapping_sub(y);
            }
            std::mem::swap(&mut x, &mut y);
        }
        x += (s as u32) * (rx as u32);
        y += (s as u32) * (ry as u32);
        t /= 4;
        s *= 2;
    }
    (x, y)
}

/// Discretizes geographic points onto the `2^order` grid covering `bounds`,
/// so they can be fed to a [`SpaceFillingCurve`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GridMapper {
    bounds: Rect,
    order: u32,
}

impl GridMapper {
    /// A mapper for points inside `bounds`. Degenerate bounds (a single
    /// point) are handled by clamping.
    ///
    /// # Panics
    /// If `bounds` is empty or `order > MAX_ORDER`.
    pub fn new(bounds: Rect, order: u32) -> Self {
        assert!(!bounds.is_empty(), "grid bounds must be non-empty");
        assert!(order <= MAX_ORDER);
        Self { bounds, order }
    }

    /// Curve order of the grid.
    pub fn order(&self) -> u32 {
        self.order
    }

    /// Bounding rectangle of the grid.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Grid cell of `p`; points outside the bounds are clamped to the
    /// border cells (robustness for stragglers outside the sampled MBR).
    pub fn cell(&self, p: GeoPoint) -> (u32, u32) {
        let side = (1u64 << self.order) as f64;
        let span_lat = (self.bounds.max_lat - self.bounds.min_lat).max(f64::MIN_POSITIVE);
        let span_lon = (self.bounds.max_lon - self.bounds.min_lon).max(f64::MIN_POSITIVE);
        let fx = ((p.lon - self.bounds.min_lon) / span_lon * side).floor();
        let fy = ((p.lat - self.bounds.min_lat) / span_lat * side).floor();
        let max = side - 1.0;
        (fx.clamp(0.0, max) as u32, fy.clamp(0.0, max) as u32)
    }

    /// Scalar curve index of `p` under `curve`.
    pub fn scalar(&self, curve: SpaceFillingCurve, p: GeoPoint) -> u64 {
        let (x, y) = self.cell(p);
        curve.index(x, y, self.order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morton_known_values() {
        assert_eq!(morton_encode(0, 0), 0);
        assert_eq!(morton_encode(1, 0), 1);
        assert_eq!(morton_encode(0, 1), 2);
        assert_eq!(morton_encode(1, 1), 3);
        assert_eq!(morton_encode(2, 0), 4);
        assert_eq!(morton_encode(u32::MAX, u32::MAX), u64::MAX);
    }

    #[test]
    fn morton_round_trip() {
        for &(x, y) in &[(0, 0), (1, 2), (123, 456), (65_535, 65_535), (1 << 30, 7)] {
            assert_eq!(morton_decode(morton_encode(x, y)), (x, y));
        }
    }

    #[test]
    fn hilbert_order1_is_the_u_shape() {
        // Order-1 Hilbert curve visits (0,0), (0,1), (1,1), (1,0).
        assert_eq!(hilbert_xy_to_d(1, 0, 0), 0);
        assert_eq!(hilbert_xy_to_d(1, 0, 1), 1);
        assert_eq!(hilbert_xy_to_d(1, 1, 1), 2);
        assert_eq!(hilbert_xy_to_d(1, 1, 0), 3);
    }

    #[test]
    fn hilbert_table_walk_equals_the_bitwise_descent_exhaustively() {
        for order in 0..=8u32 {
            let side = 1u32 << order;
            for x in 0..side {
                for y in 0..side {
                    assert_eq!(
                        hilbert_xy_to_d(order, x, y),
                        hilbert_xy_to_d_bitwise(order, x, y),
                        "order={order} x={x} y={y}"
                    );
                }
            }
        }
    }

    #[test]
    fn hilbert_round_trip_small_orders() {
        for order in 1..=6u32 {
            let side = 1u32 << order;
            for x in 0..side {
                for y in 0..side {
                    let d = hilbert_xy_to_d(order, x, y);
                    assert_eq!(hilbert_d_to_xy(order, d), (x, y), "order={order}");
                }
            }
        }
    }

    #[test]
    fn hilbert_is_a_bijection_onto_the_square() {
        let order = 4;
        let side = 1u64 << order;
        let mut seen = vec![false; (side * side) as usize];
        for x in 0..side as u32 {
            for y in 0..side as u32 {
                let d = hilbert_xy_to_d(order, x, y) as usize;
                assert!(!seen[d], "duplicate index {d}");
                seen[d] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn hilbert_consecutive_cells_are_adjacent() {
        // The defining locality property: consecutive curve positions are
        // 4-neighbors on the grid. (Z-order does NOT satisfy this.)
        let order = 5;
        let side = 1u64 << order;
        for d in 0..side * side - 1 {
            let (x1, y1) = hilbert_d_to_xy(order, d);
            let (x2, y2) = hilbert_d_to_xy(order, d + 1);
            let dist = x1.abs_diff(x2) + y1.abs_diff(y2);
            assert_eq!(dist, 1, "d={d}");
        }
    }

    #[test]
    fn grid_mapper_corners_and_clamping() {
        let bounds = Rect::new(0.0, 0.0, 10.0, 10.0);
        let g = GridMapper::new(bounds, 4); // 16x16
        assert_eq!(g.cell(GeoPoint::new(0.0, 0.0)), (0, 0));
        assert_eq!(g.cell(GeoPoint::new(10.0, 10.0)), (15, 15)); // clamped max edge
        assert_eq!(g.cell(GeoPoint::new(-5.0, 20.0)), (15, 0)); // outside -> clamp
                                                                // center lands mid-grid
        let (x, y) = g.cell(GeoPoint::new(5.0, 5.0));
        assert_eq!((x, y), (8, 8));
    }

    #[test]
    fn grid_mapper_scalar_monotone_under_zorder_quadrants() {
        let bounds = Rect::new(0.0, 0.0, 1.0, 1.0);
        let g = GridMapper::new(bounds, 8);
        // Points in the lower-left quadrant have smaller Z-index than the
        // upper-right quadrant.
        let lo = g.scalar(SpaceFillingCurve::ZOrder, GeoPoint::new(0.1, 0.1));
        let hi = g.scalar(SpaceFillingCurve::ZOrder, GeoPoint::new(0.9, 0.9));
        assert!(lo < hi);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn grid_mapper_rejects_empty_bounds() {
        let _ = GridMapper::new(Rect::empty(), 4);
    }

    #[test]
    fn curve_parse_and_name() {
        assert_eq!(
            SpaceFillingCurve::parse("morton"),
            Some(SpaceFillingCurve::ZOrder)
        );
        assert_eq!(
            SpaceFillingCurve::parse("Hilbert"),
            Some(SpaceFillingCurve::Hilbert)
        );
        assert_eq!(SpaceFillingCurve::parse("peano"), None);
        assert_eq!(SpaceFillingCurve::ZOrder.name(), "Z-order");
    }
}
