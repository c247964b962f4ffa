//! Property-based tests for the geometric substrate: curve bijectivity,
//! metric axioms, and R-tree query equivalence against brute force.

use gepeto_geo::distance::equirectangular_m;
use gepeto_geo::rtree::{radius_bounding_rect, Entry, Hit};
use gepeto_geo::sfc::{
    hilbert_d_to_xy, hilbert_xy_to_d, hilbert_xy_to_d_bitwise, morton_decode, morton_encode,
    GridMapper,
};
use gepeto_geo::{haversine_m, DistanceMetric, RTree, Rect, SpaceFillingCurve};
use gepeto_model::GeoPoint;
use proptest::prelude::*;

fn small_point() -> impl Strategy<Value = GeoPoint> {
    // A city-sized box (Beijing-ish), the regime GeoLife lives in.
    (39.0f64..41.0, 115.0f64..117.0).prop_map(|(lat, lon)| GeoPoint::new(lat, lon))
}

fn any_point() -> impl Strategy<Value = GeoPoint> {
    (-85.0f64..85.0, -179.0f64..179.0).prop_map(|(lat, lon)| GeoPoint::new(lat, lon))
}

/// The point `d` metres from `center` on bearing `deg`, longitude
/// normalised into [−180, 180).
fn destination(center: GeoPoint, d: f64, deg: f64) -> GeoPoint {
    let (lat1, lon1) = (center.lat.to_radians(), center.lon.to_radians());
    let (delta, theta) = (d / gepeto_geo::EARTH_RADIUS_M, deg.to_radians());
    let lat2 = (lat1.sin() * delta.cos() + lat1.cos() * delta.sin() * theta.cos()).asin();
    let lon2 = lon1
        + (theta.sin() * delta.sin() * lat1.cos()).atan2(delta.cos() - lat1.sin() * lat2.sin());
    GeoPoint::new(
        lat2.to_degrees().clamp(-90.0, 90.0),
        wrap_lon(lon2.to_degrees()),
    )
}

fn wrap_lon(lon: f64) -> f64 {
    (lon + 540.0).rem_euclid(360.0) - 180.0
}

/// `radius_bounding_rect` as the radius queries read it: the rect, or
/// the rect moved by ∓360° when it leaves [−180, 180].
fn in_window(rect: &Rect, p: GeoPoint) -> bool {
    let shift = if rect.max_lon > 180.0 {
        -360.0
    } else if rect.min_lon < -180.0 {
        360.0
    } else {
        return rect.contains_point(p);
    };
    let moved = Rect {
        min_lon: rect.min_lon + shift,
        max_lon: rect.max_lon + shift,
        ..*rect
    };
    rect.contains_point(p) || moved.contains_point(p)
}

fn indexed(pts: &[GeoPoint]) -> Vec<(GeoPoint, usize)> {
    pts.iter()
        .copied()
        .enumerate()
        .map(|(i, p)| (p, i))
        .collect()
}

/// One cursor query: the payloads with blocks flattened, and the blocks
/// as `(slot, first entry's address, length)`.
type Block = (usize, *const Entry<usize>, usize);
fn cursor_query(
    cursor: &mut gepeto_geo::rtree::RadiusCursor<'_, usize>,
    center: GeoPoint,
) -> (Vec<usize>, Vec<Block>, bool) {
    let (mut flat, mut blocks) = (Vec::new(), Vec::new());
    let reanchored = cursor.for_each(center, |hit| {
        flat.extend(hit.entries().iter().map(|e| e.payload));
        if let Hit::Leaf { slot, entries } = hit {
            blocks.push((slot, entries.as_ptr(), entries.len()));
        }
    });
    (flat, blocks, reanchored)
}

fn plain_query(tree: &RTree<usize>, center: GeoPoint, radius: f64) -> Vec<usize> {
    let mut seq = Vec::new();
    tree.for_each_within_radius_m(center, radius, |e| seq.push(e.payload));
    seq
}

proptest! {
    #[test]
    fn morton_round_trips(x in any::<u32>(), y in any::<u32>()) {
        prop_assert_eq!(morton_decode(morton_encode(x, y)), (x, y));
    }

    #[test]
    fn hilbert_round_trips(order in 1u32..=16, xy in any::<(u32, u32)>()) {
        let mask = (1u32 << order) - 1;
        let (x, y) = (xy.0 & mask, xy.1 & mask);
        let d = hilbert_xy_to_d(order, x, y);
        prop_assert!(d < 1u64 << (2 * order));
        prop_assert_eq!(hilbert_d_to_xy(order, d), (x, y));
    }

    #[test]
    fn hilbert_table_walk_equals_the_bitwise_descent(
        widest in any::<bool>(),
        xy in any::<(u32, u32)>(),
    ) {
        let order = if widest { 31 } else { 16 };
        let mask = (1u32 << order) - 1;
        let (x, y) = (xy.0 & mask, xy.1 & mask);
        prop_assert_eq!(hilbert_xy_to_d(order, x, y), hilbert_xy_to_d_bitwise(order, x, y));
    }

    #[test]
    fn hilbert_neighbors_on_curve_are_grid_neighbors(order in 2u32..=8, seed in any::<u64>()) {
        let cells = 1u64 << (2 * order);
        let d = seed % (cells - 1);
        let (x1, y1) = hilbert_d_to_xy(order, d);
        let (x2, y2) = hilbert_d_to_xy(order, d + 1);
        prop_assert_eq!(x1.abs_diff(x2) + y1.abs_diff(y2), 1);
    }

    #[test]
    fn haversine_metric_axioms(a in any_point(), b in any_point()) {
        let ab = haversine_m(a, b);
        let ba = haversine_m(b, a);
        prop_assert!(ab >= 0.0);
        prop_assert!((ab - ba).abs() < 1e-6);
        prop_assert!(haversine_m(a, a) < 1e-9);
    }

    #[test]
    fn haversine_triangle_inequality(a in any_point(), b in any_point(), c in any_point()) {
        let slack = 1e-6; // float tolerance
        prop_assert!(haversine_m(a, c) <= haversine_m(a, b) + haversine_m(b, c) + slack);
    }

    #[test]
    fn squared_euclidean_orders_like_euclidean(
        a in any_point(), b in any_point(), c in any_point()
    ) {
        let e = DistanceMetric::Euclidean;
        let s = DistanceMetric::SquaredEuclidean;
        let cmp_e = e.between(a, b).partial_cmp(&e.between(a, c)).unwrap();
        let cmp_s = s.between(a, b).partial_cmp(&s.between(a, c)).unwrap();
        prop_assert_eq!(cmp_e, cmp_s);
    }

    #[test]
    fn equirectangular_close_to_haversine_within_city(a in small_point(), b in small_point()) {
        let h = haversine_m(a, b);
        let e = equirectangular_m(a, b);
        // Within a 2-degree box the approximation stays within 1%.
        prop_assert!((h - e).abs() <= h * 0.01 + 0.5, "h={} e={}", h, e);
    }

    #[test]
    fn grid_mapper_scalar_in_range(
        p in small_point(),
        order in 1u32..=20,
        hilbert in any::<bool>()
    ) {
        let g = GridMapper::new(Rect::new(39.0, 115.0, 41.0, 117.0), order);
        let curve = if hilbert { SpaceFillingCurve::Hilbert } else { SpaceFillingCurve::ZOrder };
        let s = g.scalar(curve, p);
        prop_assert!(s < 1u64 << (2 * order));
    }

    #[test]
    fn rtree_rect_query_equals_brute_force(
        pts in prop::collection::vec(small_point(), 1..200),
        q in (39.0f64..41.0, 115.0f64..117.0, 0.0f64..0.5, 0.0f64..0.5),
        bulk in any::<bool>(),
    ) {
        let items: Vec<(GeoPoint, usize)> =
            pts.iter().copied().enumerate().map(|(i, p)| (p, i)).collect();
        let tree = if bulk {
            RTree::bulk_load_with_max_entries(items, 5)
        } else {
            let mut t = RTree::with_max_entries(5);
            for (p, i) in items { t.insert(p, i); }
            t
        };
        prop_assert!(tree.check_invariants().is_none(), "{:?}", tree.check_invariants());
        let rect = Rect::new(q.0, q.1, (q.0 + q.2).min(41.0), (q.1 + q.3).min(117.0));
        let mut got: Vec<usize> = tree.query_rect(&rect).iter().map(|e| e.payload).collect();
        got.sort_unstable();
        let mut want: Vec<usize> = pts.iter().enumerate()
            .filter(|(_, p)| rect.contains_point(**p))
            .map(|(i, _)| i).collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn rtree_radius_query_equals_brute_force(
        pts in prop::collection::vec(small_point(), 1..200),
        center in small_point(),
        radius in 10.0f64..20_000.0,
    ) {
        let items: Vec<(GeoPoint, usize)> =
            pts.iter().copied().enumerate().map(|(i, p)| (p, i)).collect();
        let tree = RTree::bulk_load_with_max_entries(items, 8);
        let mut got: Vec<usize> =
            tree.within_radius_m(center, radius).iter().map(|e| e.payload).collect();
        got.sort_unstable();
        let mut want: Vec<usize> = pts.iter().enumerate()
            .filter(|(_, p)| haversine_m(center, **p) <= radius)
            .map(|(i, _)| i).collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// The radius query returns what the naive scan returns —
    /// `haversine_m(..) <= r` over the bounding rect's window — down to
    /// the last candidate: planted on the disc's edge (`r·(1 ± δ)`, δ
    /// from 1e-12, i.e. below what the coordinates can resolve, to 1e-6)
    /// in every direction, on the centre itself, around both poles and
    /// across the antimeridian, for a zero, a DJ-Cluster and a
    /// continental radius.
    #[test]
    fn radius_query_equals_the_naive_haversine_scan(
        region in 0usize..4,
        lat_unit in 0.0f64..1.0,
        lon_unit in 0.0f64..1.0,
        planted in prop::collection::vec((0.0f64..360.0, -7i32..=7, 0usize..3), 1..120),
        strays in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 0..40),
    ) {
        let center = match region {
            0 => GeoPoint::new(-85.0 + 170.0 * lat_unit, -179.0 + 358.0 * lon_unit),
            1 => GeoPoint::new(90.0 - 1e-3 * lat_unit * lat_unit, -180.0 + 360.0 * lon_unit),
            2 => GeoPoint::new(-90.0 + 1e-3 * lat_unit * lat_unit, -180.0 + 360.0 * lon_unit),
            _ => GeoPoint::new(-60.0 + 120.0 * lat_unit, if lon_unit < 0.5 { 180.0 } else { -180.0 } * (1.0 - 1e-5 * lon_unit)),
        };
        const RADII: [f64; 3] = [0.0, 60.0, 5.0e6];
        let mut pts = vec![center, center];
        for &(bearing, exp, which) in &planted {
            // exp = 0 plants exactly on the edge, ±k at r·(1 ± 10^-(13-k)).
            let delta = match exp {
                0 => 0.0,
                k => f64::from(k.signum()) * 10f64.powi(k.abs() - 13),
            };
            pts.push(destination(center, RADII[which] * (1.0 + delta), bearing));
        }
        for &(dlat, dlon) in &strays {
            pts.push(GeoPoint::new(
                (center.lat + dlat * 2e-3).clamp(-90.0, 90.0),
                wrap_lon(center.lon + dlon * 2e-3),
            ));
        }
        let tree = RTree::bulk_load_with_max_entries(indexed(&pts), 6);
        for radius in RADII {
            let mut got: Vec<usize> =
                tree.within_radius_m(center, radius).iter().map(|e| e.payload).collect();
            got.sort_unstable();
            // At DJ-Cluster's radius between the polar circles the rect
            // holds the whole disc, so across the antimeridian the oracle
            // is the distance and nothing else. Everywhere else the rect
            // stays in it: the small-circle widening clips a 5 000 km disc
            // and one reaching a pole, and what it clips the query — by
            // its contract — does not return.
            let rect = radius_bounding_rect(center, radius);
            let rect_free = region == 3 && radius == 60.0;
            let want: Vec<usize> = pts.iter().enumerate()
                .filter(|(_, p)| (rect_free || in_window(&rect, **p)) && haversine_m(center, **p) <= radius)
                .map(|(i, _)| i).collect();
            prop_assert_eq!(&got, &want, "center {:?} radius {}", center, radius);
            let mut visited = plain_query(&tree, center, radius);
            visited.sort_unstable();
            prop_assert_eq!(visited, want);
            // The centre's own two copies are always in.
            prop_assert!(got.starts_with(&[0, 1]));
        }
    }

    /// Whole-leaf acceptance is decided at the MBR's far corner, on the
    /// edge: one leaf spanning the centre and a corner planted at
    /// `r·(1 ± δ)`, an entry sitting on that corner. Cursor, plain query
    /// and naive scan agree whichever way the corner falls, the leaf
    /// comes as a block when the corner is well inside and never when it
    /// is on or beyond the edge. (Loosen the corner's bracket by 1e-6 and
    /// the δ = +1e-7 corners due north and south are swallowed: this
    /// test fails.)
    #[test]
    fn whole_leaf_acceptance_is_decided_at_the_corner(
        center in any_point(),
        bearing in 0.0f64..360.0,
        fractions in prop::collection::vec(0.0f64..1.0, 0..12),
    ) {
        let r = 60.0;
        for bearing in [0.0, 90.0, 180.0, 270.0, bearing] {
            for exp in -8i32..=7 {
                let scale = match exp {
                    -8 => 0.9,
                    0 => 1.0,
                    k => 1.0 + f64::from(k.signum()) * 10f64.powi(k.abs() - 13),
                };
                let corner = destination(center, r * scale, bearing);
                if (corner.lon - center.lon).abs() > 180.0 {
                    continue; // not one leaf's MBR across ±180°
                }
                let mut pts = vec![center, corner];
                pts.extend(fractions.iter().map(|f| GeoPoint::new(
                    center.lat + f * (corner.lat - center.lat),
                    center.lon + f * f * (corner.lon - center.lon),
                )));
                let tree = RTree::bulk_load_with_max_entries(indexed(&pts), 16);
                prop_assert_eq!(tree.height(), 1);
                let mut cursor = tree.radius_cursor(r);
                let (flat, blocks, _) = cursor_query(&mut cursor, center);
                prop_assert_eq!(&flat, &plain_query(&tree, center, r));
                let mut got = flat;
                got.sort_unstable();
                let want: Vec<usize> = (0..pts.len())
                    .filter(|&i| haversine_m(center, pts[i]) <= r)
                    .collect();
                prop_assert_eq!(&got, &want, "bearing {} exp {}", bearing, exp);
                if exp == -8 {
                    prop_assert_eq!(blocks.len(), 1, "bearing {}", bearing);
                    prop_assert_eq!(cursor.stats().block_hits, pts.len() as u64);
                } else if exp >= 0 {
                    prop_assert!(blocks.is_empty(), "bearing {} exp {}", bearing, exp);
                }
            }
        }
    }

    /// Where `RadiusTest` switches its brackets off — a centre within
    /// two radii of a pole, a zero radius, a continental one — no leaf
    /// is ever accepted whole, however tightly it hugs the centre.
    #[test]
    fn whole_leaf_acceptance_never_fires_with_the_brackets_off(
        case in 0usize..4,
        unit in 0.0f64..1.0,
        lon in -179.0f64..179.0,
        cloud in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..60),
    ) {
        let (center, r) = match case {
            // 0 … 119 m from a pole, r = 60 m.
            0 => (GeoPoint::new(90.0 - unit * 119.0 / 111_194.93, lon), 60.0),
            1 => (GeoPoint::new(-90.0 + unit * 119.0 / 111_194.93, lon), 60.0),
            2 => (GeoPoint::new(-80.0 + 160.0 * unit, lon), 0.0),
            _ => (GeoPoint::new(-80.0 + 160.0 * unit, lon), 5.0e6),
        };
        // A few metres around the centre; exact copies of it at r = 0.
        let spread = if r == 0.0 { 0.0 } else { 2e-5 };
        let pts: Vec<GeoPoint> = cloud.iter().map(|&(a, b)| GeoPoint::new(
            (center.lat + a * spread).clamp(-90.0, 90.0),
            center.lon + b * spread,
        )).collect();
        let tree = RTree::bulk_load_with_max_entries(indexed(&pts), 4);
        let mut cursor = tree.radius_cursor(r);
        let (flat, blocks, _) = cursor_query(&mut cursor, center);
        prop_assert_eq!(&flat, &plain_query(&tree, center, r));
        prop_assert!(!flat.is_empty());
        prop_assert!(blocks.is_empty());
        prop_assert_eq!(cursor.stats().block_hits, 0);
    }

    /// For any stream of centres — steps of a few metres, repeats, jumps
    /// across town, a change of radius midway — the cursor, blocks
    /// flattened, yields the plain query's sequence, on an empty tree, a
    /// one-leaf tree and a merge of 8 partition trees of unequal height
    /// (padded single-child nodes), at Beijing and astride ±180°. Between
    /// re-anchors a slot names one leaf, and slots are dense.
    #[test]
    fn cursor_equals_the_plain_query_on_any_stream(
        shape in 0usize..3,
        astride in any::<bool>(),
        cloud in prop::collection::vec((0usize..4, -1.0f64..1.0, -1.0f64..1.0), 1..260),
        steps in prop::collection::vec((0usize..10, -1.0f64..1.0, -1.0f64..1.0), 1..120),
        radii in (5.0f64..200.0, 5.0f64..200.0),
    ) {
        // Four dwell spots ~250 m apart, ±40 m of scatter each; lon is
        // kept in metres-as-degrees around `base` and wrapped last.
        let base = if astride { GeoPoint::new(39.9, 179.9999) } else { GeoPoint::new(39.9, 116.4) };
        let at = |spot: usize, a: f64, b: f64| GeoPoint::new(
            base.lat + spot as f64 * 2.2e-3 + a * 3.6e-4,
            wrap_lon(base.lon + (spot % 2) as f64 * 1.5e-3 + b * 4.7e-4),
        );
        let pts: Vec<GeoPoint> = match shape {
            0 => Vec::new(),
            1 => cloud.iter().take(8).map(|&(s, a, b)| at(s, a, b)).collect(),
            _ => cloud.iter().map(|&(s, a, b)| at(s, a, b)).collect(),
        };
        let tree = if shape == 2 {
            // Partition i holds i + 1 shares: heights 1 to 3 at 4 per node.
            let items = indexed(&pts);
            let mut parts = Vec::new();
            let mut start = 0;
            for i in 0..8 {
                let end = if i == 7 { items.len() } else { (start + items.len() * (i + 1) / 36).min(items.len()) };
                parts.push(RTree::bulk_load_with_max_entries(items[start..end].to_vec(), 4));
                start = end;
            }
            // Unequal heights are what makes `merge` pad with single-child nodes.
            let heights: Vec<usize> = parts.iter().map(RTree::height).collect();
            prop_assert!(pts.len() < 100 || heights.iter().min() != heights.iter().max(), "{:?}", heights);
            RTree::merge(parts)
        } else {
            RTree::bulk_load_with_max_entries(indexed(&pts), 8)
        };
        prop_assert!(tree.check_invariants().is_none());
        let mut center = at(0, 0.0, 0.0);
        let mut radius = radii.0;
        let mut cursor = tree.radius_cursor(radius);
        let mut named: std::collections::HashMap<usize, (*const Entry<usize>, usize)> = Default::default();
        for (i, &(kind, a, b)) in steps.iter().enumerate() {
            if i == steps.len() / 2 {
                radius = radii.1;
                cursor = tree.radius_cursor(radius);
                named.clear();
            }
            center = match kind {
                0 => center, // repeat
                1 => at((a.abs() * 4.0) as usize % 4, a, b), // jump
                2 => GeoPoint::new(base.lat + a, wrap_lon(base.lon + b)), // out of town
                // a few metres on
                _ => GeoPoint::new(center.lat + a * 3e-5, wrap_lon(center.lon + b * 3e-5)),
            };
            let (flat, blocks, reanchored) = cursor_query(&mut cursor, center);
            prop_assert_eq!(&flat, &plain_query(&tree, center, radius), "step {} at {:?}", i, center);
            if reanchored {
                named.clear();
            }
            prop_assert!(blocks.windows(2).all(|w| w[0].0 < w[1].0), "slots out of order");
            for (slot, first, len) in blocks {
                prop_assert!(slot < tree.len(), "slot {} of {} entries", slot, tree.len());
                prop_assert_eq!(*named.entry(slot).or_insert((first, len)), (first, len));
            }
        }
        let stats = cursor.stats();
        prop_assert!(stats.reanchors <= stats.queries && stats.block_hits <= stats.hits);
    }

    #[test]
    fn rtree_knn_matches_brute_force_set(
        pts in prop::collection::vec(small_point(), 1..150),
        center in small_point(),
        k in 1usize..20,
    ) {
        let items: Vec<(GeoPoint, usize)> =
            pts.iter().copied().enumerate().map(|(i, p)| (p, i)).collect();
        let tree = RTree::bulk_load_with_max_entries(items, 6);
        let got = tree.nearest_k(center, k);
        let k_eff = k.min(pts.len());
        prop_assert_eq!(got.len(), k_eff);
        let d2 = |p: GeoPoint| {
            let (a, b) = (p.lat - center.lat, p.lon - center.lon);
            a * a + b * b
        };
        // kNN result distances match the k smallest brute-force distances
        // (point sets may differ under exact ties; distances may not).
        let mut brute: Vec<f64> = pts.iter().map(|p| d2(*p)).collect();
        brute.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (i, e) in got.iter().enumerate() {
            prop_assert!((d2(e.point) - brute[i]).abs() < 1e-18);
        }
    }

    #[test]
    fn radius_rect_never_clips_the_disc(center in any_point(), radius in 1.0f64..100_000.0) {
        let rect = radius_bounding_rect(center, radius);
        // Probe points just inside the disc along 16 bearings.
        for i in 0..16 {
            let theta = (i as f64) * std::f64::consts::TAU / 16.0;
            let dlat = radius / 111_194.93 * theta.sin() * 0.999;
            let cos_lat = center.lat.to_radians().cos().max(1e-9);
            let dlon = radius / (111_194.93 * cos_lat) * theta.cos() * 0.999;
            let p = GeoPoint::new((center.lat + dlat).clamp(-90.0, 90.0), center.lon + dlon);
            if haversine_m(center, p) <= radius {
                prop_assert!(rect.contains_point(p));
            }
        }
    }

    #[test]
    fn rect_union_is_commutative_monotone(
        a in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        b in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
    ) {
        let ra = Rect::new(a.0, a.1, a.0 + a.2, a.1 + a.3);
        let rb = Rect::new(b.0, b.1, b.0 + b.2, b.1 + b.3);
        prop_assert_eq!(ra.union(&rb), rb.union(&ra));
        prop_assert!(ra.union(&rb).contains_rect(&ra));
        prop_assert!(ra.union(&rb).contains_rect(&rb));
        prop_assert!(ra.union(&rb).area() + 1e-12 >= ra.area().max(rb.area()));
    }
}
