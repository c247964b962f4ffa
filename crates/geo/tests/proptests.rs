//! Property-based tests for the geometric substrate: curve bijectivity,
//! metric axioms, and R-tree query equivalence against brute force.

use gepeto_geo::distance::equirectangular_m;
use gepeto_geo::rtree::radius_bounding_rect;
use gepeto_geo::sfc::{hilbert_d_to_xy, hilbert_xy_to_d, morton_decode, morton_encode, GridMapper};
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

    /// The filter-refine radius test returns what the scan it replaced
    /// returned — bounding rect, then `haversine_m(..) <= r` — down to
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
        // The point `d` metres from `center` on bearing `deg`.
        let destination = |d: f64, deg: f64| {
            let (lat1, lon1) = (center.lat.to_radians(), center.lon.to_radians());
            let (delta, theta) = (d / gepeto_geo::EARTH_RADIUS_M, deg.to_radians());
            let lat2 = (lat1.sin() * delta.cos() + lat1.cos() * delta.sin() * theta.cos()).asin();
            let lon2 = lon1
                + (theta.sin() * delta.sin() * lat1.cos())
                    .atan2(delta.cos() - lat1.sin() * lat2.sin());
            let lon2 = (lon2.to_degrees() + 540.0).rem_euclid(360.0) - 180.0;
            GeoPoint::new(lat2.to_degrees().clamp(-90.0, 90.0), lon2)
        };
        let mut pts = vec![center, center];
        for &(bearing, exp, which) in &planted {
            // exp = 0 plants exactly on the edge, ±k at r·(1 ± 10^-(13-k)).
            let delta = match exp {
                0 => 0.0,
                k => f64::from(k.signum()) * 10f64.powi(k.abs() - 13),
            };
            pts.push(destination(RADII[which] * (1.0 + delta), bearing));
        }
        for &(dlat, dlon) in &strays {
            pts.push(GeoPoint::new(
                (center.lat + dlat * 2e-3).clamp(-90.0, 90.0),
                (center.lon + dlon * 2e-3).clamp(-180.0, 180.0),
            ));
        }
        let items: Vec<(GeoPoint, usize)> =
            pts.iter().copied().enumerate().map(|(i, p)| (p, i)).collect();
        let tree = RTree::bulk_load_with_max_entries(items, 6);
        for radius in RADII {
            let mut got: Vec<usize> =
                tree.within_radius_m(center, radius).iter().map(|e| e.payload).collect();
            got.sort_unstable();
            let rect = radius_bounding_rect(center, radius);
            let want: Vec<usize> = pts.iter().enumerate()
                .filter(|(_, p)| rect.contains_point(**p) && haversine_m(center, **p) <= radius)
                .map(|(i, _)| i).collect();
            prop_assert_eq!(&got, &want, "center {:?} radius {}", center, radius);
            let mut visited = Vec::new();
            tree.for_each_within_radius_m(center, radius, |e| visited.push(e.payload));
            visited.sort_unstable();
            prop_assert_eq!(visited, want);
            // The centre's own two copies are always in.
            prop_assert!(got.starts_with(&[0, 1]));
        }
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
