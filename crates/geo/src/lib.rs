#![warn(missing_docs)]

//! # gepeto-geo
//!
//! Geometric substrate for the GEPETO toolkit:
//!
//! - [`distance`] — the metrics the paper evaluates k-means with
//!   (squared Euclidean and Haversine, §VI) plus Euclidean and Manhattan,
//!   which GEPETO exposes as user-selectable metrics.
//! - [`sfc`] — Z-order and Hilbert space-filling curves, used to partition
//!   datapoints when building an R-tree with MapReduce (§VII-C).
//! - [`rect`] — axis-aligned bounding rectangles (the MBRs of §VII-C).
//! - [`rtree`] — an R-tree with quadratic-split insertion (Guttman 1984),
//!   STR bulk loading, rectangle/radius range queries and best-first kNN;
//!   the index DJ-Cluster's neighborhood phase reads from the distributed
//!   cache (§VII-B).
//! - [`soa`] — columnar (structure-of-arrays) clustering kernels: fused
//!   assign + partial-sum with precomputed Haversine trigonometry,
//!   bit-identical to the scalar [`distance`] reference.
//!
//! ```
//! use gepeto_geo::{haversine_m, RTree};
//! use gepeto_model::GeoPoint;
//!
//! let items: Vec<(GeoPoint, usize)> = (0..100)
//!     .map(|i| (GeoPoint::new(39.9 + i as f64 * 1e-4, 116.4), i))
//!     .collect();
//! let tree = RTree::bulk_load(items);
//! let center = GeoPoint::new(39.9, 116.4);
//! let near = tree.within_radius_m(center, 50.0);
//! assert!(!near.is_empty());
//! for e in &near {
//!     assert!(haversine_m(center, e.point) <= 50.0);
//! }
//! ```

pub mod distance;
pub mod rect;
pub mod rtree;
pub mod sfc;
pub mod soa;

pub use distance::{haversine_m, DistanceMetric, EARTH_RADIUS_M};
pub use rect::Rect;
pub use rtree::RTree;
pub use sfc::SpaceFillingCurve;
pub use soa::{assign_points_pooled, CentroidsSoa, ClusterSum, PointSource, PointsSoa};
