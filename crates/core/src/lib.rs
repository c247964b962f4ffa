#![warn(missing_docs)]

//! # GEPETO — a GEoPrivacy-Enhancing TOolkit on MapReduce
//!
//! Rust reproduction of *MapReducing GEPETO, or Towards Conducting a
//! Privacy Analysis on Millions of Mobility Traces* (IPDPSW 2013).
//! GEPETO lets a data curator **sanitize** a geolocated dataset, run
//! **inference attacks** against it, and **measure** the resulting
//! privacy/utility trade-off — at the scale of millions of mobility
//! traces, by expressing each algorithm in the MapReduce programming
//! model (`gepeto-mapred`).
//!
//! The paper's three MapReduced algorithm families:
//!
//! - [`sampling`] — down-sampling as a map-only job (§V, Figures 2–3,
//!   Table I);
//! - [`kmeans`] — k-means with one MapReduce job per iteration (§VI,
//!   Figure 4, Tables II–III); by default each map task shuffles one
//!   partial sum per cluster (the related-work combiner, fused into the
//!   mapper);
//! - [`djcluster`] — density-joinable clustering in three phases (§VII,
//!   Figure 5, Table IV), backed by an R-tree built with MapReduce
//!   ([`rtree_build`], §VII-C, Figure 6).
//!
//! Plus the extensions §VIII announces as future work, implemented here:
//! [`attacks`] (POI extraction, Mobility Markov Chains with next-place
//! prediction and de-anonymization, linking, semantic trajectories,
//! social-link discovery — the per-user attacks also as MapReduce jobs in
//! [`attacks::mapreduce`]) and [`sanitize`] (geographical masks, spatial
//! aggregation, spatial/temporal cloaking, mix zones — the per-trace
//! mechanisms also as map-only jobs in [`sanitize::mapreduce`]), tied
//! together by the privacy/utility [`metrics`]. [`viz`] renders datasets
//! and attack output as SVG/GeoJSON/ASCII; [`textio`] processes GeoLife
//! PLT text the way the paper's Hadoop jobs do.
//!
//! Every MapReduce driver of the three families is **one function** named
//! `mapreduce_*_in` that takes a [`gepeto_mapred::ExecCtx`] first: the
//! context, not the function name, says whether the run is traced,
//! retried, journaled or memory-bounded. The six `mapreduce_*` functions
//! without the suffix are thin shims kept for the frozen `benchmark/`
//! harness.
//!
//! ## Quickstart
//!
//! ```
//! use gepeto::prelude::*;
//!
//! // A small synthetic GeoLife-like dataset…
//! let dataset = SyntheticGeoLife::new(GeneratorConfig {
//!     users: 5,
//!     scale: 0.003,
//!     ..GeneratorConfig::paper()
//! })
//! .generate();
//!
//! // …stored in the DFS of a local cluster…
//! let cluster = Cluster::local(4, 2);
//! let mut dfs = trace_dfs(&cluster, 1 << 20);
//! put_dataset(&mut dfs, "geolife", &dataset).unwrap();
//!
//! // …and down-sampled with a map-only MapReduce job (Figure 2), run in
//! // the plain execution context: untraced, fail-fast, all in memory.
//! let (sampled, stats, _resubmissions) = sampling::mapreduce_sample_in(
//!     &ExecCtx::new(&cluster), &dfs, "geolife",
//!     &sampling::SamplingConfig::new(60, sampling::Technique::ClosestToUpperLimit),
//! ).unwrap();
//! assert!(sampled.num_traces() < dataset.num_traces());
//! assert!(stats.map_tasks >= 1);
//! ```

pub mod attacks;
pub mod dfs_io;
pub mod djcluster;
pub mod kmeans;
pub mod metrics;
pub mod rtree_build;
pub mod sampling;
pub mod sanitize;
pub mod spill_codecs;
pub mod textio;
pub mod viz;

#[cfg(test)]
mod test_splits;

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use crate::dfs_io::{put_dataset, trace_dfs};
    pub use crate::{
        attacks, djcluster, kmeans, metrics, rtree_build, sampling, sanitize, textio, viz,
    };
    pub use gepeto_geo::{DistanceMetric, RTree, Rect, SpaceFillingCurve};
    pub use gepeto_geolife::{DatasetStats, GeneratorConfig, SyntheticGeoLife};
    pub use gepeto_mapred::{Cluster, Dfs, ExecCtx, PipelineReport};
    pub use gepeto_model::{Dataset, GeoPoint, MobilityTrace, Timestamp, Trail};
}
