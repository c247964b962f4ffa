//! Constructing an R-tree with MapReduce (§VII-C, Figure 6,
//! Algorithms 6–9, after Cary et al.).
//!
//! Three phases, exactly as the paper stages them:
//!
//! 1. **Partitioning function** — mappers sample objects from their
//!    chunks and emit the single-dimensional values obtained by a
//!    space-filling curve (Z-order or Hilbert, both implemented); a
//!    single reducer sorts the sample and picks `p − 1` partition
//!    boundaries (Algorithms 6–7).
//! 2. **Small R-trees** — mappers route every datapoint to its partition
//!    id; each of the `p` reducers bulk-loads the R-tree of its
//!    partition (Algorithms 8–9).
//! 3. **Merge** — the small R-trees are merged sequentially by a single
//!    node "due to its low computational complexity".
//!
//! A preliminary map-only job computes the dataset MBR that anchors the
//! curve's grid (the paper assumes a known spatial domain).
//!
//! The resulting tree indexes each trace's **global record offset** in
//! the input file — the unique identifier Cary et al. require.

use gepeto_geo::sfc::GridMapper;
use gepeto_geo::{RTree, Rect, SpaceFillingCurve};
use gepeto_mapred::{
    Dfs, DfsAccess, DistributedCache, Emitter, ExecCtx, Group, JobError, JobStats, MapOnlyJob,
    MapReduceJob, Mapper, Reducer, TaskContext,
};
use gepeto_model::MobilityTrace;
use std::sync::Arc;

const GRID_CACHE_KEY: &str = "rtree.grid";
const BOUNDARIES_CACHE_KEY: &str = "rtree.boundaries";

/// Parameters of the MapReduce R-tree construction.
#[derive(Debug, Clone)]
pub struct RTreeBuildConfig {
    /// The partitioning curve (§VII-C implements Z-order and Hilbert).
    pub curve: SpaceFillingCurve,
    /// Curve grid resolution: a `2^order × 2^order` grid.
    pub grid_order: u32,
    /// Number of partitions `p` (= phase-2 reducers = small R-trees).
    pub partitions: usize,
    /// Objects each phase-1 mapper samples from its chunk.
    pub samples_per_chunk: usize,
    /// Node capacity of the built R-trees.
    pub max_entries: usize,
}

impl Default for RTreeBuildConfig {
    fn default() -> Self {
        Self {
            curve: SpaceFillingCurve::Hilbert,
            grid_order: 16,
            partitions: 8,
            samples_per_chunk: 64,
            max_entries: 16,
        }
    }
}

/// What the driver learns from a build besides the tree itself.
#[derive(Debug, Clone)]
pub struct RTreeBuildReport {
    /// The bounds-scan job.
    pub bounds_job: JobStats,
    /// Phase 1 (sampling + boundary selection).
    pub phase1: JobStats,
    /// Phase 2 (partitioning + small-tree building).
    pub phase2: JobStats,
    /// Entry count of each small R-tree — the partition-balance metric
    /// the space-filling curve is responsible for.
    pub partition_sizes: Vec<usize>,
}

impl RTreeBuildReport {
    /// Max/mean partition-size ratio (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        if self.partition_sizes.is_empty() {
            return 1.0;
        }
        let max = *self.partition_sizes.iter().max().unwrap() as f64;
        let mean =
            self.partition_sizes.iter().sum::<usize>() as f64 / self.partition_sizes.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Phase-0 mapper: per-chunk MBR, emitted once in `cleanup`.
#[derive(Clone, Default)]
struct BoundsMapper {
    rect: Rect,
}

impl Mapper<MobilityTrace> for BoundsMapper {
    type KOut = u8;
    type VOut = Rect;

    fn map(&mut self, _offset: u64, value: &MobilityTrace, _out: &mut Emitter<u8, Rect>) {
        self.rect = self.rect.union(&Rect::point(value.point));
    }

    fn cleanup(&mut self, out: &mut Emitter<u8, Rect>) {
        if !self.rect.is_empty() {
            out.emit(0, self.rect);
        }
    }
}

/// Algorithm 6: sample objects from the chunk and emit their scalar
/// curve values. Deterministic striding stands in for random sampling so
/// runs are reproducible.
#[derive(Clone)]
struct SampleMapper {
    grid: Option<Arc<(GridMapper, SpaceFillingCurve)>>,
    stride: u64,
}

impl Mapper<MobilityTrace> for SampleMapper {
    type KOut = u8;
    type VOut = u64;

    fn setup(&mut self, ctx: &TaskContext<'_>) {
        self.grid = Some(ctx.cache.expect(GRID_CACHE_KEY));
    }

    fn map(&mut self, offset: u64, value: &MobilityTrace, out: &mut Emitter<u8, u64>) {
        if offset.is_multiple_of(self.stride) {
            let g = self.grid.as_ref().expect("setup ran");
            out.emit(0, g.0.scalar(g.1, value.point));
        }
    }

    /// Stateless and keyed on global offsets: cuts anywhere.
    fn splits_between(&self, _prev: &MobilityTrace, _next: &MobilityTrace) -> bool {
        true
    }
}

/// Algorithm 7: a single reducer orders the sampled scalars and emits the
/// `p − 1` partition boundaries at the sample quantiles.
#[derive(Clone)]
struct BoundaryReducer {
    partitions: usize,
}

impl Reducer<u8, u64> for BoundaryReducer {
    type KOut = u8;
    type VOut = Vec<u64>;

    fn reduce(&mut self, _key: &u8, values: Group<'_, u64>, out: &mut Emitter<u8, Vec<u64>>) {
        let mut sorted: Vec<u64> = values.iter().copied().collect();
        sorted.sort_unstable();
        let p = self.partitions;
        let mut boundaries = Vec::with_capacity(p.saturating_sub(1));
        for i in 1..p {
            let idx = i * sorted.len() / p;
            boundaries.push(sorted[idx.min(sorted.len() - 1)]);
        }
        boundaries.dedup();
        out.emit(0, boundaries);
    }
}

/// Algorithm 8: route each datapoint to the partition its scalar value
/// falls in.
#[derive(Clone)]
struct PartitionMapper {
    grid: Option<Arc<(GridMapper, SpaceFillingCurve)>>,
    boundaries: Arc<Vec<u64>>,
}

impl Mapper<MobilityTrace> for PartitionMapper {
    type KOut = u32;
    type VOut = (u64, f64, f64);

    fn setup(&mut self, ctx: &TaskContext<'_>) {
        self.grid = Some(ctx.cache.expect(GRID_CACHE_KEY));
        self.boundaries = ctx.cache.expect::<Vec<u64>>(BOUNDARIES_CACHE_KEY);
    }

    fn map(&mut self, offset: u64, value: &MobilityTrace, out: &mut Emitter<u32, (u64, f64, f64)>) {
        let g = self.grid.as_ref().expect("setup ran");
        let scalar = g.0.scalar(g.1, value.point);
        let pid = self.boundaries.partition_point(|&b| b <= scalar) as u32;
        out.emit(pid, (offset, value.point.lat, value.point.lon));
    }

    /// Stateless and keyed on global offsets: cuts anywhere.
    fn splits_between(&self, _prev: &MobilityTrace, _next: &MobilityTrace) -> bool {
        true
    }
}

/// Algorithm 9: each reducer bulk-loads the R-tree of its partition.
#[derive(Clone)]
struct TreeBuildReducer {
    max_entries: usize,
}

impl Reducer<u32, (u64, f64, f64)> for TreeBuildReducer {
    type KOut = u32;
    type VOut = RTree<u64>;

    fn reduce(
        &mut self,
        key: &u32,
        values: Group<'_, (u64, f64, f64)>,
        out: &mut Emitter<u32, RTree<u64>>,
    ) {
        let items: Vec<(gepeto_model::GeoPoint, u64)> = values
            .iter()
            .map(|&(off, lat, lon)| (gepeto_model::GeoPoint::new(lat, lon), off))
            .collect();
        out.emit(
            *key,
            RTree::bulk_load_with_max_entries(items, self.max_entries),
        );
    }
}

/// Builds an R-tree over `input` with the 3-phase MapReduce pipeline,
/// each phase one job submitted through `ctx` — traced by its recorder
/// and retried under its policy like any other job. Returns the tree,
/// the per-phase report and the re-submissions the three jobs took.
pub fn mapreduce_build_rtree<'d>(
    ctx: &ExecCtx<'_>,
    dfs: impl Into<DfsAccess<'d, MobilityTrace>>,
    input: &str,
    cfg: &RTreeBuildConfig,
) -> Result<(RTree<u64>, RTreeBuildReport, u64), JobError> {
    assert!(cfg.partitions >= 1, "need at least one partition");
    assert!(cfg.samples_per_chunk >= 1);
    let mut dfs = dfs.into();
    let cluster = ctx.cluster;

    // Phase 0: dataset MBR (anchors the curve grid).
    let (bounds_result, bounds_retries) =
        ctx.submit("rtree-bounds", &mut dfs, |name, dfs, budget| {
            MapOnlyJob::new(name, cluster, dfs, input, BoundsMapper::default())
                .exec(ctx, budget)
                .run()
        })?;
    let bounds = bounds_result
        .output
        .iter()
        .fold(Rect::empty(), |acc, (_, r)| acc.union(r));
    if bounds.is_empty() {
        // Empty input: an empty tree.
        let report = RTreeBuildReport {
            bounds_job: bounds_result.stats.clone(),
            phase1: bounds_result.stats.clone(),
            phase2: bounds_result.stats,
            partition_sizes: Vec::new(),
        };
        let tree = RTree::with_max_entries(cfg.max_entries);
        return Ok((tree, report, u64::from(bounds_retries)));
    }
    let grid = GridMapper::new(bounds, cfg.grid_order);
    let cache = DistributedCache::new().with(GRID_CACHE_KEY, (grid, cfg.curve));

    // Phase 1: sample → boundaries.
    let records = dfs.num_records(input)?.max(1);
    let chunks = dfs.num_blocks(input)?.max(1);
    let per_chunk = records.div_ceil(chunks);
    let stride = (per_chunk / cfg.samples_per_chunk).max(1) as u64;
    let (phase1, phase1_retries) = ctx.submit("rtree-phase1", &mut dfs, |name, dfs, budget| {
        let reducer = BoundaryReducer {
            partitions: cfg.partitions,
        };
        MapReduceJob::new(
            name,
            cluster,
            dfs,
            input,
            SampleMapper { grid: None, stride },
            reducer,
        )
        .reducers(1)
        .cache(cache.clone())
        .exec(ctx, budget)
        .run()
    })?;
    let boundaries: Vec<u64> = phase1
        .output
        .first()
        .map(|(_, b)| b.clone())
        .unwrap_or_default();

    // Phase 2: partition → small R-trees.
    let cache2 = {
        let mut c = cache;
        c.insert(BOUNDARIES_CACHE_KEY, boundaries.clone());
        c
    };
    let (phase2, phase2_retries) = ctx.submit("rtree-phase2", &mut dfs, |name, dfs, budget| {
        let mapper = PartitionMapper {
            grid: None,
            boundaries: Arc::new(Vec::new()),
        };
        let reducer = TreeBuildReducer {
            max_entries: cfg.max_entries,
        };
        MapReduceJob::new(name, cluster, dfs, input, mapper, reducer)
            .reducers(cfg.partitions)
            .cache(cache2.clone())
            .pair_bytes(|_, _| 24)
            .exec(ctx, budget)
            .run()
    })?;

    // Phase 3: sequential merge.
    let mut partition_sizes: Vec<usize> = phase2.output.iter().map(|(_, t)| t.len()).collect();
    partition_sizes.sort_unstable_by(|a, b| b.cmp(a));
    let trees: Vec<RTree<u64>> = phase2.output.into_iter().map(|(_, t)| t).collect();
    let merged = RTree::merge(trees);

    Ok((
        merged,
        RTreeBuildReport {
            bounds_job: bounds_result.stats,
            phase1: phase1.stats,
            phase2: phase2.stats,
            partition_sizes,
        },
        u64::from(bounds_retries + phase1_retries + phase2_retries),
    ))
}

/// Single-machine baseline: read the file, STR-bulk-load one tree.
pub fn direct_build_rtree(
    dfs: &Dfs<MobilityTrace>,
    input: &str,
    max_entries: usize,
) -> Result<RTree<u64>, JobError> {
    let traces = dfs.read(input)?;
    let items: Vec<(gepeto_model::GeoPoint, u64)> = traces
        .iter()
        .enumerate()
        .map(|(i, t)| (t.point, i as u64))
        .collect();
    Ok(RTree::bulk_load_with_max_entries(items, max_entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs_io::{put_dataset, trace_dfs};
    use gepeto_mapred::Cluster;
    use gepeto_model::{Dataset, GeoPoint, Timestamp};

    fn grid_dataset(side: usize) -> Dataset {
        let mut traces = Vec::new();
        for i in 0..side {
            for j in 0..side {
                traces.push(MobilityTrace::new(
                    0,
                    GeoPoint::new(39.8 + i as f64 * 0.002, 116.2 + j as f64 * 0.002),
                    Timestamp((i * side + j) as i64),
                ));
            }
        }
        Dataset::from_traces(traces)
    }

    fn build(
        cluster: &Cluster,
        dfs: &Dfs<MobilityTrace>,
        input: &str,
        cfg: &RTreeBuildConfig,
    ) -> (RTree<u64>, RTreeBuildReport) {
        let (tree, report, _) =
            mapreduce_build_rtree(&ExecCtx::new(cluster), dfs, input, cfg).unwrap();
        (tree, report)
    }

    fn setup(side: usize) -> (Cluster, Dfs<MobilityTrace>) {
        let cluster = Cluster::local(3, 2);
        let mut dfs = trace_dfs(&cluster, 4_096);
        put_dataset(&mut dfs, "pts", &grid_dataset(side)).unwrap();
        (cluster, dfs)
    }

    #[test]
    fn mapreduce_tree_indexes_every_record() {
        let (cluster, dfs) = setup(30);
        let (tree, report) = build(&cluster, &dfs, "pts", &RTreeBuildConfig::default());
        assert_eq!(tree.len(), 900);
        assert!(tree.check_invariants().is_none());
        assert_eq!(report.partition_sizes.iter().sum::<usize>(), 900);
        assert!(report.phase2.reduce_tasks >= 1);
    }

    #[test]
    fn queries_match_direct_build() {
        let (cluster, dfs) = setup(25);
        let (mr_tree, _) = build(&cluster, &dfs, "pts", &RTreeBuildConfig::default());
        let direct = direct_build_rtree(&dfs, "pts", 16).unwrap();
        let center = GeoPoint::new(39.82, 116.22);
        for radius in [50.0, 300.0, 2_000.0] {
            let mut a: Vec<u64> = mr_tree
                .within_radius_m(center, radius)
                .iter()
                .map(|e| e.payload)
                .collect();
            let mut b: Vec<u64> = direct
                .within_radius_m(center, radius)
                .iter()
                .map(|e| e.payload)
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "radius {radius}");
        }
    }

    #[test]
    fn both_curves_balance_partitions() {
        let (cluster, dfs) = setup(32);
        for curve in [SpaceFillingCurve::ZOrder, SpaceFillingCurve::Hilbert] {
            let cfg = RTreeBuildConfig {
                curve,
                partitions: 4,
                samples_per_chunk: 128,
                ..RTreeBuildConfig::default()
            };
            let (_, report) = build(&cluster, &dfs, "pts", &cfg);
            assert!(
                report.imbalance() < 2.0,
                "{} imbalance {}: {:?}",
                curve.name(),
                report.imbalance(),
                report.partition_sizes
            );
        }
    }

    #[test]
    fn single_partition_degenerates_gracefully() {
        let (cluster, dfs) = setup(10);
        let cfg = RTreeBuildConfig {
            partitions: 1,
            ..RTreeBuildConfig::default()
        };
        let (tree, report) = build(&cluster, &dfs, "pts", &cfg);
        assert_eq!(tree.len(), 100);
        assert_eq!(report.partition_sizes.len(), 1);
    }

    #[test]
    fn empty_input_builds_empty_tree() {
        let cluster = Cluster::local(2, 1);
        let mut dfs = trace_dfs(&cluster, 1_024);
        dfs.put_with_sizer("empty", vec![], |_| 64).unwrap();
        let (tree, report) = build(&cluster, &dfs, "empty", &RTreeBuildConfig::default());
        assert!(tree.is_empty());
        assert!(report.partition_sizes.is_empty());
    }

    #[test]
    fn sample_and_partition_mappers_cut_anywhere() {
        use crate::test_splits::{assert_cuts_change_nothing, seam_traces};
        let traces = seam_traces();
        let bounds = traces
            .iter()
            .fold(Rect::empty(), |r, t| r.union(&Rect::point(t.point)));
        let grid = GridMapper::new(bounds, 16);
        let cache = DistributedCache::new()
            .with(GRID_CACHE_KEY, (grid, SpaceFillingCurve::Hilbert))
            .with(BOUNDARIES_CACHE_KEY, vec![1u64 << 20, 1 << 28]);
        let every_seam = traces.len() - 1;
        let sample = SampleMapper {
            grid: None,
            stride: 3,
        };
        assert_eq!(
            assert_cuts_change_nothing(&sample, &cache, 1_000, &traces),
            every_seam
        );
        let partition = PartitionMapper {
            grid: None,
            boundaries: Arc::new(Vec::new()),
        };
        assert_eq!(
            assert_cuts_change_nothing(&partition, &cache, 1_000, &traces),
            every_seam
        );
    }

    #[test]
    fn payloads_are_global_offsets() {
        let (cluster, dfs) = setup(12);
        let (tree, _) = build(&cluster, &dfs, "pts", &RTreeBuildConfig::default());
        let traces = dfs.read("pts").unwrap();
        for e in tree.iter() {
            let t = &traces[e.payload as usize];
            assert_eq!(t.point, e.point);
        }
    }
}
