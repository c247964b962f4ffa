//! Inference attacks **as MapReduce jobs** — the integration §VIII
//! announces: "In the future we aim at integrating other inference
//! techniques within the MapReduced framework of GEPETO. In particular
//! we want to develop algorithms for learning a mobility model out of
//! the mobility traces of an individual such as Mobility Markov Chains."
//!
//! Per-user attacks parallelize naturally in MapReduce: the map phase
//! routes every trace to its user's reducer (identity map keyed by user,
//! the grouping the shuffle provides for free), and each reducer runs
//! the whole per-user pipeline — POI extraction, then MMC learning — on
//! its user's complete trail.

use crate::attacks::mmc::{learn_mmc, MobilityMarkovChain};
use crate::attacks::poi::{extract_pois, Poi};
use crate::djcluster::DjConfig;
use gepeto_mapred::{
    Cluster, Dfs, DistributedCache, Emitter, Group, JobError, JobStats, MapReduceJob, Mapper,
    Reducer, TaskContext,
};
use gepeto_model::{MobilityTrace, Trail, UserId};
use std::collections::BTreeMap;
use std::sync::Arc;

const DJ_CONFIG_CACHE_KEY: &str = "attack.dj-config";

/// Identity mapper keyed by user id: the shuffle assembles each user's
/// complete trail at one reducer.
#[derive(Clone, Default)]
pub struct PerUserMapper;

impl Mapper<MobilityTrace> for PerUserMapper {
    type KOut = UserId;
    type VOut = MobilityTrace;

    fn map(
        &mut self,
        _offset: u64,
        value: &MobilityTrace,
        out: &mut Emitter<UserId, MobilityTrace>,
    ) {
        out.emit(value.user, *value);
    }
}

/// Reducer running POI extraction on one user's assembled trail.
#[derive(Clone)]
pub struct PoiReducer {
    cfg: Arc<DjConfig>,
}

impl Reducer<UserId, MobilityTrace> for PoiReducer {
    type KOut = UserId;
    type VOut = Vec<Poi>;

    fn setup(&mut self, ctx: &TaskContext<'_>) {
        self.cfg = ctx.cache.expect(DJ_CONFIG_CACHE_KEY);
    }

    fn reduce(
        &mut self,
        key: &UserId,
        values: Group<'_, MobilityTrace>,
        out: &mut Emitter<UserId, Vec<Poi>>,
    ) {
        let trail = Trail::new(*key, values.iter().cloned().collect());
        out.emit(*key, extract_pois(&trail, &self.cfg));
    }
}

/// Reducer learning one user's Mobility Markov Chain; users with fewer
/// than two POIs are silently skipped (no chain to learn).
#[derive(Clone)]
pub struct MmcReducer {
    cfg: Arc<DjConfig>,
}

impl Reducer<UserId, MobilityTrace> for MmcReducer {
    type KOut = UserId;
    type VOut = MobilityMarkovChain;

    fn setup(&mut self, ctx: &TaskContext<'_>) {
        self.cfg = ctx.cache.expect(DJ_CONFIG_CACHE_KEY);
    }

    fn reduce(
        &mut self,
        key: &UserId,
        values: Group<'_, MobilityTrace>,
        out: &mut Emitter<UserId, MobilityMarkovChain>,
    ) {
        let trail = Trail::new(*key, values.iter().cloned().collect());
        if let Some(mmc) = learn_mmc(&trail, &self.cfg) {
            out.emit(*key, mmc);
        }
    }
}

/// Runs POI extraction for every user as one MapReduce job.
pub fn mapreduce_extract_pois(
    cluster: &Cluster,
    dfs: &Dfs<MobilityTrace>,
    input: &str,
    cfg: &DjConfig,
) -> Result<(BTreeMap<UserId, Vec<Poi>>, JobStats), JobError> {
    let cache = DistributedCache::new().with(DJ_CONFIG_CACHE_KEY, cfg.clone());
    let result = MapReduceJob::new(
        "poi-extraction",
        cluster,
        dfs,
        input,
        PerUserMapper,
        PoiReducer {
            cfg: Arc::new(cfg.clone()),
        },
    )
    .cache(cache)
    .pair_bytes(|_, t| t.approx_plt_bytes())
    .run()?;
    Ok((result.output.into_iter().collect(), result.stats))
}

/// Learns every user's MMC as one MapReduce job — the §VIII gallery an
/// attacker de-anonymizes against.
pub fn mapreduce_learn_mmcs(
    cluster: &Cluster,
    dfs: &Dfs<MobilityTrace>,
    input: &str,
    cfg: &DjConfig,
) -> Result<(BTreeMap<UserId, MobilityMarkovChain>, JobStats), JobError> {
    let cache = DistributedCache::new().with(DJ_CONFIG_CACHE_KEY, cfg.clone());
    let result = MapReduceJob::new(
        "mmc-learning",
        cluster,
        dfs,
        input,
        PerUserMapper,
        MmcReducer {
            cfg: Arc::new(cfg.clone()),
        },
    )
    .cache(cache)
    .pair_bytes(|_, t| t.approx_plt_bytes())
    .run()?;
    Ok((result.output.into_iter().collect(), result.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs_io::{put_dataset, trace_dfs};
    use gepeto_model::{Dataset, GeoPoint, Timestamp};

    fn commuter(user: UserId, lat: f64) -> Trail {
        let home = GeoPoint::new(lat, 116.40);
        let work = GeoPoint::new(lat + 0.05, 116.48);
        let mut traces = Vec::new();
        for day in 0..4i64 {
            let d0 = day * 86_400;
            for (spot, hours) in [(home, [0i64, 5, 22]), (work, [9, 12, 16])] {
                for h in hours {
                    for m in 0..8 {
                        traces.push(MobilityTrace::new(
                            user,
                            GeoPoint::new(
                                spot.lat + (m % 3) as f64 * 3e-6,
                                spot.lon + (m % 2) as f64 * 3e-6,
                            ),
                            Timestamp(d0 + h * 3_600 + m * 240),
                        ));
                    }
                }
            }
        }
        Trail::new(user, traces)
    }

    fn cfg() -> DjConfig {
        DjConfig {
            radius_m: 80.0,
            min_pts: 4,
            speed_threshold_mps: 1.0,
            dup_threshold_m: 0.2,
        }
    }

    fn setup() -> (Cluster, Dfs<MobilityTrace>, Dataset) {
        let ds = Dataset::from_trails((1..=4).map(|u| commuter(u, 39.7 + f64::from(u) * 0.08)));
        let cluster = Cluster::local(3, 2);
        let mut dfs = trace_dfs(&cluster, 8 * 1024); // several chunks
        put_dataset(&mut dfs, "d", &ds).unwrap();
        (cluster, dfs, ds)
    }

    #[test]
    fn mapreduce_pois_match_sequential_per_user() {
        let (cluster, dfs, ds) = setup();
        let (mr, stats) = mapreduce_extract_pois(&cluster, &dfs, "d", &cfg()).unwrap();
        let seq = crate::attacks::extract_pois_dataset(&ds, &cfg());
        assert_eq!(mr.len(), 4);
        for (user, pois) in &seq {
            assert_eq!(&mr[user], pois, "user {user}");
        }
        assert!(stats.map_tasks > 1, "want parallel map phase");
        assert!(stats.reduce_tasks >= 1);
    }

    #[test]
    fn mapreduce_mmcs_match_sequential_per_user() {
        let (cluster, dfs, ds) = setup();
        let (mr, _) = mapreduce_learn_mmcs(&cluster, &dfs, "d", &cfg()).unwrap();
        assert_eq!(mr.len(), 4);
        for trail in ds.trails() {
            let seq = learn_mmc(trail, &cfg()).unwrap();
            assert_eq!(mr[&trail.user], seq, "user {}", trail.user);
        }
    }

    #[test]
    fn mapreduce_gallery_deanonymizes() {
        // End to end: learn the gallery with MapReduce, attack an
        // anonymous chain learned locally from fresh data of user 3.
        let (cluster, dfs, _) = setup();
        let (gallery, _) = mapreduce_learn_mmcs(&cluster, &dfs, "d", &cfg()).unwrap();
        let fresh = commuter(99, 39.7 + 3.0 * 0.08); // user 3's geography
        let anon = learn_mmc(&fresh, &cfg()).unwrap();
        let ranked = crate::attacks::mmc::deanonymize(&gallery, &anon);
        assert_eq!(ranked[0].0, 3, "{ranked:?}");
    }

    #[test]
    fn users_without_chains_are_skipped() {
        // One commuter plus one stationary user (single POI → no MMC).
        let stationary = Trail::new(
            9,
            (0..200)
                .map(|i| {
                    MobilityTrace::new(
                        9,
                        GeoPoint::new(39.9 + (i % 3) as f64 * 3e-6, 116.4),
                        Timestamp(i * 300),
                    )
                })
                .collect(),
        );
        let ds = Dataset::from_trails(vec![commuter(1, 39.8), stationary]);
        let cluster = Cluster::local(2, 2);
        let mut dfs = trace_dfs(&cluster, 64 * 1024);
        put_dataset(&mut dfs, "d", &ds).unwrap();
        let (mmcs, _) = mapreduce_learn_mmcs(&cluster, &dfs, "d", &cfg()).unwrap();
        assert!(mmcs.contains_key(&1));
        assert!(!mmcs.contains_key(&9));
    }
}
