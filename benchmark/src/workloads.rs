//! The four workloads: their inputs, the calls they time, and the
//! sequential oracle each repetition's output is checked against.
//!
//! Every workload is a closed loop with one job in flight: a repetition
//! starts when the previous one has been verified.

use crate::spans::SpanLog;
use gepeto::dfs_io::trace_dfs;
use gepeto::djcluster::{self, Clustering, DjConfig};
use gepeto::kmeans::{self, KMeansConfig};
use gepeto::rtree_build::RTreeBuildConfig;
use gepeto::sampling::{self, SamplingConfig, Technique};
use gepeto_geo::DistanceMetric;
use gepeto_geolife::{GeneratorConfig, SyntheticGeoLife};
use gepeto_mapred::hash::FnvHasher;
use gepeto_mapred::{Cluster, Dfs, JobStats};
use gepeto_model::{Dataset, GeoPoint, MobilityTrace};
use gepeto_synth::SynthConfig;
use gepeto_telemetry::Recorder;
use std::hash::Hasher;

/// Default `--seed`: the paper's conference date, as elsewhere in the
/// repository.
pub const DEFAULT_SEED: u64 = 20130520;

/// K-means iterations per repetition. The convergence delta is negative,
/// so exactly this many jobs run whatever the seed.
pub const KMEANS_ITERATIONS: usize = 8;

const INPUT: &str = "input";
const SAMPLED: &str = "sampled";

/// One of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// By-user regroup under a memory budget: the out-of-core shuffle.
    RegroupSpill,
    /// The same regroup with no budget: the in-memory shuffle.
    RegroupMem,
    /// Eight Lloyd iterations, one MapReduce job each.
    KmeansLloyd,
    /// Sampling, preprocessing, R-tree build and DJ-Cluster.
    DjclusterPoi,
}

impl Kind {
    /// Every workload the harness can run.
    pub const ALL: [Kind; 4] = [
        Kind::RegroupSpill,
        Kind::RegroupMem,
        Kind::KmeansLloyd,
        Kind::DjclusterPoi,
    ];

    /// The workloads `BENCHMARK.json` lists, in its order. `regroup-spill`
    /// is not among them: what it costs beyond `regroup-mem` is mostly
    /// `fsync` on the checkout's disk, whose speed here drifts by 50 %
    /// between sessions, more than any bound the gate allows. It stays
    /// runnable by hand.
    pub const GATED: [Kind; 3] = [Kind::RegroupMem, Kind::KmeansLloyd, Kind::DjclusterPoi];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::RegroupSpill => "regroup-spill",
            Kind::RegroupMem => "regroup-mem",
            Kind::KmeansLloyd => "kmeans-lloyd",
            Kind::DjclusterPoi => "djcluster-poi",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Input sizes. `Full` is what `BENCHMARK.json` measures; `Smoke` is
/// about a hundredth of it, for the harness's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The measured sizes.
    Full,
    /// ~1/100 of the measured sizes.
    Smoke,
}

impl Tier {
    /// The tier's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Full => "full",
            Tier::Smoke => "smoke",
        }
    }

    /// Users of the `gepeto-synth` day that the regroup and k-means
    /// workloads read: 150 000 users log ≈ 1.91 M traces, the size of the
    /// paper's GeoLife cut.
    fn synth_users(self) -> u64 {
        match self {
            Tier::Full => 150_000,
            Tier::Smoke => 1_500,
        }
    }

    /// Users of the GeoLife-calibrated dataset DJ-Cluster reads: four
    /// times the paper's 178. The generator's per-user trace budgets are
    /// heavy-tailed and DJ-Cluster's cost grows with the square of a dwell
    /// spot's population, so with 178 users one repetition took 0.6 s on
    /// one seed and 2.2 s on another; with 712 the seeds agree within what
    /// the host's own noise allows.
    fn geolife_users(self) -> usize {
        match self {
            Tier::Full => 712,
            Tier::Smoke => 24,
        }
    }

    /// Scale of that dataset (1.0 = the paper's 2 033 686 traces).
    fn geolife_scale(self) -> f64 {
        match self {
            Tier::Full => 1.0,
            Tier::Smoke => 0.01,
        }
    }

    /// DFS chunk size in bytes: the paper's 64 MB HDFS block for the
    /// 133 MB GeoLife-like input (three map tasks per job), half of it for
    /// the 122 MB synthetic day (four). The smoke tier shrinks the chunks
    /// with the input.
    fn chunk_bytes(self, kind: Kind) -> usize {
        let full = match kind {
            Kind::DjclusterPoi => 64_000_000,
            _ => 32_000_000,
        };
        match self {
            Tier::Full => full,
            Tier::Smoke => full / 100,
        }
    }
}

/// What one repetition produced.
#[derive(Debug, Clone)]
pub struct RepOutcome {
    /// FNV-1a digest of the output in canonical order.
    pub digest: u64,
    /// Statistics of every MapReduce job the repetition ran.
    pub jobs: Vec<JobStats>,
}

impl RepOutcome {
    /// Shuffle volume of the repetition's jobs, bytes.
    pub fn shuffle_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.sim.shuffle_bytes).sum()
    }
}

/// A workload that has been set up: input in the DFS, oracle computed,
/// one warm-up repetition run and verified.
pub struct Prepared {
    kind: Kind,
    cluster: Cluster,
    dfs: Dfs<MobilityTrace>,
    sampling: SamplingConfig,
    /// Regroup only: the shuffle's memory budget.
    budget: Option<usize>,
    kmeans: KMeansConfig,
    /// K-means only: the sequential reference's centroids.
    kmeans_oracle: Vec<GeoPoint>,
    /// Digest every repetition must reproduce.
    expected_digest: u64,
    /// Traces in the input file.
    pub input_traces: usize,
}

impl Prepared {
    /// Sets `kind` up from `seed`: generates the input, loads it into a
    /// fresh DFS on the paper's Parapluie cluster profile, computes the
    /// sequential oracle, and runs one untimed repetition against it.
    pub fn new(kind: Kind, tier: Tier, seed: u64) -> Result<Self, String> {
        let cluster = Cluster::parapluie();
        let mut dfs = trace_dfs(&cluster, tier.chunk_bytes(kind));
        let mut budget = None;
        match kind {
            Kind::DjclusterPoi => {
                let dataset = SyntheticGeoLife::new(GeneratorConfig {
                    users: tier.geolife_users(),
                    scale: tier.geolife_scale(),
                    seed,
                    ..GeneratorConfig::paper()
                })
                .generate();
                gepeto::dfs_io::put_dataset(&mut dfs, INPUT, &dataset).map_err(err)?;
            }
            _ => {
                let synth = SynthConfig::new(tier.synth_users()).seed(seed);
                synth.to_dfs(&mut dfs, INPUT).map_err(err)?;
                if kind == Kind::RegroupSpill {
                    // 1/64 of the shuffle per buffer: every reducer merges
                    // a handful of sorted runs, as `gepeto synth` does.
                    budget = Some((synth.estimated_plt_bytes() / 64).max(4 * 1024) as usize);
                }
            }
        }
        let mut prepared = Prepared {
            kind,
            cluster,
            input_traces: dfs.num_records(INPUT).map_err(err)?,
            dfs,
            sampling: SamplingConfig::new(60, Technique::ClosestToUpperLimit),
            budget,
            kmeans: KMeansConfig {
                max_iterations: KMEANS_ITERATIONS,
                convergence_delta: -1.0,
                seed,
                ..KMeansConfig::paper(DistanceMetric::SquaredEuclidean)
            },
            kmeans_oracle: Vec::new(),
            expected_digest: 0,
        };
        let oracle_digest = prepared.oracle()?;
        let warm_up = prepared.rep(&mut SpanLog::off(), &Recorder::disabled())?;
        // K-means repetitions are held to the oracle's centroids within a
        // tolerance by `rep` itself; among themselves they must repeat
        // bit for bit, so the warm-up's digest is the one to reproduce.
        prepared.expected_digest = oracle_digest.unwrap_or(warm_up.digest);
        if warm_up.digest != prepared.expected_digest {
            return Err(format!(
                "{}: warm-up digest {:016x} differs from the oracle's {:016x}",
                kind.name(),
                warm_up.digest,
                prepared.expected_digest
            ));
        }
        Ok(prepared)
    }

    /// The workload this is.
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// The digest every repetition must reproduce.
    pub fn expected_digest(&self) -> u64 {
        self.expected_digest
    }

    /// Input size as PLT text, MB (10⁶ bytes) — the DFS's sizing unit.
    pub fn input_mb(&self) -> f64 {
        self.dfs.file_bytes(INPUT).unwrap_or(0) as f64 / 1e6
    }

    /// The DFS holding the input, for the per-layer rates.
    pub fn dfs(&self) -> &Dfs<MobilityTrace> {
        &self.dfs
    }

    /// The cluster profile the jobs run on.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Runs the sequential reference. Returns the digest of its output,
    /// or for k-means, whose jobs sum each cluster's points in another
    /// order than the sequential fold and so differ in the last bits,
    /// stores the reference centroids and returns `None`.
    ///
    /// Sampling and preprocessing mappers keep per-window state that
    /// resets at chunk boundaries, so the sequential functions are applied
    /// chunk by chunk over the same DFS layout the jobs see; with one
    /// chunk this is the plain sequential run.
    fn oracle(&mut self) -> Result<Option<u64>, String> {
        match self.kind {
            Kind::RegroupSpill | Kind::RegroupMem => {
                let sampled = per_chunk(&self.dfs, INPUT, |d| {
                    sampling::sequential_sample(d, &self.sampling)
                })?;
                Ok(Some(digest_dataset(&Dataset::from_traces(sampled))))
            }
            Kind::KmeansLloyd => {
                let points: Vec<GeoPoint> = self
                    .dfs
                    .iter_records(INPUT)
                    .map_err(err)?
                    .map(|t| t.map(|t| t.point))
                    .collect::<Result<_, _>>()
                    .map_err(err)?;
                let mut centroids = self.kmeans_initial_centroids()?;
                for _ in 0..KMEANS_ITERATIONS {
                    centroids =
                        kmeans::sequential_iteration(&points, &centroids, self.kmeans.distance);
                }
                self.kmeans_oracle = centroids;
                Ok(None)
            }
            Kind::DjclusterPoi => {
                let dj = DjConfig::default();
                let mut stage = trace_dfs(&self.cluster, self.dfs.block_bytes());
                let sampled = per_chunk(&self.dfs, INPUT, |d| {
                    sampling::sequential_sample(d, &self.sampling)
                })?;
                put(
                    &mut stage,
                    "sampled",
                    Dataset::from_traces(sampled).to_traces(),
                )?;
                // `sequential_preprocess` is the speed filter followed by
                // the duplicate filter; the jobs re-chunk between the two,
                // so each filter runs alone here, the other neutralised.
                let speed_only = DjConfig {
                    dup_threshold_m: -1.0,
                    ..dj.clone()
                };
                let dedup_only = DjConfig {
                    speed_threshold_mps: f64::INFINITY,
                    ..dj.clone()
                };
                let stationary = per_chunk(&stage, "sampled", |d| {
                    djcluster::sequential_preprocess(d, &speed_only)
                })?;
                put(&mut stage, "stationary", stationary)?;
                let deduped = per_chunk(&stage, "stationary", |d| {
                    djcluster::sequential_preprocess(d, &dedup_only)
                })?;
                Ok(Some(digest_clustering(&djcluster::sequential_djcluster(
                    &deduped, &dj,
                ))))
            }
        }
    }

    /// The centroids `mapreduce_kmeans` starts from: its single-node
    /// initialisation is private, but a zero-iteration run returns it.
    fn kmeans_initial_centroids(&self) -> Result<Vec<GeoPoint>, String> {
        let init_only = KMeansConfig {
            max_iterations: 0,
            ..self.kmeans.clone()
        };
        kmeans::mapreduce_kmeans(&self.cluster, &self.dfs, INPUT, &init_only)
            .map(|r| r.centroids)
            .map_err(err)
    }

    /// Holds k-means output to the sequential reference within 1e-9°.
    fn check_centroids(&self, centroids: &[GeoPoint]) -> Result<(), String> {
        let close = centroids.len() == self.kmeans_oracle.len()
            && centroids
                .iter()
                .zip(&self.kmeans_oracle)
                .all(|(a, b)| (a.lat - b.lat).abs() < 1e-9 && (a.lon - b.lon).abs() < 1e-9);
        if close {
            Ok(())
        } else {
            Err(format!(
                "kmeans-lloyd: centroids {centroids:?} are not within 1e-9 degrees of the \
                 sequential reference {:?}",
                self.kmeans_oracle
            ))
        }
    }

    /// Runs one repetition and digests its output.
    ///
    /// DJ-Cluster is always driven stage by stage through the public
    /// `_with` entry points, so that each stage gets a span when `log` is
    /// on. K-means with `log` off is the library's own driver loop, which
    /// is what is measured; with `log` on the loop is re-expressed over
    /// `mapreduce_iteration_with`, and the outputs are the same.
    pub fn rep(&mut self, log: &mut SpanLog, telemetry: &Recorder) -> Result<RepOutcome, String> {
        match self.kind {
            Kind::RegroupSpill | Kind::RegroupMem => self.rep_regroup(log, telemetry),
            Kind::KmeansLloyd if log.is_on() => self.rep_kmeans_staged(log, telemetry),
            Kind::KmeansLloyd => {
                let result =
                    kmeans::mapreduce_kmeans(&self.cluster, &self.dfs, INPUT, &self.kmeans)
                        .map_err(err)?;
                self.check_centroids(&result.centroids)?;
                Ok(RepOutcome {
                    digest: digest_centroids(&result.centroids),
                    jobs: result.per_iteration.into_iter().map(|it| it.job).collect(),
                })
            }
            Kind::DjclusterPoi => self.rep_djcluster(log, telemetry),
        }
    }

    fn rep_regroup(
        &mut self,
        log: &mut SpanLog,
        telemetry: &Recorder,
    ) -> Result<RepOutcome, String> {
        let (grouped, stats) = log.within("core.sample_by_user_s", |log| {
            let result = sampling::mapreduce_sample_by_user(
                &self.cluster,
                &self.dfs,
                INPUT,
                &self.sampling,
                self.budget,
                telemetry,
            );
            if let Ok((_, stats)) = &result {
                log.child_of_duration("mapred.job_s", stats.real_elapsed);
            }
            result.map_err(err)
        })?;
        // Freeing the output belongs to the repetition, and to this span.
        let digest = log.within("bench.verify_s", |_| {
            let digest = digest_dataset(&grouped);
            drop(grouped);
            digest
        });
        Ok(RepOutcome {
            digest,
            jobs: vec![stats],
        })
    }

    fn rep_kmeans_staged(
        &mut self,
        log: &mut SpanLog,
        telemetry: &Recorder,
    ) -> Result<RepOutcome, String> {
        let mut centroids =
            log.within("core.kmeans_init_s", |_| self.kmeans_initial_centroids())?;
        let mut jobs = Vec::with_capacity(KMEANS_ITERATIONS);
        for _ in 0..KMEANS_ITERATIONS {
            let (next, job) = log.within("core.kmeans_iteration_s", |log| {
                let result = kmeans::mapreduce_iteration_with(
                    &self.cluster,
                    &self.dfs,
                    INPUT,
                    &centroids,
                    &self.kmeans,
                    telemetry,
                );
                if let Ok((_, job)) = &result {
                    log.child_of_duration("mapred.job_s", job.real_elapsed);
                }
                result.map_err(err)
            })?;
            centroids = next;
            jobs.push(job);
        }
        let digest = log.within("bench.verify_s", |_| {
            self.check_centroids(&centroids)?;
            Ok::<_, String>(digest_centroids(&centroids))
        })?;
        Ok(RepOutcome { digest, jobs })
    }

    fn rep_djcluster(
        &mut self,
        log: &mut SpanLog,
        telemetry: &Recorder,
    ) -> Result<RepOutcome, String> {
        let dj = DjConfig::default();
        let rtree = RTreeBuildConfig::default();
        if self.dfs.exists(SAMPLED) {
            self.dfs.delete(SAMPLED).map_err(err)?;
        }
        let sample_job = log.within("core.dj_sample_s", |log| {
            let stats = sampling::mapreduce_sample_to_dfs(
                &self.cluster,
                &mut self.dfs,
                INPUT,
                SAMPLED,
                &self.sampling,
            )
            .map_err(err)?;
            log.child_of_duration("mapred.job_s", stats.real_elapsed);
            Ok::<_, String>(stats)
        })?;
        let mut jobs = vec![sample_job];
        // `mapreduce_djcluster_full` is these two calls; made here, each
        // gets a span when the log is on.
        let preprocessed = format!("{SAMPLED}.preprocessed");
        let pre = log.within("core.dj_preprocess_s", |log| {
            let pre = djcluster::mapreduce_preprocess_with(
                &self.cluster,
                &mut self.dfs,
                SAMPLED,
                &preprocessed,
                &dj,
                telemetry,
            )
            .map_err(err)?;
            for job in pre.jobs.stages() {
                log.child_of_duration("mapred.job_s", job.real_elapsed);
            }
            Ok::<_, String>(pre)
        })?;
        jobs.extend(pre.jobs.stages().iter().cloned());
        let clustering = log.within("core.dj_cluster_s", |log| {
            let (clustering, stats) = djcluster::mapreduce_djcluster_with(
                &self.cluster,
                &self.dfs,
                &preprocessed,
                &dj,
                Some(&rtree),
                telemetry,
            )
            .map_err(err)?;
            let cluster = cluster_jobs(stats);
            for job in &cluster {
                log.child_of_duration("mapred.job_s", job.real_elapsed);
            }
            jobs.extend(cluster);
            Ok::<_, String>(clustering)
        })?;
        let digest = log.within("bench.verify_s", |_| digest_clustering(&clustering));
        Ok(RepOutcome { digest, jobs })
    }
}

/// The four jobs of the clustering phase: three of the R-tree build,
/// then neighbourhood + merge.
fn cluster_jobs(stats: djcluster::DjClusterStats) -> Vec<JobStats> {
    let report = stats
        .rtree_report
        .expect("the R-tree is built with MapReduce");
    vec![
        report.bounds_job,
        report.phase1,
        report.phase2,
        stats.cluster_job,
    ]
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn put(dfs: &mut Dfs<MobilityTrace>, name: &str, traces: Vec<MobilityTrace>) -> Result<(), String> {
    dfs.put_with_sizer(name, traces, |t| t.approx_plt_bytes())
        .map_err(err)
}

/// Applies a sequential reference to each chunk of `file` on its own and
/// concatenates the results in chunk order — what a map-only job over
/// the file computes.
fn per_chunk(
    dfs: &Dfs<MobilityTrace>,
    file: &str,
    reference: impl Fn(&Dataset) -> Dataset,
) -> Result<Vec<MobilityTrace>, String> {
    let mut out = Vec::new();
    for &id in dfs.blocks_of(file).map_err(err)? {
        let chunk = Dataset::from_traces(dfs.block(id).data.iter().copied());
        out.extend(reference(&chunk).iter_traces().copied());
    }
    Ok(out)
}

fn digest_u64s(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FnvHasher::default();
    for w in words {
        h.write(&w.to_le_bytes());
    }
    h.finish()
}

/// Digest of a dataset: user, timestamp and coordinate bits of every
/// trace, users ascending, each trail in time order.
pub fn digest_dataset(dataset: &Dataset) -> u64 {
    digest_u64s(dataset.iter_traces().flat_map(|t| {
        [
            u64::from(t.user),
            t.timestamp.secs() as u64,
            t.point.lat.to_bits(),
            t.point.lon.to_bits(),
        ]
    }))
}

/// Digest of a centroid list: coordinate bits in cluster-id order.
pub fn digest_centroids(centroids: &[GeoPoint]) -> u64 {
    digest_u64s(
        centroids
            .iter()
            .flat_map(|c| [c.lat.to_bits(), c.lon.to_bits()]),
    )
}

/// Digest of a clustering: the noise count, then each cluster of
/// `canonical_ids` as its size and its members' (user, timestamp).
pub fn digest_clustering(clustering: &Clustering) -> u64 {
    let clusters = clustering.canonical_ids();
    digest_u64s(
        std::iter::once(clustering.noise as u64).chain(clusters.iter().flat_map(|c| {
            std::iter::once(c.len() as u64).chain(
                c.iter()
                    .flat_map(|&(user, secs)| [u64::from(user), secs as u64]),
            )
        })),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gepeto_model::Timestamp;

    fn trace(user: u32, secs: i64, lat: f64) -> MobilityTrace {
        MobilityTrace::new(user, GeoPoint::new(lat, 116.4), Timestamp(secs))
    }

    #[test]
    fn workload_names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("regroup"), None);
    }

    #[test]
    fn dataset_digest_ignores_arrival_order_but_not_content() {
        let a = Dataset::from_traces(vec![trace(1, 10, 39.9), trace(2, 5, 39.8)]);
        let b = Dataset::from_traces(vec![trace(2, 5, 39.8), trace(1, 10, 39.9)]);
        assert_eq!(digest_dataset(&a), digest_dataset(&b));
        let moved = Dataset::from_traces(vec![trace(1, 10, 39.9 + 1e-12), trace(2, 5, 39.8)]);
        assert_ne!(digest_dataset(&a), digest_dataset(&moved));
        let later = Dataset::from_traces(vec![trace(1, 11, 39.9), trace(2, 5, 39.8)]);
        assert_ne!(digest_dataset(&a), digest_dataset(&later));
    }

    #[test]
    fn clustering_digest_separates_cluster_boundaries_and_noise() {
        let t = |u, s| trace(u, s, 39.9);
        let one = Clustering {
            clusters: vec![vec![t(1, 1), t(1, 2), t(2, 1), t(2, 2)]],
            noise: 0,
        };
        let two = Clustering {
            clusters: vec![vec![t(1, 1), t(1, 2)], vec![t(2, 1), t(2, 2)]],
            noise: 0,
        };
        assert_ne!(digest_clustering(&one), digest_clustering(&two));
        let noisy = Clustering {
            noise: 1,
            ..one.clone()
        };
        assert_ne!(digest_clustering(&one), digest_clustering(&noisy));
    }

    #[test]
    fn smoke_regroup_paths_agree_with_the_oracle_and_each_other() {
        let spill = Prepared::new(Kind::RegroupSpill, Tier::Smoke, 7).unwrap();
        let mem = Prepared::new(Kind::RegroupMem, Tier::Smoke, 7).unwrap();
        assert_eq!(spill.expected_digest(), mem.expected_digest());
        assert_ne!(
            Prepared::new(Kind::RegroupMem, Tier::Smoke, 8)
                .unwrap()
                .expected_digest(),
            mem.expected_digest(),
            "the seed must reach the generator"
        );
    }

    #[test]
    fn smoke_staged_kmeans_reproduces_the_driver_output() {
        let mut prepared = Prepared::new(Kind::KmeansLloyd, Tier::Smoke, 11).unwrap();
        let mut log = SpanLog::new();
        let staged = log
            .within("bench.rep", |log| prepared.rep(log, &Recorder::enabled()))
            .unwrap();
        assert_eq!(staged.digest, prepared.expected_digest());
        let driver = prepared
            .rep(&mut SpanLog::off(), &Recorder::disabled())
            .unwrap();
        assert_eq!(driver.digest, prepared.expected_digest());
        assert_eq!(driver.jobs.len(), staged.jobs.len());
        assert_eq!(driver.shuffle_bytes(), staged.shuffle_bytes());
    }
}
