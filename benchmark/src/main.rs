//! `gepeto-benchmark`: real host time of the gepeto MapReduce engine on
//! four workloads (three in `BENCHMARK.json`; `regroup-spill` runs by hand
//! only), each repetition checked against a sequential oracle, plus a
//! traced run that times the calls into each crate. See
//! `README.md` beside this crate for the workloads, the metrics and what
//! each is expected to move.

#![warn(missing_docs)]

mod agree;
mod layers;
mod malloc;
mod metrics;
mod procfs;
mod report;
mod spans;
mod stats;
mod workloads;

use report::{Metric, Report};
use spans::SpanLog;
use stats::{median, Summary};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Kind, Prepared, RepOutcome, Tier, DEFAULT_SEED};

use gepeto_mapred::counters::builtin;
use gepeto_telemetry::{LedgerScope, Recorder};

const HELP: &str = "\
gepeto-benchmark: host-time benchmark of the gepeto MapReduce engine

USAGE:
  gepeto-benchmark run --workload W [--seed S] [--seconds N] [--trace 0|1]
                       [--tier full|smoke] [--out FILE]
  gepeto-benchmark agree --a SET --b SET
  gepeto-benchmark --help

run     Sets the workload up from the seed (default 20130520), repeats it
        for N seconds (default: run_seconds of BENCHMARK.json, 30) and
        checks every repetition against the sequential oracle. Prints one
        `name unit value` line per metric, then one JSON object.
        --trace 0  end-to-end metrics: wall_s cpu_s peak_heap_mb setup_s
        --trace 1  per-layer metrics: stage spans, counters, pool, heap and
                   kernel deltas, and the rates of the public functions the
                   workload calls
        --tier smoke  ~1/100 of the input, two repetitions (harness check)
        --out FILE    also write the result, with quartiles and spans, as JSON
agree   Compares two sets of result files (files or directories, comma
        separated, at least 4 untraced runs per workload each) metric by
        metric against the bounds of BENCHMARK.json; exits 1 on disagreement.

WORKLOADS:
  regroup-mem    by-user regroup of a synthetic day (1.9 M traces) in memory
  kmeans-lloyd   8 k-means iterations (k = 11) over the same day
  djcluster-poi  sampling + preprocessing + R-tree build + DJ-Cluster over
                 712 GeoLife-like users (2.0 M traces)
  regroup-spill  the same regroup under a memory budget. Not listed in
                 BENCHMARK.json (its time is the checkout disk's fsync);
                 its traced run adds the spill.* and commit.* metrics

Exit codes: 0 ok, 1 wrong output or disagreement, 2 usage or set-up error.
";

/// `--seconds` when none is given: `run_seconds` of `BENCHMARK.json` (a
/// test in `metrics.rs` holds the two together).
pub(crate) const DEFAULT_SECONDS: f64 = 30.0;

/// Set-ups per untraced run; their median is `setup_s`.
const SETUPS: usize = 3;

/// Fewest timed repetitions (or traced/untraced pairs) of a full run,
/// whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Repetitions (or pairs) of a smoke run.
const SMOKE_REPS: usize = 2;

/// Pool threads: the benchmark is sized for a 2-vCPU box and the count
/// is part of what is measured, so it does not follow the host.
const MAX_THREADS: usize = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("gepeto-benchmark: {message}\n(try --help)");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return Ok(true);
    }
    match args[0].as_str() {
        "run" => {
            let f = Flags::parse(
                &args[1..],
                &["workload", "seed", "seconds", "trace", "tier", "out"],
            )?;
            let kind = f.get("workload").ok_or("run needs --workload")?;
            let kind = Kind::parse(kind).ok_or_else(|| {
                let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                format!("unknown workload `{kind}` (one of {})", names.join(", "))
            })?;
            let run = RunArgs {
                kind,
                seed: f.parsed("seed", DEFAULT_SEED)?,
                seconds: f.parsed("seconds", DEFAULT_SECONDS)?,
                traced: match f.get("trace").unwrap_or("0") {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                },
                tier: match f.get("tier").unwrap_or("full") {
                    "full" => Tier::Full,
                    "smoke" => Tier::Smoke,
                    other => return Err(format!("--tier takes full or smoke, not `{other}`")),
                },
            };
            if !(run.seconds > 0.0 && run.seconds <= 120.0) {
                return Err(format!("--seconds {} is outside (0, 120]", run.seconds));
            }
            run_workload(&run, f.get("out").map(Path::new))
        }
        "agree" => {
            let f = Flags::parse(&args[1..], &["a", "b"])?;
            let (a, b) = f
                .get("a")
                .zip(f.get("b"))
                .ok_or("agree needs --a and --b")?;
            agree::run(a, b, Path::new("BENCHMARK.json"))
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

/// `--key value` flags, checked against the subcommand's list.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .filter(|k| known.contains(k))
                .ok_or_else(|| format!("unknown argument `{arg}`"))?;
            let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Self(map))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read `{v}`")),
        }
    }
}

struct RunArgs {
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
    tier: Tier,
}

impl RunArgs {
    /// Whether the timed loop has measured enough after `reps`
    /// repetitions and `elapsed` seconds.
    fn done(&self, reps: usize, elapsed: f64) -> bool {
        match self.tier {
            Tier::Smoke => reps >= SMOKE_REPS,
            Tier::Full => reps >= MIN_REPS && elapsed >= self.seconds,
        }
    }
}

/// The directory spill files go to: `benchmark/out/spill-<pid>` under the
/// working directory (the checkout root), removed when the run ends.
/// The engine spills under `TMPDIR`, so that is pointed here; the
/// benchmark writes nothing outside its checkout.
struct SpillRoot(PathBuf);

impl SpillRoot {
    fn create() -> Result<Self, String> {
        let dir = std::path::absolute("benchmark/out")
            .map_err(|e| format!("benchmark/out: {e}"))?
            .join(format!("spill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        std::env::set_var("TMPDIR", &dir);
        Ok(Self(dir))
    }
}

impl Drop for SpillRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_workload(run: &RunArgs, out: Option<&Path>) -> Result<bool, String> {
    if !Path::new("benchmark").is_dir() || !Path::new("crates").is_dir() {
        return Err("run from the repository root (benchmark/ and crates/ not found)".into());
    }
    // Before anything large is allocated.
    let malloc = malloc::pin();
    // Before anything touches the pool: the thread count is set once.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(MAX_THREADS);
    gepeto_pool::set_threads(threads);
    let spill = SpillRoot::create()?;
    let env_or_unknown = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    let env = vec![
        ("nproc", nproc.to_string()),
        ("threads", threads.to_string()),
        ("malloc", malloc),
        ("spill_dir", spill.0.display().to_string()),
        ("spill_fs", procfs::fs_type(&spill.0)),
        (
            "gated",
            if Kind::GATED.contains(&run.kind) {
                "yes".to_string()
            } else {
                "no (not listed in BENCHMARK.json; see README.md)".to_string()
            },
        ),
        ("rustc", env_or_unknown("GEPETO_BENCH_RUSTC")),
        ("commit", env_or_unknown("GEPETO_BENCH_COMMIT")),
    ];
    let mut report = if run.traced {
        run_traced(run, &spill.0)?
    } else {
        run_timed(run)?
    };
    report.env.splice(0..0, env);
    report.check_against_table()?;
    report.print_lines();
    if let Some(path) = out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, report.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", report.contract_line());
    Ok(report.correct())
}

/// Whether a repetition produced the expected output; says why not.
fn verified(prepared: &Prepared, outcome: &Result<RepOutcome, String>) -> bool {
    match outcome {
        Ok(o) if o.digest == prepared.expected_digest() => true,
        Ok(o) => {
            eprintln!(
                "{}: repetition digest {:016x}, expected {:016x}",
                prepared.kind().name(),
                o.digest,
                prepared.expected_digest()
            );
            false
        }
        Err(e) => {
            eprintln!("{}: repetition failed: {e}", prepared.kind().name());
            false
        }
    }
}

/// The median of a repetition series, with its quartiles unless every
/// repetition read the same (a count).
fn timing(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
    let reps = Summary::of(samples);
    Metric {
        name,
        unit,
        value: reps.median,
        reps: (reps.min != reps.max).then_some(reps),
        note: String::new(),
    }
}

/// The untraced run: several set-ups, then timed repetitions with
/// telemetry disabled for `--seconds`.
fn run_timed(run: &RunArgs) -> Result<Report, String> {
    let setups = match run.tier {
        Tier::Full => SETUPS,
        Tier::Smoke => 1,
    };
    let mut setup_s = Vec::with_capacity(setups);
    let mut prepared = None;
    for _ in 0..setups {
        // Drop the previous input first, as a fresh process would start.
        drop(prepared.take());
        let started = Instant::now();
        prepared = Some(Prepared::new(run.kind, run.tier, run.seed)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut prepared = prepared.expect("at least one set-up");

    let (mut wall_s, mut cpu_s) = (Vec::new(), Vec::new());
    let (mut peak_heap_mb, mut peak_rss_mb) = (Vec::new(), Vec::new());
    let mut shuffle_bytes: Option<u64> = None;
    let mut failed = 0;
    let loop_started = Instant::now();
    let os_before = procfs::os_counters();
    while !run.done(wall_s.len(), loop_started.elapsed().as_secs_f64()) {
        let rss_per_rep = procfs::reset_peak_rss();
        let cpu_before = procfs::cpu_seconds();
        let heap = LedgerScope::open();
        let started = Instant::now();
        let outcome = prepared.rep(&mut SpanLog::off(), &Recorder::disabled());
        let mut ok = verified(&prepared, &outcome);
        wall_s.push(started.elapsed().as_secs_f64());
        cpu_s.push(procfs::cpu_seconds() - cpu_before);
        peak_heap_mb.push(heap.close().peak_bytes as f64 / 1e6);
        if rss_per_rep {
            peak_rss_mb.push(procfs::peak_rss_mb());
        }
        if let Ok(o) = &outcome {
            // The shuffle volume is a count: it must repeat exactly.
            let first = *shuffle_bytes.get_or_insert(o.shuffle_bytes());
            if o.shuffle_bytes() != first {
                eprintln!("shuffle moved {} bytes, then {}", first, o.shuffle_bytes());
                ok = false;
            }
        }
        failed += usize::from(!ok);
    }
    let os = procfs::os_counters().since(os_before);
    let reps = wall_s.len() as f64;

    // Printed, not gated: the resident set includes what the allocator
    // keeps of set-up's garbage and swings ±15 % from seed to seed, the
    // shuffle volume is a count that follows the seed's input, and the
    // kernel's share of the CPU time is small enough to read 0.
    let info = vec![
        (
            "cpu_user_s",
            format!("{:.4} (mean per repetition)", os.user_s / reps),
        ),
        (
            "cpu_sys_s",
            format!("{:.4} (mean per repetition)", os.sys_s / reps),
        ),
        (
            "minor_faults",
            format!("{:.0} (mean per repetition)", os.minor_faults as f64 / reps),
        ),
        (
            "peak_rss_mb",
            if peak_rss_mb.is_empty() {
                format!(
                    "{:.1} (VmHWM of the process; clear_refs refused)",
                    procfs::peak_rss_mb()
                )
            } else {
                format!("{:.1} (median VmHWM per repetition)", median(&peak_rss_mb))
            },
        ),
        (
            "shuffle_mb",
            format!(
                "{} (identical in every repetition)",
                shuffle_bytes.unwrap_or(0) as f64 / 1e6
            ),
        ),
    ];
    Ok(Report {
        workload: run.kind,
        seed: run.seed,
        traced: false,
        tier: run.tier.name(),
        env: info,
        input_traces: prepared.input_traces,
        input_mb: prepared.input_mb(),
        digest: prepared.expected_digest(),
        attempted: wall_s.len(),
        failed,
        metrics: vec![
            timing("wall_s", "s", &wall_s),
            timing("cpu_s", "s", &cpu_s),
            timing("peak_heap_mb", "MB", &peak_heap_mb),
            timing("setup_s", "s", &setup_s),
        ],
        spans: Vec::new(),
    })
}

/// What one traced repetition measured, by per-layer metric name.
fn traced_rep(
    prepared: &mut Prepared,
    threads: usize,
) -> (BTreeMap<&'static str, f64>, SpanLog, bool) {
    let telemetry = Recorder::enabled();
    let mut log = SpanLog::new();
    let pool_before = gepeto_pool::global_stats();
    let os_before = procfs::os_counters();
    let cpu_before = procfs::cpu_seconds();
    let ledger = LedgerScope::open();
    let outcome = log.within("bench.rep", |log| prepared.rep(log, &telemetry));
    let heap = ledger.close();
    let cpu = procfs::cpu_seconds() - cpu_before;
    let os = procfs::os_counters().since(os_before);
    let pool = gepeto_pool::global_stats();
    let ok = verified(prepared, &outcome);

    let totals = log.totals();
    let own = log.self_times();
    let total = |name: &str| totals.get(name).copied().unwrap_or(0.0);
    let own_of = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let wall = total("bench.rep");
    let jobs = outcome.map(|o| o.jobs).unwrap_or_default();
    let counter_sum = |key: &str| -> f64 {
        jobs.iter()
            .map(|j| j.counters.get(key).copied().unwrap_or(0))
            .sum::<u64>() as f64
    };
    let counter_max = |key: &str| -> f64 {
        jobs.iter()
            .map(|j| j.counters.get(key).copied().unwrap_or(0))
            .max()
            .unwrap_or(0) as f64
    };
    let busy_s = pool.busy_ns().saturating_sub(pool_before.busy_ns()) as f64 / 1e9;

    let mut m = BTreeMap::new();
    for stage in [
        "core.sample_by_user_s",
        "core.kmeans_iteration_s",
        "core.dj_sample_s",
        "core.dj_preprocess_s",
        "core.dj_cluster_s",
        "mapred.job_s",
        "bench.verify_s",
    ] {
        m.insert(stage, total(stage));
    }
    m.insert(
        "core.regroup_materialise_s",
        own_of("core.sample_by_user_s"),
    );
    m.insert(
        "core.kmeans_driver_self_s",
        total("core.kmeans_init_s") + own_of("core.kmeans_iteration_s"),
    );
    m.insert("mapred.jobs", jobs.len() as f64);
    m.insert(
        "trace.unattributed_pct",
        if wall > 0.0 {
            own_of("bench.rep") / wall * 100.0
        } else {
            0.0
        },
    );
    m.insert("bench.rep_wall_s", wall);
    m.insert(
        "mapred.map_output_records",
        counter_sum(builtin::MAP_OUTPUT_RECORDS),
    );
    m.insert(
        "mapred.shuffle_mb",
        jobs.iter().map(|j| j.sim.shuffle_bytes).sum::<u64>() as f64 / 1e6,
    );
    m.insert(
        "spill.spilled_mb",
        counter_sum(builtin::SPILLED_BYTES) / 1e6,
    );
    m.insert("spill.files", counter_sum(builtin::SPILL_FILES));
    m.insert(
        "mapred.mem_accounted_peak_mb",
        counter_max(builtin::MEM_ACCOUNTED_PEAK) / 1e6,
    );
    m.insert("geo.distance_evals", counter_sum(builtin::DISTANCE_EVALS));
    m.insert(
        "core.dj_shuffle_saved_mb",
        counter_sum(builtin::SHUFFLE_BYTES_SAVED) / 1e6,
    );
    m.insert(
        "pool.parallelism",
        if wall > 0.0 { cpu / wall } else { 0.0 },
    );
    m.insert(
        "pool.tasks",
        pool.tasks.saturating_sub(pool_before.tasks) as f64,
    );
    m.insert(
        "pool.steals",
        pool.steals.saturating_sub(pool_before.steals) as f64,
    );
    m.insert("pool.idle_s", (threads as f64 * wall - busy_s).max(0.0));
    m.insert("telemetry.heap_allocated_mb", heap.allocated as f64 / 1e6);
    m.insert("telemetry.heap_allocs", heap.allocs as f64);
    m.insert("telemetry.heap_peak_mb", heap.peak_delta as f64 / 1e6);
    m.insert("os.cpu_user_s", os.user_s);
    m.insert("os.cpu_sys_s", os.sys_s);
    m.insert("os.minor_faults", os.minor_faults as f64);
    (m, log, ok)
}

/// The traced run: one set-up, the public-function rates, then traced
/// repetitions (spans on, `Recorder::enabled()`) alternated with
/// untraced ones in the same process, so that their difference is the
/// tracing overhead.
fn run_traced(run: &RunArgs, spill_root: &Path) -> Result<Report, String> {
    let run_started = Instant::now();
    let mut prepared = Prepared::new(run.kind, run.tier, run.seed)?;
    let threads = gepeto_pool::global().threads();
    let rates = layers::measure(&prepared, run.seed, spill_root)?;

    let mut untraced_wall = Vec::new();
    let mut traced: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut last_log = SpanLog::off();
    let mut failed = 0;
    while !run.done(traced.len(), run_started.elapsed().as_secs_f64()) {
        let started = Instant::now();
        let outcome = prepared.rep(&mut SpanLog::off(), &Recorder::disabled());
        untraced_wall.push(started.elapsed().as_secs_f64());
        failed += usize::from(!verified(&prepared, &outcome));

        let (measured, log, ok) = traced_rep(&mut prepared, threads);
        failed += usize::from(!ok);
        traced.push(measured);
        last_log = log;
    }

    let column = |name: &str| -> Vec<f64> { traced.iter().map(|m| m[name]).collect() };
    let overhead_pct = (median(&column("bench.rep_wall_s")) / median(&untraced_wall) - 1.0) * 100.0;
    let metrics = metrics::expected(true, run.kind)
        .map(|def| {
            if let Some(rate) = rates.iter().find(|r| r.name == def.name) {
                return Metric {
                    name: def.name,
                    unit: def.unit,
                    value: rate.value,
                    reps: None,
                    note: format!("median of {} calls, {}", layers::CALLS, rate.work),
                };
            }
            if def.name == "trace.overhead_pct" {
                return Metric {
                    name: def.name,
                    unit: def.unit,
                    value: overhead_pct,
                    reps: None,
                    note: format!(
                        "traced {:.4} s vs untraced {:.4} s per repetition",
                        median(&column("bench.rep_wall_s")),
                        median(&untraced_wall)
                    ),
                };
            }
            if !traced[0].contains_key(def.name) {
                return Metric {
                    name: def.name,
                    unit: def.unit,
                    value: 0.0,
                    reps: None,
                    note: "not measured: this workload does not call the function".into(),
                };
            }
            let samples = column(def.name);
            if def.name.starts_with("os.cpu_") {
                // 10 ms ticks: the mean over the repetitions resolves
                // what a median of tick counts cannot.
                return Metric {
                    name: def.name,
                    unit: def.unit,
                    value: samples.iter().sum::<f64>() / samples.len() as f64,
                    reps: None,
                    note: format!("mean of {} traced repetitions", samples.len()),
                };
            }
            timing(def.name, def.unit, &samples)
        })
        .collect();
    Ok(Report {
        workload: run.kind,
        seed: run.seed,
        traced: true,
        tier: run.tier.name(),
        env: Vec::new(),
        input_traces: prepared.input_traces,
        input_mb: prepared.input_mb(),
        digest: prepared.expected_digest(),
        attempted: 2 * traced.len(),
        failed,
        metrics,
        spans: last_log.spans().to_vec(),
    })
}
