//! `agree`: do two sets of runs of the same code tell the same story?
//!
//! For every workload and end-to-end metric it prints both sets' medians
//! and quartiles, each set's spread (inter-quartile range over median)
//! and how much worse set B's median is than set A's, and fails when a
//! difference or a spread exceeds the metric's bound in
//! `BENCHMARK.json` — the rule the benchmark's gate applies. `setup_s`
//! is exempt from the spread rule, as it is there.

use crate::metrics::{Better, END_TO_END};
use crate::stats::Summary;
use crate::workloads::Kind;
use gepeto_telemetry::json::Json;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Fewest runs per workload a set may hold.
pub const MIN_RUNS: usize = 4;

/// metric values by (workload, metric).
type Samples = BTreeMap<(String, String), Vec<f64>>;

/// The result files a `--a`/`--b` argument names: each comma-separated
/// entry is a file, or a directory whose `*.json` files are taken.
fn result_files(arg: &str) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for entry in arg.split(',').filter(|e| !e.is_empty()) {
        let path = Path::new(entry);
        if path.is_dir() {
            let listing = fs::read_dir(path).map_err(|e| format!("{entry}: {e}"))?;
            let mut found: Vec<PathBuf> = listing
                .flatten()
                .map(|d| d.path())
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect();
            found.sort();
            files.extend(found);
        } else {
            files.push(path.to_path_buf());
        }
    }
    Ok(files)
}

/// Reads the untraced result files of one set.
fn load(arg: &str) -> Result<Samples, String> {
    let mut samples = Samples::new();
    for file in result_files(arg)? {
        let text = fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        if doc.get("trace").and_then(Json::as_u64) != Some(0) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", file.display()))?;
        for m in END_TO_END {
            let value = doc
                .get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: no metric {}", file.display(), m.name))?;
            samples
                .entry((workload.to_string(), m.name.to_string()))
                .or_default()
                .push(value);
        }
    }
    Ok(samples)
}

/// The end-to-end bounds of `BENCHMARK.json`, by metric name.
pub fn bounds(benchmark_json: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let entries = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end array")?;
    entries
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Json::as_str);
            let bound = e.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "end_to_end entry without name or bound".to_string())
        })
        .collect()
}

/// One compared (workload, metric) pair.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Set A.
    pub a: Summary,
    /// Set B.
    pub b: Summary,
    /// How much worse B's median is than A's, as a share of A's
    /// (negative = better), in the metric's own direction.
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// Why the pair fails, if it does.
    pub verdict: Option<String>,
}

/// Compares two sample sets under `bounds`.
pub fn compare(
    a: &Samples,
    b: &Samples,
    bounds: &BTreeMap<String, f64>,
) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for kind in Kind::ALL {
        for m in END_TO_END {
            let key = (kind.name().to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            if va.len() < MIN_RUNS || vb.len() < MIN_RUNS {
                return Err(format!(
                    "{} {}: {} and {} runs, need at least {MIN_RUNS} per set",
                    key.0,
                    key.1,
                    va.len(),
                    vb.len()
                ));
            }
            let bound = *bounds
                .get(m.name)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", m.name))?;
            let (sa, sb) = (Summary::of(va), Summary::of(vb));
            let worse_by = match m.better {
                Better::Lower => (sb.median - sa.median) / sa.median,
                Better::Higher => (sa.median - sb.median) / sa.median,
            };
            let spread = sa.spread().max(sb.spread());
            let verdict = if worse_by.abs() > bound {
                Some(format!("medians differ by {:.2} %", worse_by.abs() * 100.0))
            } else if m.name != "setup_s" && spread > bound {
                Some(format!("spread {:.2} % exceeds the bound", spread * 100.0))
            } else {
                None
            };
            rows.push(Row {
                workload: key.0,
                metric: key.1,
                a: sa,
                b: sb,
                worse_by,
                bound,
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two sets share no workload".into());
    }
    Ok(rows)
}

/// Renders the comparison as a Markdown table.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "| workload | metric | A median [q1, q3] (n) | B median [q1, q3] (n) | spread A | spread B | B vs A | bound | verdict |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    let cell = |s: &Summary| format!("{:.4} [{:.4}, {:.4}] ({})", s.median, s.q1, s.q3, s.n);
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.2} % | {:.2} % | {:+.2} % | {:.1} % | {} |\n",
            r.workload,
            r.metric,
            cell(&r.a),
            cell(&r.b),
            r.a.spread() * 100.0,
            r.b.spread() * 100.0,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.verdict.as_deref().unwrap_or("agree"),
        ));
    }
    out
}

/// Runs the subcommand; `Ok(true)` when every pair agrees.
pub fn run(a: &str, b: &str, benchmark_json: &Path) -> Result<bool, String> {
    let rows = compare(&load(a)?, &load(b)?, &bounds(benchmark_json)?)?;
    print!("{}", render(&rows));
    let failures = rows.iter().filter(|r| r.verdict.is_some()).count();
    println!(
        "\n{} of {} workload x metric pairs disagree.",
        failures,
        rows.len()
    );
    Ok(failures == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(wall: &[f64]) -> Samples {
        let mut s = Samples::new();
        for m in END_TO_END {
            let values = if m.name == "wall_s" {
                wall.to_vec()
            } else {
                vec![2.0; wall.len()]
            };
            s.insert(("regroup-mem".into(), m.name.into()), values);
        }
        s
    }

    fn bounds_of(bound: f64) -> BTreeMap<String, f64> {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), bound))
            .collect()
    }

    #[test]
    fn equal_sets_agree_and_shifted_medians_do_not() {
        let a = set(&[1.00, 1.01, 1.02, 1.03]);
        let rows = compare(&a, &a, &bounds_of(0.1)).unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        assert!(rows.iter().all(|r| r.verdict.is_none()));

        let slower = set(&[1.20, 1.21, 1.22, 1.23]);
        let rows = compare(&a, &slower, &bounds_of(0.1)).unwrap();
        let wall = rows.iter().find(|r| r.metric == "wall_s").unwrap();
        assert!(wall.worse_by > 0.19 && wall.verdict.is_some());
        assert!(render(&rows).contains("medians differ"));
    }

    #[test]
    fn a_noisy_set_fails_on_spread_even_with_equal_medians() {
        let noisy = set(&[0.5, 1.0, 1.0, 1.5]);
        let rows = compare(&noisy, &noisy, &bounds_of(0.1)).unwrap();
        let wall = rows.iter().find(|r| r.metric == "wall_s").unwrap();
        assert_eq!(wall.worse_by, 0.0);
        assert!(wall.verdict.as_deref().unwrap().contains("spread"));
    }

    #[test]
    fn too_few_runs_are_an_error() {
        let a = set(&[1.0, 1.0, 1.0]);
        assert!(compare(&a, &a, &bounds_of(0.1))
            .unwrap_err()
            .contains("at least 4"));
    }
}
