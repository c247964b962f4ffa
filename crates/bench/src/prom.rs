//! Schema validation for Prometheus text-exposition files.
//!
//! The `--prom-out` flag of the `gepeto` CLI writes a live metrics
//! snapshot in the Prometheus text format (version 0.0.4).  This module
//! checks such a file without depending on a real Prometheus server:
//! every sample must belong to a declared metric family (`# TYPE`), and
//! histogram families must expose internally consistent cumulative
//! buckets.  `gepeto-bench validate-prom` and `scripts/check.sh` use it
//! as a smoke gate so a malformed exposition fails CI instead of
//! silently confusing a scraper.

use std::collections::BTreeMap;

/// The declared kind of a metric family (`# TYPE name <kind>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyKind {
    /// A monotonically increasing counter.
    Counter,
    /// A value that can go up and down.
    Gauge,
    /// A cumulative histogram with `_bucket`/`_sum`/`_count` series.
    Histogram,
}

impl FamilyKind {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "counter" => Some(Self::Counter),
            "gauge" => Some(Self::Gauge),
            "histogram" => Some(Self::Histogram),
            _ => None,
        }
    }
}

/// One parsed sample line: `name{labels} value`.
#[derive(Debug, Clone)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
    line: usize,
}

/// Summary of a successfully validated exposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromReport {
    /// Declared metric families, in file order of first declaration.
    pub families: Vec<String>,
    /// Total number of sample lines.
    pub samples: usize,
}

/// Validates a Prometheus text exposition.
///
/// Returns a [`PromReport`] when the document is well-formed, or a
/// human-readable description of the first problem found.  The checks:
///
/// - every non-comment line parses as `name{labels} value`;
/// - metric names match `[a-zA-Z_:][a-zA-Z0-9_:]*` and label names
///   match `[a-zA-Z_][a-zA-Z0-9_]*`;
/// - every sample belongs to a `# TYPE`-declared family (histogram
///   samples may carry the `_bucket`/`_sum`/`_count` suffixes);
/// - each histogram family has at least one `le` bucket, cumulative
///   bucket counts that never decrease as `le` grows, an `+Inf` bucket,
///   and `_sum`/`_count` series with `_count` equal to the `+Inf`
///   bucket.
pub fn validate(text: &str) -> Result<PromReport, String> {
    let mut families: BTreeMap<String, FamilyKind> = BTreeMap::new();
    let mut family_order: Vec<String> = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts
                    .next()
                    .ok_or_else(|| format!("line {lineno}: # TYPE without a metric name"))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| format!("line {lineno}: # TYPE {name} without a kind"))?;
                if !is_metric_name(name) {
                    return Err(format!("line {lineno}: bad metric name '{name}'"));
                }
                let kind = FamilyKind::parse(kind)
                    .ok_or_else(|| format!("line {lineno}: unknown family kind '{kind}'"))?;
                if families.insert(name.to_string(), kind).is_some() {
                    return Err(format!("line {lineno}: duplicate # TYPE for '{name}'"));
                }
                family_order.push(name.to_string());
            } else if let Some(decl) = rest.strip_prefix("HELP ") {
                let name = decl.split_whitespace().next().unwrap_or("");
                if !is_metric_name(name) {
                    return Err(format!(
                        "line {lineno}: # HELP with bad metric name '{name}'"
                    ));
                }
            }
            // Other comments are legal and ignored.
            continue;
        }
        samples.push(parse_sample(line, lineno)?);
    }

    // Every sample must belong to a declared family.
    for s in &samples {
        let family = family_of(&s.name, &families).ok_or_else(|| {
            format!(
                "line {}: sample '{}' has no matching # TYPE declaration",
                s.line, s.name
            )
        })?;
        let kind = families[&family];
        let suffixed = s.name != family;
        if suffixed && kind != FamilyKind::Histogram {
            return Err(format!(
                "line {}: suffixed sample '{}' on non-histogram family '{family}'",
                s.line, s.name
            ));
        }
    }

    // Histogram families must be internally consistent.
    for (name, kind) in &families {
        if *kind == FamilyKind::Histogram {
            check_histogram(name, &samples)?;
        }
    }

    Ok(PromReport {
        families: family_order,
        samples: samples.len(),
    })
}

/// Resolves a sample name to its declared family, stripping histogram
/// suffixes when the suffixed form is what's declared.
fn family_of(name: &str, families: &BTreeMap<String, FamilyKind>) -> Option<String> {
    if families.contains_key(name) {
        return Some(name.to_string());
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if families.get(base) == Some(&FamilyKind::Histogram) {
                return Some(base.to_string());
            }
        }
    }
    None
}

fn check_histogram(name: &str, samples: &[Sample]) -> Result<(), String> {
    let bucket_name = format!("{name}_bucket");
    let mut buckets: Vec<(f64, u64, usize)> = Vec::new();
    let mut count: Option<(f64, usize)> = None;
    let mut has_sum = false;
    for s in samples {
        if s.name == bucket_name {
            let le = s
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.as_str())
                .ok_or_else(|| format!("line {}: histogram bucket without an le label", s.line))?;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse::<f64>()
                    .map_err(|_| format!("line {}: bad le bound '{le}'", s.line))?
            };
            buckets.push((bound, s.value as u64, s.line));
        } else if s.name == format!("{name}_count") {
            count = Some((s.value, s.line));
        } else if s.name == format!("{name}_sum") {
            has_sum = true;
        }
    }
    if buckets.is_empty() {
        return Err(format!("histogram '{name}' has no buckets"));
    }
    if !has_sum {
        return Err(format!("histogram '{name}' has no _sum series"));
    }
    let (count, _) = count.ok_or_else(|| format!("histogram '{name}' has no _count series"))?;
    buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut prev = 0u64;
    for (bound, cum, line) in &buckets {
        if *cum < prev {
            return Err(format!(
                "line {line}: histogram '{name}' bucket le={bound} decreases ({cum} < {prev})"
            ));
        }
        prev = *cum;
    }
    let (inf_bound, inf_cum, _) = buckets.last().unwrap();
    if !inf_bound.is_infinite() {
        return Err(format!("histogram '{name}' has no le=\"+Inf\" bucket"));
    }
    if *inf_cum as f64 != count {
        return Err(format!(
            "histogram '{name}': +Inf bucket {inf_cum} != _count {count}"
        ));
    }
    Ok(())
}

fn parse_sample(line: &str, lineno: usize) -> Result<Sample, String> {
    let bytes = line.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() && is_name_char(bytes[i] as char, i == 0) {
        i += 1;
    }
    if i == 0 {
        return Err(format!("line {lineno}: expected a metric name"));
    }
    let name = line[..i].to_string();
    let mut labels = Vec::new();
    let rest = &line[i..];
    let rest = if let Some(body) = rest.strip_prefix('{') {
        let close = body
            .find('}')
            .ok_or_else(|| format!("line {lineno}: unterminated label set"))?;
        labels = parse_labels(&body[..close], lineno)?;
        &body[close + 1..]
    } else {
        rest
    };
    let mut parts = rest.split_whitespace();
    let value = parts
        .next()
        .ok_or_else(|| format!("line {lineno}: sample '{name}' has no value"))?;
    let value: f64 = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v
            .parse()
            .map_err(|_| format!("line {lineno}: bad sample value '{v}'"))?,
    };
    // An optional integer timestamp may follow; anything else is junk.
    if let Some(ts) = parts.next() {
        ts.parse::<i64>()
            .map_err(|_| format!("line {lineno}: trailing junk '{ts}'"))?;
    }
    if parts.next().is_some() {
        return Err(format!("line {lineno}: too many fields"));
    }
    Ok(Sample {
        name,
        labels,
        value,
        line: lineno,
    })
}

fn parse_labels(body: &str, lineno: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {lineno}: label without '='"))?;
        let key = rest[..eq].trim();
        if !is_label_name(key) {
            return Err(format!("line {lineno}: bad label name '{key}'"));
        }
        let after = rest[eq + 1..].trim_start();
        let inner = after
            .strip_prefix('"')
            .ok_or_else(|| format!("line {lineno}: label '{key}' value is not quoted"))?;
        // Scan to the closing quote, honoring backslash escapes.
        let mut value = String::new();
        let mut chars = inner.char_indices();
        let mut end = None;
        while let Some((pos, c)) = chars.next() {
            match c {
                '"' => {
                    end = Some(pos);
                    break;
                }
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    other => {
                        return Err(format!(
                            "line {lineno}: bad escape '\\{}'",
                            other.map(|(_, c)| c).unwrap_or(' ')
                        ));
                    }
                },
                c if (c as u32) < 0x20 => {
                    return Err(format!(
                        "line {lineno}: label '{key}' value contains an unescaped control \
                         character (U+{:04X}) — exporters must escape with \\n or \\\\",
                        c as u32
                    ));
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or_else(|| format!("line {lineno}: unterminated label value"))?;
        labels.push((key.to_string(), value));
        rest = inner[end + 1..].trim_start();
        if let Some(after_comma) = rest.strip_prefix(',') {
            rest = after_comma.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("line {lineno}: expected ',' between labels"));
        }
    }
    Ok(labels)
}

fn is_name_char(c: char, first: bool) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':' || (!first && c.is_ascii_digit())
}

fn is_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .enumerate()
            .all(|(i, c)| is_name_char(c, i == 0))
}

fn is_label_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .enumerate()
            .all(|(i, c)| c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# HELP gepeto_map_tasks_done Completed map tasks.
# TYPE gepeto_map_tasks_done counter
gepeto_map_tasks_done 12
# TYPE gepeto_node_busy_seconds gauge
gepeto_node_busy_seconds{node=\"0\"} 41.5
gepeto_node_busy_seconds{node=\"1\"} 39.25
# TYPE gepeto_task_map_us histogram
gepeto_task_map_us_bucket{le=\"1023\"} 3
gepeto_task_map_us_bucket{le=\"2047\"} 9
gepeto_task_map_us_bucket{le=\"+Inf\"} 12
gepeto_task_map_us_sum 19000
gepeto_task_map_us_count 12
";

    #[test]
    fn accepts_a_well_formed_exposition() {
        let report = validate(GOOD).unwrap();
        assert_eq!(
            report.families,
            vec![
                "gepeto_map_tasks_done",
                "gepeto_node_busy_seconds",
                "gepeto_task_map_us"
            ]
        );
        assert_eq!(report.samples, 8);
    }

    #[test]
    fn rejects_undeclared_and_misdeclared_samples() {
        let err = validate("gepeto_mystery 1\n").unwrap_err();
        assert!(err.contains("no matching # TYPE"), "{err}");
        let err = validate("# TYPE x counter\nx_bucket{le=\"1\"} 1\n").unwrap_err();
        assert!(err.contains("no matching # TYPE"), "{err}");
        let err = validate("# TYPE x gauge\n# TYPE x counter\n").unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        let err = validate("# TYPE x widget\n").unwrap_err();
        assert!(err.contains("unknown family kind"), "{err}");
    }

    #[test]
    fn rejects_inconsistent_histograms() {
        let err = validate(
            "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
             h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n",
        )
        .unwrap_err();
        assert!(err.contains("decreases"), "{err}");
        let err =
            validate("# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 9\nh_count 5\n").unwrap_err();
        assert!(err.contains("+Inf"), "{err}");
        let err = validate("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 9\nh_count 5\n")
            .unwrap_err();
        assert!(err.contains("!= _count"), "{err}");
        let err = validate("# TYPE h histogram\nh_sum 9\nh_count 5\n").unwrap_err();
        assert!(err.contains("no buckets"), "{err}");
    }

    #[test]
    fn parses_label_escapes_and_rejects_malformed_lines() {
        let report = validate("# TYPE g gauge\ng{path=\"a\\\\b\\\"c\\nd\"} 1\n").unwrap();
        assert_eq!(report.samples, 1);
        let err = validate("# TYPE g gauge\ng{path=\"open} 1\n").unwrap_err();
        assert!(err.contains("unterminated"), "{err}");
        let err = validate("# TYPE g gauge\ng nope\n").unwrap_err();
        assert!(err.contains("bad sample value"), "{err}");
        let err = validate("# TYPE g gauge\n9metric 1\n").unwrap_err();
        assert!(err.contains("expected a metric name"), "{err}");
    }

    #[test]
    fn rejects_raw_control_characters_in_label_values() {
        let err = validate("# TYPE g gauge\ng{cmd=\"a\tb\"} 1\n").unwrap_err();
        assert!(err.contains("unescaped control character"), "{err}");
        // The escaped form of the same payload is fine.
        let ok = validate("# TYPE g gauge\ng{cmd=\"a\\nb\"} 1\n").unwrap();
        assert_eq!(ok.samples, 1);
    }

    #[test]
    fn validates_the_live_monitor_exposition() {
        // End-to-end: the telemetry monitor's own output must pass.
        use gepeto_telemetry::registry::{JOBS_STARTED, MAP_TASKS_DONE, MAP_TASKS_SCHEDULED};
        let monitor = gepeto_telemetry::Monitor::new();
        monitor.add(JOBS_STARTED, 1);
        monitor.add(MAP_TASKS_SCHEDULED, 4);
        monitor.add(MAP_TASKS_DONE, 1);
        monitor.node_busy(0, 12.5);
        monitor.observe("task.map.us", 1500);
        monitor.observe("task.map.us", 90);
        let text = monitor.snapshot().to_prometheus();
        let report = validate(&text).unwrap();
        assert!(report.families.iter().any(|f| f == "gepeto_task_map_us"));
        assert!(report.samples > 0);
    }
}
