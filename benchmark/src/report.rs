//! A run's result: the printed `name unit value` lines, the one-line JSON
//! object that ends standard output, and the result file `agree` reads.
//! All JSON goes through `gepeto_telemetry::json`.

use crate::metrics;
use crate::spans::Span;
use crate::stats::Summary;
use crate::workloads::Kind;
use gepeto_telemetry::json::{push_f64, push_str_lit, Writer};
use std::collections::BTreeSet;

/// Schema tag of result files.
pub const SCHEMA: &str = "gepeto-benchmark/1";

/// One emitted metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from the [`metrics`] table.
    pub name: &'static str,
    /// Unit from the table.
    pub unit: &'static str,
    /// The reported value (a median, where repetitions were timed).
    pub value: f64,
    /// Distribution over the repetitions behind `value`, if any.
    pub reps: Option<Summary>,
    /// Free-form note printed beside the value (work per call, …).
    pub note: String,
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload.
    pub workload: Kind,
    /// `--seed`.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// `full` or `smoke`.
    pub tier: &'static str,
    /// Facts about the machine and the build.
    pub env: Vec<(&'static str, String)>,
    /// Traces in the input.
    pub input_traces: usize,
    /// Input size as PLT text, MB.
    pub input_mb: f64,
    /// Digest every repetition had to reproduce.
    pub digest: u64,
    /// Repetitions attempted.
    pub attempted: usize,
    /// Repetitions that returned an error or a wrong digest.
    pub failed: usize,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
    /// Spans of the last traced repetition.
    pub spans: Vec<Span>,
}

impl Report {
    /// Whether every repetition produced the oracle's output.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Checks the emitted metrics against the table: same names, same
    /// order, finite values.
    pub fn check_against_table(&self) -> Result<(), String> {
        let emitted: Vec<&str> = self.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = metrics::expected(self.traced, self.workload)
            .map(|m| m.name)
            .collect();
        if emitted != expected {
            let e: BTreeSet<_> = emitted.iter().collect();
            let x: BTreeSet<_> = expected.iter().collect();
            return Err(format!(
                "emitted metrics differ from the table: missing {:?}, unexpected {:?}",
                x.difference(&e).collect::<Vec<_>>(),
                e.difference(&x).collect::<Vec<_>>()
            ));
        }
        for m in &self.metrics {
            if !metrics::valid_name(m.name) || !metrics::valid_unit(m.unit) {
                return Err(format!(
                    "metric `{}` [{}] is not a legal name and unit",
                    m.name, m.unit
                ));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite", m.name));
            }
        }
        Ok(())
    }

    /// The human-readable lines: environment, input size, then one
    /// `name unit value` line per metric with its repetition quartiles.
    pub fn print_lines(&self) {
        println!(
            "# workload {} seed {} trace {} tier {}",
            self.workload.name(),
            self.seed,
            self.traced as u8,
            self.tier
        );
        for (key, value) in &self.env {
            println!("# {key} {value}");
        }
        println!(
            "# input {} traces, {:.1} MB as PLT text",
            self.input_traces, self.input_mb
        );
        println!(
            "# digest {:016x}, {} of {} repetitions failed",
            self.digest, self.failed, self.attempted
        );
        for m in &self.metrics {
            let mut line = format!("{} {} {}", m.name, m.unit, m.value);
            if let Some(s) = &m.reps {
                line.push_str(&format!(
                    "  # n={} min={:.4} q1={:.4} median={:.4} q3={:.4} max={:.4}",
                    s.n, s.min, s.q1, s.median, s.q3, s.max
                ));
            }
            if !m.note.is_empty() {
                line.push_str(&format!("  # {}", m.note));
            }
            println!("{line}");
        }
    }

    /// The single-line JSON object the benchmark contract asks for as the
    /// last line of standard output.
    pub fn contract_line(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        ));
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_str_lit(&mut out, m.name);
            out.push_str(": {\"value\": ");
            push_f64(&mut out, m.value);
            out.push_str(", \"unit\": ");
            push_str_lit(&mut out, m.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// The result file: everything above plus quartiles and spans.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.open_obj();
        w.str_field("schema", SCHEMA);
        w.str_field("workload", self.workload.name());
        w.u64_field("seed", self.seed);
        w.u64_field("trace", self.traced as u64);
        w.str_field("tier", self.tier);
        w.open_obj_field("env");
        for (key, value) in &self.env {
            w.str_field(key, value);
        }
        w.close_obj();
        w.open_obj_field("input");
        w.u64_field("traces", self.input_traces as u64);
        w.f64_field("mb", self.input_mb);
        w.close_obj();
        w.str_field("digest", &format!("{:016x}", self.digest));
        w.u64_field("correct", self.correct() as u64);
        w.u64_field("attempted", self.attempted as u64);
        w.u64_field("failed", self.failed as u64);
        w.open_obj_field("metrics");
        for m in &self.metrics {
            w.open_obj_field(m.name);
            w.f64_field("value", m.value);
            w.str_field("unit", m.unit);
            if let Some(s) = &m.reps {
                w.u64_field("n", s.n as u64);
                w.f64_field("min", s.min);
                w.f64_field("q1", s.q1);
                w.f64_field("median", s.median);
                w.f64_field("q3", s.q3);
                w.f64_field("max", s.max);
            }
            if !m.note.is_empty() {
                w.str_field("note", &m.note);
            }
            w.close_obj();
        }
        w.close_obj();
        w.open_arr_field("spans");
        for s in &self.spans {
            w.open_obj();
            w.str_field("name", s.name);
            w.u64_field("start_us", s.start_us);
            w.u64_field("end_us", s.end_us);
            if let Some(p) = s.parent {
                w.u64_field("parent", p as u64);
            }
            w.close_obj();
        }
        w.close_arr();
        w.close_obj();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gepeto_telemetry::json::Json;

    fn report(traced: bool) -> Report {
        Report {
            workload: Kind::RegroupMem,
            seed: 7,
            traced,
            tier: "smoke",
            env: vec![("threads", "2".into())],
            input_traces: 10,
            input_mb: 0.5,
            digest: 0xabc,
            attempted: 3,
            failed: 0,
            metrics: metrics::expected(traced, Kind::RegroupMem)
                .enumerate()
                .map(|(i, d)| Metric {
                    name: d.name,
                    unit: d.unit,
                    value: 1.5 + i as f64,
                    reps: (i == 0).then(|| Summary::of(&[1.0, 2.0, 3.0])),
                    note: String::new(),
                })
                .collect(),
            spans: vec![Span {
                name: "bench.rep",
                start_us: 0,
                end_us: 9,
                parent: None,
            }],
        }
    }

    #[test]
    fn contract_line_is_one_json_object_with_exactly_the_four_keys() {
        for traced in [false, true] {
            let r = report(traced);
            r.check_against_table().unwrap();
            let line = r.contract_line();
            assert!(!line.contains('\n'));
            let doc = Json::parse(&line).unwrap();
            let keys: Vec<&str> = doc
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
            let emitted = doc.get("metrics").unwrap().as_obj().unwrap();
            assert_eq!(
                emitted.len(),
                metrics::expected(traced, Kind::RegroupMem).count()
            );
            let first = &emitted[0].1;
            assert_eq!(first.get("value").unwrap().as_f64(), Some(1.5));
            assert_eq!(first.get("unit").unwrap().as_str(), Some("s"));
        }
    }

    #[test]
    fn a_missing_or_extra_metric_is_refused() {
        let mut r = report(false);
        r.metrics.pop();
        assert!(r.check_against_table().unwrap_err().contains("setup_s"));
        let mut r = report(false);
        r.metrics[0].value = f64::NAN;
        assert!(r.check_against_table().is_err());
        let mut r = report(false);
        r.failed = 1;
        assert!(!r.correct());
    }

    #[test]
    fn result_file_round_trips_through_the_shared_parser() {
        let doc = Json::parse(&report(true).to_json()).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(doc.get("trace").unwrap().as_u64(), Some(1));
        let wall = doc
            .get("metrics")
            .unwrap()
            .get(metrics::PER_LAYER[0].name)
            .unwrap();
        assert_eq!(wall.get("median").unwrap().as_f64(), Some(2.0));
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 1);
    }
}
