//! The names, units and directions of every metric the benchmark emits.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics (with
//! the end-to-end bounds); a test below holds the two together, and a
//! run refuses to print a result whose metric set differs from this
//! table.

use crate::workloads::Kind;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric of the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`; per-layer names are `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees, per workload; printed by an untraced
/// run.
pub const END_TO_END: &[MetricDef] = &[
    lower("wall_s", "s"),
    lower("cpu_s", "s"),
    lower("peak_heap_mb", "MB"),
    lower("setup_s", "s"),
];

/// What single layers did; printed by a traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // Stage spans around the public calls of one repetition.
    lower("core.sample_by_user_s", "s"),
    lower("core.regroup_materialise_s", "s"),
    lower("core.kmeans_iteration_s", "s"),
    lower("core.kmeans_driver_self_s", "s"),
    lower("core.dj_sample_s", "s"),
    lower("core.dj_preprocess_s", "s"),
    lower("core.dj_cluster_s", "s"),
    lower("mapred.job_s", "s"),
    lower("mapred.jobs", "count"),
    lower("bench.verify_s", "s"),
    lower("trace.unattributed_pct", "%"),
    lower("trace.overhead_pct", "%"),
    // Exact counts from the jobs' counters.
    lower("mapred.map_output_records", "count"),
    lower("mapred.shuffle_mb", "MB"),
    lower("mapred.mem_accounted_peak_mb", "MB"),
    lower("geo.distance_evals", "count"),
    higher("core.dj_shuffle_saved_mb", "MB"),
    // The pool and the allocator over one repetition.
    higher("pool.parallelism", "ratio"),
    lower("pool.tasks", "count"),
    lower("pool.steals", "count"),
    lower("pool.idle_s", "s"),
    lower("telemetry.heap_allocated_mb", "MB"),
    lower("telemetry.heap_allocs", "count"),
    lower("telemetry.heap_peak_mb", "MB"),
    // What the kernel did for one repetition: the allocator's page
    // traffic shows here and nowhere above.
    lower("os.cpu_user_s", "s"),
    lower("os.cpu_sys_s", "s"),
    lower("os.minor_faults", "count"),
    // Rates of single public functions on a slice of the input.
    higher("synth.gen_mtraces_s", "Mtraces/s"),
    higher("geolife.gen_mtraces_s", "Mtraces/s"),
    higher("dfs.put_mb_s", "MB/s"),
    higher("dfs.scan_mb_s", "MB/s"),
    lower("job.noop_maponly_s", "s"),
    higher("job.group_sorted_mpairs_s", "Mpairs/s"),
    higher("job.group_unsorted_mpairs_s", "Mpairs/s"),
    higher("geo.assign_sum_mpts_s", "Mpoints/s"),
    higher("geo.assign_sum_scalar_mpts_s", "Mpoints/s"),
    higher("geo.assign_pooled_mpts_s", "Mpoints/s"),
    lower("pool.dispatch_us_per_task", "us"),
    higher("geo.rtree_bulk_load_mpts_s", "Mpoints/s"),
    higher("geo.rtree_radius_kqueries_s", "kqueries/s"),
    higher("core.neighborhood_codec_mids_s", "Mids/s"),
    higher("core.sample_trail_mtraces_s", "Mtraces/s"),
];

/// The out-of-core tier's metrics. Only `regroup-spill` enters that
/// code, and it is not in `BENCHMARK.json`, so neither are these: its
/// traced run prints them after [`PER_LAYER`].
pub const SPILL_LAYER: &[MetricDef] = &[
    lower("spill.spilled_mb", "MB"),
    lower("spill.files", "count"),
    higher("spill.encode_mb_s", "MB/s"),
    higher("spill.decode_mb_s", "MB/s"),
    higher("spill.seal_mb_s", "MB/s"),
    higher("spill.merge_mb_s", "MB/s"),
    higher("commit.commit_mb_s", "MB/s"),
    higher("commit.verify_deep_mb_s", "MB/s"),
];

/// Whether `name` is a legal metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The metrics a run of `kind` with `--trace <traced>` must print, in
/// order.
pub fn expected(traced: bool, kind: Kind) -> impl Iterator<Item = &'static MetricDef> {
    let (table, extra): (_, &[MetricDef]) = match (traced, kind) {
        (false, _) => (END_TO_END, &[]),
        (true, Kind::RegroupSpill) => (PER_LAYER, SPILL_LAYER),
        (true, _) => (PER_LAYER, &[]),
    };
    table.iter().chain(extra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gepeto_telemetry::json::Json;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_validated() {
        for ok in ["wall_s", "spill.seal_mb_s", "regroup-mem", "9lives", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in ["", ".hidden", "-flag", "two words", "µs", "a/b", &too_long] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("MB/s") && valid_unit("%") && valid_unit("1/s"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit("seventeen_chars__"));
    }

    #[test]
    fn the_table_is_well_formed() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER).chain(SPILL_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} is listed twice", m.name);
        }
        for kind in Kind::ALL {
            assert!(valid_name(kind.name()) && seen.insert(kind.name()));
        }
        assert!(PER_LAYER
            .iter()
            .chain(SPILL_LAYER)
            .all(|m| m.name.contains('.')));
        assert!(END_TO_END.iter().any(|m| *m == lower("setup_s", "s")));
    }

    fn listed(doc: &Json, key: &str, fields: &[&str]) -> Vec<Vec<String>> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` array"))
            .iter()
            .map(|entry| {
                fields
                    .iter()
                    .map(|f| {
                        entry
                            .get(f)
                            .and_then(Json::as_str)
                            .unwrap_or_else(|| panic!("`{key}` entry without `{f}`"))
                            .to_string()
                    })
                    .collect()
            })
            .collect()
    }

    /// Every metric and workload `BENCHMARK.json` names is one this
    /// harness emits, with the same unit and direction, and vice versa.
    #[test]
    fn benchmark_json_names_exactly_what_is_emitted() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let word = |better| match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let table = |defs: &[MetricDef]| -> Vec<Vec<String>> {
            defs.iter()
                .map(|m| vec![m.name.into(), m.unit.into(), word(m.better).into()])
                .collect()
        };
        let fields = ["name", "unit", "better"];
        assert_eq!(listed(&doc, "end_to_end", &fields), table(END_TO_END));
        assert_eq!(listed(&doc, "per_layer", &fields), table(PER_LAYER));
        let workloads: Vec<Vec<String>> = Kind::GATED
            .iter()
            .map(|k| vec![k.name().to_string()])
            .collect();
        assert_eq!(listed(&doc, "workloads", &["name"]), workloads);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
        for entry in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = entry.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
        }
    }
}
