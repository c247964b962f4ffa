//! Text-mode processing: store the dataset as GeoLife **text lines** in
//! the DFS and parse inside the mappers — exactly what the paper's Hadoop
//! jobs do ("each map task reads its input chunk and processes each line
//! of the chunk corresponding to a mobility trace", §V).
//!
//! The typed pipeline (`gepeto::dfs_io`) skips re-parsing, like Mahout's
//! `SequenceFile` input the paper discusses in §VI's related work; this
//! module is the plain-text counterpart, so the parsing overhead is
//! measurable (see the `mapred_engine` bench) and malformed lines are
//! handled the Hadoop way: counted and skipped, never fatal.
//!
//! Line format: `user<TAB>plt-line` — the flattened form of GeoLife's
//! per-user directory layout (the user id lives in the path there).

use gepeto_mapred::{Cluster, Dfs, DfsError, Emitter, Mapper, TaskContext};
use gepeto_model::{plt, Dataset, MobilityTrace};

/// Counter bumped for every unparseable input line.
pub const CORRUPT_RECORDS: &str = "textio.corrupt.records";

/// A text-typed DFS over `cluster`'s topology (replication 3).
pub fn text_dfs(cluster: &Cluster, block_bytes: usize) -> Dfs<String> {
    Dfs::new(cluster.topology.clone(), block_bytes, 3)
}

/// Serializes one trace as a text record.
pub fn format_record(t: &MobilityTrace) -> String {
    format!("{}\t{}", t.user, plt::format_line(t))
}

/// Parses a text record back into a trace.
pub fn parse_record(line: &str) -> Option<MobilityTrace> {
    let (user, rest) = line.split_once('\t')?;
    let user = user.parse().ok()?;
    plt::parse_line(user, rest).ok()
}

/// Writes `dataset` to `dfs` as text lines under `name`, sized by their
/// real byte length (so chunk counts match genuine text files).
pub fn put_dataset_as_text(
    dfs: &mut Dfs<String>,
    name: &str,
    dataset: &Dataset,
) -> Result<(), gepeto_mapred::DfsError> {
    let lines: Vec<String> = dataset.iter_traces().map(format_record).collect();
    dfs.put_with_sizer(name, lines, |l| l.len() + 1)
}

/// Streams a text file back into a [`Dataset`], parsing line by line and
/// skipping corrupt lines the Hadoop way. Returns the dataset and the
/// number of lines dropped.
pub fn read_dataset_from_text(dfs: &Dfs<String>, name: &str) -> Result<(Dataset, u64), DfsError> {
    let mut dataset = Dataset::new();
    let mut corrupt = 0u64;
    for line in dfs.iter_records(name)? {
        match parse_record(&line?) {
            Some(trace) => dataset.push_trace(trace),
            None => corrupt += 1,
        }
    }
    Ok((dataset, corrupt))
}

/// Adapts any trace-level [`Mapper`] to text input: each line is parsed,
/// corrupt lines are counted under [`CORRUPT_RECORDS`] and skipped.
#[derive(Clone)]
pub struct ParsingMapper<M> {
    inner: M,
    corrupt_counter: Option<gepeto_mapred::Counters>,
}

impl<M> ParsingMapper<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        Self {
            inner,
            corrupt_counter: None,
        }
    }
}

impl<M> Mapper<String> for ParsingMapper<M>
where
    M: Mapper<MobilityTrace>,
{
    type KOut = M::KOut;
    type VOut = M::VOut;

    fn setup(&mut self, ctx: &TaskContext<'_>) {
        self.inner.setup(ctx);
        self.corrupt_counter = Some(ctx.counters.clone());
    }

    fn map(&mut self, offset: u64, value: &String, out: &mut Emitter<Self::KOut, Self::VOut>) {
        match parse_record(value) {
            Some(trace) => self.inner.map(offset, &trace, out),
            None => {
                if let Some(c) = &self.corrupt_counter {
                    c.inc(CORRUPT_RECORDS, 1);
                }
            }
        }
    }

    fn cleanup(&mut self, out: &mut Emitter<Self::KOut, Self::VOut>) {
        self.inner.cleanup(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::{SamplingConfig, SamplingMapper, Technique};
    use gepeto_mapred::MapOnlyJob;
    use gepeto_model::{GeoPoint, Timestamp};

    fn dataset() -> Dataset {
        let mut traces = Vec::new();
        for u in 1..=3u32 {
            for i in 0..100i64 {
                traces.push(MobilityTrace::new(
                    u,
                    GeoPoint::new(39.9 + f64::from(u) * 0.01, 116.4 + i as f64 * 1e-5),
                    Timestamp(i * 7),
                ));
            }
        }
        Dataset::from_traces(traces)
    }

    #[test]
    fn record_round_trip() {
        let t = MobilityTrace::with_altitude(
            42,
            GeoPoint::new(39.906631, 116.385564),
            Timestamp::from_civil(2009, 10, 11, 14, 4, 30).unwrap(),
            492.0,
        );
        let rec = format_record(&t);
        let back = parse_record(&rec).unwrap();
        assert_eq!(back.user, 42);
        assert_eq!(back.timestamp, t.timestamp);
        assert!((back.point.lat - t.point.lat).abs() < 1e-6);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_record("not a record").is_none());
        assert!(parse_record("12\tgarbage,line").is_none());
        assert!(parse_record("abc\t39.9,116.4,0,0,0,2009-10-11,14:04:30").is_none());
        assert!(parse_record("").is_none());
    }

    #[test]
    fn text_pipeline_equals_typed_pipeline() {
        let ds = dataset();
        let cluster = Cluster::local(3, 2);
        let cfg = SamplingConfig::new(60, Technique::ClosestToUpperLimit);

        // Typed path.
        let mut typed = crate::dfs_io::trace_dfs(&cluster, 1 << 20);
        crate::dfs_io::put_dataset(&mut typed, "d", &ds).unwrap();
        let ctx = gepeto_mapred::ExecCtx::new(&cluster);
        let (typed_out, _, _) =
            crate::sampling::mapreduce_sample_in(&ctx, &typed, "d", &cfg).unwrap();

        // Text path: same sampling mapper behind the parsing adapter.
        let mut text = text_dfs(&cluster, 1 << 20);
        put_dataset_as_text(&mut text, "d", &ds).unwrap();
        let mapper = ParsingMapper::new(SamplingMapper::new(cfg));
        let result = MapOnlyJob::new("text-sampling", &cluster, &text, "d", mapper)
            .run()
            .unwrap();
        let text_out = Dataset::from_traces(result.output.into_iter().map(|(_, t)| t));
        assert_eq!(text_out.num_traces(), typed_out.num_traces());
        assert_eq!(text_out.num_users(), typed_out.num_users());
        // Timestamps survive the text round trip exactly.
        let a: Vec<i64> = typed_out
            .iter_traces()
            .map(|t| t.timestamp.secs())
            .collect();
        let b: Vec<i64> = text_out.iter_traces().map(|t| t.timestamp.secs()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn corrupt_lines_are_counted_and_skipped() {
        let ds = dataset();
        let cluster = Cluster::local(2, 2);
        let mut lines: Vec<String> = ds.iter_traces().map(format_record).collect();
        lines.insert(5, "CORRUPT LINE".to_string());
        lines.insert(50, "another\tbad,one".to_string());
        let mut dfs = text_dfs(&cluster, 1 << 20);
        dfs.put_with_sizer("d", lines, |l| l.len() + 1).unwrap();

        let cfg = SamplingConfig::new(60, Technique::ClosestToUpperLimit);
        let mapper = ParsingMapper::new(SamplingMapper::new(cfg));
        let result = MapOnlyJob::new("text-sampling", &cluster, &dfs, "d", mapper)
            .run()
            .unwrap();
        assert_eq!(result.stats.counters[CORRUPT_RECORDS], 2);
        assert!(!result.output.is_empty());
    }

    #[test]
    fn streamed_text_read_matches_dataset() {
        let ds = dataset();
        let cluster = Cluster::local(2, 2);
        let mut dfs = text_dfs(&cluster, 4_096);
        put_dataset_as_text(&mut dfs, "d", &ds).unwrap();
        let (back, corrupt) = read_dataset_from_text(&dfs, "d").unwrap();
        assert_eq!(corrupt, 0);
        assert_eq!(back.num_users(), ds.num_users());
        assert_eq!(back.num_traces(), ds.num_traces());
        for (a, b) in back.iter_traces().zip(ds.iter_traces()) {
            assert_eq!(a.user, b.user);
            assert_eq!(a.timestamp, b.timestamp);
            // PLT text keeps 6 decimal places.
            assert!((a.point.lat - b.point.lat).abs() < 1e-6);
            assert!((a.point.lon - b.point.lon).abs() < 1e-6);
        }
        // Line iterator sees every record without whole-file materialization.
        assert_eq!(dfs.iter_records("d").unwrap().count(), ds.num_traces());
        assert!(dfs.iter_records("missing").is_err());
    }

    #[test]
    fn streamed_text_read_counts_corrupt_lines() {
        let cluster = Cluster::local(2, 2);
        let mut lines: Vec<String> = dataset().iter_traces().map(format_record).collect();
        lines.insert(3, "CORRUPT".into());
        let mut dfs = text_dfs(&cluster, 4_096);
        dfs.put_with_sizer("d", lines, |l| l.len() + 1).unwrap();
        let (back, corrupt) = read_dataset_from_text(&dfs, "d").unwrap();
        assert_eq!(corrupt, 1);
        assert_eq!(back.num_traces(), dataset().num_traces());
    }

    #[test]
    fn text_chunks_match_byte_sizes() {
        let ds = dataset();
        let cluster = Cluster::local(2, 2);
        let mut dfs = text_dfs(&cluster, 4_096);
        put_dataset_as_text(&mut dfs, "d", &ds).unwrap();
        let total: usize = dfs.file_bytes("d").unwrap();
        let expected: usize = ds.iter_traces().map(|t| format_record(t).len() + 1).sum();
        assert_eq!(total, expected);
        // Greedy chunking overshoots each block by at most one record, so
        // the count sits just below the exact byte quotient.
        let blocks = dfs.num_blocks("d").unwrap();
        let upper = total.div_ceil(4_096).max(1);
        assert!(
            blocks <= upper && blocks + 2 >= upper,
            "{blocks} vs {upper}"
        );
    }
}
