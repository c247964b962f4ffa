//! Moving datasets in and out of the DFS.
//!
//! Records are stored as typed [`MobilityTrace`]s but *sized* as their PLT
//! text lines (≈ 64 bytes each), so chunk counts — and therefore map task
//! counts — match what Hadoop would see for the same file (§V: "the
//! initial GeoLife dataset … is split into chunks").

use gepeto_mapred::{Cluster, Dfs, DfsError};
use gepeto_model::{Dataset, MobilityTrace};

/// A trace-typed DFS over `cluster`'s topology with the given chunk size
/// in bytes and replication 3 (HDFS default).
pub fn trace_dfs(cluster: &Cluster, block_bytes: usize) -> Dfs<MobilityTrace> {
    Dfs::new(cluster.topology.clone(), block_bytes, 3)
}

/// Writes `dataset` to `dfs` under `name`, user-by-user in time order —
/// the layout of concatenated GeoLife trajectory files.
pub fn put_dataset(
    dfs: &mut Dfs<MobilityTrace>,
    name: &str,
    dataset: &Dataset,
) -> Result<(), DfsError> {
    dfs.put_with_sizer(name, dataset.to_traces(), |t| t.approx_plt_bytes())
}

/// Reads a file of traces back into a [`Dataset`] (regrouping by user).
///
/// Streams record by record instead of materializing the whole file as
/// one `Vec`, so million-user files reload under the same budget they
/// were written under.
pub fn read_dataset(dfs: &Dfs<MobilityTrace>, name: &str) -> Result<Dataset, DfsError> {
    let mut dataset = Dataset::new();
    for trace in dfs.iter_records(name)? {
        dataset.push_trace(trace?);
    }
    Ok(dataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gepeto_model::{GeoPoint, Timestamp};

    fn tiny_dataset() -> Dataset {
        let mk = |u, s| MobilityTrace::new(u, GeoPoint::new(40.0, 116.0), Timestamp(s));
        Dataset::from_traces(vec![mk(1, 10), mk(1, 20), mk(2, 5), mk(2, 15)])
    }

    #[test]
    fn round_trip() {
        let cluster = Cluster::local(3, 2);
        let mut dfs = trace_dfs(&cluster, 1 << 20);
        let ds = tiny_dataset();
        put_dataset(&mut dfs, "d", &ds).unwrap();
        assert_eq!(read_dataset(&dfs, "d").unwrap(), ds);
    }

    #[test]
    fn chunk_count_uses_plt_sizing() {
        let cluster = Cluster::local(3, 2);
        // 4 traces × 64 B = 256 B; 128 B chunks → 2 chunks.
        let mut dfs = trace_dfs(&cluster, 128);
        put_dataset(&mut dfs, "d", &tiny_dataset()).unwrap();
        assert_eq!(dfs.num_blocks("d").unwrap(), 2);
    }

    #[test]
    fn missing_file_errors() {
        let cluster = Cluster::local(2, 1);
        let dfs = trace_dfs(&cluster, 1024);
        assert!(read_dataset(&dfs, "missing").is_err());
    }
}
