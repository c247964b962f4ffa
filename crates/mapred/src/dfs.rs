//! An in-memory distributed file system modeled on HDFS (§III of the
//! paper): files are split into fixed-size chunks, each chunk is
//! replicated (default 3×) with the rack-aware policy — first copy on the
//! writer node, second on a node of the same rack, third on a node of a
//! different rack — and a namenode-style metadata map records which
//! datanodes hold each chunk. The jobtracker later reads that map to keep
//! "the computation as close as possible to the data".
//!
//! The DFS is storage only: which replica of a chunk can be read is
//! [`ChaosPlan::replica_readable`]'s call, and the one reader that asks is
//! the scheduler ([`crate::sim::simulate_chaos`]), which places each map
//! task on a readable replica, counts the failed-over reads and fails the
//! job with an unreadable block when none is left.

use crate::chaos::ChaosPlan;
use crate::hash::fnv_hash;
use crate::topology::{NodeId, Topology};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Identifier of a stored chunk.
pub type BlockId = u64;

/// Errors from DFS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfsError {
    /// No file with that name exists.
    FileNotFound(String),
    /// A file with that name already exists.
    FileExists(String),
    /// Every replica of a chunk is unreadable (its datanode is dead or
    /// its copy is corrupt, see [`ChaosPlan::replica_readable`]) — the
    /// HDFS "missing block" condition a client cannot recover from.
    AllReplicasLost(BlockId),
}

impl std::fmt::Display for DfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DfsError::FileNotFound(n) => write!(f, "dfs: file not found: {n}"),
            DfsError::FileExists(n) => write!(f, "dfs: file already exists: {n}"),
            DfsError::AllReplicasLost(b) => {
                write!(f, "dfs: all replicas of block {b} are lost or corrupt")
            }
        }
    }
}

impl std::error::Error for DfsError {}

/// A stored chunk: its records (shared, so map tasks read without
/// copying), its byte size and the datanodes holding replicas.
#[derive(Debug, Clone)]
pub struct Block<T> {
    /// The records of this chunk (shared with readers).
    pub data: Arc<Vec<T>>,
    /// Serialized size of the chunk in bytes.
    pub bytes: usize,
    /// Replica locations; `replicas[0]` is the writer-local copy.
    pub replicas: Vec<NodeId>,
}

#[derive(Debug, Clone)]
struct FileMeta {
    blocks: Vec<BlockId>,
    records: usize,
    bytes: usize,
}

/// Blocks each pool thread generates per wave of [`Dfs::put_blocks`].
const WAVE_BLOCKS_PER_THREAD: usize = 4;

/// The one chunk-sealing rule of every put: a chunk takes records until
/// its bytes reach the chunk size, then is sealed at its exact length.
struct ChunkWriter<T> {
    block_bytes: usize,
    current: Vec<T>,
    current_bytes: usize,
    /// Sealed chunks (records, bytes), placed at commit.
    sealed: Vec<(Vec<T>, usize)>,
}

impl<T> ChunkWriter<T> {
    fn new(block_bytes: usize) -> Self {
        Self {
            block_bytes,
            current: Vec::new(),
            current_bytes: 0,
            sealed: Vec::new(),
        }
    }

    /// Appends `records`. A new chunk reserves what the chunk size fits of
    /// its first record (exact for fixed-size records), capped by the
    /// source's upper size bound; sealing shrinks it to its length.
    fn write(&mut self, records: impl IntoIterator<Item = T>, sizer: &impl Fn(&T) -> usize) {
        let mut records = records.into_iter();
        while let Some(r) = records.next() {
            let b = sizer(&r).max(1);
            if self.current.capacity() == 0 {
                let left = records.size_hint().1.unwrap_or(usize::MAX);
                let fits = self.block_bytes.div_ceil(b);
                self.current.reserve_exact(fits.min(left.saturating_add(1)));
            }
            self.current.push(r);
            self.current_bytes += b;
            if self.current_bytes >= self.block_bytes {
                self.seal();
            }
        }
    }

    fn seal(&mut self) {
        let mut data = std::mem::take(&mut self.current);
        data.shrink_to_fit();
        let bytes = std::mem::take(&mut self.current_bytes);
        self.sealed.push((data, bytes));
    }
}

/// The distributed file system, generic over the record type it stores.
///
/// Chunking is by *bytes*, not record count: the caller supplies a sizer
/// so that, e.g., GeoLife text lines fill a 64 MB chunk with however many
/// traces fit — exactly how the paper gets "2000 mapper tasks" from a
/// 128 GB dataset.
#[derive(Debug, Clone)]
pub struct Dfs<T> {
    topology: Topology,
    block_bytes: usize,
    replication: usize,
    files: BTreeMap<String, FileMeta>,
    blocks: BTreeMap<BlockId, Block<T>>,
    next_block: BlockId,
}

impl<T: Clone> Dfs<T> {
    /// A DFS over `topology` with the given chunk size in bytes and
    /// replication factor (HDFS default: 3, clamped to the node count).
    ///
    /// # Panics
    /// If `block_bytes` or `replication` is zero.
    pub fn new(topology: Topology, block_bytes: usize, replication: usize) -> Self {
        assert!(block_bytes > 0, "chunk size must be positive");
        assert!(replication > 0, "replication factor must be positive");
        Self {
            topology,
            block_bytes,
            replication,
            files: BTreeMap::new(),
            blocks: BTreeMap::new(),
            next_block: 0,
        }
    }

    /// Chunk size in bytes.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// Configured replication factor (before clamping to node count).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The topology chunks are placed on.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Writes a file, splitting `records` into chunks using `sizer` to
    /// measure each record's serialized size.
    pub fn put_with_sizer(
        &mut self,
        name: &str,
        records: Vec<T>,
        sizer: impl Fn(&T) -> usize,
    ) -> Result<(), DfsError> {
        self.put_from_iter(name, records, sizer)
    }

    /// Writes a file from a streaming record source, sealing each chunk as
    /// it fills — the write-side counterpart of [`Dfs::iter_records`]:
    /// peak extra memory is one chunk, never the whole file, so generators
    /// can pour millions of records straight into chunk placement.
    pub fn put_from_iter(
        &mut self,
        name: &str,
        records: impl IntoIterator<Item = T>,
        sizer: impl Fn(&T) -> usize,
    ) -> Result<(), DfsError> {
        if self.files.contains_key(name) {
            return Err(DfsError::FileExists(name.to_string()));
        }
        let mut writer = ChunkWriter::new(self.block_bytes);
        writer.write(records, &sizer);
        self.commit_file(name, writer);
        Ok(())
    }

    /// Writes a file assuming every record serializes to
    /// `bytes_per_record` bytes.
    pub fn put_fixed(
        &mut self,
        name: &str,
        records: Vec<T>,
        bytes_per_record: usize,
    ) -> Result<(), DfsError> {
        self.put_with_sizer(name, records, |_| bytes_per_record)
    }

    /// Seals the last chunk — an empty file still gets one, empty chunk —
    /// places the chunks in file order, and records the file.
    fn commit_file(&mut self, name: &str, mut writer: ChunkWriter<T>) {
        if !writer.current.is_empty() || writer.sealed.is_empty() {
            writer.seal();
        }
        let mut ids = Vec::new();
        for (data, bytes) in writer.sealed {
            ids.push(self.store_block(name, ids.len(), data, bytes));
        }
        let records = ids.iter().map(|id| self.blocks[id].data.len()).sum();
        let bytes = ids.iter().map(|id| self.blocks[id].bytes).sum();
        let meta = FileMeta {
            blocks: ids,
            records,
            bytes,
        };
        self.files.insert(name.to_string(), meta);
    }

    fn store_block(&mut self, file: &str, index: usize, data: Vec<T>, bytes: usize) -> BlockId {
        let id = self.next_block;
        self.next_block += 1;
        let replicas = self.place_replicas(file, index);
        self.blocks.insert(
            id,
            Block {
                data: Arc::new(data),
                bytes,
                replicas,
            },
        );
        id
    }

    /// Rack-aware replica placement: writer-local first copy, same-rack
    /// second copy, off-rack third copy, then round-robin for higher
    /// replication factors. Writer nodes rotate per chunk so large files
    /// spread over the whole cluster (real HDFS rotates per *file*; per
    /// chunk gives the same steady-state balance for the single huge file
    /// the paper stores).
    ///
    /// The effective replication factor is **clamped to the node count**:
    /// a 3× policy on a 2-node cluster yields exactly 2 replicas, one per
    /// node — never duplicate copies on one datanode (matching HDFS,
    /// which leaves such blocks under-replicated rather than doubling
    /// up). The returned nodes are always pairwise distinct, and when the
    /// factor is ≥ 3 and a second rack has at least one node, replicas
    /// span at least two racks.
    pub fn place_replicas(&self, file: &str, index: usize) -> Vec<NodeId> {
        let n = self.topology.num_nodes();
        let r = self.replication.min(n);
        let writer = (fnv_hash(&file) as usize + index) % n;
        let mut replicas = vec![writer];
        if r >= 2 {
            let peers = self
                .topology
                .rack_peers(self.topology.rack_of(writer), writer);
            if let Some(&peer) = pick_deterministic(&peers, fnv_hash(&(file, index, "same-rack"))) {
                replicas.push(peer);
            }
        }
        if r >= 3 {
            let others = self.topology.other_racks(self.topology.rack_of(writer));
            let others: Vec<NodeId> = others
                .into_iter()
                .filter(|x| !replicas.contains(x))
                .collect();
            if let Some(&other) = pick_deterministic(&others, fnv_hash(&(file, index, "off-rack")))
            {
                replicas.push(other);
            }
        }
        // Fill any remaining replication round-robin over unused nodes.
        let mut candidate = (writer + 1) % n;
        while replicas.len() < r {
            if !replicas.contains(&candidate) {
                replicas.push(candidate);
            }
            candidate = (candidate + 1) % n;
        }
        replicas
    }

    /// The chunk ids of `name`, in file order.
    pub fn blocks_of(&self, name: &str) -> Result<&[BlockId], DfsError> {
        self.files
            .get(name)
            .map(|m| m.blocks.as_slice())
            .ok_or_else(|| DfsError::FileNotFound(name.to_string()))
    }

    /// The chunk with id `id`.
    ///
    /// # Panics
    /// If the id is unknown (engine-internal misuse).
    pub fn block(&self, id: BlockId) -> &Block<T> {
        &self.blocks[&id]
    }

    /// Reads a whole file back as a flat record vector.
    pub fn read(&self, name: &str) -> Result<Vec<T>, DfsError> {
        let ids = self.blocks_of(name)?;
        let mut out = Vec::with_capacity(self.num_records(name)?);
        for &id in ids {
            out.extend(self.block(id).data.iter().cloned());
        }
        Ok(out)
    }

    /// Streams a file record-by-record, cloning one record at a time out
    /// of the chunk it lies in — bounded memory regardless of file size.
    /// Items are `Result`s so callers collect a file as they would any
    /// fallible read; every item of a stored file is `Ok`.
    pub fn iter_records(
        &self,
        name: &str,
    ) -> Result<impl Iterator<Item = Result<T, DfsError>> + '_, DfsError> {
        let ids = self.blocks_of(name)?;
        Ok(ids
            .iter()
            .flat_map(|id| self.blocks[id].data.iter().cloned().map(Ok)))
    }

    /// Namenode-style re-replication sweep: for every chunk, drops the
    /// replicas [`ChaosPlan::replica_readable`] rejects (dead datanode or
    /// corrupt copy), then places fresh copies on surviving nodes until
    /// the chunk is back to the replication factor (clamped to the live
    /// node count). Placement is rack-aware — racks not yet holding a
    /// healthy copy are preferred — and deterministic. Chunks with *no*
    /// healthy replica left cannot be healed; they are reported as lost
    /// and their metadata is left untouched so a later read yields
    /// [`DfsError::AllReplicasLost`].
    pub fn rereplicate(&mut self, chaos: &ChaosPlan) -> RereplicationReport {
        let at_s = chaos.now();
        let mut report = RereplicationReport::default();
        let num_nodes = self.topology.num_nodes();
        let live = chaos.live_nodes(num_nodes, at_s);
        let ids: Vec<BlockId> = self.blocks.keys().copied().collect();
        for id in ids {
            let block = &self.blocks[&id];
            let readable = |n: NodeId| chaos.replica_readable(id, n, at_s);
            let healthy: Vec<NodeId> = block
                .replicas
                .iter()
                .copied()
                .filter(|&n| readable(n))
                .collect();
            let dropped = block.replicas.len() - healthy.len();
            if dropped == 0 {
                continue;
            }
            if healthy.is_empty() {
                report.lost_blocks.push(id);
                continue;
            }
            report.dropped_replicas += dropped;
            // Candidate targets: live nodes without a healthy copy, and
            // never a node whose copy of this chunk is corrupt (its disk
            // already damaged this block once).
            let mut replicas = healthy;
            let healthy_count = replicas.len();
            let target = self
                .replication
                .min(live.iter().filter(|&&n| readable(n)).count());
            while replicas.len() < target {
                let candidates: Vec<NodeId> = live
                    .iter()
                    .copied()
                    .filter(|&n| !replicas.contains(&n) && readable(n))
                    .collect();
                let covered: Vec<crate::topology::RackId> =
                    replicas.iter().map(|&n| self.topology.rack_of(n)).collect();
                let preferred: Vec<NodeId> = candidates
                    .iter()
                    .copied()
                    .filter(|&n| !covered.contains(&self.topology.rack_of(n)))
                    .collect();
                let pool = if preferred.is_empty() {
                    &candidates
                } else {
                    &preferred
                };
                match pick_deterministic(pool, fnv_hash(&(id, replicas.len(), "rereplicate"))) {
                    Some(&n) => replicas.push(n),
                    None => break,
                }
            }
            report.new_replicas += replicas.len() - healthy_count;
            report.healed_blocks += 1;
            self.blocks.get_mut(&id).expect("block exists").replicas = replicas;
        }
        report
    }

    /// Deletes a file and its chunks.
    pub fn delete(&mut self, name: &str) -> Result<(), DfsError> {
        let meta = self
            .files
            .remove(name)
            .ok_or_else(|| DfsError::FileNotFound(name.to_string()))?;
        for id in meta.blocks {
            self.blocks.remove(&id);
        }
        Ok(())
    }

    /// Whether `name` exists.
    pub fn exists(&self, name: &str) -> bool {
        self.files.contains_key(name)
    }

    /// All file names in lexicographic order.
    pub fn ls(&self) -> Vec<&str> {
        self.files.keys().map(String::as_str).collect()
    }

    /// Number of records in `name`.
    pub fn num_records(&self, name: &str) -> Result<usize, DfsError> {
        self.files
            .get(name)
            .map(|m| m.records)
            .ok_or_else(|| DfsError::FileNotFound(name.to_string()))
    }

    /// Serialized size of `name` in bytes.
    pub fn file_bytes(&self, name: &str) -> Result<usize, DfsError> {
        self.files
            .get(name)
            .map(|m| m.bytes)
            .ok_or_else(|| DfsError::FileNotFound(name.to_string()))
    }

    /// Number of chunks of `name` — i.e. how many map tasks a job on this
    /// file will launch.
    pub fn num_blocks(&self, name: &str) -> Result<usize, DfsError> {
        Ok(self.blocks_of(name)?.len())
    }

    /// Chunk count per node (primary replicas only) — a balance metric.
    pub fn primary_distribution(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.topology.num_nodes()];
        for b in self.blocks.values() {
            if let Some(&first) = b.replicas.first() {
                counts[first] += 1;
            }
        }
        counts
    }
}

impl<T: Clone + Send> Dfs<T> {
    /// Writes `gen(0) ++ … ++ gen(blocks - 1)` chunk for chunk as
    /// [`Dfs::put_from_iter`] would, generating waves of blocks on the
    /// global pool while one task seals the previous wave in block order:
    /// memory stays at one chunk plus two waves.
    pub fn put_blocks(
        &mut self,
        name: &str,
        blocks: usize,
        gen: impl Fn(usize) -> Vec<T> + Sync,
        sizer: impl Fn(&T) -> usize + Sync,
    ) -> Result<(), DfsError> {
        self.put_blocks_on(gepeto_pool::global(), name, blocks, gen, sizer)
    }

    fn put_blocks_on(
        &mut self,
        pool: &gepeto_pool::Pool,
        name: &str,
        blocks: usize,
        gen: impl Fn(usize) -> Vec<T> + Sync,
        sizer: impl Fn(&T) -> usize + Sync,
    ) -> Result<(), DfsError> {
        if self.files.contains_key(name) {
            return Err(DfsError::FileExists(name.to_string()));
        }
        let wave = pool.threads() * WAVE_BLOCKS_PER_THREAD;
        let mut writer = ChunkWriter::new(self.block_bytes);
        let mut generated: Vec<Vec<T>> = Vec::new();
        for start in (0..=blocks.next_multiple_of(wave)).step_by(wave) {
            let (start, end) = (start.min(blocks), (start + wave).min(blocks));
            // The last wave in hand bounds the last chunk's reservation.
            let left = (start == blocks).then(|| generated.iter().map(Vec::len).sum());
            // The sealing task takes the previous wave; the rest generate.
            let sealing = Mutex::new((&mut writer, std::mem::take(&mut generated)));
            generated = pool.map_indexed(end - start + 1, |i| match i {
                0 => {
                    let (writer, prev) = &mut *sealing.lock().expect("one sealing task");
                    let records = std::mem::take(prev).into_iter().flatten();
                    writer.write(records.take(left.unwrap_or(usize::MAX)), &sizer);
                    Vec::new()
                }
                i => gen(start + i - 1),
            });
        }
        self.commit_file(name, writer);
        Ok(())
    }
}

/// What a [`Dfs::rereplicate`] sweep did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RereplicationReport {
    /// Chunks brought back to (clamped) full replication.
    pub healed_blocks: usize,
    /// Replicas discarded because their node died or their copy was
    /// corrupt.
    pub dropped_replicas: usize,
    /// Fresh replicas placed on surviving nodes.
    pub new_replicas: usize,
    /// Chunks with no healthy replica left — unrecoverable.
    pub lost_blocks: Vec<BlockId>,
}

fn pick_deterministic<T>(candidates: &[T], hash: u64) -> Option<&T> {
    if candidates.is_empty() {
        None
    } else {
        Some(&candidates[(hash % candidates.len() as u64) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dfs(block_bytes: usize) -> Dfs<u32> {
        Dfs::new(Topology::new(5, 2, 4), block_bytes, 3)
    }

    #[test]
    fn put_read_round_trip() {
        let mut d = dfs(40);
        let records: Vec<u32> = (0..100).collect();
        d.put_fixed("f", records.clone(), 4).unwrap();
        assert_eq!(d.read("f").unwrap(), records);
        assert_eq!(d.num_records("f").unwrap(), 100);
        assert_eq!(d.file_bytes("f").unwrap(), 400);
    }

    #[test]
    fn chunking_by_bytes() {
        let mut d = dfs(40); // 10 records of 4 bytes per chunk
        d.put_fixed("f", (0..100).collect(), 4).unwrap();
        assert_eq!(d.num_blocks("f").unwrap(), 10);
        // Halving the chunk size doubles the number of map tasks — the
        // paper's Table III lever.
        let mut d2 = dfs(20);
        d2.put_fixed("f", (0..100).collect(), 4).unwrap();
        assert_eq!(d2.num_blocks("f").unwrap(), 20);
    }

    #[test]
    fn record_stream_matches_whole_file_read() {
        let mut d = dfs(40);
        let records: Vec<u32> = (0..100).collect();
        d.put_fixed("f", records.clone(), 4).unwrap();
        let streamed: Vec<u32> = d.iter_records("f").unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(streamed, d.read("f").unwrap());
        // Empty files stream zero records.
        d.put_fixed("empty", vec![], 4).unwrap();
        assert_eq!(d.iter_records("empty").unwrap().count(), 0);
        assert!(d.iter_records("missing").is_err());
    }

    #[test]
    fn put_from_iter_matches_vec_put() {
        let records: Vec<u32> = (0..1000).collect();
        let mut a = dfs(40);
        a.put_fixed("f", records.clone(), 4).unwrap();
        let mut b = dfs(40);
        b.put_from_iter("f", records.clone(), |_| 4).unwrap();
        assert_eq!(a.num_blocks("f").unwrap(), b.num_blocks("f").unwrap());
        assert_eq!(b.read("f").unwrap(), records);
        assert_eq!(b.file_bytes("f").unwrap(), 4_000);
    }

    /// Everything a put decides about a file: per chunk its id, records,
    /// bytes and replicas, then the file's record and byte totals.
    type Layout = (Vec<(BlockId, Vec<u32>, usize, Vec<NodeId>)>, usize, usize);

    fn layout(d: &Dfs<u32>, name: &str) -> Layout {
        let chunks = d.blocks_of(name).unwrap().iter().map(|&id| {
            let b = d.block(id);
            (id, b.data.to_vec(), b.bytes, b.replicas.clone())
        });
        let records = d.num_records(name).unwrap();
        (chunks.collect(), records, d.file_bytes(name).unwrap())
    }

    fn assert_exact_chunks(d: &Dfs<u32>, name: &str) {
        for &id in d.blocks_of(name).unwrap() {
            let data = &d.block(id).data;
            assert_eq!(data.capacity(), data.len(), "{name}: chunk {id} has slack");
        }
    }

    #[test]
    fn put_blocks_matches_put_from_iter_over_the_concatenation() {
        // Each record weighs its own value in bytes (0 counts as 1) and a
        // chunk holds 40.
        let sizer = |r: &u32| *r as usize;
        let waves: Vec<Vec<u32>> = (0..40u32)
            .map(|b| (0..b % 6).map(|i| (b * 7 + i * 3) % 13).collect())
            .collect();
        let cases: Vec<(&str, Vec<Vec<u32>>)> = vec![
            ("no blocks", vec![]),
            ("empty blocks only", vec![vec![], vec![]]),
            (
                "empty and 1-record blocks",
                vec![vec![1], vec![], vec![2], vec![3], vec![]],
            ),
            (
                "chunk ends with a block",
                vec![vec![20, 20], vec![15, 25], vec![3]],
            ),
            (
                "record larger than a chunk",
                vec![vec![1, 100, 2], vec![50], vec![90]],
            ),
            ("several waves", waves),
        ];
        for threads in [1, 3] {
            let pool = gepeto_pool::Pool::new(threads);
            for (case, blocks) in &cases {
                let mut serial = dfs(40);
                serial.put_from_iter("f", blocks.concat(), sizer).unwrap();
                let mut blocked = dfs(40);
                blocked
                    .put_blocks_on(&pool, "f", blocks.len(), |b| blocks[b].clone(), sizer)
                    .unwrap();
                assert_eq!(
                    layout(&blocked, "f"),
                    layout(&serial, "f"),
                    "{case}, {threads} threads"
                );
                assert_exact_chunks(&blocked, "f");
                assert_eq!(
                    blocked.put_blocks_on(&pool, "f", 0, |_| vec![], sizer),
                    Err(DfsError::FileExists("f".into()))
                );
            }
        }
    }

    #[test]
    fn every_put_stores_exact_size_chunks() {
        let mut d = dfs(40);
        d.put_fixed("fixed", (0..100).collect(), 4).unwrap();
        d.put_with_sizer("sized", (0..100).collect(), |r| *r as usize % 9)
            .unwrap();
        // No upper size bound: reservations come from chunk lengths alone.
        d.put_from_iter("filtered", (0..300).filter(|r| r % 3 > 0), |_| 3)
            .unwrap();
        d.put_blocks("blocks", 9, |b| (0..b as u32 * 5).collect(), |_| 4)
            .unwrap();
        for name in ["fixed", "sized", "filtered", "blocks"] {
            assert!(d.num_blocks(name).unwrap() > 1, "{name}");
            assert_exact_chunks(&d, name);
        }
    }

    #[test]
    fn empty_file_has_one_empty_chunk() {
        let mut d = dfs(40);
        d.put_fixed("empty", vec![], 4).unwrap();
        assert_eq!(d.num_blocks("empty").unwrap(), 1);
        assert_eq!(d.read("empty").unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn duplicate_put_rejected() {
        let mut d = dfs(40);
        d.put_fixed("f", vec![1], 4).unwrap();
        assert_eq!(
            d.put_fixed("f", vec![2], 4),
            Err(DfsError::FileExists("f".into()))
        );
    }

    #[test]
    fn missing_file_errors() {
        let d = dfs(40);
        assert!(matches!(d.read("nope"), Err(DfsError::FileNotFound(_))));
        assert!(matches!(
            d.blocks_of("nope"),
            Err(DfsError::FileNotFound(_))
        ));
    }

    #[test]
    fn delete_removes_blocks() {
        let mut d = dfs(40);
        d.put_fixed("f", (0..100).collect(), 4).unwrap();
        assert!(d.exists("f"));
        d.delete("f").unwrap();
        assert!(!d.exists("f"));
        assert!(d.ls().is_empty());
        assert!(d.delete("f").is_err());
    }

    #[test]
    fn replication_is_rack_aware() {
        let mut d = dfs(8); // 2 records per chunk
        d.put_fixed("f", (0..100).collect(), 4).unwrap();
        let topo = d.topology().clone();
        for &id in d.blocks_of("f").unwrap() {
            let b = d.block(id);
            assert_eq!(b.replicas.len(), 3);
            // All distinct nodes.
            let mut sorted = b.replicas.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "duplicate replica nodes");
            // Second replica same rack as writer, third on another rack.
            let writer_rack = topo.rack_of(b.replicas[0]);
            assert_eq!(topo.rack_of(b.replicas[1]), writer_rack);
            assert_ne!(topo.rack_of(b.replicas[2]), writer_rack);
        }
    }

    #[test]
    fn replication_clamped_to_cluster_size() {
        let mut d: Dfs<u32> = Dfs::new(Topology::new(2, 1, 1), 8, 3);
        d.put_fixed("f", (0..10).collect(), 4).unwrap();
        for &id in d.blocks_of("f").unwrap() {
            assert_eq!(d.block(id).replicas.len(), 2);
        }
    }

    #[test]
    fn primary_replicas_are_balanced() {
        let mut d = dfs(8);
        d.put_fixed("f", (0..1000).collect(), 4).unwrap();
        let dist = d.primary_distribution();
        let total: usize = dist.iter().sum();
        assert_eq!(total, 500); // 2 records per chunk
        for &c in &dist {
            // Round-robin writers: perfectly balanced within 1.
            assert!((99..=101).contains(&c), "unbalanced: {dist:?}");
        }
    }

    #[test]
    fn record_order_preserved_across_chunks() {
        let mut d = dfs(12); // 3 records per chunk
        let records: Vec<u32> = (0..31).collect();
        d.put_fixed("f", records.clone(), 4).unwrap();
        assert!(d.num_blocks("f").unwrap() > 1);
        assert_eq!(d.read("f").unwrap(), records);
    }

    #[test]
    fn rereplicate_heals_onto_live_nodes() {
        let mut d = dfs(40);
        d.put_fixed("f", (0..100).collect(), 4).unwrap();
        let chaos = ChaosPlan::none().crash_node(1, 0.0);
        let report = d.rereplicate(&chaos);
        assert!(report.healed_blocks > 0);
        assert_eq!(report.dropped_replicas, report.new_replicas);
        assert!(report.lost_blocks.is_empty());
        let topo = d.topology().clone();
        for &id in d.blocks_of("f").unwrap() {
            let b = d.block(id);
            assert_eq!(b.replicas.len(), 3);
            assert!(!b.replicas.contains(&1), "replica left on dead node");
            let mut sorted = b.replicas.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "duplicate replicas after healing");
            let racks: std::collections::BTreeSet<_> =
                b.replicas.iter().map(|&n| topo.rack_of(n)).collect();
            assert!(racks.len() >= 2, "healing lost rack diversity");
            // A healed chunk reads from any replica: zero failovers.
            let readable = |&n: &NodeId| chaos.replica_readable(id, n, 0.0);
            assert!(b.replicas.iter().all(readable));
        }
    }

    #[test]
    fn rereplicate_avoids_nodes_with_a_corrupt_copy() {
        let mut d: Dfs<u32> = Dfs::new(Topology::new(3, 1, 1), 400, 2);
        d.put_fixed("f", (0..100).collect(), 4).unwrap();
        let id = d.blocks_of("f").unwrap()[0];
        let replicas = d.block(id).replicas.clone();
        let spare: NodeId = (0..3).find(|n| !replicas.contains(n)).unwrap();
        // One replica's node dies, and the only spare node's disk already
        // corrupted its (future) copy — healing must not place there.
        let chaos = ChaosPlan::none()
            .crash_node(replicas[0], 0.0)
            .corrupt_replica(id, spare);
        let report = d.rereplicate(&chaos);
        assert_eq!(report.healed_blocks, 1);
        assert_eq!(report.new_replicas, 0); // nowhere safe to copy to
        assert_eq!(d.block(id).replicas, vec![replicas[1]]);
    }

    #[test]
    fn rereplicate_reports_unrecoverable_blocks() {
        let mut d = dfs(40);
        d.put_fixed("f", (0..100).collect(), 4).unwrap();
        let id = d.blocks_of("f").unwrap()[0];
        let replicas = d.block(id).replicas.clone();
        let mut chaos = ChaosPlan::none();
        for &n in &replicas {
            chaos = chaos.crash_node(n, 0.0);
        }
        let report = d.rereplicate(&chaos);
        assert!(report.lost_blocks.contains(&id));
        // Metadata untouched: the scheduler still finds no readable
        // replica and fails the job with an unreadable block.
        assert_eq!(d.block(id).replicas, replicas);
        assert!(!replicas.iter().any(|&n| chaos.replica_readable(id, n, 0.0)));
    }
}
