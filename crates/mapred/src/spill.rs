//! Out-of-core shuffle support: spill files, pair codecs, and the
//! external k-way merge.
//!
//! When a job carries a memory budget (see
//! [`crate::MapReduceJob::codecs`]), the shuffle's regroup step
//! stops concatenating map outputs into one giant in-memory partition.
//! Instead, whenever a partition's buffered buckets exceed the budget,
//! they are grouped as their stable sort by key would order them
//! ([`FlatGroups::from_runs`]) and written to a local *spill run* — a
//! length-prefixed record file under a per-job temp directory. The reduce
//! task then replays the partition as an external k-way merge over its
//! runs, decoded into windows of whole groups, which reproduces
//! **bit-identical** output to the in-memory path: runs are consecutive
//! chunks of the map-order concatenation, each stably sorted, and the
//! merge breaks key ties by run index — exactly the stable sort of the
//! whole concatenation.
//!
//! Because spill files hold raw bytes, the job needs a [`SpillCodec`]
//! telling it how to encode and decode one `(K, V)` pair. Primitive and
//! common composite types get one for free through [`SpillEncode`];
//! domain types plug in an explicit codec via
//! [`crate::MapReduceJob::codecs`] without `mapred` needing to know their
//! layout.

use crate::api::MrKey;
use crate::chaos::{ChaosPlan, IoFaultPlan};
use crate::commit::{self, CommitError, CommitReceipt};
use crate::job::{FlatGroups, KeyRuns};
use std::fs::{self, File};
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Types that know how to serialize themselves into a spill file.
///
/// The format is private to the engine (little-endian, length-prefixed
/// where needed) and only has to round-trip within one process — it is
/// not an interchange format.
pub trait SpillEncode: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value from the front of `input`, advancing it.
    /// Returns `None` on truncated or malformed input.
    fn decode(input: &mut &[u8]) -> Option<Self>;
}

macro_rules! spill_encode_int {
    ($($t:ty),*) => {$(
        impl SpillEncode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> Option<Self> {
                let (head, rest) = input.split_at_checked(std::mem::size_of::<$t>())?;
                *input = rest;
                Some(<$t>::from_le_bytes(head.try_into().ok()?))
            }
        }
    )*};
}

spill_encode_int!(u8, u16, u32, u64, i8, i16, i32, i64);

impl SpillEncode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        u64::decode(input).map(|n| n as usize)
    }
}

impl SpillEncode for f32 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        u32::decode(input).map(f32::from_bits)
    }
}

impl SpillEncode for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        u64::decode(input).map(f64::from_bits)
    }
}

impl SpillEncode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = u32::decode(input)? as usize;
        let (head, rest) = input.split_at_checked(len)?;
        *input = rest;
        String::from_utf8(head.to_vec()).ok()
    }
}

impl<T: SpillEncode> SpillEncode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = u32::decode(input)? as usize;
        let mut items = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            items.push(T::decode(input)?);
        }
        Some(items)
    }
}

impl<A: SpillEncode, B: SpillEncode> SpillEncode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some((A::decode(input)?, B::decode(input)?))
    }
}

type EncodeFn<K, V> = Arc<dyn Fn(&K, &V, &mut Vec<u8>) + Send + Sync>;
type DecodeFn<K, V> = Arc<dyn Fn(&mut &[u8]) -> Option<(K, V)> + Send + Sync>;

/// How to serialize one intermediate `(K, V)` pair into a spill file and
/// back. Closure-based so drivers can spill domain types the engine has
/// never heard of (no trait impl on foreign types required).
pub struct SpillCodec<K, V> {
    encode: EncodeFn<K, V>,
    decode: DecodeFn<K, V>,
}

impl<K, V> Clone for SpillCodec<K, V> {
    fn clone(&self) -> Self {
        Self {
            encode: Arc::clone(&self.encode),
            decode: Arc::clone(&self.decode),
        }
    }
}

impl<K, V> std::fmt::Debug for SpillCodec<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SpillCodec")
    }
}

impl<K, V> SpillCodec<K, V> {
    /// A codec from explicit encode/decode closures.
    pub fn new(
        encode: impl Fn(&K, &V, &mut Vec<u8>) + Send + Sync + 'static,
        decode: impl Fn(&mut &[u8]) -> Option<(K, V)> + Send + Sync + 'static,
    ) -> Self {
        Self {
            encode: Arc::new(encode),
            decode: Arc::new(decode),
        }
    }

    /// Encodes one pair, appending to `out`.
    pub fn encode(&self, key: &K, value: &V, out: &mut Vec<u8>) {
        (self.encode)(key, value, out);
    }

    /// Decodes one pair from the front of `input`, advancing it.
    pub fn decode(&self, input: &mut &[u8]) -> Option<(K, V)> {
        (self.decode)(input)
    }
}

impl<K: SpillEncode, V: SpillEncode> SpillCodec<K, V> {
    /// The derived codec for pair types that implement [`SpillEncode`].
    pub fn of() -> Self {
        Self::new(
            |k: &K, v: &V, out: &mut Vec<u8>| {
                k.encode(out);
                v.encode(out);
            },
            |input: &mut &[u8]| Some((K::decode(input)?, V::decode(input)?)),
        )
    }
}

static NEXT_SPILL_DIR: AtomicU64 = AtomicU64::new(0);

/// Maps an arbitrary tag (job or run name) onto a short filesystem-safe
/// slug.
pub(crate) fn sanitize(tag: &str) -> String {
    tag.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .take(32)
        .collect()
}

/// A per-job temporary directory holding spill runs, removed (with its
/// contents) when the last handle drops — usually at the end of
/// `run()`, or earlier if the job aborts, so failed attempts never leak
/// disk.
#[derive(Debug)]
pub struct SpillDir {
    path: PathBuf,
    /// The job's slug, which every file name here starts with.
    tag: String,
    next_file: AtomicU64,
    /// Payload bytes committed here and still charged against the
    /// virtual disk; released on drop.
    charged: AtomicU64,
    io: Option<IoFaultPlan>,
}

impl SpillDir {
    /// Creates a fresh spill directory under `root`, tied to the virtual
    /// disk of `io` when storage faults are active. Its name carries the
    /// process id and a per-process sequence number, so concurrent runs
    /// sharing one root never collide; `run_id`, when given, is added to
    /// the name as a label. The engine always passes `None`.
    pub fn create_in(
        root: &Path,
        job: &str,
        run_id: Option<&str>,
        io: Option<IoFaultPlan>,
    ) -> Result<Self, String> {
        let tag = sanitize(job);
        let run = run_id.map(sanitize).filter(|r| !r.is_empty());
        let name = match run {
            Some(run) => format!(
                "gepeto-spill-{run}-{tag}-{}-{}",
                std::process::id(),
                NEXT_SPILL_DIR.fetch_add(1, Ordering::Relaxed),
            ),
            None => format!(
                "gepeto-spill-{tag}-{}-{}",
                std::process::id(),
                NEXT_SPILL_DIR.fetch_add(1, Ordering::Relaxed),
            ),
        };
        let path = root.join(name);
        fs::create_dir_all(&path).map_err(|e| format!("create spill dir {path:?}: {e}"))?;
        Ok(Self {
            path,
            tag,
            next_file: AtomicU64::new(0),
            charged: AtomicU64::new(0),
            io,
        })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh unique file path inside the directory, named
    /// `{job}-{prefix}-{n}.spill`.
    pub fn next_file(&self, prefix: &str) -> PathBuf {
        let n = self.next_file.fetch_add(1, Ordering::Relaxed);
        self.path.join(format!("{}-{prefix}-{n}.spill", self.tag))
    }

    fn note_commit(&self, payload_bytes: u64) {
        self.charged.fetch_add(payload_bytes, Ordering::Relaxed);
    }

    fn note_release(&self, payload_bytes: u64) {
        let _ = self
            .charged
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(payload_bytes))
            });
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        if let Some(io) = &self.io {
            io.release(self.charged.load(Ordering::Relaxed));
        }
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// One sorted run on disk: a sequence of `u32`-length-prefixed encoded
/// `(K, V)` records in ascending key order, committed atomically with a
/// checksum footer (see [`crate::commit`]).
#[derive(Debug, Clone)]
pub struct SpillRun {
    /// File holding the run (inside its job's [`SpillDir`]).
    pub path: PathBuf,
    /// Number of pairs in the run.
    pub records: u64,
    /// Encoded size of the run in bytes (record payloads + prefixes;
    /// excludes the commit footer).
    pub bytes: u64,
    /// FNV-1a checksum of the record payload, as committed.
    pub checksum: u64,
}

/// Encodes `records` pairs, in order, into one length-prefixed record
/// stream and commits it at `path` through
/// [`commit::commit_bytes_verified`], deep-verified whenever storage
/// faults are active. Faults are drawn for the file's name
/// (`{job}-run-{n}.spill`, `{job}-p{task}.part`).
fn commit_run<'a, K: 'a, V: 'a>(
    codec: &SpillCodec<K, V>,
    path: PathBuf,
    records: usize,
    pairs: impl Iterator<Item = (&'a K, &'a V)>,
    chaos: &ChaosPlan,
) -> Result<(SpillRun, CommitReceipt), CommitError> {
    let mut payload = Vec::with_capacity(records * 16);
    let mut buf = Vec::with_capacity(256);
    for (k, v) in pairs {
        buf.clear();
        codec.encode(k, v, &mut buf);
        let len = u32::try_from(buf.len())
            .map_err(|_| CommitError::Io("spill record over 4 GiB".to_string()))?;
        payload.extend_from_slice(&len.to_le_bytes());
        payload.extend_from_slice(&buf);
    }
    let site = path.file_name().unwrap_or_default().to_string_lossy();
    let receipt = commit::commit_bytes_verified(&path, &payload, &site, chaos.io_active(), chaos)?;
    let run = SpillRun {
        path,
        records: records as u64,
        bytes: receipt.payload_bytes,
        checksum: receipt.checksum,
    };
    Ok((run, receipt))
}

/// Verifies a committed spill run: structural always (footer intact,
/// length and checksum match what was sealed), plus a deep payload
/// re-hash when `deep` is set (bit-rot defense while storage faults are
/// active).
///
/// # Errors
/// [`CommitError::Torn`] / [`CommitError::Corrupt`] / [`CommitError::Io`].
pub fn verify_run(run: &SpillRun, deep: bool) -> Result<(), CommitError> {
    let receipt = commit::verify_structure(&run.path)?;
    if receipt.payload_bytes != run.bytes || receipt.checksum != run.checksum {
        return Err(CommitError::Corrupt(format!(
            "{}: footer ({} B, {:016x}) disagrees with sealed run ({} B, {:016x})",
            run.path.display(),
            receipt.payload_bytes,
            receipt.checksum,
            run.bytes,
            run.checksum,
        )));
    }
    if deep {
        commit::verify_deep(&run.path)?;
    }
    Ok(())
}

/// Moves a failed-verification run aside as `<path>.quarantined` and
/// releases its virtual-disk charge.
pub fn quarantine_run(run: &SpillRun, dir: &SpillDir, chaos: &ChaosPlan) -> Option<PathBuf> {
    dir.note_release(run.bytes);
    commit::quarantine(&run.path, chaos)
}

/// Seals `pairs`, in order, as a verified run in `dir`. Its receipt
/// carries the storage-fault tallies of every write attempt.
///
/// # Errors
/// [`CommitError::DiskFull`] / [`CommitError::Io`] when the disk is out
/// of space, real IO fails, or rewrites exceed
/// [`commit::MAX_IO_ATTEMPTS`].
pub fn seal_run<K, V>(
    codec: &SpillCodec<K, V>,
    dir: &SpillDir,
    prefix: &str,
    pairs: &[(K, V)],
    chaos: &ChaosPlan,
) -> Result<(SpillRun, CommitReceipt), CommitError> {
    let in_order = pairs.iter().map(|(k, v)| (k, v));
    commit_run(codec, dir.next_file(prefix), pairs.len(), in_order, chaos)
        .inspect(|(run, _)| dir.note_commit(run.bytes))
}

/// [`seal_run`] of a partition's groups, each key's values in order: the
/// records a key-sorted pair slice of them would seal.
pub(crate) fn seal_groups<K: MrKey, V>(
    codec: &SpillCodec<K, V>,
    dir: &SpillDir,
    prefix: &str,
    groups: &FlatGroups<K, V>,
    chaos: &ChaosPlan,
) -> Result<(SpillRun, CommitReceipt), CommitError> {
    let records = groups.iter().map(|(_, values)| values.len()).sum();
    let pairs = groups
        .iter()
        .flat_map(|(key, values)| values.iter().map(move |value| (key, value)));
    commit_run(codec, dir.next_file(prefix), records, pairs, chaos)
        .inspect(|(run, _)| dir.note_commit(run.bytes))
}

/// Like [`seal_run`], at an explicit path outside any [`SpillDir`] —
/// used for durable reduce-partition artifacts in a run directory. Any
/// stale or damaged file already at the path (e.g. a partial write from
/// a crashed run) is quarantined first, which also releases its
/// virtual-disk charge so overwrites never leak accounting.
pub fn seal_run_at<K, V>(
    codec: &SpillCodec<K, V>,
    path: &Path,
    pairs: &[(K, V)],
    chaos: &ChaosPlan,
) -> Result<(SpillRun, CommitReceipt), CommitError> {
    let in_order = pairs.iter().map(|(k, v)| (k, v));
    commit_run(codec, path.to_path_buf(), pairs.len(), in_order, chaos)
}

/// Reloads a committed artifact written by [`seal_run_at`], verifying
/// (always — this is a verifying read standing in for a full recompute)
/// its structure, its payload hash, and the checksum the journal
/// recorded, before decoding. Pairs come back in their sealed order.
pub fn load_artifact<K, V>(
    codec: &SpillCodec<K, V>,
    path: &Path,
    records: u64,
    checksum: u64,
) -> Result<Vec<(K, V)>, CommitError> {
    let receipt = commit::verify_deep(path)?;
    if receipt.checksum != checksum {
        return Err(CommitError::Corrupt(format!(
            "{}: footer checksum {:016x} disagrees with journal {:016x}",
            path.display(),
            receipt.checksum,
            checksum,
        )));
    }
    let run = SpillRun {
        path: path.to_path_buf(),
        records,
        bytes: receipt.payload_bytes,
        checksum,
    };
    let mut reader = SpillRunReader::open(&run, codec.clone()).map_err(CommitError::Io)?;
    let mut out = Vec::with_capacity(records as usize);
    while let Some((k, v, _)) = reader.next_pair().map_err(CommitError::Io)? {
        out.push((k, v));
    }
    Ok(out)
}

/// Streaming reader over one spill run, yielding pairs in file order
/// with their encoded length (for downstream memory accounting).
pub struct SpillRunReader<K, V> {
    reader: BufReader<File>,
    remaining: u64,
    /// Payload bytes not yet read, which bound every length prefix.
    unread: u64,
    codec: SpillCodec<K, V>,
    path: PathBuf,
    buf: Vec<u8>,
}

impl<K, V> SpillRunReader<K, V> {
    /// Opens `run` for streaming decode.
    pub fn open(run: &SpillRun, codec: SpillCodec<K, V>) -> Result<Self, String> {
        let file =
            File::open(&run.path).map_err(|e| format!("open spill run {:?}: {e}", run.path))?;
        Ok(Self {
            reader: BufReader::new(file),
            remaining: run.records,
            unread: run.bytes,
            codec,
            path: run.path.clone(),
            buf: Vec::with_capacity(256),
        })
    }

    /// Decodes the next pair, or `Ok(None)` at end of run.
    #[allow(clippy::type_complexity)]
    pub fn next_pair(&mut self) -> Result<Option<(K, V, usize)>, String> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let mut len_bytes = [0u8; 4];
        self.reader
            .read_exact(&mut len_bytes)
            .map_err(|e| format!("read spill run {:?}: {e}", self.path))?;
        let len = u32::from_le_bytes(len_bytes) as usize;
        // A damaged prefix must not size the buffer: it fails here, not
        // in an allocation of up to 4 GiB.
        self.unread = self
            .unread
            .checked_sub(4 + len as u64)
            .ok_or_else(|| format!("corrupt spill record in {:?}", self.path))?;
        self.buf.resize(len, 0);
        self.reader
            .read_exact(&mut self.buf)
            .map_err(|e| format!("read spill run {:?}: {e}", self.path))?;
        let mut slice = &self.buf[..];
        let (k, v) = self
            .codec
            .decode(&mut slice)
            .filter(|_| slice.is_empty())
            .ok_or_else(|| format!("corrupt spill record in {:?}", self.path))?;
        self.remaining -= 1;
        Ok(Some((k, v, 4 + len)))
    }
}

/// External k-way merge over sorted spill runs.
///
/// Pops the globally smallest key next; ties between runs break toward
/// the lower run index. Since run `i` holds an earlier contiguous chunk
/// of the map-order concatenation than run `i + 1`, and each run is
/// stably sorted, the merged stream is exactly the stable sort of the
/// whole concatenation — bit-identical to the in-memory path.
pub struct SpillMerge<K, V> {
    readers: Vec<SpillRunReader<K, V>>,
    /// Head pair of each run, ordered by (key, run index). With a
    /// handful of runs a linear scan beats a heap and keeps the
    /// tie-break rule explicit.
    heads: Vec<Option<(K, V, usize)>>,
}

impl<K: Ord, V> SpillMerge<K, V> {
    /// Opens every run and primes the merge.
    pub fn open(runs: &[SpillRun], codec: &SpillCodec<K, V>) -> Result<Self, String> {
        let mut readers = Vec::with_capacity(runs.len());
        let mut heads = Vec::with_capacity(runs.len());
        for run in runs {
            let mut reader = SpillRunReader::open(run, codec.clone())?;
            heads.push(reader.next_pair()?);
            readers.push(reader);
        }
        Ok(Self { readers, heads })
    }

    /// The next pair in merged order, with its encoded length.
    #[allow(clippy::type_complexity)]
    pub fn next_pair(&mut self) -> Result<Option<(K, V, usize)>, String> {
        let mut best: Option<usize> = None;
        for (i, head) in self.heads.iter().enumerate() {
            if let Some((k, _, _)) = head {
                match best {
                    // Strict `<`: an equal key in a later run never
                    // displaces the earlier run's head (stability).
                    Some(b) if k < &self.heads[b].as_ref().unwrap().0 => best = Some(i),
                    None => best = Some(i),
                    _ => {}
                }
            }
        }
        let Some(i) = best else { return Ok(None) };
        let next = self.readers[i].next_pair()?;
        Ok(std::mem::replace(&mut self.heads[i], next))
    }
}

/// A job run's spill configuration: the pair codec and the per-partition
/// in-memory byte budget past which the shuffle spills.
pub struct SpillSpec<K, V> {
    /// Pair codec for spill files.
    pub codec: SpillCodec<K, V>,
    /// Per-partition in-memory byte budget.
    pub budget: usize,
}

/// A reduce partition that overflowed the memory budget during the
/// shuffle: its pairs live in sorted runs on disk, kept alive by the
/// shared [`SpillDir`] handle.
pub struct SpilledPartition<K, V> {
    /// Sorted runs in map-concatenation order.
    pub runs: Vec<SpillRun>,
    /// Codec all runs were written with.
    pub codec: SpillCodec<K, V>,
    /// Keeps the backing directory alive until the partition is reduced.
    pub dir: Arc<SpillDir>,
}

/// One reduce partition's input: fully in memory, or spilled to runs.
pub enum PartitionInput<K, V> {
    /// The partition fit the budget (or no budget was set): the key-run
    /// buckets the map tasks filled for it, in task and range order. Their
    /// concatenation is the partition; the reduce task groups it
    /// ([`FlatGroups::from_runs`]) on the pool, where the buckets lie:
    /// only their runs are sorted, and no value is copied.
    Memory(Vec<KeyRuns<K, V>>),
    /// The partition overflowed and lives on disk.
    Spilled(SpilledPartition<K, V>),
}

impl<K, V> PartitionInput<K, V> {
    /// Number of pairs in the partition.
    pub fn records(&self) -> u64 {
        match self {
            PartitionInput::Memory(buckets) => buckets.iter().map(|b| b.len() as u64).sum(),
            PartitionInput::Spilled(sp) => sp.runs.iter().map(|r| r.records).sum(),
        }
    }
}

/// Streams the merged runs of a spilled partition back as windows of
/// whole groups, in ascending key order with each key's values in map
/// order, and hands each window to `reduce` as [`FlatGroups`] of one
/// column, each group one run of it. A window holds as many groups as fit
/// `group_budget` encoded bytes together; a group that alone outgrows the
/// budget sits alone in its window, its values in memory, since the
/// reducer takes them as one slice.
pub fn merge_groups<K: MrKey, V>(
    partition: &SpilledPartition<K, V>,
    group_budget: usize,
    mut reduce: impl FnMut(FlatGroups<K, V>),
) -> Result<(), String> {
    let mut merge = SpillMerge::open(&partition.runs, &partition.codec)?;
    let (runs, values) = (Vec::new(), Vec::new());
    let mut window = KeyRuns { runs, values };
    // Encoded bytes of the window, and of its last group.
    let (mut bytes, mut last_bytes) = (0, 0);
    while let Some((key, value, len)) = merge.next_pair()? {
        if window.runs.last().is_none_or(|(last, _)| *last != key) {
            // The last group is complete: the window is reduced when this
            // group's first value would not fit.
            if bytes > 0 && bytes + len > group_budget {
                reduce_window(&mut window, &mut reduce);
                bytes = 0;
            }
            window.runs.push((key, window.values.len()));
            last_bytes = 0;
        } else if last_bytes < bytes && bytes + len > group_budget {
            // Earlier groups fill the window: they are reduced, and this
            // group starts the next window.
            let (key, _) = window.runs.pop().expect("a group is open");
            let start = window.runs.last().map_or(0, |&(_, end)| end);
            let values = window.values.split_off(start);
            reduce_window(&mut window, &mut reduce);
            window = KeyRuns {
                runs: vec![(key, values.len())],
                values,
            };
            bytes = last_bytes;
        }
        window.values.push(value);
        window.runs.last_mut().expect("a group is open").1 = window.values.len();
        bytes += len;
        last_bytes += len;
    }
    reduce_window(&mut window, &mut reduce);
    Ok(())
}

/// Hands the window's groups to `reduce` and empties it.
fn reduce_window<K: MrKey, V>(
    window: &mut KeyRuns<K, V>,
    reduce: &mut impl FnMut(FlatGroups<K, V>),
) {
    if !window.is_empty() {
        // A reducer may keep the column (trails cut from it), so it keeps
        // none of the slack the column grew by.
        let runs = std::mem::take(&mut window.runs);
        let mut values = std::mem::take(&mut window.values);
        values.shrink_to_fit();
        reduce(FlatGroups::from_runs(vec![KeyRuns { runs, values }]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec() -> SpillCodec<String, u64> {
        SpillCodec::of()
    }

    fn dir() -> Arc<SpillDir> {
        Arc::new(SpillDir::create_in(&std::env::temp_dir(), "spill-test", None, None).unwrap())
    }

    /// Seals `pairs` as a run in `d`, without fault injection.
    fn write_run(d: &SpillDir, prefix: &str, pairs: &[(String, u64)]) -> SpillRun {
        seal_run(&codec(), d, prefix, pairs, &ChaosPlan::none())
            .unwrap()
            .0
    }

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        42u32.encode(&mut buf);
        (-7i64).encode(&mut buf);
        1.5f64.encode(&mut buf);
        "héllo".to_string().encode(&mut buf);
        vec![1u8, 2, 3].encode(&mut buf);
        (9usize, 2.25f32).encode(&mut buf);
        let mut s = &buf[..];
        assert_eq!(u32::decode(&mut s), Some(42));
        assert_eq!(i64::decode(&mut s), Some(-7));
        assert_eq!(f64::decode(&mut s), Some(1.5));
        assert_eq!(String::decode(&mut s), Some("héllo".to_string()));
        assert_eq!(Vec::<u8>::decode(&mut s), Some(vec![1, 2, 3]));
        assert_eq!(<(usize, f32)>::decode(&mut s), Some((9, 2.25)));
        assert!(s.is_empty());
        assert_eq!(u32::decode(&mut s), None, "truncated input must be None");
    }

    #[test]
    fn run_round_trips_in_order() {
        let d = dir();
        let pairs: Vec<(String, u64)> = (0..100).map(|i| (format!("k{i:03}"), i)).collect();
        let run = write_run(&d, "t", &pairs);
        assert_eq!(run.records, 100);
        assert!(run.bytes > 0);
        let mut reader = SpillRunReader::open(&run, codec()).unwrap();
        let mut got = Vec::new();
        while let Some((k, v, len)) = reader.next_pair().unwrap() {
            assert!(len > 4);
            got.push((k, v));
        }
        assert_eq!(got, pairs);
    }

    #[test]
    fn merge_matches_stable_sort_of_concatenation() {
        let d = dir();
        // Three runs that are consecutive chunks of one concatenation,
        // with duplicate keys across runs carrying distinct values so a
        // stability violation is visible.
        let chunks: Vec<Vec<(String, u64)>> = vec![
            vec![("b".into(), 0), ("a".into(), 1), ("b".into(), 2)],
            vec![("a".into(), 3), ("c".into(), 4)],
            vec![("b".into(), 5), ("a".into(), 6)],
        ];
        let mut expected: Vec<(String, u64)> = chunks.concat();
        expected.sort_by(|a, b| a.0.cmp(&b.0));

        let mut runs = Vec::new();
        for mut chunk in chunks {
            chunk.sort_by(|a, b| a.0.cmp(&b.0));
            runs.push(write_run(&d, "m", &chunk));
        }
        let mut merge = SpillMerge::open(&runs, &codec()).unwrap();
        let mut got = Vec::new();
        while let Some((k, v, _)) = merge.next_pair().unwrap() {
            got.push((k, v));
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn merge_groups_spills_oversized_group_and_preserves_value_order() {
        let d = dir();
        let mut pairs: Vec<(String, u64)> = (0..50).map(|i| ("big".to_string(), i)).collect();
        for (i, key) in ["a", "b", "c", "d"].into_iter().enumerate() {
            pairs.push((key.into(), i as u64));
        }
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let run = write_run(&d, "g", &pairs);
        let partition = SpilledPartition {
            runs: vec![run],
            codec: codec(),
            dir: Arc::clone(&d),
        };
        let mut windows = Vec::new();
        // Records of 17–19 B against a budget of 64: "a" and "b" share a
        // window, the 50-value group outgrows the budget and sits alone in
        // its own, and "c" and "d" share the last.
        merge_groups(&partition, 64, |groups| {
            let window: Vec<(String, Vec<u64>)> = groups
                .iter()
                .map(|(k, vs)| (k.clone(), vs.as_slice().expect("one run").to_vec()))
                .collect();
            assert_eq!(groups.into_runs().0.len(), 1, "a window is one column");
            windows.push(window);
        })
        .unwrap();
        let keys: Vec<Vec<&str>> = windows
            .iter()
            .map(|w| w.iter().map(|(k, _)| k.as_str()).collect())
            .collect();
        assert_eq!(keys, [vec!["a", "b"], vec!["big"], vec!["c", "d"]]);
        assert_eq!(windows[1][0].1, (0..50).collect::<Vec<u64>>());
        assert_eq!(windows[0][1].1, vec![1]);
        assert_eq!(windows[2][1].1, vec![3]);
    }

    #[test]
    fn truncated_run_surfaces_an_error_not_a_panic() {
        let d = dir();
        let pairs: Vec<(String, u64)> = (0..10).map(|i| (format!("k{i}"), i)).collect();
        let run = write_run(&d, "trunc", &pairs);
        // Simulate a crash mid-spill: the file is cut short.
        let data = fs::read(&run.path).unwrap();
        fs::write(&run.path, &data[..data.len() / 2]).unwrap();
        let mut reader = SpillRunReader::open(&run, codec()).unwrap();
        let mut err = None;
        for _ in 0..10 {
            match reader.next_pair() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(err.unwrap().contains("read spill run"));
    }

    #[test]
    fn sealed_run_survives_torn_writes_and_bitrot() {
        use crate::chaos::ChaosPlan;
        let chaos = ChaosPlan::none().io_faults(
            crate::chaos::IoFaultPlan::new(13)
                .eio(0.3)
                .torn(1.0)
                .bitrot(0.5),
        );
        let d = SpillDir::create_in(
            &std::env::temp_dir(),
            "seal-test",
            Some("run7"),
            chaos.io_plan().cloned(),
        )
        .unwrap();
        assert!(d.path().to_string_lossy().contains("run7"));
        let pairs: Vec<(String, u64)> = (0..200).map(|i| (format!("k{i:03}"), i)).collect();
        let (run, stats) = seal_run(&codec(), &d, "run", &pairs, &chaos).unwrap();
        assert!(
            stats.torn_detected >= 1,
            "torn=1.0 must tear the first write"
        );
        assert!(stats.quarantined >= 1);
        verify_run(&run, true).unwrap();
        let mut reader = SpillRunReader::open(&run, codec()).unwrap();
        let mut got = Vec::new();
        while let Some((k, v, _)) = reader.next_pair().unwrap() {
            got.push((k, v));
        }
        assert_eq!(got, pairs, "sealed run is bit-identical to the buffer");
    }

    #[test]
    fn fault_sites_name_the_job_and_file_not_the_process() {
        use crate::chaos::ChaosPlan;
        // Two spill directories of one job, as two processes (or two
        // attempts) would create them: their paths differ in the process
        // id and the directory counter, their faults must not.
        let chaos = ChaosPlan::none().io_faults(
            crate::chaos::IoFaultPlan::new(11)
                .eio(0.3)
                .torn(0.4)
                .bitrot(0.2),
        );
        let seal_all = || {
            let d = SpillDir::create_in(
                &std::env::temp_dir(),
                "site-test",
                None,
                chaos.io_plan().cloned(),
            )
            .unwrap();
            let stats: Vec<CommitReceipt> = (0..16)
                .map(|i| {
                    let pairs: Vec<(String, u64)> = (0..50).map(|j| (format!("k{j}"), i)).collect();
                    seal_run(&codec(), &d, "run", &pairs, &chaos).unwrap().1
                })
                .collect();
            (d.path().to_path_buf(), stats)
        };
        let (first_dir, first) = seal_all();
        let (second_dir, second) = seal_all();
        assert_ne!(first_dir, second_dir);
        assert!(
            first
                .iter()
                .any(|s| s.torn_detected > 0 || s.quarantined > 0),
            "the plan injects faults: {first:?}"
        );
        assert_eq!(first, second);
    }

    #[test]
    fn verify_run_flags_post_seal_damage() {
        use crate::chaos::ChaosPlan;
        let d = dir();
        let pairs: Vec<(String, u64)> = (0..20).map(|i| (format!("k{i}"), i)).collect();
        let chaos = ChaosPlan::none();
        let (run, _) = seal_run(&codec(), &d, "v", &pairs, &chaos).unwrap();
        verify_run(&run, true).unwrap();
        // Flip one payload byte at rest: structure passes, deep fails.
        let mut data = fs::read(&run.path).unwrap();
        data[10] ^= 0x01;
        fs::write(&run.path, &data).unwrap();
        verify_run(&run, false).unwrap();
        assert!(matches!(
            verify_run(&run, true),
            Err(CommitError::Corrupt(_))
        ));
        let q = quarantine_run(&run, &d, &chaos).unwrap();
        assert!(q.to_string_lossy().ends_with(".quarantined"));
        assert!(!run.path.exists());
    }

    #[test]
    fn artifact_seals_at_explicit_path_and_reloads() {
        use crate::chaos::ChaosPlan;
        let d = dir();
        let path = d.path().join("wc-p0.part");
        let chaos = ChaosPlan::none();
        let pairs: Vec<(String, u64)> = (0..30).map(|i| (format!("k{i:02}"), i * 3)).collect();
        let (run, _) = seal_run_at(&codec(), &path, &pairs, &chaos).unwrap();
        let got = load_artifact(&codec(), &path, run.records, run.checksum).unwrap();
        assert_eq!(got, pairs);
        // Overwriting replaces the old artifact cleanly.
        let newer: Vec<(String, u64)> = vec![("z".into(), 1)];
        let (run2, _) = seal_run_at(&codec(), &path, &newer, &chaos).unwrap();
        assert_ne!(run2.checksum, run.checksum);
        let got2 = load_artifact(&codec(), &path, run2.records, run2.checksum).unwrap();
        assert_eq!(got2, newer);
        // A stale checksum (journal from a different seal) is rejected.
        assert!(matches!(
            load_artifact(&codec(), &path, run.records, run.checksum),
            Err(CommitError::Corrupt(_))
        ));
    }

    #[test]
    fn spill_dir_cleans_up_on_drop() {
        let d = SpillDir::create_in(&std::env::temp_dir(), "cleanup", None, None).unwrap();
        let path = d.path().to_path_buf();
        write_run(&d, "x", &[("k".to_string(), 1u64)]);
        assert!(path.exists());
        drop(d);
        assert!(!path.exists(), "spill dir must be removed on drop");
    }
}
