//! Out-of-core shuffle support: spill files, pair codecs, and the
//! external k-way merge.
//!
//! When a job carries a memory budget (see
//! [`crate::MapReduceJob::codecs`]), the shuffle's regroup step
//! stops concatenating map outputs into one giant in-memory partition.
//! Instead, whenever a partition's buffered pairs exceed the budget, the
//! buffer is stably sorted by key and written to a local *spill run* — a
//! length-prefixed record file under a per-job temp directory. The reduce
//! task then replays the partition as an external k-way merge over its
//! runs, which reproduces **bit-identical** output to the in-memory
//! sorted path: runs are consecutive chunks of the map-order
//! concatenation, each stably sorted, and the merge breaks key ties by
//! run index — exactly the stable sort of the whole concatenation.
//!
//! Because spill files hold raw bytes, the job needs a [`SpillCodec`]
//! telling it how to encode and decode one `(K, V)` pair. Primitive and
//! common composite types get one for free through [`SpillEncode`];
//! domain types plug in an explicit codec via
//! [`crate::MapReduceJob::codecs`] without `mapred` needing to know their
//! layout.

use crate::chaos::{ChaosPlan, IoFaultPlan};
use crate::commit::{self, CommitError};
use crate::job::KeyRuns;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
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
    next_file: AtomicU64,
    /// Payload bytes committed here and still charged against the
    /// virtual disk; released on drop.
    charged: AtomicU64,
    io: Option<IoFaultPlan>,
}

impl SpillDir {
    /// Creates a fresh unique directory under the OS temp dir.
    pub fn create(job: &str) -> Result<Self, String> {
        Self::create_in(&std::env::temp_dir(), job, None, None)
    }

    /// Creates a fresh spill directory under `root`, namespaced by an
    /// optional per-run id (so concurrent runs sharing one tmpdir, or a
    /// run directory's `spill/` root, never collide) and tied to the
    /// virtual disk of `io` when storage faults are active.
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
            next_file: AtomicU64::new(0),
            charged: AtomicU64::new(0),
            io,
        })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh unique file path inside the directory.
    pub fn next_file(&self, prefix: &str) -> PathBuf {
        let n = self.next_file.fetch_add(1, Ordering::Relaxed);
        self.path.join(format!("{prefix}-{n}.spill"))
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

/// Encodes an already-sorted pair slice into one length-prefixed record
/// stream.
fn encode_run<K, V>(codec: &SpillCodec<K, V>, pairs: &[(K, V)]) -> Result<Vec<u8>, String> {
    let mut payload = Vec::with_capacity(pairs.len() * 16);
    let mut buf = Vec::with_capacity(256);
    for (k, v) in pairs {
        buf.clear();
        codec.encode(k, v, &mut buf);
        let len = u32::try_from(buf.len()).map_err(|_| "spill record over 4 GiB".to_string())?;
        payload.extend_from_slice(&len.to_le_bytes());
        payload.extend_from_slice(&buf);
    }
    Ok(payload)
}

/// Writes an already-sorted pair slice as one spill run through the
/// atomic commit protocol, without fault injection.
pub fn write_run<K, V>(
    codec: &SpillCodec<K, V>,
    path: PathBuf,
    pairs: &[(K, V)],
) -> Result<SpillRun, String> {
    write_run_committed(codec, path, pairs, 0, &ChaosPlan::none())
        .map(|(run, _)| run)
        .map_err(|e| e.to_string())
}

/// Writes an already-sorted pair slice as one committed spill run,
/// injecting any storage faults the chaos plan scripts for this path at
/// retry number `attempt`.
///
/// # Errors
/// [`CommitError::DiskFull`] / [`CommitError::Io`] from the commit;
/// injected torn writes and bit-rot do *not* error here — they are
/// materialized into the file for [`verify_run`] to catch.
#[allow(clippy::type_complexity)]
pub fn write_run_committed<K, V>(
    codec: &SpillCodec<K, V>,
    path: PathBuf,
    pairs: &[(K, V)],
    attempt: u32,
    chaos: &ChaosPlan,
) -> Result<(SpillRun, commit::CommitReceipt), CommitError> {
    let payload = encode_run(codec, pairs).map_err(CommitError::Io)?;
    let site = path.display().to_string();
    let receipt = commit::commit_bytes(&path, &payload, &site, attempt, chaos)?;
    Ok((
        SpillRun {
            path,
            records: pairs.len() as u64,
            bytes: receipt.payload_bytes,
            checksum: receipt.checksum,
        },
        receipt,
    ))
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

/// Tallies from sealing one verified spill run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SealStats {
    /// Injected transient EIOs absorbed by the commit retry loop.
    pub io_retries: u64,
    /// Torn writes caught by seal-time verification.
    pub torn_detected: u64,
    /// Runs quarantined (torn or corrupt) and rewritten.
    pub quarantined: u64,
    /// Virtual milliseconds stalled on storage (EIO backoff and
    /// slow-disk penalties) across every write attempt.
    pub stall_ms: u64,
}

/// Rewrites a torn/corrupt run absorbs per seal before giving up.
const MAX_SEAL_REBUILDS: u32 = 4;

/// Writes, verifies, and (if damaged) quarantines-and-rewrites one
/// spill run until it sits intact on disk — the buffer is still in
/// memory, so a bad write costs a rewrite, never the job. Deep
/// verification is enabled whenever storage faults are active.
///
/// # Errors
/// [`CommitError::DiskFull`] / [`CommitError::Io`] when the disk is out
/// of space, real IO fails, or rebuilds exceed [`MAX_SEAL_REBUILDS`].
pub fn seal_run<K, V>(
    codec: &SpillCodec<K, V>,
    dir: &SpillDir,
    prefix: &str,
    pairs: &[(K, V)],
    chaos: &ChaosPlan,
) -> Result<(SpillRun, SealStats), CommitError> {
    let (run, stats) = seal_at(codec, dir.next_file(prefix), pairs, chaos)?;
    dir.note_commit(run.bytes);
    Ok((run, stats))
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
) -> Result<(SpillRun, SealStats), CommitError> {
    if path.exists() {
        commit::quarantine(path, chaos);
    }
    seal_at(codec, path.to_path_buf(), pairs, chaos)
}

fn seal_at<K, V>(
    codec: &SpillCodec<K, V>,
    path: PathBuf,
    pairs: &[(K, V)],
    chaos: &ChaosPlan,
) -> Result<(SpillRun, SealStats), CommitError> {
    let deep = chaos.io_active();
    let mut stats = SealStats::default();
    for attempt in 0..=MAX_SEAL_REBUILDS {
        let (run, receipt) = write_run_committed(codec, path.clone(), pairs, attempt, chaos)?;
        stats.io_retries += receipt.io_retries;
        stats.stall_ms += receipt.stall_ms;
        match verify_run(&run, deep) {
            Ok(()) => return Ok((run, stats)),
            Err(CommitError::Torn(_)) => {
                stats.torn_detected += 1;
                stats.quarantined += 1;
                commit::quarantine(&run.path, chaos);
            }
            Err(CommitError::Corrupt(_)) => {
                stats.quarantined += 1;
                commit::quarantine(&run.path, chaos);
            }
            Err(e) => return Err(e),
        }
    }
    Err(CommitError::Io(format!(
        "{}: run still damaged after {MAX_SEAL_REBUILDS} rewrites",
        path.display()
    )))
}

/// Reloads a committed artifact written by [`seal_run_at`], verifying
/// structure, the expected checksum, and (always — this is a verifying
/// read standing in for a full recompute) the deep payload hash before
/// decoding. Pairs come back in their sealed order.
pub fn load_artifact<K, V>(
    codec: &SpillCodec<K, V>,
    path: &Path,
    records: u64,
    checksum: u64,
) -> Result<Vec<(K, V)>, CommitError> {
    let receipt = commit::verify_structure(path)?;
    if receipt.checksum != checksum {
        return Err(CommitError::Corrupt(format!(
            "{}: footer checksum {:016x} disagrees with journal {:016x}",
            path.display(),
            receipt.checksum,
            checksum,
        )));
    }
    commit::verify_deep(path)?;
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

/// A reduce group whose value list outgrew the memory budget: the
/// overflow goes to its own spill file and is read back only for the
/// duration of the group's `reduce` call.
pub struct GroupSpill<K, V> {
    writer: BufWriter<File>,
    path: PathBuf,
    codec: SpillCodec<K, V>,
    records: u64,
    buf: Vec<u8>,
}

impl<K, V> GroupSpill<K, V> {
    /// Creates the overflow file for one group.
    pub fn create(path: PathBuf, codec: SpillCodec<K, V>) -> Result<Self, String> {
        let file = File::create(&path).map_err(|e| format!("create group spill {path:?}: {e}"))?;
        Ok(Self {
            writer: BufWriter::new(file),
            path,
            codec,
            records: 0,
            buf: Vec::with_capacity(256),
        })
    }

    /// Appends one overflow value (keyed for the shared codec).
    pub fn push(&mut self, key: &K, value: &V) -> Result<(), String> {
        self.buf.clear();
        self.codec.encode(key, value, &mut self.buf);
        let len =
            u32::try_from(self.buf.len()).map_err(|_| "spill record over 4 GiB".to_string())?;
        self.writer
            .write_all(&len.to_le_bytes())
            .and_then(|()| self.writer.write_all(&self.buf))
            .map_err(|e| format!("write group spill {:?}: {e}", self.path))?;
        self.records += 1;
        Ok(())
    }

    /// Finishes the file and reads every overflow value back in write
    /// order, deleting the file afterwards.
    pub fn into_values(self) -> Result<Vec<V>, String> {
        let GroupSpill {
            writer,
            path,
            codec,
            records,
            ..
        } = self;
        writer
            .into_inner()
            .map_err(|e| format!("flush group spill {path:?}: {e}"))?;
        let run = SpillRun {
            path: path.clone(),
            records,
            bytes: 0,
            checksum: 0,
        };
        let mut reader = SpillRunReader::open(&run, codec)?;
        let mut values = Vec::with_capacity(records as usize);
        while let Some((_, v, _)) = reader.next_pair()? {
            values.push(v);
        }
        drop(reader);
        let _ = fs::remove_file(&path);
        Ok(values)
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

impl<K, V> SpilledPartition<K, V> {
    /// Total pairs across all runs.
    pub fn records(&self) -> u64 {
        self.runs.iter().map(|r| r.records).sum()
    }
}

/// One reduce partition's input: fully in memory, or spilled to runs.
pub enum PartitionInput<K, V> {
    /// The partition fit the budget (or no budget was set): the key-run
    /// buckets the map tasks filled for it, in task and range order. Their
    /// concatenation is the partition; the reduce task groups it, so the
    /// copy runs on the pool instead of between the phases.
    Memory(Vec<KeyRuns<K, V>>),
    /// The partition overflowed and lives on disk.
    Spilled(SpilledPartition<K, V>),
}

impl<K, V> PartitionInput<K, V> {
    /// Number of pairs in the partition.
    pub fn records(&self) -> u64 {
        match self {
            PartitionInput::Memory(buckets) => buckets.iter().map(|b| b.len() as u64).sum(),
            PartitionInput::Spilled(sp) => sp.records(),
        }
    }

    /// Unwraps the in-memory buckets of a never-spilled partition.
    ///
    /// # Panics
    /// If the partition was spilled (map-only jobs never spill).
    pub fn into_buckets(self) -> Vec<KeyRuns<K, V>> {
        match self {
            PartitionInput::Memory(buckets) => buckets,
            PartitionInput::Spilled(_) => unreachable!("map-only partitions never spill"),
        }
    }
}

/// Streams the merged runs of a spilled partition back as `(key,
/// values)` groups, spilling any single group whose values outgrow
/// `group_budget` bytes to its own overflow file. Calls `emit(key,
/// values, spilled)` once per group, in ascending key order, where
/// `spilled` reports whether that group overflowed.
#[allow(clippy::type_complexity)]
pub fn merge_groups<K: Ord, V>(
    partition: &SpilledPartition<K, V>,
    group_budget: usize,
    mut emit: impl FnMut(K, Vec<V>, bool) -> Result<(), String>,
) -> Result<(), String> {
    let mut merge = SpillMerge::open(&partition.runs, &partition.codec)?;
    let mut current: Option<(K, Vec<V>)> = None;
    let mut group_bytes = 0usize;
    let mut overflow: Option<GroupSpill<K, V>> = None;
    while let Some((k, v, len)) = merge.next_pair()? {
        if current.as_ref().is_some_and(|(ck, _)| *ck != k) {
            let (key, mut values) = current.take().unwrap();
            let spilled = overflow.is_some();
            if let Some(file) = overflow.take() {
                values.extend(file.into_values()?);
            }
            emit(key, values, spilled)?;
            group_bytes = 0;
        }
        match &mut current {
            None => {
                current = Some((k, vec![v]));
                group_bytes = len;
            }
            Some((ck, values)) => {
                if overflow.is_none() && group_bytes + len > group_budget {
                    overflow = Some(GroupSpill::create(
                        partition.dir.next_file("group"),
                        partition.codec.clone(),
                    )?);
                }
                match &mut overflow {
                    Some(file) => file.push(ck, &v)?,
                    None => {
                        values.push(v);
                        group_bytes += len;
                    }
                }
            }
        }
    }
    if let Some((key, mut values)) = current.take() {
        let spilled = overflow.is_some();
        if let Some(file) = overflow.take() {
            values.extend(file.into_values()?);
        }
        emit(key, values, spilled)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec() -> SpillCodec<String, u64> {
        SpillCodec::of()
    }

    fn dir() -> Arc<SpillDir> {
        Arc::new(SpillDir::create("spill-test").unwrap())
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
        let run = write_run(&codec(), d.next_file("t"), &pairs).unwrap();
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
            runs.push(write_run(&codec(), d.next_file("m"), &chunk).unwrap());
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
        pairs.push(("tiny".into(), 99));
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let run = write_run(&codec(), d.next_file("g"), &pairs).unwrap();
        let partition = SpilledPartition {
            runs: vec![run],
            codec: codec(),
            dir: Arc::clone(&d),
        };
        let mut groups = Vec::new();
        // Budget fits ~4 records: the 50-value group must overflow.
        merge_groups(&partition, 64, |k, vs, spilled| {
            groups.push((k, vs, spilled));
            Ok(())
        })
        .unwrap();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, "big");
        assert_eq!(groups[0].1, (0..50).collect::<Vec<u64>>());
        assert!(groups[0].2, "oversized group must report spilled");
        assert_eq!(groups[1].0, "tiny");
        assert_eq!(groups[1].1, vec![99]);
        assert!(!groups[1].2);
    }

    #[test]
    fn truncated_run_surfaces_an_error_not_a_panic() {
        let d = dir();
        let pairs: Vec<(String, u64)> = (0..10).map(|i| (format!("k{i}"), i)).collect();
        let run = write_run(&codec(), d.next_file("trunc"), &pairs).unwrap();
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
        let d = SpillDir::create("cleanup").unwrap();
        let path = d.path().to_path_buf();
        write_run(&codec(), d.next_file("x"), &[("k".to_string(), 1u64)]).unwrap();
        assert!(path.exists());
        drop(d);
        assert!(!path.exists(), "spill dir must be removed on drop");
    }
}
