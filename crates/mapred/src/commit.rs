//! Atomic, verifiable commits for every durable byte the engine writes.
//!
//! Spill runs, reduce partition artifacts, a run's `OUTPUT` and its
//! `MANIFEST` all go through one write path, [`commit_bytes_verified`]:
//! write `payload` to `<path>.tmp`, append a fixed 24-byte footer —
//! `[payload_len: u64 LE][fnv64: u64 LE][magic: 8 B]` — fsync, then
//! rename over `path`. The magic sits *last* so structural
//! verification is a single O(1) trailer read: a torn write (any prefix
//! of the stream) either loses the magic or leaves a length that
//! disagrees with the file size. Deep verification re-hashes the payload
//! and catches at-rest bit-rot that a torn-write check cannot. The file is
//! read back before the commit returns, and rewritten until it verifies.
//!
//! Faults from the cluster's [`ChaosPlan`] IO plan are injected *here*,
//! beneath every caller: transient EIOs are absorbed by a bounded retry
//! loop that charges virtual-time backoff, torn writes and bit-rot are
//! materialized into the committed file (for the verifying readers to
//! catch), and ENOSPC surfaces as [`CommitError::DiskFull`] for the
//! storage-aware retry policy to handle.

use crate::chaos::{ChaosPlan, IoFault};
use crate::counters::builtin::{IO_RETRIES, IO_STALL_MS, RUNS_QUARANTINED, TORN_WRITES};
use crate::hash::FnvHasher;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::hash::Hasher;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Trailing magic of every committed file (version-stamped).
pub const COMMIT_MAGIC: &[u8; 8] = b"GEPCMT01";

/// Footer size: payload length + checksum + magic.
pub const FOOTER_BYTES: u64 = 24;

/// Transient EIOs absorbed per commit before giving up.
pub const MAX_IO_ATTEMPTS: u32 = 8;

/// Virtual seconds charged for the first EIO retry (doubles per retry).
pub const EIO_BACKOFF_S: f64 = 0.5;

/// Why a commit or a verifying read failed.
#[derive(Debug, Clone, PartialEq)]
pub enum CommitError {
    /// A real filesystem error, or injected transient EIOs exhausted
    /// the retry budget.
    Io(String),
    /// The disk has no room for this payload (ENOSPC).
    DiskFull(String),
    /// Structural verification failed: missing magic or a length that
    /// disagrees with the file size — the tail of the write was lost.
    Torn(String),
    /// Structure is intact but the payload no longer matches its
    /// checksum — at-rest corruption.
    Corrupt(String),
}

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitError::Io(m) => write!(f, "io error: {m}"),
            CommitError::DiskFull(m) => write!(f, "disk full: {m}"),
            CommitError::Torn(m) => write!(f, "torn write detected: {m}"),
            CommitError::Corrupt(m) => write!(f, "checksum mismatch: {m}"),
        }
    }
}

impl std::error::Error for CommitError {}

/// What a successful commit reports back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitReceipt {
    /// Bytes of payload (excludes the footer).
    pub payload_bytes: u64,
    /// FNV-1a checksum of the payload.
    pub checksum: u64,
    /// Injected transient EIOs absorbed before the write stuck.
    pub io_retries: u64,
    /// Torn writes caught by the verifying read-back.
    pub torn_detected: u64,
    /// Damaged (torn or rotten) writes quarantined and rewritten.
    pub quarantined: u64,
    /// Virtual milliseconds this commit stalled on storage: EIO retry
    /// backoff plus the configured slow-disk write penalty.
    pub stall_ms: u64,
}

impl CommitReceipt {
    /// The repairs the commit absorbed, each with the counter it adds to.
    pub fn repairs(&self) -> impl Iterator<Item = (&'static str, u64)> {
        let counts = [
            self.io_retries,
            self.torn_detected,
            self.quarantined,
            self.stall_ms,
        ];
        let counters = [IO_RETRIES, TORN_WRITES, RUNS_QUARANTINED, IO_STALL_MS];
        counters.into_iter().zip(counts).filter(|&(_, n)| n > 0)
    }
}

/// FNV-1a over raw bytes (byte-stream flavor of [`crate::fnv_hash`]).
pub fn fnv_bytes(payload: &[u8]) -> u64 {
    let mut h = FnvHasher::default();
    h.write(payload);
    h.finish()
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

fn footer(payload_len: u64, checksum: u64) -> [u8; FOOTER_BYTES as usize] {
    let mut f = [0u8; FOOTER_BYTES as usize];
    f[..8].copy_from_slice(&payload_len.to_le_bytes());
    f[8..16].copy_from_slice(&checksum.to_le_bytes());
    f[16..].copy_from_slice(COMMIT_MAGIC);
    f
}

/// Atomically commits `payload` to `path` with a checksum footer,
/// injecting any storage faults the chaos plan scripts for `site` at
/// retry number `attempt`.
///
/// Injected torn writes and bit-rot are materialized *into the
/// committed file* — the commit itself "succeeds" the way a lying disk
/// does, and the damage is only caught by [`verify_structure`] /
/// [`verify_deep`]. They fire only at `attempt == 0`, so a caller that
/// verifies and re-commits with `attempt + 1` always converges.
///
/// # Errors
/// [`CommitError::DiskFull`] when the virtual disk lacks capacity;
/// [`CommitError::Io`] on real filesystem errors or when injected
/// transient EIOs exceed [`MAX_IO_ATTEMPTS`].
pub fn commit_bytes(
    path: &Path,
    payload: &[u8],
    site: &str,
    attempt: u32,
    chaos: &ChaosPlan,
) -> Result<CommitReceipt, CommitError> {
    let checksum = fnv_bytes(payload);
    let io = chaos.io_plan();
    let mut io_retries = 0u64;
    let mut stall_ms = 0u64;
    let mut try_no = attempt;
    let fault = loop {
        match io.and_then(|p| p.write_fault(site, try_no, payload.len())) {
            Some(IoFault::TransientEio) => {
                io_retries += 1;
                if io_retries >= u64::from(MAX_IO_ATTEMPTS) {
                    return Err(CommitError::Io(format!(
                        "{}: transient EIO persisted for {MAX_IO_ATTEMPTS} attempts",
                        path.display()
                    )));
                }
                let backoff_s = EIO_BACKOFF_S * f64::from(1u32 << (io_retries - 1).min(6) as u32);
                chaos.advance(backoff_s);
                stall_ms += (backoff_s * 1e3).round() as u64;
                try_no += 1;
            }
            Some(IoFault::DiskFull) => {
                return Err(CommitError::DiskFull(format!(
                    "{}: {} payload bytes do not fit",
                    path.display(),
                    payload.len()
                )));
            }
            other => break other,
        }
    };

    let err = |e: std::io::Error| CommitError::Io(format!("{}: {e}", path.display()));
    let tmp = tmp_path(path);
    // The payload, then its footer: a torn write keeps a prefix of the two.
    let footer = footer(payload.len() as u64, checksum);
    let mut landed = payload.len() + footer.len();
    if let Some(IoFault::TornWrite { keep_bytes }) = fault {
        landed = landed.min(keep_bytes);
    }
    {
        let mut f = File::create(&tmp).map_err(err)?;
        f.write_all(&payload[..landed.min(payload.len())])
            .and_then(|()| f.write_all(&footer[..landed.saturating_sub(payload.len())]))
            .and_then(|()| f.sync_all())
            .map_err(err)?;
    }
    fs::rename(&tmp, path).map_err(err)?;
    if let Some(IoFault::BitRot { offset }) = fault {
        let mut f = OpenOptions::new().write(true).open(path).map_err(err)?;
        f.seek(SeekFrom::Start(offset as u64)).map_err(err)?;
        f.write_all(&[payload[offset] ^ 0x40]).map_err(err)?;
    }
    if let Some(p) = io {
        // Charge what actually landed on disk (minus the footer), so a
        // later quarantine — which releases `file_len - FOOTER_BYTES` —
        // returns exactly this charge.
        p.charge(landed.saturating_sub(FOOTER_BYTES as usize) as u64);
        let penalty_s = p.slow_penalty_s(landed as u64);
        chaos.advance(penalty_s);
        stall_ms += (penalty_s * 1e3).round() as u64;
    }
    Ok(CommitReceipt {
        payload_bytes: payload.len() as u64,
        checksum,
        io_retries,
        torn_detected: 0,
        quarantined: 0,
        stall_ms,
    })
}

/// The engine's one write path for a durable file: quarantines any stale
/// file at `path`, commits `payload`, and reads it back — structurally,
/// plus a payload re-hash when `deep` is set — quarantining and
/// rewriting until the bytes on disk verify. The payload is still in
/// memory, so a lying disk costs a rewrite, never the caller, and leaves
/// no torn or rotten file behind for a later reader to trip over.
///
/// Injected faults are drawn for `site`, which callers name after the
/// file, never its directory (whose name may hold a process id): one
/// fault seed injects the same faults in every process. The receipt
/// sums the tallies of every attempt.
///
/// # Errors
/// Same classes as [`commit_bytes`], plus [`CommitError::Io`] if the
/// file still fails verification after [`MAX_IO_ATTEMPTS`] rewrites.
pub fn commit_bytes_verified(
    path: &Path,
    payload: &[u8],
    site: &str,
    deep: bool,
    chaos: &ChaosPlan,
) -> Result<CommitReceipt, CommitError> {
    if path.exists() {
        quarantine(path, chaos);
    }
    let (mut io_retries, mut stall_ms, mut torn_detected, mut quarantined) = (0, 0, 0, 0);
    for attempt in 0..MAX_IO_ATTEMPTS {
        // Injected torn writes and bit-rot do not error here: they are
        // materialized into the file for the read-back to catch.
        let receipt = commit_bytes(path, payload, site, attempt, chaos)?;
        io_retries += receipt.io_retries;
        stall_ms += receipt.stall_ms;
        let verified = if deep {
            verify_deep(path)
        } else {
            verify_structure(path)
        };
        match verified {
            Ok(_) => {
                return Ok(CommitReceipt {
                    io_retries,
                    torn_detected,
                    quarantined,
                    stall_ms,
                    ..receipt
                })
            }
            Err(e @ (CommitError::Torn(_) | CommitError::Corrupt(_))) => {
                torn_detected += u64::from(matches!(e, CommitError::Torn(_)));
                quarantined += 1;
                quarantine(path, chaos);
            }
            Err(e) => return Err(e),
        }
    }
    Err(CommitError::Io(format!(
        "{}: commit still failed verification after {MAX_IO_ATTEMPTS} rewrites",
        path.display()
    )))
}

/// O(1) structural verification: the footer's magic is present and its
/// recorded payload length matches the file size. Catches torn writes.
///
/// # Errors
/// [`CommitError::Torn`] on any structural mismatch, [`CommitError::Io`]
/// if the file cannot be read at all.
pub fn verify_structure(path: &Path) -> Result<CommitReceipt, CommitError> {
    let err = |e: std::io::Error| CommitError::Io(format!("{}: {e}", path.display()));
    let len = fs::metadata(path).map_err(err)?.len();
    if len < FOOTER_BYTES {
        return Err(CommitError::Torn(format!(
            "{}: {len} bytes is shorter than the commit footer",
            path.display()
        )));
    }
    let mut f = File::open(path).map_err(err)?;
    f.seek(SeekFrom::End(-(FOOTER_BYTES as i64))).map_err(err)?;
    let mut foot = [0u8; FOOTER_BYTES as usize];
    f.read_exact(&mut foot).map_err(err)?;
    if &foot[16..] != COMMIT_MAGIC {
        return Err(CommitError::Torn(format!(
            "{}: commit magic missing",
            path.display()
        )));
    }
    let payload_len = u64::from_le_bytes(foot[..8].try_into().unwrap());
    if payload_len != len - FOOTER_BYTES {
        return Err(CommitError::Torn(format!(
            "{}: footer claims {payload_len} payload bytes, file holds {}",
            path.display(),
            len - FOOTER_BYTES
        )));
    }
    let checksum = u64::from_le_bytes(foot[8..16].try_into().unwrap());
    Ok(CommitReceipt {
        payload_bytes: payload_len,
        checksum,
        io_retries: 0,
        torn_detected: 0,
        quarantined: 0,
        stall_ms: 0,
    })
}

/// Full verification: structure plus a payload re-hash. Catches at-rest
/// bit-rot that structural checks cannot.
///
/// # Errors
/// [`CommitError::Torn`] / [`CommitError::Corrupt`] / [`CommitError::Io`].
pub fn verify_deep(path: &Path) -> Result<CommitReceipt, CommitError> {
    let receipt = verify_structure(path)?;
    let err = |e: std::io::Error| CommitError::Io(format!("{}: {e}", path.display()));
    let mut f = File::open(path).map_err(err)?;
    let mut hasher = FnvHasher::default();
    let mut remaining = receipt.payload_bytes;
    let mut buf = [0u8; 64 * 1024];
    while remaining > 0 {
        let want = remaining.min(buf.len() as u64) as usize;
        f.read_exact(&mut buf[..want]).map_err(err)?;
        hasher.write(&buf[..want]);
        remaining -= want as u64;
    }
    if hasher.finish() != receipt.checksum {
        return Err(CommitError::Corrupt(format!(
            "{}: payload hash {:016x} != footer {:016x}",
            path.display(),
            hasher.finish(),
            receipt.checksum
        )));
    }
    Ok(receipt)
}

/// Reads and fully verifies a committed file, returning the payload.
///
/// # Errors
/// Same classes as [`verify_deep`].
pub fn read_committed(path: &Path) -> Result<Vec<u8>, CommitError> {
    let receipt = verify_structure(path)?;
    let err = |e: std::io::Error| CommitError::Io(format!("{}: {e}", path.display()));
    let mut f = File::open(path).map_err(err)?;
    let mut payload = vec![0u8; receipt.payload_bytes as usize];
    f.read_exact(&mut payload).map_err(err)?;
    if fnv_bytes(&payload) != receipt.checksum {
        return Err(CommitError::Corrupt(format!(
            "{}: payload does not match footer checksum",
            path.display()
        )));
    }
    Ok(payload)
}

/// Moves a failed-verification file aside as `<path>.quarantined`
/// (falling back to deletion), releasing its virtual-disk charge so a
/// rewrite can fit. Returns the quarantine path if the file was kept.
pub fn quarantine(path: &Path, chaos: &ChaosPlan) -> Option<PathBuf> {
    let bytes = fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    if let Some(p) = chaos.io_plan() {
        // The payload charge excludes the footer; never release more
        // than was charged.
        p.release(bytes.saturating_sub(FOOTER_BYTES));
    }
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".quarantined");
    let q = path.with_file_name(name);
    if fs::rename(path, &q).is_ok() {
        Some(q)
    } else {
        let _ = fs::remove_file(path);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::IoFaultPlan;

    fn dir() -> tempdir::TempDir {
        tempdir::TempDir::create()
    }

    // A minimal tempdir helper so these tests need no external crate.
    mod tempdir {
        use std::path::{Path, PathBuf};
        pub struct TempDir(PathBuf);
        impl TempDir {
            pub fn create() -> Self {
                let n = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .unwrap()
                    .as_nanos();
                let p = std::env::temp_dir()
                    .join(format!("gepeto-commit-test-{}-{n}", std::process::id()));
                std::fs::create_dir_all(&p).unwrap();
                TempDir(p)
            }
            pub fn path(&self) -> &Path {
                &self.0
            }
        }
        impl Drop for TempDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    #[test]
    fn commit_then_verify_round_trips() {
        let d = dir();
        let path = d.path().join("a.run");
        let chaos = ChaosPlan::none();
        let r = commit_bytes(&path, b"hello world", "a", 0, &chaos).unwrap();
        assert_eq!(r.payload_bytes, 11);
        assert_eq!(r.io_retries, 0);
        assert_eq!(verify_structure(&path).unwrap().checksum, r.checksum);
        verify_deep(&path).unwrap();
        assert_eq!(read_committed(&path).unwrap(), b"hello world");
        assert!(!tmp_path(&path).exists(), "tmp file renamed away");
    }

    #[test]
    fn truncation_is_structurally_detected() {
        let d = dir();
        let path = d.path().join("b.run");
        let chaos = ChaosPlan::none();
        commit_bytes(&path, &[7u8; 256], "b", 0, &chaos).unwrap();
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 5]).unwrap();
        assert!(matches!(verify_structure(&path), Err(CommitError::Torn(_))));
    }

    #[test]
    fn bitrot_passes_structure_but_fails_deep() {
        let d = dir();
        let path = d.path().join("c.run");
        let chaos = ChaosPlan::none();
        commit_bytes(&path, &[9u8; 256], "c", 0, &chaos).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[100] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        verify_structure(&path).unwrap();
        assert!(matches!(verify_deep(&path), Err(CommitError::Corrupt(_))));
        assert!(matches!(
            read_committed(&path),
            Err(CommitError::Corrupt(_))
        ));
    }

    #[test]
    fn injected_torn_write_is_caught_and_heals_on_retry() {
        let d = dir();
        let chaos =
            ChaosPlan::none().io_faults(IoFaultPlan::new(3).torn(1.0).disk_capacity(1 << 20));
        let path = d.path().join("d.run");
        commit_bytes(&path, &[1u8; 512], "d", 0, &chaos).unwrap();
        assert!(matches!(verify_structure(&path), Err(CommitError::Torn(_))));
        assert!(quarantine(&path, &chaos).is_some());
        assert!(!path.exists());
        // Attempt 1 never tears; the rewrite verifies clean.
        commit_bytes(&path, &[1u8; 512], "d", 1, &chaos).unwrap();
        verify_deep(&path).unwrap();
    }

    #[test]
    fn injected_bitrot_is_caught_by_deep_verify() {
        let d = dir();
        let chaos = ChaosPlan::none().io_faults(IoFaultPlan::new(11).bitrot(1.0));
        let path = d.path().join("e.run");
        commit_bytes(&path, &[5u8; 512], "e", 0, &chaos).unwrap();
        verify_structure(&path).unwrap();
        assert!(matches!(verify_deep(&path), Err(CommitError::Corrupt(_))));
        commit_bytes(&path, &[5u8; 512], "e", 1, &chaos).unwrap();
        verify_deep(&path).unwrap();
    }

    #[test]
    fn verified_commit_survives_certain_torn_writes_and_bitrot() {
        let d = dir();
        let chaos = ChaosPlan::none().io_faults(IoFaultPlan::new(7).torn(1.0).bitrot(1.0));
        let path = d.path().join("h.run");
        let r = commit_bytes_verified(&path, &[3u8; 700], "h", true, &chaos).unwrap();
        assert_eq!(r.payload_bytes, 700);
        // The first write tears; the rewrite neither tears nor rots.
        assert_eq!((r.torn_detected, r.quarantined), (1, 1));
        verify_deep(&path).unwrap();
        assert_eq!(read_committed(&path).unwrap(), vec![3u8; 700]);
    }

    #[test]
    fn transient_eio_retries_and_charges_the_clock() {
        let d = dir();
        let chaos = ChaosPlan::none().io_faults(IoFaultPlan::new(2).eio(1.0).eio_streak(3));
        let path = d.path().join("f.run");
        let r = commit_bytes(&path, &[2u8; 64], "f", 0, &chaos).unwrap();
        assert_eq!(r.io_retries, 3, "one EIO per attempt below the streak cap");
        assert!(chaos.now() > 0.0, "backoff charged to the virtual clock");
        assert_eq!(r.stall_ms, 3_500, "0.5 + 1 + 2 s of exponential backoff");
        verify_deep(&path).unwrap();
    }

    #[test]
    fn slow_disk_penalty_lands_in_the_receipt() {
        let d = dir();
        // 2 virtual seconds per MiB; a 1 MiB payload (+footer) stalls
        // just over 2000 ms, and the receipt must carry it.
        let chaos = ChaosPlan::none().io_faults(IoFaultPlan::new(0).slow(2.0));
        let path = d.path().join("s.run");
        let r = commit_bytes(&path, &vec![0u8; 1 << 20], "s", 0, &chaos).unwrap();
        assert!(
            r.stall_ms >= 2_000,
            "slow-disk stall missing from receipt: {} ms",
            r.stall_ms
        );
        assert!(chaos.now() >= 2.0, "penalty charged to the virtual clock");
        // A fault-free commit stalls for nothing.
        let calm = ChaosPlan::none();
        let r2 = commit_bytes(&d.path().join("t.run"), b"x", "t", 0, &calm).unwrap();
        assert_eq!(r2.stall_ms, 0);
    }

    #[test]
    fn disk_full_surfaces_and_clears_after_release() {
        let d = dir();
        let plan = IoFaultPlan::new(0).disk_capacity(100);
        let chaos = ChaosPlan::none().io_faults(plan);
        let path = d.path().join("g.run");
        assert!(matches!(
            commit_bytes(&path, &[0u8; 200], "g", 0, &chaos),
            Err(CommitError::DiskFull(_))
        ));
        commit_bytes(&path, &[0u8; 80], "g", 0, &chaos).unwrap();
        assert_eq!(chaos.io_plan().unwrap().bytes_in_use(), 80);
        assert!(quarantine(&path, &chaos).is_some());
        assert_eq!(chaos.io_plan().unwrap().bytes_in_use(), 0);
    }
}
