//! The write-ahead run journal behind `gepeto resume`.
//!
//! A *run directory* makes a whole analysis run durable:
//!
//! ```text
//! <run-dir>/
//!   MANIFEST        # the launching argv, one token per line (commit-footer file)
//!   journal.log     # append-only, line-framed, per-line checksummed
//!   spill/          # this run's spill dirs (swept on resume)
//!   partitions/     # committed reduce outputs (commit-footer files)
//!   OUTPUT          # the final artifact (commit-footer file)
//! ```
//!
//! Every journal line is `v1 <kind> <fields…> <fnv64-hex>` with
//! space-separated, percent-escaped fields and a trailing FNV-1a
//! checksum of the line body. Reads stop at the first damaged line —
//! classic WAL semantics, so a SIGKILL mid-append costs at most the
//! last record. Appends that mark durable progress (reduce commits,
//! checkpoints, artifacts, completion) are fsynced; high-rate map/spill
//! records are only flushed.
//!
//! Resume replays the journal: maps and shuffles are deterministic and
//! always re-run, but a reduce partition whose committed artifact still
//! verifies is loaded from disk instead of recomputed, and an iterative
//! driver restarts from its last checkpoint — producing bit-identical
//! output to an uninterrupted run.

use crate::chaos::ChaosPlan;
use crate::commit::{self, fnv_bytes};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Journal line-format version tag.
const VERSION: &str = "v1";

/// One journaled fact about a run.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEntry {
    /// The run began (records the dispatched command for sanity).
    RunStart {
        /// The CLI command (e.g. `synth`).
        command: String,
    },
    /// A spill run was sealed and verified on disk.
    SpillSealed {
        /// Owning job name.
        job: String,
        /// Committed run path.
        path: String,
        /// Records in the run.
        records: usize,
        /// Payload bytes in the run.
        bytes: usize,
        /// Commit-footer checksum.
        checksum: u64,
    },
    /// Reduce partition `partition` of `job` committed its output.
    ReduceCommit {
        /// Owning job name.
        job: String,
        /// Partition index.
        partition: usize,
        /// Committed artifact path.
        path: String,
        /// Output pairs in the artifact.
        records: usize,
        /// Commit-footer checksum.
        checksum: u64,
    },
    /// A driver-level checkpoint (e.g. k-means iteration state).
    Checkpoint {
        /// Checkpoint namespace (e.g. `kmeans`).
        label: String,
        /// Opaque driver payload.
        payload: String,
    },
    /// A named run artifact (e.g. `OUTPUT`) committed.
    ArtifactCommit {
        /// Artifact name.
        name: String,
        /// Committed path.
        path: String,
        /// Commit-footer checksum.
        checksum: u64,
    },
    /// A telemetry segment for one attempt of this run was opened —
    /// provenance for the stitched cross-attempt trace. Not durable:
    /// the stitcher scans `<run-dir>/telemetry/` directly and this line
    /// only records which attempt wrote which file.
    TelemetrySegment {
        /// Attempt ordinal (0 = first launch, 1 = first resume, ...).
        attempt: usize,
        /// Segment path, relative to or inside the run directory.
        path: String,
    },
    /// The run finished; nothing is left to resume.
    RunComplete,
}

impl JournalEntry {
    fn kind(&self) -> &'static str {
        match self {
            JournalEntry::RunStart { .. } => "run-start",
            JournalEntry::SpillSealed { .. } => "spill",
            JournalEntry::ReduceCommit { .. } => "reduce",
            JournalEntry::Checkpoint { .. } => "checkpoint",
            JournalEntry::ArtifactCommit { .. } => "artifact",
            JournalEntry::TelemetrySegment { .. } => "telemetry",
            JournalEntry::RunComplete => "complete",
        }
    }

    /// Whether this entry marks durable progress worth an fsync.
    fn durable(&self) -> bool {
        matches!(
            self,
            JournalEntry::ReduceCommit { .. }
                | JournalEntry::Checkpoint { .. }
                | JournalEntry::ArtifactCommit { .. }
                | JournalEntry::RunComplete
        )
    }

    fn body(&self) -> String {
        let mut parts: Vec<String> = vec![VERSION.into(), self.kind().into()];
        match self {
            JournalEntry::RunStart { command } => parts.push(escape(command)),
            JournalEntry::SpillSealed {
                job,
                path,
                records,
                bytes,
                checksum,
            } => {
                parts.push(escape(job));
                parts.push(escape(path));
                parts.push(records.to_string());
                parts.push(bytes.to_string());
                parts.push(format!("{checksum:016x}"));
            }
            JournalEntry::ReduceCommit {
                job,
                partition,
                path,
                records,
                checksum,
            } => {
                parts.push(escape(job));
                parts.push(partition.to_string());
                parts.push(escape(path));
                parts.push(records.to_string());
                parts.push(format!("{checksum:016x}"));
            }
            JournalEntry::Checkpoint { label, payload } => {
                parts.push(escape(label));
                parts.push(escape(payload));
            }
            JournalEntry::ArtifactCommit {
                name,
                path,
                checksum,
            } => {
                parts.push(escape(name));
                parts.push(escape(path));
                parts.push(format!("{checksum:016x}"));
            }
            JournalEntry::TelemetrySegment { attempt, path } => {
                parts.push(attempt.to_string());
                parts.push(escape(path));
            }
            JournalEntry::RunComplete => {}
        }
        parts.join(" ")
    }

    fn parse(line: &str) -> Option<JournalEntry> {
        let body_end = line.rfind(' ')?;
        let (body, sum_hex) = (&line[..body_end], &line[body_end + 1..]);
        let sum = u64::from_str_radix(sum_hex, 16).ok()?;
        if fnv_bytes(body.as_bytes()) != sum {
            return None;
        }
        let mut it = body.split(' ');
        if it.next()? != VERSION {
            return None;
        }
        let kind = it.next()?;
        let entry = match kind {
            "run-start" => JournalEntry::RunStart {
                command: unescape(it.next()?)?,
            },
            "spill" => JournalEntry::SpillSealed {
                job: unescape(it.next()?)?,
                path: unescape(it.next()?)?,
                records: it.next()?.parse().ok()?,
                bytes: it.next()?.parse().ok()?,
                checksum: u64::from_str_radix(it.next()?, 16).ok()?,
            },
            "reduce" => JournalEntry::ReduceCommit {
                job: unescape(it.next()?)?,
                partition: it.next()?.parse().ok()?,
                path: unescape(it.next()?)?,
                records: it.next()?.parse().ok()?,
                checksum: u64::from_str_radix(it.next()?, 16).ok()?,
            },
            "checkpoint" => JournalEntry::Checkpoint {
                label: unescape(it.next()?)?,
                payload: unescape(it.next()?)?,
            },
            "artifact" => JournalEntry::ArtifactCommit {
                name: unescape(it.next()?)?,
                path: unescape(it.next()?)?,
                checksum: u64::from_str_radix(it.next()?, 16).ok()?,
            },
            "telemetry" => JournalEntry::TelemetrySegment {
                attempt: it.next()?.parse().ok()?,
                path: unescape(it.next()?)?,
            },
            "complete" => JournalEntry::RunComplete,
            _ => return None,
        };
        if it.next().is_some() {
            return None;
        }
        Some(entry)
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            _ => out.push(c),
        }
    }
    out
}

/// Inverts [`escape`] byte by byte; `None` when the decoded bytes are not
/// UTF-8, which no escaped field produces.
fn unescape(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let hex = bytes
            .get(i + 1..i + 3)
            .and_then(|h| std::str::from_utf8(h).ok());
        match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
            Some(v) if bytes[i] == b'%' => {
                out.push(v);
                i += 3;
            }
            _ => {
                out.push(bytes[i]);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// A committed reduce artifact recovered from the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct ReduceArtifact {
    /// Committed file path.
    pub path: PathBuf,
    /// Output pairs stored in it.
    pub records: usize,
    /// Commit-footer checksum at commit time.
    pub checksum: u64,
}

/// The append-only journal of one run directory. Thread-safe; clones of
/// the surrounding [`std::sync::Arc`] share the file handle.
#[derive(Debug)]
pub struct RunJournal {
    dir: PathBuf,
    log: Mutex<File>,
}

impl RunJournal {
    /// Opens (creating if needed) the journal under `dir`. The log is
    /// opened in append mode, so resuming never truncates history.
    ///
    /// # Errors
    /// Any filesystem error, stringified.
    pub fn attach(dir: &Path) -> Result<Self, String> {
        let mk = |e: std::io::Error| format!("{}: {e}", dir.display());
        fs::create_dir_all(dir.join("spill")).map_err(mk)?;
        fs::create_dir_all(dir.join("partitions")).map_err(mk)?;
        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("journal.log"))
            .map_err(mk)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            log: Mutex::new(log),
        })
    }

    /// The run directory this journal lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where this run's spill dirs are rooted.
    pub fn spill_root(&self) -> PathBuf {
        self.dir.join("spill")
    }

    /// Where committed reduce outputs live.
    pub fn partitions_dir(&self) -> PathBuf {
        self.dir.join("partitions")
    }

    /// Appends one entry; durable entries are fsynced, the rest only
    /// flushed (WAL discipline).
    ///
    /// # Errors
    /// Any filesystem error, stringified.
    pub fn append(&self, entry: &JournalEntry) -> Result<(), String> {
        let body = entry.body();
        let line = format!("{body} {:016x}\n", fnv_bytes(body.as_bytes()));
        let mut f = self.log.lock();
        f.write_all(line.as_bytes())
            .and_then(|()| f.flush())
            .and_then(|()| {
                if entry.durable() {
                    f.sync_data()
                } else {
                    Ok(())
                }
            })
            .map_err(|e| format!("journal {}: {e}", self.dir.display()))
    }

    /// All intact entries, stopping at the first torn/corrupt line.
    pub fn entries(&self) -> Vec<JournalEntry> {
        let text = fs::read_to_string(self.dir.join("journal.log")).unwrap_or_default();
        let mut out = Vec::new();
        for line in text.lines() {
            match JournalEntry::parse(line) {
                Some(e) => out.push(e),
                None => break,
            }
        }
        out
    }

    /// Whether a `RunComplete` entry has been journaled.
    pub fn is_complete(&self) -> bool {
        self.entries()
            .iter()
            .any(|e| matches!(e, JournalEntry::RunComplete))
    }

    /// Committed reduce artifacts of `job`, by partition (latest wins).
    pub fn committed_reduces(&self, job: &str) -> BTreeMap<usize, ReduceArtifact> {
        let mut out = BTreeMap::new();
        for e in self.entries() {
            if let JournalEntry::ReduceCommit {
                job: j,
                partition,
                path,
                records,
                checksum,
            } = e
            {
                if j == job {
                    out.insert(
                        partition,
                        ReduceArtifact {
                            path: PathBuf::from(path),
                            records,
                            checksum,
                        },
                    );
                }
            }
        }
        out
    }

    /// The payload of the last checkpoint under `label`, if any.
    pub fn last_checkpoint(&self, label: &str) -> Option<String> {
        self.entries().into_iter().rev().find_map(|e| match e {
            JournalEntry::Checkpoint { label: l, payload } if l == label => Some(payload),
            _ => None,
        })
    }

    /// Removes everything under `spill/` — stale runs left by a killed
    /// process. Maps and shuffles re-run deterministically, so nothing
    /// in there is needed to resume.
    pub fn sweep_spill(&self) {
        let root = self.spill_root();
        if let Ok(rd) = fs::read_dir(&root) {
            for e in rd.flatten() {
                let p = e.path();
                if p.is_dir() {
                    let _ = fs::remove_dir_all(&p);
                } else {
                    let _ = fs::remove_file(&p);
                }
            }
        }
    }

    /// Commits the MANIFEST (launch argv, one token per line) if it does
    /// not already exist — resume re-dispatches from it. The commit is
    /// atomic, so a kill mid-write leaves no MANIFEST rather than a short
    /// one, and the next launch writes it whole.
    ///
    /// # Errors
    /// Any filesystem error, stringified.
    pub fn write_manifest(&self, argv: &[String]) -> Result<(), String> {
        let path = self.dir.join("MANIFEST");
        if path.exists() {
            return Ok(());
        }
        let mut body = argv.join("\n");
        body.push('\n');
        let chaos = ChaosPlan::none();
        commit::commit_bytes_verified(&path, body.as_bytes(), "MANIFEST", true, &chaos)
            .map(drop)
            .map_err(|e| e.to_string())
    }

    /// Reads a run directory's MANIFEST back into an argv, verifying it
    /// against its commit footer.
    ///
    /// # Errors
    /// When the MANIFEST is missing, unreadable, torn or corrupt.
    pub fn read_manifest(dir: &Path) -> Result<Vec<String>, String> {
        let path = dir.join("MANIFEST");
        let payload = commit::read_committed(&path).map_err(|e| e.to_string())?;
        let text = String::from_utf8(payload).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(text.lines().map(str::to_string).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("gepeto-journal-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn entries_round_trip_with_escaping() {
        let dir = scratch("rt");
        let j = RunJournal::attach(&dir).unwrap();
        let entries = vec![
            JournalEntry::RunStart {
                command: "synth --users 100".into(),
            },
            JournalEntry::SpillSealed {
                job: "sampling-by-user".into(),
                path: "/tmp/a b/run-0000.run".into(),
                records: 42,
                bytes: 1234,
                checksum: 7,
            },
            JournalEntry::ReduceCommit {
                job: "sampling-by-user".into(),
                partition: 5,
                path: "/tmp/rundir-données/100 %€/p5.part".into(),
                records: 9,
                checksum: 99,
            },
            JournalEntry::Checkpoint {
                label: "kmeans".into(),
                payload: "2 0x3ff0 0x4000".into(),
            },
            JournalEntry::ArtifactCommit {
                name: "OUTPUT".into(),
                path: "OUTPUT".into(),
                checksum: 1,
            },
            JournalEntry::TelemetrySegment {
                attempt: 1,
                path: "telemetry/attempt-001.jsonl".into(),
            },
            JournalEntry::RunComplete,
        ];
        for e in &entries {
            j.append(e).unwrap();
        }
        assert_eq!(j.entries(), entries);
        assert!(j.is_complete());
        let reduces = j.committed_reduces("sampling-by-user");
        assert_eq!(reduces.len(), 1);
        assert_eq!(reduces[&5].records, 9);
        assert_eq!(j.last_checkpoint("kmeans").unwrap(), "2 0x3ff0 0x4000");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Characters a field must survive: the escaped ones, a `%` that
    /// looks like an escape, and multi-byte UTF-8.
    const AWKWARD: [char; 10] = ['%', ' ', '\n', '\r', 'é', '€', 'a', '2', 'F', '😀'];

    /// A field drawn from `draws`: an awkward character for an even draw,
    /// any scalar value for an odd one.
    fn field(draws: Vec<u32>) -> String {
        draws
            .into_iter()
            .map(|d| match d % 2 {
                0 => AWKWARD[(d / 2) as usize % AWKWARD.len()],
                _ => char::from_u32(d / 2 % 0x11_0000).unwrap_or('\u{fffd}'),
            })
            .collect()
    }

    fn line_of(body: &str) -> String {
        format!("{body} {:016x}", fnv_bytes(body.as_bytes()))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        #[test]
        fn entries_with_any_unicode_fields_round_trip(
            a in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..12),
            b in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..12),
            n in proptest::prelude::any::<usize>(),
        ) {
            let (a, b) = (field(a), field(b));
            for e in [
                JournalEntry::RunStart { command: a.clone() },
                JournalEntry::SpillSealed {
                    job: a.clone(),
                    path: b.clone(),
                    records: n,
                    bytes: n,
                    checksum: n as u64,
                },
                JournalEntry::ReduceCommit {
                    job: b.clone(),
                    partition: n,
                    path: a.clone(),
                    records: n,
                    checksum: n as u64,
                },
                JournalEntry::Checkpoint { label: a.clone(), payload: b.clone() },
                JournalEntry::ArtifactCommit { name: b.clone(), path: a.clone(), checksum: n as u64 },
                JournalEntry::TelemetrySegment { attempt: n, path: b.clone() },
            ] {
                proptest::prop_assert_eq!(JournalEntry::parse(&line_of(&e.body())), Some(e));
            }
        }

        /// A body whose checksum is right may still hold anything — a `%`
        /// before a multi-byte character, an escape that decodes to bytes
        /// that are not UTF-8 — and parsing it answers, never panics.
        #[test]
        fn a_checksummed_hostile_line_never_panics_the_parser(
            kind in 0usize..7,
            fields in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u32>(), 0..8),
                0..6,
            ),
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4),
        ) {
            let kinds = ["run-start", "spill", "reduce", "checkpoint", "artifact", "telemetry", "complete"];
            let mut body = format!("{VERSION} {}", kinds[kind]);
            for f in fields {
                body.push(' ');
                body.push_str(&field(f).replace([' ', '\n', '\r'], "%"));
            }
            for b in bytes {
                body.push_str(&format!("%{b:02x}"));
            }
            let _ = JournalEntry::parse(&line_of(&body));
        }
    }

    #[test]
    fn torn_tail_line_is_dropped_not_fatal() {
        let dir = scratch("torn");
        let j = RunJournal::attach(&dir).unwrap();
        j.append(&JournalEntry::RunStart {
            command: "synth".into(),
        })
        .unwrap();
        j.append(&JournalEntry::RunComplete).unwrap();
        // Simulate a SIGKILL mid-append: chop the last line in half.
        let log = dir.join("journal.log");
        let text = fs::read_to_string(&log).unwrap();
        fs::write(&log, &text[..text.len() - 8]).unwrap();
        let j2 = RunJournal::attach(&dir).unwrap();
        let entries = j2.entries();
        assert_eq!(entries.len(), 1, "only the intact prefix survives");
        assert!(!j2.is_complete());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_round_trips_and_never_overwrites() {
        let dir = scratch("mani");
        let j = RunJournal::attach(&dir).unwrap();
        let argv = vec!["synth".to_string(), "--users".into(), "100".into()];
        j.write_manifest(&argv).unwrap();
        j.write_manifest(&["other".to_string()]).unwrap();
        assert_eq!(RunJournal::read_manifest(&dir).unwrap(), argv);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_cut_manifest_is_an_error_not_a_shorter_argv() {
        let dir = scratch("cut");
        let j = RunJournal::attach(&dir).unwrap();
        let argv = vec!["synth".to_string(), "--users".into(), "100".into()];
        j.write_manifest(&argv).unwrap();
        let path = dir.join("MANIFEST");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        let read = RunJournal::read_manifest(&dir);
        assert!(read.is_err(), "a cut MANIFEST read back as {read:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_checkpoint_and_reduce_win() {
        let dir = scratch("latest");
        let j = RunJournal::attach(&dir).unwrap();
        for (i, payload) in ["a", "b"].iter().enumerate() {
            j.append(&JournalEntry::Checkpoint {
                label: "kmeans".into(),
                payload: (*payload).into(),
            })
            .unwrap();
            j.append(&JournalEntry::ReduceCommit {
                job: "j".into(),
                partition: 0,
                path: format!("p0-v{i}.part"),
                records: i,
                checksum: i as u64,
            })
            .unwrap();
        }
        assert_eq!(j.last_checkpoint("kmeans").unwrap(), "b");
        assert_eq!(
            j.committed_reduces("j")[&0].path,
            PathBuf::from("p0-v1.part")
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
