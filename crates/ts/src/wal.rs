//! Crash-durable write-ahead log for committed one-time counter indexes.
//!
//! Each counter replica appends one record per index it votes to commit,
//! *before* applying the commit to its in-memory state, and fsyncs the
//! record (`sync_data`) so an acknowledged vote survives a crash. This is
//! what makes the quorum-intersection argument hold across restarts: a
//! node that acked index `v` must still remember `v` after recovering,
//! otherwise two disjoint "quorums" separated in time could both commit
//! the same index.
//!
//! ## Format
//!
//! The log is a flat sequence of fixed-size 12-byte records:
//!
//! ```text
//! [ value: u64 LE ][ crc: u32 LE ]      crc = CRC-32 (IEEE) of the 8 value bytes
//! ```
//!
//! Values are strictly increasing (committed counter indexes; gaps are
//! legal — a catch-up adopt logs only the frontier). There is no header:
//! an empty file is a valid empty log, and recovery is a single forward
//! scan.
//!
//! ## Recovery invariants
//!
//! [`Wal::open`] replays the file and stops at the first record that is
//! short, fails its checksum, or breaks monotonicity; everything from
//! that offset on is a **torn tail** (a crash mid-`write`) and is
//! physically truncated away. The invariants:
//!
//! - recovery never *invents* state: the recovered frontier is always a
//!   prefix of what was appended (fail-closed — an index whose record was
//!   torn is simply not remembered, and the node re-learns the cluster
//!   frontier through the frontier read, `counter_prepare`);
//! - recovery never *loses* an acked commit: `append` returns only after
//!   `sync_data`, so every record a vote was acknowledged against is a
//!   complete, checksummed 12 bytes before the torn tail — and
//!   [`Wal::open`] fsyncs the parent directory, so the file's very
//!   existence (a fresh log's creation, a recovery's truncation) is as
//!   durable as its records.
//! - nothing is appended behind a failed write: a short write leaves the
//!   file cursor inside a record, so the first write or fsync error
//!   poisons the handle and every later append fails (the node refuses
//!   votes, fail closed) until the log is reopened and replayed.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// On-disk size of one log record: 8 value bytes + 4 checksum bytes.
pub const RECORD_SIZE: usize = 12;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes`.
///
/// Bitwise, no table: records are 8 bytes, so the ~64 shift/xor steps per
/// byte are noise next to the `sync_data` each append already pays.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Fsync the directory holding `path`, so the file's directory entry (a
/// creation or truncation) is as durable as its contents. A relative
/// path with no parent component lives in the current directory.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => File::open(dir)?.sync_all(),
        _ => File::open(".")?.sync_all(),
    }
}

/// Encode one record for `value`.
fn encode_record(value: u64) -> [u8; RECORD_SIZE] {
    let mut record = [0u8; RECORD_SIZE];
    record[..8].copy_from_slice(&value.to_le_bytes());
    record[8..].copy_from_slice(&crc32(&value.to_le_bytes()).to_le_bytes());
    record
}

/// What [`Wal::open`] reconstructed from disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Recovery {
    /// Recovered committed frontier: one past the highest logged index
    /// (0 for an empty log) — directly the counter node's `committed`.
    pub committed: u64,
    /// Number of valid records replayed.
    pub records: usize,
    /// Bytes of torn/corrupt tail discarded (0 for a clean log).
    pub discarded_bytes: u64,
}

/// An open, append-only counter log.
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Highest value logged so far (`None` for an empty log); guards the
    /// strictly-increasing invariant.
    last: Option<u64>,
    /// Set by a failed write or fsync. A short write leaves the cursor
    /// inside a record, so every later record would be misaligned and
    /// recovery would cut them all off as a torn tail: a poisoned log
    /// refuses every append until it is reopened.
    poisoned: bool,
}

impl Wal {
    /// Open (creating if absent) the log at `path`, replay it, and
    /// truncate any torn tail.
    pub fn open(path: &Path) -> io::Result<(Wal, Recovery)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut last: Option<u64> = None;
        let mut records = 0usize;
        let mut good = 0usize; // byte offset of the end of the valid prefix
        while bytes.len() - good >= RECORD_SIZE {
            let rec = &bytes[good..good + RECORD_SIZE];
            let value = u64::from_le_bytes(rec[..8].try_into().unwrap());
            let crc = u32::from_le_bytes(rec[8..].try_into().unwrap());
            let monotonic = last.is_none_or(|prev| value > prev);
            if crc != crc32(&rec[..8]) || !monotonic {
                break;
            }
            last = Some(value);
            records += 1;
            good += RECORD_SIZE;
        }

        let discarded_bytes = (bytes.len() - good) as u64;
        if discarded_bytes > 0 {
            file.set_len(good as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(good as u64))?;
        // Make the directory entry itself durable: a freshly created (or
        // just-truncated) log otherwise exists only in the unsynced parent
        // directory and can vanish wholesale on power failure — taking
        // fsynced records with it and breaking "an acked vote survives a
        // crash" for a node's earliest commits.
        sync_parent_dir(path)?;

        let recovery = Recovery {
            committed: last.map_or(0, |v| v + 1),
            records,
            discarded_bytes,
        };
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                last,
                poisoned: false,
            },
            recovery,
        ))
    }

    /// Durably log index `value` as committed. Returns only after the
    /// record is written **and** fsynced — callers may ack the vote once
    /// this returns. `value` must exceed every previously logged value,
    /// and `u64::MAX` is refused outright: its recovered frontier
    /// (`value + 1`) is unrepresentable, so a record for it could never
    /// be replayed faithfully. After a failed write or fsync every append
    /// fails until [`Wal::open`] replays the file again.
    pub fn append(&mut self, value: u64) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "an earlier append failed: reopen the log to recover",
            ));
        }
        if value == u64::MAX {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "index u64::MAX is unloggable (recovered frontier would overflow)",
            ));
        }
        debug_assert!(
            self.last.is_none_or(|prev| value > prev),
            "WAL values must be strictly increasing (last {:?}, got {value})",
            self.last
        );
        let written = self
            .file
            .write_all(&encode_record(value))
            .and_then(|()| self.file.sync_data());
        self.poisoned = written.is_err();
        written?;
        self.last = Some(value);
        Ok(())
    }

    /// Where this log lives (so a crash simulation can reopen it).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Highest value logged (`None` for an empty log).
    pub fn last(&self) -> Option<u64> {
        self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "smacs-wal-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        p
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn empty_log_recovers_to_zero() {
        let path = temp_path("empty");
        let (_wal, rec) = Wal::open(&path).unwrap();
        assert_eq!(
            rec,
            Recovery {
                committed: 0,
                records: 0,
                discarded_bytes: 0
            }
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_then_reopen_replays_frontier() {
        let path = temp_path("replay");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            for v in 0..5 {
                wal.append(v).unwrap();
            }
        }
        let (wal, rec) = Wal::open(&path).unwrap();
        assert_eq!(rec.committed, 5);
        assert_eq!(rec.records, 5);
        assert_eq!(rec.discarded_bytes, 0);
        assert_eq!(wal.last(), Some(4));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn gaps_from_adopts_replay() {
        let path = temp_path("gaps");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(0).unwrap();
            wal.append(7).unwrap(); // catch-up adopt logs only the frontier
            wal.append(8).unwrap();
        }
        let (_, rec) = Wal::open(&path).unwrap();
        assert_eq!(rec.committed, 9);
        assert_eq!(rec.records, 3);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_and_log_stays_appendable() {
        let path = temp_path("torn");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            for v in 0..3 {
                wal.append(v).unwrap();
            }
        }
        // Simulate a crash mid-write: half a record of the next append.
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&3u64.to_le_bytes()[..5]);
        fs::write(&path, &bytes).unwrap();

        let (mut wal, rec) = Wal::open(&path).unwrap();
        assert_eq!(rec.committed, 3, "torn record is not resurrected");
        assert_eq!(rec.discarded_bytes, 5);
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            (3 * RECORD_SIZE) as u64,
            "tail physically truncated"
        );
        wal.append(3).unwrap();
        let (_, rec2) = Wal::open(&path).unwrap();
        assert_eq!(rec2.committed, 4);
        fs::remove_file(&path).unwrap();
    }

    /// Fuzz the tail record exhaustively: for a 3-record log, truncate
    /// the file at *every* byte length inside the tail record, and
    /// separately flip a bit at *every* byte offset of the tail record.
    /// Whatever the damage, recovery must land on a committed prefix —
    /// `committed` is exactly 3 (tail intact) or exactly 2 (tail
    /// discarded), never anything else, never an uncommitted index
    /// resurrected — and the log must stay appendable afterwards.
    #[test]
    fn every_tail_truncation_and_corruption_recovers_to_a_prefix() {
        let path = temp_path("fuzz");
        let pristine = {
            {
                let (mut wal, _) = Wal::open(&path).unwrap();
                for v in 0..3 {
                    wal.append(v).unwrap();
                }
            }
            fs::read(&path).unwrap()
        };
        let tail_start = 2 * RECORD_SIZE;

        let check = |damaged: &[u8], what: &str| {
            fs::write(&path, damaged).unwrap();
            let (mut wal, rec) = Wal::open(&path).unwrap();
            assert!(
                rec.committed == 2 || rec.committed == 3,
                "{what}: recovered committed {} is not a committed prefix",
                rec.committed
            );
            if rec.committed == 3 {
                // Only an undamaged tail may be trusted in full.
                assert_eq!(damaged, pristine, "{what}: damaged tail accepted");
            }
            // The survivor is a working log: the next index appends fine
            // and survives a clean reopen.
            wal.append(rec.committed).unwrap();
            drop(wal);
            let (_, rec2) = Wal::open(&path).unwrap();
            assert_eq!(rec2.committed, rec.committed + 1, "{what}: not appendable");
            assert_eq!(rec2.discarded_bytes, 0);
        };

        // Truncation at every length within the tail record (a torn
        // write that stopped after N bytes), including zero.
        for cut in 0..RECORD_SIZE {
            check(
                &pristine[..tail_start + cut],
                &format!("truncate at +{cut}"),
            );
        }
        // Single-bit corruption at every byte of the tail record (a torn
        // sector / bit rot). CRC-32 catches every single-bit error.
        for offset in 0..RECORD_SIZE {
            let mut damaged = pristine.clone();
            damaged[tail_start + offset] ^= 1 << (offset % 8);
            check(&damaged, &format!("flip bit at +{offset}"));
        }
        // The undamaged log still recovers whole.
        check(&pristine, "pristine");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appending_u64_max_is_refused() {
        let path = temp_path("max");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(3).unwrap();
        let err = wal.append(u64::MAX).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // The refusal left no record behind, and the log still works.
        drop(wal);
        let (mut wal, rec) = Wal::open(&path).unwrap();
        assert_eq!(rec.committed, 4);
        assert_eq!(rec.records, 1);
        wal.append(4).unwrap();
        drop(wal);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_failed_append_poisons_the_log_until_reopened() {
        let path = temp_path("poison");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(0).unwrap();
        wal.append(1).unwrap();
        // A read-only handle makes the next write fail, as a full disk
        // would part-way through a record.
        let writable = std::mem::replace(&mut wal.file, File::open(&path).unwrap());
        assert!(wal.append(2).is_err());
        // The disk is back, but the log's cursor can no longer be trusted:
        // nothing more is acked until the log is reopened.
        wal.file = writable;
        assert!(wal.append(2).is_err(), "a poisoned log refuses appends");
        assert!(wal.append(3).is_err(), "a poisoned log refuses appends");
        drop(wal);
        let (mut wal, rec) = Wal::open(&path).unwrap();
        assert_eq!(rec.committed, 2, "every acked record recovers");
        assert_eq!(rec.records, 2);
        assert_eq!(rec.discarded_bytes, 0);
        wal.append(2).unwrap();
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_monotonic_tail_is_treated_as_torn() {
        let path = temp_path("monotonic");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(0).unwrap();
            wal.append(1).unwrap();
        }
        // A checksum-valid record that goes backwards (e.g. a misdirected
        // write) still ends the valid prefix.
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&encode_record(1));
        fs::write(&path, &bytes).unwrap();
        let (_, rec) = Wal::open(&path).unwrap();
        assert_eq!(rec.committed, 2);
        assert_eq!(rec.discarded_bytes, RECORD_SIZE as u64);
        fs::remove_file(&path).unwrap();
    }
}
