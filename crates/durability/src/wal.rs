//! The write-ahead log: a single append-only file of checksummed,
//! length-prefixed records.
//!
//! On-disk layout:
//!
//! ```text
//! [8-byte magic "IVMWAL01"]
//! [u32 len][u64 fnv1a(payload)][payload]   // record 0
//! [u32 len][u64 fnv1a(payload)][payload]   // record 1
//! ...
//! ```
//!
//! Each payload is `[u64 lsn][u8 type][body]`. LSNs are assigned by the
//! writer, strictly increasing by one, and must be contiguous on
//! replay — a gap or repeat means acknowledged history was tampered
//! with and reads as [`Error::Corrupt`].
//!
//! **Torn-tail ladder** (applied by [`Wal::scan`], in order):
//!
//! 1. A record whose frame extends past EOF, or whose checksum fails
//!    with *nothing after it*, is a **torn tail**: the crash happened
//!    mid-append, the bytes were never acknowledged, recovery truncates
//!    them and continues.
//! 2. A checksum or decode failure with bytes *after* the failing
//!    record is **mid-log corruption**: acknowledged history is
//!    damaged, recovery refuses with [`Error::Corrupt`].
//!
//! The [`FaultSite::WalAppend`](idivm_core::FaultSite::WalAppend) and
//! [`FaultSite::WalFsync`](idivm_core::FaultSite::WalFsync) failpoints
//! fire inside [`Wal::append`] / [`Wal::fsync`]. An armed append fault
//! leaves a seeded partial prefix of the frame on disk (the torn tail a
//! real kill leaves); an armed fsync fault drops everything past the
//! last synced offset (the unflushed page-cache bytes a real kill
//! loses).
//!
//! The log shrinks only through [`Wal::cut`], behind a published
//! checkpoint, by renaming a file of the newer records over it.

use crate::codec::{self, Encode, Reader};
use idivm_core::{FaultSite, FaultState};
use idivm_ingest::{DeadLetter, IngestTotals};
use idivm_reldb::Net;
use idivm_sched::RefreshPolicy;
use idivm_types::{Error, Fnv1a, Result};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File magic: idIVM WAL, format 01.
pub const WAL_MAGIC: &[u8; 8] = b"IVMWAL01";

const HEADER: u64 = 8;

fn io_err(what: &str, e: &std::io::Error) -> Error {
    Error::Internal(format!("wal {what}: {e}"))
}

/// A new (or emptied) log file at `path`: the magic, then `records` —
/// whole frames, or nothing. Written, not synced.
fn start_file(path: &Path, records: &[u8]) -> std::io::Result<File> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)?;
    file.write_all(WAL_MAGIC)?;
    file.write_all(records)?;
    Ok(file)
}

/// What kind of scheduler round a [`WalRecord::Round`] journals. The
/// kinds replay differently: a tick advances the round counter, a
/// drain or read barrier does not, and an ingest cut also restores
/// sequence baselines and dead-letter appends.
#[derive(Debug, Clone, PartialEq)]
pub enum RoundKind {
    /// An ordinary [`MaintenanceScheduler::tick`](idivm_sched::MaintenanceScheduler::tick).
    Tick,
    /// A [`drain`](idivm_sched::MaintenanceScheduler::drain) barrier.
    Drain,
    /// A [`read_view`](idivm_sched::MaintenanceScheduler::read_view)
    /// barrier for the named view.
    ReadView(String),
    /// A streamed micro-batch cut: the net plus the ingest pipeline's
    /// post-cut sequence baselines, the dead letters this cut appended,
    /// and the post-cut lifetime totals. Journaling the baselines is
    /// what makes restart exactly-once: a producer that resends a
    /// durably-applied event hits `SequenceRegression` instead of
    /// double-applying.
    Ingest {
        /// Per-producer next-expected sequence numbers after the cut.
        expected_seq: BTreeMap<u32, u64>,
        /// Dead letters appended by this cut, in order.
        dlq_appended: Vec<DeadLetter>,
        /// Lifetime totals after the cut.
        totals: IngestTotals,
    },
}

/// One durable event in the log.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A view was registered (plan is the *source* plan, pre-rewrite —
    /// replay re-derives any intermediate rewiring).
    Register {
        /// View name.
        name: String,
        /// Source plan as handed to `register`.
        plan: idivm_algebra::Plan,
        /// Refresh policy.
        policy: RefreshPolicy,
    },
    /// A view was unregistered.
    Unregister {
        /// View name.
        name: String,
    },
    /// One committed maintenance round: the folded base-table net that
    /// entered it, plus the round kind.
    Round {
        /// How the round was driven (replay differs per kind).
        kind: RoundKind,
        /// Folded net DML (`Database::fold_log` output) applied by the
        /// round, canonical-sorted by the codec.
        net: Net,
    },
    /// A forced promotion of the named structure label.
    Promote {
        /// Structure label passed to `force_promote`.
        label: String,
    },
    /// A forced demotion of the named backing table.
    Demote {
        /// Backing name passed to `force_demote`.
        backing: String,
    },
}

codec::tagged!(RoundKind, "round kind", {
    0 => Tick,
    1 => Drain,
    2 => ReadView(view),
    3 => Ingest { expected_seq, dlq_appended, totals },
});

// The record's type byte, then its body. A log payload is the pair
// `(lsn, record)` — everything the frame's checksum covers.
codec::tagged!(WalRecord, "wal record type", {
    1 => Register { name, plan, policy },
    2 => Unregister { name },
    3 => Round { kind, net },
    4 => Promote { label },
    5 => Demote { backing },
});

/// Result of scanning a WAL file at recovery.
#[derive(Debug)]
pub struct ScanOutcome {
    /// Every valid record, in LSN order.
    pub records: Vec<(u64, WalRecord)>,
    /// Byte offset just past the last valid record — the length the
    /// file should be truncated to before appending resumes.
    pub valid_len: u64,
    /// True iff a torn tail was dropped (diagnostics only).
    pub torn: bool,
}

/// The append-side handle over the log file.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    /// Logical end of the file (bytes written, synced or not).
    len: u64,
    /// Bytes known durable (advanced by [`Wal::fsync`]).
    synced_len: u64,
    next_lsn: u64,
    faults: Arc<FaultState>,
    /// The frame being appended; kept so an append allocates nothing
    /// once the buffer has grown to the largest record.
    frame: Vec<u8>,
}

impl Wal {
    /// Create (or truncate) the log at `path`, write and sync the
    /// magic header, and start LSNs at `next_lsn`.
    ///
    /// # Errors
    /// [`Error::Internal`] on I/O failure.
    pub fn create(path: &Path, next_lsn: u64, faults: Arc<FaultState>) -> Result<Wal> {
        let file = start_file(path, &[]).map_err(|e| io_err("create", &e))?;
        file.sync_data().map_err(|e| io_err("sync magic", &e))?;
        Ok(Wal {
            path: path.to_path_buf(),
            file,
            len: HEADER,
            synced_len: HEADER,
            next_lsn,
            faults,
            frame: Vec::new(),
        })
    }

    /// Reopen a scanned log for appending: truncate any torn tail at
    /// `valid_len` and resume at `next_lsn`. A header shorter than the
    /// magic (crash between create and sync) is rewritten fresh.
    ///
    /// # Errors
    /// [`Error::Internal`] on I/O failure.
    pub fn reopen(
        path: &Path,
        valid_len: u64,
        next_lsn: u64,
        faults: Arc<FaultState>,
    ) -> Result<Wal> {
        if valid_len < HEADER {
            return Wal::create(path, next_lsn, faults);
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err("reopen", &e))?;
        file.set_len(valid_len).map_err(|e| io_err("truncate tail", &e))?;
        file.sync_data().map_err(|e| io_err("sync truncate", &e))?;
        file.seek(SeekFrom::End(0)).map_err(|e| io_err("seek", &e))?;
        Ok(Wal {
            path: path.to_path_buf(),
            file,
            len: valid_len,
            synced_len: valid_len,
            next_lsn,
            faults,
            frame: Vec::new(),
        })
    }

    /// Scan the log at `path`, applying the torn-vs-corrupt ladder.
    /// Pure read — never modifies the file.
    ///
    /// # Errors
    /// [`Error::Corrupt`] for a bad magic, a mid-log checksum or decode
    /// failure, or an LSN discontinuity; [`Error::Internal`] on I/O
    /// failure. A missing file is corrupt (the store always creates
    /// one before acknowledging anything).
    pub fn scan(path: &Path) -> Result<ScanOutcome> {
        let mut bytes = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes).map_err(|e| io_err("read", &e))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(Error::Corrupt(format!(
                    "wal missing at {}",
                    path.display()
                )));
            }
            Err(e) => return Err(io_err("open", &e)),
        }
        let mut r = Reader::new(&bytes);
        let Ok(magic) = r.take(WAL_MAGIC.len()) else {
            // Crash between create and header sync: nothing was ever
            // acknowledged, so an incomplete header is a torn tail.
            return Ok(ScanOutcome {
                records: Vec::new(),
                valid_len: 0,
                torn: !bytes.is_empty(),
            });
        };
        if magic != WAL_MAGIC {
            return Err(Error::Corrupt("wal magic mismatch".into()));
        }

        let mut records = Vec::new();
        let mut prev_lsn: Option<u64> = None;
        loop {
            let offset = r.offset();
            if r.is_empty() {
                return Ok(ScanOutcome {
                    records,
                    valid_len: offset as u64,
                    torn: false,
                });
            }
            let torn = |records: Vec<(u64, WalRecord)>| {
                Ok(ScanOutcome {
                    records,
                    valid_len: offset as u64,
                    torn: true,
                })
            };
            // A frame whose header or payload extends past EOF: torn tail.
            let Ok((len, sum)) = r.read::<(u32, u64)>() else {
                return torn(records);
            };
            let Ok(payload) = r.take(len as usize) else {
                return torn(records);
            };
            if Fnv1a::digest(payload) != sum {
                if r.is_empty() {
                    // Checksum failure on the very last record: the
                    // append was cut mid-flight. Torn.
                    return torn(records);
                }
                return Err(Error::Corrupt(format!(
                    "wal checksum mismatch at byte {offset} (lsn slot {}), \
                     {} bytes of later history follow",
                    records.len(),
                    r.remaining()
                )));
            }
            let (lsn, record) = codec::from_bytes(payload).map_err(|e| match e {
                Error::Corrupt(what) => Error::Corrupt(format!(
                    "wal record {} at byte {offset}: {what}",
                    records.len()
                )),
                other => other,
            })?;
            if let Some(prev) = prev_lsn {
                if lsn != prev + 1 {
                    return Err(Error::Corrupt(format!(
                        "wal lsn discontinuity: {prev} then {lsn}"
                    )));
                }
            }
            prev_lsn = Some(lsn);
            records.push((lsn, record));
        }
    }

    /// Append one record, returning its LSN. Does **not** fsync — the
    /// caller's [`DurabilityPolicy`](crate::DurabilityPolicy) decides
    /// when to call [`Wal::fsync`].
    ///
    /// If the armed [`FaultSite::WalAppend`](idivm_core::FaultSite::WalAppend)
    /// failpoint fires, a seeded partial prefix of the frame is left on
    /// disk (the torn tail a mid-append kill produces) and the fault
    /// error is returned.
    ///
    /// # Errors
    /// The injected fault, or [`Error::Internal`] on I/O failure.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64> {
        let lsn = self.next_lsn;
        self.frame.clear();
        codec::frame(&mut self.frame, |out| (lsn, record).encode(out));

        if let Err(fault) = self.faults.hit(FaultSite::WalAppend, format_args!("lsn {lsn}")) {
            // Simulated kill mid-append: leave a deterministic torn
            // prefix. The prefix length is seed-derived so a sweep
            // explores header-only, mid-payload, and zero-byte tears.
            let tear = (self
                .faults
                .seed()
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(lsn)) as usize
                % self.frame.len();
            self.file
                .write_all(&self.frame[..tear])
                .map_err(|e| io_err("torn write", &e))?;
            self.file.flush().map_err(|e| io_err("flush", &e))?;
            self.len += tear as u64;
            return Err(fault);
        }

        self.file
            .write_all(&self.frame)
            .map_err(|e| io_err("append", &e))?;
        self.len += self.frame.len() as u64;
        self.next_lsn += 1;
        Ok(lsn)
    }

    /// Flush appended records to the device, advancing the durable
    /// watermark.
    ///
    /// If the armed [`FaultSite::WalFsync`](idivm_core::FaultSite::WalFsync)
    /// failpoint fires, everything past the last synced offset is
    /// dropped (a kill loses unflushed page-cache bytes) and the fault
    /// error is returned.
    ///
    /// # Errors
    /// The injected fault, or [`Error::Internal`] on I/O failure.
    pub fn fsync(&mut self) -> Result<()> {
        if let Err(fault) = self.faults.hit(FaultSite::WalFsync, "") {
            self.file
                .set_len(self.synced_len)
                .map_err(|e| io_err("drop unsynced tail", &e))?;
            self.file
                .seek(SeekFrom::End(0))
                .map_err(|e| io_err("seek", &e))?;
            self.len = self.synced_len;
            return Err(fault);
        }
        self.file.sync_data().map_err(|e| io_err("fsync", &e))?;
        self.synced_len = self.len;
        Ok(())
    }

    /// Drop the records that end at or before byte offset `at` — those a
    /// published checkpoint now covers — and keep the rest, returning
    /// how many bytes went. The kept records are written behind a fresh
    /// header to `wal.tmp`, which is synced if any of them had been
    /// (a cut never moves synced records into an unsynced file) and
    /// then renamed over the log, so at every instant the name holds
    /// either the whole old log or the whole new one; a crash in
    /// between leaves a temp file that [`Wal::scan`] never looks at.
    /// LSNs keep counting.
    ///
    /// Nothing happens when no record ends before `at`, or when the log
    /// no longer reaches `at` (a killed fsync dropped its tail; the
    /// handle is dead and recovery will sort the file out).
    ///
    /// # Errors
    /// [`Error::Internal`] on I/O failure; the log is then as it was.
    pub fn cut(&mut self, at: u64) -> Result<u64> {
        if at <= HEADER || at > self.len {
            return Ok(0);
        }
        let mut kept = vec![0; (self.len - at) as usize];
        let read = self
            .file
            .seek(SeekFrom::Start(at))
            .and_then(|_| self.file.read_exact(&mut kept));
        self.file
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek", &e))?;
        read.map_err(|e| io_err("cut read", &e))?;

        let tmp = self.path.with_extension("tmp");
        let file = start_file(&tmp, &kept).map_err(|e| io_err("cut write", &e))?;
        let had_synced = self.synced_len > at;
        if had_synced {
            file.sync_data().map_err(|e| io_err("cut sync", &e))?;
        }
        std::fs::rename(&tmp, &self.path).map_err(|e| io_err("cut rename", &e))?;
        if let Some(Ok(dir)) = self.path.parent().map(File::open) {
            // Later fsyncs go to the new file: they promise nothing
            // until the name points at it durably. Best effort, as for
            // the checkpoint's rename.
            dir.sync_all().ok();
        }
        self.file = file;
        self.len = HEADER + kept.len() as u64;
        self.synced_len = if had_synced { self.len } else { HEADER };
        Ok(at - HEADER)
    }

    /// The LSN the next append will use.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Logical file length in bytes (written, synced or not).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True iff no records have been appended.
    pub fn is_empty(&self) -> bool {
        self.len <= HEADER
    }

    /// Bytes known durable.
    pub fn synced_len(&self) -> u64 {
        self.synced_len
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::codec::tests::{
        contract, every_dead_letter, every_plan, every_policy, sample_net, to_bytes,
    };
    use idivm_core::FaultPlan;
    use idivm_reldb::{NetChange, TableChanges};
    use idivm_types::{row, Key, Value};

    /// Per-record frame prefix: u32 length + u64 checksum.
    const FRAME: usize = 12;

    fn no_faults() -> Arc<FaultState> {
        Arc::new(FaultState::new(FaultPlan::disabled()))
    }

    fn sample_round(i: i64) -> WalRecord {
        let mut tc = TableChanges::new();
        tc.insert(
            Key(vec![Value::Int(i)]),
            NetChange::Inserted { post: row![i, "x"] },
        );
        WalRecord::Round {
            kind: RoundKind::Tick,
            net: Net::from([("t".to_string(), tc.into())]),
        }
    }

    #[test]
    fn append_scan_round_trips_in_lsn_order() {
        let dir = std::env::temp_dir().join("idivm_wal_rt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, 1, no_faults()).unwrap();
        for i in 0..5 {
            wal.append(&sample_round(i)).unwrap();
        }
        wal.append(&WalRecord::Promote { label: "j0".into() }).unwrap();
        wal.fsync().unwrap();
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.records.len(), 6);
        assert!(!scan.torn);
        assert_eq!(scan.valid_len, wal.len());
        for (i, (lsn, _)) in scan.records.iter().enumerate() {
            assert_eq!(*lsn, 1 + i as u64);
        }
        assert_eq!(scan.records[5].1, WalRecord::Promote { label: "j0".into() });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_truncates_mid_log_flip_is_corrupt() {
        let dir = std::env::temp_dir().join("idivm_wal_torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, 1, no_faults()).unwrap();
        let mut after_two = 0;
        for i in 0..3 {
            wal.append(&sample_round(i)).unwrap();
            if i == 1 {
                after_two = wal.len();
            }
        }
        wal.fsync().unwrap();
        let full = std::fs::read(&path).unwrap();

        // Truncating inside the last record -> torn, two records kept.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let scan = Wal::scan(&path).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.valid_len, after_two);

        // Flipping a payload byte of record 0 (mid-log) -> Corrupt.
        let mut flipped = full.clone();
        flipped[(HEADER as usize) + FRAME + 2] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        match Wal::scan(&path) {
            Err(Error::Corrupt(m)) => assert!(m.contains("checksum"), "{m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_append_fault_leaves_a_recoverable_torn_tail() {
        let dir = std::env::temp_dir().join("idivm_wal_fault");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let faults = Arc::new(FaultState::new(FaultPlan::at(FaultSite::WalAppend, 2, 2015)));
        let mut wal = Wal::create(&path, 1, faults).unwrap();
        wal.append(&sample_round(0)).unwrap();
        wal.append(&sample_round(1)).unwrap();
        let err = wal.append(&sample_round(2)).unwrap_err();
        assert!(matches!(err, Error::Injected(_)), "{err}");
        // The torn tail never hides the two acknowledged records.
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        let mut resumed =
            Wal::reopen(&path, scan.valid_len, 3, no_faults()).unwrap();
        resumed.append(&sample_round(2)).unwrap();
        resumed.fsync().unwrap();
        assert_eq!(Wal::scan(&path).unwrap().records.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_fsync_fault_drops_only_unsynced_records() {
        let dir = std::env::temp_dir().join("idivm_wal_fsync");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let faults = Arc::new(FaultState::new(FaultPlan::at(FaultSite::WalFsync, 1, 7)));
        let mut wal = Wal::create(&path, 1, faults).unwrap();
        wal.append(&sample_round(0)).unwrap();
        wal.fsync().unwrap(); // fsync 0: survives
        wal.append(&sample_round(1)).unwrap();
        wal.append(&sample_round(2)).unwrap();
        assert!(matches!(wal.fsync(), Err(Error::Injected(_))));
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.records.len(), 1, "unsynced appends lost");
        assert!(!scan.torn);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cut_keeps_the_newer_records_their_sync_state_and_the_lsn_count() {
        let dir = std::env::temp_dir().join("idivm_wal_cut");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let lsns = |path: &Path| -> Vec<u64> {
            let scan = Wal::scan(path).unwrap();
            assert!(!scan.torn);
            scan.records.iter().map(|(lsn, _)| *lsn).collect()
        };
        let mut wal = Wal::create(&path, 1, no_faults()).unwrap();
        wal.append(&sample_round(0)).unwrap();
        wal.append(&sample_round(1)).unwrap();
        let after_two = wal.len();
        wal.append(&sample_round(2)).unwrap();
        wal.fsync().unwrap();
        wal.append(&sample_round(3)).unwrap();
        let full = wal.len();

        // Nothing ends before the header; the log does not reach 999.
        assert_eq!(wal.cut(HEADER).unwrap(), 0);
        assert_eq!(wal.cut(999_999).unwrap(), 0);
        assert_eq!(lsns(&path), [1, 2, 3, 4]);

        // LSN 3 had been synced: the kept records are all synced now.
        assert_eq!(wal.cut(after_two).unwrap(), after_two - HEADER);
        assert_eq!(wal.len(), full - (after_two - HEADER));
        assert_eq!(wal.synced_len(), wal.len());
        assert_eq!(lsns(&path), [3, 4]);
        assert!(!dir.join("wal.tmp").exists());
        assert_eq!(wal.append(&sample_round(4)).unwrap(), 5);
        assert_eq!(lsns(&path), [3, 4, 5]);

        // None of the kept records was synced: neither is the new file.
        let synced = wal.synced_len();
        wal.cut(synced).unwrap();
        assert_eq!(wal.synced_len(), HEADER);
        assert_eq!(lsns(&path), [5]);
        // Cutting at the end leaves an empty log that keeps counting.
        wal.cut(wal.len()).unwrap();
        assert!(wal.is_empty());
        assert_eq!(wal.append(&sample_round(5)).unwrap(), 6);
        assert_eq!(lsns(&path), [6]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lsn_discontinuity_is_corrupt() {
        let dir = std::env::temp_dir().join("idivm_wal_lsn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, 5, no_faults()).unwrap();
        wal.append(&sample_round(0)).unwrap();
        drop(wal);
        // Forge a second record that skips an LSN, with a valid crc.
        let rec = sample_round(1);
        let mut bytes = std::fs::read(&path).unwrap();
        codec::frame(&mut bytes, |out| (9u64, rec).encode(out));
        std::fs::write(&path, &bytes).unwrap();
        match Wal::scan(&path) {
            Err(Error::Corrupt(m)) => assert!(m.contains("discontinuity"), "{m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_decode_failure_names_the_record_its_file_offset_and_the_payload_offset() {
        let dir = std::env::temp_dir().join("idivm_wal_offsets");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, 1, no_faults()).unwrap();
        let mut third_at = 0;
        for i in 0..5 {
            if i == 2 {
                third_at = wal.len() as usize;
            }
            wal.append(&sample_round(i)).unwrap();
        }
        drop(wal);
        // A payload is [u64 lsn][u8 record type][u8 round kind]…: give
        // the third record a round kind no variant owns, and a checksum
        // to match, so the ladder lets it through to the decoder.
        let mut bytes = std::fs::read(&path).unwrap();
        let len = u32::from_le_bytes(bytes[third_at..third_at + 4].try_into().unwrap()) as usize;
        let payload = third_at + FRAME..third_at + FRAME + len;
        bytes[payload.start + 9] = 0x7f;
        let sum = Fnv1a::digest(&bytes[payload.clone()]);
        bytes[third_at + 4..payload.start].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match Wal::scan(&path) {
            Err(Error::Corrupt(m)) => assert_eq!(
                m,
                format!("wal record 2 at byte {third_at}: decode at byte 9: round kind tag 127")
            ),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn every_round_kind() -> Vec<RoundKind> {
        let all = vec![
            RoundKind::Tick,
            RoundKind::Drain,
            RoundKind::ReadView("v".into()),
            RoundKind::Ingest {
                expected_seq: [(0u32, 7u64), (3, 1)].into_iter().collect(),
                dlq_appended: every_dead_letter(),
                totals: IngestTotals {
                    admitted: 10,
                    dead_lettered: 1,
                    shed: 2,
                    cuts: 3,
                },
            },
        ];
        match all[0] {
            RoundKind::Tick
            | RoundKind::Drain
            | RoundKind::ReadView(_)
            | RoundKind::Ingest { .. } => all,
        }
    }

    fn every_record() -> Vec<WalRecord> {
        let mut all = vec![
            WalRecord::Register {
                name: "v".into(),
                plan: every_plan().pop().unwrap(),
                policy: every_policy()[1],
            },
            WalRecord::Unregister { name: "v".into() },
            WalRecord::Promote { label: "j0".into() },
            WalRecord::Demote {
                backing: "__ivm0".into(),
            },
        ];
        all.extend(every_round_kind().into_iter().map(|kind| WalRecord::Round {
            kind,
            net: sample_net(),
        }));
        match all[0] {
            WalRecord::Register { .. }
            | WalRecord::Unregister { .. }
            | WalRecord::Round { .. }
            | WalRecord::Promote { .. }
            | WalRecord::Demote { .. } => all,
        }
    }

    #[test]
    fn ingest_round_kind_round_trips() {
        every_round_kind().iter().for_each(contract);
        for rec in every_record() {
            let entry = (42u64, rec);
            contract(&entry);
            let (lsn, back): (u64, WalRecord) = codec::from_bytes(&to_bytes(&entry)).unwrap();
            assert_eq!(lsn, 42);
            assert_eq!(back, entry.1);
        }
    }
}
