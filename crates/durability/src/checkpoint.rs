//! Full-state snapshots that bound WAL replay.
//!
//! A checkpoint captures everything [`Durable::open`](crate::Durable::open)
//! needs to rebuild the stack without replaying history from genesis:
//!
//! * every table in the database **verbatim** — base tables, view
//!   result tables, hidden `__ivm{n}` intermediate backings, and
//!   engine cache tables alike (schema, canonically-sorted rows,
//!   secondary-index column lists; postings are content-deterministic
//!   and rebuilt on load);
//! * the catalog manifest: each view's *source* plan (pre-rewrite),
//!   refresh policy, composed pending net, and staleness; each
//!   intermediate's subtree, structure, label, consumer set, and
//!   pending net; the backing-name counter;
//! * the scheduler's round counter and the cost model's promote /
//!   demote streaks;
//! * the ingest pipeline's sequence baselines, dead-letter queue, and
//!   lifetime totals (when a pipeline is attached).
//!
//! On disk the snapshot is a single `checkpoint.bin`: magic, an
//! FNV-1a-64 checksum over the body, then the body. It is published
//! atomically — written to `checkpoint.tmp`, fsynced, then renamed —
//! so a crash mid-checkpoint leaves the previous snapshot intact and
//! at worst a torn `.tmp` that recovery ignores. The
//! [`FaultSite::Checkpoint`](idivm_core::FaultSite::Checkpoint)
//! failpoint fires *before* the rename, leaving exactly that torn tmp.
//!
//! Deliberately **not** captured: per-table access statistics (they
//! restart from zero and only bias future promotion decisions) and the
//! shared-prefix registry (recomputed deterministically on reattach).

use crate::codec::{self, Encode, Reader};
use idivm_algebra::Plan;
use idivm_core::FaultState;
use idivm_ingest::{DeadLetter, IngestPipeline, IngestTotals};
use idivm_reldb::TableChanges;
use idivm_sched::{MaintenanceScheduler, RefreshPolicy};
use idivm_types::{Error, Result, Row, Schema};
use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::Path;

/// File magic: idIVM checkpoint, format 01.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"IVMCKP01";

/// Published snapshot filename inside the store directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";

/// Staging filename (renamed over [`CHECKPOINT_FILE`] on success).
pub const CHECKPOINT_TMP: &str = "checkpoint.tmp";

fn io_err(what: &str, e: &std::io::Error) -> Error {
    Error::Internal(format!("checkpoint {what}: {e}"))
}

/// One table, verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSnapshot {
    /// Table name.
    pub name: String,
    /// Schema (columns + primary key).
    pub schema: Schema,
    /// All rows, sorted (canonical encoding).
    pub rows: Vec<Row>,
    /// Secondary-index column-position lists, in creation order.
    pub indexes: Vec<Vec<usize>>,
}

codec::record!(TableSnapshot {
    name,
    schema,
    rows,
    indexes
});

/// One registered view's catalog + scheduler state.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewManifest {
    /// View name.
    pub name: String,
    /// The *source* plan as originally registered — reattach re-derives
    /// any intermediate rewiring from the live intermediates.
    pub plan: Plan,
    /// Refresh policy.
    pub policy: RefreshPolicy,
    /// Composed pending net (non-empty for deferred / on-read views).
    pub pending: HashMap<String, TableChanges>,
    /// Rounds since last refresh.
    pub staleness: u32,
}

codec::record!(ViewManifest {
    name,
    plan,
    policy,
    pending,
    staleness
});

/// One promoted intermediate's catalog + scheduler state.
#[derive(Debug, Clone, PartialEq)]
pub struct IntermediateManifest {
    /// Hidden backing-table name (`__ivm{n}`).
    pub backing: String,
    /// The materialized subtree plan.
    pub subtree: Plan,
    /// Structure signature the cost model tracks.
    pub structure: String,
    /// Human-readable label.
    pub label: String,
    /// Names of consumer views, sorted.
    pub consumers: Vec<String>,
    /// Pending net not yet folded into the backing.
    pub pending: HashMap<String, TableChanges>,
}

codec::record!(IntermediateManifest {
    backing,
    subtree,
    structure,
    label,
    consumers,
    pending
});

/// The ingest pipeline's durable state.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestSnapshot {
    /// Per-producer next-expected sequence numbers.
    pub expected_seq: BTreeMap<u32, u64>,
    /// The full dead-letter queue, in arrival order.
    pub dead_letters: Vec<DeadLetter>,
    /// Lifetime totals.
    pub totals: IngestTotals,
}

codec::record!(IngestSnapshot {
    expected_seq,
    dead_letters,
    totals
});

/// A decoded full-state snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The last WAL LSN folded into this snapshot. Replay skips
    /// records at or below it.
    pub last_lsn: u64,
    /// Every table, sorted by name.
    pub tables: Vec<TableSnapshot>,
    /// Every view, sorted by name.
    pub views: Vec<ViewManifest>,
    /// Every promoted intermediate, sorted by backing name.
    pub intermediates: Vec<IntermediateManifest>,
    /// The catalog's backing-name counter.
    pub next_backing: u64,
    /// Completed scheduler rounds.
    pub round: u64,
    /// Cost-model streaks: (structure, promote streak, demote streak).
    pub trackers: Vec<(String, u32, u32)>,
    /// Ingest state, when a pipeline was attached.
    pub ingest: Option<IngestSnapshot>,
}

codec::record!(Checkpoint {
    last_lsn,
    tables,
    views,
    intermediates,
    next_backing,
    round,
    trackers,
    ingest
});

impl Checkpoint {
    /// Snapshot the live stack. Requires a quiescent modification log
    /// (between rounds) — a checkpoint must not absorb half a round.
    ///
    /// # Errors
    /// [`Error::Config`] when base-table DML is pending;
    /// [`Error::NotFound`] if catalog state is internally inconsistent.
    pub fn capture(
        sched: &MaintenanceScheduler,
        pipeline: Option<&IngestPipeline>,
        last_lsn: u64,
    ) -> Result<Checkpoint> {
        let db = sched.db();
        if !db.fold_log().is_empty() {
            return Err(Error::Config(
                "checkpoint requires a quiescent modification log; \
                 tick or drain before snapshotting"
                    .into(),
            ));
        }
        let mut table_names: Vec<String> =
            db.table_names().into_iter().map(String::from).collect();
        table_names.sort();
        let mut tables = Vec::with_capacity(table_names.len());
        for name in table_names {
            let t = db.table(&name)?;
            let mut rows = t.rows_uncounted();
            rows.sort();
            tables.push(TableSnapshot {
                name,
                schema: t.schema().clone(),
                rows,
                indexes: t.index_positions(),
            });
        }

        let catalog = sched.catalog();
        let mut views = Vec::new();
        for name in catalog.names() {
            let view = catalog.view(name)?;
            views.push(ViewManifest {
                name: name.to_string(),
                plan: view.source_plan().clone(),
                policy: sched.policy(name)?,
                pending: sched.pending(name)?.clone(),
                staleness: sched.staleness(name)?,
            });
        }
        views.sort_by(|a, b| a.name.cmp(&b.name));

        let mut intermediates = Vec::new();
        for backing in catalog.intermediate_names() {
            let iv = catalog.intermediate(backing)?;
            intermediates.push(IntermediateManifest {
                backing: backing.to_string(),
                subtree: iv.subtree().clone(),
                structure: iv.structure().to_string(),
                label: iv.label().to_string(),
                consumers: iv.consumers().iter().cloned().collect(),
                pending: sched.intermediate_pending(backing)?,
            });
        }
        intermediates.sort_by(|a, b| a.backing.cmp(&b.backing));

        Ok(Checkpoint {
            last_lsn,
            tables,
            views,
            intermediates,
            next_backing: catalog.next_backing(),
            round: sched.rounds(),
            trackers: sched.tracker_streaks(),
            ingest: pipeline.map(|p| IngestSnapshot {
                expected_seq: p.expected_seq().clone(),
                dead_letters: p.dlq().entries().to_vec(),
                totals: p.totals(),
            }),
        })
    }

    /// Serialize to the full file image (magic + checksum + body).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut file = CHECKPOINT_MAGIC.to_vec();
        codec::frame(&mut file, false, |out| self.encode(out));
        file
    }

    /// Decode a full file image.
    ///
    /// # Errors
    /// [`Error::Corrupt`] on bad magic, checksum, or structure; decode
    /// errors give offsets into the body (the file offset less 16).
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint> {
        let mut r = Reader::new(bytes);
        if r.take(CHECKPOINT_MAGIC.len())? != CHECKPOINT_MAGIC {
            return Err(Error::Corrupt("checkpoint magic mismatch".into()));
        }
        let sum: u64 = r.read()?;
        if codec::fnv1a(r.rest()) != sum {
            return Err(Error::Corrupt("checkpoint checksum mismatch".into()));
        }
        codec::from_bytes(r.rest())
    }

    /// Atomically publish this snapshot into `dir`: write
    /// `checkpoint.tmp`, fsync, rename over `checkpoint.bin`, fsync
    /// the directory.
    ///
    /// If the armed [`FaultSite::Checkpoint`](idivm_core::FaultSite::Checkpoint)
    /// failpoint fires, a seeded partial prefix is left in the tmp file
    /// (the torn staging file a pre-rename kill produces — ignored by
    /// [`Checkpoint::load`]) and the fault error is returned.
    ///
    /// # Errors
    /// The injected fault, or [`Error::Internal`] on I/O failure.
    pub fn write(&self, dir: &Path, faults: &FaultState) -> Result<()> {
        let bytes = self.to_bytes();
        let tmp = dir.join(CHECKPOINT_TMP);
        let dst = dir.join(CHECKPOINT_FILE);

        if let Err(fault) = faults.on_checkpoint(self.last_lsn) {
            let tear = (faults
                .seed()
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(self.last_lsn)) as usize
                % bytes.len().max(1);
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)
                .map_err(|e| io_err("tmp create", &e))?;
            f.write_all(&bytes[..tear])
                .map_err(|e| io_err("torn tmp write", &e))?;
            return Err(fault);
        }

        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)
            .map_err(|e| io_err("tmp create", &e))?;
        f.write_all(&bytes).map_err(|e| io_err("tmp write", &e))?;
        f.sync_data().map_err(|e| io_err("tmp sync", &e))?;
        drop(f);
        std::fs::rename(&tmp, &dst).map_err(|e| io_err("rename", &e))?;
        if let Ok(d) = File::open(dir) {
            // Directory fsync makes the rename itself durable; best
            // effort on filesystems that refuse to sync directories.
            d.sync_all().ok();
        }
        Ok(())
    }

    /// Load the published snapshot from `dir`.
    ///
    /// # Errors
    /// [`Error::Corrupt`] when the file is missing, mangled, or fails
    /// its checksum; [`Error::Internal`] on I/O failure.
    pub fn load(dir: &Path) -> Result<Checkpoint> {
        let path = dir.join(CHECKPOINT_FILE);
        let mut bytes = Vec::new();
        match File::open(&path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes).map_err(|e| io_err("read", &e))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(Error::Corrupt(format!(
                    "checkpoint missing at {}",
                    path.display()
                )));
            }
            Err(e) => return Err(io_err("open", &e)),
        }
        Checkpoint::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::codec::tests::{contract, every_dead_letter};
    use idivm_types::{row, ColumnType, Value};

    fn sample() -> Checkpoint {
        let schema =
            Schema::from_pairs(&[("a", ColumnType::Int), ("b", ColumnType::Str)], &["a"])
                .unwrap();
        let plan = Plan::Scan {
            table: "t".into(),
            alias: "t".into(),
            schema: schema.clone(),
        };
        let mut pending = HashMap::new();
        let mut tc = TableChanges::new();
        tc.insert(
            idivm_types::Key(vec![Value::Int(1)]),
            idivm_reldb::NetChange::Inserted { post: row![1, "x"] },
        );
        pending.insert("t".to_string(), tc);
        Checkpoint {
            last_lsn: 12,
            tables: vec![TableSnapshot {
                name: "t".into(),
                schema,
                rows: vec![row![1, "x"], row![2, "y"]],
                indexes: vec![vec![1]],
            }],
            views: vec![ViewManifest {
                name: "v".into(),
                plan: plan.clone(),
                policy: RefreshPolicy::Deferred {
                    max_staleness_rounds: 3,
                },
                pending,
                staleness: 2,
            }],
            intermediates: vec![IntermediateManifest {
                backing: "__ivm0".into(),
                subtree: plan,
                structure: "J(t,s)".into(),
                label: "t⋈s".into(),
                consumers: vec!["v".into()],
                pending: HashMap::new(),
            }],
            next_backing: 1,
            round: 9,
            trackers: vec![("J(t,s)".into(), 2, 0)],
            ingest: Some(IngestSnapshot {
                expected_seq: [(0u32, 5u64)].into_iter().collect(),
                dead_letters: every_dead_letter(),
                totals: IngestTotals {
                    admitted: 4,
                    dead_lettered: 0,
                    shed: 1,
                    cuts: 2,
                },
            }),
        }
    }

    #[test]
    fn checkpoint_round_trips() {
        let ckpt = sample();
        contract(&ckpt);
        let back = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(ckpt, back);
    }

    #[test]
    fn every_truncation_and_bit_flip_is_corrupt_or_identical() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            match Checkpoint::from_bytes(&bytes[..cut]) {
                Err(Error::Corrupt(_)) => {}
                other => panic!("truncation at {cut}: {other:?}"),
            }
        }
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x01;
            match Checkpoint::from_bytes(&flipped) {
                Err(Error::Corrupt(_)) => {}
                Ok(_) => panic!("bit flip at {i} went unnoticed"),
                Err(e) => panic!("bit flip at {i}: wrong error class {e}"),
            }
        }
    }

    #[test]
    fn write_then_load_round_trips_and_faulted_write_keeps_old() {
        use idivm_core::{FaultPlan, FaultState};
        let dir = std::env::temp_dir().join("idivm_ckpt_wr");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = sample();
        let ok = FaultState::new(FaultPlan::disabled());
        ckpt.write(&dir, &ok).unwrap();
        assert_eq!(Checkpoint::load(&dir).unwrap(), ckpt);

        // A later checkpoint attempt dies before the rename: the torn
        // tmp must not shadow the published snapshot.
        let mut newer = sample();
        newer.last_lsn = 99;
        let armed = FaultState::new(FaultPlan::at_checkpoint(0, 424242));
        assert!(matches!(
            newer.write(&dir, &armed),
            Err(Error::Injected(_))
        ));
        assert_eq!(Checkpoint::load(&dir).unwrap().last_lsn, 12);
        std::fs::remove_dir_all(&dir).ok();
    }
}
