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
//! Within the body each table is a self-contained *section* — the
//! encoding of its [`TableSnapshot`] — and a file [`Image`] is put
//! together from sections ([`Checkpoint::image`]).
//! [`Checkpoint::to_bytes`] encodes every section on the spot; the
//! store's own checkpoints ([`crate::checkpointer`]) hand the same
//! routine the sections of the tables that did not change since the
//! previous one.
//!
//! Deliberately **not** captured: per-table access statistics (they
//! restart from zero and only bias future promotion decisions) and the
//! shared-prefix registry (recomputed deterministically on reattach).

use crate::codec::{self, Encode, Reader};
use idivm_algebra::Plan;
use idivm_core::{FaultSite, FaultState};
use idivm_ingest::{DeadLetter, IngestPipeline, IngestTotals};
use idivm_reldb::{Net, Table};
use idivm_sched::{MaintenanceScheduler, RefreshPolicy};
use idivm_types::{Error, Fnv1a, Result, Row, Schema};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::hash::Hasher;
use std::io::{Read as _, Write as _};
use std::path::Path;
use std::sync::Arc;

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

impl TableSnapshot {
    /// `table` as it stands, its rows **not yet sorted**: rows are
    /// immutable and shared, so this takes handles and copies nothing.
    pub(crate) fn of(table: &Table) -> TableSnapshot {
        TableSnapshot {
            name: table.name().to_string(),
            schema: table.schema().clone(),
            rows: table.rows_uncounted(),
            indexes: table.index_positions(),
        }
    }

    /// Put the rows in canonical order. Rows of one table differ in
    /// their key, so an unstable sort has one possible outcome.
    pub(crate) fn sorted(mut self) -> TableSnapshot {
        self.rows.sort_unstable();
        self
    }

    /// The table's section of a checkpoint body.
    pub(crate) fn section(&self) -> Arc<[u8]> {
        codec::to_vec(self).into()
    }
}

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
    pub pending: Net,
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
    pub pending: Net,
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

impl Encode for Checkpoint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.encode_head(self.tables.len(), out);
        for table in &self.tables {
            table.encode(out);
        }
        self.encode_tail(out);
    }
}

impl codec::Decode for Checkpoint {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Checkpoint {
            last_lsn: r.read()?,
            tables: r.read()?,
            views: r.read()?,
            intermediates: r.read()?,
            next_backing: r.read()?,
            round: r.read()?,
            trackers: r.read()?,
            ingest: r.read()?,
        })
    }
}

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
        let mut ckpt = Checkpoint::manifest(sched, pipeline, last_lsn)?;
        let db = sched.db();
        for name in db.table_names() {
            ckpt.tables.push(TableSnapshot::of(db.table(name)?).sorted());
        }
        Ok(ckpt)
    }

    /// Everything of [`Checkpoint::capture`] but the tables (`tables`
    /// is left empty): the part that is cloned rather than shared, and
    /// small — plans, policies, pending nets, streaks, ingest state.
    ///
    /// # Errors
    /// As [`Checkpoint::capture`].
    pub(crate) fn manifest(
        sched: &MaintenanceScheduler,
        pipeline: Option<&IngestPipeline>,
        last_lsn: u64,
    ) -> Result<Checkpoint> {
        if !sched.db().fold_log().is_empty() {
            return Err(Error::Config(
                "checkpoint requires a quiescent modification log; \
                 tick or drain before snapshotting"
                    .into(),
            ));
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
                subtree: iv.source_plan().clone(),
                structure: iv.structure().to_string(),
                label: iv.label().to_string(),
                consumers: iv.consumers().iter().cloned().collect(),
                pending: sched.intermediate_pending(backing)?,
            });
        }
        intermediates.sort_by(|a, b| a.backing.cmp(&b.backing));

        Ok(Checkpoint {
            last_lsn,
            tables: Vec::new(),
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

    /// The body up to the first table: the LSN and the table count.
    fn encode_head(&self, tables: usize, out: &mut Vec<u8>) {
        self.last_lsn.encode(out);
        (tables as u32).encode(out);
    }

    /// The body behind the last table.
    fn encode_tail(&self, out: &mut Vec<u8>) {
        self.views.encode(out);
        self.intermediates.encode(out);
        self.next_backing.encode(out);
        self.round.encode(out);
        self.trackers.encode(out);
        self.ingest.encode(out);
    }

    /// The sections of `tables`, in order.
    fn sections(&self) -> Vec<Arc<[u8]>> {
        self.tables.iter().map(TableSnapshot::section).collect()
    }

    /// The file image (magic + checksum + body) of this checkpoint with
    /// `sections` standing for `tables`, which is not looked at.
    pub(crate) fn image<'a>(&self, sections: &'a [Arc<[u8]>]) -> Image<'a> {
        let mut front = CHECKPOINT_MAGIC.to_vec();
        0u64.encode(&mut front);
        let body_at = front.len();
        self.encode_head(sections.len(), &mut front);
        let mut back = Vec::new();
        self.encode_tail(&mut back);
        let mut sum = Fnv1a::default();
        sum.write(&front[body_at..]);
        sections.iter().for_each(|s| sum.write(s));
        sum.write(&back);
        let sum = sum.finish();
        front[CHECKPOINT_MAGIC.len()..body_at].copy_from_slice(&sum.to_le_bytes());
        Image {
            front,
            sections,
            back,
        }
    }

    /// Serialize to the full file image (magic + checksum + body).
    pub fn to_bytes(&self) -> Vec<u8> {
        let sections = self.sections();
        let image = self.image(&sections);
        let mut file = Vec::with_capacity(image.len());
        image.runs().for_each(|run| file.extend_from_slice(run));
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
        if Fnv1a::digest(r.rest()) != sum {
            return Err(Error::Corrupt("checkpoint checksum mismatch".into()));
        }
        codec::from_bytes(r.rest())
    }

    /// Atomically publish this snapshot into `dir` — see [`publish`].
    ///
    /// # Errors
    /// The injected fault, or [`Error::Internal`] on I/O failure.
    pub fn write(&self, dir: &Path, faults: &FaultState) -> Result<()> {
        publish(dir, faults, self.last_lsn, &self.image(&self.sections()))
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

/// A checkpoint file held as the runs of bytes it is made of — what
/// comes before the tables, each table's section where it already is,
/// what comes behind — so that publishing one copies no section.
pub(crate) struct Image<'a> {
    /// Magic, checksum, and the body up to the first table.
    front: Vec<u8>,
    sections: &'a [Arc<[u8]>],
    back: Vec<u8>,
}

impl Image<'_> {
    fn runs(&self) -> impl Iterator<Item = &[u8]> {
        std::iter::once(self.front.as_slice())
            .chain(self.sections.iter().map(|s| &s[..]))
            .chain(std::iter::once(self.back.as_slice()))
    }

    /// The file's length.
    pub(crate) fn len(&self) -> usize {
        self.runs().map(<[u8]>::len).sum()
    }
}

/// Atomically publish the file `image` of a checkpoint at
/// `last_lsn` into `dir`: write `checkpoint.tmp`, fsync, rename over
/// `checkpoint.bin`, fsync the directory.
///
/// If the armed [`FaultSite::Checkpoint`](idivm_core::FaultSite::Checkpoint)
/// failpoint fires, a seeded partial prefix is left in the tmp file
/// (the torn staging file a pre-rename kill produces — ignored by
/// [`Checkpoint::load`]) and the fault error is returned.
///
/// # Errors
/// The injected fault, or [`Error::Internal`] on I/O failure.
pub(crate) fn publish(
    dir: &Path,
    faults: &FaultState,
    last_lsn: u64,
    image: &Image<'_>,
) -> Result<()> {
    let tmp = dir.join(CHECKPOINT_TMP);
    let dst = dir.join(CHECKPOINT_FILE);
    let create_tmp = || {
        OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)
            .map_err(|e| io_err("tmp create", &e))
    };

    if let Err(fault) = faults.hit(FaultSite::Checkpoint, format_args!("last lsn {last_lsn}")) {
        let mut tear = (faults
            .seed()
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(last_lsn)) as usize
            % image.len();
        let mut f = create_tmp()?;
        for run in image.runs() {
            let torn = &run[..run.len().min(tear)];
            f.write_all(torn)
                .map_err(|e| io_err("torn tmp write", &e))?;
            tear -= torn.len();
        }
        return Err(fault);
    }

    let mut f = create_tmp()?;
    for run in image.runs() {
        f.write_all(run).map_err(|e| io_err("tmp write", &e))?;
    }
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
        let mut tc = idivm_reldb::TableChanges::new();
        tc.insert(
            idivm_types::Key(vec![Value::Int(1)]),
            idivm_reldb::NetChange::Inserted { post: row![1, "x"] },
        );
        let pending = Net::from([("t".to_string(), tc.into())]);
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
                pending: Net::new(),
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
        let armed = FaultState::new(FaultPlan::at(FaultSite::Checkpoint, 0, 424242));
        assert!(matches!(
            newer.write(&dir, &armed),
            Err(Error::Injected(_))
        ));
        assert_eq!(Checkpoint::load(&dir).unwrap().last_lsn, 12);
        std::fs::remove_dir_all(&dir).ok();
    }
}
