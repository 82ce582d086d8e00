//! The store's own checkpoints: proportional to what changed, and off
//! the round's thread.
//!
//! A checkpoint body is assembled from per-table *sections*
//! ([`Checkpoint::image`]). The [`Checkpointer`] keeps the sections of
//! the last published checkpoint, each under a [`SectionKey`] — all a
//! section's bytes depend on — and a checkpoint goes in two steps:
//!
//! 1. [`Checkpointer::start`], on the round's thread, between rounds: a
//!    table whose key did not move contributes its cached section
//!    untouched; of a table that did move only the row handles are
//!    taken (rows are immutable and shared — a reference-count bump
//!    each); the small manifests are cloned. All of it goes to one
//!    worker thread.
//! 2. The worker sorts and encodes the new sections, assembles and
//!    frames the image, and publishes it ([`checkpoint::publish`]) —
//!    none of which looks at the live tables.
//!
//! [`Checkpointer::join`] waits for the worker, installs its sections
//! and has the WAL cut. The caller decides *when* — [`Durable`](crate::Durable)
//! joins only at points fixed by its call sequence, so what a call
//! returns never depends on how fast the worker was.

use crate::checkpoint::{self, Checkpoint, TableSnapshot};
use idivm_core::FaultState;
use idivm_ingest::IngestPipeline;
use idivm_reldb::Table;
use idivm_sched::MaintenanceScheduler;
use idivm_types::{Error, Result};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;

/// What the store's checkpoints reused and encoded. Counts are totals
/// over every checkpoint published by this handle; `last_cut_bytes`
/// describes the newest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Checkpoints published.
    pub taken: u64,
    /// Tables whose cached section went into a checkpoint as it was.
    pub tables_reused: u64,
    /// Tables sorted and encoded anew.
    pub tables_encoded: u64,
    /// Bytes of the reused sections.
    pub bytes_reused: u64,
    /// Bytes of the newly encoded sections.
    pub bytes_encoded: u64,
    /// Bytes the cut behind it dropped from the WAL.
    pub last_cut_bytes: u64,
}

/// Everything the bytes of a table's section depend on. The id stands
/// for the name and the schema (fixed for a table's life, and never
/// handed to another table, so a same-named successor misses); the
/// version for the rows; the index list is spelled out because
/// creating an index — or rolling one back — leaves the version alone.
#[derive(Debug, PartialEq)]
struct SectionKey {
    id: u64,
    version: u64,
    indexes: Vec<Vec<usize>>,
}

impl SectionKey {
    fn of(table: &Table) -> SectionKey {
        SectionKey {
            id: table.id(),
            version: table.version(),
            indexes: table.index_positions(),
        }
    }
}

/// One table on its way into a checkpoint.
enum Part {
    /// Unchanged since the section was encoded.
    Reused(Arc<[u8]>),
    /// Changed: the table as captured, rows still unsorted.
    Fresh(TableSnapshot),
}

/// What the worker hands back.
struct Published {
    /// The sections of the published checkpoint, by table name: the
    /// next checkpoint's cache.
    sections: HashMap<String, (SectionKey, Arc<[u8]>)>,
    bytes_encoded: u64,
}

struct InFlight {
    worker: JoinHandle<Result<Published>>,
    /// WAL length at capture: every record before it is in the
    /// checkpoint.
    wal_len: u64,
    stats: CheckpointStats,
}

/// See the module documentation.
#[derive(Default)]
pub(crate) struct Checkpointer {
    sections: HashMap<String, (SectionKey, Arc<[u8]>)>,
    in_flight: Option<InFlight>,
    stats: CheckpointStats,
}

impl Checkpointer {
    pub(crate) fn stats(&self) -> CheckpointStats {
        self.stats
    }

    /// Capture the stack at `last_lsn` (the log being `wal_len` bytes
    /// long) and hand the checkpoint to a worker. The previous one must
    /// have been joined.
    ///
    /// # Errors
    /// As [`Checkpoint::capture`]; [`Error::Internal`] when a
    /// checkpoint is still in flight or no thread can be spawned.
    pub(crate) fn start(
        &mut self,
        sched: &MaintenanceScheduler,
        pipeline: Option<&IngestPipeline>,
        last_lsn: u64,
        wal_len: u64,
        dir: &Path,
        faults: &Arc<FaultState>,
    ) -> Result<()> {
        if self.in_flight.is_some() {
            return Err(Error::Internal(
                "checkpoint started with another in flight".into(),
            ));
        }
        let manifest = Checkpoint::manifest(sched, pipeline, last_lsn)?;
        let db = sched.db();
        let mut stats = self.stats;
        let mut parts = Vec::new();
        for name in db.table_names() {
            let table = db.table(name)?;
            let key = SectionKey::of(table);
            let part = match self.sections.get(name) {
                Some((cached, section)) if *cached == key => {
                    stats.tables_reused += 1;
                    stats.bytes_reused += section.len() as u64;
                    Part::Reused(Arc::clone(section))
                }
                _ => {
                    stats.tables_encoded += 1;
                    Part::Fresh(TableSnapshot::of(table))
                }
            };
            parts.push((name.to_string(), key, part));
        }
        let (dir, faults) = (dir.to_path_buf(), Arc::clone(faults));
        let worker = std::thread::Builder::new()
            .name("idivm-checkpoint".into())
            .spawn(move || {
                let mut sections = HashMap::with_capacity(parts.len());
                let mut ordered = Vec::with_capacity(parts.len());
                let mut bytes_encoded = 0;
                for (name, key, part) in parts {
                    let section = match part {
                        Part::Reused(section) => section,
                        Part::Fresh(table) => {
                            let section = table.sorted().section();
                            bytes_encoded += section.len() as u64;
                            section
                        }
                    };
                    ordered.push(Arc::clone(&section));
                    sections.insert(name, (key, section));
                }
                checkpoint::publish(&dir, &faults, manifest.last_lsn, &manifest.image(&ordered))?;
                Ok(Published {
                    sections,
                    bytes_encoded,
                })
            })
            .map_err(|e| Error::Internal(format!("checkpoint worker spawn: {e}")))?;
        self.in_flight = Some(InFlight {
            worker,
            wal_len,
            stats,
        });
        Ok(())
    }

    /// Join point: wait for the checkpoint in flight, if any, and — if
    /// it was published — let `cut` drop what it covers from the WAL
    /// (`cut` is given the log's length at capture and returns the
    /// bytes dropped). On a worker error nothing changed on disk but a
    /// temp file, and nothing in the cache.
    ///
    /// # Errors
    /// Whatever failed the worker — the injected fault, an I/O error —
    /// or [`Error::Internal`] if it panicked; else whatever `cut` does.
    pub(crate) fn join(&mut self, cut: impl FnOnce(u64) -> Result<u64>) -> Result<()> {
        let Some(flight) = self.in_flight.take() else {
            return Ok(());
        };
        let published = flight
            .worker
            .join()
            .map_err(|_| Error::Internal("checkpoint worker panicked".into()))??;
        self.sections = published.sections;
        let cut = cut(flight.wal_len);
        self.stats = CheckpointStats {
            taken: flight.stats.taken + 1,
            bytes_encoded: flight.stats.bytes_encoded + published.bytes_encoded,
            last_cut_bytes: *cut.as_ref().unwrap_or(&0),
            ..flight.stats
        };
        cut.map(|_| ())
    }
}
