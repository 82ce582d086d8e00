//! The [`Durable`] wrapper: a [`MaintenanceScheduler`] (plus optional
//! [`IngestPipeline`]) whose every committed round is journaled to a
//! WAL and periodically folded into a checkpoint, recoverable with
//! [`Durable::open`] to a bit-identical
//! [`Database::signature`](idivm_reldb::Database::signature).
//!
//! ## Commit protocol
//!
//! Each round-driving call (`tick`, `drain`, `read_view`, and the
//! ingest `poll`/`flush` cuts) captures the database's folded
//! modification log *before* the round consumes it, runs the round
//! through the ordinary in-memory machinery, then appends one
//! [`WalRecord::Round`] and fsyncs per [`DurabilityPolicy`]. A crash
//! before the append loses only the round that was never acknowledged;
//! a crash after it replays the round deterministically.
//!
//! Catalog mutations (`register`, `unregister`, `force_promote`,
//! `force_demote`) are journaled as their own records and **require a
//! quiescent modification log** — un-journaled DML entering a catalog
//! operation could not be replayed in the right order. Tick or drain
//! first; the call errors with [`Error::Config`] otherwise. DDL
//! records are always fsynced immediately (they are rare and cheap).
//!
//! ## Checkpoint protocol
//!
//! A checkpoint is *capture → worker → publish → cut*. The capture
//! (on the round's thread, see [`crate::checkpointer`]) hands a
//! consistent snapshot to one worker thread, which publishes it while
//! rounds keep appending to the same WAL. The worker's result is looked
//! at only at three **join points** — when the next automatic
//! checkpoint falls due, in [`Durable::checkpoint`], and in `Drop`
//! (or [`Durable::close`], which is `Drop` with a return value) —
//! so which call reports a checkpoint error, and when the log shrinks,
//! follow from the call sequence, not from timing. At a join point a
//! published checkpoint lets the WAL be cut behind its LSN
//! ([`Wal::cut`]: the newer records go to a temp file that is renamed
//! over the log); a failed one leaves the previous checkpoint and the
//! whole log in place and is the error of that call.
//!
//! ## Recovery
//!
//! [`Durable::open`] replays the records past the checkpoint. The
//! journaled rounds between two DDL records replay as one round —
//! their nets applied as logged DML, which the log folds into one
//! net — when [`MaintenanceScheduler::rounds_fold`] says round
//! boundaries cannot change the outcome, and one by one otherwise.
//!
//! Invariant: **every acknowledged round is in the newest published
//! checkpoint or in the log beside it, at every instant.** Records are
//! dropped from the log only after a checkpoint that covers them was
//! renamed into place, and only by a rename. [`Durable::open`] needs to
//! know none of this: it skips records at or below the checkpoint's
//! LSN, and "checkpoint published, log not yet cut" is simply that.
//!
//! ## Error contract
//!
//! When any durable call returns an error from the journaling path,
//! the in-memory state may be *ahead of* the disk state. Treat the
//! handle as crashed: drop it and [`Durable::open`] the directory.
//! That is exactly what the crash-injection tests do.

use crate::checkpoint::Checkpoint;
use crate::checkpointer::{CheckpointStats, Checkpointer};
use crate::wal::{RoundKind, Wal, WalRecord};
use idivm_core::{FaultState, IvmOptions};
use idivm_ingest::{IngestOutcome, IngestPipeline, PipelineConfig, RawEvent};
use idivm_reldb::{Database, Net, NetChange};
use idivm_sched::{Backing, MaintenanceScheduler, RefreshPolicy, RoundSummary, SchedulerConfig};
use idivm_types::{Error, Key, Result, Row, Value};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// WAL filename inside the store directory.
pub const WAL_FILE: &str = "wal.log";

/// When the WAL is flushed to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityPolicy {
    /// Fsync after every journaled round: no committed round is ever
    /// lost. The strictest (and slowest) setting.
    Always,
    /// Append every round, fsync every `n` rounds: a crash loses at
    /// most the last `n - 1` rounds (the unsynced tail reads as torn
    /// and is truncated at recovery). `EveryNRounds(1)` ≡ `Always`.
    EveryNRounds(u32),
    /// Journal nothing. Recovery falls back to the newest checkpoint
    /// alone. This is the zero-overhead baseline the crash bench
    /// measures WAL cost against.
    Off,
}

/// Store-wide durability knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// WAL fsync cadence.
    pub policy: DurabilityPolicy,
    /// Take a checkpoint (and truncate the WAL behind it) every this
    /// many journaled rounds; `0` disables automatic checkpoints
    /// (callers may still invoke [`Durable::checkpoint`] manually).
    pub checkpoint_every_rounds: u32,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            policy: DurabilityPolicy::Always,
            checkpoint_every_rounds: 0,
        }
    }
}

/// A durable maintenance stack over one store directory.
pub struct Durable {
    dir: PathBuf,
    wal: Wal,
    config: DurabilityConfig,
    rounds_since_fsync: u32,
    rounds_since_ckpt: u32,
    sched: MaintenanceScheduler,
    pipeline: Option<IngestPipeline>,
    /// The engine-options template applied to every view this store
    /// registers (recovery re-applies it; it is not journaled).
    options: IvmOptions,
    faults: Arc<FaultState>,
    checkpointer: Checkpointer,
}

impl Durable {
    /// Create a fresh store at `dir` over `db`: an empty WAL plus an
    /// initial checkpoint, so [`Durable::open`] always finds one.
    ///
    /// # Errors
    /// [`Error::Config`] when `db` has pending (un-ticked) DML;
    /// I/O or injected-fault errors from the initial checkpoint.
    pub fn create(
        dir: &Path,
        db: Database,
        sched_config: SchedulerConfig,
        options: IvmOptions,
        config: DurabilityConfig,
        faults: Arc<FaultState>,
    ) -> Result<Durable> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::Internal(format!("store dir create: {e}")))?;
        let sched = MaintenanceScheduler::new(db, sched_config);
        let wal = Wal::create(&dir.join(WAL_FILE), 1, Arc::clone(&faults))?;
        let mut store = Durable {
            dir: dir.to_path_buf(),
            wal,
            config,
            rounds_since_fsync: 0,
            rounds_since_ckpt: 0,
            sched,
            pipeline: None,
            options,
            faults,
            checkpointer: Checkpointer::default(),
        };
        store.checkpoint()?;
        Ok(store)
    }

    /// Recover the stack from `dir`: load the published checkpoint,
    /// rebuild the database / catalog / scheduler / ingest state, then
    /// replay every WAL record past the checkpoint through the
    /// ordinary maintenance machinery — the rounds between two DDL
    /// records as one round where round boundaries cannot change the
    /// outcome (see `replay_rounds`). A torn WAL tail is truncated; a
    /// mid-log checksum failure or LSN gap refuses with
    /// [`Error::Corrupt`].
    ///
    /// Pass `pipeline_config` to re-attach an ingest pipeline; its
    /// sequence baselines, dead letters, and totals are restored, so
    /// producers resending already-durable events dead-letter as
    /// regressions instead of double-applying.
    ///
    /// # Errors
    /// [`Error::Corrupt`] for damaged on-disk state; any scheduler
    /// error replay encounters (a replay divergence is a bug and
    /// surfaces loudly rather than silently).
    pub fn open(
        dir: &Path,
        sched_config: SchedulerConfig,
        options: IvmOptions,
        config: DurabilityConfig,
        faults: Arc<FaultState>,
        pipeline_config: Option<PipelineConfig>,
    ) -> Result<Durable> {
        let ckpt = Checkpoint::load(dir)?;
        let scan = Wal::scan(&dir.join(WAL_FILE))?;

        // --- Rebuild the database verbatim -------------------------
        let mut db = Database::new();
        for t in &ckpt.tables {
            db.create_table(&t.name, t.schema.clone())?;
            let table = db.table_mut(&t.name)?;
            table.reserve(t.rows.len());
            for row in &t.rows {
                table.load(row.clone())?;
            }
            for cols in &t.indexes {
                table.create_index_positions(cols.clone());
            }
        }

        // --- Reattach catalog state --------------------------------
        // Intermediates first: view reattachment consults the live
        // intermediates to reproduce the rewired (substituted) plans.
        let mut sched = MaintenanceScheduler::new(db, sched_config);
        for iv in &ckpt.intermediates {
            let backing = Backing {
                structure: iv.structure.clone(),
                label: iv.label.clone(),
                consumers: iv.consumers.iter().cloned().collect(),
            };
            sched.reattach(
                &iv.backing,
                iv.subtree.clone(),
                RefreshPolicy::Eager,
                Some(backing),
                options,
            )?;
            sched.restore_runtime(&iv.backing, iv.pending.clone(), 0)?;
        }
        for v in &ckpt.views {
            sched.reattach(&v.name, v.plan.clone(), v.policy, None, options)?;
            sched.restore_runtime(&v.name, v.pending.clone(), v.staleness)?;
        }
        sched.catalog_mut().set_next_backing(ckpt.next_backing);
        sched.restore_round(ckpt.round);
        for (structure, promote, demote) in &ckpt.trackers {
            sched.restore_tracker(structure, *promote, *demote);
        }

        // --- Reattach the ingest pipeline --------------------------
        let mut pipeline = match pipeline_config {
            Some(pc) => {
                let mut p = IngestPipeline::new(pc, Arc::clone(&faults))?;
                p.set_capture_commits(true);
                if let Some(ing) = &ckpt.ingest {
                    p.restore_expected_seq(ing.expected_seq.clone());
                    p.restore_dead_letters(ing.dead_letters.clone());
                    p.restore_totals(ing.totals);
                }
                Some(p)
            }
            None => None,
        };

        // --- Replay the WAL tail -----------------------------------
        // Rounds are collected into runs between DDL records and
        // replayed a run at a time (`replay_rounds`).
        let mut expected = ckpt.last_lsn + 1;
        let mut replayed = 0u64;
        let log_end = scan.records.last().map(|(lsn, _)| *lsn);
        let mut run: Vec<(RoundKind, Net)> = Vec::new();
        for (lsn, record) in scan.records {
            if lsn <= ckpt.last_lsn {
                // A checkpoint published just before a crash killed the
                // WAL truncation: already-folded records linger. Skip.
                continue;
            }
            if lsn != expected {
                return Err(Error::Corrupt(format!(
                    "wal skips from checkpoint lsn {} to {lsn}",
                    ckpt.last_lsn
                )));
            }
            expected += 1;
            replayed += 1;
            if let WalRecord::Round { kind, net } = record {
                run.push((kind, net));
                continue;
            }
            replay_rounds(&mut sched, pipeline.as_mut(), std::mem::take(&mut run))?;
            match record {
                WalRecord::Register { name, plan, policy } => {
                    sched.register(&name, plan, policy, options)?;
                }
                WalRecord::Unregister { name } => {
                    sched.unregister(&name)?;
                }
                WalRecord::Promote { label } => {
                    sched.force_promote(&label)?;
                }
                WalRecord::Demote { backing } => {
                    sched.force_demote(&backing)?;
                }
                // Collected into `run` above.
                WalRecord::Round { .. } => {}
            }
        }
        replay_rounds(&mut sched, pipeline.as_mut(), run)?;

        let note = format!(
            "checkpoint (lsn {}) + {replayed} wal record(s){}",
            ckpt.last_lsn,
            if scan.torn { ", torn tail truncated" } else { "" }
        );
        sched.set_recovered_from(Some(note));

        let wal = if log_end.is_some_and(|end| end < ckpt.last_lsn) {
            // The log stops short of the checkpoint: it was published
            // while the newest records were unsynced, and they died
            // with the process. Every record left is covered, and
            // appending `expected` behind them would leave an LSN gap —
            // start the log afresh.
            Wal::create(&dir.join(WAL_FILE), expected, Arc::clone(&faults))?
        } else {
            Wal::reopen(
                &dir.join(WAL_FILE),
                scan.valid_len,
                expected,
                Arc::clone(&faults),
            )?
        };
        Ok(Durable {
            dir: dir.to_path_buf(),
            wal,
            config,
            rounds_since_fsync: 0,
            rounds_since_ckpt: 0,
            sched,
            pipeline,
            options,
            faults,
            checkpointer: Checkpointer::default(),
        })
    }

    // ------------------------------------------------------------------
    // Catalog operations (journaled DDL; require quiescence)
    // ------------------------------------------------------------------

    fn require_quiescent(&self, op: &str) -> Result<()> {
        if !self.sched.db().fold_log().is_empty() {
            return Err(Error::Config(format!(
                "{op} requires a quiescent modification log — tick or drain \
                 before catalog operations"
            )));
        }
        Ok(())
    }

    /// Register and materialize a view (journaled). Uses the store's
    /// engine-options template.
    ///
    /// # Errors
    /// [`Error::Config`] with pending DML; scheduler/journal errors.
    pub fn register(
        &mut self,
        name: &str,
        plan: idivm_algebra::Plan,
        policy: RefreshPolicy,
    ) -> Result<()> {
        self.require_quiescent("register")?;
        self.sched
            .register(name, plan.clone(), policy, self.options)?;
        self.log_ddl(&WalRecord::Register {
            name: name.to_string(),
            plan,
            policy,
        })
    }

    /// Drop a view (journaled).
    ///
    /// # Errors
    /// [`Error::Config`] with pending DML; scheduler/journal errors.
    pub fn unregister(&mut self, name: &str) -> Result<()> {
        self.require_quiescent("unregister")?;
        self.sched.unregister(name)?;
        self.log_ddl(&WalRecord::Unregister {
            name: name.to_string(),
        })
    }

    /// Force-promote a shared prefix to a materialized intermediate
    /// (journaled). Returns the backing name.
    ///
    /// # Errors
    /// [`Error::Config`] with pending DML; scheduler/journal errors.
    pub fn force_promote(&mut self, label: &str) -> Result<String> {
        self.require_quiescent("force_promote")?;
        let backing = self.sched.force_promote(label)?;
        self.log_ddl(&WalRecord::Promote {
            label: label.to_string(),
        })?;
        Ok(backing)
    }

    /// Force-demote a promoted intermediate (journaled).
    ///
    /// # Errors
    /// [`Error::Config`] with pending DML; scheduler/journal errors.
    pub fn force_demote(&mut self, backing: &str) -> Result<()> {
        self.require_quiescent("force_demote")?;
        self.sched.force_demote(backing)?;
        self.log_ddl(&WalRecord::Demote {
            backing: backing.to_string(),
        })
    }

    // ------------------------------------------------------------------
    // Round-driving operations (journaled)
    // ------------------------------------------------------------------

    /// Run one maintenance tick and journal it.
    ///
    /// # Errors
    /// Scheduler errors, or journaling errors (see the module's error
    /// contract).
    pub fn tick(&mut self) -> Result<RoundSummary> {
        let summary = self.sched.tick()?;
        let net = self.sched.last_net().clone();
        self.log_round(WalRecord::Round {
            kind: RoundKind::Tick,
            net,
        })?;
        Ok(summary)
    }

    /// Drain barrier: bring every view up to date, journaled.
    ///
    /// # Errors
    /// Scheduler or journaling errors.
    pub fn drain(&mut self) -> Result<RoundSummary> {
        let summary = self.sched.drain()?;
        let net = self.sched.last_net().clone();
        self.log_round(WalRecord::Round {
            kind: RoundKind::Drain,
            net,
        })?;
        Ok(summary)
    }

    /// Read barrier: bring `name` up to date and return its sorted
    /// rows, journaled (the barrier consumes pending state, so it is a
    /// durable event even though it looks like a read).
    ///
    /// # Errors
    /// Scheduler or journaling errors.
    pub fn read_view(&mut self, name: &str) -> Result<Vec<Row>> {
        let rows = self.sched.read_view(name)?;
        let net = self.sched.last_net().clone();
        self.log_round(WalRecord::Round {
            kind: RoundKind::ReadView(name.to_string()),
            net,
        })?;
        Ok(rows)
    }

    /// Take a checkpoint now and cut the WAL behind it: returns once
    /// the checkpoint is published and the log holds no record it
    /// covers. (The automatic checkpoints go the same way but are
    /// joined later — see the module's checkpoint protocol.)
    ///
    /// # Errors
    /// [`Error::Config`] with pending DML; capture/write/injected-fault
    /// errors, of this checkpoint or of an automatic one still in
    /// flight (on error the previous checkpoint and full WAL remain
    /// valid on disk).
    pub fn checkpoint(&mut self) -> Result<()> {
        self.finish_checkpoint()?;
        self.start_checkpoint()?;
        self.finish_checkpoint()
    }

    /// Capture the stack as of the last journaled record and hand it to
    /// the worker.
    fn start_checkpoint(&mut self) -> Result<()> {
        self.checkpointer.start(
            &self.sched,
            self.pipeline.as_ref(),
            self.wal.next_lsn() - 1,
            self.wal.len(),
            &self.dir,
            &self.faults,
        )?;
        self.rounds_since_ckpt = 0;
        Ok(())
    }

    /// Join point: wait for the checkpoint in flight, if any, and cut
    /// the WAL behind it.
    fn finish_checkpoint(&mut self) -> Result<()> {
        self.checkpointer.join(|covered| self.wal.cut(covered))
    }

    /// Shut the handle: `Drop`'s join point, for a caller that wants to
    /// know. Waits for an automatic checkpoint still in flight and cuts
    /// the WAL behind it.
    ///
    /// # Errors
    /// Whatever failed that checkpoint; the previous one and the full
    /// WAL are then what the directory holds.
    pub fn close(mut self) -> Result<()> {
        self.finish_checkpoint()
    }

    /// What this handle's checkpoints cost so far.
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        self.checkpointer.stats()
    }

    // ------------------------------------------------------------------
    // Ingest
    // ------------------------------------------------------------------

    /// Attach a CDC ingest pipeline (commit capture enabled, so every
    /// cut is journaled).
    ///
    /// # Errors
    /// [`Error::Config`] for an invalid pipeline config.
    pub fn attach_pipeline(&mut self, config: PipelineConfig) -> Result<()> {
        let mut p = IngestPipeline::new(config, Arc::clone(&self.faults))?;
        p.set_capture_commits(true);
        self.pipeline = Some(p);
        Ok(())
    }

    fn pipeline_mut(&mut self) -> Result<&mut IngestPipeline> {
        self.pipeline
            .as_mut()
            .ok_or_else(|| Error::Config("no ingest pipeline attached".into()))
    }

    /// Offer one wire event to the pipeline (non-blocking).
    ///
    /// # Errors
    /// [`Error::Config`] without a pipeline; queue faults.
    pub fn offer(&mut self, now: u64, ev: &RawEvent) -> Result<idivm_ingest::SendOutcome> {
        self.pipeline_mut()?.offer(now, ev)
    }

    /// Poll the micro-batcher; if it cuts, the committed round is
    /// journaled with its sequence baselines and DLQ appends.
    ///
    /// # Errors
    /// [`Error::Config`] without a pipeline; pipeline, scheduler, or
    /// journaling errors.
    pub fn poll_ingest(&mut self, now: u64) -> Result<Option<IngestOutcome>> {
        let Some(p) = self.pipeline.as_mut() else {
            return Err(Error::Config("no ingest pipeline attached".into()));
        };
        let outcome = p.poll(now, &mut self.sched)?;
        if outcome.is_some() {
            self.log_committed_cut()?;
        }
        Ok(outcome)
    }

    /// Flush buffered events as a final cut, journaled.
    ///
    /// # Errors
    /// [`Error::Config`] without a pipeline; pipeline, scheduler, or
    /// journaling errors.
    pub fn flush_ingest(&mut self, now: u64) -> Result<Option<IngestOutcome>> {
        let Some(p) = self.pipeline.as_mut() else {
            return Err(Error::Config("no ingest pipeline attached".into()));
        };
        let outcome = p.flush(now, &mut self.sched)?;
        if outcome.is_some() {
            self.log_committed_cut()?;
        }
        Ok(outcome)
    }

    fn log_committed_cut(&mut self) -> Result<()> {
        let Some(cut) = self.pipeline.as_mut().and_then(IngestPipeline::take_committed)
        else {
            return Err(Error::Internal(
                "pipeline committed a cut without capturing it".into(),
            ));
        };
        self.log_round(WalRecord::Round {
            kind: RoundKind::Ingest {
                expected_seq: cut.expected_seq,
                dlq_appended: cut.dlq_appended,
                totals: cut.totals,
            },
            net: cut.net,
        })
    }

    // ------------------------------------------------------------------
    // Journaling internals
    // ------------------------------------------------------------------

    fn log_ddl(&mut self, record: &WalRecord) -> Result<()> {
        if self.config.policy == DurabilityPolicy::Off {
            return Ok(());
        }
        self.wal.append(record)?;
        // DDL is rare; always make it durable immediately.
        self.wal.fsync()
    }

    fn log_round(&mut self, record: WalRecord) -> Result<()> {
        if self.config.policy != DurabilityPolicy::Off {
            self.wal.append(&record)?;
            match self.config.policy {
                DurabilityPolicy::Always => {
                    self.wal.fsync()?;
                    self.rounds_since_fsync = 0;
                }
                DurabilityPolicy::EveryNRounds(n) => {
                    self.rounds_since_fsync += 1;
                    if self.rounds_since_fsync >= n.max(1) {
                        self.wal.fsync()?;
                        self.rounds_since_fsync = 0;
                    }
                }
                DurabilityPolicy::Off => {}
            }
        }
        if self.config.checkpoint_every_rounds > 0 {
            self.rounds_since_ckpt += 1;
            if self.rounds_since_ckpt >= self.config.checkpoint_every_rounds {
                self.finish_checkpoint()?;
                self.start_checkpoint()?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The underlying scheduler (read-only).
    pub fn scheduler(&self) -> &MaintenanceScheduler {
        &self.sched
    }

    /// The shared database (read-only).
    pub fn db(&self) -> &Database {
        self.sched.db()
    }

    /// Mutable database access for direct base-table DML. Changes
    /// accumulate in the modification log and become durable with the
    /// round that consumes them.
    pub fn db_mut(&mut self) -> &mut Database {
        self.sched.db_mut()
    }

    /// The attached ingest pipeline, if any.
    pub fn pipeline(&self) -> Option<&IngestPipeline> {
        self.pipeline.as_ref()
    }

    /// Provenance of the last recovery (`None` for a fresh store):
    /// e.g. `"checkpoint (lsn 12) + 3 wal record(s)"`.
    pub fn recovered_from(&self) -> Option<&str> {
        self.sched.recovered_from()
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The WAL's current byte length (overhead accounting).
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
    }

    /// Full structural fingerprint of every table (rows + indexes +
    /// pending modification log). Two stores with equal signatures are
    /// indistinguishable to maintenance.
    pub fn signature(&self) -> HashMap<String, idivm_reldb::TableSignature> {
        self.sched.db().signature()
    }
}

/// The last join point. A checkpoint error has no one to go to here
/// ([`Durable::close`] returns it); the disk holds a valid pair either
/// way.
impl Drop for Durable {
    fn drop(&mut self) {
        let _ = self.finish_checkpoint();
    }
}

/// Replay a run of journaled rounds that no DDL record separates.
///
/// When round boundaries cannot change the outcome
/// ([`MaintenanceScheduler::rounds_fold`]), the rounds up to the last
/// one that brought every view up to date — a tick, an ingest cut or a
/// drain — are replayed as one, as the paper's Section 5 combines a
/// sequence of modifications into one effective diff: each round's net
/// is applied as logged DML and its ingest state restored, the log
/// folds the nets into one, and one drain maintains every node against
/// it. The round counter then advances by the ticks and cuts folded
/// (read barriers and drains do not advance it). Read barriers after
/// that last round leave the other views' changes pending, so they —
/// and every round when the rounds do not fold — replay one by one.
fn replay_rounds(
    sched: &mut MaintenanceScheduler,
    mut pipeline: Option<&mut IngestPipeline>,
    run: Vec<(RoundKind, Net)>,
) -> Result<()> {
    let folded = if sched.rounds_fold() {
        let last_full = run
            .iter()
            .rposition(|(kind, _)| !matches!(kind, RoundKind::ReadView(_)));
        last_full.map_or(0, |i| i + 1)
    } else {
        0
    };
    let mut rounds = run.into_iter();
    if folded > 0 {
        let mut ticks = 0;
        for (kind, net) in rounds.by_ref().take(folded) {
            apply_net(sched.db_mut(), &net)?;
            if let RoundKind::Tick | RoundKind::Ingest { .. } = kind {
                ticks += 1;
            }
            restore_cut(pipeline.as_deref_mut(), kind);
        }
        sched.drain()?;
        sched.restore_round(sched.rounds() + ticks);
    }
    for (kind, net) in rounds {
        apply_net(sched.db_mut(), &net)?;
        match kind {
            RoundKind::Tick => {
                sched.tick()?;
            }
            RoundKind::Drain => {
                sched.drain()?;
            }
            RoundKind::ReadView(name) => {
                sched.read_view(&name)?;
            }
            RoundKind::Ingest { .. } => {
                restore_cut(pipeline.as_deref_mut(), kind);
                // `tick_ingest` is `tick` plus trace stamping;
                // state-wise a plain tick replays the cut exactly.
                sched.tick()?;
            }
        }
    }
    Ok(())
}

/// Restore an ingest cut's sequence baselines, dead-letter appends and
/// totals into the re-attached pipeline, if any.
fn restore_cut(pipeline: Option<&mut IngestPipeline>, kind: RoundKind) {
    if let (
        Some(p),
        RoundKind::Ingest {
            expected_seq,
            dlq_appended,
            totals,
        },
    ) = (pipeline, kind)
    {
        p.restore_expected_seq(expected_seq);
        p.restore_dead_letters(dlq_appended);
        p.restore_totals(totals);
    }
}

/// Re-apply a journaled folded net as ordinary logged DML, in
/// canonical (table, key) order. The replayed modification log folds
/// back to exactly `net`, so the following tick distributes the same
/// deltas the original round did.
fn apply_net(db: &mut Database, net: &Net) -> Result<()> {
    let mut tables: Vec<&String> = net.keys().collect();
    tables.sort();
    for table in tables {
        let changes = &net[table];
        let mut keys: Vec<&Key> = changes.keys().collect();
        keys.sort();
        for key in keys {
            match &changes[key] {
                NetChange::Inserted { post } => db.insert(table, post.clone())?,
                NetChange::Deleted { .. } => {
                    db.delete(table, key)?;
                }
                NetChange::Updated { pre, post } => {
                    let assignments: Vec<(usize, Value)> = pre
                        .0
                        .iter()
                        .zip(post.0.iter())
                        .enumerate()
                        .filter(|(_, (a, b))| a != b)
                        .map(|(i, (_, b))| (i, b.clone()))
                        .collect();
                    db.update(table, key, &assignments)?;
                }
            }
        }
    }
    Ok(())
}
