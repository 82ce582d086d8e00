//! The admission pipeline: decode → validate → logged DML → tick.
//!
//! A cut is **atomic and exactly-once**: the pipeline drains the
//! queue, opens an atomic database round, and replays each event as
//! logged DML against the scheduler's database after validating it
//! against the *current* table state (so later events in the batch see
//! earlier ones). Events that fail validation dead-letter with a
//! specific cause and perturb nothing — all admission reads are
//! uncounted, so healthy events' access accounting is bit-identical
//! whether or not garbage rode along in the batch.
//!
//! When the batch commits, the modification log holds exactly the
//! admitted events' DML; [`MaintenanceScheduler::tick`] (via
//! [`tick_ingest`](MaintenanceScheduler::tick_ingest)) folds it into
//! the same exact `ChangeLog` a one-shot run would have produced —
//! the firehose's bit-identity guard checks precisely this.
//!
//! **Fault atomicity.** The three ingest failpoints fire *before* any
//! irreversible step: `Enqueue` before buffering (producer keeps the
//! event), `BatchCut` before draining (queue keeps the batch), and
//! `Decode` per event mid-batch. A mid-batch fault rolls the attempt
//! back completely — database round aborted, modification log
//! truncated, dead letters un-pushed, sequence baselines restored,
//! every drained event requeued at the front in order — leaving the
//! database at its pre-cut signature with the whole batch pending and
//! retryable. The CI sweep pins this at every site.

use crate::batcher::{BatchPolicy, CutCause, MicroBatcher};
use crate::dlq::{DeadLetter, DeadLetterCause, DeadLetterQueue};
use crate::event::{ChangeEvent, ChangeOp, RawEvent};
use crate::queue::{EventQueue, QueueConfig, SendOutcome};
use idivm_core::{FaultSite, FaultState, IngestTrace};
use idivm_reldb::{Database, Net};
use idivm_sched::{MaintenanceScheduler, RoundSummary};
use idivm_types::{ColumnType, Error, Result, Row, Schema, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Queue + batcher configuration for one pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Admission queue sizing and overflow policy.
    pub queue: QueueConfig,
    /// Micro-batch cut thresholds.
    pub batch: BatchPolicy,
}

/// Lifetime counters across every cut.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestTotals {
    /// Events admitted (validated and applied as DML).
    pub admitted: u64,
    /// Events dead-lettered.
    pub dead_lettered: u64,
    /// Events shed by the queue.
    pub shed: u64,
    /// Batches cut.
    pub cuts: u64,
}

/// The durable image of one committed cut, captured between the batch's
/// `commit_round` and the scheduler tick that consumes it — exactly
/// what a write-ahead log must journal to replay the cut after a crash.
/// Capture is off by default ([`IngestPipeline::set_capture_commits`]).
#[derive(Debug, Clone)]
pub struct CommittedCut {
    /// The database's folded modification log at commit — the net DML
    /// this cut admitted (plus any direct DML logged before the cut) —
    /// as the cut's tick folded and distributed it: the same shared
    /// value the views' pending nets hold, not a second fold.
    pub net: Net,
    /// Post-cut per-producer sequence baselines (the whole map — a
    /// replay restores it wholesale, keeping exactly-once across the
    /// restart).
    pub expected_seq: BTreeMap<u32, u64>,
    /// Dead letters this cut appended, in admission order.
    pub dlq_appended: Vec<DeadLetter>,
    /// Post-cut lifetime totals (shed read live at capture).
    pub totals: IngestTotals,
}

/// What one committed cut did.
#[derive(Debug, Clone)]
pub struct IngestOutcome {
    /// The ingest pseudo-phase record (also stamped on the round).
    pub trace: IngestTrace,
    /// The scheduler round the batch fed.
    pub summary: RoundSummary,
    /// Events drained from the queue for this batch (admitted +
    /// dead-lettered).
    pub batch_events: usize,
    /// Per-event queue→cut latency samples, in virtual ticks, batch
    /// order (empty when ages weren't tracked, e.g. threaded
    /// producers).
    pub latencies_ticks: Vec<u64>,
}

/// The CDC admission pipeline over one scheduler's database.
pub struct IngestPipeline {
    queue: EventQueue,
    batcher: MicroBatcher,
    dlq: DeadLetterQueue,
    faults: Arc<FaultState>,
    /// Next expected sequence number per producer; absent until the
    /// producer's first event fixes its baseline.
    expected_seq: BTreeMap<u32, u64>,
    totals: IngestTotals,
    /// Sheds already attributed to some earlier cut's trace.
    shed_attributed: u64,
    /// When true, every committed cut leaves a [`CommittedCut`] for
    /// [`IngestPipeline::take_committed`] (the durability layer's WAL
    /// hook).
    capture_commits: bool,
    /// The most recent committed cut's durable image, if unclaimed.
    committed: Option<CommittedCut>,
}

impl IngestPipeline {
    /// Build a pipeline; the shared [`FaultState`] carries any armed
    /// ingest failpoint.
    ///
    /// # Errors
    /// [`Error::Config`] for an invalid queue config.
    pub fn new(config: PipelineConfig, faults: Arc<FaultState>) -> Result<Self> {
        Ok(IngestPipeline {
            queue: EventQueue::new(config.queue, Arc::clone(&faults))?,
            batcher: MicroBatcher::new(config.batch),
            dlq: DeadLetterQueue::new(),
            faults,
            expected_seq: BTreeMap::new(),
            totals: IngestTotals::default(),
            shed_attributed: 0,
            capture_commits: false,
            committed: None,
        })
    }

    /// The admission queue (clone it for producer threads).
    pub fn queue(&self) -> &EventQueue {
        &self.queue
    }

    /// The dead-letter queue.
    pub fn dlq(&self) -> &DeadLetterQueue {
        &self.dlq
    }

    /// Lifetime counters (shed is read live from the queue, on top of
    /// any baseline restored from a checkpoint).
    pub fn totals(&self) -> IngestTotals {
        IngestTotals {
            shed: self.totals.shed + self.queue.stats().shed,
            ..self.totals
        }
    }

    /// Enable (or disable) durable-commit capture: when on, every
    /// committed cut records a [`CommittedCut`] claimable through
    /// [`IngestPipeline::take_committed`].
    pub fn set_capture_commits(&mut self, on: bool) {
        self.capture_commits = on;
    }

    /// Claim the most recent committed cut's durable image.
    pub fn take_committed(&mut self) -> Option<CommittedCut> {
        self.committed.take()
    }

    /// Per-producer next-expected sequence baselines.
    pub fn expected_seq(&self) -> &BTreeMap<u32, u64> {
        &self.expected_seq
    }

    /// Restore sequence baselines wholesale (checkpoint/WAL recovery) —
    /// a producer resending an already-durable event after the restart
    /// dead-letters as a regression instead of double-applying.
    pub fn restore_expected_seq(&mut self, expected_seq: BTreeMap<u32, u64>) {
        self.expected_seq = expected_seq;
    }

    /// Restore lifetime totals from a checkpoint. The restored `shed`
    /// becomes a baseline under the (fresh) queue's live counter.
    pub fn restore_totals(&mut self, totals: IngestTotals) {
        self.totals = totals;
    }

    /// Re-append checkpointed dead letters (recovery preserves the
    /// quarantine across the restart; admission order is kept).
    pub fn restore_dead_letters(&mut self, letters: Vec<DeadLetter>) {
        for letter in letters {
            self.dlq.push(letter);
        }
    }

    /// Offer one event on the virtual-tick clock (non-blocking). On
    /// [`SendOutcome::WouldBlock`] the caller keeps the event and
    /// retries a later tick — that *is* the backpressure.
    ///
    /// # Errors
    /// An armed `Enqueue` fault; the caller still owns the event.
    pub fn offer(&mut self, now: u64, ev: &RawEvent) -> Result<SendOutcome> {
        let outcome = self.queue.try_send(ev)?;
        if outcome == SendOutcome::Enqueued {
            self.batcher.note_enqueued(now);
        }
        Ok(outcome)
    }

    /// Consult the batcher; cut and tick if it says so.
    ///
    /// # Errors
    /// See [`IngestPipeline::cut`].
    pub fn poll(
        &mut self,
        now: u64,
        sched: &mut MaintenanceScheduler,
    ) -> Result<Option<IngestOutcome>> {
        match self.batcher.decide(
            now,
            self.queue.depth(),
            self.queue.config().high_watermark,
        ) {
            Some(cause) => self.cut(now, cause, sched).map(Some),
            None => Ok(None),
        }
    }

    /// End-of-stream drain: cut whatever is buffered with cause
    /// `flush`. `None` when the queue is already empty.
    ///
    /// # Errors
    /// See [`IngestPipeline::cut`].
    pub fn flush(
        &mut self,
        now: u64,
        sched: &mut MaintenanceScheduler,
    ) -> Result<Option<IngestOutcome>> {
        if self.queue.depth() == 0 {
            return Ok(None);
        }
        self.cut(now, CutCause::Flush, sched).map(Some)
    }

    /// Cut the buffered batch: admit every event as logged DML inside
    /// an atomic database round, then drive one scheduler tick with
    /// the ingest trace stamped on it.
    ///
    /// # Errors
    /// An armed `BatchCut`/`Decode` fault (the attempt is fully rolled
    /// back — see the module docs), or a scheduler-level catalog error
    /// from the tick.
    pub fn cut(
        &mut self,
        now: u64,
        cause: CutCause,
        sched: &mut MaintenanceScheduler,
    ) -> Result<IngestOutcome> {
        let depth_at_cut = self.queue.depth();
        self.faults
            .hit(FaultSite::BatchCut, format_args!("{depth_at_cut} events pending"))?;
        let events = self.queue.drain_all();
        let log_mark = sched.db().log().len();
        let dlq_mark = self.dlq.len();
        let seq_snapshot = self.expected_seq.clone();
        if !sched.db_mut().begin_round() {
            self.queue.requeue_front(events);
            return Err(Error::Internal(
                "ingest cut inside an open maintenance round".into(),
            ));
        }
        let mut admitted = 0u64;
        let mut dead = 0u64;
        let mut failed: Option<Error> = None;
        for raw in &events {
            if let Err(e) = self.faults.hit(FaultSite::Decode, "") {
                failed = Some(e);
                break;
            }
            match raw.decode() {
                Err(msg) => {
                    self.dlq.push(DeadLetter::from_wire(
                        DeadLetterCause::Decode(msg),
                        raw.wire.clone(),
                    ));
                    dead += 1;
                }
                Ok(ev) => match self.admit(sched.db_mut(), &ev) {
                    None => admitted += 1,
                    Some(cause) => {
                        self.dlq
                            .push(DeadLetter::from_event(&ev, cause, raw.wire.clone()));
                        dead += 1;
                    }
                },
            }
        }
        if let Some(e) = failed {
            // Full rollback: the batch never happened.
            let db = sched.db_mut();
            db.abort_round();
            db.truncate_log(log_mark);
            self.dlq.truncate(dlq_mark);
            self.expected_seq = seq_snapshot;
            self.queue.requeue_front(events);
            return Err(e);
        }
        sched.db_mut().commit_round();
        let admit_ticks = self.batcher.note_cut(events.len());
        let latencies_ticks: Vec<u64> =
            admit_ticks.iter().map(|t| now.saturating_sub(*t)).collect();
        let shed_now = self.queue.stats().shed;
        let shed_this_cut = shed_now - self.shed_attributed;
        self.shed_attributed = shed_now;
        self.totals.admitted += admitted;
        self.totals.dead_lettered += dead;
        self.totals.cuts += 1;
        let trace = IngestTrace {
            admitted,
            shed: shed_this_cut,
            dead_lettered: dead,
            cut_cause: cause.label(),
            queue_depth_at_cut: depth_at_cut as u64,
        };
        // The cut's durable image is fixed here, between the commit and
        // the tick — all of it but the net, which the tick folds once
        // for the views and for the journal alike.
        let image = self.capture_commits.then(|| CommittedCut {
            net: Net::new(),
            expected_seq: self.expected_seq.clone(),
            dlq_appended: self.dlq.entries()[dlq_mark..].to_vec(),
            totals: self.totals(),
        });
        let summary = sched.tick_ingest(trace.clone());
        if let Some(image) = image {
            // Left for the journal whether or not the tick then failed.
            let net = sched.last_net().clone();
            self.committed = Some(CommittedCut { net, ..image });
        }
        let summary = summary?;
        Ok(IngestOutcome {
            trace,
            summary,
            batch_events: events.len(),
            latencies_ticks,
        })
    }

    /// Validate one decoded event against the current database state
    /// and, on success, apply it as logged DML. `None` = admitted;
    /// `Some(cause)` = dead-letter. All reads are uncounted.
    fn admit(&mut self, db: &mut Database, ev: &ChangeEvent) -> Option<DeadLetterCause> {
        // 1. Sequence discipline (transport-level, checked first so a
        //    malformed payload still consumes its sequence slot).
        match self.expected_seq.get(&ev.producer).copied() {
            None => {
                // First contact fixes the baseline at whatever the
                // producer starts with.
                self.expected_seq.insert(ev.producer, ev.seq + 1);
            }
            Some(expected) if ev.seq == expected => {
                self.expected_seq.insert(ev.producer, ev.seq + 1);
            }
            Some(expected) if ev.seq > expected => {
                // Gap: quarantine this event, resync just past it so
                // the stream keeps flowing.
                self.expected_seq.insert(ev.producer, ev.seq + 1);
                return Some(DeadLetterCause::SequenceGap { expected });
            }
            Some(expected) => {
                // Regression (replay/duplicate): baseline unchanged.
                return Some(DeadLetterCause::SequenceRegression { expected });
            }
        }
        // 2. Target table.
        let Ok(schema) = db.table(&ev.table).map(|t| t.schema().clone()) else {
            return Some(DeadLetterCause::UnknownTable);
        };
        // 3/4. Shape: arity and column types of every carried image.
        let images: Vec<&Row> = match &ev.op {
            ChangeOp::Insert { row } => vec![row],
            ChangeOp::Delete { pre } => vec![pre],
            ChangeOp::Update { pre, post } => vec![pre, post],
        };
        for row in images {
            if let Some(cause) = shape_check(row, &schema) {
                return Some(cause);
            }
        }
        // 5. State checks against current contents (uncounted reads),
        //    then DML.
        let stored = |db: &Database, key: &idivm_types::Key| -> Option<Row> {
            db.table(&ev.table)
                .ok()
                .and_then(|t| t.get_uncounted(key).cloned())
        };
        match &ev.op {
            ChangeOp::Insert { row } => {
                let key = row.key(schema.key());
                if stored(db, &key).is_some() {
                    return Some(DeadLetterCause::DuplicateKey);
                }
                if let Err(e) = db.insert(&ev.table, row.clone()) {
                    return Some(DeadLetterCause::Storage(e.to_string()));
                }
            }
            ChangeOp::Delete { pre } => {
                let key = pre.key(schema.key());
                match stored(db, &key) {
                    None => return Some(DeadLetterCause::MissingRow),
                    Some(cur) if cur != *pre => {
                        return Some(DeadLetterCause::StalePreImage { actual: cur })
                    }
                    Some(_) => {}
                }
                if let Err(e) = db.delete(&ev.table, &key) {
                    return Some(DeadLetterCause::Storage(e.to_string()));
                }
            }
            ChangeOp::Update { pre, post } => {
                let key = pre.key(schema.key());
                if post.key(schema.key()) != key {
                    return Some(DeadLetterCause::KeyChanged);
                }
                match stored(db, &key) {
                    None => return Some(DeadLetterCause::MissingRow),
                    Some(cur) if cur != *pre => {
                        return Some(DeadLetterCause::StalePreImage { actual: cur })
                    }
                    Some(_) => {}
                }
                let assignments: Vec<(usize, Value)> = pre
                    .0
                    .iter()
                    .zip(post.0.iter())
                    .enumerate()
                    .filter(|(_, (a, b))| a != b)
                    .map(|(i, (_, b))| (i, b.clone()))
                    .collect();
                // pre == post is a valid no-op: admitted, nothing
                // logged.
                if !assignments.is_empty() {
                    if let Err(e) = db.update(&ev.table, &key, &assignments) {
                        return Some(DeadLetterCause::Storage(e.to_string()));
                    }
                }
            }
        }
        None
    }
}

/// Arity + per-column type admissibility (NULL fits any column; a
/// non-NULL value must match the schema variant exactly).
fn shape_check(row: &Row, schema: &Schema) -> Option<DeadLetterCause> {
    if row.arity() != schema.arity() {
        return Some(DeadLetterCause::WrongArity {
            expected: schema.arity(),
            got: row.arity(),
        });
    }
    for (i, v) in row.0.iter().enumerate() {
        let ty = schema.columns()[i].ty;
        let ok = match v {
            Value::Null => true,
            Value::Bool(_) => ty == ColumnType::Bool,
            Value::Int(_) => ty == ColumnType::Int,
            Value::Float(_) => ty == ColumnType::Float,
            Value::Str(_) => ty == ColumnType::Str,
        };
        if !ok {
            return Some(DeadLetterCause::TypeMismatch {
                column: i,
                expected: type_label(ty),
            });
        }
    }
    None
}

fn type_label(ty: ColumnType) -> &'static str {
    match ty {
        ColumnType::Bool => "bool",
        ColumnType::Int => "int",
        ColumnType::Float => "float",
        ColumnType::Str => "str",
    }
}
