//! The round spine: the atomic-round protocol, written once.
//!
//! Every maintenance engine in the workspace (`IdIvm`, `TupleIvm`,
//! `Sdbt`) runs the same round — fold the log, open an undo round, run
//! the engine's diff strategy under fault checkpoints and optional
//! tracing, commit or roll back, clear the log — and differs only in
//! *how it computes and applies diffs*. Repair by recompute after a
//! rollback is the supervisor's last escalation step and reaches the
//! protocol through one entry,
//! [`SupervisedEngine::maintain_or_recompute`](crate::supervisor::SupervisedEngine::maintain_or_recompute).
//! The [`Engine`] trait states that split: its required methods are the
//! strategy, its provided methods are the protocol (DESIGN.md §6
//! "Failure model" is the prose statement). A [`Round`] is what the
//! protocol hands the strategy: the fault state, the report under
//! construction and one phase stopwatch.

use crate::access::PathId;
use crate::config::{EngineConfig, EngineKnobs};
use crate::faults::FaultState;
use crate::report::MaintenanceReport;
use crate::trace::{OpTrace, PhaseTimings, RoundTrace, TracePhase};
use idivm_algebra::Plan;
use idivm_reldb::{Database, Net, StatsSnapshot};
use idivm_types::{Error, Result, Row};
use std::fmt::Display;
use std::time::{Duration, Instant};

/// One incremental round in flight: what the protocol owns on behalf
/// of the engine's [`Engine::round_body`].
pub struct Round<'r> {
    faults: &'r FaultState,
    /// Access counters at round start; checkpoints measure against it.
    round0: StatsSnapshot,
    /// End of the last stamped phase (round start before the first).
    lap: Instant,
    /// The report under construction; `trace` is `Some` iff the
    /// engine's [`TraceConfig`](crate::trace::TraceConfig) is enabled.
    pub report: MaintenanceReport,
}

impl<'r> Round<'r> {
    /// The round's failpoint/budget state. The reference outlives any
    /// borrow of the round, so rule contexts can hold it while the
    /// round keeps recording.
    pub fn faults(&self) -> &'r FaultState {
        self.faults
    }

    /// Access-fault / round-budget checkpoint: hands the accesses the
    /// round has spent so far to the fault state. Free unless an access
    /// fault or a budget is armed.
    ///
    /// # Errors
    /// The armed access fault or a budget overrun.
    pub fn checkpoint(&self, db: &Database) -> Result<()> {
        if self.faults.wants_access() {
            self.faults
                .on_access(db.stats().snapshot().since(&self.round0).total())?;
        }
        Ok(())
    }

    /// Record one operator/apply entry; a no-op (the label is not even
    /// rendered) unless the round is traced.
    #[allow(clippy::too_many_arguments)]
    pub fn op(
        &mut self,
        path: &PathId,
        label: impl Display,
        phase: TracePhase,
        diffs_in: u64,
        diffs_out: u64,
        dummies: u64,
        accesses: StatsSnapshot,
    ) {
        if let Some(trace) = self.report.trace.as_mut() {
            trace.operators.push(OpTrace {
                path: path.clone(),
                op: label.to_string(),
                phase,
                diffs_in,
                diffs_out,
                dummies,
                accesses,
            });
        }
    }

    /// Close a phase: stamp `slot` with the time since the previous
    /// stamp (since round start for the first), so `populate`,
    /// `propagate` and `apply` are contiguous and sum to at most
    /// `wall`. A no-op unless the round is traced.
    pub fn phase(&mut self, slot: impl FnOnce(&mut PhaseTimings) -> &mut Duration) {
        if let Some(trace) = self.report.trace.as_mut() {
            let now = Instant::now();
            *slot(&mut trace.timings) = now - self.lap;
            self.lap = now;
        }
    }
}

/// A maintenance engine: a diff *strategy* (required methods) run by
/// the shared round *protocol* (provided methods).
///
/// The protocol's contract — atomic rounds, owner vs nested rounds,
/// when recovery runs, what a recovered report contains — is stated
/// once in DESIGN.md §6 and implemented once here.
pub trait Engine: EngineConfig {
    /// Stable engine label for reports and JSON.
    fn label(&self) -> &'static str;

    /// The maintained view's name.
    fn view_name(&self) -> &str;

    /// The (ID-extended) view plan.
    fn plan(&self) -> &Plan;

    /// The strategy: populate → propagate → apply `net` against `db`,
    /// filling `round.report`, stamping `round.phase(..)` at each phase
    /// boundary and calling `round.checkpoint(db)` between operators.
    /// No commit/abort handling — the protocol brackets the call.
    ///
    /// # Errors
    /// Propagation or application failures, or an injected fault.
    fn round_body(
        &self,
        round: &mut Round<'_>,
        db: &mut Database,
        net: &Net,
    ) -> Result<()>;

    /// Refresh, by full recompute, exactly the tables this engine
    /// maintains (the repair step of the supervisor's recompute
    /// escalation).
    ///
    /// # Errors
    /// Recompute failures.
    fn recompute(&self, db: &mut Database) -> Result<()>;

    /// The view's rows as the other engines and the recompute oracle
    /// see them (engines that store hidden columns override this).
    ///
    /// # Errors
    /// Unknown view.
    fn visible_rows(&self, db: &Database) -> Result<Vec<Row>> {
        Ok(db.table(self.view_name())?.rows_uncounted())
    }

    /// Run one deferred maintenance round: fold the modification log,
    /// maintain, and clear the log once the round committed — a failed
    /// round leaves it for the retry.
    ///
    /// # Errors
    /// As [`Engine::maintain_with_changes`].
    fn maintain(&self, db: &mut Database) -> Result<MaintenanceReport> {
        let fold_started = Instant::now();
        let net = db.fold_log();
        let fold = fold_started.elapsed();
        let mut report = self.maintain_with_changes(db, &net)?;
        db.clear_log();
        if let Some(trace) = report.trace.as_mut() {
            trace.timings.fold = fold;
        }
        Ok(report)
    }

    /// One atomic round over an externally folded change set; the
    /// modification log is untouched (the caller owns it).
    ///
    /// # Errors
    /// Whatever failed the round, after the rollback.
    fn maintain_with_changes(
        &self,
        db: &mut Database,
        net: &Net,
    ) -> Result<MaintenanceReport> {
        drive(self, db, net, false, |round, db| self.round_body(round, db, net))
    }
}

/// The atomic-round bracket around `body` (an engine's strategy, with
/// whatever extra context its entry point closed over). With
/// `recompute`, a failed round this call owns is repaired by full
/// recompute after the rollback and reported as recovered.
pub(crate) fn drive<E: Engine + ?Sized>(
    engine: &E,
    db: &mut Database,
    net: &Net,
    recompute: bool,
    body: impl FnOnce(&mut Round<'_>, &mut Database) -> Result<()>,
) -> Result<MaintenanceReport> {
    let owner = db.begin_round();
    match incremental(engine.knobs(), db, net, body) {
        Ok(report) => {
            if owner {
                db.commit_round();
            } else {
                db.end_nested_round();
            }
            Ok(report)
        }
        Err(e) if !owner => {
            // Nested under someone else's round: the owner's abort
            // (and any repair) handles the outcome.
            db.end_nested_round();
            Err(e)
        }
        Err(e) => {
            db.abort_round();
            if recompute {
                recover(engine, db, &e)
            } else {
                Err(e)
            }
        }
    }
}

/// The incremental attempt itself: prologue, `body`, wall stamp.
fn incremental(
    knobs: &EngineKnobs,
    db: &mut Database,
    net: &Net,
    body: impl FnOnce(&mut Round<'_>, &mut Database) -> Result<()>,
) -> Result<MaintenanceReport> {
    let started = Instant::now();
    let faults = FaultState::with_budget(knobs.faults, knobs.budget);
    // Content-dependent failpoint: a poison key in the pending batch
    // fails the round before any propagation.
    faults.on_batch(net)?;
    let mut round = Round {
        faults: &faults,
        round0: db.stats().snapshot(),
        lap: started,
        report: MaintenanceReport {
            trace: knobs.trace.enabled.then(RoundTrace::default),
            ..MaintenanceReport::default()
        },
    };
    body(&mut round, db)?;
    round.report.wall = started.elapsed();
    Ok(round.report)
}

/// Repair by full recompute after a rollback, and report it.
fn recover<E: Engine + ?Sized>(
    engine: &E,
    db: &mut Database,
    cause: &Error,
) -> Result<MaintenanceReport> {
    let started = Instant::now();
    let before = db.stats().snapshot();
    engine.recompute(db)?;
    let recovery = db.stats().snapshot().since(&before);
    let trace = engine.knobs().trace.enabled.then(|| RoundTrace {
        operators: vec![OpTrace {
            path: PathId::new(),
            op: format!("recompute `{}`", engine.view_name()),
            phase: TracePhase::Recovery,
            diffs_in: 0,
            diffs_out: 0,
            dummies: 0,
            accesses: recovery,
        }],
        ..RoundTrace::default()
    });
    Ok(MaintenanceReport {
        recovered: true,
        recovery,
        recovery_cause: Some(cause.to_string()),
        trace,
        wall: started.elapsed(),
        ..MaintenanceReport::default()
    })
}

impl<E: Engine + ?Sized> Engine for Box<E> {
    fn label(&self) -> &'static str {
        (**self).label()
    }
    fn view_name(&self) -> &str {
        (**self).view_name()
    }
    fn plan(&self) -> &Plan {
        (**self).plan()
    }
    fn round_body(
        &self,
        round: &mut Round<'_>,
        db: &mut Database,
        net: &Net,
    ) -> Result<()> {
        (**self).round_body(round, db, net)
    }
    fn recompute(&self, db: &mut Database) -> Result<()> {
        (**self).recompute(db)
    }
    fn visible_rows(&self, db: &Database) -> Result<Vec<Row>> {
        (**self).visible_rows(db)
    }
}
