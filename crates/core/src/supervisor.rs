//! The self-healing maintenance supervisor.
//!
//! PR 3 made a single maintenance round *atomic*: any mid-round error
//! rolls every view, cache, and index back to its pre-round state and
//! preserves the modification log. This module adds the layer above a
//! round that decides *what to do next*. A [`MaintenanceSupervisor`]
//! wraps any engine implementing [`SupervisedEngine`] (`IdIvm`,
//! `TupleIvm`, `Sdbt`) and drives the pending modification log to
//! convergence with an escalation ladder:
//!
//! 1. **Classify** the typed error: [`Error::retryable`] separates
//!    transient faults (injected transients, budget overruns) from
//!    permanent ones (poison diffs, schema/plan/internal errors).
//! 2. **Retry** transient failures with deterministic exponential
//!    backoff plus seeded jitter ([`BackoffPolicy`]). Time is a
//!    *virtual tick clock* — no wall clock is consulted, so the
//!    schedule is bit-identical across runs and thread counts.
//! 3. **Bisect** on repeated failure: split the folded change batch in
//!    half (canonical `(table, key)` order) and drive each half as its
//!    own atomic round, recursively, isolating the minimal poison diff
//!    set into a [`QuarantineLog`] while committing the healthy
//!    remainder.
//! 4. **Escalate** to full recompute
//!    ([`SupervisedEngine::maintain_or_recompute`]) when nothing could
//!    be committed incrementally.
//! 5. **Degrade**: if even the recompute fails, surface a
//!    [`SupervisorVerdict::Degraded`] verdict (with the modification
//!    log preserved for manual intervention) instead of panicking.
//!
//! Every decision is recorded in a [`SupervisorReport`]: attempts,
//! backoff schedule, the bisection tree, quarantined diffs, per-attempt
//! access spend, and budget aborts — serializable to JSON next to the
//! per-operator round traces.
//!
//! Bisection drives each half as an independently *committed* round, so
//! it is exact when the net changes are key-independent (each diff's
//! propagation does not read another pending diff's base row — true for
//! the single-table update workloads of the chaos suite). Batches with
//! cross-key reads may commit halves against post-state of the other
//! half; the quarantine set is still minimal with respect to the armed
//! failpoint.
//!
//! The supervisor borrows the engine mutably for the duration of a
//! [`MaintenanceSupervisor::run`] and restores the engine's own fault
//! plan and budget afterwards: supervision is a wrapper, not a
//! reconfiguration. With a default-configured supervisor
//! and no armed faults, the driven round is byte-identical to calling
//! the engine directly (same access counts, same trace).

use crate::config::EngineConfig;
use crate::faults::{FaultPlan, RoundBudget};
use crate::report::MaintenanceReport;
use crate::round::{drive, Engine};
use idivm_reldb::{Database, Net, NetChange, TableChanges};
use idivm_types::{Error, Json, Key, Result};
use std::collections::HashMap;

/// The engine surface the supervisor drives: every [`Engine`] has it
/// (the blanket impl below), and a scripted test double can implement
/// just these three methods. The fault and budget knobs the supervisor
/// saves and restores come from the [`EngineConfig`] supertrait.
pub trait SupervisedEngine: EngineConfig {
    /// Stable engine label for reports and JSON.
    fn label(&self) -> &'static str;

    /// Run one atomic maintenance round over an externally folded
    /// change set (must NOT consume the modification log — the
    /// supervisor owns it).
    ///
    /// # Errors
    /// Propagation or application failures, injected faults, budget
    /// overruns.
    fn maintain_with_changes(
        &self,
        db: &mut Database,
        net: &Net,
    ) -> Result<MaintenanceReport>;

    /// [`SupervisedEngine::maintain_with_changes`], except that a failed
    /// round this call owns is rolled back and then repaired by full
    /// recompute: the report comes back with
    /// [`recovered`](MaintenanceReport::recovered) set, the repair's
    /// cost in [`recovery`](MaintenanceReport::recovery) and the error
    /// in [`recovery_cause`](MaintenanceReport::recovery_cause). Nested
    /// under a caller's open round it neither aborts nor recomputes —
    /// the owner decides. Step 4 of the ladder is its one caller.
    ///
    /// # Errors
    /// A failed nested round, or a failed recompute.
    fn maintain_or_recompute(
        &self,
        db: &mut Database,
        net: &Net,
    ) -> Result<MaintenanceReport>;
}

impl<E: Engine + ?Sized> SupervisedEngine for E {
    fn label(&self) -> &'static str {
        Engine::label(self)
    }

    fn maintain_with_changes(
        &self,
        db: &mut Database,
        net: &Net,
    ) -> Result<MaintenanceReport> {
        Engine::maintain_with_changes(self, db, net)
    }

    fn maintain_or_recompute(
        &self,
        db: &mut Database,
        net: &Net,
    ) -> Result<MaintenanceReport> {
        drive(self, db, net, true, |round, db| self.round_body(round, db, net))
    }
}

/// Deterministic exponential backoff with seeded jitter on a virtual
/// tick clock. `delay(retry) = min(base · multiplier^retry, max) +
/// splitmix64(seed, retry) mod (jitter + 1)`. No wall clock anywhere:
/// the schedule depends only on the policy fields, so it is identical
/// across runs, machines, and `ParallelConfig` thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// First-retry delay in virtual ticks.
    pub base_ticks: u64,
    /// Exponential growth factor per retry.
    pub multiplier: u64,
    /// Ceiling on the exponential part.
    pub max_ticks: u64,
    /// Maximum extra jitter ticks (0 disables jitter).
    pub jitter_ticks: u64,
    /// Jitter seed (sweeps use the fault seed so one scenario id
    /// determines the whole schedule).
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base_ticks: 100,
            multiplier: 2,
            max_ticks: 10_000,
            jitter_ticks: 50,
            seed: 0,
        }
    }
}

impl BackoffPolicy {
    /// The virtual delay before the 0-based `retry`-th retry.
    pub fn delay(&self, retry: u32) -> u64 {
        let exp = self
            .base_ticks
            .saturating_mul(self.multiplier.saturating_pow(retry))
            .min(self.max_ticks);
        let jitter = if self.jitter_ticks == 0 {
            0
        } else {
            splitmix64(self.seed ^ u64::from(retry).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                % (self.jitter_ticks + 1)
        };
        exp + jitter
    }
}

/// SplitMix64 — the standard 64-bit finalizer, used as a tiny seeded
/// PRF for backoff jitter (no external RNG dependency; deterministic).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Supervisor tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Retries of a retryable error per (sub-)batch before escalating
    /// to bisection / quarantine.
    pub max_retries: u32,
    /// Backoff schedule for those retries.
    pub backoff: BackoffPolicy,
    /// Split failing batches in half to isolate poison diffs (step 3
    /// of the ladder). When off, a failing batch quarantines whole.
    pub bisect: bool,
    /// Escalate to full recompute when nothing could be committed
    /// incrementally (step 4).
    pub recompute_fallback: bool,
    /// Per-round access budget imposed on every driven round
    /// (unlimited by default). Overruns are retryable faults.
    pub budget: RoundBudget,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_retries: 3,
            backoff: BackoffPolicy::default(),
            bisect: true,
            recompute_fallback: true,
            budget: RoundBudget::unlimited(),
        }
    }
}

impl SupervisorConfig {
    /// Default config with the backoff jitter seeded by `seed` (sweeps
    /// pass the fault seed).
    pub fn seeded(seed: u64) -> Self {
        SupervisorConfig {
            backoff: BackoffPolicy {
                seed,
                ..BackoffPolicy::default()
            },
            ..SupervisorConfig::default()
        }
    }
}

/// How a [`MaintenanceSupervisor::run`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorVerdict {
    /// The modification log was empty; nothing to do.
    Idle,
    /// Every pending change committed incrementally (possibly after
    /// retries and bisection).
    Converged,
    /// The healthy remainder committed; the minimal poison set is in
    /// the [`QuarantineLog`]. The view equals the oracle on the
    /// committed subset.
    ConvergedQuarantined,
    /// Nothing could be committed incrementally; the view (and caches)
    /// were repaired by full recompute, which reflects *all* pending
    /// base-table changes — including quarantined ones (recompute
    /// reads base post-state and never propagates diffs).
    Recomputed,
    /// Even the recompute escalation failed. No exception is thrown:
    /// the verdict is the signal. The modification log is preserved
    /// for manual intervention.
    Degraded,
}

impl SupervisorVerdict {
    /// Stable lowercase label (JSON, error messages).
    pub fn label(self) -> &'static str {
        match self {
            SupervisorVerdict::Idle => "idle",
            SupervisorVerdict::Converged => "converged",
            SupervisorVerdict::ConvergedQuarantined => "converged_quarantined",
            SupervisorVerdict::Recomputed => "recomputed",
            SupervisorVerdict::Degraded => "degraded",
        }
    }

    /// True iff the database ended the run consistent with its base
    /// tables (everything except [`SupervisorVerdict::Degraded`] —
    /// quarantined rounds are consistent on the committed subset).
    pub fn healthy(self) -> bool {
        self != SupervisorVerdict::Degraded
    }
}

/// One net change the supervisor refused to commit, with the error
/// that condemned it.
#[derive(Debug, Clone)]
pub struct QuarantineEntry {
    /// Base table of the quarantined change.
    pub table: String,
    /// Primary key of the quarantined change.
    pub key: Key,
    /// The net change itself (pre/post rows), preserved so an operator
    /// can replay or discard it.
    pub change: NetChange,
    /// Display form of the error that condemned it.
    pub error: String,
}

/// The poison diffs isolated by bisection, in canonical `(table, key)`
/// order.
#[derive(Debug, Clone, Default)]
pub struct QuarantineLog {
    /// Quarantined changes, in canonical order.
    pub entries: Vec<QuarantineEntry>,
}

impl QuarantineLog {
    /// Number of quarantined changes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff nothing was quarantined.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The quarantined `(table, key)` pairs, in canonical order.
    pub fn keys(&self) -> Vec<(String, Key)> {
        self.entries
            .iter()
            .map(|e| (e.table.clone(), e.key.clone()))
            .collect()
    }
}

/// What happened to one node of the bisection tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BisectOutcome {
    /// The (sub-)batch committed as one atomic round.
    Committed,
    /// The (sub-)batch kept failing and was split in half.
    Split,
    /// The (sub-)batch was condemned whole (size 1, or bisection off).
    Quarantined,
}

impl BisectOutcome {
    /// Stable lowercase label (JSON).
    pub fn label(self) -> &'static str {
        match self {
            BisectOutcome::Committed => "committed",
            BisectOutcome::Split => "split",
            BisectOutcome::Quarantined => "quarantined",
        }
    }
}

/// One node of the bisection tree, recorded in pre-order (a node's
/// children — the two halves — follow it at `depth + 1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BisectNode {
    /// Recursion depth (0 = the full batch).
    pub depth: u32,
    /// Net changes in this (sub-)batch.
    pub size: usize,
    /// Backoff retries spent on this node before its outcome.
    pub retries: u32,
    /// How the node ended.
    pub outcome: BisectOutcome,
}

/// Everything a [`MaintenanceSupervisor::run`] decided, for audit and
/// JSON export. Deterministic: the same engine, data, fault plan, and
/// config produce an identical report across runs and thread counts.
#[derive(Debug, Clone)]
pub struct SupervisorReport {
    /// Engine label (see [`SupervisedEngine::label`]).
    pub engine: &'static str,
    /// How the run ended.
    pub verdict: SupervisorVerdict,
    /// Engine rounds attempted (including bisection sub-rounds and the
    /// recompute escalation).
    pub attempts: u64,
    /// Backoff retries across all nodes.
    pub retries: u64,
    /// Virtual delay before each retry, in schedule order.
    pub backoff_ticks: Vec<u64>,
    /// Sum of `backoff_ticks` (total virtual time spent waiting).
    pub virtual_elapsed_ticks: u64,
    /// The bisection tree, pre-order. A clean run is a single
    /// `Committed` node of depth 0.
    pub bisection: Vec<BisectNode>,
    /// The condemned diffs.
    pub quarantine: QuarantineLog,
    /// Net changes committed incrementally.
    pub committed_changes: usize,
    /// Access cost (the paper's unit) of each attempt, in attempt
    /// order — failed attempts included (their work was rolled back
    /// but still spent).
    pub attempt_costs: Vec<u64>,
    /// The budget each driven round ran under.
    pub budget: RoundBudget,
    /// Rounds aborted by [`Error::Budget`].
    pub budget_aborts: u64,
    /// True iff the run hit the total virtual-tick deadline
    /// ([`RoundBudget::max_ticks`]): the retry/backoff ladder was
    /// abandoned and the run escalated straight to the recompute path,
    /// with the typed [`Error::Budget`] cause appended to `errors`.
    pub deadline_exceeded: bool,
    /// Display form of every error observed, in order.
    pub errors: Vec<String>,
    /// The committed report of the last successful round (carries the
    /// round trace when tracing is enabled), if any.
    pub last_round: Option<MaintenanceReport>,
    /// When the driven state was rebuilt by crash recovery before this
    /// run, the durability layer stamps the source here (e.g.
    /// `"checkpoint 3 + 12 wal records"`). `None` for an ordinary
    /// in-memory run.
    pub recovered_from: Option<String>,
}

impl SupervisorReport {
    fn new(engine: &'static str, budget: RoundBudget) -> Self {
        SupervisorReport {
            engine,
            verdict: SupervisorVerdict::Idle,
            attempts: 0,
            retries: 0,
            backoff_ticks: Vec::new(),
            virtual_elapsed_ticks: 0,
            bisection: Vec::new(),
            quarantine: QuarantineLog::default(),
            committed_changes: 0,
            attempt_costs: Vec::new(),
            budget,
            budget_aborts: 0,
            deadline_exceeded: false,
            errors: Vec::new(),
            last_round: None,
            recovered_from: None,
        }
    }

    /// Total access cost across all attempts.
    pub fn total_accesses(&self) -> u64 {
        self.attempt_costs.iter().sum()
    }

    /// The report as one inline JSON object (schema in
    /// `EXPERIMENTS.md`).
    pub fn to_json(&self) -> Json {
        let ints = |xs: &[u64]| Json::list(xs.iter().map(|&x| x.into()));
        let bisection = self.bisection.iter().map(|n| {
            Json::inline([
                ("depth", n.depth.into()),
                ("size", n.size.into()),
                ("retries", n.retries.into()),
                ("outcome", n.outcome.label().into()),
            ])
        });
        let quarantine = self.quarantine.entries.iter().map(|e| {
            Json::inline([
                ("table", e.table.as_str().into()),
                ("key", format!("{:?}", e.key).into()),
                ("error", e.error.as_str().into()),
            ])
        });
        Json::inline([
            ("engine", self.engine.into()),
            ("verdict", self.verdict.label().into()),
            ("attempts", self.attempts.into()),
            ("retries", self.retries.into()),
            ("backoff_ticks", ints(&self.backoff_ticks)),
            ("virtual_elapsed_ticks", self.virtual_elapsed_ticks.into()),
            ("budget_max_accesses", self.budget.max_accesses.into()),
            ("budget_aborts", self.budget_aborts.into()),
            ("budget_max_ticks", self.budget.max_ticks.into()),
            ("deadline_exceeded", self.deadline_exceeded.into()),
            ("committed_changes", self.committed_changes.into()),
            ("attempt_costs", ints(&self.attempt_costs)),
            ("bisection", Json::list(bisection)),
            ("quarantine", Json::list(quarantine)),
            (
                "errors",
                Json::list(self.errors.iter().map(|e| e.as_str().into())),
            ),
            ("recovered_from", self.recovered_from.as_deref().into()),
        ])
    }
}

/// Drives an engine's pending modification log to convergence with the
/// retry → bisect → quarantine → recompute → degrade escalation ladder
/// (module docs). Borrows the engine for the run and restores its
/// fault plan and budget afterwards.
pub struct MaintenanceSupervisor<'e, E: SupervisedEngine + ?Sized> {
    engine: &'e mut E,
    config: SupervisorConfig,
}

impl<'e, E: SupervisedEngine + ?Sized> MaintenanceSupervisor<'e, E> {
    /// Wrap `engine` under `config`.
    pub fn new(engine: &'e mut E, config: SupervisorConfig) -> Self {
        MaintenanceSupervisor { engine, config }
    }

    /// Fold the modification log and drive it to convergence. Never
    /// returns `Err` and never panics: failure modes end in a
    /// [`SupervisorVerdict`] (`Degraded` at worst). The log is cleared
    /// on every healthy verdict and preserved on `Degraded`.
    pub fn run(&mut self, db: &mut Database) -> SupervisorReport {
        let net = db.fold_log();
        let report = self.run_with_changes(db, &net);
        if report.verdict != SupervisorVerdict::Idle && report.verdict.healthy() {
            db.clear_log();
        }
        report
    }

    /// Drive an externally folded change set to convergence (the
    /// multi-view scheduler composes each view's pending net itself).
    /// The modification log is untouched — the caller owns it; clear
    /// the corresponding pending changes on any healthy, non-idle
    /// verdict, exactly as [`MaintenanceSupervisor::run`] does with the
    /// database log.
    pub fn run_with_changes(
        &mut self,
        db: &mut Database,
        net: &Net,
    ) -> SupervisorReport {
        let mut report = SupervisorReport::new(self.engine.label(), self.config.budget);
        if net.is_empty() {
            return report;
        }
        // The supervisor owns the ladder: the budget is its config, and
        // the engine's own knobs come back at the end.
        let saved = (self.engine.faults(), self.engine.budget());
        let base_plan = saved.0;
        self.engine.set_budget(self.config.budget);

        // Canonical flat batch: deterministic bisection splits for any
        // HashMap iteration order or thread count.
        let mut flat: Vec<(String, Key, NetChange)> = Vec::new();
        for (table, changes) in net {
            for (key, change) in changes.iter() {
                flat.push((table.clone(), key.clone(), change.clone()));
            }
        }
        flat.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));

        let committed = self.drive(db, &mut report, &flat, 0, base_plan);
        report.committed_changes = committed;

        report.verdict = if report.quarantine.is_empty() {
            SupervisorVerdict::Converged
        } else if committed == 0 && self.config.recompute_fallback {
            self.recompute_escalation(db, &mut report, net, base_plan)
        } else {
            SupervisorVerdict::ConvergedQuarantined
        };
        self.engine.set_faults(saved.0);
        self.engine.set_budget(saved.1);
        report
    }

    /// Step 4 of the ladder: nothing committed incrementally — repair
    /// by full recompute, which reads base post-state directly and so
    /// cannot be poisoned by diff-level faults.
    fn recompute_escalation(
        &mut self,
        db: &mut Database,
        report: &mut SupervisorReport,
        net: &Net,
        base_plan: FaultPlan,
    ) -> SupervisorVerdict {
        // No budget on the last resort: a recompute bounded tighter
        // than the incremental round would degrade spuriously.
        self.engine.set_budget(RoundBudget::unlimited());
        self.engine.set_faults(base_plan.for_attempt(report.attempts));
        report.attempts += 1;
        let before = db.stats().snapshot();
        let res = self.engine.maintain_or_recompute(db, net);
        report
            .attempt_costs
            .push(db.stats().snapshot().since(&before).total());
        match res {
            Ok(round) => {
                let verdict = if round.recovered {
                    SupervisorVerdict::Recomputed
                } else {
                    // The fault healed (or never fired on this path):
                    // the round committed incrementally after all.
                    report.committed_changes = net.values().map(|c| c.len()).sum();
                    SupervisorVerdict::Converged
                };
                report.last_round = Some(round);
                verdict
            }
            Err(e) => {
                report.errors.push(e.to_string());
                SupervisorVerdict::Degraded
            }
        }
    }

    /// Steps 1–3 of the ladder for one (sub-)batch: attempt, retry
    /// with backoff while the error is retryable, then split or
    /// quarantine. Returns the number of net changes committed.
    fn drive(
        &mut self,
        db: &mut Database,
        report: &mut SupervisorReport,
        batch: &[(String, Key, NetChange)],
        depth: u32,
        base_plan: FaultPlan,
    ) -> usize {
        let net = to_net(batch);
        let mut retries_here = 0u32;
        loop {
            // Healing faults see the *global* attempt index: virtual
            // time moves forward monotonically across the whole run.
            self.engine.set_faults(base_plan.for_attempt(report.attempts));
            report.attempts += 1;
            let before = db.stats().snapshot();
            let res = self.engine.maintain_with_changes(db, &net);
            report
                .attempt_costs
                .push(db.stats().snapshot().since(&before).total());
            let e = match res {
                Ok(round) => {
                    report.bisection.push(BisectNode {
                        depth,
                        size: batch.len(),
                        retries: retries_here,
                        outcome: BisectOutcome::Committed,
                    });
                    report.last_round = Some(round);
                    return batch.len();
                }
                Err(e) => e,
            };
            if matches!(e, Error::Budget(_)) {
                report.budget_aborts += 1;
            }
            let retryable = e.retryable();
            report.errors.push(e.to_string());
            if retryable && retries_here < self.config.max_retries && !report.deadline_exceeded {
                let delay = self.config.backoff.delay(retries_here);
                if self
                    .config
                    .budget
                    .max_ticks
                    .is_none_or(|max| report.virtual_elapsed_ticks + delay <= max)
                {
                    report.backoff_ticks.push(delay);
                    report.virtual_elapsed_ticks += delay;
                    report.retries += 1;
                    retries_here += 1;
                    continue;
                }
                // Total virtual-tick deadline hit: abandon the
                // retry/backoff ladder everywhere (bisection halves
                // would only re-enter it) so the run falls through to
                // quarantine and, with nothing committed, the
                // recompute escalation — a firehose tick is never
                // stalled by a pathological backoff schedule.
                report.deadline_exceeded = true;
                report.errors.push(
                    Error::Budget(format!(
                        "virtual-tick deadline: next backoff of {delay} ticks would exceed \
                         max_ticks {} (elapsed {})",
                        self.config.budget.max_ticks.unwrap_or(0),
                        report.virtual_elapsed_ticks
                    ))
                    .to_string(),
                );
            }
            if self.config.bisect && batch.len() > 1 && !report.deadline_exceeded {
                report.bisection.push(BisectNode {
                    depth,
                    size: batch.len(),
                    retries: retries_here,
                    outcome: BisectOutcome::Split,
                });
                let mid = batch.len() / 2;
                let left = self.drive(db, report, &batch[..mid], depth + 1, base_plan);
                let right = self.drive(db, report, &batch[mid..], depth + 1, base_plan);
                return left + right;
            }
            report.bisection.push(BisectNode {
                depth,
                size: batch.len(),
                retries: retries_here,
                outcome: BisectOutcome::Quarantined,
            });
            for (table, key, change) in batch {
                report.quarantine.entries.push(QuarantineEntry {
                    table: table.clone(),
                    key: key.clone(),
                    change: change.clone(),
                    error: e.to_string(),
                });
            }
            return 0;
        }
    }
}

/// Rebuild the per-table change map of one (sub-)batch.
fn to_net(batch: &[(String, Key, NetChange)]) -> Net {
    let mut net: HashMap<String, TableChanges> = HashMap::new();
    for (table, key, change) in batch {
        net.entry(table.clone())
            .or_default()
            .insert(key.clone(), change.clone());
    }
    net.into_iter().map(|(t, c)| (t, c.into())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineKnobs;
    use std::cell::RefCell;

    /// A scripted engine: fails according to a poison-key set and a
    /// transient countdown, so the ladder logic is testable without a
    /// real propagation spine.
    struct Scripted {
        /// Keys whose presence in a batch fails the round permanently.
        poison: Vec<Key>,
        /// Number of leading attempts that fail transiently.
        transient_failures: u64,
        attempts: RefCell<u64>,
        committed: RefCell<Vec<Vec<Key>>>,
        knobs: EngineKnobs,
    }

    impl Scripted {
        fn new(poison: Vec<Key>, transient_failures: u64) -> Self {
            Scripted {
                poison,
                transient_failures,
                attempts: RefCell::new(0),
                committed: RefCell::new(Vec::new()),
                knobs: EngineKnobs::default(),
            }
        }
    }

    impl EngineConfig for Scripted {
        fn knobs(&self) -> &EngineKnobs {
            &self.knobs
        }
        fn knobs_mut(&mut self) -> &mut EngineKnobs {
            &mut self.knobs
        }
    }

    impl SupervisedEngine for Scripted {
        fn label(&self) -> &'static str {
            "scripted"
        }

        fn maintain_with_changes(
            &self,
            _db: &mut Database,
            net: &Net,
        ) -> Result<MaintenanceReport> {
            let n = *self.attempts.borrow();
            *self.attempts.borrow_mut() = n + 1;
            if n < self.transient_failures {
                return Err(Error::Injected("scripted transient".into()));
            }
            let mut keys: Vec<Key> = net.values().flat_map(|c| c.keys().cloned()).collect();
            keys.sort();
            if keys.iter().any(|k| self.poison.contains(k)) {
                return Err(Error::Poison("scripted poison".into()));
            }
            self.committed.borrow_mut().push(keys);
            Ok(MaintenanceReport::default())
        }

        /// A recompute repair reads base post-state directly, so it
        /// bypasses the diff-path faults this script models.
        fn maintain_or_recompute(
            &self,
            db: &mut Database,
            net: &Net,
        ) -> Result<MaintenanceReport> {
            self.maintain_with_changes(db, net).or_else(|_| {
                Ok(MaintenanceReport {
                    recovered: true,
                    ..MaintenanceReport::default()
                })
            })
        }
    }

    fn seeded_db(n: usize) -> Database {
        use idivm_types::{Column, ColumnType, Schema, Value};
        let mut db = Database::new();
        let schema = Schema::new(
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("x", ColumnType::Int),
            ],
            &["id"],
        )
        .unwrap();
        db.create_table("t", schema).unwrap();
        for i in 0..n {
            db.insert(
                "t",
                idivm_types::Row::new(vec![Value::Int(i as i64), Value::Int(0)]),
            )
            .unwrap();
        }
        db.clear_log();
        db
    }

    fn touch_all(db: &mut Database, n: usize) {
        use idivm_types::{Value};
        for i in 0..n {
            db.update(
                "t",
                &Key(vec![Value::Int(i as i64)]),
                &[(1, Value::Int(1))],
            )
            .unwrap();
        }
    }

    #[test]
    fn empty_log_is_idle() {
        let mut db = seeded_db(0);
        let mut e = Scripted::new(vec![], 0);
        let r = MaintenanceSupervisor::new(&mut e, SupervisorConfig::default()).run(&mut db);
        assert_eq!(r.verdict, SupervisorVerdict::Idle);
        assert_eq!(r.attempts, 0);
    }

    #[test]
    fn clean_batch_commits_first_try() {
        let mut db = seeded_db(8);
        touch_all(&mut db, 8);
        let mut e = Scripted::new(vec![], 0);
        let r = MaintenanceSupervisor::new(&mut e, SupervisorConfig::default()).run(&mut db);
        assert_eq!(r.verdict, SupervisorVerdict::Converged);
        assert_eq!(r.attempts, 1);
        assert_eq!(r.committed_changes, 8);
        assert!(r.quarantine.is_empty());
        assert_eq!(
            r.bisection,
            vec![BisectNode {
                depth: 0,
                size: 8,
                retries: 0,
                outcome: BisectOutcome::Committed
            }]
        );
        assert!(db.log().is_empty(), "log cleared on convergence");
    }

    #[test]
    fn transient_failures_retried_with_backoff() {
        let mut db = seeded_db(4);
        touch_all(&mut db, 4);
        let mut e = Scripted::new(vec![], 2);
        let cfg = SupervisorConfig::seeded(7);
        let r = MaintenanceSupervisor::new(&mut e, cfg).run(&mut db);
        assert_eq!(r.verdict, SupervisorVerdict::Converged);
        assert_eq!(r.attempts, 3);
        assert_eq!(r.retries, 2);
        assert_eq!(r.backoff_ticks.len(), 2);
        assert_eq!(
            r.backoff_ticks,
            vec![cfg.backoff.delay(0), cfg.backoff.delay(1)]
        );
        assert_eq!(
            r.virtual_elapsed_ticks,
            cfg.backoff.delay(0) + cfg.backoff.delay(1)
        );
        assert!(r.backoff_ticks[1] > r.backoff_ticks[0] / 2, "exponential-ish");
    }

    #[test]
    fn tick_deadline_escalates_to_recompute_with_budget_cause() {
        // A fault that never heals plus a generous retry allowance
        // would normally climb a long backoff ladder; the virtual-tick
        // deadline cuts it short and escalates to recompute.
        let mut db = seeded_db(4);
        touch_all(&mut db, 4);
        let mut e = Scripted::new(vec![], u64::MAX);
        let mut cfg = SupervisorConfig::seeded(7);
        cfg.max_retries = 100;
        cfg.budget = RoundBudget::unlimited().with_max_ticks(cfg.backoff.delay(0) + 1);
        let r = MaintenanceSupervisor::new(&mut e, cfg).run(&mut db);
        assert!(r.deadline_exceeded);
        // One backoff fit under the deadline; the second would not.
        assert_eq!(r.retries, 1);
        assert!(r.virtual_elapsed_ticks <= cfg.budget.max_ticks.unwrap());
        // The typed Error::Budget cause is in the report...
        assert!(
            r.errors.iter().any(|m| m.contains("virtual-tick deadline")),
            "{:?}",
            r.errors
        );
        // ...and the ladder skipped bisection: straight to quarantine,
        // then (nothing committed) the recompute escalation. The
        // scripted engine's recompute succeeds, so the run ends
        // Recomputed, not Degraded.
        assert_eq!(r.verdict, SupervisorVerdict::Recomputed);
        assert!(r
            .bisection
            .iter()
            .all(|b| b.outcome != BisectOutcome::Split));
        let j = r.to_json().render();
        assert!(j.contains("\"deadline_exceeded\": true"), "{j}");
        assert!(j.contains("\"budget_max_ticks\""), "{j}");
    }

    #[test]
    fn deadline_off_by_default_never_interferes() {
        let mut db = seeded_db(4);
        touch_all(&mut db, 4);
        let mut e = Scripted::new(vec![], 2);
        let cfg = SupervisorConfig::seeded(7);
        assert_eq!(cfg.budget.max_ticks, None);
        let r = MaintenanceSupervisor::new(&mut e, cfg).run(&mut db);
        assert_eq!(r.verdict, SupervisorVerdict::Converged);
        assert!(!r.deadline_exceeded);
    }

    #[test]
    fn poison_keys_quarantined_minimally_and_rest_committed() {
        use idivm_types::Value;
        let n = 16;
        let poison: Vec<Key> = [3i64, 11]
            .iter()
            .map(|&k| Key(vec![Value::Int(k)]))
            .collect();
        let mut db = seeded_db(n);
        touch_all(&mut db, n);
        let mut e = Scripted::new(poison.clone(), 0);
        let r = MaintenanceSupervisor::new(&mut e, SupervisorConfig::default()).run(&mut db);
        assert_eq!(r.verdict, SupervisorVerdict::ConvergedQuarantined);
        assert_eq!(r.quarantine.len(), 2);
        let mut got: Vec<Key> = r.quarantine.entries.iter().map(|q| q.key.clone()).collect();
        got.sort();
        assert_eq!(got, poison);
        assert_eq!(r.committed_changes, n - 2);
        // No retries burned: poison is permanent.
        assert_eq!(r.retries, 0);
        // The bisection tree bottoms out at singletons for the poison
        // keys only.
        let quarantined: Vec<&BisectNode> = r
            .bisection
            .iter()
            .filter(|b| b.outcome == BisectOutcome::Quarantined)
            .collect();
        assert!(quarantined.iter().all(|b| b.size == 1));
        assert_eq!(quarantined.len(), 2);
        assert!(db.log().is_empty(), "log cleared on quarantine-commit");
        // Every committed sub-batch was poison-free.
        assert!(e
            .committed
            .borrow()
            .iter()
            .all(|b| b.iter().all(|k| !poison.contains(k))));
    }

    #[test]
    fn all_poison_escalates_to_recompute() {
        use idivm_types::Value;
        let mut db = seeded_db(4);
        touch_all(&mut db, 4);
        let poison: Vec<Key> = (0..4).map(|k| Key(vec![Value::Int(k)])).collect();
        let mut e = Scripted::new(poison, 0);
        let r = MaintenanceSupervisor::new(&mut e, SupervisorConfig::default()).run(&mut db);
        assert_eq!(r.verdict, SupervisorVerdict::Recomputed);
        assert_eq!(r.committed_changes, 0);
        assert_eq!(r.quarantine.len(), 4);
        assert!(db.log().is_empty(), "log cleared after recompute repair");
    }

    #[test]
    fn unrecoverable_engine_degrades_without_panicking() {
        struct Dead {
            knobs: EngineKnobs,
        }
        impl EngineConfig for Dead {
            fn knobs(&self) -> &EngineKnobs {
                &self.knobs
            }
            fn knobs_mut(&mut self) -> &mut EngineKnobs {
                &mut self.knobs
            }
        }
        impl SupervisedEngine for Dead {
            fn label(&self) -> &'static str {
                "dead"
            }
            fn maintain_with_changes(
                &self,
                _db: &mut Database,
                _net: &Net,
            ) -> Result<MaintenanceReport> {
                Err(Error::Internal("scripted catastrophe".into()))
            }
            fn maintain_or_recompute(
                &self,
                db: &mut Database,
                net: &Net,
            ) -> Result<MaintenanceReport> {
                self.maintain_with_changes(db, net)
            }
        }
        let mut db = seeded_db(4);
        touch_all(&mut db, 4);
        let mut e = Dead {
            knobs: EngineKnobs::default(),
        };
        let r = MaintenanceSupervisor::new(&mut e, SupervisorConfig::default()).run(&mut db);
        assert_eq!(r.verdict, SupervisorVerdict::Degraded);
        assert!(!r.verdict.healthy());
        assert!(!db.log().is_empty(), "log preserved for intervention");
        // Internal errors are permanent: no retry was attempted on the
        // way down, and every change was condemned before escalation.
        assert_eq!(r.retries, 0);
        assert_eq!(r.quarantine.len(), 4);
    }

    #[test]
    fn backoff_is_deterministic_and_seed_sensitive() {
        let a = BackoffPolicy {
            seed: 1,
            ..BackoffPolicy::default()
        };
        let b = BackoffPolicy {
            seed: 2,
            ..BackoffPolicy::default()
        };
        let s1: Vec<u64> = (0..6).map(|i| a.delay(i)).collect();
        let s2: Vec<u64> = (0..6).map(|i| a.delay(i)).collect();
        let s3: Vec<u64> = (0..6).map(|i| b.delay(i)).collect();
        assert_eq!(s1, s2, "same seed, same schedule");
        assert_ne!(s1, s3, "different seed, different jitter");
        // The exponential part dominates and caps at max_ticks.
        let exp_only = BackoffPolicy {
            jitter_ticks: 0,
            ..BackoffPolicy::default()
        };
        assert_eq!(exp_only.delay(0), 100);
        assert_eq!(exp_only.delay(1), 200);
        assert_eq!(exp_only.delay(20), exp_only.max_ticks);
    }

    #[test]
    fn report_json_is_wellformed_enough() {
        let mut db = seeded_db(4);
        touch_all(&mut db, 4);
        let mut e = Scripted::new(vec![Key(vec![idivm_types::Value::Int(1)])], 0);
        let r = MaintenanceSupervisor::new(&mut e, SupervisorConfig::default()).run(&mut db);
        let json = r.to_json().render();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for field in [
            "\"engine\"",
            "\"verdict\"",
            "\"attempts\"",
            "\"backoff_ticks\"",
            "\"bisection\"",
            "\"quarantine\"",
            "\"budget_max_accesses\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        assert!(json.contains("converged_quarantined"));
        // Balanced braces (crude well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count()
        );
    }
}
