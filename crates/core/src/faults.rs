//! Deterministic fault injection for maintenance rounds.
//!
//! A [`FaultPlan`] arms exactly one *failpoint*: fire a typed error at
//! the k-th operator entry, the k-th APPLY call, the first serial
//! checkpoint where the round's cumulative access count reaches k, or
//! (content-dependent) at round start when the pending diff batch
//! contains a *poison key*. The engines consult the plan at fixed
//! points on their **serial** walk (operator entries, APPLY boundaries
//! — the same places the trace layer attributes accesses), so a given
//! plan fires at the same logical point for any `ParallelConfig`
//! thread count: access counts are bit-identical across thread counts,
//! and the operator/apply orders are properties of the plan walk, not
//! of scheduling.
//!
//! Faults carry a [`FaultKind`] classification: [`FaultKind::Transient`]
//! fires [`Error::Injected`] (retryable; optionally healing after a
//! fixed number of attempts via [`FaultPlan::heal_after`]) and
//! [`FaultKind::Permanent`] fires [`Error::Poison`] (deterministic for
//! a given input; a supervisor must bisect and quarantine instead of
//! retrying — see `idivm_core::supervisor`).
//!
//! [`FaultState`] also enforces the opt-in per-round access budget
//! ([`RoundBudget`]): at the same serial checkpoints, a round whose
//! cumulative access count exceeds the budget is aborted with the
//! retryable [`Error::Budget`], rolling back through the atomic-round
//! undo path like any other mid-round error.
//!
//! Like [`TraceConfig`](crate::trace::TraceConfig), a disabled plan
//! with no budget (the default) costs nothing per tuple: every hook
//! starts with a `Copy` field comparison and returns immediately.
//!
//! This is test/chaos machinery. [`Error::Injected`] / [`Error::Poison`]
//! are never produced organically; the fault-sweep suite uses them to
//! prove that *any* mid-round error triggers a bit-identical rollback
//! (see `Database::begin_round`/`abort_round` in `idivm-reldb`).

use idivm_exec::partition::stable_hash_key;
use idivm_reldb::Net;
use idivm_types::{Error, Result};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Where in the round a [`FaultPlan`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// At the first serial checkpoint where the round's cumulative
    /// access count (tuple accesses + index lookups since round start)
    /// is ≥ `at`. Checkpoints sit at operator and APPLY boundaries, so
    /// several `at` values can resolve to the same firing point — the
    /// point itself is deterministic and thread-stable.
    Access,
    /// On entry to the `at`-th (0-based) operator of the serial plan
    /// walk — before its rule evaluates or its phase runs.
    Operator,
    /// On the `at`-th (0-based) APPLY call (cache or view), before any
    /// diff lands.
    Apply,
    /// Content-dependent: at round start, when the folded diff batch
    /// contains at least one *poison key* — a key whose seeded stable
    /// hash satisfies `(hash ^ seed) % at == 0` (`at` acts as the
    /// poison modulus: roughly one key in `at` is poison). The firing
    /// point is before any propagation, so the round rolls back
    /// trivially; the same predicate lets a supervisor bisect down to
    /// the exact poison set.
    Diff,
    /// Ingest path: on the `at`-th (0-based) event enqueue into the
    /// bounded CDC queue. Fires **before** the event is buffered, so
    /// the producer still owns it (retryable — nothing is lost).
    Enqueue,
    /// Ingest path: on the `at`-th (0-based) micro-batch cut decision,
    /// before any admitted event touches the database. The buffered
    /// batch stays buffered (retryable).
    BatchCut,
    /// Ingest path: on the `at`-th (0-based) wire-event decode, before
    /// validation. Distinct from a *malformed* event (which is
    /// dead-lettered): an injected decode fault models the decoder
    /// itself failing and leaves the raw event pending (retryable).
    Decode,
    /// Durability path: on the `at`-th (0-based) WAL record append,
    /// **before** the record's bytes reach the log file. The crash
    /// harness interprets a fault here as a kill mid-append: a seeded
    /// prefix of the record may land on disk (a torn tail for recovery
    /// to truncate), but never the whole record.
    WalAppend,
    /// Durability path: on the `at`-th (0-based) WAL fsync. The crash
    /// harness interprets a fault here as a kill after the OS buffered
    /// the appended bytes but before they were made durable: recovery
    /// sees the log truncated back to the last synced offset.
    WalFsync,
    /// Durability path: on the `at`-th (0-based) checkpoint attempt,
    /// before the atomic rename publishes it. A partial temp file may
    /// exist; the previous checkpoint and the WAL stay authoritative.
    Checkpoint,
}

impl FaultSite {
    /// Stable lowercase label (error messages, JSON).
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::Access => "access",
            FaultSite::Operator => "operator",
            FaultSite::Apply => "apply",
            FaultSite::Diff => "diff",
            FaultSite::Enqueue => "enqueue",
            FaultSite::BatchCut => "batch_cut",
            FaultSite::Decode => "decode",
            FaultSite::WalAppend => "wal_append",
            FaultSite::WalFsync => "wal_fsync",
            FaultSite::Checkpoint => "checkpoint",
        }
    }
}

/// Transient-vs-permanent classification of an armed fault — decides
/// which typed error the failpoint produces and therefore how a
/// supervisor reacts (retry vs bisect-and-quarantine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultKind {
    /// Fires [`Error::Injected`] (retryable). The default.
    #[default]
    Transient,
    /// Fires [`Error::Poison`] (permanent: recurs on every retry of
    /// the same input).
    Permanent,
}

/// A deterministic fault to inject into maintenance rounds. `Copy`, so
/// it rides on [`IvmOptions`](crate::IvmOptions) like the other knobs.
/// Disabled by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Armed failpoint; `None` disables injection entirely.
    pub site: Option<FaultSite>,
    /// The failpoint index k (see [`FaultSite`] for each site's unit).
    pub at: u64,
    /// Sweep-identification seed, echoed in the injected error message
    /// so a failing differential run names the exact scenario. Also
    /// salts the [`FaultSite::Diff`] poison predicate.
    pub seed: u64,
    /// Transient vs permanent classification (which error fires).
    pub kind: FaultKind,
    /// For transient faults: the number of attempts after which the
    /// fault *heals* — [`FaultPlan::for_attempt`] returns a disabled
    /// plan once `attempt >= heal_after`. `0` (the default) means the
    /// fault never heals. Models transient conditions that clear with
    /// time (the supervisor's backoff ladder maps attempts to virtual
    /// time).
    pub heal_after: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::disabled()
    }
}

impl FaultPlan {
    /// No injection (the default) — zero per-tuple cost.
    pub fn disabled() -> Self {
        FaultPlan {
            site: None,
            at: 0,
            seed: 0,
            kind: FaultKind::Transient,
            heal_after: 0,
        }
    }

    /// Fire on the `k`-th operator entry.
    pub fn at_operator(k: u64, seed: u64) -> Self {
        FaultPlan {
            site: Some(FaultSite::Operator),
            at: k,
            ..FaultPlan::disabled().with_seed(seed)
        }
    }

    /// Fire on the `k`-th APPLY call.
    pub fn at_apply(k: u64, seed: u64) -> Self {
        FaultPlan {
            site: Some(FaultSite::Apply),
            at: k,
            ..FaultPlan::disabled().with_seed(seed)
        }
    }

    /// Fire once the round has spent `k` accesses (at the next serial
    /// checkpoint).
    pub fn at_access(k: u64, seed: u64) -> Self {
        FaultPlan {
            site: Some(FaultSite::Access),
            at: k,
            ..FaultPlan::disabled().with_seed(seed)
        }
    }

    /// Fire at round start when the pending batch contains a poison
    /// key (roughly one key in `modulus`, selected by seeded stable
    /// hash — see [`FaultSite::Diff`]). `modulus` is clamped to ≥ 1.
    pub fn at_diff(modulus: u64, seed: u64) -> Self {
        FaultPlan {
            site: Some(FaultSite::Diff),
            at: modulus.max(1),
            ..FaultPlan::disabled().with_seed(seed)
        }
    }

    /// Fire on the `k`-th event enqueue (ingest path).
    pub fn at_enqueue(k: u64, seed: u64) -> Self {
        FaultPlan {
            site: Some(FaultSite::Enqueue),
            at: k,
            ..FaultPlan::disabled().with_seed(seed)
        }
    }

    /// Fire on the `k`-th micro-batch cut decision (ingest path).
    pub fn at_batch_cut(k: u64, seed: u64) -> Self {
        FaultPlan {
            site: Some(FaultSite::BatchCut),
            at: k,
            ..FaultPlan::disabled().with_seed(seed)
        }
    }

    /// Fire on the `k`-th wire-event decode (ingest path).
    pub fn at_decode(k: u64, seed: u64) -> Self {
        FaultPlan {
            site: Some(FaultSite::Decode),
            at: k,
            ..FaultPlan::disabled().with_seed(seed)
        }
    }

    /// Fire on the `k`-th WAL record append (durability path).
    pub fn at_wal_append(k: u64, seed: u64) -> Self {
        FaultPlan {
            site: Some(FaultSite::WalAppend),
            at: k,
            ..FaultPlan::disabled().with_seed(seed)
        }
    }

    /// Fire on the `k`-th WAL fsync (durability path).
    pub fn at_wal_fsync(k: u64, seed: u64) -> Self {
        FaultPlan {
            site: Some(FaultSite::WalFsync),
            at: k,
            ..FaultPlan::disabled().with_seed(seed)
        }
    }

    /// Fire on the `k`-th checkpoint attempt (durability path).
    pub fn at_checkpoint(k: u64, seed: u64) -> Self {
        FaultPlan {
            site: Some(FaultSite::Checkpoint),
            at: k,
            ..FaultPlan::disabled().with_seed(seed)
        }
    }

    fn with_seed(self, seed: u64) -> Self {
        FaultPlan { seed, ..self }
    }

    /// This plan, reclassified permanent (fires [`Error::Poison`]).
    pub fn permanent(self) -> Self {
        FaultPlan {
            kind: FaultKind::Permanent,
            ..self
        }
    }

    /// This plan, healing after `attempts` attempts (transient faults
    /// only — see [`FaultPlan::heal_after`]).
    pub fn healing_after(self, attempts: u64) -> Self {
        FaultPlan {
            heal_after: attempts,
            ..self
        }
    }

    /// The plan as seen by the 0-based `attempt`-th retry of the same
    /// round: a transient plan with `heal_after > 0` is disabled once
    /// `attempt >= heal_after`; everything else is unchanged.
    pub fn for_attempt(self, attempt: u64) -> Self {
        if self.kind == FaultKind::Transient && self.heal_after > 0 && attempt >= self.heal_after {
            return FaultPlan::disabled();
        }
        self
    }

    /// True iff some failpoint is armed.
    pub fn enabled(&self) -> bool {
        self.site.is_some()
    }

    /// The [`FaultSite::Diff`] poison predicate: true iff `key` is
    /// poison under this plan's modulus and seed. Deterministic and
    /// thread-stable (FNV-1a over the canonical key encoding). Public
    /// so supervisors and tests can predict the exact poison set.
    pub fn is_poison_key(&self, key: &idivm_types::Key) -> bool {
        self.site == Some(FaultSite::Diff)
            && (stable_hash_key(key) ^ self.seed).is_multiple_of(self.at.max(1))
    }
}

/// Opt-in per-round access-count budget, enforced on the same serial
/// checkpoints as [`FaultSite::Access`]. `Copy`, disabled by default.
/// A round whose cumulative access count (tuple accesses + index
/// lookups since round start) *exceeds* `max_accesses` aborts with the
/// retryable [`Error::Budget`] and rolls back through the atomic-round
/// undo path — bounding the worst-case work any single round can do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundBudget {
    /// Maximum accesses one round may spend; `None` disables the
    /// budget entirely (zero checkpoint cost).
    pub max_accesses: Option<u64>,
    /// Total **virtual-tick deadline** for one supervised run: the sum
    /// of backoff delays the retry ladder may accumulate before the
    /// supervisor abandons incremental maintenance and escalates to
    /// the recompute path with a typed [`Error::Budget`] cause.
    /// Enforced by `MaintenanceSupervisor`, not at engine checkpoints
    /// — it bounds the *ladder*, not one round, so a pathological
    /// retry/backoff schedule cannot stall a firehose tick. `None`
    /// (the default) disables the deadline.
    pub max_ticks: Option<u64>,
}

impl RoundBudget {
    /// No budget (the default).
    pub fn unlimited() -> Self {
        RoundBudget {
            max_accesses: None,
            max_ticks: None,
        }
    }

    /// Cap one round at `max` accesses.
    pub fn capped(max: u64) -> Self {
        RoundBudget {
            max_accesses: Some(max),
            max_ticks: None,
        }
    }

    /// This budget, with a total virtual-tick deadline on the
    /// supervised retry ladder (see [`RoundBudget::max_ticks`]).
    pub fn with_max_ticks(self, ticks: u64) -> Self {
        RoundBudget {
            max_ticks: Some(ticks),
            ..self
        }
    }

    /// True iff an **access** cap is set (the checkpoint-enforced
    /// budget — engines use this to gate checkpoint bookkeeping). The
    /// virtual-tick deadline is supervisor-level and costs engines
    /// nothing, so it does not count here.
    pub fn enabled(&self) -> bool {
        self.max_accesses.is_some()
    }
}

/// Per-round firing state: the plan plus serial counters. Engines
/// create one at round start and call the hooks from the serial walk.
/// (Relaxed atomics, not `Cell`: every hook site still sits on the
/// single-threaded spine of the round — operator entries, APPLY
/// boundaries, and the serial dirty-group rescan loop — but the state
/// must be `Sync` so rules can reach the mid-rescan failpoint through
/// a shared `RuleCtx`.)
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    budget: RoundBudget,
    operators: AtomicU64,
    applies: AtomicU64,
    enqueues: AtomicU64,
    batch_cuts: AtomicU64,
    decodes: AtomicU64,
    wal_appends: AtomicU64,
    wal_fsyncs: AtomicU64,
    checkpoints: AtomicU64,
    fired: AtomicBool,
    budget_fired: AtomicBool,
}

impl FaultState {
    /// Fresh counters for one round under `plan`, no budget.
    pub fn new(plan: FaultPlan) -> Self {
        FaultState::with_budget(plan, RoundBudget::unlimited())
    }

    /// Fresh counters for one round under `plan` and `budget`.
    pub fn with_budget(plan: FaultPlan, budget: RoundBudget) -> Self {
        FaultState {
            plan,
            budget,
            operators: AtomicU64::new(0),
            applies: AtomicU64::new(0),
            enqueues: AtomicU64::new(0),
            batch_cuts: AtomicU64::new(0),
            decodes: AtomicU64::new(0),
            wal_appends: AtomicU64::new(0),
            wal_fsyncs: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            fired: AtomicBool::new(false),
            budget_fired: AtomicBool::new(false),
        }
    }

    /// True iff some failpoint is armed (engines may skip checkpoint
    /// bookkeeping entirely when not). A budget alone also counts:
    /// its checkpoints ride the same spine.
    pub fn enabled(&self) -> bool {
        self.plan.enabled() || self.budget.enabled()
    }

    /// True iff the hooks need cumulative access counts — lets engines
    /// skip the stats snapshot at checkpoints otherwise. True for an
    /// armed [`FaultSite::Access`] plan and for any armed budget.
    pub fn wants_access(&self) -> bool {
        self.plan.site == Some(FaultSite::Access) || self.budget.enabled()
    }

    fn fire(&self, what: &str) -> Error {
        self.fired.store(true, Ordering::Relaxed);
        let site = self.plan.site.map_or("?", FaultSite::label);
        let msg = format!(
            "fault[site={site}, at={}, seed={}] fired at {what}",
            self.plan.at, self.plan.seed
        );
        match self.plan.kind {
            FaultKind::Transient => Error::Injected(msg),
            FaultKind::Permanent => Error::Poison(msg),
        }
    }

    /// Hook: round start, with the folded diff batch the round is
    /// about to propagate. Fires the content-dependent
    /// [`FaultSite::Diff`] failpoint when the batch contains a poison
    /// key (tables and keys scanned in sorted order so the named key
    /// is deterministic).
    ///
    /// # Errors
    /// [`Error::Injected`] / [`Error::Poison`] when a poison key is
    /// present.
    pub fn on_batch(&self, net: &Net) -> Result<()> {
        if self.plan.site != Some(FaultSite::Diff) || self.fired.load(Ordering::Relaxed) {
            return Ok(());
        }
        let mut tables: Vec<&String> = net.keys().collect();
        tables.sort();
        for t in tables {
            let mut keys: Vec<_> = net[t].keys().collect();
            keys.sort();
            for k in keys {
                if self.plan.is_poison_key(k) {
                    return Err(self.fire(&format!("diff batch (poison key {k:?} in `{t}`)")));
                }
            }
        }
        Ok(())
    }

    /// Hook: entry to an operator on the serial walk.
    ///
    /// # Errors
    /// [`Error::Injected`] / [`Error::Poison`] when this is the armed
    /// operator entry.
    pub fn on_operator(&self, label: &str) -> Result<()> {
        if self.plan.site != Some(FaultSite::Operator) || self.fired.load(Ordering::Relaxed) {
            return Ok(());
        }
        let n = self.operators.fetch_add(1, Ordering::Relaxed);
        if n == self.plan.at {
            return Err(self.fire(&format!("operator entry {n} (`{label}`)")));
        }
        Ok(())
    }

    /// Hook: an APPLY call (cache or view), before any diff lands.
    ///
    /// # Errors
    /// [`Error::Injected`] / [`Error::Poison`] when this is the armed
    /// APPLY call.
    pub fn on_apply(&self, target: &str) -> Result<()> {
        if self.plan.site != Some(FaultSite::Apply) || self.fired.load(Ordering::Relaxed) {
            return Ok(());
        }
        let n = self.applies.fetch_add(1, Ordering::Relaxed);
        if n == self.plan.at {
            return Err(self.fire(&format!("apply call {n} (target `{target}`)")));
        }
        Ok(())
    }

    /// Hook: serial checkpoint carrying the round's cumulative access
    /// count. Callers gate the (mildly costly) snapshot on
    /// [`FaultState::wants_access`]. Checks the armed access fault
    /// first, then the budget.
    ///
    /// # Errors
    /// [`Error::Injected`] / [`Error::Poison`] at the first checkpoint
    /// where `cumulative` reaches the armed threshold;
    /// [`Error::Budget`] at the first checkpoint where `cumulative`
    /// exceeds the budget.
    pub fn on_access(&self, cumulative: u64) -> Result<()> {
        if self.plan.site == Some(FaultSite::Access)
            && !self.fired.load(Ordering::Relaxed)
            && cumulative >= self.plan.at
        {
            return Err(self.fire(&format!("access checkpoint (cumulative {cumulative})")));
        }
        if let Some(max) = self.budget.max_accesses {
            if cumulative > max && !self.budget_fired.load(Ordering::Relaxed) {
                self.budget_fired.store(true, Ordering::Relaxed);
                return Err(Error::Budget(format!(
                    "round spent {cumulative} accesses of a {max}-access budget"
                )));
            }
        }
        Ok(())
    }

    /// Hook: an event enqueue into the ingest queue, **before** the
    /// event is buffered (the producer still owns it on `Err`).
    ///
    /// # Errors
    /// [`Error::Injected`] / [`Error::Poison`] when this is the armed
    /// enqueue.
    pub fn on_enqueue(&self) -> Result<()> {
        if self.plan.site != Some(FaultSite::Enqueue) || self.fired.load(Ordering::Relaxed) {
            return Ok(());
        }
        let n = self.enqueues.fetch_add(1, Ordering::Relaxed);
        if n == self.plan.at {
            return Err(self.fire(&format!("enqueue {n}")));
        }
        Ok(())
    }

    /// Hook: a micro-batch cut decision, before any admitted event
    /// touches the database (the batch stays buffered on `Err`).
    ///
    /// # Errors
    /// [`Error::Injected`] / [`Error::Poison`] when this is the armed
    /// cut.
    pub fn on_batch_cut(&self, pending: usize) -> Result<()> {
        if self.plan.site != Some(FaultSite::BatchCut) || self.fired.load(Ordering::Relaxed) {
            return Ok(());
        }
        let n = self.batch_cuts.fetch_add(1, Ordering::Relaxed);
        if n == self.plan.at {
            return Err(self.fire(&format!("batch cut {n} ({pending} events pending)")));
        }
        Ok(())
    }

    /// Hook: a wire-event decode, before validation (the raw event
    /// stays pending on `Err` — this is the decoder failing, not the
    /// event being malformed).
    ///
    /// # Errors
    /// [`Error::Injected`] / [`Error::Poison`] when this is the armed
    /// decode.
    pub fn on_decode(&self) -> Result<()> {
        if self.plan.site != Some(FaultSite::Decode) || self.fired.load(Ordering::Relaxed) {
            return Ok(());
        }
        let n = self.decodes.fetch_add(1, Ordering::Relaxed);
        if n == self.plan.at {
            return Err(self.fire(&format!("decode {n}")));
        }
        Ok(())
    }

    /// Hook: a WAL record append, before any byte of the record lands.
    ///
    /// # Errors
    /// [`Error::Injected`] / [`Error::Poison`] when this is the armed
    /// append.
    pub fn on_wal_append(&self, lsn: u64) -> Result<()> {
        if self.plan.site != Some(FaultSite::WalAppend) || self.fired.load(Ordering::Relaxed) {
            return Ok(());
        }
        let n = self.wal_appends.fetch_add(1, Ordering::Relaxed);
        if n == self.plan.at {
            return Err(self.fire(&format!("wal append {n} (lsn {lsn})")));
        }
        Ok(())
    }

    /// Hook: a WAL fsync, before the flush reaches the device.
    ///
    /// # Errors
    /// [`Error::Injected`] / [`Error::Poison`] when this is the armed
    /// fsync.
    pub fn on_wal_fsync(&self) -> Result<()> {
        if self.plan.site != Some(FaultSite::WalFsync) || self.fired.load(Ordering::Relaxed) {
            return Ok(());
        }
        let n = self.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
        if n == self.plan.at {
            return Err(self.fire(&format!("wal fsync {n}")));
        }
        Ok(())
    }

    /// Hook: a checkpoint attempt, before the atomic rename publishes
    /// the snapshot.
    ///
    /// # Errors
    /// [`Error::Injected`] / [`Error::Poison`] when this is the armed
    /// checkpoint.
    pub fn on_checkpoint(&self, last_lsn: u64) -> Result<()> {
        if self.plan.site != Some(FaultSite::Checkpoint) || self.fired.load(Ordering::Relaxed) {
            return Ok(());
        }
        let n = self.checkpoints.fetch_add(1, Ordering::Relaxed);
        if n == self.plan.at {
            return Err(self.fire(&format!("checkpoint {n} (last lsn {last_lsn})")));
        }
        Ok(())
    }

    /// Number of operator entries seen so far (sweep sizing).
    pub fn operators_seen(&self) -> u64 {
        self.operators.load(Ordering::Relaxed)
    }

    /// Number of APPLY calls seen so far (sweep sizing).
    pub fn applies_seen(&self) -> u64 {
        self.applies.load(Ordering::Relaxed)
    }

    /// The armed plan's seed. The durability layer folds it into the
    /// torn-prefix length when a kill is simulated mid-write, so a
    /// seeded sweep explores different tear points deterministically.
    pub fn seed(&self) -> u64 {
        self.plan.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idivm_reldb::{NetChange, TableChanges};
    use idivm_types::{Key, Row, Value};

    #[test]
    fn disabled_plan_never_fires() {
        let s = FaultState::new(FaultPlan::disabled());
        assert!(!s.enabled());
        assert!(!s.wants_access());
        for i in 0..100 {
            s.on_operator("x").unwrap();
            s.on_apply("v").unwrap();
            s.on_access(i).unwrap();
        }
        s.on_batch(&Net::new()).unwrap();
    }

    #[test]
    fn operator_site_fires_exactly_at_k() {
        let s = FaultState::new(FaultPlan::at_operator(2, 42));
        s.on_operator("a").unwrap();
        s.on_apply("v").unwrap(); // other sites untouched
        s.on_operator("b").unwrap();
        let err = s.on_operator("c").unwrap_err();
        match err {
            Error::Injected(m) => {
                assert!(m.contains("seed=42"), "{m}");
                assert!(m.contains("operator entry 2"), "{m}");
            }
            other => panic!("expected Injected, got {other:?}"),
        }
        // Fired once; later hooks are inert.
        s.on_operator("d").unwrap();
    }

    #[test]
    fn apply_site_counts_applies_only() {
        let s = FaultState::new(FaultPlan::at_apply(0, 7));
        s.on_operator("a").unwrap();
        assert!(matches!(s.on_apply("V"), Err(Error::Injected(_))));
    }

    #[test]
    fn access_site_fires_at_first_checkpoint_reaching_k() {
        let s = FaultState::new(FaultPlan::at_access(10, 1));
        assert!(s.wants_access());
        s.on_access(3).unwrap();
        s.on_access(9).unwrap();
        assert!(matches!(s.on_access(14), Err(Error::Injected(_))));
        s.on_access(20).unwrap(); // single-shot
    }

    #[test]
    fn permanent_kind_fires_poison() {
        let s = FaultState::new(FaultPlan::at_operator(0, 9).permanent());
        assert!(matches!(s.on_operator("a"), Err(Error::Poison(_))));
    }

    #[test]
    fn healing_plan_disables_after_attempts() {
        let p = FaultPlan::at_operator(0, 9).healing_after(2);
        assert!(p.for_attempt(0).enabled());
        assert!(p.for_attempt(1).enabled());
        assert!(!p.for_attempt(2).enabled());
        // Permanent plans never heal.
        let p = FaultPlan::at_operator(0, 9).permanent().healing_after(2);
        assert!(p.for_attempt(5).enabled());
        // heal_after = 0 means never heals.
        let p = FaultPlan::at_operator(0, 9);
        assert!(p.for_attempt(u64::MAX).enabled());
    }

    fn batch_of(keys: &[i64]) -> Net {
        let mut tc = TableChanges::new();
        for &k in keys {
            tc.insert(
                Key(vec![Value::Int(k)]),
                NetChange::Inserted {
                    post: Row::new(vec![Value::Int(k)]),
                },
            );
        }
        Net::from([("parts".to_string(), tc.into())])
    }

    #[test]
    fn diff_site_fires_only_on_poison_keys() {
        let plan = FaultPlan::at_diff(3, 2015);
        // Find one poison and one healthy key under this plan.
        let poison: Vec<i64> = (0..100)
            .filter(|&k| plan.is_poison_key(&Key(vec![Value::Int(k)])))
            .collect();
        let healthy: Vec<i64> = (0..100)
            .filter(|&k| !plan.is_poison_key(&Key(vec![Value::Int(k)])))
            .collect();
        assert!(!poison.is_empty() && !healthy.is_empty());

        let s = FaultState::new(plan);
        s.on_batch(&batch_of(&healthy)).unwrap();
        let err = FaultState::new(plan).on_batch(&batch_of(&poison)).unwrap_err();
        assert!(matches!(err, Error::Injected(_)), "{err}");
        let err = FaultState::new(plan.permanent())
            .on_batch(&batch_of(&poison))
            .unwrap_err();
        assert!(matches!(err, Error::Poison(_)), "{err}");
        // Mixed batches fire too (any poison key taints the round).
        let mut mixed: Vec<i64> = healthy[..2].to_vec();
        mixed.push(poison[0]);
        assert!(FaultState::new(plan).on_batch(&batch_of(&mixed)).is_err());
    }

    #[test]
    fn ingest_sites_fire_on_their_own_counters() {
        let s = FaultState::new(FaultPlan::at_enqueue(1, 8));
        s.on_decode().unwrap();
        s.on_batch_cut(3).unwrap(); // other ingest sites untouched
        s.on_enqueue().unwrap();
        let err = s.on_enqueue().unwrap_err();
        assert!(matches!(err, Error::Injected(_)), "{err}");
        assert!(err.to_string().contains("site=enqueue"), "{err}");
        s.on_enqueue().unwrap(); // single-shot

        let s = FaultState::new(FaultPlan::at_batch_cut(0, 8));
        let err = s.on_batch_cut(5).unwrap_err();
        assert!(err.to_string().contains("batch cut 0 (5 events pending)"), "{err}");

        let s = FaultState::new(FaultPlan::at_decode(0, 8).permanent());
        assert!(matches!(s.on_decode(), Err(Error::Poison(_))));
    }

    #[test]
    fn durability_sites_fire_on_their_own_counters() {
        let s = FaultState::new(FaultPlan::at_wal_append(1, 77));
        s.on_wal_fsync().unwrap();
        s.on_checkpoint(0).unwrap(); // other durability sites untouched
        s.on_wal_append(5).unwrap();
        let err = s.on_wal_append(6).unwrap_err();
        assert!(err.to_string().contains("site=wal_append"), "{err}");
        assert!(err.to_string().contains("lsn 6"), "{err}");
        s.on_wal_append(7).unwrap(); // single-shot

        let s = FaultState::new(FaultPlan::at_wal_fsync(0, 77));
        assert!(matches!(s.on_wal_fsync(), Err(Error::Injected(_))));

        let s = FaultState::new(FaultPlan::at_checkpoint(0, 77).permanent());
        let err = s.on_checkpoint(9).unwrap_err();
        assert!(matches!(err, Error::Poison(_)), "{err}");
        assert!(err.to_string().contains("last lsn 9"), "{err}");
        assert_eq!(FaultSite::WalAppend.label(), "wal_append");
        assert_eq!(FaultSite::WalFsync.label(), "wal_fsync");
        assert_eq!(FaultSite::Checkpoint.label(), "checkpoint");
    }

    #[test]
    fn max_ticks_is_supervisor_level_not_checkpoint_level() {
        let b = RoundBudget::unlimited().with_max_ticks(100);
        assert_eq!(b.max_ticks, Some(100));
        // No access cap: engines skip checkpoint bookkeeping entirely.
        assert!(!b.enabled());
        let s = FaultState::with_budget(FaultPlan::disabled(), b);
        assert!(!s.enabled());
        assert!(!s.wants_access());
        s.on_access(u64::MAX).unwrap();
        // Composes with an access cap.
        let b = RoundBudget::capped(10).with_max_ticks(100);
        assert!(b.enabled());
        assert_eq!((b.max_accesses, b.max_ticks), (Some(10), Some(100)));
    }

    #[test]
    fn budget_fires_when_exceeded_and_is_retryable() {
        let s = FaultState::with_budget(FaultPlan::disabled(), RoundBudget::capped(10));
        assert!(s.enabled());
        assert!(s.wants_access());
        s.on_access(3).unwrap();
        s.on_access(10).unwrap(); // exactly at budget: fine
        let err = s.on_access(11).unwrap_err();
        assert!(matches!(err, Error::Budget(_)), "{err}");
        assert!(err.retryable());
        s.on_access(99).unwrap(); // single-shot
    }

    #[test]
    fn budget_composes_with_access_fault() {
        // Fault threshold first, then the budget on a later checkpoint.
        let s = FaultState::with_budget(FaultPlan::at_access(5, 1), RoundBudget::capped(8));
        assert!(matches!(s.on_access(6), Err(Error::Injected(_))));
        assert!(matches!(s.on_access(9), Err(Error::Budget(_))));
    }
}
