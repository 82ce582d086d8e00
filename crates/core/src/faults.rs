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

use idivm_reldb::Net;
use idivm_types::{stable_hash_key, Error, Result};
use std::fmt;
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

    /// Arm `site` at its `k`-th failpoint (see [`FaultSite`] for each
    /// site's unit). For [`FaultSite::Diff`] `k` is the poison modulus,
    /// clamped to ≥ 1.
    pub fn at(site: FaultSite, k: u64, seed: u64) -> Self {
        FaultPlan {
            site: Some(site),
            at: if site == FaultSite::Diff { k.max(1) } else { k },
            seed,
            ..FaultPlan::disabled()
        }
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

/// Per-round firing state: the plan, the armed site's call counter and
/// the two fired flags. Engines create one at round start and call the
/// hooks from the serial walk. (Relaxed atomics, not `Cell`: every hook
/// site still sits on the single-threaded spine of the round — operator
/// entries, APPLY boundaries, and the serial dirty-group rescan loop —
/// but the state must be `Sync` so rules can reach the mid-rescan
/// failpoint through a shared `RuleCtx`.)
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    budget: RoundBudget,
    /// Calls seen at the armed site; only that site is ever counted.
    seen: AtomicU64,
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
            seen: AtomicU64::new(0),
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

    /// Hook: a counted failpoint — one call per operator entry, APPLY
    /// call, event enqueue, batch cut, wire-event decode, WAL append,
    /// WAL fsync or checkpoint attempt, made *before* the work it
    /// guards (see [`FaultSite`] for what the caller still owns on
    /// `Err`). Only the armed site's calls are counted; the `at`-th
    /// fires with the text `"<unit> <n> (<detail>)"`, where the
    /// parenthesis is left out for an empty `detail`. `detail` is
    /// rendered only when the call fires.
    ///
    /// # Errors
    /// [`Error::Injected`] / [`Error::Poison`] when this is the armed
    /// call.
    pub fn hit(&self, site: FaultSite, detail: impl fmt::Display) -> Result<()> {
        if self.plan.site != Some(site) || self.fired.load(Ordering::Relaxed) {
            return Ok(());
        }
        let n = self.seen.fetch_add(1, Ordering::Relaxed);
        if n != self.plan.at {
            return Ok(());
        }
        let unit = match site {
            FaultSite::Operator => "operator entry".to_string(),
            FaultSite::Apply => "apply call".to_string(),
            _ => site.label().replace('_', " "),
        };
        let detail = detail.to_string();
        Err(self.fire(&if detail.is_empty() {
            format!("{unit} {n}")
        } else {
            format!("{unit} {n} ({detail})")
        }))
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

    use FaultSite::*;

    #[test]
    fn disabled_plan_never_fires() {
        let s = FaultState::new(FaultPlan::disabled());
        assert!(!s.enabled());
        assert!(!s.wants_access());
        for i in 0..100 {
            s.hit(Operator, "`x`").unwrap();
            s.hit(Apply, "target `v`").unwrap();
            s.on_access(i).unwrap();
        }
        s.on_batch(&Net::new()).unwrap();
    }

    #[test]
    fn operator_site_fires_exactly_at_k() {
        let s = FaultState::new(FaultPlan::at(Operator, 2, 42));
        s.hit(Operator, "`a`").unwrap();
        s.hit(Apply, "target `v`").unwrap(); // other sites untouched
        s.hit(Operator, "`b`").unwrap();
        let err = s.hit(Operator, "`c`").unwrap_err();
        match err {
            Error::Injected(m) => {
                assert!(m.contains("seed=42"), "{m}");
                assert!(m.contains("operator entry 2 (`c`)"), "{m}");
            }
            other => panic!("expected Injected, got {other:?}"),
        }
        // Fired once; later hooks are inert.
        s.hit(Operator, "`d`").unwrap();
    }

    #[test]
    fn access_site_fires_at_first_checkpoint_reaching_k() {
        let s = FaultState::new(FaultPlan::at(Access, 10, 1));
        assert!(s.wants_access());
        s.on_access(3).unwrap();
        s.on_access(9).unwrap();
        assert!(matches!(s.on_access(14), Err(Error::Injected(_))));
        s.on_access(20).unwrap(); // single-shot
    }

    #[test]
    fn permanent_kind_fires_poison() {
        let s = FaultState::new(FaultPlan::at(Operator, 0, 9).permanent());
        assert!(matches!(s.hit(Operator, "`a`"), Err(Error::Poison(_))));
    }

    #[test]
    fn healing_plan_disables_after_attempts() {
        let p = FaultPlan::at(Operator, 0, 9).healing_after(2);
        assert!(p.for_attempt(0).enabled());
        assert!(p.for_attempt(1).enabled());
        assert!(!p.for_attempt(2).enabled());
        // Permanent plans never heal.
        let p = FaultPlan::at(Operator, 0, 9).permanent().healing_after(2);
        assert!(p.for_attempt(5).enabled());
        // heal_after = 0 means never heals.
        let p = FaultPlan::at(Operator, 0, 9);
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
        let plan = FaultPlan::at(Diff, 3, 2015);
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
        // A zero modulus is clamped to one: every key is poison.
        assert_eq!(FaultPlan::at(Diff, 0, 2015).at, 1);
    }

    #[test]
    fn each_site_counts_only_its_own_calls() {
        let s = FaultState::new(FaultPlan::at(Enqueue, 1, 8));
        s.hit(Decode, "").unwrap();
        s.hit(BatchCut, "3 events pending").unwrap(); // other sites untouched
        s.hit(Enqueue, "").unwrap();
        let err = s.hit(Enqueue, "").unwrap_err();
        assert!(matches!(err, Error::Injected(_)), "{err}");
        let text = err.to_string();
        assert!(text.ends_with("[site=enqueue, at=1, seed=8] fired at enqueue 1"), "{text}");
        s.hit(Enqueue, "").unwrap(); // single-shot

        let s = FaultState::new(FaultPlan::at(WalAppend, 1, 77));
        s.hit(WalFsync, "").unwrap();
        s.hit(Checkpoint, "last lsn 0").unwrap();
        s.hit(WalAppend, "lsn 5").unwrap();
        let err = s.hit(WalAppend, "lsn 6").unwrap_err();
        assert!(err.to_string().ends_with("fired at wal append 1 (lsn 6)"), "{err}");

        let s = FaultState::new(FaultPlan::at(Checkpoint, 0, 77).permanent());
        let err = s.hit(Checkpoint, "last lsn 9").unwrap_err();
        assert!(matches!(err, Error::Poison(_)), "{err}");
        assert!(err.to_string().ends_with("fired at checkpoint 0 (last lsn 9)"), "{err}");
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
        let s = FaultState::with_budget(FaultPlan::at(Access, 5, 1), RoundBudget::capped(8));
        assert!(matches!(s.on_access(6), Err(Error::Injected(_))));
        assert!(matches!(s.on_access(9), Err(Error::Budget(_))));
    }
}
