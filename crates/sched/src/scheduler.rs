//! Per-view refresh policies and round scheduling over a
//! [`ViewCatalog`].
//!
//! A [`MaintenanceScheduler`] owns the catalog and, for each view, a
//! **refresh policy**, a **pending net** (the composed effective
//! changes the view has not seen yet), and a staleness counter. One
//! [`MaintenanceScheduler::tick`] is the unit of time:
//!
//! 1. Fold the database's modification log once and clear it — from
//!    here the scheduler owns the changes.
//! 2. Compose the folded net onto every dependent view's pending net
//!    ([`compose_changes`]): pendings accumulated over several ticks
//!    are exactly what folding the concatenated log would have
//!    produced, so a deferred round is one bigger — not different —
//!    round.
//! 3. Maintain every *due* view (policy decides), all against one
//!    fresh [`SharedDiffCache`]: the first due view to walk a
//!    designated shared prefix publishes its i-diffs, every later due
//!    view with the same pending horizon reuses them at zero counted
//!    accesses.
//! 4. Route any maintenance failure through a per-view
//!    [`MaintenanceSupervisor`] (retry → bisect/quarantine → recompute
//!    → degrade). A failing or degraded view never blocks or corrupts
//!    its siblings: each round is atomic over that view's table and
//!    caches only, and its pending net stays queued for the next tick.
//!
//! **Staleness semantics.** A view's staleness is the number of ticks
//! its pending net has been non-empty. `Eager` refreshes at staleness
//! 1 (every tick it has changes); `Deferred { max_staleness_rounds: k }`
//! lets staleness grow to `k` before refreshing, folding up to `k`
//! ticks of changes into one round; `OnRead` never refreshes on a tick
//! — [`MaintenanceScheduler::read_view`] is the barrier that drains
//! it. Once drained, a view's contents are bit-identical under any
//! policy: composition is exact and maintenance is deterministic.

use crate::catalog::ViewCatalog;
use idivm_core::supervisor::{SupervisorConfig, SupervisorReport, SupervisorVerdict};
use idivm_core::{
    IngestTrace, IvmOptions, MaintenanceReport, PromotionCandidate, SharedDiffCache,
    SharedPrefixStat,
};
use idivm_cost::{CrossoverModel, PrefixObservation, PromotionConfig, PromotionDecision};
use idivm_exec::ParallelConfig;
use idivm_reldb::{compose_changes, Database, StatsSnapshot, TableChanges};
use idivm_types::{Error, Result, Row};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// When a view's pending changes are propagated into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshPolicy {
    /// Refresh on every tick that delivers changes (staleness never
    /// exceeds 1).
    Eager,
    /// Let pending changes accumulate for up to `max_staleness_rounds`
    /// ticks, then refresh in one composed round.
    /// `max_staleness_rounds = 1` behaves like [`RefreshPolicy::Eager`];
    /// 0 is rejected at registration.
    Deferred {
        /// Maximum ticks a non-empty pending net may age before the
        /// scheduler refreshes the view.
        max_staleness_rounds: u32,
    },
    /// Never refresh on a tick; pending changes drain only through the
    /// [`MaintenanceScheduler::read_view`] barrier (or an explicit
    /// [`MaintenanceScheduler::drain`]).
    OnRead,
}

impl RefreshPolicy {
    /// Stable lowercase label (JSON, reports).
    pub fn label(self) -> String {
        match self {
            RefreshPolicy::Eager => "eager".to_string(),
            RefreshPolicy::Deferred {
                max_staleness_rounds,
            } => format!("deferred({max_staleness_rounds})"),
            RefreshPolicy::OnRead => "on_read".to_string(),
        }
    }

    fn validate(self) -> Result<()> {
        if let RefreshPolicy::Deferred {
            max_staleness_rounds: 0,
        } = self
        {
            return Err(Error::Config(
                "Deferred requires max_staleness_rounds >= 1 (1 behaves like Eager)".into(),
            ));
        }
        Ok(())
    }
}

/// Cumulative per-view maintenance accounting, attributed by the
/// scheduler on its serial drive loop (snapshot deltas — bit-identical
/// for any `ParallelConfig` thread count).
#[derive(Debug, Clone, Default)]
pub struct ViewStats {
    /// Maintenance rounds run (supervised attempts count as one).
    pub rounds: u64,
    /// Counted accesses attributed to this view's maintenance.
    pub accesses: StatsSnapshot,
    /// View-level diff tuples applied across all rounds.
    pub view_diff_tuples: u64,
    /// Rounds that had to be routed through the supervisor.
    pub supervised_rounds: u64,
    /// Net changes quarantined by supervised rounds, cumulative.
    pub quarantined_changes: u64,
    /// Verdict of the most recent supervised round, if any.
    pub last_verdict: Option<SupervisorVerdict>,
    /// Report of the most recent clean round (carries the round trace
    /// when the engine's trace knob is on).
    pub last_report: Option<MaintenanceReport>,
    /// Report of the most recent supervised round, if any.
    pub last_supervisor: Option<SupervisorReport>,
    /// [`MaintenanceScheduler::read_view`] calls that returned rows.
    pub reads: u64,
    /// Reads served from the view's sorted snapshot.
    pub snapshot_hits: u64,
    /// Reads that had to clone and sort the whole table: the first one,
    /// and every one after something the snapshot could not follow (a
    /// recompute, an aborted round's rollback, a write that went around
    /// the engine, more pending Δ than the view has rows). A rebuild on
    /// every read means something outside the engine keeps writing the
    /// view.
    pub snapshot_rebuilds: u64,
    /// Row images (pre and post) of earlier rounds merged into the
    /// snapshot by reads.
    pub rows_merged: u64,
}

/// A promotion-state transition applied at the end of a tick (or by a
/// forced API call).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromotionEvent {
    /// `"promote"` or `"demote"`.
    pub action: &'static str,
    /// The hidden backing table created (or dropped).
    pub backing: String,
    /// Human-readable prefix label (e.g. `join[mentions,microblog]`).
    pub label: String,
    /// Consumer views rewired by the transition, sorted.
    pub consumers: Vec<String>,
}

/// One maintain-vs-recompute comparison evaluated by the cost model at
/// the end of a tick — the predicted-vs-observed record behind each
/// promotion verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostEntry {
    /// Prefix label.
    pub label: String,
    /// Whether the prefix was promoted (backed) when observed.
    pub promoted: bool,
    /// Consumer views the prefix serves.
    pub consumers: u64,
    /// Observed compute accesses for the prefix this round (`C`).
    pub observed_compute: u64,
    /// Observed diff tuples produced this round (`D`).
    pub observed_diff_tuples: u64,
    /// Predicted per-round cost of maintaining a backing, in
    /// milli-accesses.
    pub predicted_maintain_milli: u128,
    /// Predicted per-round cost of recomputing the prefix in every
    /// consumer, in milli-accesses.
    pub predicted_recompute_milli: u128,
    /// The model's verdict after hysteresis.
    pub decision: PromotionDecision,
}

/// What one [`MaintenanceScheduler::tick`] (or drain/read barrier)
/// did.
#[derive(Debug, Clone, Default)]
pub struct RoundSummary {
    /// Scheduler round number (1-based; barriers reuse the current
    /// number without advancing it).
    pub round: u64,
    /// Views maintained this round, in name order, with the accesses
    /// attributed to each.
    pub maintained: Vec<(String, StatsSnapshot)>,
    /// Promoted intermediates maintained this round (before any
    /// consumer), in backing-name order, with attributed accesses.
    pub intermediates: Vec<(String, StatsSnapshot)>,
    /// Views left stale this round (non-empty pending, not due), with
    /// their staleness in ticks.
    pub deferred: Vec<(String, u32)>,
    /// Per-prefix sharing outcomes for the round's shared cache:
    /// compute cost, published diff tuples, reuse hits.
    pub prefix_stats: Vec<SharedPrefixStat>,
    /// Reuse hits across all shared prefixes this round.
    pub shared_hits: u64,
    /// Counted accesses the reuses avoided.
    pub shared_saved_accesses: u64,
    /// Views whose round went through the supervisor, with verdicts
    /// (includes promoted intermediates, under their backing names).
    pub verdicts: Vec<(String, SupervisorVerdict)>,
    /// Promotion/demotion transitions applied at the end of this tick.
    pub promotions: Vec<PromotionEvent>,
    /// Cost-model comparisons evaluated at the end of this tick, in
    /// label order.
    pub cost: Vec<CostEntry>,
    /// Ingest pseudo-phase for streamed rounds
    /// ([`MaintenanceScheduler::tick_ingest`]); `None` for rounds fed
    /// by direct DML.
    pub ingest: Option<IngestTrace>,
}

impl RoundSummary {
    /// Total counted accesses across the round's maintained views and
    /// intermediates.
    pub fn total_accesses(&self) -> u64 {
        self.maintained
            .iter()
            .chain(self.intermediates.iter())
            .map(|(_, s)| s.total())
            .sum()
    }
}

struct ViewState {
    policy: RefreshPolicy,
    pending: HashMap<String, TableChanges>,
    staleness: u32,
    stats: ViewStats,
}

/// Scheduler-level knobs.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Compute shared operator-tree prefixes once per round and fan the
    /// i-diffs out to every dependent due view (on by default; off
    /// gives the independent-maintenance baseline the benches compare
    /// against).
    pub share_prefixes: bool,
    /// Supervisor configuration for failure routing.
    pub supervisor: SupervisorConfig,
    /// Adaptive intermediate materialization: when `Some`, the
    /// scheduler feeds per-prefix observations from each tick into a
    /// [`CrossoverModel`] per prefix structure and promotes/demotes
    /// backings at tick boundaries. Requires `share_prefixes` (the
    /// shared cache's per-prefix stats are the observation source for
    /// unpromoted prefixes). `None` (the default) disables automatic
    /// decisions; already-promoted intermediates are still maintained.
    pub promotion: Option<PromotionConfig>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            share_prefixes: true,
            supervisor: SupervisorConfig::default(),
            promotion: None,
        }
    }
}

/// Drives a [`ViewCatalog`] under per-view refresh policies. See the
/// module docs for the tick protocol.
pub struct MaintenanceScheduler {
    catalog: ViewCatalog,
    states: BTreeMap<String, ViewState>,
    config: SchedulerConfig,
    round: u64,
    /// Pending base-table nets per promoted backing (keyed by backing
    /// table name). Intermediates are effectively eager: drained at the
    /// start of every tick/barrier, before any consumer runs.
    intermediate_pending: BTreeMap<String, HashMap<String, TableChanges>>,
    /// Cumulative maintenance accounting per promoted backing.
    intermediate_stats: BTreeMap<String, ViewStats>,
    /// Hysteresis trackers keyed by prefix *structure* — they survive
    /// promote/demote transitions so re-promotion uses the same state
    /// machine.
    trackers: BTreeMap<String, CrossoverModel>,
    /// Provenance note stamped onto supervised-round reports after a
    /// crash recovery (set by the durability layer; `None` in ordinary
    /// sessions).
    recovery_note: Option<String>,
}

/// A supervised round consumed its pending net: every verdict but
/// `Degraded` (nothing committed) and `Idle` (nothing to do).
fn converged(verdict: SupervisorVerdict) -> bool {
    verdict.healthy() && verdict != SupervisorVerdict::Idle
}

/// What one intermediate-sync pass (start of tick/barrier) did.
#[derive(Default)]
struct IntermediateRound {
    /// Backings maintained, in name order, with attributed accesses.
    maintained: Vec<(String, StatsSnapshot)>,
    /// Supervised backings with their verdicts.
    verdicts: Vec<(String, SupervisorVerdict)>,
    /// Net backing-delta tuples produced per backing (`D` for the cost
    /// model).
    deltas: BTreeMap<String, u64>,
    /// Backings whose supervised round did not converge — their
    /// consumers are deferred this tick.
    failed: BTreeSet<String>,
}

impl MaintenanceScheduler {
    /// Wrap a database under `config` with no views registered yet.
    pub fn new(db: Database, config: SchedulerConfig) -> Self {
        MaintenanceScheduler {
            catalog: ViewCatalog::new(db),
            states: BTreeMap::new(),
            config,
            round: 0,
            intermediate_pending: BTreeMap::new(),
            intermediate_stats: BTreeMap::new(),
            trackers: BTreeMap::new(),
            recovery_note: None,
        }
    }

    /// Register and materialize a view under a refresh policy.
    ///
    /// # Errors
    /// Invalid policy or any [`ViewCatalog::register`] failure.
    pub fn register(
        &mut self,
        name: &str,
        plan: idivm_algebra::Plan,
        policy: RefreshPolicy,
        options: IvmOptions,
    ) -> Result<()> {
        policy.validate()?;
        self.catalog.register(name, plan, options)?;
        self.states.insert(
            name.to_string(),
            ViewState {
                policy,
                pending: HashMap::new(),
                staleness: 0,
                stats: ViewStats::default(),
            },
        );
        Ok(())
    }

    /// Drop a view, discarding its pending changes.
    ///
    /// # Errors
    /// Unknown view name.
    pub fn unregister(&mut self, name: &str) -> Result<()> {
        self.catalog.unregister(name)?;
        self.states.remove(name);
        Ok(())
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &ViewCatalog {
        &self.catalog
    }

    /// Mutable catalog access (engine knob configuration).
    pub fn catalog_mut(&mut self) -> &mut ViewCatalog {
        &mut self.catalog
    }

    /// Mutable database access — base-table modifications enter here
    /// and accumulate in the modification log until the next tick or
    /// barrier.
    pub fn db_mut(&mut self) -> &mut Database {
        self.catalog.db_mut()
    }

    /// The shared database.
    pub fn db(&self) -> &Database {
        self.catalog.db()
    }

    /// A view's refresh policy.
    ///
    /// # Errors
    /// Unknown view name.
    pub fn policy(&self, name: &str) -> Result<RefreshPolicy> {
        Ok(self.state(name)?.policy)
    }

    /// Change a view's refresh policy (takes effect next tick; pending
    /// changes are preserved).
    ///
    /// # Errors
    /// Unknown view name or invalid policy.
    pub fn set_policy(&mut self, name: &str, policy: RefreshPolicy) -> Result<()> {
        policy.validate()?;
        self.state_mut(name)?.policy = policy;
        Ok(())
    }

    /// Set every registered engine's partitioned-propagation
    /// configuration (results and counted accesses stay bit-identical
    /// for any thread count).
    ///
    /// # Errors
    /// Invalid thread count.
    pub fn set_parallel_all(&mut self, parallel: ParallelConfig) -> Result<()> {
        use idivm_core::EngineConfig;
        let names: Vec<String> = self.states.keys().cloned().collect();
        for name in names {
            self.catalog.view_mut(&name)?.engine_mut().set_parallel(parallel)?;
        }
        let backings: Vec<String> = self
            .catalog
            .intermediate_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        for backing in backings {
            self.catalog
                .intermediate_mut(&backing)?
                .engine_mut()
                .set_parallel(parallel)?;
        }
        Ok(())
    }

    /// A view's cumulative maintenance statistics.
    ///
    /// # Errors
    /// Unknown view name.
    pub fn stats(&self, name: &str) -> Result<&ViewStats> {
        Ok(&self.state(name)?.stats)
    }

    /// Ticks a view's pending net has been non-empty (0 = up to date).
    ///
    /// # Errors
    /// Unknown view name.
    pub fn staleness(&self, name: &str) -> Result<u32> {
        Ok(self.state(name)?.staleness)
    }

    /// The view's composed pending net (empty when up to date).
    ///
    /// # Errors
    /// Unknown view name.
    pub fn pending(&self, name: &str) -> Result<&HashMap<String, TableChanges>> {
        Ok(&self.state(name)?.pending)
    }

    /// Completed scheduler rounds.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    fn state(&self, name: &str) -> Result<&ViewState> {
        self.states
            .get(name)
            .ok_or_else(|| Error::Config(format!("view `{name}` is not registered")))
    }

    fn state_mut(&mut self, name: &str) -> Result<&mut ViewState> {
        self.states
            .get_mut(name)
            .ok_or_else(|| Error::Config(format!("view `{name}` is not registered")))
    }

    /// Fold the database log once, clear it, and compose the per-view
    /// slices onto every dependent view's pending net. Advances
    /// staleness for every view left with a non-empty pending.
    fn distribute(&mut self) -> Result<()> {
        let net = self.catalog.db().fold_log();
        if !net.is_empty() {
            self.catalog.db_mut().clear_log();
            for name in self.states.keys().cloned().collect::<Vec<_>>() {
                let slice = self.catalog.restrict_net(&name, &net)?;
                if !slice.is_empty() {
                    let state = self.state_mut(&name)?;
                    compose_changes(&mut state.pending, slice);
                }
            }
            let backings: Vec<String> = self
                .catalog
                .intermediate_names()
                .iter()
                .map(|s| s.to_string())
                .collect();
            for backing in backings {
                let tables = self.catalog.intermediate(&backing)?.tables().to_vec();
                let slice: HashMap<String, TableChanges> = net
                    .iter()
                    .filter(|(t, _)| tables.contains(t))
                    .map(|(t, c)| (t.clone(), c.clone()))
                    .collect();
                if !slice.is_empty() {
                    let pending = self.intermediate_pending.entry(backing).or_default();
                    compose_changes(pending, slice);
                }
            }
        }
        Ok(())
    }

    /// Maintain every promoted intermediate with a non-empty pending
    /// net, in backing-name order, before any consumer view runs this
    /// round. Each backing's net delta is composed (under the backing
    /// table's name) into every consumer's pending net, so consumers
    /// pick it up at O(Δ) through their rewritten `Scan`. Failures are
    /// routed through the supervisor; a backing that does not converge
    /// keeps its pending net and its consumers are deferred this tick.
    fn sync_intermediates(&mut self, cache: &mut SharedDiffCache) -> Result<IntermediateRound> {
        let mut round = IntermediateRound::default();
        let backings: Vec<String> = self
            .catalog
            .intermediate_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        for backing in backings {
            // The round runs on the pending net itself; it goes back
            // only if the backing did not converge.
            let net = match self.intermediate_pending.get_mut(&backing) {
                Some(net) if !net.is_empty() => std::mem::take(net),
                _ => continue,
            };
            let before = self.catalog.db().stats().snapshot();
            let result = if self.config.share_prefixes {
                self.catalog.maintain_intermediate_shared(&backing, &net, cache)
            } else {
                self.catalog.maintain_intermediate(&backing, &net)
            };
            let (delta, verdict) = match result {
                Ok((report, delta)) => {
                    let stats = self.intermediate_stats.entry(backing.clone()).or_default();
                    stats.view_diff_tuples += report.view_diff_tuples as u64;
                    stats.last_report = Some(report);
                    (delta, None)
                }
                Err(_) => {
                    // The failed round has been rolled back; the
                    // supervisor owns retries, quarantine, and the
                    // recompute ladder. Its delta is an exact snapshot
                    // diff of the backing (empty if it degraded —
                    // everything rolled back).
                    let supervised = self.catalog.maintain_intermediate_supervised(
                        &backing,
                        &net,
                        self.config.supervisor,
                    );
                    if !supervised.as_ref().is_ok_and(|(r, _)| converged(r.verdict)) {
                        self.intermediate_pending.insert(backing.clone(), net);
                    }
                    let (mut report, delta) = supervised?;
                    report.recovered_from = self.recovery_note.clone();
                    let verdict = report.verdict;
                    let stats = self.intermediate_stats.entry(backing.clone()).or_default();
                    stats.supervised_rounds += 1;
                    stats.quarantined_changes += report.quarantine.len() as u64;
                    stats.last_verdict = Some(verdict);
                    stats.last_supervisor = Some(report);
                    (Arc::new(delta), Some(verdict))
                }
            };
            let spent = self.catalog.db().stats().snapshot().since(&before);
            let stats = self.intermediate_stats.entry(backing.clone()).or_default();
            stats.rounds += 1;
            stats.accesses = stats.accesses.merge(spent);
            if let Some(v) = verdict {
                round.verdicts.push((backing.clone(), v));
                if !converged(v) {
                    round.failed.insert(backing.clone());
                }
            }
            let delta_tuples = delta.len() as u64;
            if !delta.is_empty() {
                let consumers: Vec<String> = self
                    .catalog
                    .intermediate(&backing)?
                    .consumers()
                    .iter()
                    .cloned()
                    .collect();
                for consumer in consumers {
                    if let Some(state) = self.states.get_mut(&consumer) {
                        let mut slice = HashMap::new();
                        slice.insert(backing.clone(), TableChanges::clone(&delta));
                        compose_changes(&mut state.pending, slice);
                    }
                }
            }
            round.deltas.insert(backing.clone(), delta_tuples);
            round.maintained.push((backing, spent));
        }
        Ok(round)
    }

    /// One scheduler round: distribute freshly logged changes, then
    /// maintain every due view against one fresh shared-prefix cache.
    /// Never fails on maintenance errors — those are routed through the
    /// per-view supervisor and surface as verdicts in the summary.
    ///
    /// # Errors
    /// Catalog inconsistencies only (unknown view — a bug).
    pub fn tick(&mut self) -> Result<RoundSummary> {
        self.round += 1;
        self.distribute()?;
        // Promoted intermediates drain first (they are upstream of
        // every consumer in the maintenance DAG); their net deltas land
        // in consumer pendings before staleness advances, so an eager
        // consumer sees backing changes the same tick they happen.
        let mut cache = SharedDiffCache::new();
        let inter = self.sync_intermediates(&mut cache)?;
        // Staleness advances on ticks (barriers reuse it as-is).
        for state in self.states.values_mut() {
            if !state.pending.is_empty() {
                state.staleness += 1;
            }
        }
        let skip = self.consumers_of(&inter.failed)?;
        let due: Vec<String> = self
            .states
            .iter()
            .filter(|(n, _)| !skip.contains(*n))
            .filter(|(_, s)| match s.policy {
                RefreshPolicy::Eager => !s.pending.is_empty(),
                RefreshPolicy::Deferred {
                    max_staleness_rounds,
                } => !s.pending.is_empty() && s.staleness >= max_staleness_rounds,
                RefreshPolicy::OnRead => false,
            })
            .map(|(n, _)| n.clone())
            .collect();
        let mut summary = self.maintain_views(&due, &mut cache)?;
        summary.intermediates = inter.maintained.clone();
        let mut verdicts = inter.verdicts.clone();
        verdicts.append(&mut summary.verdicts);
        summary.verdicts = verdicts;
        if self.config.promotion.is_some() {
            self.apply_promotion_decisions(&inter, &mut summary)?;
        }
        Ok(summary)
    }

    /// A [`MaintenanceScheduler::tick`] driven by the streaming ingest
    /// pipeline: identical scheduling, plus the ingest pseudo-phase is
    /// stamped onto the summary and onto the round trace of every view
    /// maintained this round — streamed rounds stay attributable in
    /// the same JSON as hand-folded ones.
    ///
    /// # Errors
    /// Same as [`MaintenanceScheduler::tick`].
    pub fn tick_ingest(&mut self, ingest: IngestTrace) -> Result<RoundSummary> {
        let mut summary = self.tick()?;
        for (name, _) in &summary.maintained {
            if let Some(state) = self.states.get_mut(name) {
                if let Some(trace) = state
                    .stats
                    .last_report
                    .as_mut()
                    .and_then(|r| r.trace.as_mut())
                {
                    trace.ingest = Some(ingest.clone());
                }
            }
        }
        summary.ingest = Some(ingest);
        Ok(summary)
    }

    /// Views consuming any backing in `failed`.
    fn consumers_of(&self, failed: &BTreeSet<String>) -> Result<BTreeSet<String>> {
        let mut out = BTreeSet::new();
        for backing in failed {
            out.extend(self.catalog.intermediate(backing)?.consumers().iter().cloned());
        }
        Ok(out)
    }

    /// Read barrier: bring `name` fully up to date (distributing any
    /// freshly logged changes first), then return its sorted rows.
    /// This is how `OnRead` views are served; it is equally valid for
    /// any policy.
    ///
    /// # Errors
    /// Unknown view name, or a degraded view (its supervisor could not
    /// converge — pending changes are preserved for the next attempt).
    pub fn read_view(&mut self, name: &str) -> Result<Vec<Row>> {
        self.state(name)?;
        self.distribute()?;
        let mut cache = SharedDiffCache::new();
        let inter = self.sync_intermediates(&mut cache)?;
        if self.consumers_of(&inter.failed)?.contains(name) {
            return Err(Error::Config(format!(
                "view `{name}` consumes a degraded intermediate — pending changes preserved"
            )));
        }
        if !self.state(name)?.pending.is_empty() {
            let summary = self.maintain_views(&[name.to_string()], &mut cache)?;
            if let Some((_, verdict)) = summary
                .verdicts
                .iter()
                .find(|(n, v)| n == name && !v.healthy())
            {
                return Err(Error::Config(format!(
                    "view `{name}` is degraded ({}) — pending changes preserved",
                    verdict.label()
                )));
            }
        }
        let (rows, cost) = self.catalog.read(name)?;
        let stats = &mut self.state_mut(name)?.stats;
        stats.reads += 1;
        if cost.rebuilt {
            stats.snapshot_rebuilds += 1;
        } else {
            stats.snapshot_hits += 1;
        }
        stats.rows_merged += cost.merged as u64;
        Ok(rows)
    }

    /// Drain barrier: bring *every* view fully up to date (one shared
    /// cache across all of them), regardless of policy.
    ///
    /// # Errors
    /// Catalog inconsistencies only; per-view failures surface as
    /// verdicts in the summary.
    pub fn drain(&mut self) -> Result<RoundSummary> {
        self.distribute()?;
        let mut cache = SharedDiffCache::new();
        let inter = self.sync_intermediates(&mut cache)?;
        let skip = self.consumers_of(&inter.failed)?;
        let due: Vec<String> = self
            .states
            .iter()
            .filter(|(n, s)| !s.pending.is_empty() && !skip.contains(*n))
            .map(|(n, _)| n.clone())
            .collect();
        let mut summary = self.maintain_views(&due, &mut cache)?;
        summary.intermediates = inter.maintained.clone();
        let mut verdicts = inter.verdicts;
        verdicts.append(&mut summary.verdicts);
        summary.verdicts = verdicts;
        Ok(summary)
    }

    /// Maintain `due` views (name order) against one fresh shared
    /// cache, attributing accesses per view and routing failures
    /// through the per-view supervisor.
    fn maintain_views(&mut self, due: &[String], cache: &mut SharedDiffCache) -> Result<RoundSummary> {
        let mut summary = RoundSummary {
            round: self.round,
            ..RoundSummary::default()
        };
        let mut due = due.to_vec();
        due.sort();
        for name in &due {
            // The round runs on the pending net itself; it goes back
            // only if the view did not converge.
            let net = std::mem::take(&mut self.state_mut(name)?.pending);
            if net.is_empty() {
                continue;
            }
            let before = self.catalog.db().stats().snapshot();
            let result = if self.config.share_prefixes {
                self.catalog.maintain_shared(name, &net, cache)
            } else {
                self.catalog.maintain_independent(name, &net)
            };
            match result {
                Ok(report) => {
                    let spent = self.catalog.db().stats().snapshot().since(&before);
                    let state = self.state_mut(name)?;
                    state.staleness = 0;
                    state.stats.rounds += 1;
                    state.stats.accesses = state.stats.accesses.merge(spent);
                    state.stats.view_diff_tuples += report.view_diff_tuples as u64;
                    state.stats.last_report = Some(report);
                    summary.maintained.push((name.clone(), spent));
                }
                Err(_) => {
                    // The failed round has been rolled back; escalate
                    // to the per-view supervisor, which owns retries,
                    // bisection/quarantine, and the recompute ladder.
                    let supervised =
                        self.catalog
                            .maintain_supervised(name, &net, self.config.supervisor);
                    let spent = self.catalog.db().stats().snapshot().since(&before);
                    let recovered_from = self.recovery_note.clone();
                    let state = self.state_mut(name)?;
                    if supervised.as_ref().is_ok_and(|r| converged(r.verdict)) {
                        state.staleness = 0;
                    } else {
                        state.pending = net;
                    }
                    let mut report = supervised?;
                    report.recovered_from = recovered_from;
                    let verdict = report.verdict;
                    state.stats.rounds += 1;
                    state.stats.supervised_rounds += 1;
                    state.stats.accesses = state.stats.accesses.merge(spent);
                    state.stats.quarantined_changes += report.quarantine.len() as u64;
                    state.stats.last_verdict = Some(verdict);
                    state.stats.last_supervisor = Some(report);
                    summary.maintained.push((name.clone(), spent));
                    summary.verdicts.push((name.clone(), verdict));
                }
            }
        }
        for (name, state) in &self.states {
            if !state.pending.is_empty() && !due.contains(name) {
                summary.deferred.push((name.clone(), state.staleness));
            }
        }
        summary.shared_hits = cache.total_hits();
        summary.shared_saved_accesses = cache.total_saved_accesses();
        summary.prefix_stats = cache.stats();
        Ok(summary)
    }

    /// Feed this tick's per-prefix observations into the crossover
    /// trackers and apply any transitions they fire. Deterministic:
    /// candidates and intermediates are visited in sorted order, and
    /// every input (accesses, diff tuples, consumer counts) is itself
    /// deterministic, so the decision sequence is byte-identical across
    /// runs and thread counts.
    fn apply_promotion_decisions(
        &mut self,
        inter: &IntermediateRound,
        summary: &mut RoundSummary,
    ) -> Result<()> {
        let Some(cfg) = self.config.promotion else {
            return Ok(());
        };
        // Unpromoted candidate prefixes are observed through the
        // round's shared cache: one stat per pending horizon may exist
        // for a structure, so compute sums and the diff width is the
        // widest horizon's.
        let candidates = self.catalog.promotion_candidates();
        let mut observed: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for stat in &summary.prefix_stats {
            if candidates.iter().any(|c| c.structure == stat.structure) {
                let entry = observed.entry(stat.structure.clone()).or_insert((0, 0));
                entry.0 += stat.compute_accesses.total();
                entry.1 = entry.1.max(stat.diff_tuples as u64);
            }
        }
        let mut to_promote: Vec<PromotionCandidate> = Vec::new();
        for (structure, (compute, diff_tuples)) in &observed {
            let Some(candidate) = candidates.iter().find(|c| &c.structure == structure) else {
                continue;
            };
            let obs = PrefixObservation {
                compute_accesses: *compute,
                diff_tuples: *diff_tuples,
                consumers: candidate.consumers.len() as u64,
            };
            let tracker = self.trackers.entry(structure.clone()).or_default();
            let decision = tracker.observe(&cfg, false, &obs);
            summary.cost.push(CostEntry {
                label: candidate.label.clone(),
                promoted: false,
                consumers: obs.consumers,
                observed_compute: obs.compute_accesses,
                observed_diff_tuples: obs.diff_tuples,
                predicted_maintain_milli: cfg.maintain_milli(&obs),
                predicted_recompute_milli: cfg.recompute_milli(&obs),
                decision,
            });
            if decision == PromotionDecision::Promote {
                to_promote.push(candidate.clone());
            }
        }
        // Promoted prefixes are observed through their own maintenance
        // round this tick (failed rounds are not observations).
        let mut to_demote: Vec<String> = Vec::new();
        for (backing, spent) in &inter.maintained {
            if inter.failed.contains(backing) {
                continue;
            }
            let iv = self.catalog.intermediate(backing)?;
            let obs = PrefixObservation {
                compute_accesses: spent.total(),
                diff_tuples: inter.deltas.get(backing).copied().unwrap_or(0),
                consumers: iv.consumers().len() as u64,
            };
            let structure = iv.structure().to_string();
            let label = iv.label().to_string();
            let tracker = self.trackers.entry(structure).or_default();
            let decision = tracker.observe(&cfg, true, &obs);
            summary.cost.push(CostEntry {
                label,
                promoted: true,
                consumers: obs.consumers,
                observed_compute: obs.compute_accesses,
                observed_diff_tuples: obs.diff_tuples,
                predicted_maintain_milli: cfg.maintain_milli(&obs),
                predicted_recompute_milli: cfg.recompute_milli(&obs),
                decision,
            });
            if decision == PromotionDecision::Demote {
                to_demote.push(backing.clone());
            }
        }
        // Collapse rule: an intermediate whose consumer set shrank
        // below the floor (views unregistered) no longer pays for
        // itself even if it had no round to observe this tick.
        let idle: Vec<String> = self
            .catalog
            .intermediate_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        for backing in idle {
            if to_demote.contains(&backing) || inter.failed.contains(&backing) {
                continue;
            }
            let consumers = self.catalog.intermediate(&backing)?.consumers().len() as u64;
            if consumers < cfg.min_consumers {
                to_demote.push(backing);
            }
        }
        to_demote.sort();
        to_demote.dedup();
        for candidate in to_promote {
            if let Some(event) = self.promote_candidate(&candidate)? {
                summary.promotions.push(event);
            }
        }
        for backing in to_demote {
            if let Some(event) = self.demote_backing(&backing)? {
                summary.promotions.push(event);
            }
        }
        Ok(())
    }

    /// Bring `names` fully up to date ahead of catalog surgery.
    /// Returns `false` (surgery must be skipped) if any of them could
    /// not converge — their pendings are preserved.
    fn drain_views(&mut self, names: &BTreeSet<String>) -> Result<bool> {
        let due: Vec<String> = names
            .iter()
            .filter(|n| {
                self.states
                    .get(n.as_str())
                    .is_some_and(|s| !s.pending.is_empty())
            })
            .cloned()
            .collect();
        if !due.is_empty() {
            let mut cache = SharedDiffCache::new();
            self.maintain_views(&due, &mut cache)?;
        }
        Ok(names.iter().all(|n| {
            self.states
                .get(n.as_str())
                .is_none_or(|s| s.pending.is_empty())
        }))
    }

    /// Promote `candidate` to a materialized intermediate: drain its
    /// consumers (the backing is populated from current base state, so
    /// an undrained consumer would double-apply its pending), create
    /// and populate the hidden backing table, rewire every consumer's
    /// plan to scan it, and start scheduling its maintenance. Returns
    /// `None` if a consumer could not be drained (promotion is retried
    /// on a later tick — the tracker keeps firing).
    fn promote_candidate(&mut self, candidate: &PromotionCandidate) -> Result<Option<PromotionEvent>> {
        let consumers: BTreeSet<String> = candidate.consumers.iter().cloned().collect();
        if !self.drain_views(&consumers)? {
            return Ok(None);
        }
        let backing = self.catalog.promote(candidate)?;
        self.intermediate_pending
            .insert(backing.clone(), HashMap::new());
        self.intermediate_stats.entry(backing.clone()).or_default();
        let consumers: Vec<String> = self
            .catalog
            .intermediate(&backing)?
            .consumers()
            .iter()
            .cloned()
            .collect();
        Ok(Some(PromotionEvent {
            action: "promote",
            backing,
            label: candidate.label.clone(),
            consumers,
        }))
    }

    /// Demote the intermediate behind `backing`: drain its consumers
    /// and require the backing itself to be clean (a pending backing
    /// delta not yet delivered to consumers would be lost by the
    /// rewire), restore the inline subtree in every consumer plan, and
    /// drop the backing. Returns `None` if the preconditions do not
    /// hold this tick.
    fn demote_backing(&mut self, backing: &str) -> Result<Option<PromotionEvent>> {
        let iv = self.catalog.intermediate(backing)?;
        let label = iv.label().to_string();
        let consumers: BTreeSet<String> = iv.consumers().iter().cloned().collect();
        if self
            .intermediate_pending
            .get(backing)
            .is_some_and(|p| !p.is_empty())
        {
            return Ok(None);
        }
        if !self.drain_views(&consumers)? {
            return Ok(None);
        }
        self.catalog.demote(backing)?;
        self.intermediate_pending.remove(backing);
        self.intermediate_stats.remove(backing);
        Ok(Some(PromotionEvent {
            action: "demote",
            backing: backing.to_string(),
            label,
            consumers: consumers.into_iter().collect(),
        }))
    }

    /// Promote a candidate by prefix label right now, outside the
    /// cost-model loop (tests, tooling). Fails if no such candidate
    /// exists or its consumers cannot be drained.
    ///
    /// # Errors
    /// Unknown label, undrainable consumers, or any
    /// [`ViewCatalog::promote`] failure.
    pub fn force_promote(&mut self, label: &str) -> Result<String> {
        // Quiescence: fold any freshly logged changes and deliver
        // pending intermediate deltas before the surgery barrier.
        self.distribute()?;
        self.sync_intermediates(&mut SharedDiffCache::new())?;
        let candidate = self
            .catalog
            .promotion_candidates()
            .into_iter()
            .find(|c| c.label == label)
            .ok_or_else(|| {
                Error::Config(format!("no promotable prefix labelled `{label}`"))
            })?;
        match self.promote_candidate(&candidate)? {
            Some(event) => Ok(event.backing),
            None => Err(Error::Config(format!(
                "cannot promote `{label}`: a consumer view would not converge"
            ))),
        }
    }

    /// Demote a promoted intermediate right now, outside the
    /// cost-model loop (tests, tooling).
    ///
    /// # Errors
    /// Unknown backing, a dirty backing or consumer, or any
    /// [`ViewCatalog::demote`] failure.
    pub fn force_demote(&mut self, backing: &str) -> Result<()> {
        // Deliver any pending backing delta to consumers first.
        self.distribute()?;
        self.sync_intermediates(&mut SharedDiffCache::new())?;
        match self.demote_backing(backing)? {
            Some(_) => Ok(()),
            None => Err(Error::Config(format!(
                "cannot demote `{backing}`: backing or a consumer would not converge"
            ))),
        }
    }

    /// Cumulative maintenance statistics of a promoted intermediate.
    ///
    /// # Errors
    /// Unknown backing name.
    pub fn intermediate_stats(&self, backing: &str) -> Result<&ViewStats> {
        self.intermediate_stats.get(backing).ok_or_else(|| {
            Error::Config(format!("intermediate `{backing}` is not registered"))
        })
    }

    /// Backing-table names of the currently promoted intermediates,
    /// sorted.
    pub fn intermediates(&self) -> Vec<String> {
        self.catalog
            .intermediate_names()
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    // ------------------------------------------------------------------
    // Crash-recovery surface (used by `idivm_durability`)
    // ------------------------------------------------------------------

    /// Recovery-path [`MaintenanceScheduler::register`]: the view's
    /// table and caches already hold its materialized state (restored
    /// from a checkpoint), so the catalog reattaches the engine with
    /// [`ViewCatalog::reattach`] instead of re-materializing. The
    /// view's runtime state (pending net, staleness) starts empty —
    /// restore it with [`MaintenanceScheduler::restore_view_runtime`].
    ///
    /// # Errors
    /// Invalid policy or any [`ViewCatalog::reattach`] failure.
    pub fn reattach(
        &mut self,
        name: &str,
        plan: idivm_algebra::Plan,
        policy: RefreshPolicy,
        options: IvmOptions,
    ) -> Result<()> {
        policy.validate()?;
        self.catalog.reattach(name, plan, options)?;
        self.states.insert(
            name.to_string(),
            ViewState {
                policy,
                pending: HashMap::new(),
                staleness: 0,
                stats: ViewStats::default(),
            },
        );
        Ok(())
    }

    /// Recovery-path re-registration of a promoted intermediate over
    /// its restored backing table. Call before reattaching any of its
    /// consumer views (see [`ViewCatalog::reattach_intermediate`]).
    ///
    /// # Errors
    /// Any [`ViewCatalog::reattach_intermediate`] failure.
    pub fn reattach_intermediate(
        &mut self,
        backing: &str,
        subtree: idivm_algebra::Plan,
        structure: String,
        label: String,
        consumers: BTreeSet<String>,
        options: IvmOptions,
    ) -> Result<()> {
        self.catalog
            .reattach_intermediate(backing, subtree, structure, label, consumers, options)?;
        self.intermediate_pending
            .insert(backing.to_string(), HashMap::new());
        self.intermediate_stats
            .entry(backing.to_string())
            .or_default();
        Ok(())
    }

    /// Restore the scheduler round counter from a checkpoint.
    pub fn restore_round(&mut self, round: u64) {
        self.round = round;
    }

    /// Restore a view's checkpointed runtime state: its composed
    /// pending net and staleness counter.
    ///
    /// # Errors
    /// Unknown view name.
    pub fn restore_view_runtime(
        &mut self,
        name: &str,
        pending: HashMap<String, TableChanges>,
        staleness: u32,
    ) -> Result<()> {
        let state = self.state_mut(name)?;
        state.pending = pending;
        state.staleness = staleness;
        Ok(())
    }

    /// Restore a promoted intermediate's checkpointed pending net.
    ///
    /// # Errors
    /// Unknown backing name.
    pub fn restore_intermediate_pending(
        &mut self,
        backing: &str,
        pending: HashMap<String, TableChanges>,
    ) -> Result<()> {
        self.catalog.intermediate(backing)?;
        self.intermediate_pending.insert(backing.to_string(), pending);
        Ok(())
    }

    /// A promoted intermediate's composed pending net (empty when it is
    /// up to date). Cloned — this is a checkpoint-cadence read.
    ///
    /// # Errors
    /// Unknown backing name.
    pub fn intermediate_pending(&self, backing: &str) -> Result<HashMap<String, TableChanges>> {
        self.catalog.intermediate(backing)?;
        Ok(self
            .intermediate_pending
            .get(backing)
            .cloned()
            .unwrap_or_default())
    }

    /// Streak counters of every crossover tracker, sorted by prefix
    /// structure — the cost-model state a checkpoint must carry so a
    /// recovered scheduler replays the exact promote/demote sequence.
    pub fn tracker_streaks(&self) -> Vec<(String, u32, u32)> {
        self.trackers
            .iter()
            .map(|(s, m)| (s.clone(), m.promote_streak(), m.demote_streak()))
            .collect()
    }

    /// Restore one crossover tracker from checkpointed streak counters.
    pub fn restore_tracker(&mut self, structure: &str, promote_streak: u32, demote_streak: u32) {
        self.trackers.insert(
            structure.to_string(),
            CrossoverModel::with_streaks(promote_streak, demote_streak),
        );
    }

    /// Stamp (or clear) the recovery-provenance note copied onto every
    /// supervised-round report — e.g. `"checkpoint (lsn 12) + 3 wal
    /// records"` after a crash recovery.
    pub fn set_recovery_note(&mut self, note: Option<String>) {
        self.recovery_note = note;
    }

    /// The current recovery-provenance note, if any.
    pub fn recovery_note(&self) -> Option<&str> {
        self.recovery_note.as_deref()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use idivm_workloads::bsma::Bsma;
    use idivm_workloads::MultiView;

    /// hit → invalidate → rebuild → hit, as `ViewStats` tells it.
    #[test]
    fn read_counters_tell_hits_from_rebuilds() {
        let cfg = MultiView {
            bsma: Bsma {
                scale: 0.05,
                seed: 11,
            },
        };
        let view = "mention_timeline";
        let mut sched = MaintenanceScheduler::new(cfg.build().unwrap(), SchedulerConfig::default());
        let plan = cfg.plan(sched.db(), view).unwrap();
        sched
            .register(view, plan, RefreshPolicy::Eager, IvmOptions::default())
            .unwrap();
        let counters = |sched: &MaintenanceScheduler| {
            let s = sched.stats(view).unwrap();
            (s.reads, s.snapshot_hits, s.snapshot_rebuilds)
        };

        // First read: nothing to serve from yet.
        let first = sched.read_view(view).unwrap();
        assert_eq!(counters(&sched), (1, 0, 1));
        assert_eq!(sched.stats(view).unwrap().rows_merged, 0);

        // A clean round later: served by merging that round's images.
        cfg.tweet_batch(sched.db_mut(), 24, 1).unwrap();
        sched.tick().unwrap();
        let second = sched.read_view(view).unwrap();
        assert_ne!(second, first, "the round did not change the view");
        assert_eq!(counters(&sched), (2, 1, 1));
        let merged = sched.stats(view).unwrap().rows_merged;
        assert!(merged > 0, "a hit after a round merged nothing");

        // A write that went around the engine: the next read rebuilds.
        let table = sched.db_mut().table_mut(view).unwrap();
        let pk = table.pk_of(&second[0]);
        table.delete_located(&pk);
        assert_eq!(sched.read_view(view).unwrap(), second[1..]);
        assert_eq!(counters(&sched), (3, 1, 2));

        // And the rebuilt snapshot serves the read after it.
        sched.read_view(view).unwrap();
        assert_eq!(counters(&sched), (4, 2, 2));
        assert_eq!(sched.stats(view).unwrap().rows_merged, merged);
    }
}
