//! Per-view refresh policies and round scheduling over a
//! [`ViewCatalog`].
//!
//! A [`MaintenanceScheduler`] owns the catalog and, for each of its
//! nodes, a **pending net** (the composed effective changes the node
//! has not seen yet); for each view also a **refresh policy** and a
//! staleness counter. A promoted intermediate is a node like any other
//! that is always due. One [`MaintenanceScheduler::tick`] is the unit
//! of time:
//!
//! 1. Fold the database's modification log once and clear it — from
//!    here the scheduler owns the changes, as one shared immutable
//!    [`Net`] ([`MaintenanceScheduler::last_net`] is what a journal
//!    writes; nothing folds the log a second time).
//! 2. Hand every dependent node its slice: a handle on each table's
//!    changes, not a copy. A node that already holds changes for the
//!    table has the new ones composed onto them ([`compose_shared`]) —
//!    once per group of nodes holding the same allocation, so views on
//!    one horizon keep sharing one net and one digest. Pendings
//!    accumulated over several ticks are exactly what folding the
//!    concatenated log would have produced, so a deferred round is one
//!    bigger — not different — round.
//! 3. Maintain every intermediate with pending changes (backing-name
//!    order), composing each one's Δ into its consumers' pending nets,
//!    then every *due* view (policy decides; name order), all against
//!    one fresh [`SharedDiffCache`]: the first node to walk a
//!    designated shared prefix publishes its i-diffs, every later one
//!    with the same pending horizon reuses them at zero counted
//!    accesses.
//! 4. Route any maintenance failure through a per-node
//!    [`MaintenanceSupervisor`] (retry → bisect/quarantine → recompute
//!    → degrade). A failing or degraded view never blocks or corrupts
//!    its siblings: each round is atomic over that node's table and
//!    caches only, and its pending net stays queued for the next tick.
//!    Only the consumers of an intermediate that did not converge wait
//!    for it.
//!
//! [`MaintenanceScheduler::read_view`], [`MaintenanceScheduler::drain`]
//! and the forced promote/demote barriers are the same round with a
//! different answer to "which views are due".
//!
//! [`MaintenanceSupervisor`]: idivm_core::supervisor::MaintenanceSupervisor
//!
//! **Staleness semantics.** A view's staleness is the number of ticks
//! its pending net has been non-empty. `Eager` refreshes at staleness
//! 1 (every tick it has changes); `Deferred { max_staleness_rounds: k }`
//! lets staleness grow to `k` before refreshing, folding up to `k`
//! ticks of changes into one round; `OnRead` never refreshes on a tick
//! — [`MaintenanceScheduler::read_view`] is the barrier that drains
//! it. Once drained, a view's contents are bit-identical under any
//! policy: composition is exact and maintenance is deterministic.

use crate::catalog::{Backing, CatalogView, ViewCatalog};
use idivm_core::supervisor::{SupervisorConfig, SupervisorReport, SupervisorVerdict};
use idivm_core::{
    IngestTrace, IvmOptions, MaintenanceReport, PromotionCandidate, SharedDiffCache,
    SharedPrefixStat,
};
use idivm_cost::{CrossoverModel, PrefixObservation, PromotionConfig, PromotionDecision};
use idivm_exec::ParallelConfig;
use idivm_reldb::{compose_shared, Database, Net, SharedChanges, StatsSnapshot};
use idivm_types::{Error, Result, Row};
use std::collections::{BTreeMap, BTreeSet};

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

/// The scheduler's side of one catalog node, either role: a backing is
/// an always-eager node that no policy accessor reaches.
struct ViewState {
    policy: RefreshPolicy,
    pending: Net,
    staleness: u32,
    stats: ViewStats,
}

impl ViewState {
    fn new(policy: RefreshPolicy) -> Self {
        ViewState {
            policy,
            pending: Net::new(),
            staleness: 0,
            stats: ViewStats::default(),
        }
    }

    /// Whether a tick refreshes a view with this (non-empty) pending
    /// net now.
    fn due(&self) -> bool {
        match self.policy {
            RefreshPolicy::Eager => true,
            RefreshPolicy::Deferred {
                max_staleness_rounds,
            } => self.staleness >= max_staleness_rounds,
            RefreshPolicy::OnRead => false,
        }
    }
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
    /// One entry per catalog node — registered views and promoted
    /// backings alike — keyed by node name.
    states: BTreeMap<String, ViewState>,
    config: SchedulerConfig,
    round: u64,
    /// What the last round's `distribute` folded and handed out.
    last_net: Net,
    /// Hysteresis trackers keyed by prefix *structure* — they survive
    /// promote/demote transitions so re-promotion uses the same state
    /// machine.
    trackers: BTreeMap<String, CrossoverModel>,
    /// Provenance note stamped onto supervised-round reports after a
    /// crash recovery (set by the durability layer; `None` in ordinary
    /// sessions).
    recovered_from: Option<String>,
}

/// A supervised round consumed its pending net: every verdict but
/// `Degraded` (nothing committed) and `Idle` (nothing to do).
fn converged(verdict: SupervisorVerdict) -> bool {
    verdict.healthy() && verdict != SupervisorVerdict::Idle
}

/// Net Δ tuples each backing produced in a round, by backing name (`D`
/// for the cost model).
type BackingDeltas = BTreeMap<String, u64>;

impl MaintenanceScheduler {
    /// Wrap a database under `config` with no views registered yet.
    pub fn new(db: Database, config: SchedulerConfig) -> Self {
        MaintenanceScheduler {
            catalog: ViewCatalog::new(db),
            states: BTreeMap::new(),
            config,
            round: 0,
            last_net: Net::new(),
            trackers: BTreeMap::new(),
            recovered_from: None,
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
        self.states.insert(name.to_string(), ViewState::new(policy));
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
        self.catalog.view(name)?;
        self.node_state_mut(name)?.policy = policy;
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
        self.catalog
            .engines_mut()
            .try_for_each(|engine| engine.set_parallel(parallel))
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
    pub fn pending(&self, name: &str) -> Result<&Net> {
        Ok(&self.state(name)?.pending)
    }

    /// The net the last round (tick or barrier) folded from the
    /// modification log and distributed — empty if it found the log
    /// empty. Shared with the pending nets it went into: this is the
    /// round's redo image for a write-ahead log, without a second fold.
    pub fn last_net(&self) -> &Net {
        &self.last_net
    }

    /// Completed scheduler rounds.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// True when maintaining several rounds' changes in one round ends
    /// in the state the rounds one by one would: every node refreshes
    /// `Eager`ly, no cost model decides promotions at round ends, no
    /// engine has a fault plan or a round budget armed (each acts per
    /// round), and every engine's tables already carry all their Ī′
    /// indexes ([`IdIvm::has_every_id_index`](idivm_core::IdIvm::has_every_id_index):
    /// otherwise which of them exist afterwards depends on which
    /// rounds' diffs reached APPLY). Recovery folds a WAL tail into one
    /// round only then.
    pub fn rounds_fold(&self) -> bool {
        use idivm_core::EngineConfig;
        self.config.promotion.is_none()
            && self.states.values().all(|s| s.policy == RefreshPolicy::Eager)
            && self.catalog.engines().all(|e| {
                !e.faults().enabled() && !e.budget().enabled() && e.has_every_id_index(self.db())
            })
    }

    /// A *view's* state: both roles share the map, and a backing is not
    /// addressable as a view.
    fn state(&self, name: &str) -> Result<&ViewState> {
        self.catalog.view(name)?;
        self.node_state(name)
    }

    fn node_state(&self, name: &str) -> Result<&ViewState> {
        self.states
            .get(name)
            .ok_or_else(|| Error::Config(format!("view `{name}` is not registered")))
    }

    fn node_state_mut(&mut self, name: &str) -> Result<&mut ViewState> {
        self.states
            .get_mut(name)
            .ok_or_else(|| Error::Config(format!("view `{name}` is not registered")))
    }

    /// Fold the database log once, clear it, and hand each node the
    /// changes of the tables it scans ([`compose_shared`]). The log is
    /// cleared even when it folds to nothing (an insert and its delete
    /// in one window): left in place it would be folded again by every
    /// later round. A non-empty log also empties the catalog's
    /// registration memo: the tables have started changing.
    fn distribute(&mut self) -> Result<()> {
        // Let go of the previous net first: a deferred view still
        // holding it then has its next slice composed in place.
        self.last_net = Net::new();
        if self.catalog.db().log().is_empty() {
            return Ok(());
        }
        self.catalog.forget_subplans();
        let net = self.catalog.db().fold_log();
        self.catalog.db_mut().clear_log();
        for (table, changes) in &net {
            let mut scanning = Vec::new();
            for (name, state) in &mut self.states {
                if self.catalog.scans(name, table)? {
                    scanning.push(&mut state.pending);
                }
            }
            compose_shared(scanning, table, changes);
        }
        self.last_net = net;
        Ok(())
    }

    /// The one scheduler round behind every entry point: distribute
    /// freshly logged changes, then maintain the backings and the views
    /// `due` picks ([`MaintenanceScheduler::maintain_due`]).
    fn run_round(
        &mut self,
        tick: bool,
        due: impl Fn(&str, &ViewState) -> bool,
    ) -> Result<(RoundSummary, BackingDeltas)> {
        self.distribute()?;
        self.maintain_due(true, tick, due)
    }

    /// Maintain nodes in the catalog's maintenance order — backings by
    /// name, then views by name — against one fresh shared-prefix
    /// cache, each through [`MaintenanceScheduler::run_node`].
    ///
    /// A backing with a non-empty pending net always runs (when
    /// `backings` — the surgery barrier inside a tick passes `false`
    /// and maintains views only). Its Δ is composed, under the backing
    /// table's name, into every consumer's pending net before any view
    /// runs, so consumers pick it up at O(Δ) through their rewritten
    /// `Scan` in the same round; a backing that does not converge keeps
    /// its pending net and its consumers sit the round out.
    ///
    /// A view with a non-empty pending net runs if `due` says so. On a
    /// `tick` its staleness advances first — after the backings' Δs
    /// have landed, so a consumer's clock starts the tick its backing
    /// changed.
    fn maintain_due(
        &mut self,
        backings: bool,
        tick: bool,
        due: impl Fn(&str, &ViewState) -> bool,
    ) -> Result<(RoundSummary, BackingDeltas)> {
        let mut cache = SharedDiffCache::new();
        let mut summary = RoundSummary {
            round: self.round,
            ..RoundSummary::default()
        };
        let mut deltas = BackingDeltas::new();
        let mut blocked: BTreeSet<String> = BTreeSet::new();
        for (name, is_backing) in self.catalog.maintenance_order() {
            let state = self.node_state_mut(&name)?;
            if state.pending.is_empty() {
                continue;
            }
            if is_backing {
                if !backings {
                    continue;
                }
            } else {
                if tick {
                    state.staleness += 1;
                }
                if !due(&name, state) || blocked.contains(&name) {
                    summary.deferred.push((name, state.staleness));
                    continue;
                }
            }
            let (spent, verdict, delta) = self.run_node(&name, &mut cache)?;
            if let Some(verdict) = verdict {
                summary.verdicts.push((name.clone(), verdict));
            }
            if !is_backing {
                summary.maintained.push((name, spent));
                continue;
            }
            let consumers = self.catalog.intermediate(&name)?.consumers();
            if verdict.is_some_and(|v| !converged(v)) {
                blocked.extend(consumers.iter().cloned());
            }
            if !delta.is_empty() {
                let fed = self.states.iter_mut().filter(|(n, _)| consumers.contains(*n));
                compose_shared(fed.map(|(_, state)| &mut state.pending), &name, &delta);
            }
            deltas.insert(name.clone(), delta.len() as u64);
            summary.intermediates.push((name, spent));
        }
        summary.shared_hits = cache.total_hits();
        summary.shared_saved_accesses = cache.total_saved_accesses();
        summary.prefix_stats = cache.stats();
        Ok((summary, deltas))
    }

    /// One node's round on its own pending net: the clean attempt, the
    /// per-node supervisor if that fails, and the books. Returns the
    /// accesses spent, the supervisor's verdict if it was needed, and
    /// the Δ of the node's table.
    fn run_node(
        &mut self,
        name: &str,
        cache: &mut SharedDiffCache,
    ) -> Result<(StatsSnapshot, Option<SupervisorVerdict>, SharedChanges)> {
        // The round runs on the pending net itself; it goes back only
        // if the node did not converge.
        let net = std::mem::take(&mut self.node_state_mut(name)?.pending);
        let before = self.catalog.db().stats().snapshot();
        let shared = self.config.share_prefixes.then_some(cache);
        match self.catalog.maintain(name, &net, shared) {
            Ok((report, delta)) => {
                let spent = self.catalog.db().stats().snapshot().since(&before);
                let state = self.node_state_mut(name)?;
                state.staleness = 0;
                state.stats.rounds += 1;
                state.stats.accesses = state.stats.accesses.merge(spent);
                state.stats.view_diff_tuples += report.view_diff_tuples as u64;
                state.stats.last_report = Some(report);
                Ok((spent, None, delta))
            }
            Err(_) => {
                // The failed round has been rolled back; escalate to
                // the per-node supervisor, which owns retries,
                // bisection/quarantine, and the recompute ladder. A
                // backing's Δ is then an exact snapshot diff (empty if
                // it degraded — everything rolled back).
                let supervised =
                    self.catalog
                        .maintain_supervised(name, &net, self.config.supervisor);
                let spent = self.catalog.db().stats().snapshot().since(&before);
                let recovered_from = self.recovered_from.clone();
                let state = self.node_state_mut(name)?;
                if supervised.as_ref().is_ok_and(|(r, _)| converged(r.verdict)) {
                    state.staleness = 0;
                } else {
                    state.pending = net;
                }
                let (mut report, delta) = supervised?;
                report.recovered_from = recovered_from;
                let verdict = report.verdict;
                state.stats.rounds += 1;
                state.stats.supervised_rounds += 1;
                state.stats.accesses = state.stats.accesses.merge(spent);
                state.stats.quarantined_changes += report.quarantine.len() as u64;
                state.stats.last_verdict = Some(verdict);
                state.stats.last_supervisor = Some(report);
                Ok((spent, Some(verdict), delta.into()))
            }
        }
    }

    /// One scheduler round: distribute freshly logged changes, then
    /// maintain every promoted intermediate and every due view against
    /// one fresh shared-prefix cache. Never fails on maintenance errors
    /// — those are routed through the per-node supervisor and surface
    /// as verdicts in the summary.
    ///
    /// # Errors
    /// Catalog inconsistencies only (unknown view — a bug).
    pub fn tick(&mut self) -> Result<RoundSummary> {
        self.round += 1;
        let (mut summary, deltas) = self.run_round(true, |_, state| state.due())?;
        if let Some(cfg) = self.config.promotion {
            self.apply_promotion_decisions(&cfg, &deltas, &mut summary)?;
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

    /// Read barrier: bring `name` fully up to date (distributing any
    /// freshly logged changes and maintaining the intermediates first),
    /// then return its sorted rows. This is how `OnRead` views are
    /// served; it is equally valid for any policy.
    ///
    /// # Errors
    /// Unknown view name, or a degraded view or intermediate under it
    /// (its supervisor could not converge — pending changes are
    /// preserved for the next attempt).
    pub fn read_view(&mut self, name: &str) -> Result<Vec<Row>> {
        self.state(name)?;
        let (summary, _) = self.run_round(false, |view, _| view == name)?;
        for (node, verdict) in &summary.verdicts {
            if node == name && !verdict.healthy() {
                return Err(Error::Config(format!(
                    "view `{name}` is degraded ({}) — pending changes preserved",
                    verdict.label()
                )));
            }
            let feeds = |b: &CatalogView| b.consumers().contains(name);
            if !converged(*verdict) && self.catalog.intermediate(node).is_ok_and(feeds) {
                return Err(Error::Config(format!(
                    "view `{name}` consumes a degraded intermediate — pending changes preserved"
                )));
            }
        }
        let (rows, cost) = self.catalog.read(name)?;
        let stats = &mut self.node_state_mut(name)?.stats;
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
        Ok(self.run_round(false, |_, _| true)?.0)
    }

    /// Run one prefix observation through its crossover tracker and
    /// record the comparison.
    fn observe(
        &mut self,
        cfg: &PromotionConfig,
        structure: &str,
        label: &str,
        promoted: bool,
        obs: PrefixObservation,
    ) -> CostEntry {
        let tracker = self.trackers.entry(structure.to_string()).or_default();
        CostEntry {
            label: label.to_string(),
            promoted,
            consumers: obs.consumers,
            observed_compute: obs.compute_accesses,
            observed_diff_tuples: obs.diff_tuples,
            predicted_maintain_milli: cfg.maintain_milli(&obs),
            predicted_recompute_milli: cfg.recompute_milli(&obs),
            decision: tracker.observe(cfg, promoted, &obs),
        }
    }

    /// Feed this tick's per-prefix observations into the crossover
    /// trackers and apply any transitions they fire. Deterministic:
    /// candidates and intermediates are visited in sorted order, and
    /// every input (accesses, diff tuples, consumer counts) is itself
    /// deterministic, so the decision sequence is byte-identical across
    /// runs and thread counts.
    fn apply_promotion_decisions(
        &mut self,
        cfg: &PromotionConfig,
        deltas: &BackingDeltas,
        summary: &mut RoundSummary,
    ) -> Result<()> {
        // Unpromoted candidate prefixes are observed through the
        // round's shared cache: one stat per pending horizon may exist
        // for a structure, so compute sums and the diff width is the
        // widest horizon's.
        let candidates = self.catalog.promotion_candidates();
        let mut observed: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for stat in &summary.prefix_stats {
            if candidates.iter().any(|c| c.structure == stat.structure) {
                let entry = observed.entry(&stat.structure).or_insert((0, 0));
                entry.0 += stat.compute_accesses.total();
                entry.1 = entry.1.max(stat.diff_tuples as u64);
            }
        }
        let mut to_promote: Vec<&PromotionCandidate> = Vec::new();
        for (structure, (compute_accesses, diff_tuples)) in observed {
            let Some(candidate) = candidates.iter().find(|c| c.structure == structure) else {
                continue;
            };
            let obs = PrefixObservation {
                compute_accesses,
                diff_tuples,
                consumers: candidate.consumers.len() as u64,
            };
            let entry = self.observe(cfg, structure, &candidate.label, false, obs);
            if entry.decision == PromotionDecision::Promote {
                to_promote.push(candidate);
            }
            summary.cost.push(entry);
        }
        // Promoted prefixes are observed through their own maintenance
        // round this tick (rounds that did not converge are not
        // observations).
        let failed = |backing: &str| {
            let unconverged = |(n, v): &(String, SupervisorVerdict)| n == backing && !converged(*v);
            summary.verdicts.iter().any(unconverged)
        };
        let mut to_demote: BTreeSet<String> = BTreeSet::new();
        for (backing, spent) in &summary.intermediates {
            if failed(backing) {
                continue;
            }
            let node = self.catalog.intermediate(backing)?;
            let obs = PrefixObservation {
                compute_accesses: spent.total(),
                diff_tuples: deltas.get(backing).copied().unwrap_or(0),
                consumers: node.consumers().len() as u64,
            };
            let (structure, label) = (node.structure().to_string(), node.label().to_string());
            let entry = self.observe(cfg, &structure, &label, true, obs);
            if entry.decision == PromotionDecision::Demote {
                to_demote.insert(backing.clone());
            }
            summary.cost.push(entry);
        }
        // Collapse rule: an intermediate whose consumer set shrank
        // below the floor (views unregistered) no longer pays for
        // itself even if it had no round to observe this tick.
        for backing in self.catalog.intermediate_names() {
            let consumers = self.catalog.intermediate(backing)?.consumers().len() as u64;
            if consumers < cfg.min_consumers && !failed(backing) {
                to_demote.insert(backing.to_string());
            }
        }
        for candidate in to_promote {
            summary
                .promotions
                .extend(self.promote_candidate(candidate)?);
        }
        for backing in to_demote {
            summary.promotions.extend(self.demote_backing(&backing)?);
        }
        Ok(())
    }

    /// Bring the views in `names` fully up to date ahead of catalog
    /// surgery (views only: a backing left dirty by this tick is not
    /// retried here). Returns `false` (surgery must be skipped) if any
    /// of them could not converge — their pendings are preserved.
    fn drain_views(&mut self, names: &BTreeSet<String>) -> Result<bool> {
        self.maintain_due(false, false, |view, _| names.contains(view))?;
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
    fn promote_candidate(
        &mut self,
        candidate: &PromotionCandidate,
    ) -> Result<Option<PromotionEvent>> {
        let consumers: BTreeSet<String> = candidate.consumers.iter().cloned().collect();
        if !self.drain_views(&consumers)? {
            return Ok(None);
        }
        let backing = self.catalog.promote(candidate)?;
        self.states
            .insert(backing.clone(), ViewState::new(RefreshPolicy::Eager));
        let consumers = self.catalog.intermediate(&backing)?.consumers();
        Ok(Some(PromotionEvent {
            action: "promote",
            consumers: consumers.iter().cloned().collect(),
            backing,
            label: candidate.label.clone(),
        }))
    }

    /// Demote the intermediate behind `backing`: drain its consumers
    /// and require the backing itself to be clean (a pending backing
    /// delta not yet delivered to consumers would be lost by the
    /// rewire), restore the inline subtree in every consumer plan, and
    /// drop the backing. Returns `None` if the preconditions do not
    /// hold this tick.
    fn demote_backing(&mut self, backing: &str) -> Result<Option<PromotionEvent>> {
        let node = self.catalog.intermediate(backing)?;
        let label = node.label().to_string();
        let consumers = node.consumers().clone();
        if !self.node_state(backing)?.pending.is_empty() || !self.drain_views(&consumers)? {
            return Ok(None);
        }
        self.catalog.demote(backing)?;
        self.states.remove(backing);
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
        self.run_round(false, |_, _| false)?;
        let candidate = self
            .catalog
            .promotion_candidates()
            .into_iter()
            .find(|c| c.label == label)
            .ok_or_else(|| Error::Config(format!("no promotable prefix labelled `{label}`")))?;
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
        self.run_round(false, |_, _| false)?;
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
        self.catalog.intermediate(backing)?;
        Ok(&self.node_state(backing)?.stats)
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

    /// Recovery-path [`MaintenanceScheduler::register`]: the node's
    /// table and caches already hold its materialized state (restored
    /// from a checkpoint), so the catalog reattaches the engine with
    /// [`ViewCatalog::reattach`] instead of re-materializing. `backing`
    /// is `None` for a view and the checkpointed [`Backing`] for a
    /// promoted intermediate, which must be reattached before any of
    /// its consumers and is maintained first in every round whatever
    /// `policy` says. The node's runtime state (pending net, staleness)
    /// starts empty — restore it with
    /// [`MaintenanceScheduler::restore_runtime`].
    ///
    /// # Errors
    /// Invalid policy or any [`ViewCatalog::reattach`] failure.
    pub fn reattach(
        &mut self,
        name: &str,
        plan: idivm_algebra::Plan,
        policy: RefreshPolicy,
        backing: Option<Backing>,
        options: IvmOptions,
    ) -> Result<()> {
        policy.validate()?;
        self.catalog.reattach(name, plan, backing, options)?;
        self.states.insert(name.to_string(), ViewState::new(policy));
        Ok(())
    }

    /// Restore the scheduler round counter from a checkpoint.
    pub fn restore_round(&mut self, round: u64) {
        self.round = round;
    }

    /// Restore a node's checkpointed runtime state — a view's or a
    /// promoted intermediate's: its composed pending net and staleness
    /// counter (0 for an intermediate, which has none).
    ///
    /// # Errors
    /// Unknown name.
    pub fn restore_runtime(
        &mut self,
        name: &str,
        pending: Net,
        staleness: u32,
    ) -> Result<()> {
        let state = self.node_state_mut(name)?;
        state.pending = pending;
        state.staleness = staleness;
        Ok(())
    }

    /// A promoted intermediate's composed pending net (empty when it is
    /// up to date): handles on it, not a copy.
    ///
    /// # Errors
    /// Unknown backing name.
    pub fn intermediate_pending(&self, backing: &str) -> Result<Net> {
        self.catalog.intermediate(backing)?;
        Ok(self.node_state(backing)?.pending.clone())
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
    pub fn set_recovered_from(&mut self, note: Option<String>) {
        self.recovered_from = note;
    }

    /// The current recovery-provenance note, if any.
    pub fn recovered_from(&self) -> Option<&str> {
        self.recovered_from.as_deref()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use idivm_reldb::compose_changes;
    use idivm_workloads::bsma::Bsma;
    use idivm_workloads::MultiView;

    fn suite() -> MultiView {
        MultiView {
            bsma: Bsma {
                scale: 0.05,
                seed: 11,
            },
        }
    }

    /// A window whose changes cancel (a row inserted, then deleted)
    /// folds to nothing, but its entries are in the log all the same:
    /// the tick that folds them must consume them, or every later round
    /// folds them again.
    #[test]
    fn a_log_that_folds_to_nothing_is_still_cleared() {
        use idivm_exec::{executor::sorted, recompute_rows};
        use idivm_types::{row, Key, Value};
        let cfg = suite();
        let mut sched = MaintenanceScheduler::new(cfg.build().unwrap(), SchedulerConfig::default());
        for (name, plan) in cfg.views(sched.db()).unwrap() {
            sched
                .register(&name, plan, RefreshPolicy::Eager, IvmOptions::default())
                .unwrap();
        }

        let db = sched.db_mut();
        db.insert("microblog", row![9_000_000, 1, 500, 7]).unwrap();
        db.delete("microblog", &Key(vec![Value::Int(9_000_000)]))
            .unwrap();
        assert_eq!(sched.db().log().len(), 2);
        assert!(
            sched.db().fold_log().is_empty(),
            "the batch does not cancel"
        );
        let summary = sched.tick().unwrap();
        assert!(summary.maintained.is_empty() && summary.deferred.is_empty());
        assert_eq!(
            sched.db().log().len(),
            0,
            "a cancelled window stayed in the log"
        );

        cfg.tweet_batch(sched.db_mut(), 24, 1).unwrap();
        let summary = sched.tick().unwrap();
        assert_eq!(summary.maintained.len(), sched.catalog().len());
        for name in sched.catalog().names() {
            let view = sched.catalog().view(name).unwrap();
            let plan = idivm_algebra::ensure_ids(view.source_plan().clone()).unwrap();
            assert_eq!(
                sched.catalog().rows(name).unwrap(),
                sorted(recompute_rows(sched.db(), &plan).unwrap()),
                "`{name}` differs from the recompute oracle"
            );
        }
    }

    /// The five views, `mention_reach` and a twin of it under
    /// `Deferred{2}`, the rest eager.
    fn with_deferred_twins(cfg: &MultiView, config: SchedulerConfig) -> MaintenanceScheduler {
        let mut sched = MaintenanceScheduler::new(cfg.build().unwrap(), config);
        let deferred = RefreshPolicy::Deferred {
            max_staleness_rounds: 2,
        };
        let mut views = cfg.views(sched.db()).unwrap();
        views.push(("twin".into(), cfg.plan(sched.db(), "mention_reach").unwrap()));
        for (name, plan) in views {
            let policy = match name.as_str() {
                "mention_reach" | "twin" => deferred,
                _ => RefreshPolicy::Eager,
            };
            sched
                .register(&name, plan, policy, IvmOptions::default())
                .unwrap();
        }
        sched
    }

    /// `distribute` copies nothing: a node with nothing pending holds
    /// the folded net's own allocations; nodes on one horizon have the
    /// next slice composed once and keep sharing the result; a node on
    /// another horizon never aliases it.
    #[test]
    fn distribute_shares_the_net_and_composes_once_per_horizon() {
        let cfg = suite();
        let mut sched = with_deferred_twins(&cfg, SchedulerConfig::default());
        cfg.tweet_batch(sched.db_mut(), 24, 1).unwrap();
        sched.distribute().unwrap();
        assert_eq!(sched.last_net().len(), 3, "mentions, microblog, users");
        for (name, state) in &sched.states {
            for (table, changes) in sched.last_net() {
                let scans = sched.catalog.scans(name, table).unwrap();
                assert_eq!(state.pending.contains_key(table), scans, "{name}/{table}");
                if scans {
                    assert!(state.pending[table].ptr_eq(changes), "{name} copied `{table}`");
                }
            }
        }
        // The tick consumes the eager nodes' nets; the twins keep theirs.
        let first = sched.tick().unwrap();
        assert_eq!(first.deferred.len(), 2);
        let held = sched.states["twin"].pending.clone();
        assert_eq!(held, sched.states["mention_reach"].pending);

        cfg.tweet_batch(sched.db_mut(), 24, 2).unwrap();
        let second = sched.db().fold_log();
        sched.distribute().unwrap();
        let (twin, reach, eager) = (
            &sched.states["twin"].pending,
            &sched.states["mention_reach"].pending,
            &sched.states["mention_users"].pending,
        );
        let mut composed = held.clone();
        compose_changes(&mut composed, second);
        assert_eq!(twin, &composed);
        for (table, changes) in twin {
            assert!(changes.ptr_eq(&reach[table]), "the twins split on `{table}`");
            assert!(!changes.ptr_eq(&held[table]), "`{table}` was composed into a shared net");
            assert!(!changes.ptr_eq(&eager[table]), "an eager sibling aliases `{table}`");
            assert!(eager[table].ptr_eq(&sched.last_net()[table]));
            assert_eq!(changes.digest_memo(), None, "a composed net kept a digest");
        }
        // Both horizons maintained in one round: the twins share their
        // whole plan on their own net, the eager views their prefixes.
        let summary = sched.tick().unwrap();
        assert_eq!(summary.maintained.len(), 6);
        assert_eq!(summary.shared_hits, 3);
        let deep = |p: &&SharedPrefixStat| p.label == "join[mentions,microblog,users]";
        assert_eq!(summary.prefix_stats.iter().filter(deep).count(), 2, "one per horizon");
        assert!(twin_digests(&sched).is_empty(), "the round left a net behind");
    }

    /// Pending nets of the twins that carry a digest.
    fn twin_digests(sched: &MaintenanceScheduler) -> Vec<u64> {
        let nets = ["twin", "mention_reach"].map(|n| &sched.states[n].pending);
        nets.iter()
            .flat_map(|net| net.values().filter_map(SharedChanges::digest_memo))
            .collect()
    }

    /// A digest is computed for a table only when a designated prefix
    /// reads it: never with `share_prefixes: false`, never for a view
    /// that shares nothing — and once per table when five views do.
    #[test]
    fn digests_are_computed_only_for_designated_prefixes() {
        let cfg = suite();
        let digested = |sched: &MaintenanceScheduler| {
            let memos = sched.last_net().values().filter_map(SharedChanges::digest_memo);
            memos.count()
        };
        let unshared = SchedulerConfig {
            share_prefixes: false,
            ..SchedulerConfig::default()
        };
        let mut sched = with_deferred_twins(&cfg, unshared);
        for round in 1..=2 {
            cfg.tweet_batch(sched.db_mut(), 24, round).unwrap();
            assert_eq!(sched.tick().unwrap().shared_hits, 0);
            assert_eq!(digested(&sched), 0, "the unshared baseline digested a net");
        }
        assert!(twin_digests(&sched).is_empty());

        let mut lone = MaintenanceScheduler::new(cfg.build().unwrap(), SchedulerConfig::default());
        let plan = cfg.plan(lone.db(), "mention_users").unwrap();
        lone.register("mention_users", plan, RefreshPolicy::Eager, IvmOptions::default())
            .unwrap();
        cfg.tweet_batch(lone.db_mut(), 24, 1).unwrap();
        assert_eq!(lone.tick().unwrap().maintained.len(), 1);
        assert_eq!(digested(&lone), 0, "a view with no designated prefix digested");

        let mut shared = with_deferred_twins(&cfg, SchedulerConfig::default());
        cfg.tweet_batch(shared.db_mut(), 24, 1).unwrap();
        assert!(shared.tick().unwrap().shared_hits > 0);
        assert_eq!(digested(&shared), 3, "one digest per table the prefixes read");
    }

    /// hit → invalidate → rebuild → hit, as `ViewStats` tells it.
    #[test]
    fn read_counters_tell_hits_from_rebuilds() {
        let cfg = suite();
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
