//! The multi-view catalog: many named [`IdIvm`] engines over one shared
//! [`Database`], with the table → node dependency DAG and the
//! cross-node shared-prefix designations kept current on every change
//! to the registered set.
//!
//! There is one kind of node, [`CatalogView`], in one of two roles: a
//! view somebody registered, or the hidden backing table of a promoted
//! shared prefix that other views scan. Both are attached, maintained,
//! supervised and read through the same code; a backing differs only in
//! who may address it by name and in handing its Δ on to its consumers.
//!
//! The catalog is the *structural* layer: it knows which nodes exist,
//! which tables each one scans, and which operator subtrees are shared
//! (so one i-diff computation can serve several nodes). The *temporal*
//! layer — refresh policies, pending-change accumulation, and failure
//! routing — lives on top of it in
//! [`crate::scheduler::MaintenanceScheduler`].

use crate::snapshot::Snapshot;
use idivm_algebra::{ensure_ids, Plan};
use idivm_core::supervisor::{MaintenanceSupervisor, SupervisorConfig, SupervisorReport};
use idivm_core::{
    detect_shared_prefixes, promotion_candidates, substitute_scan, substitute_structures,
    IdIvm, IvmOptions, MaintenanceReport, PromotionCandidate, SharedDiffCache,
    SharedPrefixes,
};
use idivm_exec::SubplanMemo;
use idivm_reldb::{table_delta, Database, Net, SharedChanges, Table, TableChanges, TableSignature};
use idivm_types::{Error, Result, Row};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// What makes a node a promoted shared prefix rather than a user's
/// view: a hidden backing table materializing one operator subtree,
/// maintained once per round by its own i-diff engine while every
/// consumer view scans the backing instead of recomputing the subtree.
/// Created by [`ViewCatalog::promote`], dropped by
/// [`ViewCatalog::demote`], handed back by a checkpoint to
/// [`ViewCatalog::reattach`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Backing {
    /// Structure-only fingerprint of the subtree
    /// (`idivm_core::structure_key`).
    pub structure: String,
    /// Human-readable label (`op[tables…]`).
    pub label: String,
    /// Views currently rewritten to scan the backing.
    pub consumers: BTreeSet<String>,
}

enum Role {
    /// A registered view. `source` is the plan as the user registered
    /// it, before any adaptive intermediate rewrites — the demotion
    /// restore target and the promotion-transparency oracle.
    User { source: Plan },
    /// A promoted intermediate. The subtree it materializes is its
    /// engine's plan.
    Backing(Backing),
}

/// One catalog node: its engine, its shared-prefix designations
/// (recomputed whenever the registered set changes), the tables it
/// scans, and its role.
pub struct CatalogView {
    engine: IdIvm,
    prefixes: SharedPrefixes,
    tables: Vec<String>,
    /// Sorted rows of the node's table, once it has been read (a view,
    /// or a backing whose pre-image a round needed). Interior: reading
    /// is `&self`, and bringing the snapshot forward is part of reading.
    snapshot: RefCell<Option<Snapshot>>,
    role: Role,
}

impl CatalogView {
    /// The maintenance engine.
    pub fn engine(&self) -> &IdIvm {
        &self.engine
    }

    /// Mutable engine access (knob configuration — parallelism, trace,
    /// faults — via `idivm_core::EngineConfig`).
    pub fn engine_mut(&mut self) -> &mut IdIvm {
        &mut self.engine
    }

    /// The node's current shared-prefix designations. A backing has
    /// them too: a deep intermediate can contain a shallower designated
    /// prefix (its own, or one still inlined in unpromoted views), and
    /// its maintenance walk publishes/reuses those diffs through the
    /// same per-round cache as the views.
    pub fn prefixes(&self) -> &SharedPrefixes {
        &self.prefixes
    }

    /// Tables the node scans, sorted and deduplicated. After a
    /// promotion rewrite a view's include the backing tables it now
    /// scans instead of the promoted subtrees.
    pub fn tables(&self) -> &[String] {
        &self.tables
    }

    /// What the node *means*, independent of which prefixes are
    /// currently materialized: a view's registered (pre-rewrite) plan;
    /// a backing's (ID-extended) subtree — the demotion restore source.
    pub fn source_plan(&self) -> &Plan {
        match &self.role {
            Role::User { source } => source,
            Role::Backing(_) => self.engine.plan(),
        }
    }

    /// Structure-only fingerprint of a backing's subtree (empty for a
    /// registered view, which is not reached through
    /// [`ViewCatalog::intermediate`]).
    pub fn structure(&self) -> &str {
        self.backing().map_or("", |b| &b.structure)
    }

    /// A backing's human-readable label (empty for a registered view).
    pub fn label(&self) -> &str {
        self.backing().map_or("", |b| &b.label)
    }

    /// Views currently consuming a backing's table (none for a
    /// registered view: views over views are expanded at registration).
    pub fn consumers(&self) -> &BTreeSet<String> {
        static NONE: BTreeSet<String> = BTreeSet::new();
        self.backing().map_or(&NONE, |b| &b.consumers)
    }

    fn backing(&self) -> Option<&Backing> {
        match &self.role {
            Role::User { .. } => None,
            Role::Backing(backing) => Some(backing),
        }
    }

    fn backing_mut(&mut self) -> Option<&mut Backing> {
        match &mut self.role {
            Role::User { .. } => None,
            Role::Backing(backing) => Some(backing),
        }
    }

    /// After a clean round on the node's table (`stored`, as it is now)
    /// that started at version `pre`: hand the snapshot, if there is
    /// one, the round's Δ, or drop it when it cannot follow — a
    /// recompute recovery reports no Δ.
    fn advance_snapshot(&self, stored: Option<&Table>, pre: u64, report: &MaintenanceReport) {
        let mut slot = self.snapshot.borrow_mut();
        let follows = !report.recovered
            && slot
                .as_mut()
                .zip(stored)
                .is_some_and(|(s, t)| s.advance(pre, t.version(), &report.view_changes));
        if !follows {
            *slot = None;
        }
    }
}

/// Many named nodes over one shared database. Registration keeps the
/// dependency DAG and the shared-prefix designations current; nodes are
/// always visited in a fixed order — by name within a role — so every
/// catalog operation is deterministic for any `HashMap` iteration order
/// or thread count.
pub struct ViewCatalog {
    db: Database,
    /// Registered views and promoted backings alike, keyed by the name
    /// of the table each one maintains.
    nodes: BTreeMap<String, CatalogView>,
    /// Monotone counter for backing-table names — promotion order is
    /// deterministic, so the names are byte-identical across runs.
    next_backing: u64,
    /// Rows of join subtrees that registration evaluated, for the next
    /// registration over the same table versions
    /// ([`IdIvm::setup_memoized`]); emptied once the tables change
    /// ([`ViewCatalog::forget_subplans`]).
    memo: SubplanMemo,
}

/// What serving one read cost.
pub(crate) struct ReadCost {
    /// The snapshot was missing or refused and the rows were cloned out
    /// of the table and sorted.
    pub(crate) rebuilt: bool,
    /// Row images of earlier rounds merged into the snapshot.
    pub(crate) merged: usize,
}

/// The lookup error for `name` in the role asked for (`None`: either).
fn missing(name: &str, backing: Option<bool>) -> Error {
    Error::Config(match backing {
        Some(true) => format!("intermediate `{name}` does not exist"),
        _ => format!("view `{name}` is not registered"),
    })
}

impl ViewCatalog {
    /// Wrap an existing database (the catalog takes ownership; base
    /// modifications go through [`ViewCatalog::db_mut`]).
    pub fn new(db: Database) -> Self {
        ViewCatalog {
            db,
            nodes: BTreeMap::new(),
            next_backing: 0,
            memo: SubplanMemo::default(),
        }
    }

    /// Drop the rows registration kept for later registrations: called
    /// when base changes start arriving, after which an entry would only
    /// ever match a registration over unchanged tables.
    pub(crate) fn forget_subplans(&mut self) {
        self.memo.clear();
    }

    /// `(entries, claims)` of the registration memo.
    #[cfg(test)]
    pub(crate) fn memo_counts(&self) -> (usize, usize) {
        self.memo.counts()
    }

    /// Register and materialize a view. Recomputes the shared-prefix
    /// designations across the whole registered set — a new view can
    /// create sharing opportunities for existing ones. If a promoted
    /// intermediate already materializes a subtree of the plan, the
    /// registered plan is rewritten to scan its backing table (the view
    /// joins the intermediate's consumer set).
    ///
    /// # Errors
    /// Duplicate name or a name colliding with an existing base table
    /// or intermediate backing ([`Error::Config`]), or any
    /// [`IdIvm::setup`] failure. The collision check lives here and not
    /// in [`ViewCatalog::reattach`]: reattach is the recovery path,
    /// where the view's backing table legitimately already exists.
    pub fn register(&mut self, name: &str, plan: Plan, options: IvmOptions) -> Result<()> {
        if !self.nodes.contains_key(name) && self.db.has_table(name) {
            return Err(Error::Config(format!(
                "view name `{name}` collides with an existing table"
            )));
        }
        self.attach(name, plan, None, true, options)
    }

    /// Re-register a node over tables that **already hold its
    /// materialized state** — the crash-recovery path. The engine is
    /// rebuilt with [`IdIvm::setup_over`], which reuses every
    /// shape-matched table (the node's table and its caches) instead of
    /// re-materializing from current base state. Re-materializing would
    /// be wrong for a recovered deferred/`OnRead` view with a non-empty
    /// pending net: its table holds `Q(base at last drain)`, not
    /// `Q(current base)`.
    ///
    /// `backing` is `None` for a view, and for a promoted intermediate
    /// the checkpointed [`Backing`] (`plan` is then its subtree; the
    /// consumer set is taken verbatim). Intermediates must be
    /// reattached (in the checkpoint's backing order) *before* the
    /// views, so the same structure-substitution rewrite that
    /// [`ViewCatalog::register`] applies reproduces each view's rewired
    /// plan.
    ///
    /// # Errors
    /// Duplicate name ([`Error::Config`]) or any [`IdIvm::setup_over`]
    /// failure.
    pub fn reattach(
        &mut self,
        name: &str,
        plan: Plan,
        backing: Option<Backing>,
        options: IvmOptions,
    ) -> Result<()> {
        self.attach(name, plan, backing, false, options)
    }

    /// The one way a node enters the catalog: `fresh` materializes it —
    /// a view through the catalog's memo ([`IdIvm::setup_memoized`]), a
    /// backing (promotion makes those during rounds) without it
    /// ([`IdIvm::setup`]), so the memo keeps no rows while the stream
    /// runs — otherwise its tables are taken as they stand
    /// ([`IdIvm::setup_over`]).
    fn attach(
        &mut self,
        name: &str,
        plan: Plan,
        backing: Option<Backing>,
        fresh: bool,
        options: IvmOptions,
    ) -> Result<()> {
        if self.nodes.contains_key(name) {
            return Err(Error::Config(format!("`{name}` is already registered")));
        }
        let view = backing.is_none();
        let (plan, role) = match backing {
            Some(backing) => (plan, Role::Backing(backing)),
            None => {
                let source = plan.clone();
                (
                    self.over_backings(plan, options.minimize)?,
                    Role::User { source },
                )
            }
        };
        let engine = if fresh && view {
            IdIvm::setup_memoized(&mut self.db, name, plan, options, &mut self.memo)?
        } else if fresh {
            IdIvm::setup(&mut self.db, name, plan, options)?
        } else {
            IdIvm::setup_over(&mut self.db, name, plan, options)?
        };
        let tables = scanned_tables(engine.plan());
        if matches!(role, Role::User { .. }) {
            for table in &tables {
                if let Some(scanned) = self.nodes.get_mut(table).and_then(CatalogView::backing_mut)
                {
                    scanned.consumers.insert(name.to_string());
                }
            }
        }
        self.nodes.insert(
            name.to_string(),
            CatalogView {
                engine,
                prefixes: SharedPrefixes::none(),
                tables,
                snapshot: RefCell::new(None),
                role,
            },
        );
        self.refresh_prefixes();
        Ok(())
    }

    /// Monotone backing-name counter (checkpointed so recovered
    /// promotions keep minting fresh `__ivm{n}` names).
    pub fn next_backing(&self) -> u64 {
        self.next_backing
    }

    /// Restore the backing-name counter from a checkpoint.
    pub fn set_next_backing(&mut self, next: u64) {
        self.next_backing = next;
    }

    /// Drop a view: its materialized table, its caches, and its
    /// registration. Remaining nodes' shared-prefix designations are
    /// recomputed (a prefix shared only with the dropped view loses its
    /// designation). Intermediates the view consumed lose it from their
    /// consumer sets — the scheduler's cost model demotes an
    /// intermediate whose consumer set collapses.
    ///
    /// # Errors
    /// Unknown view name ([`Error::Config`]).
    pub fn unregister(&mut self, name: &str) -> Result<()> {
        self.view(name)?;
        self.drop_node(name);
        for backing in self.nodes.values_mut().filter_map(CatalogView::backing_mut) {
            backing.consumers.remove(name);
        }
        self.refresh_prefixes();
        Ok(())
    }

    /// Forget a node and drop its table and caches.
    fn drop_node(&mut self, name: &str) {
        if let Some(node) = self.nodes.remove(name) {
            for def in node.engine.caches() {
                self.db.drop_table(&def.name);
            }
        }
        self.db.drop_table(name);
    }

    /// Recompute shared-prefix designations across every node: the
    /// views in name order, then the backings in name order. Backings
    /// participate because a deep backing's subtree can contain a
    /// shallower designated prefix — e.g. the deep `⋈ users` backing
    /// contains the `σ_ts(⋈)` subtree that a second backing (or an
    /// unpromoted view) also computes; backings run first in every
    /// round, so their publishes are consumable by both the other
    /// backings and the views.
    fn refresh_prefixes(&mut self) {
        let mut nodes: Vec<&mut CatalogView> = self.nodes.values_mut().collect();
        nodes.sort_by_key(|node| node.backing().is_some());
        let engines: Vec<&IdIvm> = nodes.iter().map(|node| &node.engine).collect();
        let mut prefixes = detect_shared_prefixes(&engines).into_iter();
        for node in nodes {
            node.prefixes = prefixes.next().unwrap_or_else(SharedPrefixes::none);
        }
    }

    /// The shared database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable database access — this is where base-table modifications
    /// enter. The catalog does not intercept them; maintenance layers
    /// fold the modification log when they run.
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Registered view names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.names_in(false)
    }

    /// Backing-table names of the current intermediates, sorted.
    pub fn intermediate_names(&self) -> Vec<&str> {
        self.names_in(true)
    }

    fn names_in(&self, backing: bool) -> Vec<&str> {
        self.nodes
            .iter()
            .filter(|(_, node)| node.backing().is_some() == backing)
            .map(|(name, _)| name.as_str())
            .collect()
    }

    /// Every node in the order a round maintains them — backings by
    /// name, then views by name — with whether it is a backing. Plain
    /// name order would not do: `__ivm0` sorts after `V` but before
    /// `a`, and a backing's Δ must reach its consumers' pending nets
    /// before any of them runs.
    pub(crate) fn maintenance_order(&self) -> Vec<(String, bool)> {
        let mut order: Vec<(String, bool)> = self
            .nodes
            .iter()
            .map(|(name, node)| (name.clone(), node.backing().is_some()))
            .collect();
        order.sort_by_key(|(_, backing)| !backing);
        order
    }

    /// Every node's engine.
    pub(crate) fn engines(&self) -> impl Iterator<Item = &IdIvm> {
        self.nodes.values().map(|node| &node.engine)
    }

    /// Every node's engine (knobs that apply to all of them).
    pub(crate) fn engines_mut(&mut self) -> impl Iterator<Item = &mut IdIvm> {
        self.nodes.values_mut().map(|node| &mut node.engine)
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.nodes
            .values()
            .filter(|node| node.backing().is_none())
            .count()
    }

    /// True iff no view is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get(&self, name: &str, backing: Option<bool>) -> Result<&CatalogView> {
        self.nodes
            .get(name)
            .filter(|node| backing.is_none_or(|b| node.backing().is_some() == b))
            .ok_or_else(|| missing(name, backing))
    }

    fn get_mut(&mut self, name: &str, backing: Option<bool>) -> Result<&mut CatalogView> {
        self.nodes
            .get_mut(name)
            .filter(|node| backing.is_none_or(|b| node.backing().is_some() == b))
            .ok_or_else(|| missing(name, backing))
    }

    /// Look up a registered view.
    ///
    /// # Errors
    /// Unknown view name ([`Error::Config`]) — a backing's included.
    pub fn view(&self, name: &str) -> Result<&CatalogView> {
        self.get(name, Some(false))
    }

    /// Mutable view access (engine knob configuration).
    ///
    /// # Errors
    /// Unknown view name ([`Error::Config`]).
    pub fn view_mut(&mut self, name: &str) -> Result<&mut CatalogView> {
        self.get_mut(name, Some(false))
    }

    /// Look up an intermediate by backing-table name.
    ///
    /// # Errors
    /// Unknown backing name ([`Error::Config`]) — a view's included.
    pub fn intermediate(&self, backing: &str) -> Result<&CatalogView> {
        self.get(backing, Some(true))
    }

    /// Mutable intermediate access (engine knobs — trace, faults).
    ///
    /// # Errors
    /// Unknown backing name ([`Error::Config`]).
    pub fn intermediate_mut(&mut self, backing: &str) -> Result<&mut CatalogView> {
        self.get_mut(backing, Some(true))
    }

    /// The table → dependents DAG: every table scanned by at least one
    /// node, mapped to the (sorted) names of the nodes that scan it —
    /// the fan-out set of one base-table modification. Promoted
    /// intermediates appear as *internal nodes*: their backing table is
    /// a dependent of the base tables its subtree scans, and consumer
    /// views are dependents of the backing table —
    /// views-over-intermediates.
    pub fn dependency_dag(&self) -> BTreeMap<String, Vec<String>> {
        let mut dag: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (name, node) in &self.nodes {
            for t in &node.tables {
                dag.entry(t.clone()).or_default().push(name.clone());
            }
        }
        dag
    }

    /// Whether node `name` scans `table` — whether a change to it is
    /// part of the node's slice of a shared modification batch.
    ///
    /// # Errors
    /// Unknown name ([`Error::Config`]).
    pub(crate) fn scans(&self, name: &str, table: &str) -> Result<bool> {
        Ok(self.get(name, None)?.tables.iter().any(|t| t == table))
    }

    /// Run one atomic maintenance round for node `name` over an
    /// externally folded change set. With `cache`, designated shared
    /// prefixes are published to and reused from it (create one
    /// [`SharedDiffCache`] per scheduler round and share it between
    /// every node maintained in that round — a deep backing and a
    /// shallow backing over the same inner subtree compute that
    /// subtree's i-diffs once per round between them); without, this is
    /// the independent-maintenance baseline.
    ///
    /// Returns the report plus the **Δ of the node's table** — for a
    /// backing, the net changes consumers must compose into their
    /// pendings under the backing table's name — straight from the
    /// round's [`MaintenanceReport::view_changes`].
    ///
    /// # Errors
    /// Unknown name, or any maintenance failure (the round has been
    /// rolled back; the caller still owns `net` — escalate to
    /// [`ViewCatalog::maintain_supervised`]).
    pub fn maintain(
        &mut self,
        name: &str,
        net: &Net,
        cache: Option<&mut SharedDiffCache>,
    ) -> Result<(MaintenanceReport, SharedChanges)> {
        let node = self.nodes.get(name).ok_or_else(|| missing(name, None))?;
        let pre = self.db.table(name)?.version();
        let report = match cache {
            Some(cache) => node.engine.maintain_with_changes_shared(
                &mut self.db,
                net,
                &node.prefixes,
                cache,
            )?,
            None => node.engine.maintain_with_changes(&mut self.db, net)?,
        };
        node.advance_snapshot(self.db.table(name).ok(), pre, &report);
        let delta = report.view_changes.clone();
        Ok((report, delta))
    }

    /// Drive node `name`'s pending changes through a per-node
    /// [`MaintenanceSupervisor`] (retry → bisect/quarantine → recompute
    /// → degrade). Never returns `Err` for maintenance failures — the
    /// verdict in the report is the signal; the node's quarantine and
    /// rollback machinery cannot touch its siblings (each round only
    /// mutates this node's table and caches).
    ///
    /// A supervised run only guarantees the final table state, so a
    /// backing's Δ is always recovered by snapshot diff: consumers stay
    /// exact even across quarantines and recompute escalations. A
    /// view's table has no readers of its Δ and none is computed.
    ///
    /// # Errors
    /// Unknown name ([`Error::Config`]) only.
    pub fn maintain_supervised(
        &mut self,
        name: &str,
        net: &Net,
        config: SupervisorConfig,
    ) -> Result<(SupervisorReport, TableChanges)> {
        let pre_rows = match self.get(name, None)?.backing() {
            Some(_) => Some(self.read(name)?.0),
            None => None,
        };
        let node = self
            .nodes
            .get_mut(name)
            .ok_or_else(|| missing(name, None))?;
        let report = MaintenanceSupervisor::new(&mut node.engine, config)
            .run_with_changes(&mut self.db, net);
        let delta = match pre_rows {
            Some(pre_rows) => self.delta_since(name, &pre_rows)?,
            None => TableChanges::default(),
        };
        Ok((report, delta))
    }

    /// What changed in `name`'s table since it held `pre_rows` — the
    /// one place a backing's Δ is worked out when no round reported it.
    fn delta_since(&self, name: &str, pre_rows: &[Row]) -> Result<TableChanges> {
        let key = self.db.table(name)?.schema().key().to_vec();
        Ok(table_delta(pre_rows, &self.read(name)?.0, &key))
    }

    // ------------------------------------------------------------------
    // Adaptive intermediate views (promotion / demotion)
    // ------------------------------------------------------------------

    /// Backing table name of the intermediate materializing
    /// `structure`, if one exists.
    pub fn promoted_backing(&self, structure: &str) -> Option<&str> {
        self.nodes
            .iter()
            .find(|(_, node)| node.backing().is_some_and(|b| b.structure == structure))
            .map(|(name, _)| name.as_str())
    }

    fn is_backing(&self, table: &str) -> bool {
        self.intermediate(table).is_ok()
    }

    /// Promotable subtrees across the current (possibly already
    /// rewritten) view plans: operator structures with ≥ 2 base-table
    /// scans occurring in ≥ 2 distinct views. Structures that scan a
    /// backing table are excluded (intermediates stay one level deep),
    /// as are structures already promoted. Sorted by structure key —
    /// deterministic.
    pub fn promotion_candidates(&self) -> Vec<PromotionCandidate> {
        let views: Vec<(&str, &Plan, bool)> = self
            .nodes
            .iter()
            .filter(|(_, node)| node.backing().is_none())
            .map(|(n, v)| (n.as_str(), v.engine.plan(), v.engine.options().minimize))
            .collect();
        promotion_candidates(&views)
            .into_iter()
            .filter(|c| {
                c.tables.iter().all(|t| !self.is_backing(t))
                    && self.promoted_backing(&c.structure).is_none()
            })
            .collect()
    }

    /// Promote a candidate subtree to a materialized intermediate:
    /// create a hidden backing table, populate it once (its own
    /// [`IdIvm::setup`] — caches, probe indexes, i-diff schemas), and
    /// rewrite every consumer view to scan the backing at the prefix
    /// boundary. Returns the backing table name.
    ///
    /// The caller must guarantee a quiescent catalog: every consumer
    /// fully maintained against the current base state and the
    /// database's modification log empty (the scheduler's promotion
    /// barrier drains before calling this). Otherwise the freshly
    /// populated backing would embed base changes its consumers have
    /// not seen.
    ///
    /// # Errors
    /// Unknown/stale candidate, nesting (the subtree scans another
    /// backing), or any setup failure — in which case already-rewired
    /// consumers are restored and the backing dropped before returning.
    pub fn promote(&mut self, candidate: &PromotionCandidate) -> Result<String> {
        if candidate.tables.iter().any(|t| self.is_backing(t)) {
            return Err(Error::Config(format!(
                "cannot promote `{}`: its subtree scans another backing table",
                candidate.label
            )));
        }
        if self.promoted_backing(&candidate.structure).is_some() {
            return Err(Error::Config(format!(
                "`{}` is already promoted",
                candidate.label
            )));
        }
        let consumers: Vec<&String> = candidate
            .consumers
            .iter()
            .filter(|c| self.view(c).is_ok())
            .collect();
        let Some(first) = consumers.first() else {
            return Err(Error::Config(format!(
                "candidate `{}` has no registered consumers",
                candidate.label
            )));
        };
        // The intermediate inherits the consumers' planning knobs
        // (minimize is part of the structure fingerprint, so all
        // consumers agree on it) but never their fault/trace/budget
        // state.
        let base_opts = self.view(first)?.engine.options();
        let options = IvmOptions {
            minimize: base_opts.minimize,
            parallel: base_opts.parallel,
            ..IvmOptions::default()
        };
        let mut backing = format!("__ivm{}", self.next_backing);
        while self.db.has_table(&backing) {
            self.next_backing += 1;
            backing = format!("__ivm{}", self.next_backing);
        }
        self.next_backing += 1;
        let role = Backing {
            structure: candidate.structure.clone(),
            label: candidate.label.clone(),
            consumers: BTreeSet::new(),
        };
        self.attach(
            &backing,
            candidate.subtree.clone(),
            Some(role),
            true,
            options,
        )?;
        let map = BTreeMap::from([(candidate.structure.clone(), self.backing_scan(&backing)?)]);
        for name in consumers {
            let view = self.view(name)?;
            let new_plan =
                substitute_structures(view.engine.plan(), view.engine.options().minimize, &map);
            if &new_plan == view.engine.plan() {
                continue;
            }
            if let Err(e) = self.rewire(name, new_plan) {
                // Roll the promotion back: demoting restores every
                // consumer rewired so far and drops the backing.
                let _ = self.demote(&backing);
                return Err(e);
            }
            if let Some(role) = self
                .nodes
                .get_mut(&backing)
                .and_then(CatalogView::backing_mut)
            {
                role.consumers.insert(name.clone());
            }
        }
        self.refresh_prefixes();
        Ok(backing)
    }

    /// Demote an intermediate: restore every consumer's plan (the
    /// backing scan is substituted back for the materialized subtree —
    /// the one `setup` actually materialized, after its `ensure_ids`),
    /// then drop the backing table and its caches. The same quiescence
    /// precondition as [`ViewCatalog::promote`] applies.
    ///
    /// # Errors
    /// Unknown backing name, or a consumer restore failure (consumers
    /// restored so far stay restored; the intermediate stays
    /// registered for a retry).
    pub fn demote(&mut self, backing: &str) -> Result<()> {
        let node = self.intermediate(backing)?;
        let (subtree, consumers) = (node.engine.plan().clone(), node.consumers().clone());
        for name in &consumers {
            let Ok(view) = self.view(name) else {
                continue;
            };
            let restored = substitute_scan(view.engine.plan(), backing, &subtree);
            self.rewire(name, restored)?;
            if let Some(role) = self
                .nodes
                .get_mut(backing)
                .and_then(CatalogView::backing_mut)
            {
                role.consumers.remove(name);
            }
        }
        self.drop_node(backing);
        self.refresh_prefixes();
        Ok(())
    }

    /// Rebuild one view's engine over a content-equivalent plan
    /// rewrite, keeping the view table and every shape-stable cache,
    /// and dropping caches the rewritten plan no longer defines.
    fn rewire(&mut self, name: &str, new_plan: Plan) -> Result<()> {
        let old = &self.view(name)?.engine;
        let options = old.options();
        let old_caches: Vec<String> = old.caches().iter().map(|d| d.name.clone()).collect();
        let engine = IdIvm::setup_over(&mut self.db, name, new_plan, options)?;
        let keep: BTreeSet<&str> = engine.caches().iter().map(|d| d.name.as_str()).collect();
        for cache in &old_caches {
            if !keep.contains(cache.as_str()) {
                self.db.drop_table(cache);
            }
        }
        let tables = scanned_tables(engine.plan());
        let view = self.view_mut(name)?;
        view.engine = engine;
        view.tables = tables;
        Ok(())
    }

    /// A scan of `backing`'s table, as consumers' plans carry it.
    fn backing_scan(&self, backing: &str) -> Result<Plan> {
        Ok(Plan::Scan {
            table: backing.to_string(),
            alias: backing.to_string(),
            schema: self.db.table(backing)?.schema().clone(),
        })
    }

    /// `plan` with every subtree a current intermediate materializes
    /// replaced by a scan of its backing.
    fn over_backings(&self, plan: Plan, minimize: bool) -> Result<Plan> {
        let mut map = BTreeMap::new();
        for (name, node) in &self.nodes {
            if let Some(backing) = node.backing() {
                map.insert(backing.structure.clone(), self.backing_scan(name)?);
            }
        }
        if map.is_empty() {
            return Ok(plan);
        }
        // Structure fingerprints are taken over ID-extended plans, so
        // extend before matching (setup re-runs `ensure_ids`, which is
        // idempotent).
        Ok(substitute_structures(&ensure_ids(plan)?, minimize, &map))
    }

    /// The materialized rows of a view, sorted (uncounted — reads are
    /// not maintenance cost). Served from the view's sorted snapshot,
    /// brought forward by the Δs of the rounds since the last read;
    /// always equal to sorting `table(name).rows_uncounted()`.
    ///
    /// # Errors
    /// Unknown view name.
    pub fn rows(&self, name: &str) -> Result<Vec<Row>> {
        self.view(name)?;
        Ok(self.read(name)?.0)
    }

    /// The one read path: node `name`'s rows, sorted, out of its
    /// snapshot. A snapshot that is missing (first read) or no longer
    /// describes the table (see [`Snapshot::settle`]) is rebuilt by
    /// clone-and-sort in the same call.
    pub(crate) fn read(&self, name: &str) -> Result<(Vec<Row>, ReadCost)> {
        let stored = self.db.table(name)?;
        let mut slot = self.get(name, None)?.snapshot.borrow_mut();
        if let Some((rows, merged)) = slot.as_mut().and_then(|s| s.settle(stored)) {
            let cost = ReadCost {
                rebuilt: false,
                merged,
            };
            return Ok((rows.to_vec(), cost));
        }
        let snapshot = Snapshot::build(stored);
        let rows = snapshot.rows().to_vec();
        *slot = Some(snapshot);
        let cost = ReadCost {
            rebuilt: true,
            merged: 0,
        };
        Ok((rows, cost))
    }

    /// Bit-identity fingerprint of a view's materialized table.
    ///
    /// # Errors
    /// Unknown view name.
    pub fn signature(&self, name: &str) -> Result<TableSignature> {
        self.view(name)?;
        Ok(self.db.table(name)?.signature())
    }
}

/// Base tables scanned by a plan, sorted and deduplicated.
fn scanned_tables(plan: &Plan) -> Vec<String> {
    let mut tables: Vec<String> = plan.scans().into_iter().map(|(_, t)| t.to_string()).collect();
    tables.sort();
    tables.dedup();
    tables
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use idivm_exec::executor::sorted;
    use idivm_reldb::StatsSnapshot;
    use idivm_types::row;
    use idivm_workloads::MultiView;

    fn config() -> MultiView {
        MultiView {
            bsma: idivm_workloads::bsma::Bsma {
                scale: 0.05,
                seed: 11,
            },
        }
    }

    fn suite() -> (MultiView, ViewCatalog) {
        let cfg = config();
        let db = cfg.build().unwrap();
        let mut catalog = ViewCatalog::new(db);
        let views = cfg.views(catalog.db()).unwrap();
        for (name, plan) in views {
            catalog
                .register(&name, plan, IvmOptions::default())
                .unwrap();
        }
        (cfg, catalog)
    }

    #[test]
    fn dag_maps_tables_to_sorted_dependents() {
        let (_, catalog) = suite();
        let dag = catalog.dependency_dag();
        // Every view scans mentions + microblog.
        assert_eq!(dag["mentions"].len(), 5);
        assert_eq!(dag["microblog"].len(), 5);
        // Only the three user-joining views scan users.
        assert_eq!(
            dag["users"],
            vec![
                "mention_favor".to_string(),
                "mention_reach".to_string(),
                "mention_users".to_string()
            ]
        );
    }

    #[test]
    fn q7_family_shares_a_designated_prefix() {
        let (_, catalog) = suite();
        // Four of the five views carry designated shared boundaries:
        // the σ_ts(mentions ⋈ microblog) subtree occurs in all of them
        // with *identical* base diff schemas.
        for name in [
            "mention_favor",
            "mention_reach",
            "mention_timeline",
            "mention_users",
        ] {
            assert!(
                !catalog.view(name).unwrap().prefixes().is_empty(),
                "{name} shares no prefix"
            );
        }
        // Negative control: `mention_topic_counts` groups on
        // `microblog.topic`, which makes `topic` a conditional
        // attribute *in that view only*. Its microblog update-diff
        // schemas therefore split differently from the other views'
        // and the same structural subtree would populate different
        // diff instances — sharing would be unsound, and detection
        // must refuse to designate.
        assert!(
            catalog.view("mention_topic_counts").unwrap().prefixes().is_empty(),
            "topic_counts has an incompatible diff-schema split and must not share"
        );
    }

    #[test]
    fn duplicate_and_unknown_names_are_config_errors() {
        let (cfg, mut catalog) = suite();
        let plan = cfg.plan(catalog.db(), "mention_timeline").unwrap();
        assert!(catalog
            .register("mention_timeline", plan, IvmOptions::default())
            .is_err());
        assert!(catalog.view("nope").is_err());
        assert!(catalog.unregister("nope").is_err());
    }

    #[test]
    fn unregister_drops_tables_and_redesignates() {
        let (_, mut catalog) = suite();
        // Removing two of the "other" views leaves mention_users +
        // mention_reach + mention_favor, which still share pairwise.
        catalog.unregister("mention_timeline").unwrap();
        catalog.unregister("mention_topic_counts").unwrap();
        assert!(!catalog.db().has_table("mention_timeline"));
        assert_eq!(catalog.len(), 3);
        for name in catalog.names() {
            assert!(!catalog.view(name).unwrap().prefixes().is_empty());
        }
        // mention_users + mention_reach still share the deep
        // `prefix ⋈ users` subtree.
        catalog.unregister("mention_favor").unwrap();
        assert!(!catalog
            .view("mention_users")
            .unwrap()
            .prefixes()
            .is_empty());
        // Dropping one more leaves a single view — nothing to share.
        catalog.unregister("mention_reach").unwrap();
        assert!(catalog
            .view("mention_users")
            .unwrap()
            .prefixes()
            .is_empty());
    }

    /// A backing round that ends in a recompute recovery reports no Δ
    /// of its own; consumers must still be handed exactly what changed
    /// in the backing table. Only the supervisor recomputes, so a plain
    /// round's Δ is always its own and the backing is never read.
    #[test]
    fn recovered_backing_round_still_hands_consumers_the_exact_delta() {
        use idivm_core::{EngineConfig, FaultPlan, FaultSite, SupervisorVerdict};
        let (cfg, mut catalog) = suite();
        let candidate = catalog
            .promotion_candidates()
            .into_iter()
            .find(|c| c.label == "join[mentions,microblog,users]")
            .unwrap();
        let backing = catalog.promote(&candidate).unwrap();
        let backing_rows =
            |catalog: &ViewCatalog| sorted(catalog.db().table(&backing).unwrap().rows_uncounted());
        let key = catalog
            .db()
            .table(&backing)
            .unwrap()
            .schema()
            .key()
            .to_vec();

        // Clean round: the Δ is the round's own, and the backing was
        // never read.
        cfg.tweet_batch(catalog.db_mut(), 24, 1).unwrap();
        let net = catalog.db().fold_log();
        catalog.db_mut().clear_log();
        let before = backing_rows(&catalog);
        let (report, delta) = catalog.maintain(&backing, &net, None).unwrap();
        assert!(!report.recovered && !delta.is_empty());
        assert_eq!(*delta, table_delta(&before, &backing_rows(&catalog), &key));
        assert!(catalog.nodes[&backing].snapshot.borrow().is_none());

        // Every incremental attempt fails; the supervisor repairs the
        // backing by recompute.
        let engine = catalog.intermediate_mut(&backing).unwrap().engine_mut();
        engine.set_faults(FaultPlan::at(FaultSite::Operator, 1, 2015).permanent());
        cfg.tweet_batch(catalog.db_mut(), 24, 2).unwrap();
        let net = catalog.db().fold_log();
        catalog.db_mut().clear_log();
        let before = backing_rows(&catalog);
        let straight_to_recompute = SupervisorConfig {
            max_retries: 0,
            bisect: false,
            ..SupervisorConfig::default()
        };
        let (supervised, delta) = catalog
            .maintain_supervised(&backing, &net, straight_to_recompute)
            .unwrap();
        assert_eq!(supervised.verdict, SupervisorVerdict::Recomputed);
        let report = supervised.last_round.unwrap();
        assert!(report.recovered && report.view_changes.is_empty());
        assert!(!delta.is_empty(), "the batch did not change the backing");
        assert_eq!(delta, table_delta(&before, &backing_rows(&catalog), &key));
    }

    /// What registering `name` left behind: the signatures of the view's
    /// table and of each of its caches, and the accesses it made.
    fn register_measured(
        catalog: &mut ViewCatalog,
        name: &str,
        plan: Plan,
    ) -> (Vec<TableSignature>, StatsSnapshot) {
        let before = catalog.db().stats().snapshot();
        catalog.register(name, plan, IvmOptions::default()).unwrap();
        let spent = catalog.db().stats().snapshot().since(&before);
        let mut signatures = vec![catalog.signature(name).unwrap()];
        for def in catalog.view(name).unwrap().engine().caches() {
            signatures.push(catalog.db().table(&def.name).unwrap().signature());
        }
        (signatures, spent)
    }

    /// A tweet inside the suite's time range and a mention of it: a
    /// change to the rows of the prefix every view shares.
    fn mention_a_new_tweet(cfg: &MultiView, db: &mut Database) {
        let (lo, _) = cfg.bsma.time_range();
        db.insert("microblog", row![9_999_999, 1, lo, 3]).unwrap();
        db.insert("mentions", row![9_999_999, 1]).unwrap();
    }

    /// Registering the suite into one catalog — later views reading
    /// the prefix rows earlier ones left in the memo — leaves every view
    /// and cache table and every access count exactly as registering
    /// each view alone into a fresh catalog does; so does a base change
    /// between two registrations, against fresh catalogs that see it.
    #[test]
    fn registration_through_the_memo_matches_registering_each_view_alone() {
        let cfg = config();
        for changed_before in [None, Some(2)] {
            let mut shared = ViewCatalog::new(cfg.build().unwrap());
            let (mut total, mut alone_total) = (StatsSnapshot::default(), StatsSnapshot::default());
            for (i, (name, plan)) in cfg.views(shared.db()).unwrap().into_iter().enumerate() {
                let changed = changed_before.is_some_and(|at| i >= at);
                if changed_before == Some(i) {
                    mention_a_new_tweet(&cfg, shared.db_mut());
                }
                let (_, claims) = shared.memo_counts();
                let got = register_measured(&mut shared, &name, plan.clone());
                let mut db = cfg.build().unwrap();
                if changed {
                    mention_a_new_tweet(&cfg, &mut db);
                }
                let want = register_measured(&mut ViewCatalog::new(db), &name, plan);
                assert!(got == want, "`{name}` differs (changed: {changed})");
                // The first view keeps nothing (no plan seen before it),
                // the second keeps the prefix, later ones read it — but
                // not a view right after a change, which keeps it anew.
                let claimed = shared.memo_counts().1 > claims;
                assert_eq!(
                    claimed,
                    i >= 2 && changed_before != Some(i),
                    "`{name}` (changed: {changed}): claimed {claimed}"
                );
                total = total.merge(got.1);
                alone_total = alone_total.merge(want.1);
            }
            assert_eq!(total, alone_total);
        }
    }

    /// A grouped view over a join, registered three times under three
    /// names, and registered, unregistered and registered again twice
    /// under one: from the third registration on the memo holds the
    /// whole plan, but its `#cache` lies below the root, so the root is
    /// evaluated and the cache's subtree claimed. Every table and count
    /// equals the same registrations with the memo emptied before each.
    #[test]
    fn a_view_whose_cache_lies_under_a_held_subtree_registers_as_without_the_memo() {
        let cfg = config();
        for view in ["mention_topic_counts", "mention_favor"] {
            for reregister in [false, true] {
                let mut with = ViewCatalog::new(cfg.build().unwrap());
                let mut without = ViewCatalog::new(cfg.build().unwrap());
                let plan = cfg.plan(with.db(), view).unwrap();
                for copy in 0..3 {
                    let name = if reregister {
                        if copy > 0 {
                            with.unregister(view).unwrap();
                            without.unregister(view).unwrap();
                        }
                        view.to_string()
                    } else {
                        format!("{view}_{copy}")
                    };
                    without.forget_subplans();
                    let got = register_measured(&mut with, &name, plan.clone());
                    let want = register_measured(&mut without, &name, plan.clone());
                    assert!(got.0.len() > 1, "`{view}` has no cache");
                    assert!(got == want, "`{name}` copy {copy} differs");
                }
                assert!(with.memo_counts().1 > 0, "`{view}` claimed nothing");
                assert_eq!(without.memo_counts().1, 0);
            }
        }
    }

    /// The memo holds no rows once the stream runs: the first tick that
    /// folds a change empties it, a tick without changes does not.
    #[test]
    fn the_first_tick_with_changes_empties_the_memo() {
        use crate::scheduler::{MaintenanceScheduler, RefreshPolicy, SchedulerConfig};
        let cfg = config();
        let mut sched = MaintenanceScheduler::new(cfg.build().unwrap(), SchedulerConfig::default());
        for (name, plan) in cfg.views(sched.db()).unwrap() {
            sched
                .register(&name, plan, RefreshPolicy::Eager, IvmOptions::default())
                .unwrap();
        }
        assert!(sched.catalog().memo_counts().0 > 0);
        sched.tick().unwrap();
        assert!(sched.catalog().memo_counts().0 > 0);
        mention_a_new_tweet(&cfg, sched.db_mut());
        sched.tick().unwrap();
        assert_eq!(sched.catalog().memo_counts().0, 0);
    }
}
