//! The multi-view catalog: many named [`IdIvm`] views registered over
//! one shared [`Database`], with the base-table → view dependency DAG
//! and the cross-view shared-prefix designations kept current on every
//! registration.
//!
//! The catalog is the *structural* layer: it knows which views exist,
//! which base tables each one depends on, and which operator subtrees
//! are shared (so one i-diff computation can serve several views). The
//! *temporal* layer — per-view refresh policies, pending-change
//! accumulation, and failure routing — lives on top of it in
//! [`crate::scheduler::MaintenanceScheduler`].

use crate::snapshot::Snapshot;
use idivm_algebra::{ensure_ids, Plan};
use idivm_core::supervisor::{MaintenanceSupervisor, SupervisorConfig, SupervisorReport};
use idivm_core::{
    detect_shared_prefixes, promotion_candidates, substitute_scan, substitute_structures,
    EngineConfig, IdIvm, IvmOptions, MaintenanceReport, PromotionCandidate, RecoveryPolicy,
    SharedDiffCache, SharedPrefixes,
};
use idivm_reldb::{table_delta, Database, TableChanges, TableSignature};
use idivm_types::{Error, Result, Row};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// One registered view: its engine, its shared-prefix designations
/// (recomputed whenever the registered set changes), and the base
/// tables it scans.
pub struct CatalogView {
    engine: IdIvm,
    prefixes: SharedPrefixes,
    tables: Vec<String>,
    /// The plan as the user registered it, before any adaptive
    /// intermediate rewrites — the demotion restore target and the
    /// promotion-transparency oracle.
    source: Plan,
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

    /// The view's current shared-prefix designations.
    pub fn prefixes(&self) -> &SharedPrefixes {
        &self.prefixes
    }

    /// Base tables the view scans, sorted and deduplicated. After a
    /// promotion rewrite this includes the backing tables the view now
    /// scans instead of the promoted subtrees.
    pub fn tables(&self) -> &[String] {
        &self.tables
    }

    /// The registered (pre-rewrite) plan — what the view *means*,
    /// independent of which prefixes are currently materialized.
    pub fn source_plan(&self) -> &Plan {
        &self.source
    }
}

/// A promoted shared prefix: a hidden backing table materializing one
/// operator subtree, maintained once per round by its own i-diff engine
/// while every consumer view scans the backing instead of recomputing
/// the subtree. Created by [`ViewCatalog::promote`], dropped by
/// [`ViewCatalog::demote`].
pub struct IntermediateView {
    engine: IdIvm,
    /// Shared-prefix designations inside the backing's own subtree —
    /// a deep intermediate can contain a shallower designated prefix
    /// (its own, or one still inlined in unpromoted views), and its
    /// maintenance walk publishes/reuses those diffs through the same
    /// per-round cache as the views.
    prefixes: SharedPrefixes,
    /// The (ID-extended) subtree the backing table replaced — the
    /// demotion restore source.
    subtree: Plan,
    /// Structure-only fingerprint of the subtree
    /// (`idivm_core::structure_key`).
    structure: String,
    /// Human-readable label (`op[tables…]`).
    label: String,
    /// Base tables the subtree scans, sorted and deduplicated.
    tables: Vec<String>,
    /// Views currently rewritten to scan the backing.
    consumers: BTreeSet<String>,
}

impl IntermediateView {
    /// The backing table's maintenance engine.
    pub fn engine(&self) -> &IdIvm {
        &self.engine
    }

    /// Mutable engine access (knobs — trace, faults — for tests and
    /// benches; same surface as [`CatalogView::engine_mut`]).
    pub fn engine_mut(&mut self) -> &mut IdIvm {
        &mut self.engine
    }

    /// The materialized subtree.
    pub fn subtree(&self) -> &Plan {
        &self.subtree
    }

    /// Shared-prefix designations inside the backing's subtree.
    pub fn prefixes(&self) -> &SharedPrefixes {
        &self.prefixes
    }

    /// Structure-only fingerprint of the subtree.
    pub fn structure(&self) -> &str {
        &self.structure
    }

    /// Human-readable label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Base tables the subtree scans.
    pub fn tables(&self) -> &[String] {
        &self.tables
    }

    /// Views currently consuming the backing table.
    pub fn consumers(&self) -> &BTreeSet<String> {
        &self.consumers
    }
}

/// Many named views over one shared database. Registration keeps the
/// dependency DAG and the shared-prefix designations current; views are
/// always iterated in name order, so every catalog operation is
/// deterministic for any `HashMap` iteration order or thread count.
pub struct ViewCatalog {
    db: Database,
    views: BTreeMap<String, CatalogView>,
    /// Promoted intermediates, keyed by backing table name.
    intermediates: BTreeMap<String, IntermediateView>,
    /// Monotone counter for backing-table names — promotion order is
    /// deterministic, so the names are byte-identical across runs.
    next_backing: u64,
    /// Sorted row snapshots of the tables that have been read (views,
    /// and backings whose pre-image a round needed), keyed by table
    /// name. Interior: reading a view is `&self`, and bringing its
    /// snapshot forward is part of reading it.
    snapshots: RefCell<HashMap<String, Snapshot>>,
}

/// What serving one read cost.
pub(crate) struct ReadCost {
    /// The snapshot was missing or refused and the rows were cloned out
    /// of the table and sorted.
    pub(crate) rebuilt: bool,
    /// Row images of earlier rounds merged into the snapshot.
    pub(crate) merged: usize,
}

impl ViewCatalog {
    /// Wrap an existing database (the catalog takes ownership; base
    /// modifications go through [`ViewCatalog::db_mut`]).
    pub fn new(db: Database) -> Self {
        ViewCatalog {
            db,
            views: BTreeMap::new(),
            intermediates: BTreeMap::new(),
            next_backing: 0,
            snapshots: RefCell::new(HashMap::new()),
        }
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
        if self.views.contains_key(name) {
            return Err(Error::Config(format!(
                "view `{name}` is already registered"
            )));
        }
        if self.db.has_table(name) {
            return Err(Error::Config(format!(
                "view name `{name}` collides with an existing table"
            )));
        }
        let source = plan.clone();
        let plan = if self.intermediates.is_empty() {
            plan
        } else {
            // Structure fingerprints are taken over ID-extended plans,
            // so extend before matching (setup re-runs `ensure_ids`,
            // which is idempotent).
            let plan = ensure_ids(plan)?;
            let map = self.backing_substitutions()?;
            substitute_structures(&plan, options.minimize, &map)
        };
        let engine = IdIvm::setup(&mut self.db, name, plan, options)?;
        let tables = scanned_tables(engine.plan());
        for (backing, iv) in &mut self.intermediates {
            if tables.iter().any(|t| t == backing) {
                iv.consumers.insert(name.to_string());
            }
        }
        self.views.insert(
            name.to_string(),
            CatalogView {
                engine,
                prefixes: SharedPrefixes::none(),
                tables,
                source,
            },
        );
        self.refresh_prefixes();
        Ok(())
    }

    /// Re-register a view over tables that **already hold its
    /// materialized state** — the crash-recovery path. Identical to
    /// [`ViewCatalog::register`] except the engine is rebuilt with
    /// [`IdIvm::setup_over`], which reuses every shape-matched table
    /// (the view table and its caches) instead of re-materializing from
    /// current base state. Re-materializing would be wrong for a
    /// recovered deferred/`OnRead` view with a non-empty pending net:
    /// its table holds `Q(base at last drain)`, not `Q(current base)`.
    ///
    /// Promoted intermediates must be reattached (in the checkpoint's
    /// backing order) *before* the views, so the same
    /// structure-substitution rewrite that [`ViewCatalog::register`]
    /// applies reproduces each view's rewired plan.
    ///
    /// # Errors
    /// Duplicate name ([`Error::Config`]) or any [`IdIvm::setup_over`]
    /// failure.
    pub fn reattach(&mut self, name: &str, plan: Plan, options: IvmOptions) -> Result<()> {
        if self.views.contains_key(name) {
            return Err(Error::Config(format!(
                "view `{name}` is already registered"
            )));
        }
        let source = plan.clone();
        let plan = if self.intermediates.is_empty() {
            plan
        } else {
            let plan = ensure_ids(plan)?;
            let map = self.backing_substitutions()?;
            substitute_structures(&plan, options.minimize, &map)
        };
        let engine = IdIvm::setup_over(&mut self.db, name, plan, options)?;
        let tables = scanned_tables(engine.plan());
        for (backing, iv) in &mut self.intermediates {
            if tables.iter().any(|t| t == backing) {
                iv.consumers.insert(name.to_string());
            }
        }
        self.views.insert(
            name.to_string(),
            CatalogView {
                engine,
                prefixes: SharedPrefixes::none(),
                tables,
                source,
            },
        );
        self.refresh_prefixes();
        Ok(())
    }

    /// Recovery-path counterpart of [`ViewCatalog::promote`]: rebuild a
    /// promoted intermediate's registration over its **already
    /// populated** backing table. The engine is reattached with
    /// [`IdIvm::setup_over`] (no re-materialization) and the consumer
    /// set is taken verbatim from the checkpoint — consumer views are
    /// reattached afterwards and rewired through the substitution map
    /// this entry feeds.
    ///
    /// # Errors
    /// Duplicate backing name ([`Error::Config`]) or any
    /// [`IdIvm::setup_over`] failure.
    pub fn reattach_intermediate(
        &mut self,
        backing: &str,
        subtree: Plan,
        structure: String,
        label: String,
        consumers: BTreeSet<String>,
        options: IvmOptions,
    ) -> Result<()> {
        if self.intermediates.contains_key(backing) {
            return Err(Error::Config(format!(
                "intermediate `{backing}` is already registered"
            )));
        }
        let engine = IdIvm::setup_over(&mut self.db, backing, subtree, options)?;
        let subtree = engine.plan().clone();
        let tables = scanned_tables(&subtree);
        self.intermediates.insert(
            backing.to_string(),
            IntermediateView {
                engine,
                prefixes: SharedPrefixes::none(),
                subtree,
                structure,
                label,
                tables,
                consumers,
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
    /// registration. Remaining views' shared-prefix designations are
    /// recomputed (a prefix shared only with the dropped view loses its
    /// designation). Intermediates the view consumed lose it from their
    /// consumer sets — the scheduler's cost model demotes an
    /// intermediate whose consumer set collapses.
    ///
    /// # Errors
    /// Unknown view name ([`Error::Config`]).
    pub fn unregister(&mut self, name: &str) -> Result<()> {
        let view = self
            .views
            .remove(name)
            .ok_or_else(|| Error::Config(format!("view `{name}` is not registered")))?;
        for def in view.engine.caches() {
            self.db.drop_table(&def.name);
        }
        self.db.drop_table(name);
        self.snapshots.get_mut().remove(name);
        for iv in self.intermediates.values_mut() {
            iv.consumers.remove(name);
        }
        self.refresh_prefixes();
        Ok(())
    }

    /// Recompute shared-prefix designations across every view *and*
    /// every promoted intermediate (name order — deterministic).
    /// Intermediates participate because a deep backing's subtree can
    /// contain a shallower designated prefix — e.g. the deep
    /// `⋈ users` backing contains the `σ_ts(⋈)` subtree that a second
    /// backing (or an unpromoted view) also computes; intermediates
    /// run first in every round, so their publishes are consumable by
    /// both the other backings and the views.
    fn refresh_prefixes(&mut self) {
        let engines: Vec<&IdIvm> = self
            .views
            .values()
            .map(|v| &v.engine)
            .chain(self.intermediates.values().map(|iv| &iv.engine))
            .collect();
        let mut prefixes = detect_shared_prefixes(&engines).into_iter();
        for view in self.views.values_mut() {
            view.prefixes = prefixes.next().unwrap_or_else(SharedPrefixes::none);
        }
        for iv in self.intermediates.values_mut() {
            iv.prefixes = prefixes.next().unwrap_or_else(SharedPrefixes::none);
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

    /// Tear down the catalog, returning the database (views stay
    /// materialized as plain tables).
    pub fn into_db(self) -> Database {
        self.db
    }

    /// Registered view names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.views.keys().map(String::as_str).collect()
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True iff no view is registered.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Look up a registered view.
    ///
    /// # Errors
    /// Unknown view name ([`Error::Config`]).
    pub fn view(&self, name: &str) -> Result<&CatalogView> {
        self.views
            .get(name)
            .ok_or_else(|| Error::Config(format!("view `{name}` is not registered")))
    }

    /// Mutable view access (engine knob configuration).
    ///
    /// # Errors
    /// Unknown view name ([`Error::Config`]).
    pub fn view_mut(&mut self, name: &str) -> Result<&mut CatalogView> {
        self.views
            .get_mut(name)
            .ok_or_else(|| Error::Config(format!("view `{name}` is not registered")))
    }

    /// The table → dependent-views DAG: every table scanned by at
    /// least one view or intermediate, mapped to the (sorted) names of
    /// the views that scan it. Promoted intermediates appear as
    /// *internal nodes*: their backing table is a dependent of the base
    /// tables its subtree scans, and consumer views are dependents of
    /// the backing table — views-over-intermediates.
    pub fn dependency_dag(&self) -> BTreeMap<String, Vec<String>> {
        let mut dag: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (name, view) in &self.views {
            for t in &view.tables {
                dag.entry(t.clone()).or_default().push(name.clone());
            }
        }
        for (backing, iv) in &self.intermediates {
            for t in &iv.tables {
                dag.entry(t.clone()).or_default().push(backing.clone());
            }
        }
        for dependents in dag.values_mut() {
            dependents.sort();
        }
        dag
    }

    /// The (sorted) views that scan `table` — the fan-out set of one
    /// base-table modification.
    pub fn dependents(&self, table: &str) -> Vec<&str> {
        self.views
            .iter()
            .filter(|(_, v)| v.tables.iter().any(|t| t == table))
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// Restrict a folded net-change set to the tables `view` scans —
    /// the per-view slice of a shared modification batch.
    ///
    /// # Errors
    /// Unknown view name ([`Error::Config`]).
    pub fn restrict_net(
        &self,
        name: &str,
        net: &HashMap<String, TableChanges>,
    ) -> Result<HashMap<String, TableChanges>> {
        let view = self.view(name)?;
        Ok(net
            .iter()
            .filter(|(t, _)| view.tables.contains(t))
            .map(|(t, c)| (t.clone(), c.clone()))
            .collect())
    }

    /// Run one atomic maintenance round for `name` over an externally
    /// folded change set, with shared-prefix reuse through `cache`
    /// (create one [`SharedDiffCache`] per scheduler round and share it
    /// between every view maintained in that round).
    ///
    /// # Errors
    /// Unknown view name, or any
    /// [`IdIvm::maintain_with_changes_shared`] failure (the round has
    /// been rolled back; the caller still owns `net`).
    pub fn maintain_shared(
        &mut self,
        name: &str,
        net: &HashMap<String, TableChanges>,
        cache: &mut SharedDiffCache,
    ) -> Result<MaintenanceReport> {
        let view = self
            .views
            .get(name)
            .ok_or_else(|| Error::Config(format!("view `{name}` is not registered")))?;
        let pre = self.db.table(name)?.version();
        let report =
            view.engine
                .maintain_with_changes_shared(&mut self.db, net, &view.prefixes, cache)?;
        self.advance_snapshot(name, pre, &report);
        Ok(report)
    }

    /// Run one atomic maintenance round for `name` without prefix
    /// sharing (the independent-maintenance baseline).
    ///
    /// # Errors
    /// Same conditions as [`ViewCatalog::maintain_shared`].
    pub fn maintain_independent(
        &mut self,
        name: &str,
        net: &HashMap<String, TableChanges>,
    ) -> Result<MaintenanceReport> {
        let view = self
            .views
            .get(name)
            .ok_or_else(|| Error::Config(format!("view `{name}` is not registered")))?;
        let pre = self.db.table(name)?.version();
        let report = view.engine.maintain_with_changes(&mut self.db, net)?;
        self.advance_snapshot(name, pre, &report);
        Ok(report)
    }

    /// Drive `name`'s pending changes through a per-view
    /// [`MaintenanceSupervisor`] (retry → bisect/quarantine → recompute
    /// → degrade). Never returns `Err` for maintenance failures — the
    /// verdict in the report is the signal; the view's quarantine and
    /// rollback machinery cannot touch sibling views (each round only
    /// mutates this view's table and caches).
    ///
    /// # Errors
    /// Unknown view name ([`Error::Config`]) only.
    pub fn maintain_supervised(
        &mut self,
        name: &str,
        net: &HashMap<String, TableChanges>,
        config: SupervisorConfig,
    ) -> Result<SupervisorReport> {
        let view = self
            .views
            .get_mut(name)
            .ok_or_else(|| Error::Config(format!("view `{name}` is not registered")))?;
        let mut supervisor = MaintenanceSupervisor::new(&mut view.engine, config);
        Ok(supervisor.run_with_changes(&mut self.db, net))
    }

    // ------------------------------------------------------------------
    // Adaptive intermediate views (promotion / demotion)
    // ------------------------------------------------------------------

    /// Backing-table names of the current intermediates, sorted.
    pub fn intermediate_names(&self) -> Vec<&str> {
        self.intermediates.keys().map(String::as_str).collect()
    }

    /// Look up an intermediate by backing-table name.
    ///
    /// # Errors
    /// Unknown backing name ([`Error::Config`]).
    pub fn intermediate(&self, backing: &str) -> Result<&IntermediateView> {
        self.intermediates
            .get(backing)
            .ok_or_else(|| Error::Config(format!("intermediate `{backing}` does not exist")))
    }

    /// Mutable intermediate access (engine knobs — trace, faults).
    ///
    /// # Errors
    /// Unknown backing name ([`Error::Config`]).
    pub fn intermediate_mut(&mut self, backing: &str) -> Result<&mut IntermediateView> {
        self.intermediates
            .get_mut(backing)
            .ok_or_else(|| Error::Config(format!("intermediate `{backing}` does not exist")))
    }

    /// Backing table name of the intermediate materializing
    /// `structure`, if one exists.
    pub fn promoted_backing(&self, structure: &str) -> Option<&str> {
        self.intermediates
            .iter()
            .find(|(_, iv)| iv.structure == structure)
            .map(|(b, _)| b.as_str())
    }

    /// Promotable subtrees across the current (possibly already
    /// rewritten) view plans: operator structures with ≥ 2 base-table
    /// scans occurring in ≥ 2 distinct views. Structures that scan a
    /// backing table are excluded (intermediates stay one level deep),
    /// as are structures already promoted. Sorted by structure key —
    /// deterministic.
    pub fn promotion_candidates(&self) -> Vec<PromotionCandidate> {
        let views: Vec<(&str, &Plan, bool)> = self
            .views
            .iter()
            .map(|(n, v)| (n.as_str(), v.engine.plan(), v.engine.options().minimize))
            .collect();
        promotion_candidates(&views)
            .into_iter()
            .filter(|c| {
                c.tables
                    .iter()
                    .all(|t| !self.intermediates.contains_key(t))
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
        if candidate
            .tables
            .iter()
            .any(|t| self.intermediates.contains_key(t))
        {
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
        let consumers: Vec<String> = candidate
            .consumers
            .iter()
            .filter(|c| self.views.contains_key(*c))
            .cloned()
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
        let base_opts = self.views[first].engine.options();
        let options = IvmOptions {
            minimize: base_opts.minimize,
            use_input_caches: base_opts.use_input_caches,
            parallel: base_opts.parallel,
            ..IvmOptions::default()
        };
        let mut backing = format!("__ivm{}", self.next_backing);
        while self.db.has_table(&backing) {
            self.next_backing += 1;
            backing = format!("__ivm{}", self.next_backing);
        }
        self.next_backing += 1;
        let engine = IdIvm::setup(&mut self.db, &backing, candidate.subtree.clone(), options)?;
        // `setup` re-runs `ensure_ids`; keep the subtree it actually
        // materialized so demotion restores exactly what consumers get
        // rewritten against.
        let subtree = engine.plan().clone();
        let schema = match self.db.table(&backing) {
            Ok(t) => t.schema().clone(),
            Err(e) => return Err(e),
        };
        let scan = Plan::Scan {
            table: backing.clone(),
            alias: backing.clone(),
            schema,
        };
        let mut map = BTreeMap::new();
        map.insert(candidate.structure.clone(), scan);
        let mut rewired: Vec<String> = Vec::new();
        let mut rewired_consumers = BTreeSet::new();
        for name in &consumers {
            let minimize = self.views[name].engine.options().minimize;
            let new_plan = substitute_structures(self.views[name].engine.plan(), minimize, &map);
            if &new_plan == self.views[name].engine.plan() {
                continue;
            }
            if let Err(e) = self.rewire(name, new_plan) {
                // Roll the promotion back: restore every consumer
                // already rewired, then drop the backing.
                for done in &rewired {
                    let restored =
                        substitute_scan(self.views[done].engine.plan(), &backing, &subtree);
                    let _ = self.rewire(done, restored);
                }
                for def in engine.caches() {
                    self.db.drop_table(&def.name);
                }
                self.db.drop_table(&backing);
                self.refresh_prefixes();
                return Err(e);
            }
            rewired.push(name.clone());
            rewired_consumers.insert(name.clone());
        }
        let tables = scanned_tables(&subtree);
        self.intermediates.insert(
            backing.clone(),
            IntermediateView {
                engine,
                prefixes: SharedPrefixes::none(),
                subtree,
                structure: candidate.structure.clone(),
                label: candidate.label.clone(),
                tables,
                consumers: rewired_consumers,
            },
        );
        self.refresh_prefixes();
        Ok(backing)
    }

    /// Demote an intermediate: restore every consumer's plan (the
    /// backing scan is substituted back for the materialized subtree),
    /// then drop the backing table and its caches. The same quiescence
    /// precondition as [`ViewCatalog::promote`] applies.
    ///
    /// # Errors
    /// Unknown backing name, or a consumer restore failure (consumers
    /// restored so far stay restored; the intermediate stays
    /// registered for a retry).
    pub fn demote(&mut self, backing: &str) -> Result<()> {
        let (subtree, consumers) = {
            let iv = self.intermediate(backing)?;
            (iv.subtree.clone(), iv.consumers.clone())
        };
        for name in &consumers {
            if !self.views.contains_key(name) {
                continue;
            }
            let restored = substitute_scan(self.views[name].engine.plan(), backing, &subtree);
            self.rewire(name, restored)?;
            if let Some(iv) = self.intermediates.get_mut(backing) {
                iv.consumers.remove(name);
            }
        }
        if let Some(iv) = self.intermediates.remove(backing) {
            for def in iv.engine.caches() {
                self.db.drop_table(&def.name);
            }
        }
        self.db.drop_table(backing);
        self.snapshots.get_mut().remove(backing);
        self.refresh_prefixes();
        Ok(())
    }

    /// Run one atomic maintenance round for the intermediate `backing`
    /// over `net` (the folded base changes restricted to the subtree's
    /// tables). Returns the report plus the **backing Δ** — the net
    /// changes consumers must compose into their pendings under the
    /// backing table's name. The Δ comes straight from the round's
    /// [`MaintenanceReport::view_changes`]; after a recompute recovery
    /// (which rewrites the table wholesale) it falls back to a
    /// snapshot diff.
    ///
    /// # Errors
    /// Unknown backing name, or any maintenance failure (the round has
    /// been rolled back; escalate to
    /// [`ViewCatalog::maintain_intermediate_supervised`]).
    pub fn maintain_intermediate(
        &mut self,
        backing: &str,
        net: &HashMap<String, TableChanges>,
    ) -> Result<(MaintenanceReport, Arc<TableChanges>)> {
        self.intermediate_round(backing, net, None)
    }

    /// [`ViewCatalog::maintain_intermediate`] with shared-prefix reuse
    /// through the round's `cache` — the backing publishes (and
    /// consumes) designated sub-prefix diffs exactly like a view does,
    /// so a deep backing and a shallow backing over the same inner
    /// subtree compute that subtree's i-diffs once per round between
    /// them.
    ///
    /// # Errors
    /// Same conditions as [`ViewCatalog::maintain_intermediate`].
    pub fn maintain_intermediate_shared(
        &mut self,
        backing: &str,
        net: &HashMap<String, TableChanges>,
        cache: &mut SharedDiffCache,
    ) -> Result<(MaintenanceReport, Arc<TableChanges>)> {
        self.intermediate_round(backing, net, Some(cache))
    }

    fn intermediate_round(
        &mut self,
        backing: &str,
        net: &HashMap<String, TableChanges>,
        cache: Option<&mut SharedDiffCache>,
    ) -> Result<(MaintenanceReport, Arc<TableChanges>)> {
        let iv = self
            .intermediates
            .get(backing)
            .ok_or_else(|| Error::Config(format!("intermediate `{backing}` does not exist")))?;
        // Only a recompute recovery rewrites the backing without
        // reporting a Δ, and only an engine set to recover can do one:
        // under the default `Abort` no pre-image is taken at all.
        let pre_rows = match iv.engine.recovery() {
            RecoveryPolicy::RecomputeOnError => Some(self.read(backing)?.0),
            RecoveryPolicy::Abort => None,
        };
        let pre = self.db.table(backing)?.version();
        let report = match cache {
            Some(cache) => {
                iv.engine
                    .maintain_with_changes_shared(&mut self.db, net, &iv.prefixes, cache)?
            }
            None => iv.engine.maintain_with_changes(&mut self.db, net)?,
        };
        self.advance_snapshot(backing, pre, &report);
        let delta = match pre_rows {
            Some(pre_rows) if report.recovered => {
                let key = self.db.table(backing)?.schema().key().to_vec();
                Arc::new(table_delta(&pre_rows, &self.read(backing)?.0, &key))
            }
            _ => Arc::clone(&report.view_changes),
        };
        Ok((report, delta))
    }

    /// Drive an intermediate's pending changes through a per-view
    /// [`MaintenanceSupervisor`] — same isolation contract as
    /// [`ViewCatalog::maintain_supervised`]. The backing Δ is always
    /// recovered by snapshot diff (a supervised run only guarantees
    /// the final table state), so consumers stay exact even across
    /// quarantines and recompute escalations.
    ///
    /// # Errors
    /// Unknown backing name ([`Error::Config`]) only.
    pub fn maintain_intermediate_supervised(
        &mut self,
        backing: &str,
        net: &HashMap<String, TableChanges>,
        config: SupervisorConfig,
    ) -> Result<(SupervisorReport, TableChanges)> {
        self.intermediate(backing)?;
        let pre_rows = self.read(backing)?.0;
        let iv = self
            .intermediates
            .get_mut(backing)
            .ok_or_else(|| Error::Config(format!("intermediate `{backing}` does not exist")))?;
        let mut supervisor = MaintenanceSupervisor::new(&mut iv.engine, config);
        let report = supervisor.run_with_changes(&mut self.db, net);
        let key = self.db.table(backing)?.schema().key().to_vec();
        let delta = table_delta(&pre_rows, &self.read(backing)?.0, &key);
        Ok((report, delta))
    }

    /// Rebuild one view's engine over a content-equivalent plan
    /// rewrite, keeping the view table and every shape-stable cache,
    /// and dropping caches the rewritten plan no longer defines.
    fn rewire(&mut self, name: &str, new_plan: Plan) -> Result<()> {
        let (old_caches, options) = {
            let view = self.view(name)?;
            (
                view.engine
                    .caches()
                    .iter()
                    .map(|d| d.name.clone())
                    .collect::<Vec<String>>(),
                view.engine.options(),
            )
        };
        let engine = IdIvm::setup_over(&mut self.db, name, new_plan, options)?;
        let keep: BTreeSet<&str> = engine.caches().iter().map(|d| d.name.as_str()).collect();
        for cache in &old_caches {
            if !keep.contains(cache.as_str()) {
                self.db.drop_table(cache);
            }
        }
        let tables = scanned_tables(engine.plan());
        let view = self
            .views
            .get_mut(name)
            .ok_or_else(|| Error::Config(format!("view `{name}` is not registered")))?;
        view.engine = engine;
        view.tables = tables;
        Ok(())
    }

    /// structure → backing-scan substitution map over the current
    /// intermediates.
    fn backing_substitutions(&self) -> Result<BTreeMap<String, Plan>> {
        let mut map = BTreeMap::new();
        for (backing, iv) in &self.intermediates {
            let schema = self.db.table(backing)?.schema().clone();
            map.insert(
                iv.structure.clone(),
                Plan::Scan {
                    table: backing.clone(),
                    alias: backing.clone(),
                    schema,
                },
            );
        }
        Ok(map)
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

    /// The one read path: `table`'s rows, sorted, out of its snapshot.
    /// A snapshot that is missing (first read) or no longer describes
    /// the table (see [`Snapshot::settle`]) is rebuilt by clone-and-sort
    /// in the same call.
    pub(crate) fn read(&self, table: &str) -> Result<(Vec<Row>, ReadCost)> {
        let stored = self.db.table(table)?;
        let mut snapshots = self.snapshots.borrow_mut();
        if let Some((rows, merged)) = snapshots.get_mut(table).and_then(|s| s.settle(stored)) {
            let cost = ReadCost {
                rebuilt: false,
                merged,
            };
            return Ok((rows.to_vec(), cost));
        }
        let snapshot = Snapshot::build(stored);
        let rows = snapshot.rows().to_vec();
        snapshots.insert(table.to_string(), snapshot);
        let cost = ReadCost {
            rebuilt: true,
            merged: 0,
        };
        Ok((rows, cost))
    }

    /// After a clean round on `table` that started at version `pre`:
    /// hand its snapshot (if the table has one) the round's Δ, or drop
    /// it when it cannot follow — a recompute recovery reports no Δ.
    fn advance_snapshot(&self, table: &str, pre: u64, report: &MaintenanceReport) {
        let mut snapshots = self.snapshots.borrow_mut();
        let Some(snapshot) = snapshots.get_mut(table) else {
            return;
        };
        let follows = !report.recovered
            && self
                .db
                .table(table)
                .is_ok_and(|t| snapshot.advance(pre, t.version(), &report.view_changes));
        if !follows {
            snapshots.remove(table);
        }
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
    use idivm_workloads::MultiView;

    fn suite() -> (MultiView, ViewCatalog) {
        let cfg = MultiView {
            bsma: idivm_workloads::bsma::Bsma {
                scale: 0.05,
                seed: 11,
            },
        };
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
        assert_eq!(
            catalog.dependents("users"),
            vec!["mention_favor", "mention_reach", "mention_users"]
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
    /// in the backing table. Under the default `Abort` policy that
    /// cannot happen, and the round takes no pre-image at all.
    #[test]
    fn recovered_backing_round_still_hands_consumers_the_exact_delta() {
        use idivm_core::FaultPlan;
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

        // Clean round under `Abort`: the Δ is the round's own, and the
        // backing was never read.
        cfg.tweet_batch(catalog.db_mut(), 24, 1).unwrap();
        let net = catalog.db().fold_log();
        catalog.db_mut().clear_log();
        let before = backing_rows(&catalog);
        let (report, delta) = catalog.maintain_intermediate(&backing, &net).unwrap();
        assert!(!report.recovered && !delta.is_empty());
        assert_eq!(*delta, table_delta(&before, &backing_rows(&catalog), &key));
        assert!(!catalog.snapshots.borrow().contains_key(&backing));

        // Every incremental attempt fails; the engine repairs the
        // backing by recompute.
        let engine = catalog.intermediate_mut(&backing).unwrap().engine_mut();
        engine.set_recovery(RecoveryPolicy::RecomputeOnError);
        engine.set_faults(FaultPlan::at_operator(1, 2015).permanent());
        cfg.tweet_batch(catalog.db_mut(), 24, 2).unwrap();
        let net = catalog.db().fold_log();
        catalog.db_mut().clear_log();
        let before = backing_rows(&catalog);
        let (report, delta) = catalog.maintain_intermediate(&backing, &net).unwrap();
        assert!(report.recovered && report.view_changes.is_empty());
        assert!(!delta.is_empty(), "the batch did not change the backing");
        assert_eq!(*delta, table_delta(&before, &backing_rows(&catalog), &key));
    }
}
