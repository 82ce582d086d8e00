//! The idIVM engine: view-definition-time setup (the four passes of
//! paper Section 4) and maintenance-time execution (Section 3's online
//! components).
//!
//! [`IdIvm::setup`] runs at view definition time:
//!
//! 1. **Pass 1** — ID inference: extend the plan so every subview keeps
//!    its ID attributes ([`idivm_algebra::ensure_ids`]).
//! 2. Base-table i-diff **schema generation**
//!    ([`crate::schema_gen::generate`]).
//! 3. **Cache planning** ([`crate::cache::plan_caches`]) and
//!    materialization of the view, the caches, and their indexes.
//!
//! Passes 2–4 (rule instantiation, composition, minimization) are
//! realized structurally: the rule set is instantiated per operator at
//! propagation time, composed by the bottom-up walk, and minimized by
//! the per-rule diff-local shortcuts (see [`crate::minimize`]).
//!
//! [`IdIvm::maintain`] runs the deferred-maintenance round: fold the
//! modification log into effective net changes, populate base i-diff
//! instances, propagate bottom-up (applying cache diffs at cache
//! boundaries), and apply the final i-diffs to the view.

use crate::access::{AccessCtx, PathId};
use crate::apply::apply_all;
use crate::cache::{apply_id_sets, plan_caches, CacheDef};
use crate::config::{EngineConfig, EngineKnobs};
use crate::diff::DiffInstance;
use crate::faults::{FaultPlan, FaultSite, RoundBudget};
use crate::report::MaintenanceReport;
use crate::round::{drive, Engine, Round};
use crate::rules::{propagate, IncomingDiff, RuleCtx};
use crate::schema_gen::{generate, populate, BaseDiffSchemas};
use crate::shared::{RoundKey, SharedDiffCache, SharedPrefixes};
use crate::trace::{op_label, TraceConfig, TracePhase};
use idivm_algebra::{ensure_ids, Plan};
use idivm_exec::{
    materialize_nodes, materialize_view, refresh_view, view_schema, ParallelConfig, SubplanMemo,
};
use idivm_reldb::{Database, Net, StatsSnapshot, TableChanges};
use idivm_types::{Error, Result, Schema};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Tuning knobs of the engine.
#[derive(Debug, Clone, Copy)]
pub struct IvmOptions {
    /// Pass-4 semantic minimization (Figure 8). On by default; the
    /// ablation benches switch it off.
    pub minimize: bool,
    /// Partitioned delta propagation: diff batches are cut into
    /// contiguous chunks and propagated on worker threads, with chunk
    /// outputs concatenated in input order before the (serial) Apply
    /// step. Serial by default; access counts are bit-identical for any
    /// thread count.
    pub parallel: ParallelConfig,
    /// Per-operator trace recording (off by default; zero cost when
    /// off). See [`crate::trace`].
    pub trace: TraceConfig,
    /// Deterministic fault injection (disabled by default; zero cost
    /// when off). See [`crate::faults`].
    pub faults: FaultPlan,
    /// Opt-in per-round access budget (unlimited by default; zero cost
    /// when off). A round exceeding it aborts with the retryable
    /// [`Error::Budget`](idivm_types::Error::Budget) and rolls back.
    pub budget: RoundBudget,
}

impl Default for IvmOptions {
    fn default() -> Self {
        IvmOptions {
            minimize: true,
            parallel: ParallelConfig::serial(),
            trace: TraceConfig::disabled(),
            faults: FaultPlan::disabled(),
            budget: RoundBudget::unlimited(),
        }
    }
}

/// An incrementally maintained view under ID-based IVM.
pub struct IdIvm {
    view_name: String,
    plan: Plan,
    minimize: bool,
    knobs: EngineKnobs,
    schemas: BaseDiffSchemas,
    cache_defs: Vec<CacheDef>,
    cache_map: HashMap<PathId, String>,
    /// The view's and each cache's Ī′ sets ([`apply_id_sets`]), by table.
    id_sets: Vec<(String, Vec<Vec<usize>>)>,
}

/// How set-up fills a view's table and caches.
enum Fill<'m> {
    /// Evaluate the plan, through the memo if one is given.
    Fresh(Option<&'m mut SubplanMemo>),
    /// Keep every shape-matched table ([`IdIvm::setup_over`]).
    Reuse,
}

impl EngineConfig for IdIvm {
    fn knobs(&self) -> &EngineKnobs {
        &self.knobs
    }
    fn knobs_mut(&mut self) -> &mut EngineKnobs {
        &mut self.knobs
    }
}

impl IdIvm {
    /// Register and materialize a view for ID-based maintenance.
    ///
    /// # Errors
    /// Plan validation/ID-inference failures, name collisions, unknown
    /// tables.
    pub fn setup(
        db: &mut Database,
        view_name: &str,
        plan: Plan,
        options: IvmOptions,
    ) -> Result<Self> {
        Self::setup_inner(db, view_name, plan, options, Fill::Fresh(None))
    }

    /// [`IdIvm::setup`] through a [`SubplanMemo`] shared by the views
    /// registered over `db`: a join subtree the memo holds rows of at
    /// the current table versions is read from it instead of evaluated,
    /// and the rows of one an earlier view through the memo also holds
    /// are kept in it. Tables, counts and the engine are as
    /// [`IdIvm::setup`] makes them.
    ///
    /// # Errors
    /// As [`IdIvm::setup`].
    pub fn setup_memoized(
        db: &mut Database,
        view_name: &str,
        plan: Plan,
        options: IvmOptions,
        memo: &mut SubplanMemo,
    ) -> Result<Self> {
        Self::setup_inner(db, view_name, plan, options, Fill::Fresh(Some(memo)))
    }

    /// Re-register a view over a *content-equivalent* rewrite of its
    /// plan — the promotion/demotion rewire path of the adaptive
    /// intermediate layer. Instead of re-materializing, the existing
    /// view table is kept when its storage shape (arity + key
    /// positions) matches the rewritten plan, and so is every cache
    /// whose name and shape survive the rewrite. Caches that only
    /// exist under the old plan must be dropped by the caller (the
    /// catalog knows the old definitions); caches new to the rewritten
    /// plan are materialized from scratch.
    ///
    /// The caller asserts the content invariant: the rewritten plan
    /// evaluates to exactly the same rows as the plan the kept tables
    /// were maintained under (true when a prefix subtree is swapped
    /// for a scan of its freshly populated backing table, and when the
    /// swap is reversed). Column *names* may drift (scan-alias
    /// prefixes); signatures fingerprint rows and index postings only,
    /// so a rewire is invisible to bit-identity checks.
    ///
    /// # Errors
    /// Same conditions as [`IdIvm::setup`], plus a storage-shape
    /// mismatch of the existing view table ([`Error::Plan`] — the
    /// rewrite was not content-equivalent).
    pub fn setup_over(
        db: &mut Database,
        view_name: &str,
        plan: Plan,
        options: IvmOptions,
    ) -> Result<Self> {
        Self::setup_inner(db, view_name, plan, options, Fill::Reuse)
    }

    fn setup_inner(
        db: &mut Database,
        view_name: &str,
        plan: Plan,
        options: IvmOptions,
        fill: Fill<'_>,
    ) -> Result<Self> {
        options.parallel.validate()?;
        // Pass 1: make every subview carry its IDs.
        let plan = ensure_ids(plan)?;
        plan.validate()?;
        // Base-table i-diff schemas (Section 5).
        let catalog = base_catalog(db, &plan)?;
        let schemas = generate(&plan, &catalog)?;
        // Probe indexes shared with the baseline (see
        // [`ensure_probe_indexes`]).
        ensure_probe_indexes(db, &plan)?;
        // Cache planning + materialization.
        let (cache_defs, cache_map) = plan_caches(&plan, view_name)?;
        let reuse = matches!(fill, Fill::Reuse);
        if let Fill::Fresh(memo) = fill {
            // One pass fills the view and every cache.
            let mut tables = vec![(&[][..], view_name)];
            tables.extend(cache_defs.iter().map(|d| (&d.path[..], d.name.as_str())));
            materialize_nodes(db, &plan, &tables, memo)?;
        } else if db.has_table(view_name) {
            ensure_storage_shape(db, view_name, &plan)?;
        } else {
            materialize_view(db, view_name, &plan)?;
        }
        for def in &cache_defs {
            if reuse {
                let sub = crate::access::node_at(&plan, &def.path)?.clone();
                if !db.has_table(&def.name) {
                    materialize_view(db, &def.name, &sub)?;
                } else if ensure_storage_shape(db, &def.name, &sub).is_err() {
                    // Same name, different shape after the rewrite:
                    // rebuild from scratch.
                    db.drop_table(&def.name);
                    materialize_view(db, &def.name, &sub)?;
                }
            }
            let t = db.table_mut(&def.name)?;
            for set in &def.index_sets {
                t.create_index_positions(set.clone());
            }
        }
        let mut id_sets = Vec::with_capacity(cache_map.len());
        for (path, name) in &cache_map {
            let node = crate::access::node_at(&plan, path)?;
            id_sets.push((name.clone(), apply_id_sets(node)?));
        }
        id_sets.sort();
        Ok(IdIvm {
            view_name: view_name.to_string(),
            plan,
            minimize: options.minimize,
            knobs: EngineKnobs {
                parallel: options.parallel,
                trace: options.trace,
                faults: options.faults,
                budget: options.budget,
            },
            schemas,
            cache_defs,
            cache_map,
            id_sets,
        })
    }

    /// True when the view and every cache carry an index on each Ī′ an
    /// i-diff can bring them ([`apply_id_sets`]). APPLY creates a
    /// missing one the first time a diff needs it, so until then a
    /// table's index set — part of its signature — depends on which
    /// diffs have reached it; from then on it no longer changes.
    pub fn has_every_id_index(&self, db: &Database) -> bool {
        self.id_sets.iter().all(|(name, sets)| {
            db.table(name)
                .is_ok_and(|t| sets.iter().all(|s| t.has_index(s)))
        })
    }

    /// Debug builds check that every diff APPLY receives is keyed by a
    /// set [`apply_id_sets`] names, so the test suites hold
    /// [`IdIvm::has_every_id_index`] to the diffs the rules emit.
    fn debug_check_id_sets(&self, table: &str, diffs: &[DiffInstance]) {
        if cfg!(debug_assertions) {
            let sets = self.id_sets.iter().find(|(name, _)| name == table);
            for diff in diffs {
                let ids = &diff.schema.id_cols;
                assert!(
                    sets.is_some_and(|(_, sets)| sets.contains(ids)) || diff.rows.is_empty(),
                    "`{table}` receives i-diffs keyed by {ids:?}, outside its Ī′ sets {sets:?}"
                );
            }
        }
    }

    /// The maintained view's name.
    pub fn view_name(&self) -> &str {
        &self.view_name
    }

    /// The (ID-extended) plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The generated base-table i-diff schemas.
    pub fn schemas(&self) -> &BaseDiffSchemas {
        &self.schemas
    }

    /// Cache definitions (excluding the view itself).
    pub fn caches(&self) -> &[CacheDef] {
        &self.cache_defs
    }

    /// Cache boundaries: plan path → materialized table name (the root
    /// path `[]` maps to the view itself).
    pub fn cache_map(&self) -> &HashMap<PathId, String> {
        &self.cache_map
    }

    /// Engine options, reconstructed from the setup-time flags and the
    /// current [`EngineKnobs`] (see [`EngineConfig`]).
    pub fn options(&self) -> IvmOptions {
        IvmOptions {
            minimize: self.minimize,
            parallel: self.knobs.parallel,
            trace: self.knobs.trace,
            faults: self.knobs.faults,
            budget: self.knobs.budget,
        }
    }

    /// Run one deferred maintenance round: consume the modification
    /// log, bring caches and the view up to date, and report costs.
    /// The round is atomic — see [`Engine::maintain`] and DESIGN.md §6.
    ///
    /// # Errors
    /// Propagation or application failures (each indicates an engine
    /// bug — the paper's algorithm never fails on valid input) or an
    /// injected fault.
    pub fn maintain(&self, db: &mut Database) -> Result<MaintenanceReport> {
        Engine::maintain(self, db)
    }

    /// Like [`IdIvm::maintain`], but over an externally folded change
    /// set — several views maintained from one shared modification log
    /// fold it once and pass it to each engine
    /// ([`Engine::maintain_with_changes`]).
    ///
    /// # Errors
    /// Propagation or application failures, or an injected fault.
    pub fn maintain_with_changes(
        &self,
        db: &mut Database,
        net: &Net,
    ) -> Result<MaintenanceReport> {
        Engine::maintain_with_changes(self, db, net)
    }

    /// Like [`IdIvm::maintain_with_changes`], with cross-view
    /// **shared-prefix i-diff reuse**: at each plan path designated in
    /// `prefixes`, the walk first consults the round-scoped `cache` —
    /// on a hit the whole subtree walk is skipped and the published
    /// i-diffs are fanned in at zero counted accesses; on a miss the
    /// subtree is computed normally and its boundary diffs published.
    /// Results are bit-identical to the unshared walk (see
    /// [`crate::shared`] for the soundness invariants); `cache` must be
    /// fresh for the round and shared only between views maintained
    /// against the same pending net.
    ///
    /// # Errors
    /// Same conditions as [`IdIvm::maintain_with_changes`].
    pub fn maintain_with_changes_shared(
        &self,
        db: &mut Database,
        net: &Net,
        prefixes: &SharedPrefixes,
        cache: &mut SharedDiffCache,
    ) -> Result<MaintenanceReport> {
        drive(self, db, net, false, |round, db| {
            self.body(round, db, net, Some((prefixes, cache)))
        })
    }

    /// The i-diff strategy: populate base i-diff instances, propagate
    /// bottom-up (applying cache diffs at cache boundaries), apply the
    /// final i-diffs to the view.
    fn body(
        &self,
        round: &mut Round<'_>,
        db: &mut Database,
        net: &Net,
        shared: Option<(&SharedPrefixes, &mut SharedDiffCache)>,
    ) -> Result<()> {
        let shared = shared.map(|(prefixes, cache)| SharedCtx { prefixes, cache });
        let scans = self.plan.scans();
        let mut base_diffs: HashMap<String, BaseDiffs> = HashMap::new();
        for (table, changes) in net {
            if let Some(schemas) = self.schemas.tables.get(table) {
                let diffs = populate(schemas, changes);
                round.report.base_diff_tuples +=
                    diffs.iter().map(DiffInstance::len).sum::<usize>();
                let scans_left = scans.iter().filter(|(_, t)| t == table).count();
                base_diffs.insert(table.clone(), BaseDiffs { diffs, scans_left });
            }
        }
        round.phase(|t| &mut t.populate);
        if base_diffs.is_empty() {
            return Ok(());
        }
        let rescans = AtomicU64::new(0);
        let mut state = WalkState {
            net,
            base_diffs,
            cache_changes: Net::new(),
            rescans: &rescans,
            shared,
        };
        let root_diffs = self.walk(db, round, &mut state, &self.plan, &PathId::new())?;
        round.phase(|t| &mut t.propagate);
        round.report.rescans = rescans.load(Ordering::Relaxed);
        // Apply the final i-diffs to the view.
        round.report.view_diff_tuples = root_diffs.iter().map(DiffInstance::len).sum();
        round
            .faults()
            .hit(FaultSite::Apply, format_args!("target `{}`", self.view_name))?;
        let before = db.stats().snapshot();
        let mut view_changes = TableChanges::new();
        self.debug_check_id_sets(&self.view_name, &root_diffs);
        let outcome = apply_all(db.table_mut(&self.view_name)?, &root_diffs, &mut view_changes)?;
        round.report.view_update = db.stats().snapshot().since(&before);
        round.report.view_outcome = outcome;
        round.report.view_changes = view_changes.into();
        round.checkpoint(db)?;
        round.op(
            &PathId::new(),
            op_label(&self.plan),
            TracePhase::ViewApply,
            round.report.view_diff_tuples as u64,
            0,
            outcome.dummies,
            round.report.view_update,
        );
        round.phase(|t| &mut t.apply);
        Ok(())
    }

    /// Bottom-up propagation. Returns the diffs over `node`'s output.
    fn walk(
        &self,
        db: &mut Database,
        round: &mut Round<'_>,
        state: &mut WalkState<'_>,
        node: &Plan,
        path: &PathId,
    ) -> Result<Vec<DiffInstance>> {
        // Scan leaves consume the base-table i-diff instances: moved
        // out on the table's last scan, cloned only while another scan
        // of the same table (a self-join) is still to come.
        if let Plan::Scan { table, .. } = node {
            let Some(base) = state.base_diffs.get_mut(table) else {
                return Ok(Vec::new());
            };
            base.scans_left = base.scans_left.saturating_sub(1);
            return Ok(if base.scans_left == 0 {
                std::mem::take(&mut base.diffs)
            } else {
                base.diffs.clone()
            });
        }
        // Shared-prefix boundary: another view maintained against the
        // same pending net may already have published this subtree's
        // i-diffs into the round cache — serve the reuse at zero
        // counted accesses and skip the whole subtree walk. On a miss,
        // remember the key so the computed diffs get published below.
        let mut publish_key: Option<RoundKey> = None;
        let mut reused: Option<Vec<DiffInstance>> = None;
        if let Some(shared) = state.shared.as_mut() {
            // The key binds the prefix to this round's pending net,
            // whose digest is remembered on the net itself.
            if let Some(key) = shared.prefixes.round_key(path, state.net) {
                match shared.cache.reuse(key) {
                    Some(diffs) => reused = Some(diffs),
                    None => publish_key = Some(key),
                }
            }
        }
        let out = if let Some(out) = reused {
            round.op(
                path,
                format_args!("{} (shared-prefix reuse)", op_label(node)),
                TracePhase::Propagate,
                0,
                diff_tuples(&out),
                0,
                StatsSnapshot::default(),
            );
            out
        } else {
            // Children first. The subtree-entry snapshot prices the
            // whole walk below this boundary for the publish record.
            let sub0 = db.stats().snapshot();
            let mut incoming = Vec::new();
            for (i, c) in node.children().into_iter().enumerate() {
                let child_path = {
                    let mut p = path.clone();
                    p.push(i);
                    p
                };
                for diff in self.walk(db, round, state, c, &child_path)? {
                    incoming.push(IncomingDiff { side: i, diff });
                }
            }
            if incoming.is_empty() {
                return Ok(Vec::new());
            }
            round
                .faults()
                .hit(FaultSite::Operator, format_args!("`{}`", op_label(node)))?;
            let diffs_in: u64 = incoming.iter().map(|i| i.diff.len() as u64).sum();
            // Rule application (counted as diff-computation cost).
            let before = db.stats().snapshot();
            let out = {
                let access = AccessCtx {
                    db,
                    base_changes: state.net,
                    caches: &self.cache_map,
                    cache_changes: &state.cache_changes,
                };
                let ctx = RuleCtx {
                    access: &access,
                    minimize: self.minimize,
                    parallel: self.knobs.parallel,
                    faults: Some(round.faults()),
                    rescans: Some(state.rescans),
                };
                propagate(&ctx, node, path, incoming)?
            };
            let spent = db.stats().snapshot().since(&before);
            round.report.diff_compute = round.report.diff_compute.merge(spent);
            round.op(
                path,
                op_label(node),
                TracePhase::Propagate,
                diffs_in,
                diff_tuples(&out),
                0,
                spent,
            );
            round.checkpoint(db)?;
            if let Some(key) = publish_key {
                if let Some(shared) = state.shared.as_mut() {
                    let (label, structure) = shared
                        .prefixes
                        .map
                        .get(path)
                        .map_or(("prefix", ""), |s| {
                            (s.label.as_str(), s.structure.as_str())
                        });
                    let compute = db.stats().snapshot().since(&sub0);
                    shared.cache.publish(key, label, structure, &out, compute);
                }
            }
            out
        };
        // Cache boundary: apply the diffs so operators above see the
        // cache in post-state (pre-state through the overlay).
        if let Some(cache_name) = self.cache_map.get(path) {
            if !path.is_empty() {
                round
                    .faults()
                    .hit(FaultSite::Apply, format_args!("target `{cache_name}`"))?;
                let before = db.stats().snapshot();
                let mut changes = state
                    .cache_changes
                    .remove(cache_name)
                    .unwrap_or_default();
                self.debug_check_id_sets(cache_name, &out);
                let outcome = apply_all(db.table_mut(cache_name)?, &out, changes.make_mut())?;
                state.cache_changes.insert(cache_name.clone(), changes);
                let spent = db.stats().snapshot().since(&before);
                round.report.cache_update = round.report.cache_update.merge(spent);
                round.report.cache_outcome.absorb(outcome);
                round.op(
                    path,
                    op_label(node),
                    TracePhase::CacheApply,
                    diff_tuples(&out),
                    0,
                    outcome.dummies,
                    spent,
                );
                // Checkpoint after the cache-boundary apply, so access
                // faults and round budgets observe cache-maintenance
                // accesses too — not just the propagation spine.
                round.checkpoint(db)?;
            }
        }
        Ok(out)
    }
}

impl Engine for IdIvm {
    fn label(&self) -> &'static str {
        "id-ivm"
    }

    fn view_name(&self) -> &str {
        &self.view_name
    }

    fn plan(&self) -> &Plan {
        &self.plan
    }

    fn round_body(
        &self,
        round: &mut Round<'_>,
        db: &mut Database,
        net: &Net,
    ) -> Result<()> {
        self.body(round, db, net, None)
    }

    /// The view and every intermediate cache.
    fn recompute(&self, db: &mut Database) -> Result<()> {
        refresh_view(db, &self.view_name, &self.plan)?;
        for def in &self.cache_defs {
            let sub = crate::access::node_at(&self.plan, &def.path)?.clone();
            refresh_view(db, &def.name, &sub)?;
        }
        Ok(())
    }
}

fn diff_tuples(diffs: &[DiffInstance]) -> u64 {
    diffs.iter().map(|d| d.len() as u64).sum()
}

/// One table's populated base i-diffs and how many `Scan` leaves of
/// the plan have yet to consume them.
struct BaseDiffs {
    diffs: Vec<DiffInstance>,
    scans_left: usize,
}

/// What one round's walk threads through the plan besides the
/// [`Round`] itself.
struct WalkState<'r> {
    net: &'r Net,
    base_diffs: HashMap<String, BaseDiffs>,
    cache_changes: Net,
    rescans: &'r AtomicU64,
    shared: Option<SharedCtx<'r>>,
}

/// The shared-prefix machinery threaded through one round's walk.
struct SharedCtx<'r> {
    prefixes: &'r SharedPrefixes,
    cache: &'r mut SharedDiffCache,
}

/// Create the base-table secondary indexes the diff-driven probe paths
/// use: join/semijoin/antijoin key columns and grouping columns, mapped
/// to their origin tables via provenance. The paper's experimental
/// setup gives these to the tuple-based baseline for free (and the
/// ID-based engine uses them for insert diffs, which "incur the same
/// base table accesses as tuple-based approaches" — Section 9); index
/// maintenance is never charged, matching the paper.
///
/// # Errors
/// Unknown tables.
pub fn ensure_probe_indexes(db: &mut Database, plan: &Plan) -> Result<()> {
    let mut wanted: Vec<(String, Vec<usize>)> = Vec::new();
    collect_probe_sets(plan, &mut wanted);
    for (table, cols) in wanted {
        if db.has_table(&table) {
            db.table_mut(&table)?.create_index_positions(cols);
        }
    }
    Ok(())
}

fn collect_probe_sets(node: &Plan, out: &mut Vec<(String, Vec<usize>)>) {
    let mut add_side = |side: &Plan, cols: &[usize]| {
        let out_cols = side.output_cols();
        let scans: HashMap<&str, &str> = side.scans().into_iter().collect();
        // Group the probed columns per origin table; only usable when
        // every column maps to the same scan (the push-down case).
        let mut per_alias: HashMap<String, Vec<usize>> = HashMap::new();
        for &c in cols {
            if let Some(o) = &out_cols[c].origin {
                per_alias
                    .entry(o.alias.clone())
                    .or_default()
                    .push(o.column);
            }
        }
        for (alias, mut base_cols) in per_alias {
            if let Some(table) = scans.get(alias.as_str()) {
                base_cols.sort_unstable();
                base_cols.dedup();
                out.push((table.to_string(), base_cols));
            }
        }
    };
    match node {
        Plan::Join {
            left, right, on, ..
        } => {
            let lcols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
            let rcols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
            add_side(left, &lcols);
            add_side(right, &rcols);
        }
        Plan::GroupBy { input, keys, .. } => {
            add_side(input, keys);
        }
        _ => {}
    }
    for c in node.children() {
        collect_probe_sets(c, out);
    }
}

/// Check that an existing table can keep serving as the storage of
/// `plan`: same arity and same key *positions*. Column names are
/// deliberately ignored — a plan rewrite that swaps a subtree for a
/// backing-table scan renames columns (scan-alias prefixes) without
/// moving them.
///
/// # Errors
/// [`Error::Plan`] on a shape mismatch; inference failures.
fn ensure_storage_shape(db: &Database, name: &str, plan: &Plan) -> Result<()> {
    let want = view_schema(db, plan)?;
    let have = db.table(name)?.schema();
    if have.arity() == want.arity() && have.key() == want.key() {
        Ok(())
    } else {
        Err(Error::Plan(format!(
            "table `{name}` (arity {}, key {:?}) cannot store the rewritten plan \
             (arity {}, key {:?})",
            have.arity(),
            have.key(),
            want.arity(),
            want.key()
        )))
    }
}

/// Gather the schemas of the base tables scanned by `plan`.
///
/// # Errors
/// Unknown tables.
pub fn base_catalog(db: &Database, plan: &Plan) -> Result<HashMap<String, Schema>> {
    let mut m = HashMap::new();
    for (_, table) in plan.scans() {
        if !m.contains_key(table) {
            m.insert(table.to_string(), db.table(table)?.schema().clone());
        }
    }
    Ok(m)
}
