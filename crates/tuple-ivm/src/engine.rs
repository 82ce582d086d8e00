//! The tuple-based IVM engine (the paper's `D`-script executor).

use crate::propagate::{propagate, TupleCtx};
use crate::tdiff::{apply, TDiffs};
use idivm_algebra::{ensure_ids, Plan};
use idivm_core::access::{AccessCtx, PathId};
use idivm_core::config::{EngineConfig, EngineKnobs};
use idivm_core::engine::ensure_probe_indexes;
use idivm_core::faults::FaultSite;
use idivm_core::round::{Engine, Round};
use idivm_core::trace::{op_label, TracePhase};
use idivm_core::MaintenanceReport;
use idivm_exec::{materialize_view, refresh_view};
use idivm_reldb::{Database, Net};
use idivm_types::Result;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// An incrementally maintained view under classical tuple-based IVM.
///
/// Setup mirrors [`idivm_core::IdIvm`] — same ID-extended plan, same
/// storage schema — so the two engines maintain byte-identical views
/// and differ only in how they compute and apply diffs. No intermediate
/// caches are created: "the tuple-based approach does not use a cache,
/// since it cannot benefit from it" (Section 6.2).
pub struct TupleIvm {
    view_name: String,
    plan: Plan,
    knobs: EngineKnobs,
}

impl EngineConfig for TupleIvm {
    fn knobs(&self) -> &EngineKnobs {
        &self.knobs
    }
    fn knobs_mut(&mut self) -> &mut EngineKnobs {
        &mut self.knobs
    }
}

impl TupleIvm {
    /// Register and materialize a view for tuple-based maintenance.
    ///
    /// # Errors
    /// Plan validation failures, name collisions, unknown tables.
    pub fn setup(db: &mut Database, view_name: &str, plan: Plan) -> Result<Self> {
        let plan = ensure_ids(plan)?;
        plan.validate()?;
        ensure_probe_indexes(db, &plan)?;
        materialize_view(db, view_name, &plan)?;
        Ok(TupleIvm {
            view_name: view_name.to_string(),
            plan,
            knobs: EngineKnobs::default(),
        })
    }

    /// The maintained view's name.
    pub fn view_name(&self) -> &str {
        &self.view_name
    }

    /// The (ID-extended) plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Run one deferred maintenance round with the D-script. The round
    /// is atomic — see [`Engine::maintain`] and DESIGN.md §6.
    ///
    /// # Errors
    /// Propagation or application failures, or an injected fault.
    pub fn maintain(&self, db: &mut Database) -> Result<MaintenanceReport> {
        Engine::maintain(self, db)
    }

    /// Like [`TupleIvm::maintain`], but over an externally folded change
    /// set (several engines can share one round without consuming the
    /// log twice) — [`Engine::maintain_with_changes`].
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
}

impl Engine for TupleIvm {
    fn label(&self) -> &'static str {
        "tuple-ivm"
    }

    fn view_name(&self) -> &str {
        &self.view_name
    }

    fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The t-diff strategy: one t-diff per changed base row, the
    /// D-script bottom-up, the view-level t-diffs applied to the view.
    fn round_body(
        &self,
        round: &mut Round<'_>,
        db: &mut Database,
        net: &Net,
    ) -> Result<()> {
        let base_diffs: HashMap<String, TDiffs> = net
            .iter()
            .map(|(t, ch)| (t.clone(), TDiffs::from_changes(ch)))
            .collect();
        round.report.base_diff_tuples = base_diffs.values().map(TDiffs::len).sum();
        round.phase(|t| &mut t.populate);
        if net.is_empty() {
            return Ok(());
        }

        // Compute the view-level t-diffs (counted as diff computation).
        let before = db.stats().snapshot();
        let empty_caches: HashMap<PathId, String> = HashMap::new();
        let empty_changes = Net::new();
        let rescans = AtomicU64::new(0);
        let view_diffs = {
            let access = AccessCtx {
                db,
                base_changes: net,
                caches: &empty_caches,
                cache_changes: &empty_changes,
            };
            let ctx = TupleCtx {
                access: &access,
                view_name: &self.view_name,
                parallel: self.knobs.parallel,
                faults: round.faults(),
                rescans: &rescans,
            };
            walk(&ctx, round, &self.plan, &PathId::new(), &base_diffs)?
        };
        round.report.diff_compute = db.stats().snapshot().since(&before);
        round.report.view_diff_tuples = view_diffs.len();
        round.report.rescans = rescans.load(Ordering::Relaxed);
        round.phase(|t| &mut t.propagate);

        // Apply them.
        round
            .faults()
            .hit(FaultSite::Apply, format_args!("target `{}`", self.view_name))?;
        let before = db.stats().snapshot();
        let outcome = apply(db.table_mut(&self.view_name)?, &view_diffs)?;
        round.report.view_update = db.stats().snapshot().since(&before);
        round.report.view_outcome = outcome;
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

    /// The view only (no caches).
    fn recompute(&self, db: &mut Database) -> Result<()> {
        refresh_view(db, &self.view_name, &self.plan)
    }
}

fn walk(
    ctx: &TupleCtx<'_>,
    round: &mut Round<'_>,
    node: &Plan,
    path: &PathId,
    base: &HashMap<String, TDiffs>,
) -> Result<TDiffs> {
    if let Plan::Scan { table, .. } = node {
        return Ok(base.get(table).cloned().unwrap_or_default());
    }
    let mut sides = Vec::new();
    for (i, c) in node.children().into_iter().enumerate() {
        let mut p = path.clone();
        p.push(i);
        sides.push(walk(ctx, round, c, &p, base)?);
    }
    round
        .faults()
        .hit(FaultSite::Operator, format_args!("`{}`", op_label(node)))?;
    let diffs_in: u64 = sides.iter().map(|s| s.len() as u64).sum();
    let stats = ctx.access.db.stats();
    let before = round.report.trace.is_some().then(|| stats.snapshot());
    let out = propagate(ctx, node, path, sides)?;
    if let Some(before) = before {
        round.op(
            path,
            op_label(node),
            TracePhase::Propagate,
            diffs_in,
            out.len() as u64,
            0,
            stats.snapshot().since(&before),
        );
    }
    round.checkpoint(ctx.access.db)?;
    Ok(out)
}
