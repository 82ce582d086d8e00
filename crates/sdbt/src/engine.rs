//! The SDBT engine: materialized partial maps + trigger-style delta
//! application.

use crate::partial::Partial;
use idivm_algebra::aggregate::{aggregate_rows, GroupDelta, Resolved};
use idivm_algebra::{ensure_ids, AggFunc, AggSpec, JoinKind, Plan};
use idivm_core::access::{self, AccessCtx, PathId};
use idivm_core::config::{EngineConfig, EngineKnobs};
use idivm_core::diff::State;
use idivm_core::engine::ensure_probe_indexes;
use idivm_core::faults::FaultSite;
use idivm_core::round::{Engine, Round};
use idivm_core::trace::TracePhase;
use idivm_core::MaintenanceReport;
use idivm_exec::{execute, materialize_view, refresh_view, view_schema};
use idivm_reldb::{Database, Net, NetChange, TableChanges};
use idivm_tuple::{TDiffs, TupleIvm};
use idivm_types::{Column, ColumnType, Error, Key, Result, Row, Schema, Value};
use std::collections::HashMap;

/// Which change pattern the engine is configured for (paper §7.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SdbtVariant {
    /// Only the named table ever changes; the maps are static.
    Fixed(String),
    /// Any table may change; every map is maintained each round.
    Streams,
}

/// The root shape of the maintained view.
enum RootShape {
    /// Plain SPJ view: composed rows *are* view rows.
    Spj,
    /// Root aggregation with DBToaster-style multiplicity tracking: the
    /// stored view carries a hidden `__count` column and groups vanish
    /// when it reaches zero.
    Aggregate { keys: Vec<usize>, aggs: Vec<AggSpec> },
}

/// A Simulated-DBToaster-maintained view.
pub struct Sdbt {
    view_name: String,
    view_plan: Plan,
    shape: RootShape,
    variant: SdbtVariant,
    partials: Vec<PartialState>,
    knobs: EngineKnobs,
}

impl EngineConfig for Sdbt {
    fn knobs(&self) -> &EngineKnobs {
        &self.knobs
    }
    fn knobs_mut(&mut self) -> &mut EngineKnobs {
        &mut self.knobs
    }
}

struct PartialState {
    def: Partial,
    /// Per probe step: materialized map table name + maintainer
    /// (Streams only).
    maps: Vec<MapState>,
}

struct MapState {
    name: String,
    maintainer: Option<TupleIvm>,
}

impl Sdbt {
    /// Register and materialize the view and its partial maps.
    ///
    /// For aggregate roots SUM/COUNT/MIN/MAX are supported: SUM/COUNT
    /// through the multiplicity-map model DBToaster uses, MIN/MAX
    /// through the dirty-group rescan fallback (AVG is expressed as
    /// SUM/COUNT upstream). Plans containing LEFT OUTER JOIN are
    /// rejected — the probe chains compose inner joins only.
    ///
    /// # Errors
    /// Unsupported plans, name collisions, unknown tables.
    pub fn setup(
        db: &mut Database,
        view_name: &str,
        plan: Plan,
        partials: Vec<Partial>,
        variant: SdbtVariant,
    ) -> Result<Self> {
        let plan = ensure_ids(plan)?;
        plan.validate()?;
        if contains_left_outer_join(&plan) {
            // The probe chains compose *inner* joins only: a partial map
            // holds matching rows, and an empty probe result drops the
            // chain — there is no place to emit a NULL-padded row.
            // Rejecting at setup is the contract: never a silently wrong
            // view.
            return Err(Error::Unsupported(
                "SDBT probe chains compose inner joins; LEFT OUTER JOIN is \
                 not expressible in the partial-map model"
                    .into(),
            ));
        }
        let shape = match &plan {
            Plan::GroupBy { keys, aggs, .. } => {
                if aggs.iter().any(|a| a.func == AggFunc::Avg) {
                    return Err(Error::Unsupported(
                        "SDBT aggregates must be SUM/COUNT/MIN/MAX (DBToaster \
                         expresses AVG as SUM/COUNT upstream)"
                            .into(),
                    ));
                }
                RootShape::Aggregate {
                    keys: keys.clone(),
                    aggs: aggs.clone(),
                }
            }
            _ => RootShape::Spj,
        };
        ensure_probe_indexes(db, &plan)?;
        // Materialize the view (aggregates get the hidden multiplicity
        // column).
        match &shape {
            RootShape::Spj => materialize_view(db, view_name, &plan)?,
            RootShape::Aggregate { keys, .. } => {
                let base_schema = view_schema(db, &plan)?;
                let mut cols: Vec<Column> = base_schema.columns().to_vec();
                cols.push(Column::new("__count", ColumnType::Int));
                let key_names: Vec<&str> = base_schema.key_names().to_vec();
                let schema = Schema::new(cols, &key_names)?;
                db.create_table(view_name, schema)?;
                load_counted(db, view_name, &plan, keys.len())?;
            }
        }
        // Materialize the maps of every partial.
        let mut states = Vec::new();
        for (pi, def) in partials.into_iter().enumerate() {
            if let SdbtVariant::Fixed(t) = &variant {
                if &def.table != t {
                    return Err(Error::Unsupported(format!(
                        "SDBT-fixed({t}) takes only the partial for `{t}`, \
                         got one for `{}`",
                        def.table
                    )));
                }
            }
            let mut maps = Vec::new();
            for (si, step) in def.steps.iter().enumerate() {
                let mplan = ensure_ids(step.plan.clone())?;
                let name = format!("{view_name}#m{pi}_{si}_{}", def.table);
                let maintainer = match &variant {
                    SdbtVariant::Streams => Some(TupleIvm::setup(db, &name, mplan)?),
                    SdbtVariant::Fixed(_) => {
                        materialize_view(db, &name, &mplan)?;
                        None
                    }
                };
                db.table_mut(&name)?
                    .create_index_positions(step.join.iter().map(|&(_, m)| m).collect());
                maps.push(MapState { name, maintainer });
            }
            states.push(PartialState { def, maps });
        }
        Ok(Sdbt {
            view_name: view_name.to_string(),
            view_plan: plan,
            shape,
            variant,
            partials: states,
            knobs: EngineKnobs::default(),
        })
    }

    /// The maintained view's name.
    pub fn view_name(&self) -> &str {
        &self.view_name
    }

    /// The (ID-extended) view plan.
    pub fn plan(&self) -> &Plan {
        &self.view_plan
    }

    /// The view contents with the hidden multiplicity column projected
    /// away (for comparisons against the other engines / the oracle).
    ///
    /// # Errors
    /// Unknown view.
    pub fn visible_rows(&self, db: &Database) -> Result<Vec<Row>> {
        Engine::visible_rows(self, db)
    }

    /// Run one maintenance round. The round is atomic (the nested
    /// map-maintenance rounds of the Streams variant included) — see
    /// [`Engine::maintain`] and DESIGN.md §6.
    ///
    /// # Errors
    /// `Unsupported` when a Fixed engine sees changes on other tables;
    /// propagation failures or injected faults otherwise.
    pub fn maintain(&self, db: &mut Database) -> Result<MaintenanceReport> {
        Engine::maintain(self, db)
    }

    /// Like [`Sdbt::maintain`], but over an externally folded change
    /// set — [`Engine::maintain_with_changes`].
    ///
    /// # Errors
    /// As in [`Sdbt::maintain`].
    pub fn maintain_with_changes(
        &self,
        db: &mut Database,
        net: &Net,
    ) -> Result<MaintenanceReport> {
        Engine::maintain_with_changes(self, db, net)
    }

    /// Run the probe chain for one base row, accumulating matches.
    fn chain(&self, db: &Database, p: &PartialState, start: &Row) -> Result<Vec<Row>> {
        let mut acc = vec![start.clone()];
        for (step, map) in p.def.steps.iter().zip(&p.maps) {
            let table = db.table(&map.name)?;
            let probe_cols: Vec<usize> = step.join.iter().map(|&(_, m)| m).collect();
            let mut next = Vec::new();
            for row in &acc {
                let vals: Vec<Value> =
                    step.join.iter().map(|&(a, _)| row[a].clone()).collect();
                if vals.iter().any(Value::is_null) {
                    continue;
                }
                for m in table.lookup(&probe_cols, &Key(vals)) {
                    next.push(row.concat(&m));
                }
            }
            acc = next;
        }
        Ok(acc)
    }

    /// Recompute the view from the base tables (reads counted).
    fn refresh(&self, db: &mut Database) -> Result<()> {
        match &self.shape {
            RootShape::Spj => refresh_view(db, &self.view_name, &self.view_plan),
            // `refresh_view` recomputes the plan's schema, which lacks
            // the hidden `__count` column — redo the setup loading path
            // instead.
            RootShape::Aggregate { keys, .. } => {
                load_counted(db, &self.view_name, &self.view_plan, keys.len())
            }
        }
    }

    /// The ID columns of the rows composition yields: the view's key
    /// for an SPJ root, the aggregated input's IDs for a group-by.
    fn input_ids(&self, db: &Database) -> Result<Vec<usize>> {
        match &self.view_plan {
            Plan::GroupBy { input, .. } => idivm_algebra::infer_ids(input),
            _ => Ok(db.table(&self.view_name)?.schema().key().to_vec()),
        }
    }

    /// Compose per-table changes through the probe chain.
    fn compose_table(
        &self,
        db: &Database,
        p: &PartialState,
        changes: &TableChanges,
        out: &mut TDiffs,
    ) -> Result<()> {
        let arity = changes
            .values()
            .next()
            .map(|c| match c {
                NetChange::Inserted { post } => post.arity(),
                NetChange::Deleted { pre } => pre.arity(),
                NetChange::Updated { pre, .. } => pre.arity(),
            })
            .unwrap_or(0);
        let sensitive = p.def.sensitive_table_cols(arity);
        for c in changes.values() {
            match c {
                NetChange::Inserted { post } => {
                    for acc in self.chain(db, p, post)? {
                        let row = p.def.compose_row(&acc);
                        if p.def.passes(&row)? {
                            out.inserts.push(row);
                        }
                    }
                }
                NetChange::Deleted { pre } => {
                    for acc in self.chain(db, p, pre)? {
                        let row = p.def.compose_row(&acc);
                        if p.def.passes(&row)? {
                            out.deletes.push(row);
                        }
                    }
                }
                NetChange::Updated { pre, post } => {
                    let reshaped = sensitive.iter().any(|&c| pre[c] != post[c]);
                    if reshaped {
                        for acc in self.chain(db, p, pre)? {
                            let row = p.def.compose_row(&acc);
                            if p.def.passes(&row)? {
                                out.deletes.push(row);
                            }
                        }
                        for acc in self.chain(db, p, post)? {
                            let row = p.def.compose_row(&acc);
                            if p.def.passes(&row)? {
                                out.inserts.push(row);
                            }
                        }
                    } else {
                        // One chain walk reconstructs both states: the
                        // accumulated non-table part is identical.
                        for acc_post in self.chain(db, p, post)? {
                            let acc_pre: Row =
                                pre.iter().chain(&acc_post.0[arity..]).cloned().collect();
                            let rp = p.def.compose_row(&acc_pre);
                            let rq = p.def.compose_row(&acc_post);
                            if p.def.passes(&rq)?
                                && rp != rq {
                                    out.updates.push((rp, rq));
                                }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn apply_aggregate(
        &self,
        db: &mut Database,
        keys: &[usize],
        aggs: &[AggSpec],
        composed: &TDiffs,
        round: &mut Round<'_>,
    ) -> Result<()> {
        let Plan::GroupBy { input, .. } = &self.view_plan else {
            return Err(Error::Internal(
                "apply_aggregate on a non-aggregate root".into(),
            ));
        };
        let fresh = GroupDelta::new(aggs)
            .ok_or_else(|| Error::Internal("SDBT aggregate without a delta rule".into()))?;
        // Fold into per-group deltas, rows told apart by the
        // view-input's ID. DBToaster's map model: a group lives while its
        // multiplicity — the hidden `__count` column, advanced by the
        // fold's net member count — is positive.
        let input_ids = idivm_algebra::infer_ids(input)?;
        let groups = composed.group_deltas(&input_ids, keys, aggs, &fresh)?;
        // Plan the per-group actions against the pre-apply view first
        // (immutable borrow: dirty groups rescan their members through
        // the counted access paths over the post-state bases), then
        // apply. Groups convert in sorted key order so the mid-rescan
        // failpoint and rescan counter are deterministic.
        enum Act {
            Delete(Key),
            Patch(Key, Vec<(usize, Value)>),
            Insert(Row),
        }
        let key_cols: Vec<usize> = (0..keys.len()).collect();
        let aggregates = keys.len()..keys.len() + aggs.len();
        let count_col = aggregates.end;
        let empty_caches: HashMap<PathId, String> = HashMap::new();
        let empty_changes = Net::new();
        let ipath: PathId = vec![0];
        let mut acts: Vec<Act> = Vec::new();
        let mut vals = Vec::with_capacity(aggs.len());
        {
            let access = AccessCtx {
                db,
                base_changes: &Net::new(),
                caches: &empty_caches,
                cache_changes: &empty_changes,
            };
            let view = db.table(&self.view_name)?;
            for (gk, g) in groups {
                let mult = g.net_members();
                let Some(old_row) = view.lookup(&key_cols, &gk).into_iter().next() else {
                    if mult > 0 {
                        let count = std::iter::once(Value::Int(mult));
                        let r = gk.0.into_iter().chain(g.created()).chain(count).collect();
                        acts.push(Act::Insert(r));
                    }
                    continue;
                };
                let new_count = old_row[count_col].as_int().unwrap_or(0) + mult;
                let pk = old_row.key(view.schema().key());
                if new_count <= 0 {
                    // Multiplicity hit zero: the group is gone, nothing
                    // to resolve.
                    acts.push(Act::Delete(pk));
                    continue;
                }
                let old = &old_row.0[aggregates.clone()];
                if let Resolved::Dirty { .. } = g.resolve(old, &mut vals) {
                    // The failpoint fires before the member lookup: an
                    // aborted round rolls back with the rescan
                    // unperformed.
                    round.faults().hit(FaultSite::Operator, "`rescan`")?;
                    round.report.rescans += 1;
                    let members =
                        access::lookup(&access, input, &ipath, State::Post, keys, &gk.0)?;
                    vals.clear();
                    for a in aggs {
                        vals.push(aggregate_rows(a, &members)?);
                    }
                }
                let mut assignments: Vec<(usize, Value)> = aggregates
                    .clone()
                    .zip(vals.drain(..))
                    .filter(|(c, v)| *v != old_row[*c])
                    .collect();
                if mult != 0 {
                    assignments.push((count_col, Value::Int(new_count)));
                }
                if !assignments.is_empty() {
                    acts.push(Act::Patch(pk, assignments));
                }
            }
        }
        let view = db.table_mut(&self.view_name)?;
        for act in acts {
            match act {
                Act::Delete(pk) => {
                    view.delete_located(&pk);
                    round.report.view_outcome.deleted += 1;
                }
                Act::Patch(pk, assignments) => {
                    view.patch(&pk, &assignments);
                    round.report.view_outcome.updated += 1;
                }
                Act::Insert(r) => {
                    view.insert_if_absent(r)?;
                    round.report.view_outcome.inserted += 1;
                }
            }
        }
        Ok(())
    }
}

impl Engine for Sdbt {
    fn label(&self) -> &'static str {
        "sdbt"
    }

    fn view_name(&self) -> &str {
        &self.view_name
    }

    fn plan(&self) -> &Plan {
        &self.view_plan
    }

    /// The partial-map strategy: compose deltas through the probe
    /// chains, maintain the maps (Streams), apply to the view.
    fn round_body(
        &self,
        round: &mut Round<'_>,
        db: &mut Database,
        net: &Net,
    ) -> Result<()> {
        if let SdbtVariant::Fixed(t) = &self.variant {
            if net.keys().any(|k| k != t) {
                return Err(Error::Unsupported(format!(
                    "SDBT-fixed({t}) received changes on other tables"
                )));
            }
        }
        // No diff instances to populate: the net changes are the input.
        round.report.base_diff_tuples = net.values().map(|c| c.len()).sum();
        round.phase(|t| &mut t.populate);
        if net.is_empty() {
            return Ok(());
        }
        let faults = round.faults();
        // SDBT has no operator tree to attribute to; each phase (delta
        // composition, map maintenance, view apply) emits one pseudo
        // entry so its rounds carry the same trace schema.
        let root = PathId::new();
        let base = round.report.base_diff_tuples as u64;

        // Each changed table's delta joins the maps of the other tables,
        // and the view's change telescopes over the changed tables in
        // order: V(A′, B′) − V(A, B) = ΔA ⋈ M_A(B) + ΔB ⋈ M_B(A′). So the
        // first changed table composes against the pre-round maps
        // (phase 2 first, before map maintenance), and a second one
        // against the maps maintained to the post-round state (after
        // phase 1), which — with two changed tables — hold A′ beside
        // the other tables unchanged. A third would need maps in
        // between, which Streams does not keep: such a round maintains
        // the maps and refreshes the view instead. In the paper's
        // experiments one table changes per round.
        let changed: Vec<(&PartialState, &TableChanges)> = self
            .partials
            .iter()
            .filter_map(|p| Some((p, &**net.get(&p.def.table)?)))
            .collect();
        let (on_pre, on_post) = match changed.len() {
            0..=2 => changed.split_at(changed.len().min(1)),
            _ => (&[][..], &[][..]),
        };
        let before = db.stats().snapshot();
        let mut composed = TDiffs::default();
        for &(p, changes) in on_pre {
            faults.hit(FaultSite::Operator, "`compose`")?;
            self.compose_table(db, p, changes, &mut composed)?;
        }
        round.report.diff_compute = db.stats().snapshot().since(&before);
        round.op(
            &root,
            "compose",
            TracePhase::Propagate,
            base,
            composed.len() as u64,
            0,
            round.report.diff_compute,
        );
        round.checkpoint(db)?;

        // Phase 1 (Streams): maintain every map — the overhead that
        // makes SDBT-streams slow (Figure 12, column D).
        let before = db.stats().snapshot();
        for p in &self.partials {
            for m in &p.maps {
                if let Some(t) = &m.maintainer {
                    faults.hit(FaultSite::Operator, "`map_maintain`")?;
                    t.maintain_with_changes(db, net)?;
                    // Checkpoint after each map's maintenance, so access
                    // faults and round budgets observe map-maintenance
                    // accesses as they accrue — not just at the phase
                    // boundary.
                    round.checkpoint(db)?;
                }
            }
        }
        round.report.cache_update = db.stats().snapshot().since(&before);
        round.op(
            &root,
            "map_maintain",
            TracePhase::CacheApply,
            base,
            0,
            0,
            round.report.cache_update,
        );
        for &(p, changes) in on_post {
            let before = db.stats().snapshot();
            faults.hit(FaultSite::Operator, "`compose`")?;
            let mut later = TDiffs::default();
            self.compose_table(db, p, changes, &mut later)?;
            composed = followed_by(composed, later, &self.input_ids(db)?);
            let spent = db.stats().snapshot().since(&before);
            round.report.diff_compute = round.report.diff_compute.merge(spent);
            round.op(
                &root,
                "compose",
                TracePhase::Propagate,
                changes.len() as u64,
                composed.len() as u64,
                0,
                spent,
            );
            round.checkpoint(db)?;
        }
        round.report.view_diff_tuples = composed.len();
        let view = composed.len() as u64;
        round.phase(|t| &mut t.propagate);
        round.checkpoint(db)?;

        // Phase 3: apply to the view.
        faults.hit(FaultSite::Apply, format_args!("target `{}`", self.view_name))?;
        let before = db.stats().snapshot();
        match &self.shape {
            _ if changed.len() > 2 => self.refresh(db)?,
            RootShape::Spj => {
                round.report.view_outcome =
                    idivm_tuple::tdiff::apply(db.table_mut(&self.view_name)?, &composed)?;
            }
            RootShape::Aggregate { keys, aggs } => {
                self.apply_aggregate(db, keys, aggs, &composed, round)?;
            }
        }
        round.report.view_update = db.stats().snapshot().since(&before);
        round.checkpoint(db)?;
        round.op(
            &root,
            "view_apply",
            TracePhase::ViewApply,
            view,
            0,
            round.report.view_outcome.dummies,
            round.report.view_update,
        );
        round.phase(|t| &mut t.apply);
        Ok(())
    }

    /// The view (with its hidden `__count` column, for the aggregate
    /// shape) and every maintained map.
    fn recompute(&self, db: &mut Database) -> Result<()> {
        // Streams maps are maintained incrementally, so a failed round
        // leaves them behind the base tables; refresh them from their
        // plans. Fixed maps are static by construction — nothing to do.
        for p in &self.partials {
            for m in &p.maps {
                if let Some(t) = &m.maintainer {
                    refresh_view(db, &m.name, t.plan())?;
                }
            }
        }
        self.refresh(db)
    }

    /// Drops the hidden multiplicity column of the aggregate shape.
    fn visible_rows(&self, db: &Database) -> Result<Vec<Row>> {
        let rows = db.table(&self.view_name)?.rows_uncounted();
        Ok(match self.shape {
            RootShape::Spj => rows,
            RootShape::Aggregate { .. } => rows
                .into_iter()
                .map(|r| r.0[..r.arity().saturating_sub(1)].iter().cloned().collect())
                .collect(),
        })
    }
}

/// `first`'s changes followed by `then`'s, netted per row ID (`ids`): a
/// row that `first` takes from `p` to `q` and `then` from `q` to `r`
/// goes from `p` to `r` — an update, an insert, a delete, or nothing
/// when the two ends agree. A row only one of them changes keeps its
/// entries as they are.
fn followed_by(first: TDiffs, then: TDiffs, ids: &[usize]) -> TDiffs {
    type Ends = (Option<Row>, Option<Row>);
    let ends = |d: &TDiffs| {
        let mut ends: HashMap<Key, Ends> = HashMap::new();
        for p in &d.deletes {
            ends.entry(p.key(ids)).or_default().0 = Some(p.clone());
        }
        for q in &d.inserts {
            ends.entry(q.key(ids)).or_default().1 = Some(q.clone());
        }
        for (p, q) in &d.updates {
            *ends.entry(p.key(ids)).or_default() = (Some(p.clone()), Some(q.clone()));
        }
        ends
    };
    let (a, b) = (ends(&first), ends(&then));
    let mut both: Vec<&Key> = a.keys().filter(|k| b.contains_key(*k)).collect();
    both.sort();
    let alone = |r: &Row| {
        let k = r.key(ids);
        !(a.contains_key(&k) && b.contains_key(&k))
    };
    let mut out = TDiffs::default();
    for d in [&first, &then] {
        out.deletes
            .extend(d.deletes.iter().filter(|r| alone(r)).cloned());
        out.inserts
            .extend(d.inserts.iter().filter(|r| alone(r)).cloned());
        out.updates
            .extend(d.updates.iter().filter(|(p, _)| alone(p)).cloned());
    }
    for k in both {
        match (&a[k].0, &b[k].1) {
            (Some(p), Some(r)) if p != r => out.updates.push((p.clone(), r.clone())),
            (Some(p), None) => out.deletes.push(p.clone()),
            (None, Some(r)) => out.inserts.push(r.clone()),
            _ => {}
        }
    }
    out
}

/// Does the plan contain a left outer join anywhere? SDBT rejects such
/// plans at setup (see [`Sdbt::setup`]).
fn contains_left_outer_join(node: &Plan) -> bool {
    matches!(
        node,
        Plan::Join {
            kind: JoinKind::LeftOuter,
            ..
        }
    ) || node.children().into_iter().any(contains_left_outer_join)
}

/// (Re)load an aggregate-shaped view table: the plan's rows, each with
/// its group's hidden `__count` multiplicity appended.
fn load_counted(db: &mut Database, view_name: &str, plan: &Plan, n_keys: usize) -> Result<()> {
    let rows = execute(db, plan)?;
    let counts = group_counts(db, plan)?;
    let key_positions: Vec<usize> = (0..n_keys).collect();
    let t = db.table_mut(view_name)?;
    t.clear();
    for r in rows {
        let n = counts.get(&r.key(&key_positions)).copied().unwrap_or(0);
        t.load(r.extended(Value::Int(n)))?;
    }
    Ok(())
}

/// Per-group input-row multiplicities of an aggregate plan.
fn group_counts(db: &Database, plan: &Plan) -> Result<HashMap<Key, i64>> {
    let Plan::GroupBy { input, keys, .. } = plan else {
        return Ok(HashMap::new());
    };
    let rows = execute(db, input)?;
    let mut counts: HashMap<Key, i64> = HashMap::new();
    for r in rows {
        *counts.entry(r.key(keys)).or_default() += 1;
    }
    Ok(counts)
}

