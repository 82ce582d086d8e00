//! `RelAccess`: counted access paths to arbitrary subviews.
//!
//! Propagation rules reference the data under an operator through the
//! `Input_{l,r}` and `Output` keywords, in pre- or post-state (paper
//! Section 4). Physically that data is
//!
//! * a base table (when the child is a scan),
//! * an intermediate **cache** (when idIVM materialized the subview), or
//! * a *virtual* subview that must be computed on the fly.
//!
//! [`lookup`] is the workhorse: an equality probe on a subview, pushed
//! down through the operators as a **diff-driven index-nested-loop** —
//! probe one side, then chase join keys with index lookups — which is
//! exactly the plan shape the paper's cost model assumes (Appendix A:
//! "for each tuple t of D it executes the subplan σ_c′(E)"). Every base
//! or cache touch goes through the counted paths of `idivm-reldb`, so
//! the paper's access accounting falls out automatically.

use crate::diff::State;
use crate::rules::join::JoinNode;
use idivm_algebra::{JoinKind, Plan};
use idivm_exec::executor::{evaluate, hash_aggregate, project_row, PathHook};
use idivm_reldb::{Database, Net, PreState};
use idivm_types::{Error, Result, Row, Value};
use std::collections::HashMap;

/// Identifies a plan node by the child indices from the root (root =
/// `[]`, left child of root = `[0]`, …).
pub type PathId = Vec<usize>;

/// Everything the access layer needs to resolve a subview.
pub struct AccessCtx<'a> {
    /// The database (base tables in post-state, plus caches and views).
    pub db: &'a Database,
    /// Folded net changes of this maintenance round (pre-state overlay
    /// source for base tables).
    pub base_changes: &'a Net,
    /// Materialized subviews: plan path → cache table name. Caches are
    /// assumed already updated (post-state) when consulted.
    pub caches: &'a HashMap<PathId, String>,
    /// Net changes applied to each cache this round (pre-state overlay
    /// source for caches).
    pub cache_changes: &'a Net,
}

impl AccessCtx<'_> {
    fn cache_of(&self, path: &[usize]) -> Option<&str> {
        self.caches.get(path).map(String::as_str)
    }
}

/// Full (counted) scan of the subview rooted at `plan` in `state`: the
/// executor's evaluation, with every cache boundary read from its table
/// and, in pre-state, every table seen through its round's changes.
///
/// # Errors
/// Unknown tables or malformed plans.
pub fn scan(ctx: &AccessCtx<'_>, plan: &Plan, path: &PathId, state: State) -> Result<Vec<Row>> {
    evaluate(ctx.db, plan, path, &mut Read { ctx, state })
}

/// The [`PathHook`] of [`scan`]: claims cache boundaries, and base
/// tables in pre-state.
struct Read<'c, 'a> {
    ctx: &'c AccessCtx<'a>,
    state: State,
}

impl PathHook for Read<'_, '_> {
    fn claim(&mut self, path: &[usize], node: &Plan) -> Result<Option<Vec<Row>>> {
        let (table, changes) = match (self.ctx.cache_of(path), node) {
            (Some(cache), _) => (cache, self.ctx.cache_changes.get(cache)),
            (None, Plan::Scan { table, .. }) if self.state == State::Pre => {
                (table.as_str(), self.ctx.base_changes.get(table))
            }
            _ => return Ok(None),
        };
        let table = self.ctx.db.table(table)?;
        Ok(Some(match self.state {
            State::Post => table.scan(),
            State::Pre => PreState::new(table, changes).scan(),
        }))
    }
}

/// Equality probe: rows of the subview whose `cols` equal `probe` (a
/// borrowed `[Value]`: a key's values, a diff row's ID slots, a reused
/// scratch vector — no `Key` is built to ask). Pushed down to index
/// lookups wherever the operator structure allows; falls back to
/// counted scans otherwise.
///
/// # Errors
/// Unknown tables or malformed plans.
pub fn lookup(
    ctx: &AccessCtx<'_>,
    plan: &Plan,
    path: &PathId,
    state: State,
    cols: &[usize],
    probe: &[Value],
) -> Result<Vec<Row>> {
    debug_assert_eq!(cols.len(), probe.len());
    if cols.is_empty() {
        return scan(ctx, plan, path, state);
    }
    if let Some(cache) = ctx.cache_of(path) {
        let table = ctx.db.table(cache)?;
        return Ok(match state {
            State::Post => table.lookup(cols, probe),
            State::Pre => PreState::new(table, ctx.cache_changes.get(cache)).lookup(cols, probe),
        });
    }
    match plan {
        Plan::Scan { table, .. } => {
            let t = ctx.db.table(table)?;
            Ok(match state {
                State::Post => t.lookup(cols, probe),
                State::Pre => PreState::new(t, ctx.base_changes.get(table)).lookup(cols, probe),
            })
        }
        Plan::Select { input, pred } => {
            let rows = lookup(ctx, input, &child(path, 0), state, cols, probe)?;
            let mut out = Vec::with_capacity(rows.len());
            for r in rows {
                if pred.eval_pred(&r)? {
                    out.push(r);
                }
            }
            Ok(out)
        }
        Plan::Project { input, cols: pcols } => {
            // Map probe columns through direct copies.
            let mut mapped = Vec::with_capacity(cols.len());
            for &c in cols {
                match &pcols[c].1 {
                    idivm_algebra::Expr::Col(i) => mapped.push(*i),
                    _ => {
                        // Probe on a computed column: evaluate and filter.
                        let rows = scan(ctx, plan, path, state)?;
                        return Ok(filter_by(rows, cols, probe));
                    }
                }
            }
            let rows = lookup(ctx, input, &child(path, 0), state, &mapped, probe)?;
            rows.iter().map(|r| project_row(r, pcols)).collect()
        }
        Plan::Join {
            kind,
            left,
            right,
            on,
            residual,
        } => {
            let la = left.arity();
            // On ⟕, a non-NULL constraint on a right column excludes
            // NULL-padded rows, so the result coincides with the inner
            // join's.
            let inner = match kind {
                JoinKind::Inner => true,
                JoinKind::LeftOuter => sub_probe(cols, probe, |c| c >= la)
                    .iter()
                    .any(|v| !v.is_null()),
                JoinKind::Semi | JoinKind::Anti => false,
            };
            if inner {
                return probe_join(
                    ctx,
                    path,
                    state,
                    cols,
                    probe,
                    left,
                    right,
                    on,
                    residual.as_ref(),
                );
            }
            // Drive from the left: each matching left row's output rows
            // under `kind`. ⟕ then filters by the whole probe: a NULL
            // right probe matches padded rows and genuinely-NULL matched
            // columns alike.
            let join = JoinNode::new(*kind, left, right, on, residual.as_ref(), path);
            let left_part: Vec<usize> = cols.iter().copied().filter(|&c| c < la).collect();
            let lprobe = sub_probe(cols, probe, |c| c < la);
            let mut out = Vec::new();
            for l in lookup(ctx, left, &join.paths[0], state, &left_part, &lprobe)? {
                out.extend(join.contributions(ctx, 0, &l, state)?);
            }
            Ok(match kind {
                JoinKind::LeftOuter => filter_by(out, cols, probe),
                _ => out,
            })
        }
        Plan::UnionAll { left, right } => {
            let branch_pos = plan.arity() - 1;
            let inner_cols: Vec<usize> =
                cols.iter().copied().filter(|&c| c != branch_pos).collect();
            let inner_probe = sub_probe(cols, probe, |c| c != branch_pos);
            let branch_filter = cols
                .iter()
                .position(|&c| c == branch_pos)
                .map(|i| probe[i].clone());
            let mut out = Vec::new();
            for (branch, side, idx) in [(0i64, left, 0usize), (1, right, 1)] {
                if let Some(b) = &branch_filter {
                    if b != &Value::Int(branch) {
                        continue;
                    }
                }
                for row in lookup(
                    ctx,
                    side,
                    &child(path, idx),
                    state,
                    &inner_cols,
                    &inner_probe,
                )? {
                    out.push(row.extended(Value::Int(branch)));
                }
            }
            Ok(out)
        }
        Plan::GroupBy { input, keys, aggs } => {
            if cols.iter().all(|&c| c < keys.len()) {
                // Probe on (a subset of) the group key: fetch the
                // matching groups' member rows and aggregate.
                let in_cols: Vec<usize> = cols.iter().map(|&c| keys[c]).collect();
                let members = lookup(ctx, input, &child(path, 0), state, &in_cols, probe)?;
                hash_aggregate(&members, keys, aggs)
            } else {
                // Probe touches an aggregate output: no push-down.
                let rows = scan(ctx, plan, path, state)?;
                Ok(filter_by(rows, cols, probe))
            }
        }
    }
}

/// Inner-join equality probe, pushed down as a diff-driven
/// index-nested-loop from whichever side carries probe columns.
#[allow(clippy::too_many_arguments)]
fn probe_join(
    ctx: &AccessCtx<'_>,
    path: &PathId,
    state: State,
    cols: &[usize],
    probe: &[Value],
    left: &Plan,
    right: &Plan,
    on: &[(usize, usize)],
    residual: Option<&idivm_algebra::Expr>,
) -> Result<Vec<Row>> {
    let la = left.arity();
    let left_part: Vec<usize> = cols.iter().copied().filter(|&c| c < la).collect();
    let right_part: Vec<usize> = cols.iter().copied().filter(|&c| c >= la).collect();
    let lp = &child(path, 0);
    let rp = &child(path, 1);
    if !left_part.is_empty() || right_part.is_empty() {
        // Drive from the left side.
        let lprobe = sub_probe(cols, probe, |c| c < la);
        let lrows = lookup(ctx, left, lp, state, &left_part, &lprobe)?;
        // For each left row, chase the join keys into the right,
        // constraining also by the right part of the probe.
        // Columns may repeat (a probe column that is also a join
        // key); dedupe so index matching is not defeated, and
        // reject contradictory constraints.
        let mut rcols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
        for &c in &right_part {
            rcols.push(c - la);
        }
        let right_vals = sub_probe(cols, probe, |c| c >= la);
        let mut out = Vec::new();
        for l in lrows {
            let mut vals: Vec<Value> = on.iter().map(|&(lc, _)| l[lc].clone()).collect();
            vals.extend(right_vals.iter().cloned());
            if vals.iter().any(Value::is_null) {
                continue;
            }
            let Some((dcols, dvals)) = dedupe_probe(&rcols, vals) else {
                continue; // contradictory duplicate constraints
            };
            let rrows = lookup(ctx, right, rp, state, &dcols, &dvals)?;
            for r in rrows {
                let joined = l.concat(&r);
                if idivm_algebra::opt_pred(residual, &joined)? {
                    out.push(joined);
                }
            }
        }
        Ok(out)
    } else {
        // Probe columns are all on the right: drive from there.
        let rprobe_cols: Vec<usize> = right_part.iter().map(|&c| c - la).collect();
        let rprobe = sub_probe(cols, probe, |c| c >= la);
        let rrows = lookup(ctx, right, rp, state, &rprobe_cols, &rprobe)?;
        let lcols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
        let mut out = Vec::new();
        let mut vals: Vec<Value> = Vec::with_capacity(on.len());
        for r in rrows {
            vals.clear();
            vals.extend(on.iter().map(|&(_, rc)| r[rc].clone()));
            if vals.iter().any(Value::is_null) {
                continue;
            }
            let lrows = lookup(ctx, left, lp, state, &lcols, &vals)?;
            for l in lrows {
                let joined = l.concat(&r);
                if idivm_algebra::opt_pred(residual, &joined)? {
                    out.push(joined);
                }
            }
        }
        Ok(out)
    }
}

fn child(path: &[usize], idx: usize) -> PathId {
    let mut p = path.to_vec();
    p.push(idx);
    p
}

fn filter_by(mut rows: Vec<Row>, cols: &[usize], probe: &[Value]) -> Vec<Row> {
    rows.retain(|r| r.matches(cols, probe));
    rows
}

/// Remove duplicate probe columns and sort the probe by column position
/// (index and primary-key matching are order-sensitive) so a repeated or
/// permuted column set cannot defeat index matching. Returns `None` when
/// a duplicated column carries contradictory values — the probe can
/// match nothing.
fn dedupe_probe(cols: &[usize], vals: Vec<Value>) -> Option<(Vec<usize>, Vec<Value>)> {
    let mut pairs: Vec<(usize, Value)> = Vec::with_capacity(cols.len());
    for (&c, v) in cols.iter().zip(vals) {
        match pairs.iter().position(|(o, _)| *o == c) {
            Some(i) => {
                if pairs[i].1 != v {
                    return None;
                }
            }
            None => pairs.push((c, v)),
        }
    }
    pairs.sort_by_key(|(c, _)| *c);
    Some(pairs.into_iter().unzip())
}

/// The probe values whose column passes `keep`.
fn sub_probe(cols: &[usize], probe: &[Value], keep: impl Fn(usize) -> bool) -> Vec<Value> {
    cols.iter()
        .zip(probe)
        .filter(|(c, _)| keep(**c))
        .map(|(_, v)| v.clone())
        .collect()
}

/// Resolve the plan node at `path` (for callers that hold only the root).
///
/// # Errors
/// [`Error::Plan`] if the path is invalid.
pub fn node_at<'p>(root: &'p Plan, path: &[usize]) -> Result<&'p Plan> {
    root.node(path)
        .ok_or_else(|| Error::Plan(format!("invalid plan path {path:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use idivm_algebra::{AggFunc, PlanBuilder};
    use idivm_exec::DbCatalog;
    use idivm_types::{row, ColumnType, Schema};

    fn setup() -> Database {
        let mut db = Database::new();
        db.set_logging(false); // bulk load is not part of a round
        db.create_table(
            "parts",
            Schema::from_pairs(
                &[("pid", ColumnType::Str), ("price", ColumnType::Int)],
                &["pid"],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            "devices_parts",
            Schema::from_pairs(
                &[("did", ColumnType::Str), ("pid", ColumnType::Str)],
                &["did", "pid"],
            )
            .unwrap(),
        )
        .unwrap();
        db.insert("parts", row!["P1", 10]).unwrap();
        db.insert("parts", row!["P2", 20]).unwrap();
        db.insert("devices_parts", row!["D1", "P1"]).unwrap();
        db.insert("devices_parts", row!["D2", "P1"]).unwrap();
        db.insert("devices_parts", row!["D1", "P2"]).unwrap();
        db.table_mut("devices_parts")
            .unwrap()
            .create_index(&["pid"])
            .unwrap();
        db
    }

    fn empty_ctx<'a>(
        db: &'a Database,
        base: &'a Net,
        caches: &'a HashMap<PathId, String>,
        cch: &'a Net,
    ) -> AccessCtx<'a> {
        AccessCtx {
            db,
            base_changes: base,
            caches,
            cache_changes: cch,
        }
    }

    #[test]
    fn join_lookup_is_index_driven() {
        let db = setup();
        let cat = DbCatalog(&db);
        let plan = PlanBuilder::scan(&cat, "parts")
            .unwrap()
            .join(
                PlanBuilder::scan(&cat, "devices_parts").unwrap(),
                &[("parts.pid", "devices_parts.pid")],
            )
            .unwrap()
            .build()
            .unwrap();
        let (base, caches, cch) = (HashMap::new(), HashMap::new(), HashMap::new());
        let ctx = empty_ctx(&db, &base, &caches, &cch);
        db.stats().reset();
        // Probe by parts.pid = P1 (column 0 of the join output).
        let rows = lookup(&ctx, &plan, &vec![], State::Post, &[0], &[Value::str("P1")]).unwrap();
        assert_eq!(rows.len(), 2); // joins with D1 and D2
        let snap = db.stats().snapshot();
        // 1 pk probe into parts (1 lookup + 1 tuple) then 1 index probe
        // into devices_parts (1 lookup + 2 tuples).
        assert_eq!(snap.index_lookups, 2);
        assert_eq!(snap.tuple_accesses, 3);
    }

    #[test]
    fn group_by_lookup_recomputes_single_group() {
        let db = setup();
        let cat = DbCatalog(&db);
        let plan = PlanBuilder::scan(&cat, "devices_parts")
            .unwrap()
            .group_by(&["devices_parts.did"], &[(AggFunc::Count, "*", "n")])
            .unwrap()
            .build()
            .unwrap();
        let (base, caches, cch) = (HashMap::new(), HashMap::new(), HashMap::new());
        let ctx = empty_ctx(&db, &base, &caches, &cch);
        // did is a prefix of devices_parts' composite key, so there is
        // no index for [did] alone — lookup degrades to a scan, still
        // correct.
        let rows = lookup(&ctx, &plan, &vec![], State::Post, &[0], &[Value::str("D1")]).unwrap();
        assert_eq!(rows, vec![row!["D1", 2]]);
    }

    /// Grouping emits its groups in the order their first row comes in
    /// — the same order on every run (not a hash map's), whether the
    /// executor or a subview scan evaluates it.
    #[test]
    fn group_by_emits_groups_in_first_seen_order() {
        let mut db = setup();
        for i in 0..60 {
            let did = format!("X{}", (i * 17) % 23);
            let link = Row::new(vec![Value::str(did), Value::str(format!("P{i}"))]);
            db.insert("devices_parts", link).unwrap();
        }
        let mut first_seen: Vec<Value> = Vec::new();
        for r in db.table("devices_parts").unwrap().rows_uncounted() {
            if !first_seen.contains(&r[0]) {
                first_seen.push(r[0].clone());
            }
        }
        let cat = DbCatalog(&db);
        let plan = PlanBuilder::scan(&cat, "devices_parts")
            .unwrap()
            .group_by(&["devices_parts.did"], &[(AggFunc::Count, "*", "n")])
            .unwrap()
            .build()
            .unwrap();
        let (base, caches, cch) = (HashMap::new(), HashMap::new(), HashMap::new());
        let ctx = empty_ctx(&db, &base, &caches, &cch);
        let keys = |rows: Vec<Row>| rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>();
        for _ in 0..5 {
            assert_eq!(keys(idivm_exec::execute(&db, &plan).unwrap()), first_seen);
            for state in [State::Post, State::Pre] {
                assert_eq!(keys(scan(&ctx, &plan, &vec![], state).unwrap()), first_seen);
            }
        }
    }

    #[test]
    fn pre_state_lookup_through_select() {
        let mut db = setup();
        db.set_logging(true);
        // Update P1's price 10 → 99 with logging on.
        db.update_named(
            "parts",
            &idivm_types::Key(vec![Value::str("P1")]),
            &[("price", Value::Int(99))],
        )
        .unwrap();
        let base = db.fold_log();
        let cat = DbCatalog(&db);
        let plan = PlanBuilder::scan(&cat, "parts")
            .unwrap()
            .select(idivm_algebra::Expr::col(1).lt(idivm_algebra::Expr::lit(50)))
            .build()
            .unwrap();
        let (caches, cch) = (HashMap::new(), HashMap::new());
        let ctx = empty_ctx(&db, &base, &caches, &cch);
        // Post-state: P1 has price 99 ⇒ filtered out.
        let post = lookup(&ctx, &plan, &vec![], State::Post, &[0], &[Value::str("P1")]).unwrap();
        assert!(post.is_empty());
        // Pre-state: price was 10 ⇒ present.
        let pre = lookup(&ctx, &plan, &vec![], State::Pre, &[0], &[Value::str("P1")]).unwrap();
        assert_eq!(pre, vec![row!["P1", 10]]);
    }

    #[test]
    fn cache_shortcuts_subview() {
        let mut db = setup();
        // Materialize the join as a "cache" table.
        db.create_table(
            "cache0",
            Schema::from_pairs(
                &[
                    ("pid", ColumnType::Str),
                    ("price", ColumnType::Int),
                    ("did", ColumnType::Str),
                    ("pid2", ColumnType::Str),
                ],
                &["pid", "did"],
            )
            .unwrap(),
        )
        .unwrap();
        for r in [
            row!["P1", 10, "D1", "P1"],
            row!["P1", 10, "D2", "P1"],
            row!["P2", 20, "D1", "P2"],
        ] {
            db.table_mut("cache0").unwrap().load(r).unwrap();
        }
        let cat = DbCatalog(&db);
        let plan = PlanBuilder::scan(&cat, "parts")
            .unwrap()
            .join(
                PlanBuilder::scan(&cat, "devices_parts").unwrap(),
                &[("parts.pid", "devices_parts.pid")],
            )
            .unwrap()
            .build()
            .unwrap();
        let base = HashMap::new();
        let mut caches = HashMap::new();
        caches.insert(vec![], "cache0".to_string());
        let cch = HashMap::new();
        let ctx = empty_ctx(&db, &base, &caches, &cch);
        db.stats().reset();
        let rows = scan(&ctx, &plan, &vec![], State::Post).unwrap();
        assert_eq!(rows.len(), 3);
        // Served from the cache: 3 tuple accesses, no base-table reads.
        assert_eq!(db.stats().snapshot().tuple_accesses, 3);
    }

    #[test]
    fn antijoin_lookup_probes_right() {
        let mut db = setup();
        db.insert("parts", row!["P3", 30]).unwrap(); // unused part
        let cat = DbCatalog(&db);
        let plan = PlanBuilder::scan(&cat, "parts")
            .unwrap()
            .anti_join(
                PlanBuilder::scan(&cat, "devices_parts").unwrap(),
                &[("parts.pid", "devices_parts.pid")],
            )
            .unwrap()
            .build()
            .unwrap();
        let (base, caches, cch) = (HashMap::new(), HashMap::new(), HashMap::new());
        let ctx = empty_ctx(&db, &base, &caches, &cch);
        let rows = lookup(&ctx, &plan, &vec![], State::Post, &[0], &[Value::str("P3")]).unwrap();
        assert_eq!(rows, vec![row!["P3", 30]]);
        let used = lookup(&ctx, &plan, &vec![], State::Post, &[0], &[Value::str("P1")]).unwrap();
        assert!(used.is_empty());
    }

    #[test]
    fn union_lookup_routes_by_branch() {
        let db = setup();
        let cat = DbCatalog(&db);
        let plan = PlanBuilder::scan(&cat, "parts")
            .unwrap()
            .union_all(PlanBuilder::scan(&cat, "parts").unwrap())
            .build()
            .unwrap();
        let (base, caches, cch) = (HashMap::new(), HashMap::new(), HashMap::new());
        let ctx = empty_ctx(&db, &base, &caches, &cch);
        // Probe pid = P1 in branch 1 only.
        let rows = lookup(
            &ctx,
            &plan,
            &vec![],
            State::Post,
            &[0, 2],
            &[Value::str("P1"), Value::Int(1)],
        )
        .unwrap();
        assert_eq!(rows, vec![row!["P1", 10, 1]]);
        // Probe pid = P1 in both branches.
        let rows = lookup(&ctx, &plan, &vec![], State::Post, &[0], &[Value::str("P1")]).unwrap();
        assert_eq!(rows.len(), 2);
    }
}
