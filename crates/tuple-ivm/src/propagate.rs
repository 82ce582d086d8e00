//! t-diff propagation: one operator at a time, bottom-up, with the
//! diff-driven index-nested-loop probes of the paper's Appendix A.
//!
//! Unlike i-diffs, t-diffs hold **complete rows** of each subview, so
//! every operator that combines relations must *reconstruct* the full
//! output tuples: a join probes the opposite side once per diff tuple —
//! the `a` accesses per diff tuple that dominate the tuple-based cost.

use crate::tdiff::TDiffs;
use idivm_algebra::aggregate::{aggregate_rows, GroupDelta};
use idivm_algebra::{AggSpec, Expr, JoinKind, Plan};
use idivm_core::access::{self, AccessCtx, PathId};
use idivm_core::diff::State;
use idivm_core::faults::{FaultSite, FaultState};
use idivm_exec::executor::project_row;
use idivm_exec::partition::{Batch, ParallelConfig};
use idivm_types::{Key, Result, Row, Value};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Context for tuple-based propagation.
pub struct TupleCtx<'a> {
    /// Shared access machinery (no caches: the paper's tuple-based
    /// baseline "does not use a cache, since it cannot benefit from
    /// it").
    pub access: &'a AccessCtx<'a>,
    /// Name of the materialized view (old aggregate values are read
    /// from it when the *root* operator is an incremental aggregate).
    pub view_name: &'a str,
    /// Partitioned propagation configuration — mirrors the ID-based
    /// engine's fan-out so parallel i-diff/t-diff access-ratio
    /// comparisons stay apples-to-apples.
    pub parallel: ParallelConfig,
    /// The round's fault hooks, for the mid-rescan failpoint of the
    /// aggregate delta path. `None` in contexts without fault
    /// machinery.
    pub faults: Option<&'a FaultState>,
    /// Dirty-group rescans performed this round (reported as
    /// `MaintenanceReport::rescans`). `None` when nobody is counting.
    pub rescans: Option<&'a AtomicU64>,
}

impl TupleCtx<'_> {
    /// Announce one dirty-group rescan — same contract as
    /// `idivm_core::rules::RuleCtx::on_rescan`: fires the `rescan`
    /// operator failpoint, then bumps the counter, and must be called
    /// *before* the member lookup it prices.
    ///
    /// # Errors
    /// The armed fault, when the sweep lands on this rescan.
    fn on_rescan(&self) -> Result<()> {
        if let Some(f) = self.faults {
            f.hit(FaultSite::Operator, "`rescan`")?;
        }
        if let Some(c) = self.rescans {
            c.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }
}

/// [`ParallelConfig::fan_out`] for a rule that builds one [`TDiffs`]
/// per chunk: the chunk outputs are absorbed in input order.
fn fan_out<B: Batch + Send>(
    ctx: &TupleCtx<'_>,
    batch: B,
    f: impl Fn(B) -> Result<TDiffs> + Sync,
) -> Result<TDiffs> {
    let mut out = TDiffs::default();
    for chunk in ctx.parallel.fan_out(batch, |b| Ok(vec![f(b)?]))? {
        out.absorb(chunk);
    }
    Ok(out)
}

/// Propagate the per-side child t-diffs through `node`.
///
/// # Errors
/// Access failures while probing subviews.
pub fn propagate(
    ctx: &TupleCtx<'_>,
    node: &Plan,
    path: &PathId,
    sides: Vec<TDiffs>,
) -> Result<TDiffs> {
    match node {
        Plan::Scan { .. } => Ok(sides.into_iter().next().unwrap_or_default()),
        Plan::Select { pred, .. } => {
            let d = one(sides);
            let mut out = TDiffs::default();
            for r in d.inserts {
                if pred.eval_pred(&r)? {
                    out.inserts.push(r);
                }
            }
            for r in d.deletes {
                if pred.eval_pred(&r)? {
                    out.deletes.push(r);
                }
            }
            for (pre, post) in d.updates {
                match (pred.eval_pred(&pre)?, pred.eval_pred(&post)?) {
                    (true, true) => out.updates.push((pre, post)),
                    (true, false) => out.deletes.push(pre),
                    (false, true) => out.inserts.push(post),
                    (false, false) => {}
                }
            }
            Ok(out)
        }
        Plan::Project { cols, .. } => {
            let d = one(sides);
            let mut out = TDiffs {
                inserts: d
                    .inserts
                    .iter()
                    .map(|r| project_row(r, cols))
                    .collect::<Result<_>>()?,
                deletes: d
                    .deletes
                    .iter()
                    .map(|r| project_row(r, cols))
                    .collect::<Result<_>>()?,
                updates: Vec::new(),
            };
            for (pre, post) in &d.updates {
                let p = project_row(pre, cols)?;
                let q = project_row(post, cols)?;
                if p != q {
                    out.updates.push((p, q));
                }
            }
            Ok(out)
        }
        Plan::Join {
            kind,
            left,
            right,
            on,
            residual,
        } => {
            let residual = residual.as_ref();
            if matches!(kind, JoinKind::Semi | JoinKind::Anti) {
                let keep_matched = *kind == JoinKind::Semi;
                return semi_side(ctx, left, right, on, residual, path, sides, keep_matched);
            }
            let mut iter = sides.into_iter();
            let dl = iter.next().unwrap_or_default();
            let dr = iter.next().unwrap_or_default();
            if *kind == JoinKind::LeftOuter {
                return outer_join(ctx, left, right, on, residual, path, dl, dr);
            }
            let mut out = join_side(ctx, left, right, on, residual, path, 0, dl)?;
            out.absorb(join_side(ctx, left, right, on, residual, path, 1, dr)?);
            Ok(out)
        }
        Plan::UnionAll { .. } => {
            let mut out = TDiffs::default();
            for (branch, d) in sides.into_iter().enumerate() {
                let tag = Value::Int(branch as i64);
                out.inserts.extend(d.inserts.into_iter().map(|r| push(r, &tag)));
                out.deletes.extend(d.deletes.into_iter().map(|r| push(r, &tag)));
                out.updates.extend(
                    d.updates
                        .into_iter()
                        .map(|(p, q)| (push(p, &tag), push(q, &tag))),
                );
            }
            Ok(out)
        }
        Plan::GroupBy { input, keys, aggs } => group_by(ctx, input, keys, aggs, path, one(sides)),
    }
}

fn one(sides: Vec<TDiffs>) -> TDiffs {
    let mut out = TDiffs::default();
    for s in sides {
        out.absorb(s);
    }
    out
}

fn push(r: Row, tag: &Value) -> Row {
    r.extended(tag.clone())
}

#[allow(clippy::too_many_arguments)]
fn join_side(
    ctx: &TupleCtx<'_>,
    left: &Plan,
    right: &Plan,
    on: &[(usize, usize)],
    residual: Option<&Expr>,
    path: &PathId,
    side: usize,
    d: TDiffs,
) -> Result<TDiffs> {
    if d.is_empty() {
        return Ok(TDiffs::default());
    }
    let la = left.arity();
    let (other, other_path) = if side == 0 {
        (right, child(path, 1))
    } else {
        (left, child(path, 0))
    };
    let (this_keys, other_keys): (Vec<usize>, Vec<usize>) = if side == 0 {
        (
            on.iter().map(|&(l, _)| l).collect(),
            on.iter().map(|&(_, r)| r).collect(),
        )
    } else {
        (
            on.iter().map(|&(_, r)| r).collect(),
            on.iter().map(|&(l, _)| l).collect(),
        )
    };
    let probe = |row: &Row, state: State| -> Result<Vec<Row>> {
        let vals: Vec<Value> = this_keys.iter().map(|&c| row[c].clone()).collect();
        if vals.iter().any(Value::is_null) {
            return Ok(Vec::new());
        }
        access::lookup(ctx.access, other, &other_path, state, &other_keys, &vals)
    };
    let combine = |this: &Row, m: &Row| -> Result<Option<Row>> {
        let joined = if side == 0 {
            this.concat(m)
        } else {
            m.concat(this)
        };
        Ok(idivm_algebra::opt_pred(residual, &joined)?.then_some(joined))
    };
    // Condition columns on this side decide whether updates stay
    // updates.
    let mut cond: BTreeSet<usize> = this_keys.iter().copied().collect();
    if let Some(res) = residual {
        for c in res.columns() {
            let local = if side == 0 {
                (c < la).then_some(c)
            } else {
                (c >= la).then(|| c - la)
            };
            if let Some(c) = local {
                cond.insert(c);
            }
        }
    }
    let oc = other_changed(ctx, other);
    // Every diff row probes and emits independently (the cross-row
    // pairing in the `other_changed` branch only compares matches of a
    // *single* update pair), so the batch fans out.
    fan_out(ctx, d, |chunk| {
        let mut out = TDiffs::default();
        for r in &chunk.inserts {
            for m in probe(r, State::Post)? {
                if let Some(j) = combine(r, &m)? {
                    out.inserts.push(j);
                }
            }
        }
        for r in &chunk.deletes {
            // Reconstruct the vanished view tuples against the other
            // side's *pre-state* (they were built from it).
            for m in probe(r, State::Pre)? {
                if let Some(j) = combine(r, &m)? {
                    out.deletes.push(j);
                }
            }
        }
        for (pre, post) in &chunk.updates {
            let touched = cond.iter().any(|&c| pre[c] != post[c]);
            if touched {
                for m in probe(pre, State::Pre)? {
                    if let Some(j) = combine(pre, &m)? {
                        out.deletes.push(j);
                    }
                }
                for m in probe(post, State::Post)? {
                    if let Some(j) = combine(post, &m)? {
                        out.inserts.push(j);
                    }
                }
            } else if oc {
                // The opposite side changed in the same round: its pre-
                // and post-match sets can differ, so pair matches by the
                // other side's IDs and emit precise insert/delete/update
                // splits.
                let other_ids = idivm_algebra::infer_ids(other)?;
                let pre_matches = probe(pre, State::Pre)?;
                let post_matches = probe(post, State::Post)?;
                for m in &post_matches {
                    let mk = m.key(&other_ids);
                    let was = pre_matches.iter().find(|p| p.key(&other_ids) == mk);
                    match was {
                        Some(mp) => {
                            let (jp, jq) = pair(side, pre, mp, post, m);
                            if idivm_algebra::opt_pred(residual, &jq)? {
                                out.updates.push((jp, jq));
                            }
                        }
                        None => {
                            if let Some(j) = combine(post, m)? {
                                out.inserts.push(j);
                            }
                        }
                    }
                }
                for mp in &pre_matches {
                    let mk = mp.key(&other_ids);
                    if !post_matches.iter().any(|m| m.key(&other_ids) == mk) {
                        if let Some(j) = combine(pre, mp)? {
                            out.deletes.push(j);
                        }
                    }
                }
            } else {
                // Opposite side untouched: one probe reconstructs both
                // states (the paper's single diff-driven loop, `a`
                // accesses per diff tuple).
                for m in probe(post, State::Post)? {
                    let (jp, jq) = pair(side, pre, &m, post, &m);
                    if idivm_algebra::opt_pred(residual, &jq)? {
                        out.updates.push((jp, jq));
                    }
                }
            }
        }
        Ok(out)
    })
}

/// Left outer join on t-diffs: the inner-join probes plus padding
/// repair. A left row's output set is never empty — when no right row
/// matches (or its join key is NULL) the row appears NULL-padded across
/// the right columns, right IDs included. Padding transitions pair
/// pre/post output sets by the right-ID projection (all-NULL on the
/// padded row), so a first match retracts the padded row and a last
/// removal re-pads.
#[allow(clippy::too_many_arguments)]
fn outer_join(
    ctx: &TupleCtx<'_>,
    left: &Plan,
    right: &Plan,
    on: &[(usize, usize)],
    residual: Option<&Expr>,
    path: &PathId,
    dl: TDiffs,
    dr: TDiffs,
) -> Result<TDiffs> {
    let la = left.arity();
    let ra = right.arity();
    let lpath = child(path, 0);
    let rpath = child(path, 1);
    let lcols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
    let rcols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
    let outer_rows = |l: &Row, state: State| -> Result<Vec<Row>> {
        let vals: Vec<Value> = lcols.iter().map(|&c| l[c].clone()).collect();
        let mut out = Vec::new();
        if !vals.iter().any(Value::is_null) {
            for m in access::lookup(ctx.access, right, &rpath, state, &rcols, &vals)? {
                let j = l.concat(&m);
                if idivm_algebra::opt_pred(residual, &j)? {
                    out.push(j);
                }
            }
        }
        if out.is_empty() {
            out.push(l.iter().cloned().chain(std::iter::repeat_n(Value::Null, ra)).collect());
        }
        Ok(out)
    };
    // Output-frame right IDs: the padding-transition pairing key.
    let out_rids: Vec<usize> = idivm_algebra::infer_ids(right)?
        .into_iter()
        .map(|i| i + la)
        .collect();
    let mut cond: BTreeSet<usize> = lcols.iter().copied().collect();
    if let Some(res) = residual {
        cond.extend(res.columns().into_iter().filter(|&c| c < la));
    }
    let oc = other_changed(ctx, right);
    // Left diffs: every row probes and pads independently — fan out
    // like the inner join.
    let mut out = fan_out(ctx, dl, |chunk| {
        let mut o = TDiffs::default();
        for r in &chunk.inserts {
            o.inserts.extend(outer_rows(r, State::Post)?);
        }
        for r in &chunk.deletes {
            o.deletes.extend(outer_rows(r, State::Pre)?);
        }
        for (pre, post) in &chunk.updates {
            let touched = cond.iter().any(|&c| pre[c] != post[c]);
            if touched {
                o.deletes.extend(outer_rows(pre, State::Pre)?);
                o.inserts.extend(outer_rows(post, State::Post)?);
            } else if oc {
                let pre_out = outer_rows(pre, State::Pre)?;
                let post_out = outer_rows(post, State::Post)?;
                pair_by_rid(&mut o, pre_out, post_out, &out_rids);
            } else {
                // Right side untouched: matching and padding are fixed,
                // so one probe reconstructs both states.
                for q in outer_rows(post, State::Post)? {
                    let p = pre.iter().chain(&q.0[la..]).cloned().collect();
                    o.updates.push((p, q));
                }
            }
        }
        Ok(o)
    })?;
    // Right diffs: affected left rows' output sets may gain or lose
    // padding — recompute them. Dedup across the whole diff (cross-row
    // state), so this path stays serial.
    let mut affected: Vec<Row> = Vec::new();
    let mut seen = BTreeSet::new();
    let mut collect = |rows: &[Row]| -> Result<()> {
        for r in rows {
            let vals: Vec<Value> = rcols.iter().map(|&c| r[c].clone()).collect();
            if vals.iter().any(Value::is_null) {
                continue;
            }
            for l in access::lookup(ctx.access, left, &lpath, State::Post, &lcols, &vals)? {
                if idivm_algebra::opt_pred(residual, &l.concat(r))? && seen.insert(l.clone()) {
                    affected.push(l);
                }
            }
        }
        Ok(())
    };
    collect(&dr.inserts)?;
    collect(&dr.deletes)?;
    let prs: Vec<Row> = dr.updates.iter().map(|(p, _)| p.clone()).collect();
    let pos: Vec<Row> = dr.updates.iter().map(|(_, q)| q.clone()).collect();
    collect(&prs)?;
    collect(&pos)?;
    for l in affected {
        let pre_out = outer_rows(&l, State::Pre)?;
        let post_out = outer_rows(&l, State::Post)?;
        pair_by_rid(&mut out, pre_out, post_out, &out_rids);
    }
    Ok(out)
}

/// Pair pre/post output sets of one left row by the right-ID
/// projection: shared keys become updates (when changed), vanished rows
/// deletes, new rows inserts.
fn pair_by_rid(o: &mut TDiffs, pre_out: Vec<Row>, post_out: Vec<Row>, rid: &[usize]) {
    for q in &post_out {
        let k = q.key(rid);
        match pre_out.iter().find(|p| p.key(rid) == k) {
            Some(p) => {
                if *p != *q {
                    o.updates.push((p.clone(), q.clone()));
                }
            }
            None => o.inserts.push(q.clone()),
        }
    }
    for p in pre_out {
        if !post_out.iter().any(|q| q.key(rid) == p.key(rid)) {
            o.deletes.push(p);
        }
    }
}

fn pair(side: usize, pre: &Row, m_pre: &Row, post: &Row, m_post: &Row) -> (Row, Row) {
    if side == 0 {
        (pre.concat(m_pre), post.concat(m_post))
    } else {
        (m_pre.concat(pre), m_post.concat(post))
    }
}

/// Did any base table under `plan` change this round?
fn other_changed(ctx: &TupleCtx<'_>, plan: &Plan) -> bool {
    plan.scans()
        .iter()
        .any(|(_, t)| ctx.access.base_changes.contains_key(*t))
}

#[allow(clippy::too_many_arguments)]
fn semi_side(
    ctx: &TupleCtx<'_>,
    left: &Plan,
    right: &Plan,
    on: &[(usize, usize)],
    residual: Option<&Expr>,
    path: &PathId,
    sides: Vec<TDiffs>,
    keep_matched: bool,
) -> Result<TDiffs> {
    let mut iter = sides.into_iter();
    let dl = iter.next().unwrap_or_default();
    let dr = iter.next().unwrap_or_default();
    let rpath = child(path, 1);
    let lpath = child(path, 0);
    let rcols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
    let lcols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
    let member = |row: &Row, state: State| -> Result<bool> {
        let vals: Vec<Value> = lcols.iter().map(|&c| row[c].clone()).collect();
        if vals.iter().any(Value::is_null) {
            // NULL keys never match: membership = ¬matched for anti.
            return Ok(!keep_matched);
        }
        let hits = access::lookup(ctx.access, right, &rpath, state, &rcols, &vals)?;
        let mut matched = false;
        for m in &hits {
            if idivm_algebra::opt_pred(residual, &row.concat(m))? {
                matched = true;
                break;
            }
        }
        Ok(matched == keep_matched)
    };
    // Left diffs: membership decides survival — one membership probe
    // per diff row, no cross-row state, so the batch fans out. (Right
    // diffs below dedupe affected left rows across the whole diff and
    // stay serial.)
    let mut out = fan_out(ctx, dl, |chunk| {
        let mut o = TDiffs::default();
        for r in &chunk.inserts {
            if member(r, State::Post)? {
                o.inserts.push(r.clone());
            }
        }
        for r in &chunk.deletes {
            if member(r, State::Pre)? {
                o.deletes.push(r.clone());
            }
        }
        for (pre, post) in &chunk.updates {
            match (member(pre, State::Pre)?, member(post, State::Post)?) {
                (true, true) => o.updates.push((pre.clone(), post.clone())),
                (true, false) => o.deletes.push(pre.clone()),
                (false, true) => o.inserts.push(post.clone()),
                (false, false) => {}
            }
        }
        Ok(o)
    })?;
    // Right diffs: membership of matching left rows may flip.
    let mut affected: Vec<Row> = Vec::new();
    let mut seen = BTreeSet::new();
    let mut collect = |rows: &[Row]| -> Result<()> {
        for r in rows {
            let vals: Vec<Value> = rcols.iter().map(|&c| r[c].clone()).collect();
            if vals.iter().any(Value::is_null) {
                continue;
            }
            for l in access::lookup(
                ctx.access,
                left,
                &lpath,
                State::Post,
                &lcols,
                &vals,
            )? {
                if seen.insert(l.clone()) {
                    affected.push(l);
                }
            }
        }
        Ok(())
    };
    collect(&dr.inserts)?;
    collect(&dr.deletes)?;
    let prs: Vec<Row> = dr.updates.iter().map(|(p, _)| p.clone()).collect();
    let pos: Vec<Row> = dr.updates.iter().map(|(_, q)| q.clone()).collect();
    collect(&prs)?;
    collect(&pos)?;
    for l in affected {
        if member(&l, State::Post)? {
            out.inserts.push(l);
        } else {
            out.deletes.push(l);
        }
    }
    Ok(out)
}

fn group_by(
    ctx: &TupleCtx<'_>,
    input: &Plan,
    keys: &[usize],
    aggs: &[AggSpec],
    path: &PathId,
    d: TDiffs,
) -> Result<TDiffs> {
    if d.is_empty() {
        return Ok(TDiffs::default());
    }
    let ipath = child(path, 0);
    // At the root with stable groups, SUM/COUNT/MIN/MAX fold as deltas
    // against the view's stored rows, with a dirty-group rescan fallback,
    // instead of the two-lookups-per-group general recompute below.
    let groups_stable = d
        .updates
        .iter()
        .all(|(p, q)| keys.iter().all(|&k| p[k] == q[k]));
    if let Some(fresh) = GroupDelta::new(aggs).filter(|_| path.is_empty() && groups_stable) {
        return group_by_delta(ctx, input, keys, aggs, &ipath, &d, &fresh);
    }
    // General path: recompute affected groups in pre- and post-state.
    let mut affected: BTreeSet<Key> = BTreeSet::new();
    for r in d.inserts.iter().chain(d.deletes.iter()) {
        affected.insert(r.key(keys));
    }
    for (p, q) in &d.updates {
        affected.insert(p.key(keys));
        affected.insert(q.key(keys));
    }
    // Each affected group recomputes independently (two member lookups,
    // one aggregate fold): the sorted group list fans out.
    let affected: Vec<Key> = affected.into_iter().collect();
    fan_out(ctx, affected, |chunk: Vec<Key>| {
        let mut o = TDiffs::default();
        for gk in chunk {
            let pre_members =
                access::lookup(ctx.access, input, &ipath, State::Pre, keys, &gk.0)?;
            let post_members =
                access::lookup(ctx.access, input, &ipath, State::Post, keys, &gk.0)?;
            let mk = |members: &[Row]| -> Result<Row> {
                let group = gk.0.iter().cloned().map(Ok);
                Row::try_collect(group.chain(aggs.iter().map(|a| aggregate_rows(a, members))))
            };
            match (pre_members.is_empty(), post_members.is_empty()) {
                (true, true) => {}
                (true, false) => o.inserts.push(mk(&post_members)?),
                (false, true) => o.deletes.push(mk(&pre_members)?),
                (false, false) => {
                    let pre = mk(&pre_members)?;
                    let post = mk(&post_members)?;
                    if pre != post {
                        o.updates.push((pre, post));
                    }
                }
            }
        }
        Ok(o)
    })
}

/// The paper's tuple-based aggregate path (Appendix A.2), extended to
/// MIN/MAX: fold `D_Vspj` into per-group [`GroupDelta`]s with pipelined
/// hash aggregation (no extra accesses), then settle each group against
/// the view's stored row. Groups that had a delete are probed for
/// emptiness; a dirty group is re-read by one counted rescan. Serial, in
/// sorted group order: rescans fire the mid-rescan failpoint and bump
/// the rescan counter in the same order for any thread count.
fn group_by_delta(
    ctx: &TupleCtx<'_>,
    input: &Plan,
    keys: &[usize],
    aggs: &[AggSpec],
    ipath: &PathId,
    d: &TDiffs,
    fresh: &GroupDelta,
) -> Result<TDiffs> {
    let input_ids = idivm_algebra::infer_ids(input)?;
    let view = ctx.access.db.table(ctx.view_name)?;
    let key_cols: Vec<usize> = (0..keys.len()).collect();
    let mut out = TDiffs::default();
    let mut vals = Vec::with_capacity(aggs.len());
    for (gk, g) in d.group_deltas(&input_ids, keys, aggs, fresh)? {
        let Some(old_row) = view.lookup(&key_cols, &gk).into_iter().next() else {
            out.inserts.push(gk.0.into_iter().chain(g.created()).collect());
            continue;
        };
        let old = &old_row.0[keys.len()..keys.len() + aggs.len()];
        let members = || access::lookup(ctx.access, input, ipath, State::Post, keys, &gk.0);
        if !g.settle(aggs, old, &mut vals, || ctx.on_rescan(), members)? {
            out.deletes.push(old_row);
        } else if vals.iter().ne(old) {
            let new_value = |c: usize| c.checked_sub(keys.len()).and_then(|i| vals.get(i));
            let post = old_row
                .iter()
                .enumerate()
                .map(|(c, v)| new_value(c).unwrap_or(v).clone())
                .collect();
            out.updates.push((old_row, post));
        }
    }
    Ok(out)
}

fn child(path: &[usize], i: usize) -> PathId {
    let mut p = path.to_vec();
    p.push(i);
    p
}
