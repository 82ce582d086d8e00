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
use idivm_core::rules::join::JoinNode;
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
    /// aggregate delta path.
    pub faults: &'a FaultState,
    /// Dirty-group rescans performed this round (reported as
    /// `MaintenanceReport::rescans`).
    pub rescans: &'a AtomicU64,
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
        self.faults.hit(FaultSite::Operator, "`rescan`")?;
        self.rescans.fetch_add(1, Ordering::Relaxed);
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
            let join = Join {
                plan: node,
                kind: *kind,
                inputs: [left, right],
                residual,
                node: JoinNode::new(*kind, left, right, on, residual, path),
                keyed: JoinNode::new(JoinKind::Inner, left, right, on, None, path),
                ids: idivm_algebra::infer_ids(node)?,
            };
            let mut sides = sides.into_iter();
            let mut out = join.direct(ctx, 0, sides.next().unwrap_or_default())?;
            let dr = sides.next().unwrap_or_default();
            out.absorb(match kind {
                JoinKind::Inner => join.direct(ctx, 1, dr)?,
                _ => join.through_left(ctx, dr)?,
            });
            Ok(out)
        }
        Plan::UnionAll { .. } => {
            let mut out = TDiffs::default();
            for (branch, d) in sides.into_iter().enumerate() {
                let tag = Value::Int(branch as i64);
                out.inserts
                    .extend(d.inserts.into_iter().map(|r| push(r, &tag)));
                out.deletes
                    .extend(d.deletes.into_iter().map(|r| push(r, &tag)));
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

/// A join node as the t-diff rule reads it. Probing, NULL padding and
/// membership are core's [`JoinNode`]'s, as in the i-diff rule; only
/// the emission — inserts, deletes and `(pre, post)` update pairs — is
/// this rule's own.
struct Join<'p> {
    plan: &'p Plan,
    kind: JoinKind,
    inputs: [&'p Plan; 2],
    residual: Option<&'p Expr>,
    node: JoinNode<'p>,
    /// The residual-free inner join on the same key: its contributions
    /// are a row's raw key matches, and it reaches every left row a
    /// right row's key matches.
    keyed: JoinNode<'p>,
    /// The output IDs, by which one row's output rows before and after
    /// pair up.
    ids: Vec<usize>,
}

impl Join<'_> {
    /// A t-diff from input `side` that maps row by row onto output rows:
    /// from the left of every kind, from either side of ⋈. Each row
    /// probes and emits on its own (an update's pairing only compares
    /// its own output rows), so the batch fans out.
    fn direct(&self, ctx: &TupleCtx<'_>, side: usize, d: TDiffs) -> Result<TDiffs> {
        if d.is_empty() {
            return Ok(d);
        }
        let out_of = |row: &Row, state| self.node.contributions(ctx.access, side, row, state);
        let raw = |row: &Row, state| self.keyed.contributions(ctx.access, side, row, state);
        let holds = |row: &Row| idivm_algebra::opt_pred(self.residual, row);
        let cond = self.plan.cond_cols(side);
        let other_changed = other_changed(ctx, self.inputs[1 - side]);
        fan_out(ctx, d, |chunk| {
            let mut o = TDiffs::default();
            for r in &chunk.inserts {
                o.inserts.extend(out_of(r, State::Post)?);
            }
            for r in &chunk.deletes {
                // The vanished output rows were built from the other
                // side's pre-state.
                o.deletes.extend(out_of(r, State::Pre)?);
            }
            for (pre, post) in &chunk.updates {
                if !self.kind.keeps_right() {
                    // ⋉ and ▷: membership before and after.
                    let (p, q) = (out_of(pre, State::Pre)?, out_of(post, State::Post)?);
                    o.absorb(pair_by(&self.ids, p, q));
                } else if cond.iter().any(|&c| pre[c] != post[c]) {
                    o.deletes.extend(out_of(pre, State::Pre)?);
                    o.inserts.extend(out_of(post, State::Post)?);
                } else if !other_changed {
                    // Matching and padding are fixed: one probe rebuilds
                    // both states (the paper's single diff-driven loop,
                    // `a` accesses per diff tuple).
                    for q in out_of(post, State::Post)? {
                        o.updates.push((self.splice(side, pre, &q), q));
                    }
                } else if self.kind == JoinKind::LeftOuter {
                    o.absorb(self.repad(ctx, pre, post)?);
                } else {
                    // ⋈ while the other side changed: pair the raw key
                    // matches, each kept by its post image's residual
                    // (a delete's by its pre image's).
                    let pairs = pair_by(&self.ids, raw(pre, State::Pre)?, raw(post, State::Post)?);
                    for (p, q) in pairs.updates {
                        if holds(&q)? {
                            o.updates.push((p, q));
                        }
                    }
                    for q in pairs.inserts {
                        if holds(&q)? {
                            o.inserts.push(q);
                        }
                    }
                    for p in pairs.deletes {
                        if holds(&p)? {
                            o.deletes.push(p);
                        }
                    }
                }
            }
            Ok(o)
        })
    }

    /// A right-side t-diff of ⟕, ⋉ or ▷: the left rows its rows reach
    /// (inserts, deletes, then the updates' pre and post images) are
    /// re-derived. ⟕ pairs each one's joined or padded rows before and
    /// after; ⋉ and ▷ reach every left row a right row's key matches,
    /// residual or not, and emit each as an insert or a delete by its
    /// membership now. The reach deduplicates across the whole diff, so
    /// this stays serial.
    fn through_left(&self, ctx: &TupleCtx<'_>, d: TDiffs) -> Result<TDiffs> {
        let (pre, post): (Vec<Row>, Vec<Row>) = d.updates.into_iter().unzip();
        let rows: Vec<Row> = (d.inserts.into_iter().chain(d.deletes))
            .chain(pre)
            .chain(post)
            .collect();
        let mut out = TDiffs::default();
        if self.kind == JoinKind::LeftOuter {
            for l in self.node.reached(ctx.access, &rows)? {
                out.absorb(self.repad(ctx, &l, &l)?);
            }
            return Ok(out);
        }
        for l in self.keyed.reached(ctx.access, &rows)? {
            let now = self.node.contributions(ctx.access, 0, &l, State::Post)?;
            if now.is_empty() {
                out.deletes.push(l);
            }
            out.inserts.extend(now);
        }
        Ok(out)
    }

    /// ⟕: left row `pre`'s output rows in the pre-state paired with
    /// `post`'s in the post-state — a first match retracts the padded
    /// row, a last one re-pads; unchanged pairs are dropped.
    fn repad(&self, ctx: &TupleCtx<'_>, pre: &Row, post: &Row) -> Result<TDiffs> {
        let before = self.node.contributions(ctx.access, 0, pre, State::Pre)?;
        let after = self.node.contributions(ctx.access, 0, post, State::Post)?;
        let mut d = pair_by(&self.ids, before, after);
        d.updates.retain(|(p, q)| p != q);
        Ok(d)
    }

    /// Output row `out` with input `side`'s columns replaced by `row`.
    fn splice(&self, side: usize, row: &Row, out: &Row) -> Row {
        let la = self.inputs[0].arity();
        match side {
            0 => row.iter().chain(&out.0[la..]).cloned().collect(),
            _ => out.0[..la].iter().chain(row.iter()).cloned().collect(),
        }
    }
}

/// Pair one row's output rows before and after by the output IDs `ids`:
/// a pair is an update, a row only after an insert, a row only before a
/// delete.
fn pair_by(ids: &[usize], pre_out: Vec<Row>, post_out: Vec<Row>) -> TDiffs {
    let same = |p: &Row, q: &Row| ids.iter().all(|&c| p[c] == q[c]);
    let mut d = TDiffs::default();
    for p in &pre_out {
        if !post_out.iter().any(|q| same(p, q)) {
            d.deletes.push(p.clone());
        }
    }
    for q in post_out {
        match pre_out.iter().find(|p| same(p, &q)) {
            Some(p) => d.updates.push((p.clone(), q)),
            None => d.inserts.push(q),
        }
    }
    d
}

/// Did any base table under `plan` change this round?
fn other_changed(ctx: &TupleCtx<'_>, plan: &Plan) -> bool {
    plan.scans()
        .iter()
        .any(|(_, t)| ctx.access.base_changes.contains_key(*t))
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
            let pre_members = access::lookup(ctx.access, input, &ipath, State::Pre, keys, &gk.0)?;
            let post_members = access::lookup(ctx.access, input, &ipath, State::Post, keys, &gk.0)?;
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
            out.inserts
                .push(gk.0.into_iter().chain(g.created()).collect());
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
