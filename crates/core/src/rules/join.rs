//! The join family as one rule over [`JoinKind`] — paper Tables 4 and
//! 10 (⋈, and × as the key-less special case), their NULL-padding left
//! outer extension ⟕, and Table 13 (semijoin ⋉ and antisemijoin ▷, the
//! latter giving `QSPJADU` its negation).
//!
//! The output IDs are the inputs' IDs (Table 1: `ID(R) ∪ ID(S)`, or
//! `ID(R)` where only the left columns are output). The headline win of
//! ID-based IVM lives here: a delete or condition-free update from the
//! left input — or from either input of an inner join — **passes
//! through without touching the other side** (`∆u ⋈_Ī R → ∆u`,
//! `∆− ⋈_Ī R → ∆−` up to renaming — Figure 8), because the diff's IDs
//! address every output row derived from the changed rows, NULL-padded
//! ones included. Tuple-based IVM must perform the joins to reconstruct
//! full view tuples — the `a` accesses per diff tuple of the paper's
//! cost model.
//!
//! Whatever touches the join condition probes the other side, as
//! Tables 10 and 13 prescribe: an insert emits what its rows contribute,
//! and a condition-touching update diffs what each changed row
//! contributes before and after. A right-side diff of ⟕, ⋉ or ▷ changes
//! which left rows match — a first match retracts a padded row or
//! decides membership, a last one re-pads or reverses it — so it
//! re-derives the left rows it reaches instead.

use crate::access::{self, AccessCtx, PathId};
use crate::diff::{DiffInstance, DiffKind, DiffSchema, Layout, State};
use crate::rules::common::{
    child_path, delete_rows, insert_rows, on_diff, shift_schema, untouched, update_row_pairs,
};
use crate::rules::RuleCtx;
use idivm_algebra::{infer_ids, opt_pred, Expr, JoinKind, Plan};
use idivm_types::{Key, Result, Row, Value};
use std::collections::BTreeSet;

/// Propagate one diff (from `side`: 0 = left, 1 = right) through a
/// join of `kind`.
///
/// # Errors
/// Access failures while probing either input.
#[allow(clippy::too_many_arguments)]
pub fn propagate(
    ctx: &RuleCtx<'_>,
    kind: JoinKind,
    left: &Plan,
    right: &Plan,
    on: &[(usize, usize)],
    residual: Option<&Expr>,
    path: &PathId,
    side: usize,
    diff: DiffInstance,
) -> Result<Vec<DiffInstance>> {
    let join = JoinNode::new(kind, left, right, on, residual, path);
    let access = ctx.access;
    let this = join.inputs[side];
    let offset = if side == 0 { 0 } else { left.arity() };
    // Diffs from the left of every kind, and from either side of an
    // inner join, map row by row onto output rows; the rest go through
    // the left rows they reach.
    let direct = side == 0 || kind == JoinKind::Inner;
    let rows = match diff.schema.kind {
        DiffKind::Insert if kind == JoinKind::Inner => {
            return Ok(vec![join.inserts(access, side, &diff)?]);
        }
        DiffKind::Insert if direct => {
            let mut rows = Vec::new();
            for l in insert_rows(&diff, left.arity()) {
                rows.extend(join.contributions(access, 0, &l, State::Post)?);
            }
            let ids = join.out_ids()?;
            return Ok(vec![DiffInstance::insert_from_rows(
                &ids,
                join.arity(),
                &rows,
            )]);
        }
        DiffKind::Insert => insert_rows(&diff, right.arity()),
        DiffKind::Delete if direct => {
            let schema = shift_schema(&diff.schema, offset);
            return Ok(vec![DiffInstance::new(schema, diff.rows)]);
        }
        DiffKind::Delete => delete_rows(access, right, &join.paths[1], &diff)?,
        DiffKind::Update if untouched(&diff.schema, &join.cond_cols(side)) => {
            if !kind.keeps_right() && side == 1 {
                // The right side contributes no output columns, so a
                // condition-free right update is invisible.
                return Ok(Vec::new());
            }
            if ctx.minimize || !direct || !kind.keeps_right() {
                // Matching (and padding) cannot change: pass through in
                // place. The right IDs of ⟕ address exactly the joined
                // rows (a padded row's NULL right IDs equal no real one).
                let schema = shift_schema(&diff.schema, offset);
                return Ok(vec![DiffInstance::new(schema, diff.rows)]);
            }
            // General (unminimized) form: reconstruct the affected output
            // rows, paying the probes, and emit updates at full
            // granularity. Same result, more accesses; kept for the
            // Pass-4 ablation.
            let pairs =
                update_row_pairs(access, this, &join.paths[side], &infer_ids(this)?, &diff)?;
            let mut joined = Vec::new();
            for p in &pairs {
                joined.extend(join.contributions(access, side, &p.post, State::Post)?);
            }
            let post_cols: Vec<usize> = diff.schema.post_cols.iter().map(|c| c + offset).collect();
            let schema = DiffSchema::update(&join.out_ids()?, &[], &post_cols);
            let layout = Layout::diff_rows(&schema.id_cols, &schema.post_cols, join.arity());
            let rows = layout.apply_all(&joined);
            return Ok(vec![DiffInstance::new(schema, rows)]);
        }
        DiffKind::Update => {
            // Matching may change in both directions: materialize each
            // changed row's pre and post image (Table 13's "update as
            // delete + insert").
            let pairs =
                update_row_pairs(access, this, &join.paths[side], &infer_ids(this)?, &diff)?;
            if !direct {
                let pre = pairs.iter().map(|p| p.pre.clone());
                pre.chain(pairs.iter().map(|p| p.post.clone())).collect()
            } else {
                // The inner join reads the other side's post-state for
                // both images (Table 10's `Input_post`); the others
                // derive the pre image from the pre-state.
                let before = if kind == JoinKind::Inner {
                    State::Post
                } else {
                    State::Pre
                };
                let (mut pre_out, mut post_out) = (Vec::new(), Vec::new());
                for p in &pairs {
                    pre_out.extend(join.contributions(access, side, &p.pre, before)?);
                    post_out.extend(join.contributions(access, side, &p.post, State::Post)?);
                }
                return join.transition(pre_out, post_out);
            }
        }
    };
    join.through_left(access, &rows)
}

/// One join node as its rules see it — core's i-diff rule above, and
/// the t-diff rule of the tuple-based baseline, which builds on its
/// condition columns, [`JoinNode::contributions`] and
/// [`JoinNode::reached`].
pub struct JoinNode<'p> {
    kind: JoinKind,
    inputs: [&'p Plan; 2],
    on: &'p [(usize, usize)],
    residual: Option<&'p Expr>,
    /// The inputs' paths.
    pub(crate) paths: [PathId; 2],
}

/// Where an output column of an insert's joined row comes from.
#[derive(Clone, Copy)]
enum Pick {
    /// A slot of the insert diff row.
    Diff(usize),
    /// A column of the matched row of the other side.
    Other(usize),
}

impl<'p> JoinNode<'p> {
    /// The join of `kind` at `path`.
    pub fn new(
        kind: JoinKind,
        left: &'p Plan,
        right: &'p Plan,
        on: &'p [(usize, usize)],
        residual: Option<&'p Expr>,
        path: &[usize],
    ) -> Self {
        JoinNode {
            kind,
            inputs: [left, right],
            on,
            residual,
            paths: [child_path(path, 0), child_path(path, 1)],
        }
    }

    /// The join-key columns of input `side`, in `on` order.
    fn keys(&self, side: usize) -> Vec<usize> {
        let pick = |&(l, r): &(usize, usize)| if side == 0 { l } else { r };
        self.on.iter().map(pick).collect()
    }

    /// The condition columns of input `side` in its own frame: its join
    /// keys and its part of the residual.
    pub fn cond_cols(&self, side: usize) -> BTreeSet<usize> {
        let la = self.inputs[0].arity();
        let mut cols: BTreeSet<usize> = self.keys(side).into_iter().collect();
        if let Some(res) = self.residual {
            let local = |c: usize| match side {
                0 => (c < la).then_some(c),
                _ => (c >= la).then(|| c - la),
            };
            cols.extend(res.columns().into_iter().filter_map(local));
        }
        cols
    }

    fn arity(&self) -> usize {
        let [left, right] = self.inputs;
        left.arity()
            + if self.kind.keeps_right() {
                right.arity()
            } else {
                0
            }
    }

    /// The output IDs (Table 1).
    fn out_ids(&self) -> Result<Vec<usize>> {
        let [left, right] = self.inputs;
        let mut ids = infer_ids(left)?;
        if self.kind.keeps_right() {
            ids.extend(infer_ids(right)?.into_iter().map(|i| i + left.arity()));
        }
        Ok(ids)
    }

    /// Probe input `target` in `state` once per row of `rows`, by the
    /// values at `slots` against its join keys (a NULL among them
    /// matches nothing), and hand each row and match to `emit`, in row
    /// then match order.
    fn probe(
        &self,
        access: &AccessCtx<'_>,
        target: usize,
        state: State,
        rows: &[Row],
        slots: &[usize],
        mut emit: impl FnMut(&Row, Row) -> Result<()>,
    ) -> Result<()> {
        let (plan, path, keys) = (self.inputs[target], &self.paths[target], self.keys(target));
        // One probe vector for all rows, refilled per row.
        let mut vals: Vec<Value> = Vec::with_capacity(slots.len());
        for row in rows {
            vals.clear();
            vals.extend(slots.iter().map(|&s| row[s].clone()));
            if vals.iter().any(Value::is_null) {
                continue;
            }
            for m in access::lookup(access, plan, path, state, &keys, &vals)? {
                emit(row, m)?;
            }
        }
        Ok(())
    }

    /// The output rows one full row of input `side` contributes in
    /// `state`, probing the other input: its joined rows; for ⟕ a single
    /// NULL-padded row when nothing matches (a NULL left key always
    /// pads, per SQL); for ⋉ and ▷ the row itself when it has a match,
    /// or has none. Only inner joins are asked about right rows.
    pub fn contributions(
        &self,
        access: &AccessCtx<'_>,
        side: usize,
        row: &Row,
        state: State,
    ) -> Result<Vec<Row>> {
        let mut joined = Vec::new();
        let mut matched = false;
        let rows = std::slice::from_ref(row);
        self.probe(access, 1 - side, state, rows, &self.keys(side), |row, m| {
            let pair = if side == 0 {
                row.concat(&m)
            } else {
                m.concat(row)
            };
            if opt_pred(self.residual, &pair)? {
                matched = true;
                if self.kind.keeps_right() {
                    joined.push(pair);
                }
            }
            Ok(())
        })?;
        Ok(match self.kind {
            JoinKind::LeftOuter if !matched => {
                let pad = std::iter::repeat_n(Value::Null, self.inputs[1].arity());
                vec![row.iter().cloned().chain(pad).collect()]
            }
            JoinKind::Inner | JoinKind::LeftOuter => joined,
            JoinKind::Semi if matched => vec![row.clone()],
            JoinKind::Anti if !matched => vec![row.clone()],
            JoinKind::Semi | JoinKind::Anti => Vec::new(),
        })
    }

    /// `∆⁺ ⋈φ Input_post_other` straight into the insert schema's layout:
    /// the diff side's slots are resolved once, each probe reads its
    /// join key from them, and each output row is picked slot by slot
    /// from the diff row and the matched row — one allocation per
    /// candidate row. The residual is rewritten once onto the output's
    /// slots and evaluated on the picked row.
    fn inserts(
        &self,
        access: &AccessCtx<'_>,
        side: usize,
        diff: &DiffInstance,
    ) -> Result<DiffInstance> {
        let out = DiffSchema::insert(&self.out_ids()?, self.arity());
        let Some(sources) = diff
            .schema
            .full_sources(self.inputs[side].arity(), State::Post)
        else {
            return Ok(DiffInstance::new(out, Vec::new()));
        };
        let la = self.inputs[0].arity();
        let slots: Vec<usize> = self.keys(side).iter().map(|&c| sources.slot(c)).collect();
        let picks: Vec<Pick> = out
            .id_cols
            .iter()
            .chain(&out.post_cols)
            .map(|&o| match (side, o < la) {
                (0, true) => Pick::Diff(sources.slot(o)),
                (0, false) => Pick::Other(o - la),
                (_, true) => Pick::Other(o),
                (_, false) => Pick::Diff(sources.slot(o - la)),
            })
            .collect();
        let residual = self.residual.map(|r| on_diff(&out, r, State::Post));
        let mut rows = Vec::new();
        self.probe(access, 1 - side, State::Post, &diff.rows, &slots, |d, m| {
            let row: Row = picks
                .iter()
                .map(|&p| match p {
                    Pick::Diff(s) => d[s].clone(),
                    Pick::Other(c) => m[c].clone(),
                })
                .collect();
            if opt_pred(residual.as_ref(), &row)? {
                rows.push(row);
            }
            Ok(())
        })?;
        Ok(DiffInstance::new(out, rows))
    }

    /// The reach step: the left rows that the full right rows
    /// `right_rows` match under the residual, in the post-state — each
    /// once, in first-seen order.
    pub fn reached(&self, access: &AccessCtx<'_>, right_rows: &[Row]) -> Result<Vec<Row>> {
        let mut seen = BTreeSet::new();
        let mut reached = Vec::new();
        self.probe(access, 0, State::Post, right_rows, &self.keys(1), |r, l| {
            if opt_pred(self.residual, &l.concat(r))? && seen.insert(l.clone()) {
                reached.push(l);
            }
            Ok(())
        })?;
        Ok(reached)
    }

    /// A right-side diff of ⟕, ⋉ or ▷, as the full right rows it holds
    /// (an update's pre images, then its post images). The left rows
    /// they reach are re-derived: ⟕ diffs each one's padded or joined
    /// rows before and after; ⋉ and ▷ emit each one as a delete or an
    /// insert by its membership now — inserting a present row or
    /// deleting an absent one is a dummy, so the membership before is
    /// not read.
    fn through_left(
        &self,
        access: &AccessCtx<'_>,
        right_rows: &[Row],
    ) -> Result<Vec<DiffInstance>> {
        let reached = self.reached(access, right_rows)?;
        if self.kind == JoinKind::LeftOuter {
            let (mut pre_out, mut post_out) = (Vec::new(), Vec::new());
            for l in &reached {
                pre_out.extend(self.contributions(access, 0, l, State::Pre)?);
                post_out.extend(self.contributions(access, 0, l, State::Post)?);
            }
            return self.transition(pre_out, post_out);
        }
        let (mut now_in, mut now_out) = (Vec::new(), Vec::new());
        for l in reached {
            if self.contributions(access, 0, &l, State::Post)?.is_empty() {
                now_out.push(l);
            } else {
                now_in.push(l);
            }
        }
        let (ids, arity) = (self.out_ids()?, self.arity());
        let mut out = Vec::new();
        if !now_out.is_empty() {
            out.push(DiffInstance::delete_from_rows(&ids, arity, &now_out));
        }
        if !now_in.is_empty() {
            out.push(DiffInstance::insert_from_rows(&ids, arity, &now_in));
        }
        Ok(out)
    }

    /// Diff the output rows the affected rows contributed before and
    /// after by output ID: rows whose ID vanished are deleted. ⋈ and ⟕
    /// re-assert the whole post set as an update (surviving rows get
    /// their values fixed in place) and an insert (new rows, fresh
    /// padded rows included; exact duplicates are dummies). ⋉ and ▷,
    /// one output row per left row, update the rows that stay and insert
    /// the rows that enter.
    fn transition(&self, pre_out: Vec<Row>, post_out: Vec<Row>) -> Result<Vec<DiffInstance>> {
        let (ids, arity) = (self.out_ids()?, self.arity());
        let keys = |rows: &[Row]| -> BTreeSet<Key> { rows.iter().map(|r| r.key(&ids)).collect() };
        let post_keys = keys(&post_out);
        let split: (Vec<Row>, Vec<Row>);
        let (update, insert) = if self.kind.keeps_right() {
            (&post_out, &post_out)
        } else {
            let pre_keys = keys(&pre_out);
            split = post_out
                .iter()
                .cloned()
                .partition(|r| pre_keys.contains(&r.key(&ids)));
            (&split.0, &split.1)
        };
        let leaving: Vec<Row> = pre_out
            .into_iter()
            .filter(|r| !post_keys.contains(&r.key(&ids)))
            .collect();
        let mut out = Vec::new();
        if !leaving.is_empty() {
            out.push(DiffInstance::delete_from_rows(&ids, arity, &leaving));
        }
        if !update.is_empty() {
            let rest: Vec<usize> = (0..arity).filter(|c| !ids.contains(c)).collect();
            let schema = DiffSchema::update(&ids, &[], &rest);
            let rows =
                Layout::diff_rows(&schema.id_cols, &schema.post_cols, arity).apply_all(update);
            out.push(DiffInstance::new(schema, rows));
        }
        if !insert.is_empty() {
            out.push(DiffInstance::insert_from_rows(&ids, arity, insert));
        }
        Ok(out)
    }
}
