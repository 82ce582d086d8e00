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
use crate::diff::{DiffInstance, DiffKind, DiffSchema, State};
use crate::rules::common::{
    child_path, delete_rows, insert_rows, on_diff, untouched, update_row_pairs,
};
use crate::rules::RuleCtx;
use idivm_algebra::{infer_ids, opt_pred, Expr, JoinKind, Plan};
use idivm_types::{Error, Key, Result, Row, Value};
use std::collections::BTreeSet;

/// Propagate one diff (from `side`: 0 = left, 1 = right) through the
/// join `node`, along the route [`out_schemas`] gives it.
///
/// # Errors
/// Access failures while probing either input.
pub fn propagate(
    ctx: &RuleCtx<'_>,
    node: &Plan,
    path: &PathId,
    side: usize,
    diff: DiffInstance,
) -> Result<Vec<DiffInstance>> {
    let (mut schemas, derived) = out_schemas(node, side, &diff.schema, ctx.minimize)?;
    if !derived {
        let out = schemas.pop().map(|s| DiffInstance::new(s, diff.rows));
        return Ok(out.into_iter().collect());
    }
    let Plan::Join {
        kind,
        left,
        right,
        on,
        residual,
    } = node
    else {
        return Err(Error::Internal("the join rule runs on join nodes".into()));
    };
    let join = JoinNode::new(*kind, left, right, on, residual.as_ref(), path);
    let (access, this, arity) = (ctx.access, join.inputs[side], node.arity());
    // Diffs from the left of every kind, and from either side of an
    // inner join, map row by row onto output rows; the rest go through
    // the left rows they reach.
    let direct = side == 0 || *kind == JoinKind::Inner;
    let rows = match diff.schema.kind {
        DiffKind::Insert if *kind == JoinKind::Inner => {
            let out = join.inserts(access, side, &diff, schemas.remove(0))?;
            return Ok(vec![out]);
        }
        DiffKind::Insert if direct => {
            let mut rows = Vec::new();
            for l in insert_rows(&diff, left.arity()) {
                rows.extend(join.contributions(access, 0, &l, State::Post)?);
            }
            let out = DiffInstance::from_rows(schemas.remove(0), arity, &rows);
            return Ok(vec![out]);
        }
        DiffKind::Insert => insert_rows(&diff, right.arity()),
        DiffKind::Delete => delete_rows(access, right, &join.paths[1], &diff)?,
        DiffKind::Update => {
            let pairs =
                update_row_pairs(access, this, &join.paths[side], &infer_ids(this)?, &diff)?;
            if !direct {
                let pre = pairs.iter().map(|p| p.pre.clone());
                pre.chain(pairs.iter().map(|p| p.post.clone())).collect()
            } else if schemas.len() == 1 {
                // General (unminimized) form of a condition-free update:
                // reconstruct the affected output rows, paying the
                // probes. Same result, more accesses; kept for the
                // Pass-4 ablation.
                let mut joined = Vec::new();
                for p in &pairs {
                    joined.extend(join.contributions(access, side, &p.post, State::Post)?);
                }
                let out = DiffInstance::from_rows(schemas.remove(0), arity, &joined);
                return Ok(vec![out]);
            } else {
                // Matching may change in both directions: each changed
                // row's output before and after (Table 13's "update as
                // delete + insert"). The inner join reads the other
                // side's post-state for both images (Table 10's
                // `Input_post`); the others derive the pre image from the
                // pre-state.
                let before = if *kind == JoinKind::Inner {
                    State::Post
                } else {
                    State::Pre
                };
                let (mut pre_out, mut post_out) = (Vec::new(), Vec::new());
                for p in &pairs {
                    pre_out.extend(join.contributions(access, side, &p.pre, before)?);
                    post_out.extend(join.contributions(access, side, &p.post, State::Post)?);
                }
                return Ok(join.transition(pre_out, post_out, schemas));
            }
        }
    };
    join.through_left(access, &rows, schemas)
}

/// The schemas a diff of schema `diff` from input `side` leaves the
/// join `node` with, and whether the rule re-derives its rows by
/// probing rather than passing them through in place.
///
/// A delete from the left of any kind, or from either side of ⋈, passes
/// through in place, as does an update touching no condition column
/// ([`Plan::cond_cols`]) from those inputs under Pass 4, from the left of
/// ⋉ and ▷ and from the right of ⟕: its IDs, shifted into the output,
/// address every output row derived from its rows, NULL-padded ones
/// included (a padded row's NULL right IDs equal no real one). Such an
/// update from the right of ⋉ and ▷ is invisible. Everything else is
/// re-derived and keyed by the join's own IDs (Table 1): an insert; the
/// general form of a condition-free update, setting its columns; and a
/// condition-touching update or a right-side diff of ⟕, ⋉ and ▷, as
/// deletes, updates (not from the right of ⋉ and ▷) and inserts, in
/// that order.
///
/// # Errors
/// `node` is no join; ID-inference failures.
pub(crate) fn out_schemas(
    node: &Plan,
    side: usize,
    diff: &DiffSchema,
    minimize: bool,
) -> Result<(Vec<DiffSchema>, bool)> {
    let Plan::Join { kind, left, .. } = node else {
        return Err(Error::Internal("the join rule runs on join nodes".into()));
    };
    let (direct, keeps) = (side == 0 || *kind == JoinKind::Inner, kind.keeps_right());
    let touches = diff.kind == DiffKind::Update && !untouched(diff, &node.cond_cols(side));
    let offset = side * left.arity();
    let in_place = match diff.kind {
        DiffKind::Insert => false,
        DiffKind::Delete => direct,
        DiffKind::Update => !touches && (minimize || !direct || !keeps),
    };
    if in_place {
        if diff.kind == DiffKind::Update && side == 1 && !keeps {
            return Ok((Vec::new(), false));
        }
        let mut out = diff.clone();
        for cols in [&mut out.id_cols, &mut out.pre_cols, &mut out.post_cols] {
            cols.iter_mut().for_each(|c| *c += offset);
        }
        return Ok((vec![out], false));
    }
    let (ids, arity) = (infer_ids(node)?, node.arity());
    let schemas = match diff.kind {
        DiffKind::Insert if direct => vec![DiffSchema::insert(&ids, arity)],
        DiffKind::Update if !touches => {
            let post: Vec<usize> = diff.post_cols.iter().map(|c| c + offset).collect();
            vec![DiffSchema::update(&ids, &[], &post)]
        }
        _ => {
            let rest: Vec<usize> = (0..arity).filter(|c| !ids.contains(c)).collect();
            let mut out = vec![DiffSchema::delete(&ids, &rest)];
            if direct || *kind == JoinKind::LeftOuter {
                out.push(DiffSchema::update(&ids, &[], &rest));
            }
            out.push(DiffSchema::insert(&ids, arity));
            out
        }
    };
    Ok((schemas, true))
}

/// One join node as its rules see it — core's i-diff rule above, and
/// the t-diff rule of the tuple-based baseline, which builds on
/// [`JoinNode::contributions`] and [`JoinNode::reached`].
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

    fn arity(&self) -> usize {
        let [left, right] = self.inputs;
        left.arity()
            + if self.kind.keeps_right() {
                right.arity()
            } else {
                0
            }
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

    /// `∆⁺ ⋈φ Input_post_other` straight into the insert schema `out`:
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
        out: DiffSchema,
    ) -> Result<DiffInstance> {
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
    /// (an update's pre images, then its post images), emitted in
    /// `schemas`. The left rows they reach are re-derived: ⟕ diffs each
    /// one's padded or joined rows before and after; ⋉ and ▷ emit each
    /// one as a delete or an insert by its membership now — inserting a
    /// present row or deleting an absent one is a dummy, so the
    /// membership before is not read.
    fn through_left(
        &self,
        access: &AccessCtx<'_>,
        right_rows: &[Row],
        schemas: Vec<DiffSchema>,
    ) -> Result<Vec<DiffInstance>> {
        let reached = self.reached(access, right_rows)?;
        if self.kind == JoinKind::LeftOuter {
            let (mut pre_out, mut post_out) = (Vec::new(), Vec::new());
            for l in &reached {
                pre_out.extend(self.contributions(access, 0, l, State::Pre)?);
                post_out.extend(self.contributions(access, 0, l, State::Post)?);
            }
            return Ok(self.transition(pre_out, post_out, schemas));
        }
        let (mut now_in, mut now_out) = (Vec::new(), Vec::new());
        for l in reached {
            if self.contributions(access, 0, &l, State::Post)?.is_empty() {
                now_out.push(l);
            } else {
                now_in.push(l);
            }
        }
        Ok(self.laid(schemas, [&now_out, &now_in]))
    }

    /// Diff the output rows the affected rows contributed before and
    /// after by output ID, in `schemas` (a delete, an update and an
    /// insert): rows whose ID vanished are deleted. ⋈ and ⟕ re-assert
    /// the whole post set as an update (surviving rows get their values
    /// fixed in place) and an insert (new rows, fresh padded rows
    /// included; exact duplicates are dummies). ⋉ and ▷, one output row
    /// per left row, update the rows that stay and insert the rows that
    /// enter.
    fn transition(
        &self,
        pre_out: Vec<Row>,
        post_out: Vec<Row>,
        schemas: Vec<DiffSchema>,
    ) -> Vec<DiffInstance> {
        let ids = &schemas[0].id_cols;
        let keys = |rows: &[Row]| -> BTreeSet<Key> { rows.iter().map(|r| r.key(ids)).collect() };
        let post_keys = keys(&post_out);
        let split: (Vec<Row>, Vec<Row>);
        let (update, insert) = if self.kind.keeps_right() {
            (&post_out, &post_out)
        } else {
            let pre_keys = keys(&pre_out);
            split = post_out
                .iter()
                .cloned()
                .partition(|r| pre_keys.contains(&r.key(ids)));
            (&split.0, &split.1)
        };
        let leaving: Vec<Row> = pre_out
            .into_iter()
            .filter(|r| !post_keys.contains(&r.key(ids)))
            .collect();
        self.laid(schemas, [&leaving, update, insert])
    }

    /// Each non-empty row set of `rows`, full output rows, laid into the
    /// schema at its position in `schemas`.
    fn laid<const N: usize>(
        &self,
        schemas: Vec<DiffSchema>,
        rows: [&Vec<Row>; N],
    ) -> Vec<DiffInstance> {
        let arity = self.arity();
        let sets = schemas.into_iter().zip(rows).filter(|(_, r)| !r.is_empty());
        sets.map(|(s, r)| DiffInstance::from_rows(s, arity, r))
            .collect()
    }
}
