//! Rules for semijoin ⋉ and antisemijoin ▷ — paper Table 13 (the
//! antisemijoin gives `QSPJADU` its negation/difference power; the
//! semijoin is the mirror image).
//!
//! The output schema is the left input's, so left-side delete diffs and
//! condition-free updates pass through untouched. Everything touching
//! the membership condition probes the opposite side — including diffs
//! on the *right* input, which can silently add or remove left tuples
//! from the view (`∆⁺_r` deletes from an antisemijoin view, `∆−_r`
//! inserts into it).

use crate::access::{self, PathId};
use crate::diff::{DiffInstance, DiffKind, Layout, State};
use crate::rules::common::{child_path, delete_rows, insert_rows, untouched, update_row_pairs};
use crate::rules::RuleCtx;
use idivm_algebra::{Expr, Plan};
use idivm_types::{Result, Row, Value};
use std::collections::BTreeSet;

/// Semijoin or antisemijoin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Semi,
    Anti,
}

impl Kind {
    /// Does a row with a right-side match belong to the output?
    fn member(self, matched: bool) -> bool {
        match self {
            Kind::Semi => matched,
            Kind::Anti => !matched,
        }
    }
}

/// Propagate one diff through a (anti)semijoin.
///
/// # Errors
/// Access failures while probing either input.
#[allow(clippy::too_many_arguments)]
pub fn propagate(
    ctx: &RuleCtx<'_>,
    left: &Plan,
    right: &Plan,
    on: &[(usize, usize)],
    residual: Option<&Expr>,
    path: &PathId,
    side: usize,
    diff: DiffInstance,
    kind: Kind,
) -> Result<Vec<DiffInstance>> {
    if side == 0 {
        propagate_left(ctx, left, right, on, residual, path, diff, kind)
    } else {
        propagate_right(ctx, left, right, on, residual, path, diff, kind)
    }
}

#[allow(clippy::too_many_arguments)]
fn propagate_left(
    ctx: &RuleCtx<'_>,
    left: &Plan,
    right: &Plan,
    on: &[(usize, usize)],
    residual: Option<&Expr>,
    path: &PathId,
    diff: DiffInstance,
    kind: Kind,
) -> Result<Vec<DiffInstance>> {
    let la = left.arity();
    let left_ids = idivm_algebra::infer_ids(left)?;
    let rpath = child_path(path, 1);
    let lpath = child_path(path, 0);
    // Left condition columns: join keys + left part of the residual.
    let mut cond: BTreeSet<usize> = on.iter().map(|&(l, _)| l).collect();
    if let Some(res) = residual {
        cond.extend(res.columns().into_iter().filter(|&c| c < la));
    }
    match diff.schema.kind {
        DiffKind::Insert => {
            // Keep inserted rows that are members (∆⁺ ⋉/▷ Input_post_r).
            let rows = insert_rows(&diff, la);
            let mut kept = Vec::new();
            for r in rows {
                if kind.member(matches(ctx, right, &rpath, on, residual, &r, State::Post)?) {
                    kept.push(r);
                }
            }
            Ok(vec![DiffInstance::insert_from_rows(&left_ids, la, &kept)])
        }
        DiffKind::Delete => {
            // Pass through (Table 13: ∆−_V = ∆−_Input_l).
            Ok(vec![diff])
        }
        DiffKind::Update => {
            if untouched(&diff.schema, &cond) {
                // Membership unchanged: the update passes through.
                return Ok(vec![diff]);
            }
            // Membership may flip per affected row: materialize pairs.
            let pairs = update_row_pairs(ctx.access, left, &lpath, &left_ids, &diff)?;
            let mut entering = Vec::new();
            let mut leaving = Vec::new();
            let mut staying = Vec::new();
            for p in pairs {
                let was = kind.member(matches(
                    ctx, right, &rpath, on, residual, &p.pre, State::Pre,
                )?);
                let is = kind.member(matches(
                    ctx, right, &rpath, on, residual, &p.post, State::Post,
                )?);
                match (was, is) {
                    (false, true) => entering.push(p.post),
                    (true, false) => leaving.push(p.pre),
                    (true, true) => staying.push(p.post),
                    (false, false) => {}
                }
            }
            let mut out = Vec::new();
            if !leaving.is_empty() {
                out.push(DiffInstance::delete_from_rows(&left_ids, la, &leaving));
            }
            if !staying.is_empty() {
                let post_cols: Vec<usize> =
                    (0..la).filter(|c| !left_ids.contains(c)).collect();
                let schema = crate::diff::DiffSchema::update(&left_ids, &[], &post_cols);
                let rows =
                    Layout::diff_rows(&schema.id_cols, &schema.post_cols, la).apply_all(&staying);
                out.push(DiffInstance::new(schema, rows));
            }
            if !entering.is_empty() {
                out.push(DiffInstance::insert_from_rows(&left_ids, la, &entering));
            }
            Ok(out)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn propagate_right(
    ctx: &RuleCtx<'_>,
    left: &Plan,
    right: &Plan,
    on: &[(usize, usize)],
    residual: Option<&Expr>,
    path: &PathId,
    diff: DiffInstance,
    kind: Kind,
) -> Result<Vec<DiffInstance>> {
    let la = left.arity();
    let left_ids = idivm_algebra::infer_ids(left)?;
    let lpath = child_path(path, 0);
    let rpath = child_path(path, 1);
    // Right condition columns (in the right input's frame).
    let mut cond: BTreeSet<usize> = on.iter().map(|&(_, r)| r).collect();
    if let Some(res) = residual {
        cond.extend(
            res.columns()
                .into_iter()
                .filter(|&c| c >= la)
                .map(|c| c - la),
        );
    }
    let ra = right.arity();
    match diff.schema.kind {
        DiffKind::Insert => {
            // New right rows grant membership (semi) / revoke it (anti)
            // for matching left rows.
            let rows = insert_rows(&diff, ra);
            let affected = matching_left(ctx, left, &lpath, on, residual, &rows, la)?;
            Ok(membership_flip(
                ctx, right, &rpath, on, residual, affected, &left_ids, la, kind,
            )?)
        }
        DiffKind::Delete => {
            // Removed right rows may revoke membership (semi) / grant it
            // (anti) for left rows that matched them.
            let rows = delete_rows(ctx.access, right, &rpath, &diff)?;
            let affected = matching_left(ctx, left, &lpath, on, residual, &rows, la)?;
            Ok(membership_flip(
                ctx, right, &rpath, on, residual, affected, &left_ids, la, kind,
            )?)
        }
        DiffKind::Update => {
            if untouched(&diff.schema, &cond) {
                // The right side contributes no output columns, so a
                // condition-free right update is invisible.
                return Ok(vec![]);
            }
            // Treat as delete(pre) + insert(post) — Table 13's ∆u_Input_r.
            let pairs =
                update_row_pairs(ctx.access, right, &rpath, &idivm_algebra::infer_ids(right)?, &diff)?;
            let pre_rows: Vec<Row> = pairs.iter().map(|p| p.pre.clone()).collect();
            let post_rows: Vec<Row> = pairs.iter().map(|p| p.post.clone()).collect();
            let mut affected =
                matching_left(ctx, left, &lpath, on, residual, &pre_rows, la)?;
            for r in matching_left(ctx, left, &lpath, on, residual, &post_rows, la)? {
                affected.push(r);
            }
            Ok(membership_flip(
                ctx, right, &rpath, on, residual, affected, &left_ids, la, kind,
            )?)
        }
    }
}

/// Did `row` (a left-side row) find a right-side match?
fn matches(
    ctx: &RuleCtx<'_>,
    right: &Plan,
    rpath: &PathId,
    on: &[(usize, usize)],
    residual: Option<&Expr>,
    row: &Row,
    state: State,
) -> Result<bool> {
    let rcols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
    let vals: Vec<Value> = on.iter().map(|&(l, _)| row[l].clone()).collect();
    if vals.iter().any(Value::is_null) {
        return Ok(false);
    }
    let rrows = access::lookup(ctx.access, right, rpath, state, &rcols, &vals)?;
    for r in &rrows {
        if idivm_algebra::opt_pred(residual, &row.concat(r))? {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Left rows (post-state) matching any of the given right rows.
pub(crate) fn matching_left(
    ctx: &RuleCtx<'_>,
    left: &Plan,
    lpath: &PathId,
    on: &[(usize, usize)],
    residual: Option<&Expr>,
    right_rows: &[Row],
    _la: usize,
) -> Result<Vec<Row>> {
    let lcols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
    let mut out = Vec::new();
    let mut seen: BTreeSet<Row> = BTreeSet::new();
    let mut vals: Vec<Value> = Vec::with_capacity(on.len());
    for r in right_rows {
        vals.clear();
        vals.extend(on.iter().map(|&(_, rc)| r[rc].clone()));
        if vals.iter().any(Value::is_null) {
            continue;
        }
        for l in access::lookup(ctx.access, left, lpath, State::Post, &lcols, &vals)? {
            if idivm_algebra::opt_pred(residual, &l.concat(r))? && seen.insert(l.clone()) {
                out.push(l);
            }
        }
    }
    Ok(out)
}

/// For each affected left row, decide its current membership and emit
/// precise insert/delete diffs. (The left rows are post-state; their
/// pre-membership is irrelevant because inserting an already-present
/// tuple is a dummy and deleting an absent one likewise.)
#[allow(clippy::too_many_arguments)]
fn membership_flip(
    ctx: &RuleCtx<'_>,
    right: &Plan,
    rpath: &PathId,
    on: &[(usize, usize)],
    residual: Option<&Expr>,
    affected: Vec<Row>,
    left_ids: &[usize],
    la: usize,
    kind: Kind,
) -> Result<Vec<DiffInstance>> {
    let mut now_in = Vec::new();
    let mut now_out = Vec::new();
    for l in affected {
        if kind.member(matches(ctx, right, rpath, on, residual, &l, State::Post)?) {
            now_in.push(l);
        } else {
            now_out.push(l);
        }
    }
    let mut out = Vec::new();
    if !now_out.is_empty() {
        out.push(DiffInstance::delete_from_rows(left_ids, la, &now_out));
    }
    if !now_in.is_empty() {
        out.push(DiffInstance::insert_from_rows(left_ids, la, &now_in));
    }
    Ok(out)
}
