//! Rules for left outer join ⟕ — the NULL-padding extension of the
//! paper's join rules (Table 10).
//!
//! The output schema is `left ++ right` like the inner join, but every
//! left row appears even without a match, NULL-padded across the right
//! columns (including the right ID positions — NULL right IDs *are* the
//! padding marker, and they make the padded row addressable by the
//! combined output ID). The delta rules therefore repair **padding
//! transitions** on top of the inner-join deltas:
//!
//! * an insert on the right can *retract* a previously padded left row
//!   (first match arrives), and
//! * a delete on the right can *re-pad* a left row (last match leaves),
//!
//! both of which the inner-join rules never produce. Left-side deletes
//! and condition-free updates still pass through: the left IDs are a
//! subset of the output IDs and address joined and padded rows alike.

use crate::access::PathId;
use crate::diff::{DiffInstance, DiffKind, Layout, State};
use crate::rules::common::{
    child_path, delete_rows, insert_rows, shift_schema, untouched, update_row_pairs,
};
use crate::rules::semi::matching_left;
use crate::rules::RuleCtx;
use idivm_algebra::{Expr, Plan};
use idivm_types::{Key, Result, Row, Value};
use std::collections::BTreeSet;

/// Propagate one diff (from `side`: 0 = left, 1 = right) through a left
/// outer join.
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
) -> Result<Vec<DiffInstance>> {
    if side == 0 {
        left_side(ctx, left, right, on, residual, path, diff)
    } else {
        right_side(ctx, left, right, on, residual, path, diff)
    }
}

#[allow(clippy::too_many_arguments)]
fn left_side(
    ctx: &RuleCtx<'_>,
    left: &Plan,
    right: &Plan,
    on: &[(usize, usize)],
    residual: Option<&Expr>,
    path: &PathId,
    diff: DiffInstance,
) -> Result<Vec<DiffInstance>> {
    let la = left.arity();
    let ra = right.arity();
    let out_arity = la + ra;
    let lpath = child_path(path, 0);
    let rpath = child_path(path, 1);
    // Left condition columns: join keys + left part of the residual.
    let mut cond: BTreeSet<usize> = on.iter().map(|&(l, _)| l).collect();
    if let Some(res) = residual {
        cond.extend(res.columns().into_iter().filter(|&c| c < la));
    }
    match diff.schema.kind {
        DiffKind::Insert => {
            // Each inserted left row yields its joined rows, or one
            // padded row when nothing matches.
            let rows = insert_rows(&diff, la);
            let mut out_rows = Vec::new();
            for l in &rows {
                out_rows.extend(outer_outputs(
                    ctx,
                    l,
                    right,
                    &rpath,
                    on,
                    residual,
                    State::Post,
                    ra,
                )?);
            }
            let out_idset = out_ids(left, right, la)?;
            Ok(vec![DiffInstance::insert_from_rows(
                &out_idset, out_arity, &out_rows,
            )])
        }
        DiffKind::Delete => {
            // ∆− passes through: the left IDs identify every output row
            // derived from the deleted left rows — joined and padded
            // alike (padded rows carry the same left-ID values).
            Ok(vec![diff])
        }
        DiffKind::Update => {
            if untouched(&diff.schema, &cond) {
                if ctx.minimize {
                    // Condition-free: matching and padding status cannot
                    // change, so the update passes through in place.
                    return Ok(vec![diff]);
                }
                // General form: reconstruct the affected output rows
                // (joined or padded) and emit updates at full
                // granularity — same result, more accesses.
                let pairs = update_row_pairs(
                    ctx.access,
                    left,
                    &lpath,
                    &idivm_algebra::infer_ids(left)?,
                    &diff,
                )?;
                let mut post_out = Vec::new();
                for p in &pairs {
                    post_out.extend(outer_outputs(
                        ctx,
                        &p.post,
                        right,
                        &rpath,
                        on,
                        residual,
                        State::Post,
                        ra,
                    )?);
                }
                let out_idset = out_ids(left, right, la)?;
                let schema = crate::diff::DiffSchema::update(
                    &out_idset,
                    &[],
                    &diff.schema.post_cols,
                );
                let rows = Layout::diff_rows(&schema.id_cols, &schema.post_cols, out_arity)
                    .apply_all(&post_out);
                return Ok(vec![DiffInstance::new(schema, rows)]);
            }
            // Condition affected: old matches may dissolve (the row may
            // become padded) and new matches appear (retracting its
            // padding). Compute both output sets and diff them.
            let pairs = update_row_pairs(
                ctx.access,
                left,
                &lpath,
                &idivm_algebra::infer_ids(left)?,
                &diff,
            )?;
            let mut pre_out = Vec::new();
            let mut post_out = Vec::new();
            for p in &pairs {
                pre_out.extend(outer_outputs(
                    ctx, &p.pre, right, &rpath, on, residual, State::Pre, ra,
                )?);
                post_out.extend(outer_outputs(
                    ctx, &p.post, right, &rpath, on, residual, State::Post, ra,
                )?);
            }
            let out_idset = out_ids(left, right, la)?;
            Ok(emit_transition(pre_out, post_out, &out_idset, out_arity))
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn right_side(
    ctx: &RuleCtx<'_>,
    left: &Plan,
    right: &Plan,
    on: &[(usize, usize)],
    residual: Option<&Expr>,
    path: &PathId,
    diff: DiffInstance,
) -> Result<Vec<DiffInstance>> {
    let la = left.arity();
    let ra = right.arity();
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
    match diff.schema.kind {
        DiffKind::Insert => {
            // A first match retracts a left row's padding; further
            // matches just add joined rows. Both fall out of
            // recomputing the affected left rows' outer outputs.
            let rows = insert_rows(&diff, ra);
            let affected = matching_left(ctx, left, &lpath, on, residual, &rows, la)?;
            transition_for(ctx, left, right, &rpath, on, residual, affected, la, ra)
        }
        DiffKind::Delete => {
            // Losing the last match re-pads the left row.
            let rows = delete_rows(ctx.access, right, &rpath, &diff)?;
            let affected = matching_left(ctx, left, &lpath, on, residual, &rows, la)?;
            transition_for(ctx, left, right, &rpath, on, residual, affected, la, ra)
        }
        DiffKind::Update => {
            if untouched(&diff.schema, &cond) {
                // Only right values changed: padded rows carry no right
                // values, and the shifted IDs address exactly the
                // joined rows (padded rows' NULL right IDs never equal
                // a real right ID).
                return Ok(vec![DiffInstance::new(
                    shift_schema(&diff.schema, la),
                    diff.rows,
                )]);
            }
            // Matching may change in both directions.
            let pairs = update_row_pairs(
                ctx.access,
                right,
                &rpath,
                &idivm_algebra::infer_ids(right)?,
                &diff,
            )?;
            let pre_rows: Vec<Row> = pairs.iter().map(|p| p.pre.clone()).collect();
            let post_rows: Vec<Row> = pairs.iter().map(|p| p.post.clone()).collect();
            let mut affected =
                matching_left(ctx, left, &lpath, on, residual, &pre_rows, la)?;
            let seen: BTreeSet<Row> = affected.iter().cloned().collect();
            for l in matching_left(ctx, left, &lpath, on, residual, &post_rows, la)? {
                if !seen.contains(&l) {
                    affected.push(l);
                }
            }
            transition_for(ctx, left, right, &rpath, on, residual, affected, la, ra)
        }
    }
}

/// Recompute the pre- and post-state outer outputs of the affected left
/// rows and emit the transition diffs.
#[allow(clippy::too_many_arguments)]
fn transition_for(
    ctx: &RuleCtx<'_>,
    left: &Plan,
    right: &Plan,
    rpath: &PathId,
    on: &[(usize, usize)],
    residual: Option<&Expr>,
    affected: Vec<Row>,
    la: usize,
    ra: usize,
) -> Result<Vec<DiffInstance>> {
    let out_idset = out_ids(left, right, la)?;
    let mut pre_out = Vec::new();
    let mut post_out = Vec::new();
    for l in &affected {
        pre_out.extend(outer_outputs(
            ctx, l, right, rpath, on, residual, State::Pre, ra,
        )?);
        post_out.extend(outer_outputs(
            ctx, l, right, rpath, on, residual, State::Post, ra,
        )?);
    }
    Ok(emit_transition(pre_out, post_out, &out_idset, la + ra))
}

/// Diff two output-row sets by output ID: vanished rows become deletes,
/// the post set is re-asserted as update + insert (surviving rows get
/// their values fixed in place; genuinely new rows — including fresh
/// padded rows — are inserted; exact duplicates are dummies).
fn emit_transition(
    pre_out: Vec<Row>,
    post_out: Vec<Row>,
    out_idset: &[usize],
    out_arity: usize,
) -> Vec<DiffInstance> {
    let post_keys: BTreeSet<Key> = post_out.iter().map(|r| r.key(out_idset)).collect();
    let leaving: Vec<Row> = pre_out
        .into_iter()
        .filter(|r| !post_keys.contains(&r.key(out_idset)))
        .collect();
    let mut out = Vec::new();
    if !leaving.is_empty() {
        out.push(DiffInstance::delete_from_rows(
            out_idset, out_arity, &leaving,
        ));
    }
    if !post_out.is_empty() {
        let post_cols: Vec<usize> = (0..out_arity)
            .filter(|c| !out_idset.contains(c))
            .collect();
        let schema = crate::diff::DiffSchema::update(out_idset, &[], &post_cols);
        let rows =
            Layout::diff_rows(&schema.id_cols, &schema.post_cols, out_arity).apply_all(&post_out);
        out.push(DiffInstance::new(schema, rows));
        out.push(DiffInstance::insert_from_rows(
            out_idset, out_arity, &post_out,
        ));
    }
    out
}

/// One left row's outer-join output in `state`: its joined rows, or a
/// single NULL-padded row when no right row matches (NULL left join
/// keys always pad, per SQL).
#[allow(clippy::too_many_arguments)]
fn outer_outputs(
    ctx: &RuleCtx<'_>,
    l: &Row,
    right: &Plan,
    rpath: &PathId,
    on: &[(usize, usize)],
    residual: Option<&Expr>,
    state: State,
    ra: usize,
) -> Result<Vec<Row>> {
    let rcols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
    let vals: Vec<Value> = on.iter().map(|&(lc, _)| l[lc].clone()).collect();
    let mut out = Vec::new();
    if !vals.iter().any(Value::is_null) {
        for r in crate::access::lookup(ctx.access, right, rpath, state, &rcols, &vals)? {
            let joined = l.concat(&r);
            if idivm_algebra::opt_pred(residual, &joined)? {
                out.push(joined);
            }
        }
    }
    if out.is_empty() {
        out.push(l.iter().cloned().chain(std::iter::repeat_n(Value::Null, ra)).collect());
    }
    Ok(out)
}

fn out_ids(left: &Plan, right: &Plan, la: usize) -> Result<Vec<usize>> {
    let mut ids = idivm_algebra::infer_ids(left)?;
    ids.extend(idivm_algebra::infer_ids(right)?.into_iter().map(|i| i + la));
    Ok(ids)
}
