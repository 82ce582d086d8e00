//! Rules for ⋈_φ(X̄) (and × as the key-less special case) — paper
//! Tables 4 and 10.
//!
//! The headline win of ID-based IVM lives here: a delete or
//! condition-free update diff arriving from one side **passes through
//! without touching the other side** (`∆u ⋈_Ī R → ∆u`, `∆− ⋈_Ī R → ∆−`
//! up to renaming — Figure 8), because the output's ID set contains the
//! diff's IDs and the view index finds the affected tuples directly.
//! Tuple-based IVM must perform the joins to reconstruct full view
//! tuples — the `a` accesses per diff tuple of the paper's cost model.
//!
//! Insert diffs and condition-affected updates do probe the other side
//! (there is no way around reading it), exactly as Table 10 prescribes.

use crate::access::{self, PathId};
use crate::diff::{DiffInstance, DiffKind, DiffSchema, Layout, State};
use crate::rules::common::{child_path, on_diff, shift_schema, untouched, update_row_pairs};
use crate::rules::RuleCtx;
use idivm_algebra::{Expr, Plan};
use idivm_types::{Key, Result, Row, Value};
use std::collections::BTreeSet;

/// Propagate one diff (from `side`: 0 = left, 1 = right) through a join.
///
/// # Errors
/// Access failures while probing the opposite input.
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
    let la = left.arity();
    let ra = right.arity();
    let out_arity = la + ra;
    // Normalize to "diff side" vs "other side".
    let (this, this_path, other, other_path, offset) = if side == 0 {
        (left, child_path(path, 0), right, child_path(path, 1), 0usize)
    } else {
        (right, child_path(path, 1), left, child_path(path, 0), la)
    };
    // Join-condition columns on the diff's side, in the *input* frame.
    let mut cond_cols: BTreeSet<usize> = if side == 0 {
        on.iter().map(|&(l, _)| l).collect()
    } else {
        on.iter().map(|&(_, r)| r).collect()
    };
    if let Some(res) = residual {
        for c in res.columns() {
            let local = if side == 0 {
                (c < la).then_some(c)
            } else {
                (c >= la).then(|| c - la)
            };
            if let Some(c) = local {
                cond_cols.insert(c);
            }
        }
    }

    match diff.schema.kind {
        DiffKind::Insert => {
            // ∆⁺ ⋈φ Input_post_other: probe the other side per inserted
            // row (Table 10). Output: insert diff with full joined rows.
            let out = DiffSchema::insert(&out_ids(left, right, la)?, out_arity);
            let rows = join_inserts(
                ctx,
                &diff,
                &out,
                side,
                this.arity(),
                la,
                other,
                &other_path,
                on,
                residual,
            )?;
            Ok(vec![DiffInstance::new(out, rows)])
        }
        DiffKind::Delete => {
            // ∆− passes through: the diff's IDs are part of the output
            // IDs and identify every joined tuple derived from the
            // deleted input rows (Figure 8's `∆− ⋈_Ī R` family).
            Ok(vec![DiffInstance::new(
                shift_schema(&diff.schema, offset),
                diff.rows,
            )])
        }
        DiffKind::Update => {
            if untouched(&diff.schema, &cond_cols) {
                if ctx.minimize {
                    // `∆u ⋈_Ī R → ∆u` (Figure 8): pass through.
                    return Ok(vec![DiffInstance::new(
                        shift_schema(&diff.schema, offset),
                        diff.rows,
                    )]);
                }
                // General (unminimized) form: ∆u ⋈ Input_post_other —
                // reconstruct the affected joined tuples, paying the
                // probes, and emit updates at full granularity. Same
                // result, more accesses; kept for the Pass-4 ablation.
                let pairs = update_row_pairs(
                    ctx.access,
                    this,
                    &this_path,
                    &idivm_algebra::infer_ids(this)?,
                    &diff,
                )?;
                let posts: Vec<Row> = pairs.iter().map(|p| p.post.clone()).collect();
                let joined = join_rows(ctx, &posts, side, other, &other_path, on, residual)?;
                let out_idset = out_ids(left, right, la)?;
                let post_cols: Vec<usize> =
                    diff.schema.post_cols.iter().map(|c| c + offset).collect();
                let schema = DiffSchema::update(&out_idset, &[], &post_cols);
                let rows = Layout::diff_rows(&schema.id_cols, &schema.post_cols, out_arity)
                    .apply_all(&joined);
                return Ok(vec![DiffInstance::new(schema, rows)]);
            }
            // Join condition affected: old matches may dissolve and new
            // matches appear. Expand to materialized pre/post input rows
            // and compute both sides precisely (Table 10's ∆⁺/∆− cases).
            let pairs = update_row_pairs(
                ctx.access,
                this,
                &this_path,
                &idivm_algebra::infer_ids(this)?,
                &diff,
            )?;
            let pres: Vec<Row> = pairs.iter().map(|p| p.pre.clone()).collect();
            let posts: Vec<Row> = pairs.iter().map(|p| p.post.clone()).collect();
            let old_matches = join_rows(ctx, &pres, side, other, &other_path, on, residual)?;
            let new_matches = join_rows(ctx, &posts, side, other, &other_path, on, residual)?;
            let out_idset = out_ids(left, right, la)?;
            // Deletions: old matches whose output ID has no new match.
            let new_keys: BTreeSet<Key> =
                new_matches.iter().map(|r| r.key(&out_idset)).collect();
            let leaving: Vec<Row> = old_matches
                .into_iter()
                .filter(|r| !new_keys.contains(&r.key(&out_idset)))
                .collect();
            let mut out = Vec::new();
            if !leaving.is_empty() {
                out.push(DiffInstance::delete_from_rows(
                    &out_idset, out_arity, &leaving,
                ));
            }
            if !new_matches.is_empty() {
                // New matches carry final values; surviving matches are
                // re-asserted (exact-duplicate inserts are dummies) and
                // value changes on them are covered because the rows are
                // built from post states. Emit as insert+update pair:
                // the update fixes surviving rows in place, the insert
                // adds genuinely new ones.
                let post_cols: Vec<usize> = (0..out_arity)
                    .filter(|c| !out_idset.contains(c))
                    .collect();
                let schema =
                    DiffSchema::update(&out_idset, &[], &post_cols);
                let rows = Layout::diff_rows(&schema.id_cols, &schema.post_cols, out_arity)
                    .apply_all(&new_matches);
                out.push(DiffInstance::new(schema, rows));
                out.push(DiffInstance::insert_from_rows(
                    &out_idset, out_arity, &new_matches,
                ));
            }
            Ok(out)
        }
    }
}

/// Join fully materialized rows of one side against the other side's
/// post-state, probing by the join keys (the diff-driven loop).
fn join_rows(
    ctx: &RuleCtx<'_>,
    rows: &[Row],
    side: usize,
    other: &Plan,
    other_path: &PathId,
    on: &[(usize, usize)],
    residual: Option<&Expr>,
) -> Result<Vec<Row>> {
    let (this_keys, other_keys) = key_cols(on, side);
    let mut out = Vec::new();
    probe_each(ctx, rows, &this_keys, other, other_path, &other_keys, |row, m| {
        let joined = if side == 0 { row.concat(m) } else { m.concat(row) };
        if idivm_algebra::opt_pred(residual, &joined)? {
            out.push(joined);
        }
        Ok(())
    })?;
    Ok(out)
}

/// Where an output column of an insert's joined row comes from.
#[derive(Clone, Copy)]
enum Pick {
    /// A slot of the insert diff row.
    Diff(usize),
    /// A column of the matched row of the other side.
    Other(usize),
}

/// `∆⁺ ⋈φ Input_post_other` straight into `out`'s layout: the diff
/// side's slots are resolved once, each probe reads its join key from
/// them, and each output row is picked slot by slot from the diff row
/// and the matched row — one allocation per candidate row. The residual
/// is rewritten once onto `out`'s slots and evaluated on the picked row.
#[allow(clippy::too_many_arguments)]
fn join_inserts(
    ctx: &RuleCtx<'_>,
    diff: &DiffInstance,
    out: &DiffSchema,
    side: usize,
    this_arity: usize,
    la: usize,
    other: &Plan,
    other_path: &PathId,
    on: &[(usize, usize)],
    residual: Option<&Expr>,
) -> Result<Vec<Row>> {
    let Some(sources) = diff.schema.full_sources(this_arity, State::Post) else {
        return Ok(Vec::new());
    };
    let (this_keys, other_keys) = key_cols(on, side);
    let key_slots: Vec<usize> = this_keys.iter().map(|&c| sources.slot(c)).collect();
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
    let residual = residual.map(|r| on_diff(out, r, State::Post));
    let mut rows = Vec::new();
    probe_each(ctx, &diff.rows, &key_slots, other, other_path, &other_keys, |d, m| {
        let row: Row = picks
            .iter()
            .map(|&p| match p {
                Pick::Diff(s) => d[s].clone(),
                Pick::Other(c) => m[c].clone(),
            })
            .collect();
        if idivm_algebra::opt_pred(residual.as_ref(), &row)? {
            rows.push(row);
        }
        Ok(())
    })?;
    Ok(rows)
}

/// The join-key columns of the diff's side and of the other side.
fn key_cols(on: &[(usize, usize)], side: usize) -> (Vec<usize>, Vec<usize>) {
    if side == 0 {
        on.iter().copied().unzip()
    } else {
        on.iter().map(|&(l, r)| (r, l)).unzip()
    }
}

/// Probe the other side's post-state once per row by the values at
/// `key_slots` (a row with a NULL key matches nothing) and hand each
/// match to `emit`, in row then match order.
fn probe_each(
    ctx: &RuleCtx<'_>,
    rows: &[Row],
    key_slots: &[usize],
    other: &Plan,
    other_path: &PathId,
    other_keys: &[usize],
    mut emit: impl FnMut(&Row, &Row) -> Result<()>,
) -> Result<()> {
    // One probe vector for the whole diff, refilled per row.
    let mut vals: Vec<Value> = Vec::with_capacity(key_slots.len());
    for row in rows {
        vals.clear();
        vals.extend(key_slots.iter().map(|&s| row[s].clone()));
        if vals.iter().any(Value::is_null) {
            continue;
        }
        for m in access::lookup(ctx.access, other, other_path, State::Post, other_keys, &vals)? {
            emit(row, &m)?;
        }
    }
    Ok(())
}

fn out_ids(left: &Plan, right: &Plan, la: usize) -> Result<Vec<usize>> {
    let mut ids = idivm_algebra::infer_ids(left)?;
    ids.extend(idivm_algebra::infer_ids(right)?.into_iter().map(|i| i + la));
    Ok(ids)
}
