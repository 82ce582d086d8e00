//! Rules for σ_φ(X̄) — paper Table 6.
//!
//! * Insert diffs are filtered by φ over their post-state values (insert
//!   diffs carry every column, so this is always a diff-only operation —
//!   the `∆⁺ ⋉ σφR → σφ(X̄post)∆⁺` rewrite of Figure 8).
//! * Delete diffs pass through; with minimization and pre-state values
//!   present they are pre-filtered by φ (the blue portion of Table 6),
//!   which trades nothing for reduced overestimation.
//! * Update diffs that do not touch `X̄` pass through (optionally
//!   pre-filtered). Updates that *do* touch `X̄` trigger the insert /
//!   delete / update split: tuples satisfying φ only after the change
//!   enter the view, tuples satisfying it only before leave it.

use crate::access::PathId;
use crate::diff::{DiffInstance, DiffKind, DiffSchema, State};
use crate::rules::common::{child_path, evaluable, on_diff, untouched, update_row_pairs};
use crate::rules::RuleCtx;
use idivm_algebra::{Expr, Plan};
use idivm_types::Result;

/// Propagate one diff through a selection.
///
/// # Errors
/// Access failures while probing the input subview.
pub fn propagate(
    ctx: &RuleCtx<'_>,
    pred: &Expr,
    input: &Plan,
    path: &PathId,
    diff: DiffInstance,
) -> Result<Vec<DiffInstance>> {
    let arity = input.arity();
    let cond_cols = pred.columns();
    match diff.schema.kind {
        // σφ(X̄post)∆⁺ — always evaluable.
        DiffKind::Insert => Ok(vec![filtered(pred, diff, State::Post)?]),
        DiffKind::Delete => {
            if ctx.minimize && evaluable(&diff.schema, pred, State::Pre) {
                Ok(vec![filtered(pred, diff, State::Pre)?])
            } else {
                // Pass through unmodified (Example 4.8's overestimating
                // delete: tuples failing φ are not in the view, so the
                // extra delete attempts are harmless dummies).
                Ok(vec![diff])
            }
        }
        DiffKind::Update => {
            if untouched(&diff.schema, &cond_cols) {
                // Condition unaffected: the update maps to updates only.
                if ctx.minimize && evaluable(&diff.schema, pred, State::Pre) {
                    return Ok(vec![filtered(pred, diff, State::Pre)?]);
                }
                return Ok(vec![diff]);
            }
            // Condition affected: split into entering (∆⁺), leaving
            // (∆⁻), and staying (∆u) tuples based on φ(pre) / φ(post).
            let pairs = update_row_pairs(
                ctx.access,
                input,
                &child_path(path, 0),
                &input_ids(input)?,
                &diff,
            )?;
            let mut entering = Vec::new();
            let mut leaving = Vec::new();
            let mut staying = Vec::new();
            for p in pairs {
                let pre_ok = pred.eval_pred(&p.pre)?;
                let post_ok = pred.eval_pred(&p.post)?;
                match (pre_ok, post_ok) {
                    (false, true) => entering.push(p.post),
                    (true, false) => leaving.push(p.pre),
                    (true, true) => staying.push(p),
                    (false, false) => {}
                }
            }
            let ids = input_ids(input)?;
            // Entering tuples become view *inserts*, and unlike dummy
            // updates/deletes an insert of a non-member row is not a
            // harmless overestimate: when the diff carried full
            // coverage, `update_row_pairs` never probed the input, so a
            // row the input doesn't produce (e.g. a part with no
            // semijoin partner) would be fabricated into the view.
            // Confirm membership against the input's post-state; base
            // scans are exempt (their diffs describe real rows).
            if !entering.is_empty() && !matches!(input, Plan::Scan { .. }) {
                let mut confirmed = Vec::with_capacity(entering.len());
                for r in entering {
                    let probe = r.key(&ids);
                    let present = crate::access::lookup(
                        ctx.access,
                        input,
                        &child_path(path, 0),
                        State::Post,
                        &ids,
                        &probe.0,
                    )?;
                    if !present.is_empty() {
                        confirmed.push(r);
                    }
                }
                entering = confirmed;
            }
            let mut out = Vec::new();
            if !entering.is_empty() {
                out.push(DiffInstance::insert_from_rows(&ids, arity, &entering));
            }
            if !leaving.is_empty() {
                out.push(DiffInstance::delete_from_rows(&ids, arity, &leaving));
            }
            if !staying.is_empty() {
                // In-place update of surviving tuples, full-ID
                // granularity, setting the original diff's post columns.
                let schema = DiffSchema::update(
                    &ids,
                    &non(&ids, arity),
                    &diff.schema.post_cols,
                );
                let rows = staying
                    .into_iter()
                    .map(|p| {
                        let ids = schema.id_cols.iter().map(|&c| &p.post[c]);
                        let pres = schema.pre_cols.iter().map(|&c| &p.pre[c]);
                        let posts = schema.post_cols.iter().map(|&c| &p.post[c]);
                        ids.chain(pres).chain(posts).cloned().collect()
                    })
                    .collect();
                out.push(DiffInstance::new(schema, rows));
            }
            Ok(out)
        }
    }
}

/// The rows of `diff` whose `state` satisfies φ, evaluated on the diff
/// rows themselves through φ rewritten once over their slots
/// ([`on_diff`]).
fn filtered(pred: &Expr, diff: DiffInstance, state: State) -> Result<DiffInstance> {
    let pred = on_diff(&diff.schema, pred, state);
    let mut rows = Vec::with_capacity(diff.rows.len());
    for r in diff.rows {
        if pred.eval_pred(&r)? {
            rows.push(r);
        }
    }
    Ok(DiffInstance::new(diff.schema, rows))
}

fn non(ids: &[usize], arity: usize) -> Vec<usize> {
    (0..arity).filter(|c| !ids.contains(c)).collect()
}

fn input_ids(input: &Plan) -> Result<Vec<usize>> {
    idivm_algebra::infer_ids(input)
}
