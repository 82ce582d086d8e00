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
use idivm_algebra::{infer_ids, Expr, Plan};
use idivm_types::{Error, Result};

/// Propagate one diff through the selection `node`.
///
/// # Errors
/// Access failures while probing the input subview.
pub fn propagate(
    ctx: &RuleCtx<'_>,
    node: &Plan,
    path: &PathId,
    diff: DiffInstance,
) -> Result<Vec<DiffInstance>> {
    let Plan::Select { input, pred } = node else {
        return Err(Error::Internal(
            "the selection rule runs on selections".into(),
        ));
    };
    let Some([ins, del, upd]) = out_schemas(node, &diff.schema)? else {
        return Ok(vec![match diff.schema.kind {
            // σφ(X̄post)∆⁺ — always evaluable.
            DiffKind::Insert => filtered(pred, diff, State::Post)?,
            _ if ctx.minimize && evaluable(&diff.schema, pred, State::Pre) => {
                filtered(pred, diff, State::Pre)?
            }
            // Unmodified (Example 4.8's overestimating delete: tuples
            // failing φ are not in the view, so the extra delete
            // attempts are harmless dummies).
            _ => diff,
        }]);
    };
    // Condition affected: split into entering (∆⁺), leaving (∆⁻), and
    // staying (∆u) tuples based on φ(pre) / φ(post).
    let (ids, arity) = (&ins.id_cols, node.arity());
    let pairs = update_row_pairs(ctx.access, input, &child_path(path, 0), ids, &diff)?;
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
    // Entering tuples become view *inserts*, and unlike dummy
    // updates/deletes an insert of a non-member row is not a harmless
    // overestimate: when the diff carried full coverage,
    // `update_row_pairs` never probed the input, so a row the input
    // doesn't produce (e.g. a part with no semijoin partner) would be
    // fabricated into the view. Confirm membership against the input's
    // post-state; base scans are exempt (their diffs describe real rows).
    if !entering.is_empty() && !matches!(**input, Plan::Scan { .. }) {
        let mut confirmed = Vec::with_capacity(entering.len());
        for r in entering {
            let probe = r.key(ids);
            let present = crate::access::lookup(
                ctx.access,
                input,
                &child_path(path, 0),
                State::Post,
                ids,
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
        out.push(DiffInstance::from_rows(ins, arity, &entering));
    }
    if !leaving.is_empty() {
        out.push(DiffInstance::from_rows(del, arity, &leaving));
    }
    if !staying.is_empty() {
        // In-place update of surviving tuples, full-ID granularity,
        // setting the original diff's post columns.
        let rows = staying
            .into_iter()
            .map(|p| {
                let ids = upd.id_cols.iter().map(|&c| &p.post[c]);
                let pres = upd.pre_cols.iter().map(|&c| &p.pre[c]);
                let posts = upd.post_cols.iter().map(|&c| &p.post[c]);
                ids.chain(pres).chain(posts).cloned().collect()
            })
            .collect();
        out.push(DiffInstance::new(upd, rows));
    }
    Ok(out)
}

/// The schemas a condition-touching update ([`Plan::cond_cols`]) leaves
/// the selection `node` with, all keyed by its IDs: the tuples entering
/// it (inserts), leaving it (deletes) and staying in it (updates setting
/// the diff's post columns). `None` for any other diff, which passes
/// through in its own schema.
///
/// # Errors
/// ID-inference failures.
pub(crate) fn out_schemas(node: &Plan, diff: &DiffSchema) -> Result<Option<[DiffSchema; 3]>> {
    if diff.kind != DiffKind::Update || untouched(diff, &node.cond_cols(0)) {
        return Ok(None);
    }
    let (ids, arity) = (infer_ids(node)?, node.arity());
    let rest: Vec<usize> = (0..arity).filter(|c| !ids.contains(c)).collect();
    Ok(Some([
        DiffSchema::insert(&ids, arity),
        DiffSchema::delete(&ids, &rest),
        DiffSchema::update(&ids, &rest, &diff.post_cols),
    ]))
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
