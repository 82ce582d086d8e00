//! Rules for generalized projection π_D̄,f(X̄)→c — paper Table 8.
//!
//! The projection may compute functions; Pass 1 guarantees the input's
//! ID columns survive as direct copies, so diff IDs always map through.
//! Update diffs whose touched columns feed a computed output column have
//! the new function value recomputed — from the diff when its columns
//! are covered, by probing `Input_post` otherwise (the general form of
//! Table 8); `σ_isupd` drops diff tuples whose visible output did not
//! actually change.

use crate::access::{self, PathId};
use crate::diff::{laid_out, DiffInstance, DiffKind, DiffSchema, State};
use crate::rules::common::{child_path, evaluable};
use crate::rules::RuleCtx;
use idivm_algebra::{Expr, Plan};
use idivm_types::{Error, Result, Row};

/// Propagate one diff through a generalized projection.
///
/// # Errors
/// Access failures, or diff IDs dropped by the projection (a Pass-1
/// violation).
pub fn propagate(
    ctx: &RuleCtx<'_>,
    cols: &[(String, Expr)],
    input: &Plan,
    path: &PathId,
    diff: DiffInstance,
) -> Result<Vec<DiffInstance>> {
    let in_arity = input.arity();
    let out_arity = cols.len();
    // Map each input ID column of the diff to its output position.
    let map_id = |c: usize| -> Result<usize> {
        cols.iter()
            .position(|(_, e)| matches!(e, Expr::Col(i) if *i == c))
            .ok_or_else(|| {
                Error::Plan(format!(
                    "projection drops diff ID column #{c}; ensure_ids must run first"
                ))
            })
    };
    let out_ids: Vec<usize> = diff
        .schema
        .id_cols
        .iter()
        .map(|&c| map_id(c))
        .collect::<Result<_>>()?;

    match diff.schema.kind {
        DiffKind::Insert => {
            // Project the full post rows through every expression.
            let node_ids = idivm_algebra::infer_ids(&Plan::Project {
                input: Box::new(input.clone()),
                cols: cols.to_vec(),
            })?;
            let mut rows = Vec::with_capacity(diff.rows.len());
            for d in &diff.rows {
                let full = diff
                    .schema
                    .full_row(d, in_arity, State::Post)
                    .ok_or_else(|| {
                        Error::Internal("insert diff lacks full coverage".into())
                    })?;
                rows.push(Row::try_collect(cols.iter().map(|(_, e)| e.eval(&full)))?);
            }
            Ok(vec![DiffInstance::insert_from_rows(
                &node_ids, out_arity, &rows,
            )])
        }
        DiffKind::Delete => {
            // Carry pre-state for every output column computable from
            // the diff's pre values (Table 8's blue portion).
            let pre_outs: Vec<usize> = (0..out_arity)
                .filter(|&o| {
                    !out_ids.contains(&o) && evaluable(&diff.schema, &cols[o].1, State::Pre)
                })
                .collect();
            let schema = DiffSchema::delete(&out_ids, &pre_outs);
            let mut rows = Vec::with_capacity(diff.rows.len());
            for d in &diff.rows {
                // One scratch input row serves every carried expression.
                let pre = diff.schema.scratch_row(d, in_arity, State::Pre);
                let ids = diff.schema.id_cols.iter().map(|&c| {
                    diff.schema.pre_value(d, c).ok_or_else(|| {
                        Error::Internal(format!("delete diff lacks id column {c}"))
                    })
                });
                let pres = pre_outs.iter().map(|&o| cols[o].1.eval(&pre));
                rows.push(Row::try_collect(ids.chain(pres))?);
            }
            Ok(vec![DiffInstance::new(schema, rows)])
        }
        DiffKind::Update => {
            // Output columns whose expression reads an updated input
            // column must be re-emitted with new values.
            let touched: Vec<usize> = (0..out_arity)
                .filter(|&o| {
                    !out_ids.contains(&o)
                        && cols[o]
                            .1
                            .columns()
                            .iter()
                            .any(|c| diff.schema.post_cols.contains(c))
                })
                .collect();
            if touched.is_empty() {
                // The update is invisible through this projection.
                return Ok(vec![]);
            }
            let pre_outs: Vec<usize> = (0..out_arity)
                .filter(|&o| {
                    !out_ids.contains(&o) && evaluable(&diff.schema, &cols[o].1, State::Pre)
                })
                .collect();
            let all_evaluable = touched
                .iter()
                .all(|&o| evaluable(&diff.schema, &cols[o].1, State::Post));
            let schema = DiffSchema::update(&out_ids, &pre_outs, &touched);
            let mut rows = Vec::with_capacity(diff.rows.len());
            let _ = ctx; // projection needs no minimize distinction
            if all_evaluable {
                for d in &diff.rows {
                    rows.push(build_update_row(
                        &diff.schema,
                        d,
                        cols,
                        &pre_outs,
                        &touched,
                        in_arity,
                    )?);
                }
            } else {
                // General form: probe Input_post (and Input_pre for the
                // carried pre values) by the diff IDs; one output diff
                // row per affected input row, at full input-ID
                // granularity is unnecessary — the probed rows share the
                // diff's Ī′ values, and their computed outputs may vary,
                // so emit per input row keyed by the *projected* input
                // IDs.
                let node_ids = idivm_algebra::infer_ids(&Plan::Project {
                    input: Box::new(input.clone()),
                    cols: cols.to_vec(),
                })?;
                let fine = DiffSchema::update(&node_ids, &[], &touched);
                let ipath = child_path(path, 0);
                let mut fine_rows = Vec::new();
                for d in &diff.rows {
                    for post in access::lookup(
                        ctx.access,
                        input,
                        &ipath,
                        State::Post,
                        &diff.schema.id_cols,
                        diff.schema.id_slice(d),
                    )? {
                        let projected = Row::try_collect(cols.iter().map(|(_, e)| e.eval(&post)))?;
                        fine_rows.push(laid_out(&projected, &fine.id_cols, &fine.post_cols));
                    }
                }
                return Ok(vec![DiffInstance::new(fine, fine_rows)]);
            }
            // σ_isupd: drop rows where every touched output column kept
            // its pre value (when the pre value is known).
            let s2 = schema.clone();
            rows.retain(|r| {
                touched.iter().any(|&o| {
                    match (s2.pre_value(r, o), s2.post_value(r, o)) {
                        (Some(pre), Some(post)) => pre != post,
                        _ => true,
                    }
                })
            });
            Ok(vec![DiffInstance::new(schema, rows)])
        }
    }
}

fn build_update_row(
    in_schema: &DiffSchema,
    d: &Row,
    cols: &[(String, Expr)],
    pre_outs: &[usize],
    touched: &[usize],
    in_arity: usize,
) -> Result<Row> {
    // One scratch input row per state serves every carried expression.
    let pre = in_schema.scratch_row(d, in_arity, State::Pre);
    let post = in_schema.scratch_row(d, in_arity, State::Post);
    let ids = in_schema.id_cols.iter().map(|&c| {
        in_schema
            .pre_value(d, c)
            .ok_or_else(|| Error::Internal(format!("update diff lacks id column {c}")))
    });
    let pres = pre_outs.iter().map(|&o| cols[o].1.eval(&pre));
    let posts = touched.iter().map(|&o| cols[o].1.eval(&post));
    Row::try_collect(ids.chain(pres).chain(posts))
}
