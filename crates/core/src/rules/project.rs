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
use crate::diff::{DiffInstance, DiffKind, DiffSchema, State};
use crate::rules::common::{child_path, evaluable, on_diff};
use crate::rules::RuleCtx;
use idivm_algebra::{infer_ids, project_ids, Expr, Plan};
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

    // Each output row is one `Row::try_collect` over per-slot
    // expressions, rewritten once per instance onto the diff's slots.
    let emit = |schema: DiffSchema, slots: &[Expr]| -> Result<DiffInstance> {
        let mut rows = Vec::with_capacity(diff.rows.len());
        for d in &diff.rows {
            rows.push(Row::try_collect(slots.iter().map(|e| e.eval(d)))?);
        }
        Ok(DiffInstance::new(schema, rows))
    };
    let in_schema = &diff.schema;
    let slots = |parts: &[(&[usize], State)]| -> Vec<Expr> {
        parts
            .iter()
            .flat_map(|&(outs, state)| {
                outs.iter()
                    .map(move |&o| on_diff(in_schema, &cols[o].1, state))
            })
            .collect()
    };

    match diff.schema.kind {
        DiffKind::Insert => {
            // Project the full post rows through every expression.
            let covered = diff.schema.full_sources(in_arity, State::Post).is_some();
            if !covered && !diff.rows.is_empty() {
                return Err(Error::Internal("insert diff lacks full coverage".into()));
            }
            let node_ids = project_ids(&infer_ids(input)?, cols)?;
            let schema = DiffSchema::insert(&node_ids, out_arity);
            let exprs = slots(&[(&schema.id_cols, State::Post), (&schema.post_cols, State::Post)]);
            Ok(vec![emit(schema, &exprs)?])
        }
        DiffKind::Delete => {
            // Carry pre-state for every output column computable from
            // the diff's pre values (Table 8's blue portion).
            let pre_outs: Vec<usize> = (0..out_arity)
                .filter(|&o| {
                    !out_ids.contains(&o) && evaluable(&diff.schema, &cols[o].1, State::Pre)
                })
                .collect();
            let exprs = slots(&[(&out_ids, State::Pre), (&pre_outs, State::Pre)]);
            Ok(vec![emit(DiffSchema::delete(&out_ids, &pre_outs), &exprs)?])
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
            let all_evaluable = touched
                .iter()
                .all(|&o| evaluable(&diff.schema, &cols[o].1, State::Post));
            if !all_evaluable {
                // General form: probe Input_post (and Input_pre for the
                // carried pre values) by the diff IDs; one output diff
                // row per affected input row, at full input-ID
                // granularity is unnecessary — the probed rows share the
                // diff's Ī′ values, and their computed outputs may vary,
                // so emit per input row keyed by the *projected* input
                // IDs.
                let node_ids = project_ids(&infer_ids(input)?, cols)?;
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
                        let outs = fine.id_cols.iter().chain(&fine.post_cols);
                        fine_rows.push(Row::try_collect(outs.map(|&o| cols[o].1.eval(&post)))?);
                    }
                }
                return Ok(vec![DiffInstance::new(fine, fine_rows)]);
            }
            let pre_outs: Vec<usize> = (0..out_arity)
                .filter(|&o| {
                    !out_ids.contains(&o) && evaluable(&diff.schema, &cols[o].1, State::Pre)
                })
                .collect();
            let schema = DiffSchema::update(&out_ids, &pre_outs, &touched);
            let exprs = slots(&[
                (&out_ids, State::Pre),
                (&pre_outs, State::Pre),
                (&touched, State::Post),
            ]);
            // σ_isupd: drop rows where every touched output column kept
            // its pre value (when the pre value is known).
            let compared: Vec<(Option<usize>, Option<usize>)> = touched
                .iter()
                .map(|&o| (schema.pre_source(o), schema.post_source(o)))
                .collect();
            let mut out = emit(schema, &exprs)?;
            out.rows.retain(|r| {
                compared.iter().any(|&pair| match pair {
                    (Some(pre), Some(post)) => r[pre] != r[post],
                    _ => true,
                })
            });
            Ok(vec![out])
        }
    }
}
