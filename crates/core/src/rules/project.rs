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
    let node_ids = || project_ids(&infer_ids(input)?, cols);
    let Some((schema, general)) = out_schema(cols, &diff.schema, node_ids)? else {
        // The update is invisible through this projection.
        return Ok(vec![]);
    };
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

    match schema.kind {
        DiffKind::Insert => {
            // Project the full post rows through every expression.
            let covered = in_schema.full_sources(input.arity(), State::Post).is_some();
            if !covered && !diff.rows.is_empty() {
                return Err(Error::Internal("insert diff lacks full coverage".into()));
            }
            let exprs = slots(&[
                (&schema.id_cols, State::Post),
                (&schema.post_cols, State::Post),
            ]);
            Ok(vec![emit(schema, &exprs)?])
        }
        DiffKind::Delete => {
            let exprs = slots(&[
                (&schema.id_cols, State::Pre),
                (&schema.pre_cols, State::Pre),
            ]);
            Ok(vec![emit(schema, &exprs)?])
        }
        DiffKind::Update if general => {
            // General form: probe Input_post by the diff IDs and emit
            // one output diff row per affected input row, keyed by the
            // *projected* input IDs — the probed rows share the diff's
            // Ī′ values, but their computed outputs may vary.
            let ipath = child_path(path, 0);
            let mut fine_rows = Vec::new();
            for d in &diff.rows {
                for post in access::lookup(
                    ctx.access,
                    input,
                    &ipath,
                    State::Post,
                    &in_schema.id_cols,
                    in_schema.id_slice(d),
                )? {
                    let outs = schema.id_cols.iter().chain(&schema.post_cols);
                    fine_rows.push(Row::try_collect(outs.map(|&o| cols[o].1.eval(&post)))?);
                }
            }
            Ok(vec![DiffInstance::new(schema, fine_rows)])
        }
        DiffKind::Update => {
            let exprs = slots(&[
                (&schema.id_cols, State::Pre),
                (&schema.pre_cols, State::Pre),
                (&schema.post_cols, State::Post),
            ]);
            // σ_isupd: drop rows where every touched output column kept
            // its pre value (when the pre value is known).
            let compared: Vec<(Option<usize>, Option<usize>)> = schema
                .post_cols
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

/// The schema a diff of schema `diff` leaves the projection `cols`
/// with, or `None` for an update that touches no output column (it is
/// invisible here). The diff's IDs map to their output positions; an
/// output column carries its pre value where the diff's pre values
/// compute it (Table 8's blue portion); an update re-emits the output
/// columns that read an updated column. An insert, and an update
/// whose new values the diff cannot compute (the general form, which
/// probes `Input_post`; the `bool` says so), is keyed by the node's
/// IDs, `node_ids()`.
///
/// # Errors
/// Diff IDs dropped by the projection (a Pass-1 violation).
pub(crate) fn out_schema(
    cols: &[(String, Expr)],
    diff: &DiffSchema,
    node_ids: impl Fn() -> Result<Vec<usize>>,
) -> Result<Option<(DiffSchema, bool)>> {
    let to_output = |&c: &usize| {
        let pos = cols
            .iter()
            .position(|(_, e)| matches!(e, Expr::Col(i) if *i == c));
        pos.ok_or_else(|| {
            Error::Plan(format!(
                "projection drops diff ID column #{c}; ensure_ids must run first"
            ))
        })
    };
    let out_ids: Vec<usize> = diff.id_cols.iter().map(to_output).collect::<Result<_>>()?;
    let outs = |keep: &dyn Fn(&Expr) -> bool| -> Vec<usize> {
        (0..cols.len())
            .filter(|o| !out_ids.contains(o) && keep(&cols[*o].1))
            .collect()
    };
    let pre = || outs(&|e| evaluable(diff, e, State::Pre));
    Ok(Some(match diff.kind {
        DiffKind::Insert => (DiffSchema::insert(&node_ids()?, cols.len()), false),
        DiffKind::Delete => (DiffSchema::delete(&out_ids, &pre()), false),
        DiffKind::Update => {
            let touched = outs(&|e| e.columns().iter().any(|c| diff.post_cols.contains(c)));
            if touched.is_empty() {
                return Ok(None);
            }
            if touched
                .iter()
                .all(|&o| evaluable(diff, &cols[o].1, State::Post))
            {
                (DiffSchema::update(&out_ids, &pre(), &touched), false)
            } else {
                (DiffSchema::update(&node_ids()?, &[], &touched), true)
            }
        }
    }))
}
