//! Shared helpers for the propagation rules.

use crate::access::{self, AccessCtx, PathId};
use crate::diff::{DiffInstance, DiffSchema, State};
use idivm_algebra::{Expr, Plan};
use idivm_types::{Key, Result, Row, Value};
use std::collections::BTreeSet;

/// Path of child `idx` under `path`.
pub fn child_path(path: &[usize], idx: usize) -> PathId {
    let mut p = path.to_vec();
    p.push(idx);
    p
}

/// Can `expr` be evaluated from the diff alone in the given state?
pub fn evaluable(schema: &DiffSchema, expr: &Expr, state: State) -> bool {
    expr.columns()
        .iter()
        .all(|&c| schema.source(c, state).is_some())
}

/// `expr` rewritten over the slots of a diff row in the given state:
/// each input column becomes the slot holding its value, and a column
/// the diff does not carry becomes `NULL`. Built once per instance and
/// evaluated on the diff rows themselves; agrees with evaluating `expr`
/// on the input row wherever [`evaluable`] holds.
pub(crate) fn on_diff(schema: &DiffSchema, expr: &Expr, state: State) -> Expr {
    expr.map_cols(&|c| {
        schema
            .source(c, state)
            .map_or(Expr::Lit(Value::Null), Expr::Col)
    })
}

/// Does the update diff leave all of `cols` untouched? (IDs are
/// immutable, so only genuine post columns count.)
pub fn untouched(schema: &DiffSchema, cols: &BTreeSet<usize>) -> bool {
    schema
        .post_cols
        .iter()
        .all(|c| !cols.contains(c) || schema.id_cols.contains(c))
}

/// Materialized pre/post row pair of one affected input tuple.
#[derive(Debug, Clone)]
pub struct RowPair {
    pub pre: Row,
    pub post: Row,
}

/// Expand an update diff into fully materialized pre/post input rows —
/// the paper's "treat input update as combination of insert and delete"
/// device (Table 13). When the diff carries full coverage the rows come
/// straight from it; otherwise the input subview is probed by the
/// diff's IDs (pre and post state), pairing rows on the input's full ID.
///
/// # Errors
/// Access failures while probing the input subview.
pub fn update_row_pairs(
    ctx: &AccessCtx<'_>,
    input: &Plan,
    input_path: &PathId,
    input_ids: &[usize],
    diff: &DiffInstance,
) -> Result<Vec<RowPair>> {
    let arity = input.arity();
    if let (Some(pre), Some(post)) = (
        diff.schema.full_sources(arity, State::Pre),
        diff.schema.full_sources(arity, State::Post),
    ) {
        return Ok(diff
            .rows
            .iter()
            .map(|d| RowPair {
                pre: pre.apply(d),
                post: post.apply(d),
            })
            .collect());
    }
    let mut out = Vec::new();
    for d in &diff.rows {
        let probe = diff.schema.id_slice(d);
        let pre_rows = access::lookup(
            ctx,
            input,
            input_path,
            State::Pre,
            &diff.schema.id_cols,
            probe,
        )?;
        let post_rows = access::lookup(
            ctx,
            input,
            input_path,
            State::Post,
            &diff.schema.id_cols,
            probe,
        )?;
        // Pair by the input's full ID key; unmatched rows are
        // inserts/deletes masquerading as updates (cannot happen with
        // effective diffs) and are skipped defensively.
        for post in post_rows {
            let same_id = |r: &&Row| input_ids.iter().all(|&c| r[c] == post[c]);
            if let Some(pre) = pre_rows.iter().find(same_id) {
                // Overlay post columns the diff dictates (the probed post
                // row already reflects them — the diff is effective — but
                // the diff's values are authoritative for dummy rows).
                out.push(RowPair {
                    pre: pre.clone(),
                    post,
                });
            }
        }
    }
    Ok(out)
}

/// Materialize the full **post** rows an insert diff stands for. Insert
/// diffs always carry every column, so this never probes; one lacking a
/// column stands for no rows.
pub fn insert_rows(diff: &DiffInstance, arity: usize) -> Vec<Row> {
    diff.schema
        .full_sources(arity, State::Post)
        .map_or_else(Vec::new, |l| l.apply_all(&diff.rows))
}

/// Materialize the full **pre** rows a delete diff stands for, probing
/// the input's pre-state when the diff carries only a column subset.
///
/// # Errors
/// Access failures while probing the input subview.
pub fn delete_rows(
    ctx: &AccessCtx<'_>,
    input: &Plan,
    input_path: &PathId,
    diff: &DiffInstance,
) -> Result<Vec<Row>> {
    if let Some(pre) = diff.schema.full_sources(input.arity(), State::Pre) {
        return Ok(pre.apply_all(&diff.rows));
    }
    let mut out = Vec::new();
    for d in &diff.rows {
        out.extend(access::lookup(
            ctx,
            input,
            input_path,
            State::Pre,
            &diff.schema.id_cols,
            diff.schema.id_slice(d),
        )?);
    }
    Ok(out)
}

/// Rebase a diff schema by shifting every column reference by `offset`
/// (right input of a join: output positions = input + left arity).
pub fn shift_schema(schema: &DiffSchema, offset: usize) -> DiffSchema {
    DiffSchema {
        kind: schema.kind,
        id_cols: schema.id_cols.iter().map(|c| c + offset).collect(),
        pre_cols: schema.pre_cols.iter().map(|c| c + offset).collect(),
        post_cols: schema.post_cols.iter().map(|c| c + offset).collect(),
    }
}

/// Keep at most one diff row per ID key (defensive dedupe; effective
/// diffs agree on final values, so keeping the first is sound).
pub fn dedupe_by_id(diff: &mut DiffInstance) {
    let mut seen: BTreeSet<Key> = BTreeSet::new();
    let schema = diff.schema.clone();
    diff.rows.retain(|r| seen.insert(schema.id_key(r)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use idivm_types::row;

    #[test]
    fn evaluable_checks_availability() {
        // Update diff on V(a*, b, c): ids=[0], pre=[1,2], post=[1].
        let s = DiffSchema::update(&[0], &[1, 2], &[1]);
        let on_b = Expr::col(1).gt(Expr::lit(0));
        let on_c = Expr::col(2).gt(Expr::lit(0));
        assert!(evaluable(&s, &on_b, State::Pre));
        assert!(evaluable(&s, &on_b, State::Post));
        assert!(evaluable(&s, &on_c, State::Pre));
        assert!(evaluable(&s, &on_c, State::Post)); // c unchanged ⇒ pre = post
        let ins = DiffSchema::insert(&[0], 3);
        assert!(!evaluable(&ins, &on_b, State::Pre)); // inserts have no pre
    }

    #[test]
    fn on_diff_reads_slots_and_nulls_the_rest() {
        // Layout [a, pre b, pre c, post b] over V(a*, b, c, d).
        let s = DiffSchema::update(&[0], &[1, 2], &[1]);
        let d = row![7, 1, 5, 9];
        let e = Expr::col(1).add(Expr::col(2));
        assert_eq!(on_diff(&s, &e, State::Pre).eval(&d).unwrap(), Value::Int(6));
        assert_eq!(
            on_diff(&s, &e, State::Post).eval(&d).unwrap(),
            Value::Int(14)
        );
        let on_d = Expr::IsNull(Box::new(Expr::col(3)));
        assert_eq!(
            on_diff(&s, &on_d, State::Post).eval(&d).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn untouched_ignores_condition_free_updates() {
        let s = DiffSchema::update(&[0], &[1, 2], &[1]);
        let cond_on_c: BTreeSet<usize> = [2].into_iter().collect();
        let cond_on_b: BTreeSet<usize> = [1].into_iter().collect();
        assert!(untouched(&s, &cond_on_c));
        assert!(!untouched(&s, &cond_on_b));
    }

    #[test]
    fn shift_schema_offsets_everything() {
        let s = DiffSchema::update(&[0], &[1], &[1]);
        let t = shift_schema(&s, 3);
        assert_eq!(t.id_cols, vec![3]);
        assert_eq!(t.pre_cols, vec![4]);
        assert_eq!(t.post_cols, vec![4]);
    }

    #[test]
    fn dedupe_keeps_first() {
        let mut d = DiffInstance::new(
            DiffSchema::update(&[0], &[], &[1]),
            vec![row![1, 10], row![1, 10], row![2, 20]],
        );
        dedupe_by_id(&mut d);
        assert_eq!(d.rows.len(), 2);
    }

    #[test]
    fn insert_rows_materializes() {
        let d = DiffInstance::insert_from_rows(&[0], 2, &[row![1, 5]]);
        assert_eq!(insert_rows(&d, 2), vec![row![1, 5]]);
    }
}
