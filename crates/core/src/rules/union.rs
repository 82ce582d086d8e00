//! Rules for bag union ∪ — paper Table 5.
//!
//! Every diff passes through with the branch attribute `b` (0 = left,
//! 1 = right) appended to its ID columns: `∆_V = π_{*, b→side} ∆_Input`.
//! No data access is ever needed — union is the cheapest operator for
//! ID-based IVM.

use crate::diff::{DiffInstance, DiffKind, DiffSchema};
use idivm_algebra::Plan;
use idivm_types::{Result, Value};

/// Propagate one diff through a union-all node of output arity
/// `out_arity` (child arity + 1 for the branch column).
///
/// # Errors
/// Never fails today; `Result` kept for dispatch uniformity.
pub fn propagate(
    _side_plan: &Plan,
    out_arity: usize,
    side: usize,
    diff: DiffInstance,
) -> Result<DiffInstance> {
    let branch_col = out_arity - 1;
    let branch_val = Value::Int(side as i64);
    let n_ids = diff.schema.id_cols.len();
    let mut id_cols = diff.schema.id_cols.clone();
    id_cols.push(branch_col);
    let schema = match diff.schema.kind {
        DiffKind::Insert => DiffSchema {
            kind: DiffKind::Insert,
            id_cols,
            pre_cols: Vec::new(),
            // The branch column moved into the IDs; the remaining post
            // columns are the child's post columns unchanged.
            post_cols: diff.schema.post_cols.clone(),
        },
        DiffKind::Delete => DiffSchema {
            kind: DiffKind::Delete,
            id_cols,
            pre_cols: diff.schema.pre_cols.clone(),
            post_cols: Vec::new(),
        },
        DiffKind::Update => DiffSchema {
            kind: DiffKind::Update,
            id_cols,
            pre_cols: diff.schema.pre_cols.clone(),
            post_cols: diff.schema.post_cols.clone(),
        },
    };
    let rows = diff
        .rows
        .into_iter()
        .map(|r| {
            // Insert the branch value right after the existing IDs.
            let (ids, rest) = r.0.split_at(n_ids);
            ids.iter()
                .chain(std::iter::once(&branch_val))
                .chain(rest)
                .cloned()
                .collect()
        })
        .collect();
    Ok(DiffInstance::new(schema, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use idivm_types::row;

    #[test]
    fn update_gains_branch_id() {
        let d = DiffInstance::new(
            DiffSchema::update(&[0], &[1], &[1]),
            vec![row![7, 10, 11]],
        );
        let plan = Plan::Scan {
            table: "t".into(),
            alias: "t".into(),
            schema: idivm_types::Schema::from_pairs(
                &[
                    ("id", idivm_types::ColumnType::Int),
                    ("x", idivm_types::ColumnType::Int),
                ],
                &["id"],
            )
            .unwrap(),
        };
        let out = propagate(&plan, 3, 1, d).unwrap();
        assert_eq!(out.schema.id_cols, vec![0, 2]);
        assert_eq!(out.rows, vec![row![7, 1, 10, 11]]);
    }

    #[test]
    fn insert_keeps_all_columns() {
        let d = DiffInstance::insert_from_rows(&[0], 2, &[row![1, 5]]);
        let plan = Plan::Scan {
            table: "t".into(),
            alias: "t".into(),
            schema: idivm_types::Schema::from_pairs(
                &[
                    ("id", idivm_types::ColumnType::Int),
                    ("x", idivm_types::ColumnType::Int),
                ],
                &["id"],
            )
            .unwrap(),
        };
        let out = propagate(&plan, 3, 0, d).unwrap();
        assert_eq!(out.schema.id_cols, vec![0, 2]);
        assert_eq!(out.rows, vec![row![1, 0, 5]]);
    }
}
