//! Rules for bag union ∪ — paper Table 5.
//!
//! Every diff passes through with the branch attribute `b` (0 = left,
//! 1 = right) appended to its ID columns: `∆_V = π_{*, b→side} ∆_Input`.
//! No data access is ever needed — union is the cheapest operator for
//! ID-based IVM.

use crate::diff::{DiffInstance, DiffSchema};
use idivm_types::Value;

/// Propagate one diff from input `side` through a union-all node of
/// output arity `out_arity` (child arity + 1 for the branch column).
pub fn propagate(out_arity: usize, side: usize, diff: DiffInstance) -> DiffInstance {
    let branch_val = Value::Int(side as i64);
    let n_ids = diff.schema.id_cols.len();
    // Insert the branch value right after the existing IDs.
    let rows = diff
        .rows
        .into_iter()
        .map(|r| {
            let (ids, rest) = r.0.split_at(n_ids);
            let branch = std::iter::once(&branch_val);
            ids.iter().chain(branch).chain(rest).cloned().collect()
        })
        .collect();
    DiffInstance::new(out_schema(out_arity, &diff.schema), rows)
}

/// The schema a diff of schema `diff` leaves a union-all node of output
/// arity `out_arity` with: the branch column joins its IDs, and its pre
/// and post columns are the child's, unchanged.
pub(crate) fn out_schema(out_arity: usize, diff: &DiffSchema) -> DiffSchema {
    let mut out = diff.clone();
    out.id_cols.push(out_arity - 1);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use idivm_types::row;

    #[test]
    fn update_gains_branch_id() {
        let d = DiffInstance::new(DiffSchema::update(&[0], &[1], &[1]), vec![row![7, 10, 11]]);
        let out = propagate(3, 1, d);
        assert_eq!(out.schema.id_cols, vec![0, 2]);
        assert_eq!(out.rows, vec![row![7, 1, 10, 11]]);
    }

    #[test]
    fn insert_keeps_all_columns() {
        let d = DiffInstance::from_rows(DiffSchema::insert(&[0], 2), 2, &[row![1, 5]]);
        let out = propagate(3, 0, d);
        assert_eq!(out.schema.id_cols, vec![0, 2]);
        assert_eq!(out.rows, vec![row![1, 0, 5]]);
    }
}
