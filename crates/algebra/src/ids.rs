//! ID inference — paper Table 1 and Pass 1 of the ∆-script generator.
//!
//! Every subview must expose a set of *ID attributes* forming a key of
//! its result so i-diffs can address its tuples. [`infer_ids`] computes
//! those output positions per Table 1:
//!
//! | operator            | output IDs                       |
//! |---------------------|----------------------------------|
//! | `SCAN(R)`           | `key(R)`                         |
//! | `σ(R)`              | `ID(R)`                          |
//! | `π(R)`              | `ID(R)`                          |
//! | `R × S`, `R ⋈ S`    | `ID(R) ∪ ID(S)`                  |
//! | `R ▷ S`, `R ⋉ S`    | `ID(R)`                          |
//! | bag union `R ∪ S`   | `ID(R) ∪ ID(S) ∪ {b}`            |
//! | `γ_G,f(M)(R)`       | `G`                              |
//!
//! A projection that drops an ID makes inference fail; [`ensure_ids`]
//! implements the paper's automatic plan extension ("idIVM automatically
//! extends the plan to include the required ID attributes") by appending
//! the missing ID columns to offending projections. The extension only
//! widens rows — it never changes cardinality (paper Section 4).

use crate::expr::Expr;
use crate::plan::Plan;
use idivm_types::{Error, Result};

/// Infer the output ID positions of `plan` per paper Table 1.
///
/// # Errors
/// [`Error::Plan`] if a projection drops an ID column (run
/// [`ensure_ids`] first) or the plan is otherwise malformed.
pub fn infer_ids(plan: &Plan) -> Result<Vec<usize>> {
    let ids = match plan {
        Plan::Scan { schema, .. } => schema.key().to_vec(),
        Plan::Select { input, .. } => infer_ids(input)?,
        Plan::Project { input, cols } => project_ids(&infer_ids(input)?, cols)?,
        Plan::Join {
            kind, left, right, ..
        } => {
            // Outer join: padded rows carry NULLs in the right-ID
            // positions; since every left row yields either matches or
            // exactly one padded row, `ID(R) ∪ ID(S)` (with NULLs read
            // as a distinguished padding marker) still keys the output.
            let mut ids = infer_ids(left)?;
            if kind.keeps_right() {
                let off = left.arity();
                ids.extend(infer_ids(right)?.into_iter().map(|i| i + off));
            }
            ids
        }
        Plan::UnionAll { left, right } => {
            let mut ids = infer_ids(left)?;
            for i in infer_ids(right)? {
                if !ids.contains(&i) {
                    ids.push(i);
                }
            }
            ids.push(plan.arity() - 1); // the branch column b
            ids.sort_unstable();
            ids
        }
        Plan::GroupBy { keys, .. } => (0..keys.len()).collect(),
    };
    Ok(ids)
}

/// The output ID positions of a projection with `cols` over an input
/// whose IDs are `input_ids` (the `π(R)` row of Table 1): where each
/// input ID is copied to, sorted.
///
/// # Errors
/// [`Error::Plan`] if `cols` drops an input ID (run [`ensure_ids`]
/// first).
pub fn project_ids(input_ids: &[usize], cols: &[(String, Expr)]) -> Result<Vec<usize>> {
    let mut out = Vec::with_capacity(input_ids.len());
    for &id in input_ids {
        let pos = cols
            .iter()
            .position(|(_, e)| matches!(e, Expr::Col(i) if *i == id))
            .ok_or_else(|| {
                Error::Plan(format!(
                    "projection drops ID column #{id} of its input; \
                     run ensure_ids to extend the plan"
                ))
            })?;
        out.push(pos);
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

/// Pass 1 of the ∆-script generator: extend every projection in the plan
/// so the inferred ID columns survive to each subview's output. Appended
/// columns take the name of the input column they copy.
///
/// # Errors
/// Propagates structural plan errors.
pub fn ensure_ids(plan: Plan) -> Result<Plan> {
    let fixed = match plan {
        Plan::Scan { .. } => plan,
        Plan::Select { input, pred } => Plan::Select {
            input: Box::new(ensure_ids(*input)?),
            pred,
        },
        Plan::Project { input, mut cols } => {
            let input = ensure_ids(*input)?;
            let input_ids = infer_ids(&input)?;
            let in_cols = input.output_cols();
            for id in input_ids {
                let present = cols
                    .iter()
                    .any(|(_, e)| matches!(e, Expr::Col(i) if *i == id));
                if !present {
                    let base = &in_cols[id].name;
                    // Avoid a name collision with an existing output col.
                    let name = if cols.iter().any(|(n, _)| n == base) {
                        format!("{base}#id")
                    } else {
                        base.clone()
                    };
                    cols.push((name, Expr::Col(id)));
                }
            }
            Plan::Project {
                input: Box::new(input),
                cols,
            }
        }
        Plan::Join {
            kind,
            left,
            right,
            on,
            residual,
        } => Plan::Join {
            kind,
            left: Box::new(ensure_ids(*left)?),
            right: Box::new(ensure_ids(*right)?),
            on,
            residual,
        },
        Plan::UnionAll { left, right } => Plan::UnionAll {
            left: Box::new(ensure_ids(*left)?),
            right: Box::new(ensure_ids(*right)?),
        },
        Plan::GroupBy { input, keys, aggs } => Plan::GroupBy {
            input: Box::new(ensure_ids(*input)?),
            keys,
            aggs,
        },
    };
    Ok(fixed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AggFunc, AggSpec};
    use crate::plan::JoinKind;
    use idivm_types::{ColumnType, Schema};

    fn scan(alias: &str, cols: &[(&str, ColumnType)], key: &[&str]) -> Plan {
        Plan::Scan {
            table: alias.to_string(),
            alias: alias.to_string(),
            schema: Schema::from_pairs(cols, key).unwrap(),
        }
    }

    fn parts() -> Plan {
        scan(
            "parts",
            &[("pid", ColumnType::Str), ("price", ColumnType::Int)],
            &["pid"],
        )
    }

    fn devices_parts() -> Plan {
        scan(
            "dp",
            &[("did", ColumnType::Str), ("pid", ColumnType::Str)],
            &["did", "pid"],
        )
    }

    #[test]
    fn scan_ids_are_table_key() {
        assert_eq!(infer_ids(&parts()).unwrap(), vec![0]);
        assert_eq!(infer_ids(&devices_parts()).unwrap(), vec![0, 1]);
    }

    #[test]
    fn select_preserves_ids() {
        let s = Plan::Select {
            input: Box::new(parts()),
            pred: Expr::col(1).gt(Expr::lit(5)),
        };
        assert_eq!(infer_ids(&s).unwrap(), vec![0]);
    }

    #[test]
    fn join_unions_ids_with_offset() {
        let j = Plan::Join {
            kind: JoinKind::Inner,
            left: Box::new(parts()),
            right: Box::new(devices_parts()),
            on: vec![(0, 1)],
            residual: None,
        };
        // parts.pid (0), dp.did (2), dp.pid (3)
        assert_eq!(infer_ids(&j).unwrap(), vec![0, 2, 3]);
    }

    #[test]
    fn projection_dropping_id_fails_then_ensure_fixes() {
        let p = Plan::Project {
            input: Box::new(parts()),
            cols: vec![("price".into(), Expr::col(1))],
        };
        assert!(infer_ids(&p).is_err());
        let fixed = ensure_ids(p).unwrap();
        let ids = infer_ids(&fixed).unwrap();
        assert_eq!(ids, vec![1]); // appended pid at position 1
        let cols = fixed.output_cols();
        assert_eq!(cols[1].name, "parts.pid");
        // ensure_ids is idempotent.
        let again = ensure_ids(fixed.clone()).unwrap();
        assert_eq!(again, fixed);
    }

    #[test]
    fn group_by_ids_are_keys() {
        let g = Plan::GroupBy {
            input: Box::new(devices_parts()),
            keys: vec![0],
            aggs: vec![AggSpec::new(AggFunc::Count, Expr::lit(1), "n")],
        };
        assert_eq!(infer_ids(&g).unwrap(), vec![0]);
    }

    #[test]
    fn union_ids_include_branch() {
        let u = Plan::UnionAll {
            left: Box::new(parts()),
            right: Box::new(parts()),
        };
        // pid from both branches (position 0) plus branch col (2)
        assert_eq!(infer_ids(&u).unwrap(), vec![0, 2]);
    }

    #[test]
    fn antisemijoin_keeps_left_ids() {
        let a = Plan::Join {
            kind: JoinKind::Anti,
            left: Box::new(devices_parts()),
            right: Box::new(parts()),
            on: vec![(1, 0)],
            residual: None,
        };
        assert_eq!(infer_ids(&a).unwrap(), vec![0, 1]);
    }

    #[test]
    fn ensure_ids_renames_on_collision() {
        // Project computes a column *named* parts.pid that is not the ID.
        let p = Plan::Project {
            input: Box::new(parts()),
            cols: vec![("parts.pid".into(), Expr::col(1))],
        };
        let fixed = ensure_ids(p).unwrap();
        let cols = fixed.output_cols();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[1].name, "parts.pid#id");
        assert!(fixed.validate().is_ok());
    }
}
