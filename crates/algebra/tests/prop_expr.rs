//! Property tests over the expression language and ID inference.

use idivm_algebra::{ensure_ids, infer_ids, BinOp, CmpOp, Expr, Plan};
use idivm_types::{ColumnType, Row, Schema, Value};
use proptest::prelude::*;

/// Random arithmetic expressions over a 4-column integer row.
fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0usize..4).prop_map(Expr::Col),
        (-20i64..20).prop_map(|v| Expr::Lit(Value::Int(v))),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        (inner.clone(), inner, prop_oneof![
            Just(BinOp::Add),
            Just(BinOp::Sub),
            Just(BinOp::Mul),
        ])
            .prop_map(|(l, r, op)| Expr::Bin {
                op,
                left: Box::new(l),
                right: Box::new(r),
            })
    })
}

fn row4() -> impl Strategy<Value = Row> {
    proptest::collection::vec(-100i64..100, 4)
        .prop_map(|v| Row(v.into_iter().map(Value::Int).collect()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// remap with the identity is the identity, and remap composes.
    #[test]
    fn remap_identity_and_composition(e in expr_strategy(), r in row4()) {
        let id = e.remap(&|c| c);
        prop_assert_eq!(id.eval(&r).unwrap(), e.eval(&r).unwrap());
        // Shift by 2 then unshift: needs an 6-wide row for the middle.
        let shifted = e.remap(&|c| c + 2).remap(&|c| c - 2);
        prop_assert_eq!(shifted.eval(&r).unwrap(), e.eval(&r).unwrap());
    }

    /// Every referenced column is within bounds, and evaluating on a
    /// row whose non-referenced columns are scrambled gives the same
    /// value (columns() is complete).
    #[test]
    fn columns_is_complete(e in expr_strategy(), r in row4(), noise in -100i64..100) {
        let cols = e.columns();
        prop_assert!(cols.iter().all(|&c| c < 4));
        let noisy: Vec<(usize, Value)> = (0..4)
            .filter(|c| !cols.contains(c))
            .map(|c| (c, Value::Int(noise)))
            .collect();
        let scrambled = r.with(&noisy);
        prop_assert_eq!(e.eval(&scrambled).unwrap(), e.eval(&r).unwrap());
    }

    /// Comparison negation is logical complement on non-NULL data.
    #[test]
    fn negation_complements(a in -50i64..50, b in -50i64..50) {
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let e = Expr::Cmp {
                op,
                left: Box::new(Expr::Col(0)),
                right: Box::new(Expr::Col(1)),
            };
            let r = Row::new(vec![Value::Int(a), Value::Int(b)]);
            let neg = e.clone().negate();
            prop_assert_eq!(e.eval_pred(&r).unwrap(), !neg.eval_pred(&r).unwrap());
        }
    }
}

// Random projection subsets over a 3-column scan: ensure_ids always
// restores inferability, and never changes the columns already there.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ensure_ids_restores_inference(kept in proptest::collection::btree_set(0usize..3, 0..3)) {
        let scan = Plan::Scan {
            table: "t".into(),
            alias: "t".into(),
            schema: Schema::from_pairs(
                &[
                    ("id", ColumnType::Int),
                    ("a", ColumnType::Int),
                    ("b", ColumnType::Int),
                ],
                &["id"],
            )
            .unwrap(),
        };
        let cols: Vec<(String, Expr)> = kept
            .iter()
            .map(|&c| (format!("c{c}"), Expr::Col(c)))
            .collect();
        let plan = Plan::Project {
            input: Box::new(scan),
            cols: cols.clone(),
        };
        let fixed = ensure_ids(plan).unwrap();
        let ids = infer_ids(&fixed).unwrap();
        prop_assert!(!ids.is_empty());
        // Existing columns survive in order as a prefix.
        if let Plan::Project { cols: fixed_cols, .. } = &fixed {
            prop_assert!(fixed_cols.len() >= cols.len());
            for (orig, now) in cols.iter().zip(fixed_cols.iter()) {
                prop_assert_eq!(orig, now);
            }
        } else {
            prop_assert!(false, "ensure_ids changed the node kind");
        }
    }
}
