//! Property test: the executor's four join kinds equal a nested-loop
//! reference, row for row and in order.
//!
//! The reference below shares no code with the executor's join: it
//! walks every (left, right) pair in input order and keeps a pair when
//! its `on` columns are all non-NULL and equal and the residual θ holds
//! on the concatenated row. So the executor's contract is pinned in
//! full — SQL NULL keys never match, duplicate keys fan out, and the
//! output is left-major with each left row's matches in right input
//! order (a left outer join pads a left row that kept no match; a semi-
//! or anti-join keeps left rows in input order). The recompute oracle
//! every engine is tested against rests on this executor, so this is
//! the check under the oracle.
//!
//! Inputs: two tables of random rows over a tiny domain with NULLs, so
//! keys repeat; key sets that are empty (θ-only or cross product),
//! single-column, multi-column and non-contiguous; with and without a
//! residual θ.

use idivm_algebra::{opt_pred, Expr, Plan};
use idivm_exec::execute;
use idivm_reldb::Database;
use idivm_types::{ColumnType, Row, Schema, Value};
use proptest::prelude::*;

/// `(left position, right position)` key sets, over the three value
/// columns 1..=3 (column 0 is the primary key).
const ONS: [&[(usize, usize)]; 5] = [
    &[],
    &[(1, 1)],
    &[(2, 3)],
    &[(1, 2), (3, 1)],
    &[(3, 3), (1, 1), (2, 2)],
];

#[derive(Debug, Clone, Copy)]
enum Kind {
    Join,
    LeftOuter,
    Semi,
    Anti,
}

const KINDS: [Kind; 4] = [Kind::Join, Kind::LeftOuter, Kind::Semi, Kind::Anti];

const ARITY: usize = 4;

fn value() -> impl Strategy<Value = Option<i64>> {
    prop_oneof![Just(None), (0i64..3).prop_map(Some)]
}

fn rows() -> impl Strategy<Value = Vec<(Option<i64>, Option<i64>, Option<i64>)>> {
    proptest::collection::vec((value(), value(), value()), 0..14)
}

fn table(db: &mut Database, name: &str, rows: &[(Option<i64>, Option<i64>, Option<i64>)]) -> Plan {
    let schema = Schema::from_pairs(
        &[
            ("id", ColumnType::Int),
            ("a", ColumnType::Int),
            ("b", ColumnType::Int),
            ("c", ColumnType::Int),
        ],
        &["id"],
    )
    .unwrap();
    db.create_table(name, schema.clone()).unwrap();
    let v = |x: Option<i64>| x.map_or(Value::Null, Value::Int);
    for (id, &(a, b, c)) in rows.iter().enumerate() {
        db.insert(name, Row::new(vec![Value::Int(id as i64), v(a), v(b), v(c)]))
            .unwrap();
    }
    Plan::Scan {
        table: name.to_string(),
        alias: name.to_string(),
        schema,
    }
}

fn plan(kind: Kind, left: &Plan, right: &Plan, on: &[(usize, usize)], residual: Option<Expr>) -> Plan {
    let (left, right, on) = (Box::new(left.clone()), Box::new(right.clone()), on.to_vec());
    match kind {
        Kind::Join => Plan::Join { kind: idivm_algebra::JoinKind::Inner, left, right, on, residual },
        Kind::LeftOuter => Plan::Join { kind: idivm_algebra::JoinKind::LeftOuter, left, right, on, residual },
        Kind::Semi => Plan::Join { kind: idivm_algebra::JoinKind::Semi, left, right, on, residual },
        Kind::Anti => Plan::Join { kind: idivm_algebra::JoinKind::Anti, left, right, on, residual },
    }
}

/// The nested-loop reference.
fn reference(kind: Kind, left: &[Row], right: &[Row], on: &[(usize, usize)], residual: Option<&Expr>) -> Vec<Row> {
    let pad = Row::new(vec![Value::Null; ARITY]);
    let mut out = Vec::new();
    for l in left {
        let mut matches = Vec::new();
        for r in right {
            let keys_equal = on
                .iter()
                .all(|&(lc, rc)| !l[lc].is_null() && !r[rc].is_null() && l[lc] == r[rc]);
            let joined = l.concat(r);
            if keys_equal && opt_pred(residual, &joined).unwrap() {
                matches.push(joined);
            }
        }
        match kind {
            Kind::Join => out.extend(matches),
            Kind::LeftOuter if matches.is_empty() => out.push(l.concat(&pad)),
            Kind::LeftOuter => out.extend(matches),
            Kind::Semi if !matches.is_empty() => out.push(l.clone()),
            Kind::Anti if matches.is_empty() => out.push(l.clone()),
            Kind::Semi | Kind::Anti => {}
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn joins_equal_a_nested_loop_reference_in_order(
        lrows in rows(),
        rrows in rows(),
        on in 0..ONS.len(),
        theta in any::<bool>(),
    ) {
        let mut db = Database::new();
        db.set_logging(false);
        let left = table(&mut db, "l", &lrows);
        let right = table(&mut db, "r", &rrows);
        let (lscan, rscan) = (db.table("l").unwrap().scan(), db.table("r").unwrap().scan());
        // l.b < r.c, over the concatenated row.
        let residual = theta.then(|| Expr::col(2).lt(Expr::col(ARITY + 3)));
        for kind in KINDS {
            let got = execute(&db, &plan(kind, &left, &right, ONS[on], residual.clone())).unwrap();
            let want = reference(kind, &lscan, &rscan, ONS[on], residual.as_ref());
            prop_assert_eq!(got, want, "{:?} on {:?} residual {:?}", kind, ONS[on], residual);
        }
    }
}
