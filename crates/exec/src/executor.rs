//! Full plan evaluation: counted scans, hash joins, hash aggregation.
//!
//! This evaluator computes a plan's entire result against the current
//! (post-) state of the database. It is deliberately straightforward —
//! it exists to materialize views and to serve as the recomputation
//! oracle, not to compete with the IVM paths it validates.

use idivm_algebra::aggregate::Accumulator;
use idivm_algebra::{opt_pred, Expr, Plan};
use idivm_reldb::Database;
use idivm_types::{Key, Result, Row, Value};
use std::collections::HashMap;

/// Evaluate `plan` against `db`, returning the full result.
///
/// Base-table scans are counted in the database's
/// [`AccessStats`](idivm_reldb::AccessStats); in-memory processing is
/// not (matching the paper's data-access cost model).
///
/// # Errors
/// Unknown tables or malformed plans.
pub fn execute(db: &Database, plan: &Plan) -> Result<Vec<Row>> {
    match plan {
        Plan::Scan { table, .. } => Ok(db.table(table)?.scan()),
        Plan::Select { input, pred } => {
            let rows = execute(db, input)?;
            let mut out = Vec::with_capacity(rows.len());
            for r in rows {
                if pred.eval_pred(&r)? {
                    out.push(r);
                }
            }
            Ok(out)
        }
        Plan::Project { input, cols } => {
            let rows = execute(db, input)?;
            rows.iter().map(|r| project_row(r, cols)).collect()
        }
        Plan::Join {
            left,
            right,
            on,
            residual,
        } => {
            let lrows = execute(db, left)?;
            let rrows = execute(db, right)?;
            hash_join(&lrows, &rrows, on, residual.as_ref())
        }
        Plan::LeftOuterJoin {
            left,
            right,
            on,
            residual,
        } => {
            let lrows = execute(db, left)?;
            let rrows = execute(db, right)?;
            hash_left_outer_join(&lrows, &rrows, right.arity(), on, residual.as_ref())
        }
        Plan::SemiJoin {
            left,
            right,
            on,
            residual,
        } => {
            let lrows = execute(db, left)?;
            let rrows = execute(db, right)?;
            semi_or_anti(lrows, &rrows, on, residual.as_ref(), true)
        }
        Plan::AntiJoin {
            left,
            right,
            on,
            residual,
        } => {
            let lrows = execute(db, left)?;
            let rrows = execute(db, right)?;
            semi_or_anti(lrows, &rrows, on, residual.as_ref(), false)
        }
        Plan::UnionAll { left, right } => {
            let mut out = Vec::new();
            for (branch, side) in [(0i64, left), (1i64, right)] {
                for r in execute(db, side)? {
                    out.push(r.extended(Value::Int(branch)));
                }
            }
            Ok(out)
        }
        Plan::GroupBy { input, keys, aggs } => {
            let rows = execute(db, input)?;
            hash_aggregate(&rows, keys, aggs)
        }
    }
}

/// Apply a generalized projection to one row.
///
/// # Errors
/// Expression evaluation failures.
pub fn project_row(row: &Row, cols: &[(String, Expr)]) -> Result<Row> {
    Row::try_collect(cols.iter().map(|(_, e)| e.eval(row)))
}

/// Hash equi-join with optional residual θ filter. Rows whose join key
/// contains NULL never match (SQL semantics).
///
/// # Errors
/// Residual-predicate evaluation failures.
pub fn hash_join(
    left: &[Row],
    right: &[Row],
    on: &[(usize, usize)],
    residual: Option<&Expr>,
) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    if on.is_empty() {
        // Cross product (θ handled by residual).
        for l in left {
            for r in right {
                let joined = l.concat(r);
                if opt_pred(residual, &joined)? {
                    out.push(joined);
                }
            }
        }
        return Ok(out);
    }
    let rkeys: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
    let lkeys: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
    let mut table: HashMap<Key, Vec<&Row>> = HashMap::new();
    for r in right {
        let k = r.key(&rkeys);
        if k.0.iter().any(Value::is_null) {
            continue;
        }
        table.entry(k).or_default().push(r);
    }
    for l in left {
        let k = l.key(&lkeys);
        if k.0.iter().any(Value::is_null) {
            continue;
        }
        if let Some(matches) = table.get(&k) {
            for r in matches {
                let joined = l.concat(r);
                if opt_pred(residual, &joined)? {
                    out.push(joined);
                }
            }
        }
    }
    Ok(out)
}

/// Hash left outer join: every left row appears once per surviving
/// match, or once NULL-padded across all `right_arity` right columns
/// when nothing matches. NULL left join keys never match (SQL), so
/// those rows are always padded; a residual that rejects every
/// key-matched right row also pads.
///
/// # Errors
/// Residual-predicate evaluation failures.
pub fn hash_left_outer_join(
    left: &[Row],
    right: &[Row],
    right_arity: usize,
    on: &[(usize, usize)],
    residual: Option<&Expr>,
) -> Result<Vec<Row>> {
    let pad: Row = std::iter::repeat_n(Value::Null, right_arity).collect();
    let mut out = Vec::new();
    let rkeys: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
    let lkeys: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
    let mut table: HashMap<Key, Vec<&Row>> = HashMap::new();
    if !on.is_empty() {
        for r in right {
            let k = r.key(&rkeys);
            if k.0.iter().any(Value::is_null) {
                continue;
            }
            table.entry(k).or_default().push(r);
        }
    }
    // θ-only outer join: every right row is a candidate.
    let all_right: Vec<&Row> = if on.is_empty() {
        right.iter().collect()
    } else {
        Vec::new()
    };
    for l in left {
        let candidates: &[&Row] = if on.is_empty() {
            &all_right
        } else {
            let k = l.key(&lkeys);
            if k.0.iter().any(Value::is_null) {
                &[]
            } else {
                table.get(&k).map(|v| &v[..]).unwrap_or(&[])
            }
        };
        let mut matched = false;
        for r in candidates {
            let joined = l.concat(r);
            if opt_pred(residual, &joined)? {
                out.push(joined);
                matched = true;
            }
        }
        if !matched {
            out.push(l.concat(&pad));
        }
    }
    Ok(out)
}

/// Semi (`keep_matched = true`) or anti (`false`) join. Consumes the
/// left rows: the output is a subset of them, so surviving rows move
/// straight through instead of being re-materialized with per-row
/// clones.
///
/// # Errors
/// Residual-predicate evaluation failures.
pub fn semi_or_anti(
    left: Vec<Row>,
    right: &[Row],
    on: &[(usize, usize)],
    residual: Option<&Expr>,
    keep_matched: bool,
) -> Result<Vec<Row>> {
    let lkeys: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
    let rkeys: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
    let mut table: HashMap<Key, Vec<&Row>> = HashMap::new();
    for r in right {
        let k = r.key(&rkeys);
        if k.0.iter().any(Value::is_null) {
            continue;
        }
        table.entry(k).or_default().push(r);
    }
    let mut out = Vec::new();
    for l in left {
        let matched = if on.is_empty() {
            // θ-only (anti)semijoin: nested loop over right.
            let mut hit = false;
            for r in right {
                if opt_pred(residual, &l.concat(r))? {
                    hit = true;
                    break;
                }
            }
            hit
        } else {
            let k = l.key(&lkeys);
            if k.0.iter().any(Value::is_null) {
                false
            } else if let Some(ms) = table.get(&k) {
                let mut hit = false;
                for r in ms {
                    if opt_pred(residual, &l.concat(r))? {
                        hit = true;
                        break;
                    }
                }
                hit
            } else {
                false
            }
        };
        if matched == keep_matched {
            out.push(l);
        }
    }
    Ok(out)
}

/// Hash aggregation.
///
/// # Errors
/// Aggregate-argument evaluation failures.
pub fn hash_aggregate(
    rows: &[Row],
    keys: &[usize],
    aggs: &[idivm_algebra::AggSpec],
) -> Result<Vec<Row>> {
    let mut groups: HashMap<Key, Vec<Accumulator>> = HashMap::new();
    for r in rows {
        let k = r.key(keys);
        let accs = groups.entry(k).or_insert_with(|| {
            aggs.iter().map(|a| Accumulator::new(a.func)).collect()
        });
        for (acc, spec) in accs.iter_mut().zip(aggs) {
            acc.update(&spec.arg.eval(r)?);
        }
    }
    Ok(groups
        .into_iter()
        .map(|(k, accs)| {
            k.0.into_iter()
                .chain(accs.iter().map(Accumulator::finish))
                .collect()
        })
        .collect())
}

/// Sort rows for deterministic comparisons (tests, diffing).
pub fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use idivm_algebra::{AggFunc, PlanBuilder};
    use idivm_reldb::Database;
    use idivm_types::{row, ColumnType, Schema};

    fn setup() -> Database {
        let mut db = Database::new();
        db.set_logging(false);
        db.create_table(
            "parts",
            Schema::from_pairs(
                &[("pid", ColumnType::Str), ("price", ColumnType::Int)],
                &["pid"],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            "devices",
            Schema::from_pairs(
                &[("did", ColumnType::Str), ("category", ColumnType::Str)],
                &["did"],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            "devices_parts",
            Schema::from_pairs(
                &[("did", ColumnType::Str), ("pid", ColumnType::Str)],
                &["did", "pid"],
            )
            .unwrap(),
        )
        .unwrap();
        // Figure 2's initial instance.
        db.insert("parts", row!["P1", 10]).unwrap();
        db.insert("parts", row!["P2", 20]).unwrap();
        db.insert("devices", row!["D1", "phone"]).unwrap();
        db.insert("devices", row!["D2", "phone"]).unwrap();
        db.insert("devices", row!["D3", "tablet"]).unwrap();
        db.insert("devices_parts", row!["D1", "P1"]).unwrap();
        db.insert("devices_parts", row!["D2", "P1"]).unwrap();
        db.insert("devices_parts", row!["D1", "P2"]).unwrap();
        db
    }

    fn running_example_plan(db: &Database) -> idivm_algebra::Plan {
        let cat = crate::DbCatalog(db);
        PlanBuilder::scan(&cat, "parts")
            .unwrap()
            .join(
                PlanBuilder::scan(&cat, "devices_parts").unwrap(),
                &[("parts.pid", "devices_parts.pid")],
            )
            .unwrap()
            .join(
                PlanBuilder::scan(&cat, "devices").unwrap(),
                &[("devices_parts.did", "devices.did")],
            )
            .unwrap()
            .select_eq("devices.category", "phone")
            .unwrap()
            .project_names(&["devices_parts.did", "parts.pid", "parts.price"])
            .unwrap()
            .build()
            .unwrap()
    }

    /// Figure 2: the initial view instance V(DB).
    #[test]
    fn running_example_view_matches_paper() {
        let db = setup();
        let plan = running_example_plan(&db);
        let rows = sorted(execute(&db, &plan).unwrap());
        assert_eq!(
            rows,
            vec![
                row!["D1", "P1", 10],
                row!["D1", "P2", 20],
                row!["D2", "P1", 10],
            ]
        );
    }

    /// Figure 5: the aggregate view V′ (total part cost per device).
    #[test]
    fn aggregate_view_matches_paper() {
        let db = setup();
        let cat = crate::DbCatalog(&db);
        let plan = PlanBuilder::scan(&cat, "parts")
            .unwrap()
            .join(
                PlanBuilder::scan(&cat, "devices_parts").unwrap(),
                &[("parts.pid", "devices_parts.pid")],
            )
            .unwrap()
            .join(
                PlanBuilder::scan(&cat, "devices").unwrap(),
                &[("devices_parts.did", "devices.did")],
            )
            .unwrap()
            .select_eq("devices.category", "phone")
            .unwrap()
            .group_by(
                &["devices_parts.did"],
                &[(AggFunc::Sum, "parts.price", "cost")],
            )
            .unwrap()
            .build()
            .unwrap();
        let rows = sorted(execute(&db, &plan).unwrap());
        assert_eq!(rows, vec![row!["D1", 30], row!["D2", 10]]);
    }

    #[test]
    fn semijoin_and_antijoin() {
        let db = setup();
        let cat = crate::DbCatalog(&db);
        // Parts used in some device.
        let used = PlanBuilder::scan(&cat, "parts")
            .unwrap()
            .semi_join(
                PlanBuilder::scan(&cat, "devices_parts").unwrap(),
                &[("parts.pid", "devices_parts.pid")],
            )
            .unwrap()
            .build()
            .unwrap();
        let rows = sorted(execute(&db, &used).unwrap());
        assert_eq!(rows.len(), 2);

        // Parts used in no device: none in this instance.
        let unused = PlanBuilder::scan(&cat, "parts")
            .unwrap()
            .anti_join(
                PlanBuilder::scan(&cat, "devices_parts").unwrap(),
                &[("parts.pid", "devices_parts.pid")],
            )
            .unwrap()
            .build()
            .unwrap();
        assert!(execute(&db, &unused).unwrap().is_empty());
    }

    #[test]
    fn union_all_tags_branches() {
        let db = setup();
        let cat = crate::DbCatalog(&db);
        let u = PlanBuilder::scan(&cat, "parts")
            .unwrap()
            .union_all(PlanBuilder::scan(&cat, "parts").unwrap())
            .build()
            .unwrap();
        let rows = execute(&db, &u).unwrap();
        assert_eq!(rows.len(), 4);
        let left = rows.iter().filter(|r| r[2] == Value::Int(0)).count();
        assert_eq!(left, 2);
    }

    #[test]
    fn null_join_keys_never_match() {
        let mut db = Database::new();
        db.set_logging(false);
        db.create_table(
            "a",
            Schema::from_pairs(
                &[("id", ColumnType::Int), ("x", ColumnType::Int)],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            "b",
            Schema::from_pairs(
                &[("id", ColumnType::Int), ("x", ColumnType::Int)],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        db.insert("a", Row::new(vec![Value::Int(1), Value::Null])).unwrap();
        db.insert("b", Row::new(vec![Value::Int(2), Value::Null])).unwrap();
        let cat = crate::DbCatalog(&db);
        let j = PlanBuilder::scan(&cat, "a")
            .unwrap()
            .join(PlanBuilder::scan(&cat, "b").unwrap(), &[("a.x", "b.x")])
            .unwrap()
            .build()
            .unwrap();
        assert!(execute(&db, &j).unwrap().is_empty());
    }

    #[test]
    fn scan_cost_is_counted() {
        let db = setup();
        let plan = running_example_plan(&db);
        db.stats().reset();
        execute(&db, &plan).unwrap();
        let snap = db.stats().snapshot();
        // 2 parts + 3 devices + 3 device_parts = 8 tuple accesses.
        assert_eq!(snap.tuple_accesses, 8);
        assert_eq!(snap.index_lookups, 0);
    }

    #[test]
    fn theta_join_via_residual() {
        let db = setup();
        let cat = crate::DbCatalog(&db);
        let left = PlanBuilder::scan_as(&cat, "parts", "p1").unwrap();
        let right = PlanBuilder::scan_as(&cat, "parts", "p2").unwrap();
        // p1.price < p2.price (positions 1 and 3 after concat)
        let j = left
            .join_residual(right, &[], Expr::col(1).lt(Expr::col(3)))
            .unwrap()
            .build()
            .unwrap();
        let rows = execute(&db, &j).unwrap();
        assert_eq!(rows.len(), 1); // (P1,10,P2,20)
        assert_eq!(rows[0], row!["P1", 10, "P2", 20]);
    }
}
