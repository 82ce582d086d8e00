//! Three-valued NULL semantics through maintenance — differential
//! against the full-recomputation oracle.
//!
//! NULLs are fed through the two places they bend operator behavior:
//!
//! * **filter columns** — `σ(price < 50)` over rows whose `price` is
//!   NULL: the comparison is UNKNOWN and the row is filtered out
//!   (SQL WHERE semantics, `Expr::eval_pred`);
//! * **join columns** — links whose `pid` is NULL, flowing through an
//!   equi-join and a semijoin.
//!
//! Every scripted round mutates the base tables (introducing, updating
//! away, and deleting NULLs), runs one idIVM maintenance round, and
//! compares the maintained view to [`recompute_rows`] — under the
//! serial executor and under P=4, whose access snapshots must also be
//! bit-identical to serial.

use idivm_repro::algebra::{AggFunc, Expr, Plan, PlanBuilder};
use idivm_repro::core::{IdIvm, IvmOptions};
use idivm_repro::exec::{executor::sorted, recompute_rows, DbCatalog, ParallelConfig};
use idivm_repro::reldb::{Database, StatsSnapshot};
use idivm_repro::types::{row, ColumnType, Key, Row, Schema, Value};

fn four_threads() -> ParallelConfig {
    ParallelConfig {
        threads: 4,
        min_shard_rows: 2,
    }
}

fn setup_db() -> Database {
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
        "links",
        Schema::from_pairs(
            &[
                ("lid", ColumnType::Str),
                ("pid", ColumnType::Str),
                ("qty", ColumnType::Int),
            ],
            &["lid"],
        )
        .unwrap(),
    )
    .unwrap();
    // A NULL price and a NULL join column exist from the start.
    db.insert("parts", row!["P0", 5]).unwrap();
    db.insert("parts", row!["P1", 40]).unwrap();
    db.insert("parts", Row::new(vec![Value::str("P2"), Value::Null]))
        .unwrap();
    db.insert("parts", row!["P3", 90]).unwrap();
    db.insert("links", row!["L0", "P0", 2]).unwrap();
    db.insert("links", row!["L1", "P1", 1]).unwrap();
    db.insert(
        "links",
        Row::new(vec![Value::str("L2"), Value::Null, Value::Int(3)]),
    )
    .unwrap();
    db.set_logging(true);
    db
}

fn select_plan(db: &Database) -> Plan {
    let cat = DbCatalog(db);
    PlanBuilder::scan(&cat, "parts")
        .unwrap()
        .select(Expr::col(1).lt(Expr::Lit(Value::Int(50))))
        .build()
        .unwrap()
}

fn join_plan(db: &Database) -> Plan {
    let cat = DbCatalog(db);
    PlanBuilder::scan(&cat, "parts")
        .unwrap()
        .select(Expr::col(1).lt(Expr::Lit(Value::Int(50))))
        .join(
            PlanBuilder::scan(&cat, "links").unwrap(),
            &[("parts.pid", "links.pid")],
        )
        .unwrap()
        .build()
        .unwrap()
}

fn semi_plan(db: &Database) -> Plan {
    let cat = DbCatalog(db);
    PlanBuilder::scan(&cat, "parts")
        .unwrap()
        .semi_join(
            PlanBuilder::scan(&cat, "links").unwrap(),
            &[("parts.pid", "links.pid")],
        )
        .unwrap()
        .select(Expr::col(1).lt(Expr::Lit(Value::Int(50))))
        .build()
        .unwrap()
}

type Mutation = Box<dyn Fn(&mut Database)>;

/// Scripted mutation rounds: each round pushes NULLs into (or out of)
/// the filter column and the join column.
fn rounds() -> Vec<Vec<Mutation>> {
    fn upd(table: &'static str, key: &'static str, col: &'static str, v: Value) -> Mutation {
        Box::new(move |db| {
            db.update_named(table, &Key(vec![Value::str(key)]), &[(col, v.clone())])
                .unwrap();
        })
    }
    vec![
        // NULL the filter column of an in-view part; give the NULL-pid
        // link a real target.
        vec![
            upd("parts", "P1", "price", Value::Null),
            upd("links", "L2", "pid", Value::str("P3")),
        ],
        // Insert a fresh NULL-price part and a fresh NULL-pid link;
        // un-NULL P1.
        vec![
            Box::new(|db| {
                db.insert("parts", Row::new(vec![Value::str("P4"), Value::Null]))
                    .unwrap();
                db.insert(
                    "links",
                    Row::new(vec![Value::str("L3"), Value::Null, Value::Int(7)]),
                )
                .unwrap();
            }),
            upd("parts", "P1", "price", Value::Int(30)),
        ],
        // Resolve a NULL price into view range; NULL a previously
        // real join column; delete the original NULL-price part.
        vec![
            upd("parts", "P4", "price", Value::Int(10)),
            upd("links", "L0", "pid", Value::Null),
            Box::new(|db| {
                db.delete("parts", &Key(vec![Value::str("P2")])).unwrap();
            }),
        ],
    ]
}

/// Run the scripted rounds on `plan` under `parallel`; return the
/// per-round phase snapshots and the final sorted view.
fn run(
    plan_of: fn(&Database) -> Plan,
    script: fn() -> Vec<Vec<Mutation>>,
    parallel: ParallelConfig,
) -> (Vec<StatsSnapshot>, Vec<Row>) {
    let mut db = setup_db();
    let plan = plan_of(&db);
    let opts = IvmOptions {
        parallel,
        ..IvmOptions::default()
    };
    let ivm = IdIvm::setup(&mut db, "V", plan, opts).unwrap();
    let mut snaps = Vec::new();
    for round in script() {
        for m in &round {
            m(&mut db);
        }
        let report = ivm.maintain(&mut db).unwrap();
        snaps.push(report.diff_compute);
        snaps.push(report.cache_update);
        snaps.push(report.view_update);
        // Differential check after every round, not only at the end.
        let expected = sorted(recompute_rows(&db, ivm.plan()).unwrap());
        let actual = sorted(db.table("V").unwrap().rows_uncounted());
        assert_eq!(actual, expected, "maintained view diverged from oracle");
    }
    (snaps, sorted(db.table("V").unwrap().rows_uncounted()))
}

fn check(plan_of: fn(&Database) -> Plan) {
    check_script(plan_of, rounds);
}

fn check_script(plan_of: fn(&Database) -> Plan, script: fn() -> Vec<Vec<Mutation>>) {
    let (serial_snaps, serial_view) = run(plan_of, script, ParallelConfig::serial());
    let (sharded_snaps, sharded_view) = run(plan_of, script, four_threads());
    assert_eq!(
        serial_snaps, sharded_snaps,
        "access snapshots diverged between P=1 and P=4"
    );
    assert_eq!(serial_view, sharded_view);
}

/// `γ_{parts.pid; MIN(price), MAX(price), AVG(qty), COUNT(*)}
/// (parts ⋈ links)` — the aggregate cells: MIN/MAX over an all-NULL
/// group stay NULL (not 0), AVG ignores NULL inputs and truncates on
/// integer division, and empty groups vanish.
fn agg_plan(db: &Database) -> Plan {
    let cat = DbCatalog(db);
    PlanBuilder::scan(&cat, "parts")
        .unwrap()
        .join(
            PlanBuilder::scan(&cat, "links").unwrap(),
            &[("parts.pid", "links.pid")],
        )
        .unwrap()
        .group_by(
            &["parts.pid"],
            &[
                (AggFunc::Min, "parts.price", "min_price"),
                (AggFunc::Max, "parts.price", "max_price"),
                (AggFunc::Avg, "links.qty", "avg_qty"),
                (AggFunc::Count, "*", "n"),
            ],
        )
        .unwrap()
        .build()
        .unwrap()
}

/// Scripted aggregate rounds driving NULLs and group lifecycle through
/// MIN/MAX/AVG: all-NULL groups, NULL agg inputs, truncating division,
/// and groups emptying out.
fn agg_rounds() -> Vec<Vec<Mutation>> {
    fn upd(table: &'static str, key: &'static str, col: &'static str, v: Value) -> Mutation {
        Box::new(move |db| {
            db.update_named(table, &Key(vec![Value::str(key)]), &[(col, v.clone())])
                .unwrap();
        })
    }
    vec![
        // P1's only member price goes NULL: MIN/MAX(P1) must become
        // NULL while COUNT keeps the group alive.
        vec![
            upd("parts", "P1", "price", Value::Null),
            upd("links", "L1", "qty", Value::Int(5)),
        ],
        // A NULL-qty link joins P0 (AVG must ignore it) and a fresh
        // group P3 appears with an odd divisor pending.
        vec![
            Box::new(|db| {
                db.insert(
                    "links",
                    Row::new(vec![Value::str("L4"), Value::str("P0"), Value::Null]),
                )
                .unwrap();
                db.insert("links", row!["L5", "P3", 4]).unwrap();
            }),
            upd("parts", "P1", "price", Value::Int(40)),
        ],
        // Truncating integer division: P0's qtys become {2, 3} → AVG 2.
        vec![upd("links", "L4", "qty", Value::Int(3))],
        // Groups empty out: deleting L1 must delete P1's row outright;
        // NULLing L0's qty leaves P0 averaging only {3}.
        vec![
            Box::new(|db| {
                db.delete("links", &Key(vec![Value::str("L1")])).unwrap();
            }),
            upd("links", "L0", "qty", Value::Null),
        ],
    ]
}

#[test]
fn nulls_in_filter_column_select() {
    check(select_plan);
}

#[test]
fn nulls_in_filter_and_join_columns_join() {
    check(join_plan);
}

#[test]
fn nulls_in_filter_and_join_columns_semijoin() {
    check(semi_plan);
}

#[test]
fn nulls_in_aggregates_min_max_avg() {
    check_script(agg_plan, agg_rounds);
}

/// Pin the exact finishing semantics, not just engine-vs-oracle
/// agreement: MIN/MAX of an all-NULL group is NULL (the naive
/// delta-fold would coerce it to 0), AVG ignores NULL inputs, integer
/// division truncates, and an emptied group's row is deleted.
#[test]
fn avg_and_extrema_finishing_cells() {
    let mut db = setup_db();
    let plan = agg_plan(&db);
    let ivm = IdIvm::setup(&mut db, "V", plan, IvmOptions::default()).unwrap();
    let row_for = |db: &Database, pid: &str| -> Option<Row> {
        db.table("V")
            .unwrap()
            .rows_uncounted()
            .into_iter()
            .find(|r| r[0] == Value::str(pid))
    };
    let script = agg_rounds();

    for m in &script[0] {
        m(&mut db);
    }
    ivm.maintain(&mut db).unwrap();
    let p1 = row_for(&db, "P1").expect("P1 group must survive its NULL price");
    assert_eq!(p1[1], Value::Null, "MIN of an all-NULL group must be NULL");
    assert_eq!(p1[2], Value::Null, "MAX of an all-NULL group must be NULL");
    assert_eq!(p1[3], Value::Int(5), "AVG over {{5}}");
    assert_eq!(p1[4], Value::Int(1), "COUNT(*) still sees the row");

    for round in &script[1..3] {
        for m in round {
            m(&mut db);
        }
        ivm.maintain(&mut db).unwrap();
    }
    let p0 = row_for(&db, "P0").unwrap();
    assert_eq!(
        p0[3],
        Value::Int(2),
        "AVG of {{2, 3}} must truncate to 2 (integer division)"
    );
    assert_eq!(p0[4], Value::Int(2), "COUNT counts the NULL-turned row");

    for m in &script[3] {
        m(&mut db);
    }
    ivm.maintain(&mut db).unwrap();
    assert!(
        row_for(&db, "P1").is_none(),
        "an emptied group's view row must be deleted"
    );
    let p0 = row_for(&db, "P0").unwrap();
    assert_eq!(p0[3], Value::Int(3), "AVG must ignore the NULL qty");
    assert_eq!(
        sorted(db.table("V").unwrap().rows_uncounted()),
        sorted(recompute_rows(&db, ivm.plan()).unwrap())
    );
}
