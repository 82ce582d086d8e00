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
//!
//! The SUM cells run on all three engines: SUM of a group whose
//! arguments are all NULL is NULL, not 0, whether the group's last
//! non-NULL argument went NULL or the group was created with only NULL
//! arguments, and a non-NULL argument arriving later replaces the NULL.

use idivm_repro::algebra::{AggFunc, Expr, Plan, PlanBuilder};
use idivm_repro::core::{Engine, EngineConfig, FaultPlan, FaultSite, IdIvm, IvmOptions};
use idivm_repro::exec::{executor::sorted, recompute_rows, DbCatalog, ParallelConfig};
use idivm_repro::reldb::{Database, StatsSnapshot};
use idivm_repro::sdbt::{Partial, Sdbt, SdbtVariant};
use idivm_repro::tuple::TupleIvm;
use idivm_repro::types::{row, ColumnType, Error, Key, Row, Schema, Value};

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

/// `links(lid, pid, qty)` with one link per group: P0 {2} and P1 {1}.
fn links_db() -> Database {
    let mut db = Database::new();
    db.set_logging(false);
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
    db.insert("links", row!["L0", "P0", 2]).unwrap();
    db.insert("links", row!["L1", "P1", 1]).unwrap();
    db.set_logging(true);
    db
}

/// `γ_{pid; SUM(qty), COUNT(*)}(links)`, with `MIN(qty)` appended when
/// `with_min` is set.
fn sum_plan(db: &Database, with_min: bool) -> Plan {
    let cat = DbCatalog(db);
    let mut aggs = vec![
        (AggFunc::Sum, "links.qty", "total"),
        (AggFunc::Count, "*", "n"),
    ];
    if with_min {
        aggs.push((AggFunc::Min, "links.qty", "least"));
    }
    PlanBuilder::scan(&cat, "links")
        .unwrap()
        .group_by(&["links.pid"], &aggs)
        .unwrap()
        .build()
        .unwrap()
}

/// The SUM views on each engine, each on its own database.
fn sum_engines(with_min: bool) -> Vec<(&'static str, Database, Box<dyn Engine>)> {
    let mut out: Vec<(&'static str, Database, Box<dyn Engine>)> = Vec::new();
    let mut db = links_db();
    let plan = sum_plan(&db, with_min);
    let ivm = IdIvm::setup(&mut db, "V", plan, IvmOptions::default()).unwrap();
    out.push(("id-ivm", db, Box::new(ivm)));
    let mut db = links_db();
    let plan = sum_plan(&db, with_min);
    let tivm = TupleIvm::setup(&mut db, "V", plan).unwrap();
    out.push(("tuple-ivm", db, Box::new(tivm)));
    let mut db = links_db();
    let plan = sum_plan(&db, with_min);
    let partial = Partial {
        table: "links".into(),
        steps: vec![],
        compose: vec![0, 1, 2],
        filter: None,
    };
    let variant = SdbtVariant::Fixed("links".into());
    let sdbt = Sdbt::setup(&mut db, "V", plan, vec![partial], variant).unwrap();
    out.push(("sdbt-fixed", db, Box::new(sdbt)));
    out
}

fn set_qty(db: &mut Database, lid: &str, qty: Value) {
    db.update_named("links", &Key(vec![Value::str(lid)]), &[("qty", qty)])
        .unwrap();
}

/// The three SUM rounds: P0's only qty goes NULL; a link with a NULL qty
/// creates group P9; P0's qty becomes 7.
fn sum_rounds(db: &mut Database, round: usize) {
    match round {
        0 => set_qty(db, "L0", Value::Null),
        1 => db
            .insert(
                "links",
                Row::new(vec![Value::str("L9"), Value::str("P9"), Value::Null]),
            )
            .unwrap(),
        _ => set_qty(db, "L0", Value::Int(7)),
    }
}

/// SUM over NULL arguments, on every engine, with and without a MIN
/// riding along: after each round the view equals the recompute oracle,
/// and the cells read the SQL value — NULL for a group whose arguments
/// are all NULL, the sum once a non-NULL argument arrives.
#[test]
fn sum_of_all_null_arguments_is_null_on_every_engine() {
    for with_min in [false, true] {
        let expected = |round: usize| -> Vec<(&str, Value, i64)> {
            match round {
                0 => vec![("P0", Value::Null, 1)],
                1 => vec![("P0", Value::Null, 1), ("P9", Value::Null, 1)],
                _ => vec![("P0", Value::Int(7), 1), ("P9", Value::Null, 1)],
            }
        };
        for (label, mut db, ivm) in sum_engines(with_min) {
            for round in 0..3 {
                sum_rounds(&mut db, round);
                ivm.maintain(&mut db).unwrap();
                let rows = ivm.visible_rows(&db).unwrap();
                assert_eq!(
                    sorted(rows.clone()),
                    sorted(recompute_rows(&db, ivm.plan()).unwrap()),
                    "{label} (min: {with_min}) round {round}: diverged from the oracle"
                );
                for (pid, sum, count) in expected(round) {
                    let r = rows
                        .iter()
                        .find(|r| r[0] == Value::str(pid))
                        .unwrap_or_else(|| panic!("{label} round {round}: no group {pid}"));
                    let at = format!("{label} (min: {with_min}) round {round} group {pid}");
                    assert_eq!(r[1], sum, "{at}: SUM");
                    assert_eq!(r[2], Value::Int(count), "{at}: COUNT(*)");
                    if with_min {
                        assert_eq!(r[3], sum, "{at}: MIN of a single qty is that qty");
                    }
                }
            }
        }
    }
}

/// The round where P0's only qty goes NULL leaves only the SUM slot
/// dirty. Sweeping operator faults through it must land on the `rescan`
/// failpoint, and every aborted attempt must roll the database back to
/// its pre-round signature with the log kept.
#[test]
fn sum_only_dirty_rescan_fault_rolls_back_to_pre_round_signature() {
    for (label, mut db, mut ivm) in sum_engines(false) {
        sum_rounds(&mut db, 0);
        let pre_sig = db.signature();
        let pre_net = db.fold_log();
        let mut hit_rescan = false;
        let mut k = 0u64;
        let clean = loop {
            ivm.set_faults(FaultPlan::at(FaultSite::Operator, k, 0x5eed_2015));
            match ivm.maintain(&mut db) {
                Err(e) => {
                    assert!(matches!(e, Error::Injected(_)), "{label} k={k}: {e}");
                    hit_rescan |= e.to_string().contains("rescan");
                    assert_eq!(db.signature(), pre_sig, "{label} k={k}: not rolled back");
                    assert_eq!(db.fold_log(), pre_net, "{label} k={k}: log not kept");
                }
                Ok(report) => break report,
            }
            k += 1;
            assert!(k < 1 << 10, "{label}: runaway sweep");
        };
        assert!(hit_rescan, "{label}: no fault landed on the SUM rescan");
        assert_eq!(clean.rescans, 1, "{label}: the dirty SUM is one rescan");
        assert_eq!(
            sorted(ivm.visible_rows(&db).unwrap()),
            sorted(recompute_rows(&db, ivm.plan()).unwrap()),
            "{label}: clean run diverged from the oracle"
        );
    }
}
