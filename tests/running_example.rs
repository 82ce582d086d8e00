//! Workspace-level integration test: the paper's running example,
//! Figure by Figure, across the whole stack.

use idivm_repro::algebra::{AggFunc, PlanBuilder};
use idivm_repro::core::{IdIvm, IvmOptions};
use idivm_repro::exec::{executor::sorted, recompute_rows, DbCatalog};
use idivm_repro::reldb::Database;
use idivm_repro::types::{row, ColumnType, Key, Schema, Value};

fn figure1_database() -> Database {
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
    db.insert("parts", row!["P1", 10]).unwrap();
    db.insert("parts", row!["P2", 20]).unwrap();
    db.insert("devices", row!["D1", "phone"]).unwrap();
    db.insert("devices", row!["D2", "phone"]).unwrap();
    db.insert("devices", row!["D3", "tablet"]).unwrap();
    db.insert("devices_parts", row!["D1", "P1"]).unwrap();
    db.insert("devices_parts", row!["D2", "P1"]).unwrap();
    db.insert("devices_parts", row!["D1", "P2"]).unwrap();
    db.set_logging(true);
    db
}

/// Figure 2, full circle: initial V(DB), the price update, and the
/// maintained instance — with the diff statistics the figure narrates.
#[test]
fn figure2_tuple_vs_id_diffs() {
    let mut db = figure1_database();
    let cat = DbCatalog(&db);
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
        .project_names(&["devices_parts.did", "parts.pid", "parts.price"])
        .unwrap()
        .build()
        .unwrap();
    let ivm = IdIvm::setup(&mut db, "V", plan, IvmOptions::default()).unwrap();

    // Initial instance (Figure 2, left).
    let visible = |db: &Database| -> Vec<idivm_repro::types::Row> {
        sorted(
            db.table("V")
                .unwrap()
                .rows_uncounted()
                .into_iter()
                .map(|r| r.project(&[0, 1, 2]))
                .collect(),
        )
    };
    assert_eq!(
        visible(&db),
        vec![
            row!["D1", "P1", 10],
            row!["D1", "P2", 20],
            row!["D2", "P1", 10],
        ]
    );

    // The update: P1's price 10 → 11.
    db.update_named(
        "parts",
        &Key(vec![Value::str("P1")]),
        &[("price", Value::Int(11))],
    )
    .unwrap();
    let report = ivm.maintain(&mut db).unwrap();

    // Figure 2's point: one i-diff tuple (∆u_V), two view tuples (Du_V).
    assert_eq!(report.base_diff_tuples, 1);
    assert_eq!(report.view_diff_tuples, 1);
    assert_eq!(report.view_outcome.updated, 2);
    assert_eq!(report.compression_factor(), Some(2.0));
    // And Example 1.2's Q∆: no base-table access to compute it.
    assert_eq!(report.diff_compute.total(), 0);

    assert_eq!(
        visible(&db),
        vec![
            row!["D1", "P1", 11],
            row!["D1", "P2", 20],
            row!["D2", "P1", 11],
        ]
    );
}

/// Figure 5 / Example 4.7: the aggregate view with its intermediate
/// cache, maintained through the generated ∆-script.
#[test]
fn figure5_aggregate_with_cache() {
    let mut db = figure1_database();
    let cat = DbCatalog(&db);
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
    let ivm = IdIvm::setup(&mut db, "Vagg", plan, IvmOptions::default()).unwrap();
    // One intermediate cache below the aggregate; the view itself is
    // the output materialization (Example 4.6).
    assert_eq!(ivm.caches().len(), 1);

    db.update_named(
        "parts",
        &Key(vec![Value::str("P1")]),
        &[("price", Value::Int(11))],
    )
    .unwrap();
    let report = ivm.maintain(&mut db).unwrap();
    assert!(report.cache_update.total() > 0, "cache must be maintained");
    let rows = sorted(db.table("Vagg").unwrap().rows_uncounted());
    assert_eq!(rows, vec![row!["D1", 31], row!["D2", 11]]);

    // The oracle agrees.
    assert_eq!(rows, sorted(recompute_rows(&db, ivm.plan()).unwrap()));
}

/// A self-join scans `parts` twice, so both `Scan` leaves must see the
/// table's base i-diffs: the first takes a copy, the last takes them
/// over. Same-price pairs, maintained through updates, an insert and a
/// delete, against the recompute oracle.
#[test]
fn self_join_feeds_both_scans_of_one_table() {
    let mut db = figure1_database();
    db.insert("parts", row!["P3", 10]).unwrap();
    db.clear_log();
    let cat = DbCatalog(&db);
    let plan = PlanBuilder::scan_as(&cat, "parts", "p1")
        .unwrap()
        .join(
            PlanBuilder::scan_as(&cat, "parts", "p2").unwrap(),
            &[("p1.price", "p2.price")],
        )
        .unwrap()
        .build()
        .unwrap();
    let ivm = IdIvm::setup(&mut db, "Vpairs", plan, IvmOptions::default()).unwrap();
    let pairs = |db: &Database| -> Vec<(String, String)> {
        sorted(db.table("Vpairs").unwrap().rows_uncounted())
            .into_iter()
            .map(|r| (r[0].to_string(), r[2].to_string()))
            .collect()
    };
    assert_eq!(pairs(&db).len(), 5, "P1/P3 share a price: 2x2 pairs + P2");

    // P2 joins the price-10 group, P3 leaves it; P4 arrives, P1 goes.
    let price = |v: i64| [("price", Value::Int(v))];
    db.update_named("parts", &Key(vec![Value::str("P2")]), &price(10))
        .unwrap();
    db.update_named("parts", &Key(vec![Value::str("P3")]), &price(30))
        .unwrap();
    db.insert("parts", row!["P4", 30]).unwrap();
    db.delete("parts", &Key(vec![Value::str("P1")])).unwrap();
    let report = ivm.maintain(&mut db).unwrap();
    assert_eq!(report.base_diff_tuples, 4);

    let rows = sorted(db.table("Vpairs").unwrap().rows_uncounted());
    assert_eq!(rows, sorted(recompute_rows(&db, ivm.plan()).unwrap()));
    assert_eq!(
        pairs(&db),
        vec![
            ("'P2'".to_string(), "'P2'".to_string()),
            ("'P3'".to_string(), "'P3'".to_string()),
            ("'P3'".to_string(), "'P4'".to_string()),
            ("'P4'".to_string(), "'P3'".to_string()),
            ("'P4'".to_string(), "'P4'".to_string()),
        ]
    );
}

/// The umbrella crate re-exports the whole stack.
#[test]
fn umbrella_reexports_work() {
    let stats = idivm_repro::reldb::AccessStats::new();
    stats.tuples(3);
    assert_eq!(stats.snapshot().tuple_accesses, 3);
    let model = idivm_repro::cost::SpjModel { a: 4.0, p: 2.0 };
    assert!(model.speedup_nonconditional_update() > 1.0);
}
