//! Differential tests: the tuple-based baseline must maintain views
//! exactly like recomputation, and both engines must agree with each
//! other — while the ID-based engine wins on access counts for the
//! paper's headline workload (update diffs on non-conditional
//! attributes).

use idivm_algebra::{AggFunc, JoinKind, PlanBuilder};
use idivm_core::{IdIvm, IvmOptions};
use idivm_exec::{executor::sorted, recompute_rows, DbCatalog};
use idivm_reldb::Database;
use idivm_tuple::TupleIvm;
use idivm_types::{row, ColumnType, Key, Schema, Value};
use proptest::prelude::*;

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
    for p in 0..8u8 {
        db.insert("parts", row![format!("P{p}").as_str(), (p as i64 + 1) * 10])
            .unwrap();
    }
    for d in 0..6u8 {
        let cat = if d % 2 == 0 { "phone" } else { "tablet" };
        db.insert("devices", row![format!("D{d}").as_str(), cat])
            .unwrap();
    }
    for d in 0..6u8 {
        for p in 0..4u8 {
            db.insert(
                "devices_parts",
                row![format!("D{d}").as_str(), format!("P{}", (d + p) % 8).as_str()],
            )
            .unwrap();
        }
    }
    db.set_logging(true);
    db
}

fn spj_plan(db: &Database) -> idivm_algebra::Plan {
    let cat = DbCatalog(db);
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
        .build()
        .unwrap()
}

/// The parts used by a phone, as a builder: `devices_parts ⋈ devices`
/// restricted to phones.
fn phone_links(cat: &DbCatalog<'_>) -> PlanBuilder {
    PlanBuilder::scan(cat, "devices_parts")
        .unwrap()
        .join(
            PlanBuilder::scan(cat, "devices").unwrap(),
            &[("devices_parts.did", "devices.did")],
        )
        .unwrap()
        .select_eq("devices.category", "phone")
        .unwrap()
}

/// Every part with its phone links, or NULL-padded when it has none.
fn outer_plan(db: &Database) -> idivm_algebra::Plan {
    let cat = DbCatalog(db);
    PlanBuilder::scan(&cat, "parts")
        .unwrap()
        .join_kind(
            JoinKind::LeftOuter,
            phone_links(&cat),
            &[("parts.pid", "devices_parts.pid")],
            None,
        )
        .unwrap()
        .build()
        .unwrap()
}

/// The parts no phone uses.
fn anti_plan(db: &Database) -> idivm_algebra::Plan {
    let cat = DbCatalog(db);
    PlanBuilder::scan(&cat, "parts")
        .unwrap()
        .join_kind(
            JoinKind::Anti,
            phone_links(&cat),
            &[("parts.pid", "devices_parts.pid")],
            None,
        )
        .unwrap()
        .build()
        .unwrap()
}

/// The select-project-join plans the oracle property maintains.
const SPJ_PLANS: [fn(&Database) -> idivm_algebra::Plan; 3] = [spj_plan, outer_plan, anti_plan];

fn agg_plan(db: &Database) -> idivm_algebra::Plan {
    let cat = DbCatalog(db);
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
        .group_by(
            &["devices_parts.did"],
            &[(AggFunc::Sum, "parts.price", "cost")],
        )
        .unwrap()
        .build()
        .unwrap()
}

fn check(db: &Database, view: &str, plan: &idivm_algebra::Plan) {
    let expected = sorted(recompute_rows(db, plan).unwrap());
    let actual = sorted(db.table(view).unwrap().rows_uncounted());
    assert_eq!(actual, expected, "view `{view}` diverged from recomputation");
}

#[test]
fn tuple_engine_matches_oracle_on_updates() {
    let mut db = setup_db();
    let plan = spj_plan(&db);
    let tivm = TupleIvm::setup(&mut db, "Vt", plan).unwrap();
    db.update_named(
        "parts",
        &Key(vec![Value::str("P0")]),
        &[("price", Value::Int(99))],
    )
    .unwrap();
    let report = tivm.maintain(&mut db).unwrap();
    check(&db, "Vt", tivm.plan());
    // Tuple-based must pay base-table accesses to rebuild view tuples.
    assert!(report.diff_compute.total() > 0);
}

#[test]
fn both_engines_agree_and_id_based_is_cheaper_on_updates() {
    // Two identical databases, one engine each.
    let mut db_i = setup_db();
    let mut db_t = setup_db();
    let plan_i = spj_plan(&db_i);
    let plan_t = spj_plan(&db_t);
    let ivm = IdIvm::setup(&mut db_i, "V", plan_i, IvmOptions::default()).unwrap();
    let tivm = TupleIvm::setup(&mut db_t, "V", plan_t).unwrap();
    for round in 0..3 {
        for p in 0..4u8 {
            let key = Key(vec![Value::str(format!("P{p}"))]);
            let price = Value::Int(100 + round * 10 + p as i64);
            db_i.update_named("parts", &key, &[("price", price.clone())])
                .unwrap();
            db_t.update_named("parts", &key, &[("price", price)]).unwrap();
        }
        let ri = ivm.maintain(&mut db_i).unwrap();
        let rt = tivm.maintain(&mut db_t).unwrap();
        check(&db_i, "V", ivm.plan());
        check(&db_t, "V", tivm.plan());
        assert_eq!(
            sorted(db_i.table("V").unwrap().rows_uncounted()),
            sorted(db_t.table("V").unwrap().rows_uncounted()),
        );
        // The paper's headline claim: ID-based IVM needs fewer accesses
        // for non-conditional updates (it skips the joins entirely).
        assert!(
            ri.total_accesses() < rt.total_accesses(),
            "round {round}: ID {} vs tuple {}",
            ri.total_accesses(),
            rt.total_accesses()
        );
        assert_eq!(ri.diff_compute.total(), 0, "Q∆ needs no base access");
    }
}

#[test]
fn aggregate_views_agree_between_engines() {
    let mut db_i = setup_db();
    let mut db_t = setup_db();
    let plan_i = agg_plan(&db_i);
    let plan_t = agg_plan(&db_t);
    let ivm = IdIvm::setup(&mut db_i, "V", plan_i, IvmOptions::default()).unwrap();
    let tivm = TupleIvm::setup(&mut db_t, "V", plan_t).unwrap();
    let muts: Vec<(&str, Key, i64)> = vec![
        ("parts", Key(vec![Value::str("P1")]), 41),
        ("parts", Key(vec![Value::str("P2")]), 7),
    ];
    for (t, k, v) in muts {
        db_i.update_named(t, &k, &[("price", Value::Int(v))]).unwrap();
        db_t.update_named(t, &k, &[("price", Value::Int(v))]).unwrap();
    }
    db_i.insert("devices_parts", row!["D0", "P7"]).unwrap();
    db_t.insert("devices_parts", row!["D0", "P7"]).unwrap();
    db_i.delete("devices_parts", &Key(vec![Value::str("D2"), Value::str("P2")]))
        .unwrap();
    db_t.delete("devices_parts", &Key(vec![Value::str("D2"), Value::str("P2")]))
        .unwrap();
    ivm.maintain(&mut db_i).unwrap();
    tivm.maintain(&mut db_t).unwrap();
    check(&db_i, "V", ivm.plan());
    check(&db_t, "V", tivm.plan());
}

/// Randomized agreement between tuple-based maintenance and the oracle.
#[derive(Debug, Clone)]
enum Mutation {
    Price(u8, i64),
    Flip(u8),
    AddLink(u8, u8),
    DropLink(u8, u8),
    AddPart(u8, i64),
    DropPart(u8),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0u8..8, 1i64..99).prop_map(|(p, v)| Mutation::Price(p, v)),
        (0u8..6).prop_map(Mutation::Flip),
        (0u8..6, 0u8..10).prop_map(|(d, p)| Mutation::AddLink(d, p)),
        (0u8..6, 0u8..10).prop_map(|(d, p)| Mutation::DropLink(d, p)),
        (0u8..10, 1i64..99).prop_map(|(p, v)| Mutation::AddPart(p, v)),
        (0u8..10).prop_map(Mutation::DropPart),
    ]
}

fn apply_mut(db: &mut Database, m: &Mutation) {
    match m {
        Mutation::Price(p, v) => {
            let _ = db.update_named(
                "parts",
                &Key(vec![Value::str(format!("P{p}"))]),
                &[("price", Value::Int(*v))],
            );
        }
        Mutation::Flip(d) => {
            let key = Key(vec![Value::str(format!("D{d}"))]);
            let cur = db
                .table("devices")
                .unwrap()
                .get_uncounted(&key)
                .map(|r| r[1].clone());
            if let Some(Value::Str(s)) = cur {
                let new = if &*s == "phone" { "tablet" } else { "phone" };
                let _ = db.update_named("devices", &key, &[("category", Value::str(new))]);
            }
        }
        Mutation::AddLink(d, p) => {
            let _ = db.insert(
                "devices_parts",
                row![format!("D{d}").as_str(), format!("P{p}").as_str()],
            );
        }
        Mutation::DropLink(d, p) => {
            let _ = db.delete(
                "devices_parts",
                &Key(vec![
                    Value::str(format!("D{d}")),
                    Value::str(format!("P{p}")),
                ]),
            );
        }
        Mutation::AddPart(p, v) => {
            let _ = db.insert("parts", row![format!("P{p}").as_str(), *v]);
        }
        Mutation::DropPart(p) => {
            let _ = db.delete("parts", &Key(vec![Value::str(format!("P{p}"))]));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn tuple_spj_matches_oracle(
        batches in proptest::collection::vec(
            proptest::collection::vec(mutation(), 1..8), 1..4),
    ) {
        for plan in SPJ_PLANS {
            let mut db = setup_db();
            let plan = plan(&db);
            let tivm = TupleIvm::setup(&mut db, "V", plan).unwrap();
            for batch in &batches {
                for m in batch {
                    apply_mut(&mut db, m);
                }
                tivm.maintain(&mut db).unwrap();
                check(&db, "V", tivm.plan());
            }
        }
    }

    #[test]
    fn tuple_aggregate_matches_oracle(
        batches in proptest::collection::vec(
            proptest::collection::vec(mutation(), 1..8), 1..4),
    ) {
        let mut db = setup_db();
        let plan = agg_plan(&db);
        let tivm = TupleIvm::setup(&mut db, "V", plan).unwrap();
        for batch in &batches {
            for m in batch {
                apply_mut(&mut db, m);
            }
            tivm.maintain(&mut db).unwrap();
            check(&db, "V", tivm.plan());
        }
    }

    #[test]
    fn engines_agree_on_random_batches(
        batches in proptest::collection::vec(
            proptest::collection::vec(mutation(), 1..6), 1..3),
    ) {
        let mut db_i = setup_db();
        let mut db_t = setup_db();
        let plan_i = agg_plan(&db_i);
        let plan_t = agg_plan(&db_t);
        let ivm = IdIvm::setup(&mut db_i, "V", plan_i, IvmOptions::default()).unwrap();
        let tivm = TupleIvm::setup(&mut db_t, "V", plan_t).unwrap();
        for batch in &batches {
            for m in batch {
                apply_mut(&mut db_i, m);
                apply_mut(&mut db_t, m);
            }
            ivm.maintain(&mut db_i).unwrap();
            tivm.maintain(&mut db_t).unwrap();
            prop_assert_eq!(
                sorted(db_i.table("V").unwrap().rows_uncounted()),
                sorted(db_t.table("V").unwrap().rows_uncounted())
            );
        }
    }
}
