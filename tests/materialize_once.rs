//! Registration materializes exactly what the executor computes.
//!
//! `IdIvm::setup` fills a view's table and every intermediate cache
//! (`#cache` inputs and `#out` outputs of its aggregates). This suite
//! registers every bundled workload view — fig12 j = 2…6 (j = 2 is the
//! running example), SPJ and aggregate; the five multi-view suite views;
//! the TPC-H extremes and left-outer-join views; BSMA's eight — and
//! holds each materialized table against `execute` of its (sub)plan:
//!
//! * in **slot order** wherever the subplan has no `GroupBy` — the
//!   table was filled row by row in the executor's output order, and a
//!   table's slot order is what a scan hands back;
//! * as a **multiset** (sorted) where it does, since the order groups
//!   come out in is the executor's business
//!   (`group_by_emits_groups_in_first_seen_order` pins that order).

use idivm_repro::algebra::Plan;
use idivm_repro::core::access::node_at;
use idivm_repro::core::{IdIvm, IvmOptions};
use idivm_repro::exec::{execute, executor::sorted};
use idivm_repro::reldb::Database;
use idivm_repro::types::Row;
use idivm_repro::workloads::bsma::{Bsma, BsmaQuery};
use idivm_repro::workloads::multiview::VIEW_NAMES;
use idivm_repro::workloads::{MultiView, RunningExample, Tpch};

fn has_group_by(plan: &Plan) -> bool {
    matches!(plan, Plan::GroupBy { .. }) || plan.children().into_iter().any(has_group_by)
}

/// Register `plan` as `name` and compare the view and each of its
/// caches with the executor; returns how many tables were compared.
fn check(db: &mut Database, name: &str, plan: Plan) -> usize {
    let ivm = IdIvm::setup(db, name, plan, IvmOptions::default()).unwrap();
    let mut tables: Vec<(String, Plan)> = vec![(name.to_string(), ivm.plan().clone())];
    for def in ivm.caches() {
        tables.push((def.name.clone(), node_at(ivm.plan(), &def.path).unwrap().clone()));
    }
    for (table, sub) in &tables {
        let stored: Vec<Row> = db.table(table).unwrap().rows_uncounted();
        let executed = execute(db, sub).unwrap();
        if has_group_by(sub) {
            assert_eq!(sorted(stored), sorted(executed), "`{table}` (sorted)");
        } else {
            assert_eq!(stored, executed, "`{table}` (slot order)");
        }
    }
    tables.len()
}

#[test]
fn setup_materializes_every_table_as_the_executor_computes_it() {
    let mut compared = 0;
    for joins in 2..=6 {
        let cfg = RunningExample {
            n_parts: 80,
            n_devices: 60,
            joins,
            seed: 11,
            ..RunningExample::default()
        };
        let mut db = cfg.build().unwrap();
        let spj = cfg.spj_plan(&db).unwrap();
        let agg = cfg.agg_plan(&db).unwrap();
        compared += check(&mut db, "spj", spj);
        compared += check(&mut db, "agg", agg);
    }

    let suite = MultiView {
        bsma: Bsma {
            scale: 0.02,
            seed: 424242,
        },
    };
    let mut db = suite.build().unwrap();
    for name in VIEW_NAMES {
        let plan = suite.plan(&db, name).unwrap();
        compared += check(&mut db, name, plan);
    }

    let tpch = Tpch {
        n_customers: 40,
        extremum_pct: 30,
        seed: 21,
        ..Tpch::default()
    };
    let mut db = tpch.build().unwrap();
    let extremes = tpch.extremes_plan(&db).unwrap();
    let loj = tpch.loj_plan(&db).unwrap();
    compared += check(&mut db, "extremes", extremes);
    compared += check(&mut db, "loj", loj);

    let bsma = suite.bsma;
    let mut db = bsma.build().unwrap();
    for q in BsmaQuery::ALL {
        let plan = bsma.plan(&db, q).unwrap();
        compared += check(&mut db, &format!("bsma_{}", q.label()), plan);
    }
    // 25 views, and their caches.
    assert!(compared > 25, "only {compared} tables compared");
}
