//! TPC-H-flavored differential suite: MIN/MAX under extremum deletion
//! and LEFT OUTER JOIN padding churn, on all engines, against the
//! recompute oracle, serial and at P = 4, with the mid-rescan fault
//! matrix and the supervisor riding the same rounds.
//!
//! The bug class under test: a naive delta fold treats MIN/MAX like
//! SUM — fold the incoming delta into the stored value, coercing the
//! non-numeric cases to `Int(0)`. Deleting (or updating away) the row
//! that *holds* the group extremum then leaves a stale or zeroed
//! extremum in the view. The fix routes exactly those groups through a
//! counted per-group rescan ([`GroupDelta::resolve`]); these tests
//! pin both the correct answers and the accounting around the rescan
//! (fault injection, atomic rollback, supervisor healing).

use idivm_repro::algebra::AggFunc;
use idivm_repro::core::{
    Engine, EngineConfig, FaultPlan, FaultSite, IdIvm, IvmOptions, MaintenanceSupervisor,
    SupervisorConfig, SupervisorVerdict,
};
use idivm_repro::exec::{executor::sorted, recompute_rows, DbCatalog, ParallelConfig};
use idivm_repro::reldb::Database;
use idivm_repro::sdbt::{Partial, Sdbt, SdbtVariant};
use idivm_repro::tuple::TupleIvm;
use idivm_repro::types::{row, ColumnType, Error, Key, Schema, Value};
use idivm_repro::workloads::Tpch;

/// Fault seed, overridable via `IDIVM_FAULT_SEED` (shared with the
/// fault-sweep suite and the CI chaos matrix).
fn fault_seed() -> u64 {
    std::env::var("IDIVM_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5eed_2015)
}

fn four_threads() -> ParallelConfig {
    ParallelConfig {
        threads: 4,
        min_shard_rows: 2,
    }
}

fn tiny(extremum_pct: u32) -> Tpch {
    Tpch {
        n_customers: 50,
        orders_per_customer: 2,
        lineitems_per_order: 3,
        extremum_pct,
        seed: 21,
    }
}

/// All three engines on the extremes view, each on its own database.
fn extremes_trio(
    cfg: &Tpch,
) -> Vec<(&'static str, Database, Box<dyn Engine>)> {
    let mut out: Vec<(&'static str, Database, Box<dyn Engine>)> = Vec::new();
    let mut db = cfg.build().unwrap();
    let plan = cfg.extremes_plan(&db).unwrap();
    let ivm = IdIvm::setup(&mut db, "V", plan, IvmOptions::default()).unwrap();
    out.push(("id-ivm", db, Box::new(ivm)));
    let mut db = cfg.build().unwrap();
    let plan = cfg.extremes_plan(&db).unwrap();
    let tivm = TupleIvm::setup(&mut db, "V", plan).unwrap();
    out.push(("tuple-ivm", db, Box::new(tivm)));
    let mut db = cfg.build().unwrap();
    let plan = cfg.extremes_plan(&db).unwrap();
    let partial = cfg.sdbt_lineitem_partial(&db).unwrap();
    let sdbt = Sdbt::setup(
        &mut db,
        "V",
        plan,
        vec![partial],
        SdbtVariant::Fixed("lineitem".into()),
    )
    .unwrap();
    out.push(("sdbt-fixed", db, Box::new(sdbt)));
    out
}

/// Tentpole: every engine tracks the recompute oracle bit-identically
/// through skewed extremum-deleting churn, and every engine actually
/// pays rescans for it (the skew is not a no-op).
#[test]
fn extremes_engines_agree_under_skewed_churn() {
    let cfg = tiny(60);
    let mut engines = extremes_trio(&cfg);
    let mut rescans = vec![0u64; engines.len()];
    for round in 0..5u64 {
        for (i, (label, db, ivm)) in engines.iter_mut().enumerate() {
            cfg.lineitem_churn_batch(db, 8, round).unwrap();
            let report = ivm.maintain(db).unwrap();
            rescans[i] += report.rescans;
            assert_eq!(
                sorted(ivm.visible_rows(db).unwrap()),
                sorted(recompute_rows(db, ivm.plan()).unwrap()),
                "{label}: diverged from the recompute oracle in round {round}"
            );
        }
    }
    for ((label, _, _), n) in engines.iter().zip(&rescans) {
        assert!(
            *n > 0,
            "{label}: skewed churn fired no rescans — the extremum path is \
             not being exercised"
        );
    }
}

/// P = 4 runs are byte-identical to serial: same view rows, same
/// rescan counts (extremum emission is deliberately deterministic and
/// serial, so parallel propagation must not perturb it).
#[test]
fn extremes_parallel_p4_bit_identical_to_serial() {
    let cfg = tiny(60);
    let mut db_s = cfg.build().unwrap();
    let mut db_p = cfg.build().unwrap();
    let plan_s = cfg.extremes_plan(&db_s).unwrap();
    let plan_p = cfg.extremes_plan(&db_p).unwrap();
    let serial = IdIvm::setup(&mut db_s, "V", plan_s, IvmOptions::default()).unwrap();
    let opts = IvmOptions {
        parallel: four_threads(),
        ..IvmOptions::default()
    };
    let p4 = IdIvm::setup(&mut db_p, "V", plan_p, opts).unwrap();
    for round in 0..5u64 {
        cfg.lineitem_churn_batch(&mut db_s, 8, round).unwrap();
        cfg.lineitem_churn_batch(&mut db_p, 8, round).unwrap();
        let rs = serial.maintain(&mut db_s).unwrap();
        let rp = p4.maintain(&mut db_p).unwrap();
        assert_eq!(rs.rescans, rp.rescans, "round {round}: rescan counts diverged");
        assert_eq!(
            rs.diff_compute, rp.diff_compute,
            "round {round}: access attribution diverged"
        );
    }
    assert_eq!(
        db_s.signature(),
        db_p.signature(),
        "P=4 left a different database than serial"
    );
}

/// LEFT OUTER JOIN end to end: ID and tuple engines track the oracle
/// through padded↔joined transitions in both directions, serial and at
/// P = 4, and the padded population is really churning.
#[test]
fn left_outer_join_engines_agree_under_padding_churn() {
    let cfg = tiny(0);
    type Setup = fn(&mut Database, &Tpch) -> Box<dyn Engine>;
    let setups: Vec<(&str, Setup)> = vec![
        ("id-ivm serial", |db, cfg| {
            let plan = cfg.loj_plan(db).unwrap();
            Box::new(IdIvm::setup(db, "P", plan, IvmOptions::default()).unwrap())
        }),
        ("id-ivm P=4", |db, cfg| {
            let plan = cfg.loj_plan(db).unwrap();
            let opts = IvmOptions {
                parallel: ParallelConfig {
                    threads: 4,
                    min_shard_rows: 2,
                },
                ..IvmOptions::default()
            };
            Box::new(IdIvm::setup(db, "P", plan, opts).unwrap())
        }),
        ("tuple-ivm serial", |db, cfg| {
            let plan = cfg.loj_plan(db).unwrap();
            Box::new(TupleIvm::setup(db, "P", plan).unwrap())
        }),
        ("tuple-ivm P=4", |db, cfg| {
            let plan = cfg.loj_plan(db).unwrap();
            let mut ivm = TupleIvm::setup(db, "P", plan).unwrap();
            ivm.set_parallel(ParallelConfig {
                threads: 4,
                min_shard_rows: 2,
            })
            .unwrap();
            Box::new(ivm)
        }),
    ];
    for (label, setup) in setups {
        let mut db = cfg.build().unwrap();
        let ivm = setup(&mut db, &cfg);
        let mut saw_padded = false;
        for round in 0..5u64 {
            cfg.order_churn_batch(&mut db, 8, round).unwrap();
            ivm.maintain(&mut db).unwrap();
            let oracle = sorted(recompute_rows(&db, ivm.plan()).unwrap());
            assert_eq!(
                sorted(ivm.visible_rows(&db).unwrap()),
                oracle,
                "{label}: outer join diverged from the oracle in round {round}"
            );
            saw_padded |= oracle.iter().any(|r| r.iter().any(Value::is_null));
        }
        assert!(
            saw_padded,
            "{label}: no NULL-padded rows ever appeared — the workload is \
             not exercising the outer join"
        );
    }
}

/// SDBT's partial-map model composes inner joins; a LEFT OUTER JOIN
/// plan must be rejected with a typed error at setup, never maintained
/// wrongly.
#[test]
fn sdbt_rejects_left_outer_join_with_typed_error() {
    let cfg = tiny(0);
    let mut db = cfg.build().unwrap();
    let plan = cfg.loj_plan(&db).unwrap();
    let partial = cfg.sdbt_lineitem_partial(&db).unwrap();
    let err = Sdbt::setup(
        &mut db,
        "P",
        plan,
        vec![partial],
        SdbtVariant::Fixed("orders".into()),
    )
    .map(|_| ())
    .unwrap_err();
    assert!(
        matches!(err, Error::Unsupported(_)),
        "expected Error::Unsupported, got: {err}"
    );
    assert!(
        err.to_string().to_lowercase().contains("outer join"),
        "rejection must name the outer join: {err}"
    );
}

/// A surgical single-table fixture for the regression pin and the
/// property sweep: `t(id, grp, val)` with `γ_{grp; MIN(val), MAX(val),
/// COUNT(*)}`.
fn grouped_db(rows: &[(i64, i64, i64)]) -> Database {
    let mut db = Database::new();
    db.set_logging(false);
    db.create_table(
        "t",
        Schema::from_pairs(
            &[
                ("id", ColumnType::Int),
                ("grp", ColumnType::Int),
                ("val", ColumnType::Int),
            ],
            &["id"],
        )
        .unwrap(),
    )
    .unwrap();
    for &(id, grp, val) in rows {
        db.table_mut("t").unwrap().load(row![id, grp, val]).unwrap();
    }
    db.set_logging(true);
    db
}

fn grouped_plan(db: &Database) -> idivm_repro::algebra::Plan {
    let cat = DbCatalog(db);
    idivm_repro::algebra::PlanBuilder::scan(&cat, "t")
        .unwrap()
        .group_by(
            &["t.grp"],
            &[
                (AggFunc::Min, "t.val", "mn"),
                (AggFunc::Max, "t.val", "mx"),
                (AggFunc::Count, "*", "n"),
            ],
        )
        .unwrap()
        .build()
        .unwrap()
}

/// All three engines on the single-table grouped view.
fn grouped_trio(
    rows: &[(i64, i64, i64)],
) -> Vec<(&'static str, Database, Box<dyn Engine>)> {
    let mut out: Vec<(&'static str, Database, Box<dyn Engine>)> = Vec::new();
    let mut db = grouped_db(rows);
    let plan = grouped_plan(&db);
    let ivm = IdIvm::setup(&mut db, "V", plan, IvmOptions::default()).unwrap();
    out.push(("id-ivm", db, Box::new(ivm)));
    let mut db = grouped_db(rows);
    let plan = grouped_plan(&db);
    let tivm = TupleIvm::setup(&mut db, "V", plan).unwrap();
    out.push(("tuple-ivm", db, Box::new(tivm)));
    let mut db = grouped_db(rows);
    let plan = grouped_plan(&db);
    let sdbt = Sdbt::setup(
        &mut db,
        "V",
        plan,
        vec![Partial {
            table: "t".into(),
            steps: vec![],
            compose: vec![0, 1, 2],
            filter: None,
        }],
        SdbtVariant::Fixed("t".into()),
    )
    .unwrap();
    out.push(("sdbt-fixed", db, Box::new(sdbt)));
    out
}

/// Regression pin for the naive-delta-fold hazard. Folding a deletion
/// delta into a stored MIN the way SUM deltas fold (`stored ⊕ Δ`, with
/// the non-numeric arm coerced to `Int(0)`) leaves either the stale
/// extremum (10) or a zeroed one (0) after the minimum-holding row is
/// deleted. The correct answer — promoted from the surviving rows by
/// the per-group rescan — is 50, and every engine must produce it.
#[test]
fn deleting_the_extremum_row_yields_the_runner_up_not_a_stale_or_zeroed_min() {
    let rows = [(1i64, 7i64, 10i64), (2, 7, 50), (3, 7, 90), (4, 8, 30)];
    for (label, mut db, ivm) in grouped_trio(&rows) {
        // Warm round so the view exists and has seen maintenance.
        db.insert("t", row![5, 8, 60]).unwrap();
        ivm.maintain(&mut db).unwrap();

        // Delete the row holding group 7's minimum.
        db.delete("t", &Key(vec![Value::Int(1)])).unwrap();
        let report = ivm.maintain(&mut db).unwrap();
        assert!(
            report.rescans >= 1,
            "{label}: extremum deletion resolved without a rescan"
        );
        let g7 = ivm
            .visible_rows(&db)
            .unwrap()
            .into_iter()
            .find(|r| r[0] == Value::Int(7))
            .unwrap_or_else(|| panic!("{label}: group 7 vanished"));
        assert_ne!(
            g7[1],
            Value::Int(10),
            "{label}: stale extremum survived the deletion (naive delta fold)"
        );
        assert_ne!(
            g7[1],
            Value::Int(0),
            "{label}: extremum zeroed out (the `_ => Int(0)` delta-fold arm)"
        );
        assert_eq!(g7[1], Value::Int(50), "{label}: runner-up not promoted");
        assert_eq!(
            sorted(ivm.visible_rows(&db).unwrap()),
            sorted(recompute_rows(&db, ivm.plan()).unwrap()),
            "{label}: view diverged from the oracle"
        );

        // And the symmetric hazard: updating the extremum row *past*
        // the maximum must move both ends, not fold deltas into either.
        db.update_named("t", &Key(vec![Value::Int(2)]), &[("val", Value::Int(95))])
            .unwrap();
        ivm.maintain(&mut db).unwrap();
        let g7 = ivm
            .visible_rows(&db)
            .unwrap()
            .into_iter()
            .find(|r| r[0] == Value::Int(7))
            .unwrap();
        assert_eq!(g7[1], Value::Int(90), "{label}: MIN after the move");
        assert_eq!(g7[2], Value::Int(95), "{label}: MAX after the move");
        assert_eq!(
            sorted(ivm.visible_rows(&db).unwrap()),
            sorted(recompute_rows(&db, ivm.plan()).unwrap()),
            "{label}"
        );
    }
}

/// The mid-rescan failpoint: sweep operator-entry faults through a
/// rescan-heavy round on every engine. At least one swept index must
/// land on a `rescan` failpoint (proving rescans are first-class fault
/// sites), every abort must leave the database bit-identical to its
/// pre-round state with the log preserved, and the terminating clean
/// run must still pay its rescans and match the oracle.
#[test]
fn mid_rescan_fault_rolls_back_to_pre_round_signature() {
    let cfg = tiny(100); // every modification targets an extremum
    for (label, mut db, mut ivm) in extremes_trio(&cfg) {
        cfg.lineitem_churn_batch(&mut db, 4, 0).unwrap();
        ivm.maintain(&mut db).unwrap();

        cfg.lineitem_churn_batch(&mut db, 4, 1).unwrap();
        let pre_sig = db.signature();
        let pre_net = db.fold_log();
        assert!(!pre_net.is_empty(), "{label}: batch produced no changes");
        let mut hit_rescan = false;
        let mut k = 0u64;
        let clean = loop {
            ivm.set_faults(FaultPlan::at(FaultSite::Operator, k, fault_seed()));
            match ivm.maintain(&mut db) {
                Err(e) => {
                    assert!(
                        matches!(e, Error::Injected(_)),
                        "{label} k={k}: unexpected error kind: {e}"
                    );
                    hit_rescan |= e.to_string().contains("rescan");
                    assert_eq!(
                        db.signature(),
                        pre_sig,
                        "{label} k={k}: rollback left the database different \
                         from its pre-round state"
                    );
                    assert_eq!(
                        db.fold_log(),
                        pre_net,
                        "{label} k={k}: modification log not preserved"
                    );
                }
                Ok(report) => break report,
            }
            k += 1;
            assert!(k < 1 << 16, "{label}: runaway sweep");
        };
        assert!(
            hit_rescan,
            "{label}: no swept failpoint ever fired mid-rescan — rescans are \
             not wired into fault injection"
        );
        assert!(
            clean.rescans > 0,
            "{label}: the clean run paid no rescans on a pure-extremum batch"
        );
        assert!(db.fold_log().is_empty(), "{label}: log not consumed");
        assert_eq!(
            sorted(ivm.visible_rows(&db).unwrap()),
            sorted(recompute_rows(&db, ivm.plan()).unwrap()),
            "{label}: clean run diverged from the oracle"
        );
        ivm.set_faults(FaultPlan::disabled());
    }
}

/// Supervisor matrix over the rescan-heavy round: a transient
/// operator fault (which can land mid-rescan) heals within the retry
/// bound and converges to the oracle on every engine.
#[test]
fn supervisor_heals_transient_faults_through_rescan_rounds() {
    let cfg = tiny(100);
    for (label, mut db, ivm) in extremes_trio(&cfg) {
        let mut ivm = ivm;
        cfg.lineitem_churn_batch(&mut db, 4, 0).unwrap();
        ivm.maintain(&mut db).unwrap();

        cfg.lineitem_churn_batch(&mut db, 4, 1).unwrap();
        ivm.set_faults(FaultPlan::at(FaultSite::Operator, 2, fault_seed()).healing_after(2));
        let report =
            MaintenanceSupervisor::new(&mut ivm, SupervisorConfig::seeded(fault_seed()))
                .run(&mut db);
        assert_eq!(
            report.verdict,
            SupervisorVerdict::Converged,
            "{label}: {:?}",
            report.errors
        );
        assert_eq!(report.retries, 2, "{label}");
        assert!(db.fold_log().is_empty(), "{label}: log not consumed");
        assert_eq!(
            sorted(ivm.visible_rows(&db).unwrap()),
            sorted(recompute_rows(&db, ivm.plan()).unwrap()),
            "{label}: healed run diverged from the oracle"
        );
    }
}
