//! The round spine (`idivm_core::round`), checked once for every
//! engine: one test body generic over [`Engine`], run for `IdIvm`,
//! `TupleIvm`, both `Sdbt` variants and a `Box<dyn Engine>`.
//!
//! The protocol is the provided half of the trait, so every engine must
//! show the same behaviour around its own strategy:
//!
//! * an **owned** round that fails rolls back to the pre-round
//!   [`Database::signature`], keeps the modification log, and the clean
//!   retry equals the recompute oracle;
//! * a round **nested** under a caller-held `begin_round` that fails
//!   neither aborts nor recomputes, even through the recompute entry
//!   (`SupervisedEngine::maintain_or_recompute`) — the caller's
//!   `abort_round` does the rollback;
//! * a **recovered** round (the supervisor's recompute escalation) has
//!   one report shape;
//! * the trace reconciles against the report, and the phase timings
//!   are contiguous parts of `wall`.
//!
//! The fault is an access fault armed at the clean round's total, so it
//! fires at the last checkpoint — after every write of the round.

use idivm_repro::core::{
    Engine, FaultPlan, FaultSite, IdIvm, IvmOptions, MaintenanceSupervisor, SupervisorConfig,
    SupervisorVerdict, TraceConfig, TracePhase,
};
use idivm_repro::exec::{executor::sorted, recompute_rows};
use idivm_repro::reldb::Database;
use idivm_repro::sdbt::{Sdbt, SdbtVariant};
use idivm_repro::tuple::TupleIvm;
use idivm_repro::types::Error;
use idivm_repro::workloads::RunningExample;
use std::time::Duration;

const DIFF: usize = 25;

/// Fault seed, overridable via `IDIVM_FAULT_SEED` (shared with the
/// fault-sweep suite and the CI chaos matrix).
fn fault_seed() -> u64 {
    std::env::var("IDIVM_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5eed_2015)
}

fn example() -> RunningExample {
    RunningExample {
        n_parts: 120,
        n_devices: 90,
        fanout: 3,
        selectivity_pct: 30,
        joins: 2,
        seed: 7,
    }
}

fn assert_matches_oracle<E: Engine>(label: &str, ivm: &E, db: &Database) {
    assert_eq!(
        sorted(ivm.visible_rows(db).unwrap()),
        sorted(recompute_rows(db, ivm.plan()).unwrap()),
        "{label}: view diverged from the recompute oracle"
    );
}

fn spine<E: Engine>(label: &str, build: impl Fn(&mut Database) -> E) {
    let cfg = example();
    // A fresh database and engine, one warm round committed, the
    // measured batch pending in the log. Deterministic, so every call
    // stages the identical round.
    let prepared = || {
        let mut db = cfg.build().unwrap();
        let ivm = build(&mut db);
        cfg.price_update_batch(&mut db, DIFF, 0).unwrap();
        ivm.maintain(&mut db).unwrap();
        cfg.price_update_batch(&mut db, DIFF, 1).unwrap();
        (db, ivm)
    };

    // (iv) A clean traced round reconciles phase by phase, and its
    // timings are contiguous parts of the round.
    let (mut db, mut ivm) = prepared();
    ivm.set_trace(TraceConfig::enabled());
    let clean = ivm.maintain(&mut db).unwrap();
    let trace = clean.trace.as_ref().expect("traced round");
    for (phase, total) in [
        (TracePhase::Propagate, clean.diff_compute),
        (TracePhase::CacheApply, clean.cache_update),
        (TracePhase::ViewApply, clean.view_update),
        (TracePhase::Recovery, clean.recovery),
    ] {
        assert_eq!(trace.sum_phase(phase), total, "{label}: {phase:?}");
    }
    let t = trace.timings;
    for (name, d) in [
        ("populate", t.populate),
        ("propagate", t.propagate),
        ("apply", t.apply),
    ] {
        assert!(d > Duration::ZERO, "{label}: {name} was not stamped");
    }
    assert!(
        t.populate + t.propagate + t.apply <= clean.wall,
        "{label}: phases {t:?} exceed the round's wall {:?} (fold is outside it)",
        clean.wall
    );
    assert_matches_oracle(label, &ivm, &db);
    let last_checkpoint = FaultPlan::at(FaultSite::Access, clean.total_accesses(), fault_seed());

    // (i) Owned round: Err, rollback, log kept, clean retry converges.
    let (mut db, mut ivm) = prepared();
    let pre = db.signature();
    let pending = db.log().len();
    ivm.set_faults(last_checkpoint);
    let err = ivm.maintain(&mut db).unwrap_err();
    assert!(matches!(err, Error::Injected(_)), "{label}: {err}");
    assert!(!db.round_open(), "{label}: failed round left open");
    assert_eq!(db.signature(), pre, "{label}: rollback incomplete");
    assert_eq!(db.log().len(), pending, "{label}: log not preserved");
    ivm.set_faults(FaultPlan::disabled());
    let retry = ivm.maintain(&mut db).unwrap();
    assert!(!retry.recovered, "{label}");
    assert!(db.log().is_empty(), "{label}: log not consumed");
    assert_matches_oracle(label, &ivm, &db);

    // (ii) Nested round: the engine reports the failure and leaves both
    // the rollback and the recovery decision to the round's owner.
    let (mut db, mut ivm) = prepared();
    let pre = db.signature();
    ivm.set_faults(last_checkpoint);
    let net = db.fold_log();
    assert!(db.begin_round(), "{label}: the test owns the round");
    let nested =
        idivm_repro::core::SupervisedEngine::maintain_or_recompute(&ivm, &mut db, &net);
    assert!(
        matches!(nested, Err(Error::Injected(_))),
        "{label}: nested round must fail, not recover: {nested:?}"
    );
    assert!(
        db.round_open(),
        "{label}: nested engine closed the owner's round"
    );
    assert_ne!(
        db.signature(),
        pre,
        "{label}: nested engine rolled back (or the fault fired before any write)"
    );
    db.abort_round();
    assert_eq!(db.signature(), pre, "{label}: owner's abort incomplete");

    // (iii) A recovered round has one shape, traced or not.
    let straight_to_recompute = SupervisorConfig {
        max_retries: 0,
        bisect: false,
        ..SupervisorConfig::seeded(fault_seed())
    };
    for traced in [false, true] {
        let (mut db, mut ivm) = prepared();
        if traced {
            ivm.set_trace(TraceConfig::enabled());
        }
        ivm.set_faults(last_checkpoint);
        let supervised = MaintenanceSupervisor::new(&mut ivm, straight_to_recompute).run(&mut db);
        assert_eq!(supervised.verdict, SupervisorVerdict::Recomputed, "{label}");
        let report = supervised.last_round.expect("the recompute round");
        assert!(report.recovered, "{label}");
        let cause = report.recovery_cause.as_deref().unwrap_or("");
        assert!(cause.contains("injected fault"), "{label}: cause `{cause}`");
        assert!(report.recovery.total() > 0, "{label}: repair not priced");
        assert_eq!(report.total_accesses(), 0, "{label}: aborted phases leaked");
        assert!(report.view_changes.is_empty(), "{label}");
        match &report.trace {
            None => assert!(!traced, "{label}: traced recovery lost its trace"),
            Some(trace) => {
                assert!(traced, "{label}: untraced recovery grew a trace");
                assert_eq!(trace.operators.len(), 1, "{label}");
                assert_eq!(trace.operators[0].phase, TracePhase::Recovery, "{label}");
                assert_eq!(trace.operators[0].accesses, report.recovery, "{label}");
            }
        }
        assert!(db.log().is_empty(), "{label}: recovered round kept the log");
        assert_matches_oracle(label, &ivm, &db);
    }
}

fn id_ivm(db: &mut Database) -> IdIvm {
    let plan = example().agg_plan(db).unwrap();
    IdIvm::setup(db, "V", plan, IvmOptions::default()).unwrap()
}

fn sdbt_streams(db: &mut Database) -> Sdbt {
    let plan = example().agg_plan(db).unwrap();
    let partials = example().sdbt_all_partials(db).unwrap();
    Sdbt::setup(db, "V", plan, partials, SdbtVariant::Streams).unwrap()
}

#[test]
fn spine_id_ivm() {
    spine("idIVM", id_ivm);
}

#[test]
fn spine_tuple_ivm() {
    spine("tuple", |db| {
        let plan = example().agg_plan(db).unwrap();
        TupleIvm::setup(db, "V", plan).unwrap()
    });
}

#[test]
fn spine_sdbt_fixed() {
    spine("SDBT-fixed", |db| {
        let plan = example().agg_plan(db).unwrap();
        let partial = example().sdbt_parts_partial(db).unwrap();
        let fixed = SdbtVariant::Fixed("parts".to_string());
        Sdbt::setup(db, "V", plan, vec![partial], fixed).unwrap()
    });
}

#[test]
fn spine_sdbt_streams() {
    spine("SDBT-streams", sdbt_streams);
}

/// The boxed object surface tests and bins use: the protocol and the
/// `visible_rows` override both travel through `Box<dyn Engine>`.
#[test]
fn spine_boxed_dyn_engine() {
    spine("boxed idIVM", |db| Box::new(id_ivm(db)) as Box<dyn Engine>);
    spine("boxed SDBT-streams", |db| {
        Box::new(sdbt_streams(db)) as Box<dyn Engine>
    });
}
