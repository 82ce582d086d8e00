//! Exhaustive fault-sweep differential suite: atomic maintenance
//! rounds under deterministic fault injection, on the Figure 12
//! workload, for all three engines.
//!
//! The contract under test (atomicity of a maintenance round):
//!
//! * An injected fault at **any** failpoint — operator entry, APPLY
//!   boundary, or access-count threshold — surfaces as
//!   [`Error::Injected`] and leaves the database **bit-identical** to
//!   its pre-round state: every view, cache, map, and secondary index
//!   (verified through [`Database::signature`], which fingerprints rows
//!   *and* index postings), with the modification log preserved so the
//!   round stays retryable.
//! * A clean re-run after any number of aborted attempts commits and
//!   matches the full-recomputation oracle.
//! * Escalated to the supervisor's recompute step, the failed round is
//!   repaired in place (view + caches/maps recomputed) and reported via
//!   `recovered` / `recovery` / `recovery_cause`.
//!
//! Sweep strategy: operator and APPLY failpoints are enumerated
//! exhaustively (`k = 1, 2, …` until a round commits because the fault
//! index lies beyond the last failpoint — that committing run doubles
//! as the clean-re-run check). Access thresholds are swept
//! geometrically (`k = 1, 2, 4, …`): the access failpoints are the
//! serial checkpoints between operators, and doubling visits multiple
//! distinct checkpoints while keeping the sweep bounded; every fired
//! threshold still verifies full rollback. Parallel propagation shares
//! the serial walk spine, so the same failpoints fire at the same
//! indexes for any thread count (access counts are bit-identical by the
//! executor's contract) — the ID and tuple engines are swept serial and
//! at P = 4.

use idivm_repro::core::{
    Engine, EngineConfig, FaultPlan, FaultSite, IdIvm, IvmOptions, MaintenanceSupervisor,
    SupervisorConfig, SupervisorVerdict, TraceConfig, TracePhase,
};
use idivm_repro::exec::{executor::sorted, recompute_rows, ParallelConfig};
use idivm_repro::reldb::Database;
use idivm_repro::sdbt::{Sdbt, SdbtVariant};
use idivm_repro::tuple::TupleIvm;
use idivm_repro::types::Error;
use idivm_repro::workloads::RunningExample;

const DIFF: usize = 25;

/// Fault seed, overridable via `IDIVM_FAULT_SEED` (the CI fault-sweep
/// job runs a fixed seed matrix through this hook). The seed is carried
/// into every injected error's message; the failpoint schedule itself
/// is deterministic for any seed.
fn fault_seed() -> u64 {
    std::env::var("IDIVM_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5eed_2015)
}

/// Small Figure 12 running-example instance (aggregate view V').
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

/// Four workers, sharding even tiny batches.
fn four_threads() -> ParallelConfig {
    ParallelConfig {
        threads: 4,
        min_shard_rows: 2,
    }
}

#[derive(Clone, Copy, Debug)]
enum Site {
    Operator,
    Apply,
    Access,
}

impl Site {
    fn plan(self, k: u64) -> FaultPlan {
        match self {
            Site::Operator => FaultPlan::at(FaultSite::Operator, k, fault_seed()),
            Site::Apply => FaultPlan::at(FaultSite::Apply, k, fault_seed()),
            Site::Access => FaultPlan::at(FaultSite::Access, k, fault_seed()),
        }
    }

    fn next_k(self, k: u64) -> u64 {
        match self {
            Site::Operator | Site::Apply => k + 1,
            Site::Access => k * 2,
        }
    }
}

/// Run the full sweep for one engine over one database: for every site
/// and every failpoint index, inject, assert bit-identical rollback and
/// a preserved log; on the terminating clean run, assert the view
/// equals the recompute oracle and the log was consumed.
fn sweep(db: &mut Database, ivm: &mut dyn Engine, label: &str) {
    let cfg = example();
    // Warmup: one clean round so caches/maps have seen maintenance.
    cfg.price_update_batch(db, DIFF, 0).unwrap();
    ivm.maintain(db).unwrap();

    let mut faults_fired = 0u64;
    for (round, site) in [(1u64, Site::Operator), (2, Site::Apply), (3, Site::Access)] {
        cfg.price_update_batch(db, DIFF, round).unwrap();
        let pre_sig = db.signature();
        let pre_net = db.fold_log();
        assert!(!pre_net.is_empty(), "{label}: batch produced no changes");
        let mut k = 1u64;
        loop {
            ivm.set_faults(site.plan(k));
            match ivm.maintain(db) {
                Err(e) => {
                    assert!(
                        matches!(e, Error::Injected(_)),
                        "{label} {site:?} k={k}: unexpected error kind: {e}"
                    );
                    faults_fired += 1;
                    assert_eq!(
                        db.signature(),
                        pre_sig,
                        "{label} {site:?} k={k}: rollback left the database \
                         different from its pre-round state"
                    );
                    assert_eq!(
                        db.fold_log(),
                        pre_net,
                        "{label} {site:?} k={k}: modification log not preserved"
                    );
                }
                Ok(report) => {
                    // Fault index beyond the last failpoint: the round
                    // committed cleanly after all the aborted attempts.
                    assert!(!report.recovered);
                    break;
                }
            }
            k = site.next_k(k);
            assert!(k < 1 << 20, "{label} {site:?}: runaway sweep");
        }
        assert!(
            db.fold_log().is_empty(),
            "{label} {site:?}: committed round left the log unconsumed"
        );
        assert_eq!(
            sorted(ivm.visible_rows(db).unwrap()),
            sorted(recompute_rows(db, ivm.plan()).unwrap()),
            "{label} {site:?}: clean re-run diverged from the recompute oracle"
        );
    }
    assert!(
        faults_fired >= 3,
        "{label}: sweep fired only {faults_fired} faults — injection is not wired"
    );
}

fn id_ivm(db: &mut Database, parallel: ParallelConfig) -> IdIvm {
    let cfg = example();
    let plan = cfg.agg_plan(db).unwrap();
    let options = IvmOptions {
        parallel,
        ..IvmOptions::default()
    };
    IdIvm::setup(db, "V", plan, options).unwrap()
}

#[test]
fn fault_sweep_id_ivm_serial() {
    let mut db = example().build().unwrap();
    let mut ivm = id_ivm(&mut db, ParallelConfig::serial());
    sweep(&mut db, &mut ivm, "idIVM serial");
}

#[test]
fn fault_sweep_id_ivm_parallel() {
    let mut db = example().build().unwrap();
    let mut ivm = id_ivm(&mut db, four_threads());
    sweep(&mut db, &mut ivm, "idIVM P=4");
}

#[test]
fn fault_sweep_tuple_ivm_serial_and_parallel() {
    for (parallel, label) in [
        (ParallelConfig::serial(), "tuple serial"),
        (four_threads(), "tuple P=4"),
    ] {
        let cfg = example();
        let mut db = cfg.build().unwrap();
        let plan = cfg.agg_plan(&db).unwrap();
        let mut ivm = TupleIvm::setup(&mut db, "V", plan).unwrap();
        ivm.set_parallel(parallel).unwrap();
        sweep(&mut db, &mut ivm, label);
    }
}

#[test]
fn fault_sweep_sdbt_fixed() {
    let cfg = example();
    let mut db = cfg.build().unwrap();
    let plan = cfg.agg_plan(&db).unwrap();
    let partial = cfg.sdbt_parts_partial(&db).unwrap();
    let mut sdbt = Sdbt::setup(
        &mut db,
        "V",
        plan,
        vec![partial],
        SdbtVariant::Fixed("parts".to_string()),
    )
    .unwrap();
    sweep(&mut db, &mut sdbt, "SDBT-fixed");
}

#[test]
fn fault_sweep_sdbt_streams() {
    let cfg = example();
    let mut db = cfg.build().unwrap();
    let plan = cfg.agg_plan(&db).unwrap();
    let partials = cfg.sdbt_all_partials(&db).unwrap();
    let mut sdbt = Sdbt::setup(&mut db, "V", plan, partials, SdbtVariant::Streams).unwrap();
    sweep(&mut db, &mut sdbt, "SDBT-streams");
}

/// The supervisor's recompute escalation, with no retry or bisection
/// before it: a faulted round rolls back, repairs by full recompute,
/// and reports the repair — on every engine.
#[test]
fn recompute_on_error_repairs_and_reports() {
    type EngineBuilder = Box<dyn Fn(&mut Database) -> Box<dyn Engine>>;
    let cfg = example();
    let engines: Vec<(&str, EngineBuilder)> = vec![
        (
            "idIVM",
            Box::new(|db| Box::new(id_ivm(db, ParallelConfig::serial()))),
        ),
        (
            "tuple",
            Box::new(|db| {
                let plan = example().agg_plan(db).unwrap();
                Box::new(TupleIvm::setup(db, "V", plan).unwrap())
            }),
        ),
        (
            "SDBT-streams",
            Box::new(|db| {
                let plan = example().agg_plan(db).unwrap();
                let partials = example().sdbt_all_partials(db).unwrap();
                Box::new(Sdbt::setup(db, "V", plan, partials, SdbtVariant::Streams).unwrap())
            }),
        ),
    ];
    for (label, build) in engines {
        let mut db = cfg.build().unwrap();
        let mut ivm = build(&mut db);
        cfg.price_update_batch(&mut db, DIFF, 0).unwrap();
        ivm.maintain(&mut db).unwrap();

        cfg.price_update_batch(&mut db, DIFF, 1).unwrap();
        ivm.set_faults(FaultPlan::at(FaultSite::Operator, 1, fault_seed()));
        let straight_to_recompute = SupervisorConfig {
            max_retries: 0,
            bisect: false,
            ..SupervisorConfig::seeded(fault_seed())
        };
        let supervised = MaintenanceSupervisor::new(&mut ivm, straight_to_recompute).run(&mut db);
        assert_eq!(supervised.verdict, SupervisorVerdict::Recomputed, "{label}");
        let report = supervised.last_round.expect("the recompute round");
        assert!(report.recovered, "{label}: round did not report recovery");
        assert!(
            report.recovery.total() > 0,
            "{label}: recovery cost not accounted"
        );
        let cause = report.recovery_cause.as_deref().unwrap_or("");
        assert!(
            cause.contains("injected fault"),
            "{label}: recovery_cause `{cause}` does not name the fault"
        );
        assert!(
            db.fold_log().is_empty(),
            "{label}: recovered round left the log unconsumed"
        );
        assert_eq!(
            sorted(ivm.visible_rows(&db).unwrap()),
            sorted(recompute_rows(&db, ivm.plan()).unwrap()),
            "{label}: recompute repair diverged from the oracle"
        );

        // A later clean round works from the repaired state.
        ivm.set_faults(FaultPlan::disabled());
        cfg.price_update_batch(&mut db, DIFF, 2).unwrap();
        let report = ivm.maintain(&mut db).unwrap();
        assert!(!report.recovered);
        assert_eq!(
            sorted(ivm.visible_rows(&db).unwrap()),
            sorted(recompute_rows(&db, ivm.plan()).unwrap()),
            "{label}: post-recovery round diverged from the oracle"
        );
    }
}

/// Double-fault retry: two *consecutive* injected failures at
/// different failpoints, on the same preserved modification log, each
/// leave `Database::signature` unchanged, and the third (clean)
/// attempt still converges to the recompute oracle — on every engine,
/// serial and at P = 4.
#[test]
fn double_fault_retry_preserves_log_and_converges_third_attempt() {
    type EngineBuilder = Box<dyn Fn(&mut Database) -> Box<dyn Engine>>;
    let cfg = example();
    let engines: Vec<(&str, EngineBuilder)> = vec![
        (
            "idIVM serial",
            Box::new(|db| Box::new(id_ivm(db, ParallelConfig::serial()))),
        ),
        (
            "idIVM P=4",
            Box::new(|db| Box::new(id_ivm(db, four_threads()))),
        ),
        (
            "tuple serial",
            Box::new(|db| {
                let plan = example().agg_plan(db).unwrap();
                Box::new(TupleIvm::setup(db, "V", plan).unwrap())
            }),
        ),
        (
            "tuple P=4",
            Box::new(|db| {
                let plan = example().agg_plan(db).unwrap();
                let mut ivm = TupleIvm::setup(db, "V", plan).unwrap();
                ivm.set_parallel(four_threads()).unwrap();
                Box::new(ivm)
            }),
        ),
        (
            "SDBT-fixed",
            Box::new(|db| {
                let plan = example().agg_plan(db).unwrap();
                let partial = example().sdbt_parts_partial(db).unwrap();
                Box::new(
                    Sdbt::setup(
                        db,
                        "V",
                        plan,
                        vec![partial],
                        SdbtVariant::Fixed("parts".to_string()),
                    )
                    .unwrap(),
                )
            }),
        ),
        (
            "SDBT-streams",
            Box::new(|db| {
                let plan = example().agg_plan(db).unwrap();
                let partials = example().sdbt_all_partials(db).unwrap();
                Box::new(Sdbt::setup(db, "V", plan, partials, SdbtVariant::Streams).unwrap())
            }),
        ),
    ];
    for (label, build) in engines {
        let mut db = cfg.build().unwrap();
        let mut ivm = build(&mut db);
        cfg.price_update_batch(&mut db, DIFF, 0).unwrap();
        ivm.maintain(&mut db).unwrap();

        cfg.price_update_batch(&mut db, DIFF, 1).unwrap();
        let pre_sig = db.signature();
        let pre_net = db.fold_log();
        assert!(!pre_net.is_empty(), "{label}: batch produced no changes");

        // Attempt 1: operator failpoint.
        ivm.set_faults(FaultPlan::at(FaultSite::Operator, 0, fault_seed()));
        let err = ivm.maintain(&mut db).unwrap_err();
        assert!(matches!(err, Error::Injected(_)), "{label}: {err}");
        assert_eq!(db.signature(), pre_sig, "{label}: first rollback");
        assert_eq!(
            db.fold_log(),
            pre_net,
            "{label}: log not preserved after the first failure"
        );

        // Attempt 2: a *different* failpoint, same preserved log.
        ivm.set_faults(FaultPlan::at(FaultSite::Apply, 0, fault_seed()));
        let err = ivm.maintain(&mut db).unwrap_err();
        assert!(matches!(err, Error::Injected(_)), "{label}: {err}");
        assert_eq!(db.signature(), pre_sig, "{label}: second rollback");
        assert_eq!(
            db.fold_log(),
            pre_net,
            "{label}: log not preserved after the second failure"
        );

        // Attempt 3: clean — converges to the recompute oracle.
        ivm.set_faults(FaultPlan::disabled());
        let report = ivm.maintain(&mut db).unwrap();
        assert!(!report.recovered, "{label}");
        assert!(db.fold_log().is_empty(), "{label}: log not consumed");
        assert_eq!(
            sorted(ivm.visible_rows(&db).unwrap()),
            sorted(recompute_rows(&db, ivm.plan()).unwrap()),
            "{label}: third attempt diverged from the oracle"
        );
    }
}

/// Regression pin for the access-checkpoint placement: the serial
/// checkpoints sit after every trace entry (propagate, *cache apply*,
/// view apply), so an access threshold armed inside a cache-apply
/// window must fire at that cache-apply checkpoint — with a cumulative
/// count that includes the cache-maintenance accesses — not at the
/// next propagate checkpoint.
#[test]
fn access_fault_observes_cache_apply_accesses() {
    let cfg = example();
    // Traced twin: same workload, trace on, no faults. The cumulative
    // access count at the checkpoint following trace entry i is the
    // prefix sum of entry accesses through i (populate and trace
    // bookkeeping touch no tables).
    let mut db_t = cfg.build().unwrap();
    let plan = cfg.agg_plan(&db_t).unwrap();
    let options = IvmOptions {
        trace: TraceConfig::enabled(),
        ..IvmOptions::default()
    };
    let ivm_t = IdIvm::setup(&mut db_t, "V", plan, options).unwrap();
    cfg.price_update_batch(&mut db_t, DIFF, 0).unwrap();
    ivm_t.maintain(&mut db_t).unwrap();
    cfg.price_update_batch(&mut db_t, DIFF, 1).unwrap();
    let trace = ivm_t
        .maintain(&mut db_t)
        .unwrap()
        .trace
        .expect("trace enabled but absent");

    let mut cum = 0u64;
    let mut target = None; // (armed threshold, cumulative at the cache-apply checkpoint)
    let mut next_checkpoint = None; // first later checkpoint with a higher cumulative
    for op in &trace.operators {
        let before = cum;
        cum += op.accesses.total();
        if target.is_none() {
            if op.phase == TracePhase::CacheApply && op.accesses.total() > 0 {
                target = Some((before + 1, cum));
            }
        } else if next_checkpoint.is_none() && op.accesses.total() > 0 {
            next_checkpoint = Some(cum);
        }
    }
    let (at, expected) = target.expect(
        "workload exercised no counted cache-apply step; the regression needs a warm cache",
    );
    let after = next_checkpoint.expect("no checkpoint after the cache apply");
    assert!(after > expected, "checkpoints must be distinguishable");

    // Fresh twin with the fault armed inside the cache-apply window.
    let mut db = cfg.build().unwrap();
    let plan = cfg.agg_plan(&db).unwrap();
    let mut ivm = IdIvm::setup(&mut db, "V", plan, IvmOptions::default()).unwrap();
    cfg.price_update_batch(&mut db, DIFF, 0).unwrap();
    ivm.maintain(&mut db).unwrap();
    cfg.price_update_batch(&mut db, DIFF, 1).unwrap();
    ivm.set_faults(FaultPlan::at(FaultSite::Access, at, fault_seed()));
    let err = ivm.maintain(&mut db).unwrap_err();
    let msg = err.to_string();
    let fired: u64 = msg
        .rsplit("cumulative ")
        .next()
        .and_then(|s| s.trim_end_matches(')').parse().ok())
        .unwrap_or_else(|| panic!("unparseable fault message: {msg}"));
    assert_eq!(
        fired, expected,
        "access fault fired at cumulative {fired}, expected the cache-apply \
         checkpoint at {expected} (next checkpoint would be {after}): \
         cache-maintenance accesses are not observed"
    );
}

/// A promoted intermediate's maintenance round is as atomic as any
/// view's: an injected fault at any operator / APPLY / access-count
/// failpoint mid-round leaves the **entire database** — backing table,
/// its caches, every consumer view, base tables, and all secondary
/// indexes — bit-identical to the pre-round state, with the
/// modification log preserved; the terminating clean run commits the
/// backing to the recompute oracle of its subtree.
#[test]
fn intermediate_fault_rolls_back_backing_and_consumers() {
    use idivm_repro::catalog::{MaintenanceScheduler, RefreshPolicy, SchedulerConfig};
    use idivm_repro::workloads::bsma::Bsma;
    use idivm_repro::workloads::multiview::VIEW_NAMES;
    use idivm_repro::workloads::MultiView;

    let cfg = MultiView {
        bsma: Bsma {
            scale: 0.02,
            seed: 77,
        },
    };
    let mut sched = MaintenanceScheduler::new(cfg.build().unwrap(), SchedulerConfig::default());
    for name in VIEW_NAMES {
        let plan = cfg.plan(sched.db(), name).unwrap();
        sched
            .register(name, plan, RefreshPolicy::Eager, IvmOptions::default())
            .unwrap();
    }
    // Warm round, then promote the deep shared prefix.
    cfg.tweet_batch(sched.db_mut(), DIFF, 1).unwrap();
    sched.tick().unwrap();
    let backing = sched.force_promote("join[mentions,microblog,users]").unwrap();

    let mut faults_fired = 0u64;
    for (round, site) in [(2u64, Site::Operator), (3, Site::Apply), (4, Site::Access)] {
        cfg.tweet_batch(sched.db_mut(), DIFF, round).unwrap();
        let pre_sig = sched.db().signature();
        let pre_net = sched.db().fold_log();
        assert!(!pre_net.is_empty(), "{site:?}: batch produced no changes");
        let mut k = 1u64;
        loop {
            sched
                .catalog_mut()
                .intermediate_mut(&backing)
                .unwrap()
                .engine_mut()
                .set_faults(site.plan(k));
            match sched.catalog_mut().maintain(&backing, &pre_net, None) {
                Err(e) => {
                    assert!(
                        matches!(e, Error::Injected(_)),
                        "{site:?} k={k}: unexpected error kind: {e}"
                    );
                    faults_fired += 1;
                    assert_eq!(
                        sched.db().signature(),
                        pre_sig,
                        "{site:?} k={k}: rollback left the backing or a \
                         consumer different from its pre-round state"
                    );
                    assert_eq!(
                        sched.db().fold_log(),
                        pre_net,
                        "{site:?} k={k}: modification log not preserved"
                    );
                }
                Ok((report, delta)) => {
                    assert!(!report.recovered, "{site:?}: clean run recovered");
                    assert!(!delta.is_empty(), "{site:?}: committing round had no delta");
                    break;
                }
            }
            k = site.next_k(k);
            assert!(k < 1 << 20, "{site:?}: runaway sweep");
        }
        // The committing run brought the backing to the recompute
        // oracle of its subtree over the current base state.
        let subtree = sched
            .catalog()
            .intermediate(&backing)
            .unwrap()
            .source_plan()
            .clone();
        assert_eq!(
            sorted(
                sched
                    .db()
                    .table(&backing)
                    .unwrap()
                    .rows_uncounted()
            ),
            sorted(recompute_rows(sched.db(), &subtree).unwrap()),
            "{site:?}: committed backing diverged from its subtree oracle"
        );
        // This test drives the catalog directly (bypassing the
        // scheduler's pending bookkeeping), so consume the log by hand
        // before the next site's batch.
        sched.db_mut().clear_log();
    }
    assert!(
        faults_fired >= 3,
        "sweep fired only {faults_fired} faults — intermediate injection is not wired"
    );
}

/// Satellite (b): invalid thread counts are rejected with a typed
/// `Error::Config` at construction — at `IdIvm::setup` and at
/// `TupleIvm::set_parallel`.
#[test]
fn parallel_config_validation_is_typed() {
    let cfg = example();
    let mut db = cfg.build().unwrap();
    let plan = cfg.agg_plan(&db).unwrap();
    let options = IvmOptions {
        parallel: ParallelConfig {
            threads: 0,
            min_shard_rows: 2,
        },
        ..IvmOptions::default()
    };
    let Err(err) = IdIvm::setup(&mut db, "V", plan.clone(), options) else {
        panic!("IdIvm::setup accepted threads = 0");
    };
    assert!(matches!(err, Error::Config(_)), "got: {err}");

    let mut ivm = TupleIvm::setup(&mut db, "V", plan).unwrap();
    for threads in [0usize, 4097] {
        let err = ivm
            .set_parallel(ParallelConfig {
                threads,
                min_shard_rows: 2,
            })
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)), "threads={threads}: {err}");
    }
}
