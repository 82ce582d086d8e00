//! Chaos-invariant acceptance suite for the self-healing maintenance
//! supervisor, on real engines over the Figure 12 workload.
//!
//! The contract under test:
//!
//! * **Transient convergence** — for every fault site, a transient
//!   fault that heals within the retry bound ends in
//!   [`SupervisorVerdict::Converged`] with the view bit-identical to
//!   the recompute oracle and the modification log consumed.
//! * **Minimal quarantine** — a permanent [`FaultSite::Diff`] plan
//!   condemns *exactly* the poison keys predicted by
//!   [`FaultPlan::is_poison_key`]; the committed remainder equals the
//!   oracle evaluated on the healthy subset of changes.
//! * **Recompute escalation** — a permanent site fault that fails
//!   every sub-batch ends in [`SupervisorVerdict::Recomputed`] with
//!   the view equal to the *full* oracle (recompute reads base
//!   post-state; it cannot be poisoned by diff-level faults).
//! * **Budget splitting** — an opt-in [`RoundBudget`] below one
//!   round's access cost aborts, retries, bisects, and still
//!   converges: halves fit where the whole did not.
//! * **Determinism** — the same `IDIVM_FAULT_SEED` produces a
//!   byte-identical [`SupervisorReport`] JSON across repeated runs
//!   and across `ParallelConfig` thread counts.
//!
//! The supervised engines are exercised through the same boxed
//! [`Engine`] object surface the chaos bench uses.

use idivm_repro::core::{
    Engine, EngineConfig, FaultPlan, FaultSite, IdIvm, IvmOptions, MaintenanceSupervisor,
    RoundBudget, SupervisorConfig, SupervisorVerdict,
};
use idivm_repro::exec::{executor::sorted, recompute_rows, ParallelConfig};
use idivm_repro::reldb::{Database, NetChange};
use idivm_repro::sdbt::{Sdbt, SdbtVariant};
use idivm_repro::tuple::TupleIvm;
use idivm_repro::types::{Key, Row};
use idivm_repro::workloads::RunningExample;

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

fn four_threads() -> ParallelConfig {
    ParallelConfig {
        threads: 4,
        min_shard_rows: 2,
    }
}

type BoxedEngine = Box<dyn Engine>;
type EngineBuilder = Box<dyn Fn(&mut Database) -> BoxedEngine>;

/// All engine configurations under supervision: the ID and tuple
/// engines serial and at P = 4, and both SDBT variants.
fn engines() -> Vec<(&'static str, EngineBuilder)> {
    vec![
        (
            "idIVM serial",
            Box::new(|db: &mut Database| {
                let cfg = example();
                let plan = cfg.agg_plan(db).unwrap();
                Box::new(IdIvm::setup(db, "V", plan, IvmOptions::default()).unwrap())
                    as BoxedEngine
            }),
        ),
        (
            "idIVM P=4",
            Box::new(|db: &mut Database| {
                let cfg = example();
                let plan = cfg.agg_plan(db).unwrap();
                let options = IvmOptions {
                    parallel: four_threads(),
                    ..IvmOptions::default()
                };
                Box::new(IdIvm::setup(db, "V", plan, options).unwrap()) as BoxedEngine
            }),
        ),
        (
            "tuple serial",
            Box::new(|db: &mut Database| {
                let plan = example().agg_plan(db).unwrap();
                Box::new(TupleIvm::setup(db, "V", plan).unwrap()) as BoxedEngine
            }),
        ),
        (
            "tuple P=4",
            Box::new(|db: &mut Database| {
                let plan = example().agg_plan(db).unwrap();
                let mut ivm = TupleIvm::setup(db, "V", plan).unwrap();
                ivm.set_parallel(four_threads()).unwrap();
                Box::new(ivm) as BoxedEngine
            }),
        ),
        (
            "SDBT-fixed",
            Box::new(|db: &mut Database| {
                let cfg = example();
                let plan = cfg.agg_plan(db).unwrap();
                let partial = cfg.sdbt_parts_partial(db).unwrap();
                Box::new(
                    Sdbt::setup(
                        db,
                        "V",
                        plan,
                        vec![partial],
                        SdbtVariant::Fixed("parts".to_string()),
                    )
                    .unwrap(),
                ) as BoxedEngine
            }),
        ),
        (
            "SDBT-streams",
            Box::new(|db: &mut Database| {
                let cfg = example();
                let plan = cfg.agg_plan(db).unwrap();
                let partials = cfg.sdbt_all_partials(db).unwrap();
                Box::new(Sdbt::setup(db, "V", plan, partials, SdbtVariant::Streams).unwrap())
                    as BoxedEngine
            }),
        ),
    ]
}

/// Build the database and engine, run one clean warmup round (so
/// caches and maps have seen maintenance), and stage the batch for
/// round `1`.
fn prepared(build: &EngineBuilder) -> (Database, BoxedEngine) {
    let cfg = example();
    let mut db = cfg.build().unwrap();
    let mut ivm = build(&mut db);
    cfg.price_update_batch(&mut db, DIFF, 0).unwrap();
    let warmup = MaintenanceSupervisor::new(&mut ivm, SupervisorConfig::default()).run(&mut db);
    assert_eq!(warmup.verdict, SupervisorVerdict::Converged, "warmup");
    cfg.price_update_batch(&mut db, DIFF, 1).unwrap();
    (db, ivm)
}

/// The oracle evaluated on the *healthy subset*: revert the
/// quarantined base-table changes (logging off), recompute, and
/// re-apply them, so the expectation for a quarantined round is
/// derived independently of any engine.
fn oracle_excluding(
    db: &mut Database,
    ivm: &BoxedEngine,
    quarantined: &[(String, Key, NetChange)],
) -> Vec<Row> {
    db.set_logging(false);
    for (table, key, change) in quarantined {
        match change {
            NetChange::Inserted { .. } => {
                db.delete(table, key).unwrap();
            }
            NetChange::Deleted { pre } => {
                db.insert(table, pre.clone()).unwrap();
            }
            NetChange::Updated { pre, .. } => {
                db.delete(table, key).unwrap();
                db.insert(table, pre.clone()).unwrap();
            }
        }
    }
    let rows = recompute_rows(db, ivm.plan()).unwrap();
    for (table, key, change) in quarantined {
        match change {
            NetChange::Inserted { post } => {
                db.insert(table, post.clone()).unwrap();
            }
            NetChange::Deleted { .. } => {
                db.delete(table, key).unwrap();
            }
            NetChange::Updated { post, .. } => {
                db.delete(table, key).unwrap();
                db.insert(table, post.clone()).unwrap();
            }
        }
    }
    db.set_logging(true);
    rows
}

/// A clean supervised run is indistinguishable from driving the
/// engine directly: same verdict bookkeeping, same access cost, same
/// final database signature.
#[test]
fn clean_supervised_run_is_zero_overhead() {
    for (label, build) in engines() {
        // Plain engine on a twin database.
        let (mut db_plain, ivm_plain) = prepared(&build);
        let net = db_plain.fold_log();
        let changes: usize = net.values().map(|c| c.len()).sum();
        let before = db_plain.stats().snapshot();
        ivm_plain.maintain_with_changes(&mut db_plain, &net).unwrap();
        let plain_cost = db_plain.stats().snapshot().since(&before).total();
        db_plain.clear_log();

        // Supervised run on an identical database.
        let (mut db, mut ivm) = prepared(&build);
        let report =
            MaintenanceSupervisor::new(&mut ivm, SupervisorConfig::seeded(fault_seed()))
                .run(&mut db);
        assert_eq!(report.verdict, SupervisorVerdict::Converged, "{label}");
        assert_eq!(report.attempts, 1, "{label}: clean run needed one round");
        assert_eq!(report.retries, 0, "{label}");
        assert_eq!(report.committed_changes, changes, "{label}");
        assert!(report.quarantine.is_empty(), "{label}");
        assert_eq!(
            report.attempt_costs,
            vec![plain_cost],
            "{label}: supervision changed the round's access cost"
        );
        assert_eq!(
            db.signature(),
            db_plain.signature(),
            "{label}: supervised database diverged from the plain engine's"
        );
        assert!(db.fold_log().is_empty(), "{label}: log not consumed");
    }
}

/// Transient faults at every site heal within the retry bound and the
/// run converges bit-identically to the recompute oracle.
#[test]
fn transient_faults_converge_within_retry_bound() {
    let seed = fault_seed();
    for (label, build) in engines() {
        for plan in [
            FaultPlan::at(FaultSite::Operator, 0, seed).healing_after(2),
            FaultPlan::at(FaultSite::Apply, 0, seed).healing_after(2),
            FaultPlan::at(FaultSite::Access, 1, seed).healing_after(2),
        ] {
            let (mut db, mut ivm) = prepared(&build);
            ivm.set_faults(plan);
            let cfg = SupervisorConfig::seeded(seed);
            let report = MaintenanceSupervisor::new(&mut ivm, cfg).run(&mut db);
            let site = plan.site.unwrap().label();
            assert_eq!(
                report.verdict,
                SupervisorVerdict::Converged,
                "{label} site={site}: {:?}",
                report.errors
            );
            assert_eq!(report.attempts, 3, "{label} site={site}");
            assert_eq!(report.retries, 2, "{label} site={site}");
            assert_eq!(
                report.backoff_ticks,
                vec![cfg.backoff.delay(0), cfg.backoff.delay(1)],
                "{label} site={site}: backoff schedule"
            );
            assert!(report.quarantine.is_empty(), "{label} site={site}");
            assert!(db.fold_log().is_empty(), "{label} site={site}");
            assert_eq!(
                sorted(ivm.visible_rows(&db).unwrap()),
                sorted(recompute_rows(&db, ivm.plan()).unwrap()),
                "{label} site={site}: healed run diverged from the oracle"
            );
        }
    }
}

/// A permanent diff-site fault condemns exactly the predicted poison
/// keys; the committed remainder equals the oracle on the healthy
/// subset of changes.
#[test]
fn poison_diffs_quarantined_minimally() {
    let seed = fault_seed();
    let plan = FaultPlan::at(FaultSite::Diff, 3, seed).permanent();
    for (label, build) in engines() {
        let (mut db, mut ivm) = prepared(&build);
        let net = db.fold_log();
        let total: usize = net.values().map(|c| c.len()).sum();
        let mut expected: Vec<(String, Key)> = net
            .iter()
            .flat_map(|(t, changes)| {
                changes
                    .keys()
                    .filter(|k| plan.is_poison_key(k))
                    .map(|k| (t.clone(), k.clone()))
            })
            .collect();
        expected.sort();
        assert!(
            !expected.is_empty() && expected.len() < total,
            "{label}: seed {seed} gives a degenerate poison set \
             ({} of {total}) — widen the batch or change the modulus",
            expected.len()
        );

        ivm.set_faults(plan);
        let report =
            MaintenanceSupervisor::new(&mut ivm, SupervisorConfig::seeded(seed)).run(&mut db);
        assert_eq!(
            report.verdict,
            SupervisorVerdict::ConvergedQuarantined,
            "{label}: {:?}",
            report.errors
        );
        assert_eq!(
            report.quarantine.keys(),
            expected,
            "{label}: quarantine is not the minimal poison set"
        );
        assert_eq!(report.committed_changes, total - expected.len(), "{label}");
        // Poison is permanent: the ladder never burned a retry on it.
        assert_eq!(report.retries, 0, "{label}");
        assert!(db.fold_log().is_empty(), "{label}: log not consumed");

        let quarantined: Vec<(String, Key, NetChange)> = report
            .quarantine
            .entries
            .iter()
            .map(|e| (e.table.clone(), e.key.clone(), e.change.clone()))
            .collect();
        let healthy_oracle = oracle_excluding(&mut db, &ivm, &quarantined);
        assert_eq!(
            sorted(ivm.visible_rows(&db).unwrap()),
            sorted(healthy_oracle),
            "{label}: committed remainder diverged from the healthy-subset oracle"
        );
    }
}

/// A permanent fault at a site every sub-batch hits (operator entry 0)
/// commits nothing incrementally and escalates to recompute; the
/// repaired view reflects *all* pending changes.
#[test]
fn permanent_site_fault_escalates_to_recompute() {
    let seed = fault_seed();
    for (label, build) in engines() {
        let (mut db, mut ivm) = prepared(&build);
        let net = db.fold_log();
        let total: usize = net.values().map(|c| c.len()).sum();
        ivm.set_faults(FaultPlan::at(FaultSite::Operator, 0, seed).permanent());
        let report =
            MaintenanceSupervisor::new(&mut ivm, SupervisorConfig::seeded(seed)).run(&mut db);
        assert_eq!(
            report.verdict,
            SupervisorVerdict::Recomputed,
            "{label}: {:?}",
            report.errors
        );
        assert_eq!(report.committed_changes, 0, "{label}");
        assert_eq!(
            report.quarantine.len(),
            total,
            "{label}: every change should have been condemned before escalation"
        );
        let last = report.last_round.as_ref().expect("escalation round report");
        assert!(last.recovered, "{label}: escalation did not recompute");
        assert!(db.fold_log().is_empty(), "{label}: log not consumed");
        assert_eq!(
            sorted(ivm.visible_rows(&db).unwrap()),
            sorted(recompute_rows(&db, ivm.plan()).unwrap()),
            "{label}: recompute repair diverged from the full oracle"
        );
        // The supervisor restored the engine's own knobs.
        assert_eq!(ivm.budget(), RoundBudget::unlimited(), "{label}");
    }
}

/// A round budget below one full round's cost aborts (retryably),
/// bisects, and converges: halves fit where the whole did not.
#[test]
fn budget_overrun_bisects_and_converges() {
    for (label, build) in engines() {
        // Measure the clean round's access cost on a twin database.
        let (mut db_probe, ivm_probe) = prepared(&build);
        let net = db_probe.fold_log();
        let total: usize = net.values().map(|c| c.len()).sum();
        let before = db_probe.stats().snapshot();
        ivm_probe.maintain_with_changes(&mut db_probe, &net).unwrap();
        let full_cost = db_probe.stats().snapshot().since(&before).total();
        assert!(full_cost > 8, "{label}: workload too small to budget");

        let (mut db, mut ivm) = prepared(&build);
        let config = SupervisorConfig {
            budget: RoundBudget::capped(full_cost * 3 / 4),
            max_retries: 1,
            ..SupervisorConfig::seeded(fault_seed())
        };
        let report = MaintenanceSupervisor::new(&mut ivm, config).run(&mut db);
        assert_eq!(
            report.verdict,
            SupervisorVerdict::Converged,
            "{label}: {:?}",
            report.errors
        );
        assert!(
            report.budget_aborts >= 1,
            "{label}: budget never fired (full round cost {full_cost})"
        );
        assert!(
            report
                .bisection
                .iter()
                .any(|n| n.outcome == idivm_repro::core::BisectOutcome::Split),
            "{label}: overrun did not bisect"
        );
        assert_eq!(report.committed_changes, total, "{label}");
        assert!(report.quarantine.is_empty(), "{label}");
        assert!(db.fold_log().is_empty(), "{label}: log not consumed");
        assert_eq!(
            sorted(ivm.visible_rows(&db).unwrap()),
            sorted(recompute_rows(&db, ivm.plan()).unwrap()),
            "{label}: budget-split run diverged from the oracle"
        );
        // The supervisor's budget did not stick to the engine.
        assert_eq!(ivm.budget(), RoundBudget::unlimited(), "{label}");
    }
}

/// The same seed produces a byte-identical report JSON across repeated
/// runs and across thread counts (the quarantine scenario exercises
/// retry bookkeeping, bisection, and per-attempt access costs).
#[test]
fn supervisor_report_is_deterministic_across_runs_and_threads() {
    let seed = fault_seed();
    let families: Vec<(&str, Vec<&str>)> = vec![
        ("idIVM", vec!["idIVM serial", "idIVM serial", "idIVM P=4"]),
        ("tuple", vec!["tuple serial", "tuple serial", "tuple P=4"]),
    ];
    let all = engines();
    for (family, variants) in families {
        let mut jsons: Vec<String> = Vec::new();
        for variant in variants {
            let build = &all
                .iter()
                .find(|(l, _)| *l == variant)
                .unwrap_or_else(|| panic!("unknown engine {variant}"))
                .1;
            let (mut db, mut ivm) = prepared(build);
            ivm.set_faults(FaultPlan::at(FaultSite::Diff, 3, seed).permanent());
            let report =
                MaintenanceSupervisor::new(&mut ivm, SupervisorConfig::seeded(seed)).run(&mut db);
            assert_eq!(report.verdict, SupervisorVerdict::ConvergedQuarantined);
            jsons.push(report.to_json().render());
        }
        assert_eq!(
            jsons[0], jsons[1],
            "{family}: report differs between identical runs"
        );
        assert_eq!(
            jsons[0], jsons[2],
            "{family}: report differs between thread counts"
        );
    }
}
