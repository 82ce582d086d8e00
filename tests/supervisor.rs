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
//! The supervised engines are exercised through the boxed [`Engine`]
//! object surface. Each clause is one checker (`clean_round`, `ladder`,
//! `budget_split`, `assert_report_deterministic`). The chaos sweep at
//! the end runs every engine through `FaultSite × FaultKind` and two
//! round budgets, holds each scenario to the same checkers on a smaller
//! batch, and pins the whole report, byte for byte, in
//! `tests/golden/chaos_smoke.json` (at the default seed;
//! `IDIVM_BLESS=1` rewrites it).

mod common;

use idivm_repro::core::{
    Engine, EngineConfig, FaultKind, FaultPlan, FaultSite, IdIvm, IvmOptions, MaintenanceReport,
    MaintenanceSupervisor, RoundBudget, RoundTrace, SupervisorConfig, SupervisorReport,
    SupervisorVerdict, TraceConfig,
};
use idivm_repro::exec::{executor::sorted, recompute_rows, ParallelConfig};
use idivm_repro::reldb::{Database, NetChange};
use idivm_repro::sdbt::{Sdbt, SdbtVariant};
use idivm_repro::tuple::TupleIvm;
use idivm_repro::types::{Json, Key, Row};
use idivm_repro::workloads::RunningExample;

const DIFF: usize = 25;

/// Fault seed, overridable via `IDIVM_FAULT_SEED` (shared with the
/// fault-sweep suite and the CI chaos matrix).
fn fault_seed() -> u64 {
    std::env::var("IDIVM_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// The seed when `IDIVM_FAULT_SEED` is unset; the chaos golden records it.
const DEFAULT_SEED: u64 = 0x5eed_2015;

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

/// Build the database and engine with its trace switched as given, run
/// one clean warmup round (so caches and maps have seen maintenance),
/// and stage `diff` price updates for round `1`.
fn staged(build: &EngineBuilder, diff: usize, trace: TraceConfig) -> (Database, BoxedEngine) {
    let cfg = example();
    let mut db = cfg.build().unwrap();
    let mut ivm = build(&mut db);
    ivm.set_trace(trace);
    cfg.price_update_batch(&mut db, diff, 0).unwrap();
    let warmup = MaintenanceSupervisor::new(&mut ivm, SupervisorConfig::default()).run(&mut db);
    assert_eq!(warmup.verdict, SupervisorVerdict::Converged, "warmup");
    cfg.price_update_batch(&mut db, diff, 1).unwrap();
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

fn supervise(
    db: &mut Database,
    ivm: &mut BoxedEngine,
    config: SupervisorConfig,
) -> SupervisorReport {
    MaintenanceSupervisor::new(ivm, config).run(db)
}

/// The number of pending base-table changes.
fn pending(db: &Database) -> usize {
    db.fold_log().values().map(|c| c.len()).sum()
}

fn assert_oracle(db: &Database, ivm: &BoxedEngine, what: &str) {
    assert_eq!(
        sorted(ivm.visible_rows(db).unwrap()),
        sorted(recompute_rows(db, ivm.plan()).unwrap()),
        "{what}: diverged from the oracle"
    );
}

/// The trace JSON without its wall-clock `timings_us` member.
fn trace_fingerprint(trace: &RoundTrace) -> Json {
    let mut json = trace.to_json();
    if let Json::Obj(_, fields) = &mut json {
        fields.retain(|(key, _)| key != "timings_us");
    }
    json
}

/// The staged round driven through the bare engine, no supervisor: its
/// report, its counted cost and the database after it.
fn plain_round(
    build: &EngineBuilder,
    diff: usize,
    trace: TraceConfig,
) -> (MaintenanceReport, u64, Database) {
    let (mut db, ivm) = staged(build, diff, trace);
    let net = db.fold_log();
    let before = db.stats().snapshot();
    let report = ivm.maintain_with_changes(&mut db, &net).unwrap();
    let cost = db.stats().snapshot().since(&before).total();
    db.clear_log();
    (report, cost, db)
}

/// A clean supervised round of `diff` price updates is indistinguishable
/// from driving the engine directly: one attempt, every change
/// committed, the same access cost, the same trace and the same final
/// database signature. Returns the bare round's cost and the report.
fn clean_round(
    label: &str,
    build: &EngineBuilder,
    diff: usize,
    trace: TraceConfig,
) -> (u64, SupervisorReport) {
    let (plain, plain_cost, db_plain) = plain_round(build, diff, trace);
    let (mut db, mut ivm) = staged(build, diff, trace);
    let changes = pending(&db);
    let report = supervise(&mut db, &mut ivm, SupervisorConfig::seeded(fault_seed()));
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
    let plain_trace = plain.trace.as_ref().map(trace_fingerprint);
    assert_eq!(plain_trace.is_some(), trace.enabled, "{label}");
    let supervised = report.last_round.as_ref().and_then(|r| r.trace.as_ref());
    assert!(
        supervised.map(trace_fingerprint) == plain_trace,
        "{label}: the supervised round's trace differs from the bare engine's"
    );
    assert_eq!(
        db.signature(),
        db_plain.signature(),
        "{label}: supervised database diverged from the plain engine's"
    );
    assert!(db.fold_log().is_empty(), "{label}: log not consumed");
    (plain_cost, report)
}

/// Supervise the staged round of `diff` price updates under `plan` and
/// hold the report to the ladder:
///
/// * transient — converges within the retry bound (two retries on the
///   seeded backoff schedule), bit-identical to the recompute oracle;
/// * permanent at [`FaultSite::Diff`] — condemns exactly the poison
///   keys, never burns a retry, and commits the remainder, equal to the
///   oracle on the healthy subset (no poison converges, all poison
///   recomputes);
/// * permanent elsewhere — condemns every change, escalates to
///   recompute, and the repaired view is the full oracle.
///
/// Every run consumes the log and leaves the engine's budget as it was.
fn ladder(label: &str, build: &EngineBuilder, diff: usize, plan: FaultPlan) -> SupervisorReport {
    let seed = fault_seed();
    let site = plan.site.unwrap();
    let what = format!("{label} site={} {:?}", site.label(), plan.kind);
    let (mut db, mut ivm) = staged(build, diff, TraceConfig::disabled());
    let net = db.fold_log();
    let total = pending(&db);
    let mut poison: Vec<(String, Key)> = net
        .iter()
        .flat_map(|(t, changes)| {
            changes
                .keys()
                .filter(|k| plan.is_poison_key(k))
                .map(|k| (t.clone(), k.clone()))
        })
        .collect();
    poison.sort();
    ivm.set_faults(plan);
    let cfg = SupervisorConfig::seeded(seed);
    let report = supervise(&mut db, &mut ivm, cfg);
    let verdict = report.verdict;
    let errors = &report.errors;
    if plan.kind == FaultKind::Transient {
        assert_eq!(verdict, SupervisorVerdict::Converged, "{what}: {errors:?}");
        assert_eq!(report.attempts, 3, "{what}");
        assert_eq!(report.retries, 2, "{what}");
        assert_eq!(
            report.backoff_ticks,
            vec![cfg.backoff.delay(0), cfg.backoff.delay(1)],
            "{what}: backoff schedule"
        );
        assert!(report.quarantine.is_empty(), "{what}");
        assert_oracle(&db, &ivm, &what);
    } else if site == FaultSite::Diff && poison.is_empty() {
        assert_eq!(verdict, SupervisorVerdict::Converged, "{what}: {errors:?}");
        assert_oracle(&db, &ivm, &what);
    } else if site == FaultSite::Diff && poison.len() < total {
        assert_eq!(
            verdict,
            SupervisorVerdict::ConvergedQuarantined,
            "{what}: {errors:?}"
        );
        assert_eq!(
            report.quarantine.keys(),
            poison,
            "{what}: quarantine is not the minimal poison set"
        );
        assert_eq!(report.committed_changes, total - poison.len(), "{what}");
        // Poison is permanent: the ladder never burned a retry on it.
        assert_eq!(report.retries, 0, "{what}");
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
            "{what}: committed remainder diverged from the healthy-subset oracle"
        );
    } else {
        assert_eq!(verdict, SupervisorVerdict::Recomputed, "{what}: {errors:?}");
        assert_eq!(report.committed_changes, 0, "{what}");
        assert_eq!(
            report.quarantine.len(),
            total,
            "{what}: every change should have been condemned before escalation"
        );
        let last = report.last_round.as_ref().expect("escalation round report");
        assert!(last.recovered, "{what}: escalation did not recompute");
        assert_oracle(&db, &ivm, &what);
    }
    assert!(db.fold_log().is_empty(), "{what}: log not consumed");
    // The supervisor restored the engine's own knobs.
    assert_eq!(ivm.budget(), RoundBudget::unlimited(), "{what}");
    report
}

/// A round budget of `pct` % of the clean round's cost aborts
/// (retryably), bisects, and converges to the oracle with every change
/// committed: halves fit where the whole did not. Returns the cap and
/// the report.
fn budget_split(
    label: &str,
    build: &EngineBuilder,
    diff: usize,
    pct: u64,
) -> (u64, SupervisorReport) {
    let what = format!("{label} budget {pct}%");
    let (_, full_cost, _) = plain_round(build, diff, TraceConfig::disabled());
    assert!(full_cost > 8, "{what}: workload too small to budget");
    let cap = full_cost * pct / 100;
    let (mut db, mut ivm) = staged(build, diff, TraceConfig::disabled());
    let total = pending(&db);
    let config = SupervisorConfig {
        budget: RoundBudget::capped(cap),
        max_retries: 1,
        ..SupervisorConfig::seeded(fault_seed())
    };
    let report = supervise(&mut db, &mut ivm, config);
    assert_eq!(
        report.verdict,
        SupervisorVerdict::Converged,
        "{what}: {:?}",
        report.errors
    );
    assert!(
        report.budget_aborts >= 1,
        "{what}: cap {cap} of {full_cost} never fired"
    );
    assert!(
        report
            .bisection
            .iter()
            .any(|n| n.outcome == idivm_repro::core::BisectOutcome::Split),
        "{what}: overrun did not bisect"
    );
    assert_eq!(report.committed_changes, total, "{what}");
    assert!(report.quarantine.is_empty(), "{what}");
    assert!(db.fold_log().is_empty(), "{what}: log not consumed");
    assert_oracle(&db, &ivm, &what);
    // The supervisor's budget did not stick to the engine.
    assert_eq!(ivm.budget(), RoundBudget::unlimited(), "{what}");
    (cap, report)
}

/// The report of a permanent diff fault (retry bookkeeping, bisection,
/// per-attempt access costs) under `family`'s serial engine twice and
/// at P = 4 is the same text each time.
fn assert_report_deterministic(all: &[(&str, EngineBuilder)], family: &str, diff: usize) {
    let seed = fault_seed();
    let runs = [" serial", " serial", " P=4"].map(|variant| {
        let label = format!("{family}{variant}");
        let build = &all
            .iter()
            .find(|(l, _)| *l == label)
            .unwrap_or_else(|| panic!("unknown engine {label}"))
            .1;
        let (mut db, mut ivm) = staged(build, diff, TraceConfig::disabled());
        ivm.set_faults(FaultPlan::at(FaultSite::Diff, 3, seed).permanent());
        let report = supervise(&mut db, &mut ivm, SupervisorConfig::seeded(seed));
        assert_eq!(
            report.verdict,
            SupervisorVerdict::ConvergedQuarantined,
            "{label}"
        );
        report.to_json().render()
    });
    assert_eq!(
        runs[0], runs[1],
        "{family}: report differs between identical runs"
    );
    assert_eq!(
        runs[0], runs[2],
        "{family}: report differs between thread counts"
    );
}

/// A clean supervised run is indistinguishable from driving the
/// engine directly: same verdict bookkeeping, same access cost, same
/// final database signature.
#[test]
fn clean_supervised_run_is_zero_overhead() {
    for (label, build) in engines() {
        clean_round(label, &build, DIFF, TraceConfig::disabled());
    }
}

/// Transient faults at every site heal within the retry bound and the
/// run converges bit-identically to the recompute oracle.
#[test]
fn transient_faults_converge_within_retry_bound() {
    let seed = fault_seed();
    for (label, build) in engines() {
        for (site, k) in [
            (FaultSite::Operator, 0),
            (FaultSite::Apply, 0),
            (FaultSite::Access, 1),
        ] {
            let plan = FaultPlan::at(site, k, seed).healing_after(2);
            ladder(label, &build, DIFF, plan);
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
        let report = ladder(label, &build, DIFF, plan);
        assert_eq!(
            report.verdict,
            SupervisorVerdict::ConvergedQuarantined,
            "{label}: seed {seed} gives a degenerate poison set \
             ({} of the batch) — widen the batch or change the modulus",
            report.quarantine.len()
        );
    }
}

/// A permanent fault at a site every sub-batch hits (operator entry 0)
/// commits nothing incrementally and escalates to recompute; the
/// repaired view reflects *all* pending changes.
#[test]
fn permanent_site_fault_escalates_to_recompute() {
    let plan = FaultPlan::at(FaultSite::Operator, 0, fault_seed()).permanent();
    for (label, build) in engines() {
        ladder(label, &build, DIFF, plan);
    }
}

/// A round budget below one full round's cost aborts (retryably),
/// bisects, and converges: halves fit where the whole did not.
#[test]
fn budget_overrun_bisects_and_converges() {
    for (label, build) in engines() {
        budget_split(label, &build, DIFF, 75);
    }
}

/// The same seed produces a byte-identical report JSON across repeated
/// runs and across thread counts (the quarantine scenario exercises
/// retry bookkeeping, bisection, and per-attempt access costs).
#[test]
fn supervisor_report_is_deterministic_across_runs_and_threads() {
    let all = engines();
    for family in ["idIVM", "tuple"] {
        assert_report_deterministic(&all, family, DIFF);
    }
}

// ---------------------------------------------------------------------
// The chaos sweep
// ---------------------------------------------------------------------

/// The sweep's report at [`DEFAULT_SEED`].
const CHAOS_GOLDEN: &str = "tests/golden/chaos_smoke.json";
/// Price updates per round in the sweep.
const CHAOS_DIFF: usize = 12;

fn scenario(
    engine: &str,
    site: &str,
    kind: &str,
    budget: Option<u64>,
    report: &SupervisorReport,
) -> Json {
    Json::inline([
        ("engine", engine.into()),
        ("site", site.into()),
        ("kind", kind.into()),
        ("budget", budget.into()),
        ("report", report.to_json()),
    ])
}

/// The suite's checks on every engine at [`CHAOS_DIFF`]: a clean
/// traced round ([`clean_round`]), a transient and a permanent fault at
/// each of four sites ([`ladder`]), budgets of 75 % and 40 % of the
/// clean round ([`budget_split`]), and report determinism
/// ([`assert_report_deterministic`]). The report is pinned.
#[test]
fn chaos_sweep_holds_the_ladder_on_every_engine_and_its_report_is_pinned() {
    let seed = fault_seed();
    let all = engines();
    let name = |label: &str| label.trim_end_matches(" serial").to_string();

    let mut overhead = Vec::new();
    for (label, build) in &all {
        let (plain_cost, report) = clean_round(label, build, CHAOS_DIFF, TraceConfig::enabled());
        let cost = report.total_accesses();
        overhead.push(Json::inline([
            ("engine", name(label).into()),
            ("plain_cost", plain_cost.into()),
            ("supervised_cost", cost.into()),
            (
                "overhead_pct",
                Json::Fixed((cost as f64 / plain_cost as f64 - 1.0) * 100.0, 4),
            ),
            ("trace_identical", true.into()),
        ]));
    }

    let mut scenarios = Vec::new();
    for (label, build) in &all {
        for (site, k) in [
            (FaultSite::Operator, 0),
            (FaultSite::Apply, 0),
            (FaultSite::Access, 1),
            (FaultSite::Diff, 3),
        ] {
            let base = FaultPlan::at(site, k, seed);
            for (kind, plan) in [
                ("transient", base.healing_after(2)),
                ("permanent", base.permanent()),
            ] {
                let report = ladder(label, build, CHAOS_DIFF, plan);
                scenarios.push(scenario(&name(label), site.label(), kind, None, &report));
            }
        }
    }
    for (label, build) in &all {
        for pct in [75u64, 40] {
            let (cap, report) = budget_split(label, build, CHAOS_DIFF, pct);
            scenarios.push(scenario(&name(label), "none", "budget", Some(cap), &report));
        }
    }

    let mut determinism = Vec::new();
    for family in ["idIVM", "tuple"] {
        assert_report_deterministic(&all, family, CHAOS_DIFF);
        determinism.push(Json::inline([
            ("engine", family.into()),
            ("identical", true.into()),
        ]));
    }

    let report = Json::block([
        ("bench", "chaos".into()),
        ("seed", seed.into()),
        ("smoke", true.into()),
        ("overhead_guard", Json::rows(overhead)),
        ("scenarios", Json::rows(scenarios)),
        ("determinism", Json::rows(determinism)),
    ]);
    if seed == DEFAULT_SEED {
        common::assert_pinned(CHAOS_GOLDEN, &(report.render() + "\n"));
    }
}
