//! Chaos sweep — the self-healing maintenance supervisor under
//! `FaultSite × FaultKind × budget` across every engine configuration.
//!
//! Usage:
//! ```text
//! cargo run --release -p idivm-bench --bin chaos [-- --smoke] [--scale N]
//! ```
//!
//! Three in-process guards run before the sweep is reported:
//!
//! 1. **Supervisor-disabled overhead** — a clean supervised round must
//!    cost exactly what driving the engine directly costs (< 2%
//!    guard; expected 0%) and produce a bit-identical per-operator
//!    trace JSON: supervision off the failure path is free.
//! 2. **Chaos invariants** — transient scenarios converge to the
//!    recompute oracle within the retry bound; permanent diff faults
//!    quarantine exactly the poison set predicted by
//!    [`FaultPlan::is_poison_key`]; permanent site faults escalate to
//!    recompute.
//! 3. **Report determinism** — the same `IDIVM_FAULT_SEED` yields a
//!    byte-identical [`SupervisorReport`] JSON across repeated runs
//!    and across `ParallelConfig` thread counts.
//!
//! Output: one row per scenario, plus `BENCH_chaos.json` (schema in
//! `EXPERIMENTS.md`).

use idivm_bench::fmt_row;
use idivm_core::{
    Engine, EngineConfig, FaultKind, FaultPlan, FaultSite, IdIvm, IvmOptions,
    MaintenanceSupervisor, RoundBudget, SupervisorConfig, SupervisorReport, SupervisorVerdict,
    TraceConfig,
};
use idivm_exec::{executor::sorted, recompute_rows, ParallelConfig};
use idivm_reldb::{Database, TableChanges};
use idivm_sdbt::{Sdbt, SdbtVariant};
use idivm_tuple::TupleIvm;
use idivm_workloads::RunningExample;

type BoxedEngine = Box<dyn Engine>;

#[derive(Clone, Copy)]
struct EngineSpec {
    label: &'static str,
    threads: usize,
}

const ENGINES: &[EngineSpec] = &[
    EngineSpec {
        label: "idIVM",
        threads: 1,
    },
    EngineSpec {
        label: "idIVM",
        threads: 4,
    },
    EngineSpec {
        label: "tuple",
        threads: 1,
    },
    EngineSpec {
        label: "tuple",
        threads: 4,
    },
    EngineSpec {
        label: "SDBT-fixed",
        threads: 1,
    },
    EngineSpec {
        label: "SDBT-streams",
        threads: 1,
    },
];

impl EngineSpec {
    fn name(&self) -> String {
        if self.threads > 1 {
            format!("{} P={}", self.label, self.threads)
        } else {
            self.label.to_string()
        }
    }

    fn build(&self, cfg: &RunningExample, db: &mut Database, trace: TraceConfig) -> BoxedEngine {
        let plan = cfg.agg_plan(db).expect("plan");
        let parallel = ParallelConfig {
            threads: self.threads,
            min_shard_rows: 2,
        };
        match self.label {
            "idIVM" => {
                let options = IvmOptions {
                    parallel,
                    trace,
                    ..IvmOptions::default()
                };
                Box::new(IdIvm::setup(db, "V", plan, options).expect("setup"))
            }
            "tuple" => {
                let mut ivm = TupleIvm::setup(db, "V", plan).expect("setup");
                ivm.set_parallel(parallel).expect("parallel");
                ivm.set_trace(trace);
                Box::new(ivm)
            }
            "SDBT-fixed" => {
                let partial = cfg.sdbt_parts_partial(db).expect("partial");
                let mut sdbt = Sdbt::setup(
                    db,
                    "V",
                    plan,
                    vec![partial],
                    SdbtVariant::Fixed("parts".to_string()),
                )
                .expect("setup");
                sdbt.set_trace(trace);
                Box::new(sdbt)
            }
            "SDBT-streams" => {
                let partials = cfg.sdbt_all_partials(db).expect("partials");
                let mut sdbt =
                    Sdbt::setup(db, "V", plan, partials, SdbtVariant::Streams).expect("setup");
                sdbt.set_trace(trace);
                Box::new(sdbt)
            }
            other => unreachable!("unknown engine {other}"),
        }
    }
}

fn fault_seed() -> u64 {
    std::env::var("IDIVM_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5eed_2015)
}

/// Build, warm up (one clean round), and stage the measured batch.
fn prepared(
    spec: &EngineSpec,
    cfg: &RunningExample,
    d: usize,
    trace: TraceConfig,
) -> (Database, BoxedEngine) {
    let mut db = cfg.build().expect("build");
    let mut ivm = spec.build(cfg, &mut db, trace);
    cfg.price_update_batch(&mut db, d, 0).expect("warmup batch");
    let warm = MaintenanceSupervisor::new(&mut ivm, SupervisorConfig::default()).run(&mut db);
    assert_eq!(warm.verdict, SupervisorVerdict::Converged, "warmup");
    cfg.price_update_batch(&mut db, d, 1).expect("batch");
    (db, ivm)
}

/// One scenario's record for the JSON document.
struct Scenario {
    engine: String,
    site: String,
    kind: &'static str,
    budget: Option<u64>,
    report: SupervisorReport,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale: f64 = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 0.2 } else { 1.0 });
    let seed = fault_seed();

    let cfg = RunningExample {
        n_parts: (600.0 * scale) as usize,
        n_devices: (450.0 * scale) as usize,
        fanout: 3,
        selectivity_pct: 30,
        joins: 2,
        seed: 7,
    };
    let d = (60.0 * scale).max(10.0) as usize;
    println!(
        "chaos sweep — supervisor escalation ladder (seed {seed}, parts {}, d {d}{})",
        cfg.n_parts,
        if smoke { ", smoke" } else { "" }
    );

    // ── Guard 1: supervision disabled/clean is zero-overhead. ──────
    println!("\nsupervisor-disabled overhead guard (clean round, plain engine vs supervised):");
    let mut overhead_rows: Vec<String> = Vec::new();
    for spec in ENGINES {
        let (mut db_plain, ivm_plain) = prepared(spec, &cfg, d, TraceConfig::enabled());
        let net = db_plain.fold_log();
        let before = db_plain.stats().snapshot();
        let plain = ivm_plain
            .maintain_with_changes(&mut db_plain, &net)
            .expect("plain round");
        let plain_cost = db_plain.stats().snapshot().since(&before).total();
        db_plain.clear_log();

        let (mut db, mut ivm) = prepared(spec, &cfg, d, TraceConfig::enabled());
        let report = MaintenanceSupervisor::new(&mut ivm, SupervisorConfig::seeded(seed))
            .run(&mut db);
        assert_eq!(report.verdict, SupervisorVerdict::Converged, "{}", spec.name());
        let sup_cost = report.total_accesses();
        let pct = if plain_cost == 0 {
            0.0
        } else {
            (sup_cost as f64 / plain_cost as f64 - 1.0) * 100.0
        };
        let plain_trace = plain.trace.as_ref().map(trace_fingerprint);
        let sup_trace = report
            .last_round
            .as_ref()
            .and_then(|r| r.trace.as_ref())
            .map(trace_fingerprint);
        let trace_identical = plain_trace == sup_trace && plain_trace.is_some();
        println!(
            "  {:<16} plain {:>9}  supervised {:>9}  overhead {:+.3}%  trace identical: {}",
            spec.name(),
            plain_cost,
            sup_cost,
            pct,
            trace_identical
        );
        assert!(
            pct.abs() < 2.0,
            "{}: supervised clean round cost diverges by {pct:.3}% (>2% guard)",
            spec.name()
        );
        assert!(
            trace_identical,
            "{}: supervised round trace differs from the plain engine's",
            spec.name()
        );
        assert_eq!(
            db.signature(),
            db_plain.signature(),
            "{}: supervised database diverged from the plain engine's",
            spec.name()
        );
        overhead_rows.push(format!(
            "    {{\"engine\": \"{}\", \"plain_cost\": {plain_cost}, \"supervised_cost\": \
             {sup_cost}, \"overhead_pct\": {pct:.4}, \"trace_identical\": {trace_identical}}}",
            spec.name()
        ));
    }

    // ── Guard 2 + sweep: FaultSite × FaultKind (budget unlimited). ─
    println!("\nfault sweep (site × kind, budget unlimited):");
    println!(
        "{}",
        fmt_row(
            &[
                "engine".into(),
                "site".into(),
                "kind".into(),
                "verdict".into(),
                "attempts".into(),
                "retries".into(),
                "quarantined".into(),
                "committed".into(),
                "accesses".into(),
            ],
            WIDTHS
        )
    );
    let mut scenarios: Vec<Scenario> = Vec::new();
    let sites = [
        FaultSite::Operator,
        FaultSite::Apply,
        FaultSite::Access,
        FaultSite::Diff,
    ];
    let kinds = [FaultKind::Transient, FaultKind::Permanent];
    for spec in ENGINES {
        for site in sites {
            for kind in kinds {
                let plan = {
                    let base = match site {
                        FaultSite::Operator => FaultPlan::at_operator(0, seed),
                        FaultSite::Apply => FaultPlan::at_apply(0, seed),
                        FaultSite::Access => FaultPlan::at_access(1, seed),
                        FaultSite::Diff => FaultPlan::at_diff(3, seed),
                        // Ingest-path sites never fire inside an
                        // engine round (the firehose bench sweeps
                        // them), and durability sites fire in the WAL
                        // layer (crashbench sweeps them).
                        FaultSite::Enqueue
                        | FaultSite::BatchCut
                        | FaultSite::Decode
                        | FaultSite::WalAppend
                        | FaultSite::WalFsync
                        | FaultSite::Checkpoint => {
                            unreachable!("chaos sweeps engine sites only")
                        }
                    };
                    match kind {
                        FaultKind::Transient => base.healing_after(2),
                        FaultKind::Permanent => base.permanent(),
                    }
                };
                let (mut db, mut ivm) = prepared(spec, &cfg, d, TraceConfig::disabled());
                let net = db.fold_log();
                let total: usize = net.values().map(TableChanges::len).sum();
                let poison: usize = net
                    .values()
                    .flat_map(|c| c.keys())
                    .filter(|k| plan.is_poison_key(k))
                    .count();
                ivm.set_faults(plan);
                let report = MaintenanceSupervisor::new(&mut ivm, SupervisorConfig::seeded(seed))
                    .run(&mut db);

                // Chaos invariants.
                match (kind, site) {
                    (FaultKind::Transient, _) => {
                        assert_eq!(
                            report.verdict,
                            SupervisorVerdict::Converged,
                            "{} {site:?} transient: {:?}",
                            spec.name(),
                            report.errors
                        );
                        assert_eq!(
                            sorted(ivm.visible_rows(&db).expect("view")),
                            sorted(recompute_rows(&db, ivm.plan()).expect("oracle")),
                            "{} {site:?} transient diverged from the oracle",
                            spec.name()
                        );
                    }
                    (FaultKind::Permanent, FaultSite::Diff) => {
                        if poison == 0 {
                            assert_eq!(report.verdict, SupervisorVerdict::Converged);
                        } else if poison == total {
                            assert_eq!(report.verdict, SupervisorVerdict::Recomputed);
                        } else {
                            assert_eq!(
                                report.verdict,
                                SupervisorVerdict::ConvergedQuarantined,
                                "{}: {:?}",
                                spec.name(),
                                report.errors
                            );
                            assert_eq!(
                                report.quarantine.len(),
                                poison,
                                "{}: quarantine is not the predicted poison set",
                                spec.name()
                            );
                            assert!(report
                                .quarantine
                                .entries
                                .iter()
                                .all(|e| plan.is_poison_key(&e.key)));
                            assert_eq!(report.committed_changes, total - poison);
                        }
                    }
                    (FaultKind::Permanent, _) => {
                        // Every sub-batch hits the site: recompute
                        // escalation repairs to the full oracle.
                        assert_eq!(
                            report.verdict,
                            SupervisorVerdict::Recomputed,
                            "{} {site:?} permanent: {:?}",
                            spec.name(),
                            report.errors
                        );
                        assert_eq!(
                            sorted(ivm.visible_rows(&db).expect("view")),
                            sorted(recompute_rows(&db, ivm.plan()).expect("oracle")),
                            "{} {site:?} recompute repair diverged from the oracle",
                            spec.name()
                        );
                    }
                }
                assert!(db.fold_log().is_empty() == report.verdict.healthy());

                println!(
                    "{}",
                    fmt_row(
                        &[
                            spec.name(),
                            site.label().into(),
                            kind_label(kind).into(),
                            report.verdict.label().into(),
                            report.attempts.to_string(),
                            report.retries.to_string(),
                            report.quarantine.len().to_string(),
                            report.committed_changes.to_string(),
                            report.total_accesses().to_string(),
                        ],
                        WIDTHS
                    )
                );
                scenarios.push(Scenario {
                    engine: spec.name(),
                    site: site.label().to_string(),
                    kind: kind_label(kind),
                    budget: None,
                    report,
                });
            }
        }
    }

    // ── Budget levels (no fault): overrun → bisect → converge. ─────
    println!("\nround-budget sweep (no fault; budget as % of the clean round's cost):");
    for spec in ENGINES {
        let (mut db_probe, ivm_probe) = prepared(spec, &cfg, d, TraceConfig::disabled());
        let net = db_probe.fold_log();
        let before = db_probe.stats().snapshot();
        ivm_probe
            .maintain_with_changes(&mut db_probe, &net)
            .expect("probe round");
        let full_cost = db_probe.stats().snapshot().since(&before).total();

        for pct in [75u64, 40] {
            let cap = (full_cost * pct / 100).max(1);
            let (mut db, mut ivm) = prepared(spec, &cfg, d, TraceConfig::disabled());
            let config = SupervisorConfig {
                budget: RoundBudget::capped(cap),
                max_retries: 1,
                ..SupervisorConfig::seeded(seed)
            };
            let report = MaintenanceSupervisor::new(&mut ivm, config).run(&mut db);
            assert_eq!(
                report.verdict,
                SupervisorVerdict::Converged,
                "{} budget {pct}%: {:?}",
                spec.name(),
                report.errors
            );
            assert!(
                report.budget_aborts >= 1,
                "{} budget {pct}%: cap {cap} of {full_cost} never fired",
                spec.name()
            );
            assert_eq!(
                sorted(ivm.visible_rows(&db).expect("view")),
                sorted(recompute_rows(&db, ivm.plan()).expect("oracle")),
                "{} budget {pct}% diverged from the oracle",
                spec.name()
            );
            println!(
                "  {:<16} cap {:>8} ({pct:>2}% of {full_cost:>8})  aborts {:>2}  attempts {:>3}  \
                 verdict {}",
                spec.name(),
                cap,
                report.budget_aborts,
                report.attempts,
                report.verdict.label()
            );
            scenarios.push(Scenario {
                engine: spec.name(),
                site: "none".to_string(),
                kind: "budget",
                budget: Some(cap),
                report,
            });
        }
    }

    // ── Guard 3: report determinism across runs and thread counts. ─
    println!("\nreport-determinism guard (permanent diff fault, two runs + P=4):");
    let mut determinism_rows: Vec<String> = Vec::new();
    for (family, serial_idx, parallel_idx) in [("idIVM", 0usize, 1usize), ("tuple", 2, 3)] {
        let run_one = |spec: &EngineSpec| -> String {
            let (mut db, mut ivm) = prepared(spec, &cfg, d, TraceConfig::disabled());
            ivm.set_faults(FaultPlan::at_diff(3, seed).permanent());
            MaintenanceSupervisor::new(&mut ivm, SupervisorConfig::seeded(seed))
                .run(&mut db)
                .to_json()
        };
        let a = run_one(&ENGINES[serial_idx]);
        let b = run_one(&ENGINES[serial_idx]);
        let c = run_one(&ENGINES[parallel_idx]);
        assert_eq!(a, b, "{family}: report differs between identical runs");
        assert_eq!(a, c, "{family}: report differs between thread counts");
        println!("  {family:<8} identical across runs and P=1/P=4: true");
        determinism_rows.push(format!(
            "    {{\"engine\": \"{family}\", \"identical\": true}}"
        ));
    }

    // ── BENCH_chaos.json ───────────────────────────────────────────
    let scenario_rows: Vec<String> = scenarios
        .iter()
        .map(|s| {
            format!(
                "    {{\"engine\": \"{}\", \"site\": \"{}\", \"kind\": \"{}\", \
                 \"budget\": {}, \"report\": {}}}",
                s.engine,
                s.site,
                s.kind,
                s.budget.map_or("null".to_string(), |b| b.to_string()),
                s.report.to_json()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"chaos\",\n  \"seed\": {seed},\n  \"smoke\": {smoke},\n  \
         \"overhead_guard\": [\n{}\n  ],\n  \"scenarios\": [\n{}\n  ],\n  \
         \"determinism\": [\n{}\n  ]\n}}\n",
        overhead_rows.join(",\n"),
        scenario_rows.join(",\n"),
        determinism_rows.join(",\n")
    );
    std::fs::write("BENCH_chaos.json", &json).expect("write BENCH_chaos.json");
    println!("\nwrote BENCH_chaos.json ({} scenarios)", scenarios.len());
}

/// The trace JSON minus its `timings_us` line: phase timings are
/// wall-clock and legitimately differ run to run; everything else
/// (operator entries, access attribution, dummies) must not.
fn trace_fingerprint(t: &idivm_core::RoundTrace) -> String {
    t.to_json()
        .lines()
        .filter(|l| !l.contains("\"timings_us\""))
        .collect::<Vec<_>>()
        .join("\n")
}

fn kind_label(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Transient => "transient",
        FaultKind::Permanent => "permanent",
    }
}

const WIDTHS: &[usize] = &[16, 9, 10, 22, 9, 8, 12, 10, 10];
