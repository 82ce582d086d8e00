//! Chaos sweep — the self-healing maintenance supervisor under
//! `FaultSite × FaultKind × budget` across every engine configuration.
//!
//! Usage:
//! ```text
//! cargo run --release -p idivm-bench -- chaos [--smoke] [--scale N]
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

use idivm_bench::{
    fmt_row, overhead_pct, running_example_lane, Args, EngineKind, Json, Lane, CHAOS_SEED,
};
use idivm_core::{
    Engine, EngineConfig, FaultKind, FaultPlan, FaultSite, IvmOptions, MaintenanceReport,
    MaintenanceSupervisor, RoundBudget, SupervisorConfig, SupervisorReport, SupervisorVerdict,
    TraceConfig,
};
use idivm_exec::ParallelConfig;
use idivm_types::Result;
use idivm_workloads::RunningExample;

/// Every engine configuration swept: system × thread count.
const ENGINES: &[(EngineKind, usize)] = &[
    (EngineKind::IdIvm, 1),
    (EngineKind::IdIvm, 4),
    (EngineKind::Tuple, 1),
    (EngineKind::Tuple, 4),
    (EngineKind::SdbtFixed, 1),
    (EngineKind::SdbtStreams, 1),
];

fn name((kind, threads): (EngineKind, usize)) -> String {
    let label = match kind {
        EngineKind::IdIvm => "idIVM",
        EngineKind::Tuple => "tuple",
        EngineKind::SdbtFixed | EngineKind::SdbtStreams => kind.label(),
    };
    if threads > 1 {
        format!("{label} P={threads}")
    } else {
        label.to_string()
    }
}

/// Build, warm up (one clean round), and stage the measured batch.
fn prepared(
    (kind, threads): (EngineKind, usize),
    cfg: &RunningExample,
    d: usize,
    trace: TraceConfig,
) -> Result<Lane> {
    let parallel = ParallelConfig {
        threads,
        min_shard_rows: 2,
    };
    let options = IvmOptions {
        parallel,
        trace,
        ..IvmOptions::default()
    };
    let mut lane = running_example_lane(cfg, kind, options, true)?;
    cfg.price_update_batch(&mut lane.db, d, 0)?;
    let warm = supervise(&mut lane, SupervisorConfig::default());
    assert_eq!(warm.verdict, SupervisorVerdict::Converged, "warmup");
    cfg.price_update_batch(&mut lane.db, d, 1)?;
    Ok(lane)
}

/// Drive the staged batch through the bare engine (no supervisor):
/// the round's report and its counted cost.
fn plain_round(lane: &mut Lane) -> Result<(MaintenanceReport, u64)> {
    let net = lane.db.fold_log();
    let before = lane.db.stats().snapshot();
    let report = lane.engine.maintain_with_changes(&mut lane.db, &net)?;
    Ok((report, lane.db.stats().snapshot().since(&before).total()))
}

fn supervise(lane: &mut Lane, config: SupervisorConfig) -> SupervisorReport {
    MaintenanceSupervisor::new(&mut lane.engine, config).run(&mut lane.db)
}

/// One scenario's JSON record.
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
        ("budget", budget.map_or(Json::Null, Json::from)),
        ("report", Json::Raw(report.to_json())),
    ])
}

pub fn run(args: &Args) -> Result<()> {
    let smoke = args.smoke;
    let scale = args.or(args.scale, 0.2, 1.0);
    let seed = args.fault_seed.unwrap_or(CHAOS_SEED);

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
    let mut overhead_rows = Vec::new();
    for &spec in ENGINES {
        let who = name(spec);
        let mut plain_lane = prepared(spec, &cfg, d, TraceConfig::enabled())?;
        let (plain, plain_cost) = plain_round(&mut plain_lane)?;
        plain_lane.db.clear_log();

        let mut lane = prepared(spec, &cfg, d, TraceConfig::enabled())?;
        let report = supervise(&mut lane, SupervisorConfig::seeded(seed));
        assert_eq!(report.verdict, SupervisorVerdict::Converged, "{who}");
        let sup_cost = report.total_accesses();
        let pct = overhead_pct(sup_cost as f64, plain_cost as f64);
        let plain_trace = plain.trace.as_ref().map(trace_fingerprint);
        let sup_trace = report
            .last_round
            .as_ref()
            .and_then(|r| r.trace.as_ref())
            .map(trace_fingerprint);
        let trace_identical = plain_trace == sup_trace && plain_trace.is_some();
        println!(
            "  {who:<16} plain {plain_cost:>9}  supervised {sup_cost:>9}  overhead {pct:+.3}%  \
             trace identical: {trace_identical}"
        );
        assert!(
            pct.abs() < 2.0,
            "{who}: supervised clean round cost diverges by {pct:.3}% (>2% guard)"
        );
        assert!(
            trace_identical,
            "{who}: supervised round trace differs from the plain engine's"
        );
        assert_eq!(
            lane.db.signature(),
            plain_lane.db.signature(),
            "{who}: supervised database diverged from the plain engine's"
        );
        overhead_rows.push(Json::inline([
            ("engine", who.as_str().into()),
            ("plain_cost", plain_cost.into()),
            ("supervised_cost", sup_cost.into()),
            ("overhead_pct", Json::Fixed(pct, 4)),
            ("trace_identical", trace_identical.into()),
        ]));
    }

    // ── Guard 2 + sweep: FaultSite × FaultKind (budget unlimited). ─
    println!("\nfault sweep (site × kind, budget unlimited):");
    let header = [
        "engine",
        "site",
        "kind",
        "verdict",
        "attempts",
        "retries",
        "quarantined",
        "committed",
        "accesses",
    ];
    println!("{}", fmt_row(&header.map(String::from), WIDTHS));
    let mut scenarios = Vec::new();
    let sites = [
        FaultSite::Operator,
        FaultSite::Apply,
        FaultSite::Access,
        FaultSite::Diff,
    ];
    let kinds = [FaultKind::Transient, FaultKind::Permanent];
    for &spec in ENGINES {
        let who = name(spec);
        for site in sites {
            for kind in kinds {
                let plan = {
                    let base = match site {
                        FaultSite::Operator => FaultPlan::at(FaultSite::Operator, 0, seed),
                        FaultSite::Apply => FaultPlan::at(FaultSite::Apply, 0, seed),
                        FaultSite::Access => FaultPlan::at(FaultSite::Access, 1, seed),
                        FaultSite::Diff => FaultPlan::at(FaultSite::Diff, 3, seed),
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
                let mut lane = prepared(spec, &cfg, d, TraceConfig::disabled())?;
                let net = lane.db.fold_log();
                let total: usize = net.values().map(|c| c.len()).sum();
                let poison: usize = net
                    .values()
                    .flat_map(|c| c.keys())
                    .filter(|k| plan.is_poison_key(k))
                    .count();
                lane.engine.set_faults(plan);
                let report = supervise(&mut lane, SupervisorConfig::seeded(seed));

                // Chaos invariants.
                match (kind, site) {
                    (FaultKind::Transient, _) => {
                        assert_eq!(
                            report.verdict,
                            SupervisorVerdict::Converged,
                            "{who} {site:?} transient: {:?}",
                            report.errors
                        );
                        assert!(
                            lane.agrees_with_oracle()?,
                            "{who} {site:?} transient diverged from the oracle"
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
                                "{who}: {:?}",
                                report.errors
                            );
                            assert_eq!(
                                report.quarantine.len(),
                                poison,
                                "{who}: quarantine is not the predicted poison set"
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
                            "{who} {site:?} permanent: {:?}",
                            report.errors
                        );
                        assert!(
                            lane.agrees_with_oracle()?,
                            "{who} {site:?} recompute repair diverged from the oracle"
                        );
                    }
                }
                assert!(lane.db.fold_log().is_empty() == report.verdict.healthy());

                println!(
                    "{}",
                    fmt_row(
                        &[
                            who.clone(),
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
                scenarios.push(scenario(
                    &who,
                    site.label(),
                    kind_label(kind),
                    None,
                    &report,
                ));
            }
        }
    }

    // ── Budget levels (no fault): overrun → bisect → converge. ─────
    println!("\nround-budget sweep (no fault; budget as % of the clean round's cost):");
    for &spec in ENGINES {
        let who = name(spec);
        let mut probe = prepared(spec, &cfg, d, TraceConfig::disabled())?;
        let (_, full_cost) = plain_round(&mut probe)?;

        for pct in [75u64, 40] {
            let cap = (full_cost * pct / 100).max(1);
            let mut lane = prepared(spec, &cfg, d, TraceConfig::disabled())?;
            let config = SupervisorConfig {
                budget: RoundBudget::capped(cap),
                max_retries: 1,
                ..SupervisorConfig::seeded(seed)
            };
            let report = supervise(&mut lane, config);
            assert_eq!(
                report.verdict,
                SupervisorVerdict::Converged,
                "{who} budget {pct}%: {:?}",
                report.errors
            );
            assert!(
                report.budget_aborts >= 1,
                "{who} budget {pct}%: cap {cap} of {full_cost} never fired"
            );
            assert!(
                lane.agrees_with_oracle()?,
                "{who} budget {pct}% diverged from the oracle"
            );
            println!(
                "  {who:<16} cap {cap:>8} ({pct:>2}% of {full_cost:>8})  aborts {:>2}  attempts {:>3}  \
                 verdict {}",
                report.budget_aborts,
                report.attempts,
                report.verdict.label()
            );
            scenarios.push(scenario(&who, "none", "budget", Some(cap), &report));
        }
    }

    // ── Guard 3: report determinism across runs and thread counts. ─
    println!("\nreport-determinism guard (permanent diff fault, two runs + P=4):");
    let mut determinism_rows = Vec::new();
    for (family, serial_idx, parallel_idx) in [("idIVM", 0usize, 1usize), ("tuple", 2, 3)] {
        let run_one = |spec| -> Result<String> {
            let mut lane = prepared(spec, &cfg, d, TraceConfig::disabled())?;
            lane.engine
                .set_faults(FaultPlan::at(FaultSite::Diff, 3, seed).permanent());
            Ok(supervise(&mut lane, SupervisorConfig::seeded(seed)).to_json())
        };
        let a = run_one(ENGINES[serial_idx])?;
        let b = run_one(ENGINES[serial_idx])?;
        let c = run_one(ENGINES[parallel_idx])?;
        assert_eq!(a, b, "{family}: report differs between identical runs");
        assert_eq!(a, c, "{family}: report differs between thread counts");
        println!("  {family:<8} identical across runs and P=1/P=4: true");
        determinism_rows.push(Json::inline([
            ("engine", family.into()),
            ("identical", true.into()),
        ]));
    }

    // ── BENCH_chaos.json ───────────────────────────────────────────
    let count = scenarios.len();
    Json::block([
        ("bench", "chaos".into()),
        ("seed", seed.into()),
        ("smoke", smoke.into()),
        ("overhead_guard", Json::rows(overhead_rows)),
        ("scenarios", Json::rows(scenarios)),
        ("determinism", Json::rows(determinism_rows)),
    ])
    .write("BENCH_chaos.json")?;
    println!("\nwrote BENCH_chaos.json ({count} scenarios)");
    Ok(())
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
