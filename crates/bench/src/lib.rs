//! `idivm-bench`: the experiment harness regenerating every table and
//! figure of the paper's evaluation (Section 7).
//!
//! Binaries (`cargo run --release -p idivm-bench --bin <name>`):
//!
//! * `table2` — SPJ cost breakdown + model parameters (paper Table 2).
//! * `table3` — aggregate cost breakdown with cache (paper Table 3).
//! * `fig10` — BSMA speedups for Q7…Q*3 (paper Figure 10).
//! * `fig12` — parameter sweeps `diff-size | joins | selectivity |
//!   fanout` with all four systems (paper Figure 12).
//! * `analysis` — analytic speedup surfaces and model-vs-measured
//!   validation (paper Section 6).
//!
//! All binaries report the paper's cost unit (tuple accesses + index
//! lookups) and wall time; access counts are deterministic and
//! machine-independent, wall time is indicative.

use idivm_algebra::Plan;
use idivm_core::{Engine, IdIvm, IvmOptions, MaintenanceReport, RoundTrace, TraceConfig};
use idivm_reldb::Database;
use idivm_sdbt::{Sdbt, SdbtVariant};
use idivm_tuple::TupleIvm;
use idivm_types::Result;
use idivm_workloads::RunningExample;

/// One engine's measured round.
#[derive(Debug, Clone)]
pub struct Measured {
    pub label: &'static str,
    pub report: MaintenanceReport,
}

impl Measured {
    /// Total accesses (the paper's cost unit).
    pub fn cost(&self) -> u64 {
        self.report.total_accesses()
    }

    /// Wall-clock milliseconds.
    pub fn millis(&self) -> f64 {
        self.report.wall.as_secs_f64() * 1e3
    }
}

/// Run one running-example round on all four systems (fresh databases,
/// identical seeds) and return their reports in the order
/// `[idIVM, tuple, SDBT-fixed, SDBT-streams]`.
///
/// # Errors
/// Any engine failure (a bug).
pub fn run_running_example_round(
    cfg: &RunningExample,
    aggregate: bool,
    diff_size: usize,
) -> Result<Vec<Measured>> {
    run_running_example_round_traced(cfg, aggregate, diff_size, TraceConfig::disabled())
}

/// [`run_running_example_round`] with per-operator trace recording.
/// Each returned report carries a [`RoundTrace`] when `trace` is
/// enabled.
///
/// # Errors
/// Any engine failure (a bug).
pub fn run_running_example_round_traced(
    cfg: &RunningExample,
    aggregate: bool,
    diff_size: usize,
    trace: TraceConfig,
) -> Result<Vec<Measured>> {
    run_running_example_round_configured(cfg, aggregate, diff_size, trace, true)
}

/// [`run_running_example_round_traced`] with the round's rollback
/// machinery (undo journaling, [`Database::set_round_undo`]) switchable
/// — `round_undo = false` gives the pre-atomicity baseline the
/// `rollback_overhead` guard compares against.
///
/// # Errors
/// Any engine failure (a bug).
pub fn run_running_example_round_configured(
    cfg: &RunningExample,
    aggregate: bool,
    diff_size: usize,
    trace: TraceConfig,
    round_undo: bool,
) -> Result<Vec<Measured>> {
    let fresh = || -> Result<(Database, Plan)> {
        let mut db = cfg.build()?;
        db.set_round_undo(round_undo);
        let plan = if aggregate {
            cfg.agg_plan(&db)?
        } else {
            cfg.spj_plan(&db)?
        };
        Ok((db, plan))
    };
    let mut out = Vec::new();

    let (mut db, plan) = fresh()?;
    let ivm = IdIvm::setup(&mut db, "V", plan, IvmOptions::default())?;
    out.push(measure("ID-based IVM", db, ivm, cfg, diff_size, trace)?);

    let (mut db, plan) = fresh()?;
    let ivm = TupleIvm::setup(&mut db, "V", plan)?;
    out.push(measure("Tuple-based IVM", db, ivm, cfg, diff_size, trace)?);

    let (mut db, plan) = fresh()?;
    let partial = cfg.sdbt_parts_partial(&db)?;
    let fixed = SdbtVariant::Fixed("parts".to_string());
    let sdbt = Sdbt::setup(&mut db, "V", plan, vec![partial], fixed)?;
    out.push(measure("SDBT-fixed", db, sdbt, cfg, diff_size, trace)?);

    let (mut db, plan) = fresh()?;
    let partials = cfg.sdbt_all_partials(&db)?;
    let sdbt = Sdbt::setup(&mut db, "V", plan, partials, SdbtVariant::Streams)?;
    out.push(measure("SDBT-streams", db, sdbt, cfg, diff_size, trace)?);
    Ok(out)
}

/// Warm `ivm` up with one round, then measure the next one from reset
/// access counters.
fn measure<E: Engine>(
    label: &'static str,
    mut db: Database,
    mut ivm: E,
    cfg: &RunningExample,
    diff_size: usize,
    trace: TraceConfig,
) -> Result<Measured> {
    ivm.set_trace(trace);
    cfg.price_update_batch(&mut db, diff_size, 0)?;
    let _ = ivm.maintain(&mut db)?;
    cfg.price_update_batch(&mut db, diff_size, 1)?;
    db.stats().reset();
    let report = ivm.maintain(&mut db)?;
    Ok(Measured { label, report })
}

/// Bundle the traces of several measured systems into one JSON
/// document (`{"bench": ..., "systems": [{"label", "total_accesses",
/// "trace"}]}`); systems measured without a trace are skipped. See
/// `EXPERIMENTS.md` for the schema.
pub fn traces_to_json(bench: &str, measured: &[Measured]) -> String {
    let systems: Vec<String> = measured
        .iter()
        .filter_map(|m| {
            m.report.trace.as_ref().map(|t: &RoundTrace| {
                format!(
                    "    {{\"label\": \"{}\", \"total_accesses\": {}, \"trace\": {}}}",
                    m.label,
                    m.report.total_accesses(),
                    t.to_json()
                )
            })
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"systems\": [\n{}\n  ]\n}}\n",
        systems.join(",\n")
    )
}

/// Access-count cost of one system's no-fault round with the rollback
/// machinery armed (`with_undo`, the default) vs disarmed
/// (`without_undo`, `Database::set_round_undo(false)`).
#[derive(Debug, Clone)]
pub struct RollbackOverhead {
    pub label: &'static str,
    pub with_undo: u64,
    pub without_undo: u64,
}

impl RollbackOverhead {
    /// Relative overhead in percent (0 when the baseline is 0).
    pub fn pct(&self) -> f64 {
        if self.without_undo == 0 {
            return 0.0;
        }
        (self.with_undo as f64 / self.without_undo as f64 - 1.0) * 100.0
    }
}

/// Measure the rollback-machinery overhead of a clean round for all
/// four systems: the same round is run with undo journaling armed and
/// disarmed, and the access totals compared. Journaling is designed to
/// stay off the counted access paths, so the expected overhead is 0%;
/// the fig12 binary guards it under 10%.
///
/// # Errors
/// Any engine failure (a bug).
pub fn rollback_overhead(
    cfg: &RunningExample,
    aggregate: bool,
    diff_size: usize,
) -> Result<Vec<RollbackOverhead>> {
    let on = run_running_example_round_configured(
        cfg,
        aggregate,
        diff_size,
        TraceConfig::disabled(),
        true,
    )?;
    let off = run_running_example_round_configured(
        cfg,
        aggregate,
        diff_size,
        TraceConfig::disabled(),
        false,
    )?;
    Ok(on
        .iter()
        .zip(&off)
        .map(|(a, b)| RollbackOverhead {
            label: a.label,
            with_undo: a.cost(),
            without_undo: b.cost(),
        })
        .collect())
}

/// Like [`traces_to_json`], with a `"rollback_overhead"` section
/// appended (the fig12 guard's machine-readable record).
pub fn traces_and_overhead_to_json(
    bench: &str,
    measured: &[Measured],
    overheads: &[RollbackOverhead],
) -> String {
    let mut json = traces_to_json(bench, measured);
    let rows: Vec<String> = overheads
        .iter()
        .map(|o| {
            format!(
                "    {{\"label\": \"{}\", \"with_undo\": {}, \"without_undo\": {}, \
                 \"overhead_pct\": {:.4}}}",
                o.label,
                o.with_undo,
                o.without_undo,
                o.pct()
            )
        })
        .collect();
    let section = format!(",\n  \"rollback_overhead\": [\n{}\n  ]\n}}\n", rows.join(",\n"));
    // Reopen the document: drop the closing `}` (and the whitespace
    // around it) left by `traces_to_json`.
    json.truncate(json.trim_end().len() - 1);
    json.truncate(json.trim_end().len());
    json.push_str(&section);
    json
}

/// Render a speedup row: `baseline cost / subject cost`.
pub fn speedup(subject: &Measured, baseline: &Measured) -> f64 {
    if subject.cost() == 0 {
        return f64::INFINITY;
    }
    baseline.cost() as f64 / subject.cost() as f64
}

/// Fixed-width table cell helpers for the report binaries.
pub fn fmt_row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_produces_all_four_systems() {
        let cfg = RunningExample {
            n_parts: 100,
            n_devices: 80,
            fanout: 3,
            selectivity_pct: 30,
            joins: 2,
            seed: 3,
        };
        let measured = run_running_example_round(&cfg, true, 10).unwrap();
        assert_eq!(measured.len(), 4);
        let labels: Vec<&str> = measured.iter().map(|m| m.label).collect();
        assert_eq!(
            labels,
            vec!["ID-based IVM", "Tuple-based IVM", "SDBT-fixed", "SDBT-streams"]
        );
        // The paper's ordering on the update workload:
        // fixed ≤ id < tuple, streams worst.
        let cost: Vec<u64> = measured.iter().map(Measured::cost).collect();
        assert!(cost[0] < cost[1], "id {} < tuple {}", cost[0], cost[1]);
        assert!(cost[3] > cost[2], "streams {} > fixed {}", cost[3], cost[2]);
    }

    #[test]
    fn speedup_ratio() {
        let mk = |total: u64| Measured {
            label: "x",
            report: {
                MaintenanceReport {
                    view_update: idivm_reldb::StatsSnapshot {
                        tuple_accesses: total,
                        index_lookups: 0,
                    },
                    ..Default::default()
                }
            },
        };
        assert!((speedup(&mk(10), &mk(40)) - 4.0).abs() < 1e-12);
    }
}
