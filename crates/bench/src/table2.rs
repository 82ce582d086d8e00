//! Table 2 — cost breakdown of ID-based vs tuple-based IVM on the SPJ
//! view V (update diffs on the non-conditional `price` attribute), plus
//! the Section 6.1 model check: measured vs predicted speedup
//! `(a + 2p) / (1 + p)`.
//!
//! Usage: `idivm-bench table2` (no flags, no guards; the numbers are
//! pinned by `tests/outputs.rs`).

use idivm_bench::{running_example_lane, Args, EngineKind};
use idivm_core::{IvmOptions, MaintenanceReport};
use idivm_cost::ObservedParams;
use idivm_types::Result;
use idivm_workloads::RunningExample;

/// One warm-then-measured round of `d` price updates on the SPJ view,
/// `[ID-based, tuple-based]`.
pub fn spj_round(cfg: &RunningExample, d: usize) -> Result<[MaintenanceReport; 2]> {
    let measure = |kind| {
        running_example_lane(cfg, kind, IvmOptions::default(), false)?
            .warm_then_measure(|db, r| cfg.price_update_batch(db, d, r))
    };
    Ok([measure(EngineKind::IdIvm)?, measure(EngineKind::Tuple)?])
}

/// The Section 6.1 model's measured inputs from [`spj_round`]'s reports.
pub fn observed([ri, rt]: &[MaintenanceReport; 2]) -> ObservedParams {
    ObservedParams {
        base_diff_tuples: ri.base_diff_tuples as u64,
        id_view_diff_tuples: ri.view_diff_tuples as u64,
        id_view_modified: ri.view_outcome.updated
            + ri.view_outcome.inserted
            + ri.view_outcome.deleted,
        tuple_diff_compute: rt.diff_compute.total(),
        id_total: ri.total_accesses(),
        tuple_total: rt.total_accesses(),
    }
}

pub fn run(_: &Args) -> Result<()> {
    let d = 200;
    let cfg = RunningExample::default();
    println!("Table 2 — SPJ view V, {d} non-conditional update diffs on parts.price");
    println!(
        "relations: parts {}  devices {}  links ~{}\n",
        cfg.n_parts,
        cfg.n_devices,
        cfg.n_devices * cfg.fanout
    );
    let reports = spj_round(&cfg, d)?;
    let [ri, rt] = &reports;

    println!(
        "{:<28} {:>12} {:>12}",
        "cost component", "ID-based", "tuple-based"
    );
    for (component, id, tuple) in [
        (
            "diff computation",
            ri.diff_compute.total(),
            rt.diff_compute.total(),
        ),
        (
            "view index lookups",
            ri.view_update.index_lookups,
            rt.view_update.index_lookups,
        ),
        (
            "view tuple accesses",
            ri.view_update.tuple_accesses,
            rt.view_update.tuple_accesses,
        ),
        ("TOTAL", ri.total_accesses(), rt.total_accesses()),
    ] {
        println!("{component:<28} {id:>12} {tuple:>12}");
    }

    let obs = observed(&reports);
    let model = obs.spj_model();
    println!("\nSection 6.1 model parameters (measured):");
    println!("  p (compression factor |D_V|/|∆_V|) = {:.3}", model.p);
    println!("  a (tuple accesses per diff tuple)  = {:.3}", model.a);
    println!(
        "  predicted speedup (a+2p)/(1+p)     = {:.2}x",
        model.speedup_nonconditional_update()
    );
    println!(
        "  measured speedup                   = {:.2}x",
        obs.observed_speedup()
    );
    println!(
        "  relative prediction error          = {:.1}%",
        obs.spj_prediction_error() * 100.0
    );
    Ok(())
}
