//! Table 3 — cost breakdown of ID-based vs tuple-based IVM on the
//! aggregate view V′ (grouping with SUM over the SPJ subview), where
//! the ID-based engine maintains the intermediate cache and the
//! tuple-based engine cannot benefit from one. Includes the Section 6.2
//! model check `(a + 2pg) / (1 + p + 2pg)`.
//!
//! Usage: `idivm-bench table3` (no flags). Guard: the ID-based engine
//! materialized exactly one input cache beside the view.

use idivm_bench::{running_example_lane, Args, EngineKind, Lane};
use idivm_core::{IdIvm, IvmOptions};
use idivm_cost::AggModel;
use idivm_types::Result;
use idivm_workloads::RunningExample;

pub fn run(_: &Args) -> Result<()> {
    let d = 200;
    let cfg = RunningExample::default();
    println!("Table 3 — aggregate view V', {d} non-conditional update diffs on parts.price");
    println!(
        "relations: parts {}  devices {}  links ~{}\n",
        cfg.n_parts,
        cfg.n_devices,
        cfg.n_devices * cfg.fanout
    );

    // ID-based (with intermediate cache), set up by hand because the
    // guard needs the concrete engine, vs tuple-based (no cache).
    let mut db = cfg.build()?;
    let plan = cfg.agg_plan(&db)?;
    let ivm = IdIvm::setup(&mut db, "V", plan, IvmOptions::default())?;
    assert_eq!(ivm.caches().len(), 1, "input cache expected");
    let engine = Box::new(ivm);
    let mut id = Lane { db, engine };
    let mut tuple = running_example_lane(&cfg, EngineKind::Tuple, IvmOptions::default(), true)?;
    let ri = id.warm_then_measure(|db, r| cfg.price_update_batch(db, d, r))?;
    let rt = tuple.warm_then_measure(|db, r| cfg.price_update_batch(db, d, r))?;

    println!(
        "{:<30} {:>12} {:>12}",
        "cost component", "ID-based", "tuple-based"
    );
    println!("{:<30} {:>12} {:>12}", "cache diff computation", 0, "-");
    println!(
        "{:<30} {:>12} {:>12}",
        "cache update (lookups+tuples)",
        ri.cache_update.total(),
        "-"
    );
    for (component, id, tuple) in [
        (
            "view diff computation",
            ri.diff_compute.total(),
            rt.diff_compute.total(),
        ),
        (
            "view update",
            ri.view_update.total(),
            rt.view_update.total(),
        ),
        ("TOTAL", ri.total_accesses(), rt.total_accesses()),
    ] {
        println!("{component:<30} {id:>12} {tuple:>12}");
    }

    // Model parameters. p is measured at the cache (SPJ subview):
    // cache rows modified per base diff tuple; g at the view.
    let modified_cache =
        (ri.cache_outcome.updated + ri.cache_outcome.inserted + ri.cache_outcome.deleted) as f64;
    let dcount = ri.base_diff_tuples.max(1) as f64;
    let p = modified_cache / dcount;
    let g = if modified_cache == 0.0 {
        0.0
    } else {
        (ri.view_outcome.updated + ri.view_outcome.inserted + ri.view_outcome.deleted) as f64
            / modified_cache
    };
    let a = rt.diff_compute.total() as f64 / dcount;
    let model = AggModel { a, p, g, k: 0.0 };
    println!("\nSection 6.2 model parameters (measured):");
    println!(
        "  p = {p:.3}   g = {g:.3}   a = {a:.3}   (feasible: a >= 1+p: {})",
        model.is_feasible()
    );
    println!(
        "  predicted speedup (a+2pg)/(1+p+2pg) = {:.2}x",
        model.speedup_nonconditional_update()
    );
    println!(
        "  measured speedup                    = {:.2}x",
        rt.total_accesses() as f64 / ri.total_accesses().max(1) as f64
    );
    Ok(())
}
