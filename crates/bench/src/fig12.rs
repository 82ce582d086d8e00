//! Figure 12 — view-maintenance cost of ID-based IVM vs tuple-based IVM
//! vs the two SDBT variants while varying (a) diff size, (b) number of
//! joins, (c) selectivity, (d) fanout.
//!
//! Usage:
//! ```text
//! cargo run --release -p idivm-bench -- fig12 [diff-size|joins|selectivity|fanout|all] [--scale N] [--smoke]
//! ```
//!
//! Output: one block per sweep. For each parameter value the cost (in
//! the paper's access unit) of the four systems, the per-phase
//! breakdown of A and B (the stacked bars of Figure 12), and the
//! speedup of ID-based over tuple-based IVM. A final instrumented round
//! at the default configuration writes a per-operator trace for all
//! four systems to `BENCH_fig12_trace.json` (schema in
//! `EXPERIMENTS.md`). `--smoke` shrinks the data for CI.
//!
//! Guard: the rollback machinery (undo journaling armed vs disarmed)
//! costs every system under 10 % in counted accesses (expected 0 %).

use idivm_bench::{
    fmt_row, four_systems_round, overhead_pct, rollback_overhead, speedup, trace_report, Args,
    Json, Measured,
};
use idivm_core::TraceConfig;
use idivm_types::Result;
use idivm_workloads::RunningExample;

pub fn run(args: &Args) -> Result<()> {
    let scale = args.or(args.scale, 0.02, 1.0);
    let base = RunningExample {
        n_parts: (5_000.0 * scale) as usize,
        n_devices: (5_000.0 * scale) as usize,
        fanout: 10,
        selectivity_pct: 20,
        joins: 2,
        seed: 42,
    };
    println!("Figure 12 — running-example parameter sweeps (aggregate view V')");
    println!(
        "relations: parts {}  devices {}  devices_parts ~{}  (paper: 5M/5M/50M)",
        base.n_parts,
        base.n_devices,
        base.n_devices * base.fanout
    );
    println!("defaults: d=200  s=20%  f=10  j=2  (paper Figure 11b)\n");

    let wanted = |sweep: &str| args.sweep == sweep || args.sweep == "all";
    if wanted("diff-size") {
        println!("(a) Varying diff size d (paper: speedup ~4-5, slight downtrend)");
        header();
        for d in [100, 200, 300, 400, 500] {
            row(&format!("d={d}"), &base, d)?;
        }
        println!();
    }
    if wanted("joins") {
        println!("(b) Varying number of joins j, selection disabled (paper: 1.2 -> 3.3, ID flat)");
        header();
        for joins in [2, 3, 4, 5, 6] {
            row(
                &format!("j={joins}"),
                &RunningExample {
                    joins,
                    ..base.clone()
                },
                200,
            )?;
        }
        println!();
    }
    if wanted("selectivity") {
        println!("(c) Varying selectivity s (paper: 15.9 at 6% -> 1.2 at 100%)");
        header();
        for s in [6, 12, 25, 50, 100] {
            let cfg = RunningExample {
                selectivity_pct: s,
                ..base.clone()
            };
            row(&format!("s={s}%"), &cfg, 200)?;
        }
        println!();
    }
    if wanted("fanout") {
        println!("(d) Varying fanout f (paper: speedup 4-5 across the range)");
        header();
        for fanout in [5, 10, 15, 20, 25] {
            row(
                &format!("f={fanout}"),
                &RunningExample {
                    fanout,
                    ..base.clone()
                },
                200,
            )?;
        }
        println!();
    }

    // Instrumented round at the default configuration: per-operator
    // trace (diff cardinalities, dummy diffs, access attribution,
    // phase timings) for all four systems.
    let d = if args.smoke { 20 } else { 200 };
    let traced = four_systems_round(&base, d, TraceConfig::enabled(), true)?;
    for m in &traced {
        if let Some(t) = &m.report.trace {
            let ratio = t
                .overestimation_ratio()
                .map_or("n/a".to_string(), |r| format!("{r:.4}"));
            println!(
                "trace {:<16} operators {:>2}  dummy diffs {:>4}  overestimation {ratio}",
                m.label,
                t.operators.len(),
                t.dummy_diffs()
            );
        }
    }
    // Rollback-machinery guard: a no-fault round with undo journaling
    // armed must cost (in the paper's access unit) within 10% of the
    // same round with it disarmed. Journaling is off the counted access
    // paths by design, so the expected overhead is exactly 0%.
    println!("\nrollback-machinery overhead (no-fault round, undo on vs off):");
    let mut overheads = Vec::new();
    for (label, with_undo, without_undo) in rollback_overhead(&base, d)? {
        let pct = overhead_pct(with_undo as f64, without_undo as f64);
        println!(
            "  {label:<16} with {with_undo:>9}  without {without_undo:>9}  overhead {pct:.2}%"
        );
        assert!(
            pct < 10.0,
            "{label}: rollback machinery overhead {pct:.2}% exceeds the 10% guard"
        );
        overheads.push(Json::inline([
            ("label", label.into()),
            ("with_undo", with_undo.into()),
            ("without_undo", without_undo.into()),
            ("overhead_pct", Json::Fixed(pct, 4)),
        ]));
    }
    trace_report(
        "fig12",
        &traced,
        vec![("rollback_overhead", Json::rows(overheads))],
    )
    .write("BENCH_fig12_trace.json")?;
    println!("wrote BENCH_fig12_trace.json");
    Ok(())
}

const WIDTHS: &[usize] = &[8, 12, 12, 12, 12, 9, 22, 22];

fn header() {
    let cells = [
        "param",
        "A:ID",
        "B:tuple",
        "C:SDBT-fix",
        "D:SDBT-str",
        "speedup",
        "A breakdown",
        "B breakdown",
    ];
    println!("{}", fmt_row(&cells.map(String::from), WIDTHS));
}

/// One sweep point: all four systems on `cfg`, `d` price updates.
fn row(param: &str, cfg: &RunningExample, d: usize) -> Result<()> {
    let m = four_systems_round(cfg, d, TraceConfig::disabled(), true)?;
    let (a, b) = (&m[0], &m[1]);
    let breakdown = |x: &Measured| {
        format!(
            "c:{} u:{} v:{}",
            x.report.cache_update.total(),
            x.report.diff_compute.total(),
            x.report.view_update.total()
        )
    };
    println!(
        "{}",
        fmt_row(
            &[
                param.into(),
                a.cost().to_string(),
                b.cost().to_string(),
                m[2].cost().to_string(),
                m[3].cost().to_string(),
                format!("{:.1}x", speedup(a.cost(), b.cost())),
                breakdown(a),
                breakdown(b),
            ],
            WIDTHS
        )
    );
    Ok(())
}
