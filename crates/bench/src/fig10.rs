//! Figure 10 — speedup of ID-based over tuple-based IVM on the eight
//! BSMA social-analytics views, with 100 update diffs on
//! `users(tweetsnum, favornum)`.
//!
//! Usage:
//! ```text
//! cargo run --release -p idivm-bench -- fig10 [--scale N --diffs D --smoke]
//! ```
//!
//! Default scale 0.1 keeps the tuple-based baseline's Q*1 run (its
//! worst case — exactly the paper's point) under two minutes; raise
//! `--scale` toward 1.0 (= 1/1000 of the paper's data) when patient.
//! `--smoke` shrinks the data for CI. A final instrumented Q10 round
//! writes per-operator traces to `BENCH_fig10_trace.json` (schema in
//! `EXPERIMENTS.md`). No in-process guards.
//!
//! Paper reference speedups: Q7 29x, Q10 54x, Q11 26x, Q15 4x, Q18 14x,
//! Q*1 26x, Q*2 7x, Q*3 9x. Absolute values depend on data scale; the
//! *shape* to check: all > 1, Q10/Q*1 (long chains / late selectivity)
//! among the highest, Q15 (huge view) the lowest.

use idivm_bench::{
    bsma_lane, fmt_row, speedup, trace_report, with_trace, Args, EngineKind, Measured,
};
use idivm_core::TraceConfig;
use idivm_types::Result;
use idivm_workloads::bsma::{Bsma, BsmaQuery};

pub fn run(args: &Args) -> Result<()> {
    let scale = args.or(args.scale, 0.02, 0.1);
    let diffs = args.or(args.diffs, 20, 100);
    let cfg = Bsma { scale, seed: 2015 };
    println!("Figure 10 — BSMA social analytics, {diffs} update diffs on users");
    println!(
        "scale {scale} (1.0 = 1/1000 of the paper's data: 1k users, 20k tweets, 100k edges)\n"
    );
    println!("Figure 9a relation sizes at this scale:");
    {
        let db = cfg.build()?;
        for t in db.table_names() {
            println!("  {:<22} {:>8} tuples", t, db.table(t)?.len());
        }
    }
    println!();
    let widths = &[6usize, 12, 12, 9, 10, 10, 44];
    let header = [
        "query",
        "ID accesses",
        "tuple acc.",
        "speedup",
        "ID ms",
        "tuple ms",
        "description",
    ];
    println!("{}", fmt_row(&header.map(String::from), widths));
    // One warm round, then the measured one, per system.
    let measure = |q, kind: EngineKind, trace| -> Result<Measured> {
        let report = bsma_lane(&cfg, q, kind, with_trace(trace))?
            .warm_then_measure(|db, r| cfg.user_update_batch(db, diffs, r))?;
        Ok(Measured {
            label: kind.label(),
            report,
        })
    };
    for q in BsmaQuery::ALL {
        let id = measure(q, EngineKind::IdIvm, TraceConfig::disabled())?;
        let tuple = measure(q, EngineKind::Tuple, TraceConfig::disabled())?;
        println!(
            "{}",
            fmt_row(
                &[
                    q.label().into(),
                    id.cost().to_string(),
                    tuple.cost().to_string(),
                    format!("{:.1}x", speedup(id.cost(), tuple.cost())),
                    format!("{:.2}", id.report.wall.as_secs_f64() * 1e3),
                    format!("{:.2}", tuple.report.wall.as_secs_f64() * 1e3),
                    q.description().into(),
                ],
                widths
            )
        );
    }
    println!("\npaper (PostgreSQL, full scale): Q7 29x  Q10 54x  Q11 26x  Q15 4x  Q18 14x  Q*1 26x  Q*2 7x  Q*3 9x");

    // Instrumented Q10 round: per-operator trace for both engines.
    let measured = [
        measure(BsmaQuery::Q10, EngineKind::IdIvm, TraceConfig::enabled())?,
        measure(BsmaQuery::Q10, EngineKind::Tuple, TraceConfig::enabled())?,
    ];
    trace_report("fig10_q10", &measured, Vec::new()).write("BENCH_fig10_trace.json")?;
    println!("wrote BENCH_fig10_trace.json");
    Ok(())
}
