//! Section 6 — analytic speedup surfaces, and validation of the model
//! against measured runs across a small parameter sweep.
//!
//! Usage: `idivm-bench analysis` (no flags, no guards; the numbers are
//! pinned by `tests/outputs.rs`).

use crate::table2::{observed, spj_round};
use idivm_bench::Args;
use idivm_cost::SpjModel;
use idivm_types::Result;
use idivm_workloads::RunningExample;

pub fn run(_: &Args) -> Result<()> {
    println!("Section 6.1 — analytic SPJ speedup (a + 2p) / (1 + p):\n");
    print!("{:>8}", "a \\ p");
    let ps = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0];
    for p in ps {
        print!("{p:>8.2}");
    }
    println!();
    for a in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
        print!("{a:>8.1}");
        for p in ps {
            let s = SpjModel { a, p }.speedup_nonconditional_update();
            print!("{s:>8.2}");
        }
        println!();
    }
    println!("\n(corner case a < 1 - p, the only region where tuple-based wins,");
    println!(" requires sub-unit probe cost AND severe overestimation — Section 6.1)\n");

    println!("Model-vs-measured validation (running example, SPJ, d=100):");
    println!(
        "{:>8} {:>10} {:>10} {:>12} {:>12} {:>8}",
        "fanout", "p", "a", "predicted", "measured", "err%"
    );
    for fanout in [5usize, 10, 20] {
        let cfg = RunningExample {
            n_parts: 2_000,
            n_devices: 2_000,
            fanout,
            selectivity_pct: 20,
            joins: 2,
            seed: 42,
        };
        let obs = observed(&spj_round(&cfg, 100)?);
        let model = obs.spj_model();
        println!(
            "{:>8} {:>10.3} {:>10.3} {:>11.2}x {:>11.2}x {:>8.1}",
            fanout,
            model.p,
            model.a,
            model.speedup_nonconditional_update(),
            obs.observed_speedup(),
            obs.spj_prediction_error() * 100.0
        );
    }
    Ok(())
}
