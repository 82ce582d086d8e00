//! Wall-clock rounds — one maintenance round per engine in
//! milliseconds, complementing the deterministic access counts.
//!
//! Usage:
//! ```text
//! cargo run --release -p idivm-bench -- wall [--smoke]
//! ```
//!
//! Groups (each row: a warm round, then 20 timed rounds of fresh
//! batches — the database advances between rounds, which keeps every
//! round non-trivial; `--smoke` times 2 on a tenth of the data):
//! * `spj_update_100`   — Figure 12-style SPJ view, 100 price updates.
//! * `agg_update_100`   — aggregate view V′ with cache, 100 price updates.
//! * `bsma_q7_update_50` — BSMA Q7, 50 user updates (Figure 10's flavor).
//! * `minimization_ablation` — Pass-4 ablation: idIVM with Figure-8
//!   rewrites on vs off (the paper reports >50 % improvements from this
//!   pass).
//!
//! Prints best and mean milliseconds per round; timings are indicative
//! and nothing is asserted or written.

use idivm_bench::{bsma_lane, running_example_lane, Args, EngineKind, Lane};
use idivm_core::IvmOptions;
use idivm_reldb::Database;
use idivm_types::Result;
use idivm_workloads::bsma::{Bsma, BsmaQuery};
use idivm_workloads::RunningExample;

/// Stages round `r`'s batch.
type Batch<'a> = &'a dyn Fn(&mut Database, u64) -> Result<()>;

/// Time `lane` and print its row.
fn row(rounds: u64, group: &str, engine: &str, mut lane: Lane, batch: Batch<'_>) -> Result<()> {
    let timed = lane.time_rounds(rounds, batch)?;
    let mean = timed.total_ms / rounds as f64;
    println!(
        "{group:<24} {engine:<12} {:>10.3} {mean:>10.3} {:>12}",
        timed.best_ms, timed.accesses
    );
    Ok(())
}

pub fn run(args: &Args) -> Result<()> {
    let (rounds, n, scale) = if args.smoke {
        (2, 200, 0.02)
    } else {
        (20, 2_000, 0.2)
    };
    let cfg = RunningExample {
        n_parts: n,
        n_devices: n,
        fanout: 10,
        selectivity_pct: 20,
        joins: 2,
        seed: 42,
    };
    let bsma = Bsma { scale, seed: 2015 };
    println!("Wall-clock maintenance rounds — {rounds} timed rounds per row");
    println!(
        "{:<24} {:<12} {:>10} {:>10} {:>12}",
        "group", "engine", "best ms", "mean ms", "accesses"
    );
    let prices: Batch = &|db, r| cfg.price_update_batch(db, 100, r);
    let users: Batch = &|db, r| bsma.user_update_batch(db, 50, r);
    let default = IvmOptions::default;
    let engines = [
        ("id_based", EngineKind::IdIvm),
        ("tuple_based", EngineKind::Tuple),
    ];
    for (group, aggregate) in [("spj_update_100", false), ("agg_update_100", true)] {
        for (engine, kind) in engines {
            let lane = running_example_lane(&cfg, kind, default(), aggregate)?;
            row(rounds, group, engine, lane, prices)?;
        }
    }
    for (engine, kind) in engines {
        let lane = bsma_lane(&bsma, BsmaQuery::Q7, kind, default())?;
        row(rounds, "bsma_q7_update_50", engine, lane, users)?;
    }
    for (engine, minimize) in [("pass4_on", true), ("pass4_off", false)] {
        let options = IvmOptions {
            minimize,
            ..default()
        };
        let lane = running_example_lane(&cfg, EngineKind::IdIvm, options, false)?;
        row(rounds, "minimization_ablation", engine, lane, prices)?;
    }
    Ok(())
}
