//! Scaling sweep — partitioned parallel maintenance on BSMA Q10,
//! thread counts P ∈ {1, 2, 4, 8}, for both the ID-based and the
//! tuple-based engine.
//!
//! Usage:
//! ```text
//! cargo run --release -p idivm-bench -- scaling [--scale N --diffs D --rounds R --smoke]
//! ```
//!
//! Reports wall time and total accesses per P and writes
//! `BENCH_scaling.json` into the current directory. Two invariants the
//! sweep checks (and the JSON records):
//!
//! * **Access counts are bit-identical across all P** — the fan-out only
//!   cuts the per-row/per-group work into chunks, it never changes which probes
//!   run (the determinism contract of `ParallelConfig`).
//! * Speedup is reported relative to P = 1; on a single-core host
//!   (`available_parallelism` = 1, recorded in the JSON) thread scaling
//!   cannot show wall-clock gains, so the counts invariant is the
//!   meaningful signal there.
//!
//! Guards: the counts invariant, per engine; the per-operator traces of
//! a P = 1 and a P = 4 round are identical.

use idivm_bench::{bsma_lane, Args, EngineKind, Json, Timed};
use idivm_core::{IvmOptions, RoundTrace, TraceConfig};
use idivm_exec::ParallelConfig;
use idivm_types::{Error, Result};
use idivm_workloads::bsma::{Bsma, BsmaQuery};

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn options(threads: usize, trace: TraceConfig) -> IvmOptions {
    IvmOptions {
        parallel: ParallelConfig::with_threads(threads),
        trace,
        ..IvmOptions::default()
    }
}

/// Sweep `kind` over [`THREADS`], print its table, check the counts
/// invariant and return its JSON rows.
fn sweep(label: &str, kind: EngineKind, cfg: &Bsma, diffs: usize, rounds: u64) -> Result<Json> {
    let mut points: Vec<(usize, Timed)> = Vec::new();
    for p in THREADS {
        let mut lane = bsma_lane(
            cfg,
            BsmaQuery::Q10,
            kind,
            options(p, TraceConfig::disabled()),
        )?;
        points.push((
            p,
            lane.time_rounds(rounds, |db, r| cfg.user_update_batch(db, diffs, r))?,
        ));
    }
    let p1 = points[0].1;
    println!("\n{label} (BSMA Q10):");
    println!(
        "{:>8}  {:>12}  {:>10}  {:>9}",
        "threads", "accesses", "best ms", "speedup"
    );
    let mut rows = Vec::new();
    for (threads, pt) in &points {
        let speedup = p1.best_ms / pt.best_ms;
        println!(
            "{threads:>8}  {:>12}  {:>10.2}  {speedup:>8.2}x",
            pt.accesses, pt.best_ms
        );
        rows.push(Json::inline([
            ("threads", (*threads).into()),
            ("accesses", pt.accesses.into()),
            ("wall_ms_best", Json::Fixed(pt.best_ms, 3)),
            ("wall_ms_total", Json::Fixed(pt.total_ms, 3)),
            ("speedup_vs_p1", Json::Fixed(speedup, 3)),
        ]));
        assert_eq!(
            pt.accesses, p1.accesses,
            "{label}: access counts diverged at P={threads} ({} vs {} at P=1)",
            pt.accesses, p1.accesses
        );
    }
    println!("  access counts identical across all P ✓");
    Ok(Json::rows(rows))
}

fn traced_round(cfg: &Bsma, diffs: usize, threads: usize) -> Result<RoundTrace> {
    bsma_lane(
        cfg,
        BsmaQuery::Q10,
        EngineKind::IdIvm,
        options(threads, TraceConfig::enabled()),
    )?
    .warm_then_measure(|db, r| cfg.user_update_batch(db, diffs, r))?
    .trace
    .ok_or_else(|| Error::Internal("trace enabled but absent".into()))
}

pub fn run(args: &Args) -> Result<()> {
    let scale = args.or(args.scale, 0.02, 0.2);
    let diffs = args.or(args.diffs, 20, 200);
    // At least one measured round, else best-of would be infinite.
    let rounds = args.or(args.rounds, 1, 3).max(1);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let cfg = Bsma { scale, seed: 2015 };
    println!(
        "Scaling sweep — BSMA Q10, scale {scale}, {diffs} update diffs × {rounds} rounds, host cores: {cores}"
    );
    let id_ivm = sweep("id_ivm", EngineKind::IdIvm, &cfg, diffs, rounds)?;
    let tuple_ivm = sweep("tuple_ivm", EngineKind::Tuple, &cfg, diffs, rounds)?;

    // One instrumented round at P=1 and P=4: the per-operator traces
    // (cardinalities and access attribution) must come out identical —
    // the trace layer rides the serial plan walk, so thread count
    // cannot shift attribution.
    let t1 = traced_round(&cfg, diffs, 1)?;
    let t4 = traced_round(&cfg, diffs, 4)?;
    assert_eq!(
        t1.operators, t4.operators,
        "per-operator traces diverged between P=1 and P=4"
    );
    println!("  per-operator traces identical for P=1 and P=4 ✓");

    Json::block([
        ("workload", "bsma_q10".into()),
        ("scale", Json::Num(scale)),
        ("diffs", diffs.into()),
        ("rounds", rounds.into()),
        ("available_parallelism", cores.into()),
        ("id_ivm", id_ivm),
        ("tuple_ivm", tuple_ivm),
        ("trace_p4", Json::Raw(t4.to_json())),
    ])
    .write("BENCH_scaling.json")?;
    println!("\nwrote BENCH_scaling.json");
    if cores == 1 {
        println!("note: single-core host — thread scaling cannot improve wall time here;");
        println!("the bit-identical access counts across P are the verified invariant.");
    }
    Ok(())
}
