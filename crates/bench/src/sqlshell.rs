//! `sqlshell` — the batch SQL driver for the idIVM front-end.
//!
//! Reads a `;`-separated SQL script (from `--file <path>`, or stdin)
//! and applies it to a maintenance scheduler over one of the bundled
//! workload schemas (`--workload fig12|multiview|tpch`). No
//! interactive dependency: the shell is a one-shot batch driver, so it
//! works under CI and pipes.
//!
//! `--smoke` runs the self-contained CI exercise instead: it creates
//! the TPC-H views *from SQL text*, runs churn rounds with tracing
//! enabled, renders `EXPLAIN MAINTENANCE` for every view (script,
//! C_op/NC split, per-operator trace), and writes the reports to
//! `EXPLAIN_tpch.txt`. Guard: every rendered report carries the trace
//! table of a traced round.
//!
//! ```text
//! idivm-bench sqlshell --workload tpch --file views.sql
//! echo 'EXPLAIN MAINTENANCE v' | idivm-bench sqlshell --workload fig12
//! idivm-bench sqlshell --smoke
//! ```

use idivm_bench::{with_trace, Args};
use idivm_core::TraceConfig;
use idivm_sched::{MaintenanceScheduler, RefreshPolicy, SchedulerConfig};
use idivm_sql::{execute, Outcome};
use idivm_types::{Error, Result};
use idivm_workloads::multiview::MultiView;
use idivm_workloads::running_example::RunningExample;
use idivm_workloads::tpch::Tpch;
use std::io::Read as _;

pub fn run(args: &Args) -> Result<()> {
    if args.smoke {
        return smoke();
    }
    let db = match args.workload.as_deref().unwrap_or("fig12") {
        "fig12" => RunningExample::default().build()?,
        "multiview" => MultiView::default().build()?,
        "tpch" => Tpch::default().build()?,
        other => {
            let expected = "expected fig12|multiview|tpch";
            return Err(Error::Config(format!(
                "unknown workload `{other}` ({expected})"
            )));
        }
    };
    let sql = match &args.file {
        Some(path) => std::fs::read_to_string(path).map_err(|e| cannot_read(path, &e))?,
        None => {
            let mut script = String::new();
            let read = std::io::stdin().read_to_string(&mut script);
            read.map_err(|e| cannot_read("stdin", &e))?;
            script
        }
    };
    let mut sched = MaintenanceScheduler::new(db, SchedulerConfig::default());
    let options = with_trace(TraceConfig::enabled());
    for outcome in execute(&mut sched, &sql, RefreshPolicy::Eager, &options)? {
        report(&outcome);
    }
    Ok(())
}

fn cannot_read(what: &str, e: &std::io::Error) -> Error {
    Error::Config(format!("cannot read `{what}`: {e}"))
}

fn report(outcome: &Outcome) {
    match outcome {
        Outcome::Created { name } => println!("CREATE MATERIALIZED VIEW {name}: ok"),
        Outcome::SkippedExisting { name } => {
            println!("CREATE MATERIALIZED VIEW {name}: already exists, skipped");
        }
        Outcome::Dropped { name } => println!("DROP MATERIALIZED VIEW {name}: ok"),
        Outcome::SkippedMissing { name } => {
            println!("DROP MATERIALIZED VIEW {name}: not registered, skipped");
        }
        Outcome::Explained { text, .. } => println!("{text}"),
    }
}

/// The CI smoke exercise: TPC-H views from SQL text, churn with
/// tracing, `EXPLAIN MAINTENANCE` artifacts.
fn smoke() -> Result<()> {
    let cfg = Tpch::default();
    let db = cfg.build()?;
    let mut sched = MaintenanceScheduler::new(db, SchedulerConfig::default());
    let options = with_trace(TraceConfig::enabled());
    let script = format!(
        "CREATE MATERIALIZED VIEW tpch_extremes AS {};\n\
         CREATE MATERIALIZED VIEW IF NOT EXISTS tpch_loj AS {};\n",
        cfg.extremes_sql(),
        cfg.loj_sql()
    );
    for o in execute(&mut sched, &script, RefreshPolicy::Eager, &options)? {
        report(&o);
    }

    let rounds = 4u64;
    let diffs = 12usize;
    for round in 1..=rounds {
        cfg.lineitem_churn_batch(sched.db_mut(), diffs, round)?;
        cfg.order_churn_batch(sched.db_mut(), diffs, round)?;
        sched.tick()?;
    }
    println!("ran {rounds} churn rounds ({diffs} diffs per table per round)");

    let mut artifact = String::new();
    for name in ["tpch_extremes", "tpch_loj"] {
        let text = idivm_sql::explain(&sched, name)?;
        // The trace table only renders after a traced round — assert
        // the smoke run produced one so CI catches regressions.
        assert!(
            text.contains("last traced round"),
            "EXPLAIN for `{name}` is missing trace attribution:\n{text}"
        );
        artifact.push_str(&text);
        artifact.push('\n');
    }
    std::fs::write("EXPLAIN_tpch.txt", &artifact)
        .map_err(|e| Error::Config(format!("cannot write EXPLAIN_tpch.txt: {e}")))?;
    println!("wrote EXPLAIN_tpch.txt ({} bytes)", artifact.len());
    Ok(())
}
