//! `sqlshell` — the batch SQL driver for the idIVM front-end.
//!
//! Reads a `;`-separated SQL script (from `--file <path>`, or stdin)
//! and applies it to a maintenance scheduler over one of the bundled
//! workload schemas (`--workload fig12|multiview|tpch`). No
//! interactive dependency: the shell is a one-shot batch driver, so it
//! works under CI and pipes.
//!
//! `--smoke` runs the self-contained CI exercise instead: it creates
//! the TPC-H views and Figure 10's eight BSMA views *from SQL text*,
//! runs churn rounds with tracing enabled, renders `EXPLAIN
//! MAINTENANCE` for every view (script, C_op/NC split, per-operator
//! trace), and writes the reports to `EXPLAIN_tpch.txt` and
//! `EXPLAIN_fig10.txt` (both committed; the pin suite compares them
//! byte for byte). Guard: every rendered report carries the trace table
//! of a traced round.
//!
//! ```text
//! idivm-bench sqlshell --workload tpch --file views.sql
//! echo 'EXPLAIN MAINTENANCE v' | idivm-bench sqlshell --workload fig12
//! idivm-bench sqlshell --smoke
//! ```

use idivm_bench::{with_trace, Args};
use idivm_core::TraceConfig;
use idivm_reldb::Database;
use idivm_sched::{MaintenanceScheduler, RefreshPolicy, SchedulerConfig};
use idivm_sql::{execute, Outcome};
use idivm_types::{Error, Result};
use idivm_workloads::bsma::{Bsma, BsmaQuery};
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

/// The CI smoke exercise: TPC-H and Figure 10 views from SQL text,
/// churn with tracing, `EXPLAIN MAINTENANCE` artifacts.
fn smoke() -> Result<()> {
    let cfg = Tpch::default();
    let script = format!(
        "CREATE MATERIALIZED VIEW tpch_extremes AS {};\n\
         CREATE MATERIALIZED VIEW IF NOT EXISTS tpch_loj AS {};\n",
        cfg.extremes_sql(),
        cfg.loj_sql()
    );
    explain_churned(cfg.build()?, &script, "EXPLAIN_tpch.txt", |db, round| {
        cfg.lineitem_churn_batch(db, 12, round)?;
        cfg.order_churn_batch(db, 12, round)
    })?;

    let cfg = Bsma {
        scale: 0.02,
        seed: 2015,
    };
    let script: String = BsmaQuery::ALL
        .iter()
        .map(|q| {
            let name = q.label().to_lowercase().replace('*', "star");
            format!("CREATE MATERIALIZED VIEW bsma_{name} AS {};\n", cfg.sql(*q))
        })
        .collect();
    explain_churned(cfg.build()?, &script, "EXPLAIN_fig10.txt", |db, round| {
        cfg.user_update_batch(db, 20, round)
    })
}

/// Register `script`'s views over `db` with tracing on, run four rounds,
/// each after `batch` changed the base tables, and write every view's
/// `EXPLAIN MAINTENANCE` report to `file`.
fn explain_churned(
    db: Database,
    script: &str,
    file: &str,
    batch: impl Fn(&mut Database, u64) -> Result<()>,
) -> Result<()> {
    let mut sched = MaintenanceScheduler::new(db, SchedulerConfig::default());
    let options = with_trace(TraceConfig::enabled());
    for o in execute(&mut sched, script, RefreshPolicy::Eager, &options)? {
        report(&o);
    }
    let rounds = 4;
    for round in 1..=rounds {
        batch(sched.db_mut(), round)?;
        sched.tick()?;
    }
    println!("ran {rounds} churn rounds");

    let mut artifact = String::new();
    for name in sched.catalog().names() {
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
    std::fs::write(file, &artifact)
        .map_err(|e| Error::Config(format!("cannot write {file}: {e}")))?;
    println!("wrote {file} ({} bytes)", artifact.len());
    Ok(())
}
