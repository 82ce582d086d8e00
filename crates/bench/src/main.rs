//! `idivm-bench <experiment> [flags]` — every experiment of the
//! harness as a subcommand of one executable. Each module's header
//! states what it measures, its flags and its in-process guards.
//!
//! Exit status: 0 the experiment ran and every guard held; 1 a library
//! call failed (the error is printed); 2 the command line or
//! `IDIVM_FAULT_SEED` was rejected; 101 a guard (`assert!`) failed.

use idivm_bench::{Args, Experiment, SEED_VAR};
use std::process::ExitCode;

mod analysis;
mod chaos;
mod crashbench;
mod fig10;
mod fig12;
mod firehose;
mod multiview;
mod scaling;
mod sqlshell;
mod table2;
mod table3;
mod tpch;
mod wall;

const SIZED: &[&str] = &["--smoke", "--scale", "--diffs", "--rounds"];
const SCALED: &[&str] = &["--smoke", "--scale"];
const SEEDED: &[&str] = &["--smoke", "--scale", SEED_VAR];
const TPCH: &[&str] = &["--smoke", "--customers", "--rounds", "--diffs", "--skew"];
const SQL: &[&str] = &["--smoke", "--workload", "--file"];
const SWEEPS: &[&str] = &["all", "diff-size", "joins", "selectivity", "fanout"];

/// Name, the flags (and environment variable) it reads, the positional
/// words it takes, entry point.
#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "table2", flags: &[], sweeps: &[], run: table2::run },
    Experiment { name: "table3", flags: &[], sweeps: &[], run: table3::run },
    Experiment { name: "analysis", flags: &[], sweeps: &[], run: analysis::run },
    Experiment { name: "fig10", flags: &["--smoke", "--scale", "--diffs"], sweeps: &[], run: fig10::run },
    Experiment { name: "fig12", flags: SCALED, sweeps: SWEEPS, run: fig12::run },
    Experiment { name: "scaling", flags: SIZED, sweeps: &[], run: scaling::run },
    Experiment { name: "wall", flags: &["--smoke"], sweeps: &[], run: wall::run },
    Experiment { name: "tpch", flags: TPCH, sweeps: &[], run: tpch::run },
    Experiment { name: "multiview", flags: SIZED, sweeps: &[], run: multiview::run },
    Experiment { name: "firehose", flags: SIZED, sweeps: &[], run: firehose::run },
    Experiment { name: "chaos", flags: SEEDED, sweeps: &[], run: chaos::run },
    Experiment { name: "crashbench", flags: SEEDED, sweeps: &[], run: crashbench::run },
    Experiment { name: "sqlshell", flags: SQL, sweeps: &[], run: sqlshell::run },
];

fn main() -> ExitCode {
    let (experiment, args) = Args::from_env(EXPERIMENTS);
    match (experiment.run)(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("idivm-bench {}: {e}", experiment.name);
            ExitCode::FAILURE
        }
    }
}
