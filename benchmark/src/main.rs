//! `idivm-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints every metric by name, then, as the last line of standard
//! output, the result as one JSON object. Exit code 0 for a correct
//! run, 1 when a correctness gate failed (the result is still printed,
//! with every operation counted as failed), 2 when the run could not be
//! made at all (nothing is printed on standard output).

use idivm_benchmark::{report, result_json, run, write_results, Args};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("idivm-benchmark: {msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("idivm-benchmark: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    if let Err(e) = write_results(&args, &outcome, started) {
        eprintln!(
            "idivm-benchmark: writing results under {}: {e}",
            args.out_dir.display()
        );
        return ExitCode::from(2);
    }
    print!("{}", report(&args, &outcome));
    println!("{}", result_json(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
