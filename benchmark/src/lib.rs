//! The benchmark of record for the idIVM stack.
//!
//! One command runs one workload in a fresh process: it makes the
//! inputs from `--seed`, measures fixed work in a closed loop (one
//! client, one thread: the whole event stream is built before the timed
//! window and handed over as fast as the calls return), checks every
//! view against the recompute oracle, and prints every metric by name.
//! Event counts are constants, never adapted at run time; `--seconds`
//! decides how many repetitions of that fixed work are measured, each
//! on a freshly built system, and medians over the repetitions are
//! reported.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` repeats the
//! same stream with in-memory spans around each call into a layer's
//! public functions and reports the per-layer metrics. Nothing inside
//! the program is instrumented. See `README.md` beside this crate.

pub mod gen;
pub mod harness;
pub mod json;
pub mod manifest;
pub mod reference;
pub mod span;
pub mod stats;
pub mod workloads {
    pub mod fig12;
    pub mod multiview;
    pub mod tpch;
}

use harness::{Layers, Rep};
use idivm_types::{Error, Result};
use idivm_workloads::RunningExample;
use span::Tracer;
use stats::{median, peak_rss_mb};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Fewest repetitions a run reports a median of.
const MIN_REPS: usize = 3;
/// Most repetitions a run makes, whatever `--seconds` says.
const MAX_REPS: usize = 32;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 1/100 of the work on 1/20 of the data: the self-test's size.
    pub smoke: bool,
    pub out_dir: PathBuf,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <n> --trace <0|1>
    /// [--smoke] [--out-dir <dir>]`. Nothing is defaulted silently: an
    /// unknown flag or an unparsable value is an error.
    ///
    /// # Errors
    /// A message for the user.
    pub fn parse(argv: &[String]) -> std::result::Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: manifest::RUN_SECONDS as f64,
            trace: false,
            smoke: false,
            out_dir: PathBuf::from("benchmark/results"),
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = |what: &str| {
                it.next()
                    .ok_or_else(|| format!("{flag} needs {what}"))
                    .cloned()
            };
            match flag.as_str() {
                "--workload" => args.workload = value("a workload name")?,
                "--seed" => {
                    args.seed = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    args.seconds = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    args.trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                    };
                }
                "--smoke" => args.smoke = true,
                "--out-dir" => args.out_dir = PathBuf::from(value("a directory")?),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if !manifest::WORKLOADS.iter().any(|(n, _)| *n == args.workload) {
            let names: Vec<&str> = manifest::WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!(
                "--workload must be one of {}, not `{}`",
                names.join(", "),
                args.workload
            ));
        }
        Ok(args)
    }
}

/// A workload's generated inputs.
enum Ctx {
    Fig12(workloads::fig12::Ctx),
    Multiview {
        ctx: workloads::multiview::Ctx,
        durable: bool,
    },
    Tpch(workloads::tpch::Ctx),
}

impl Ctx {
    /// Make the inputs from the seed. Event counts are constants picked
    /// once so that a repetition's window holds 1.5-3 s at the seed
    /// commit's speed; they are never adapted at run time.
    fn new(args: &Args, scratch: &Path) -> Result<Ctx> {
        let smoke = args.smoke;
        Ok(match args.workload.as_str() {
            "engine-fig12" => {
                let n = if smoke { 250 } else { 5_000 };
                let cfg = RunningExample {
                    n_parts: n,
                    n_devices: n,
                    ..RunningExample::default()
                };
                let rounds = if smoke { 4 } else { 400 };
                Ctx::Fig12(workloads::fig12::Ctx::new(args.seed, cfg, rounds)?)
            }
            "mixed-tpch-reads" => {
                let (customers, events) = if smoke { (100, 320) } else { (2_000, 32_000) };
                Ctx::Tpch(workloads::tpch::Ctx::new(args.seed, customers, events)?)
            }
            name => {
                let (scale, events) = if smoke { (0.05, 320) } else { (1.0, 32_000) };
                Ctx::Multiview {
                    ctx: workloads::multiview::Ctx::new(args.seed, scale, events, scratch)?,
                    durable: name == "durable-multiview",
                }
            }
        })
    }

    fn untraced(&self) -> Result<Rep> {
        match self {
            Ctx::Fig12(ctx) => workloads::fig12::untraced(ctx),
            Ctx::Multiview { ctx, durable } => workloads::multiview::untraced(ctx, *durable),
            Ctx::Tpch(ctx) => workloads::tpch::untraced(ctx),
        }
    }

    fn traced(&self) -> Result<(Rep, Layers, Vec<Tracer>)> {
        match self {
            Ctx::Fig12(ctx) => workloads::fig12::traced(ctx),
            Ctx::Multiview { ctx, durable } => workloads::multiview::traced(ctx, *durable),
            Ctx::Tpch(ctx) => workloads::tpch::traced(ctx),
        }
    }
}

/// What a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(metric name, value)` in manifest order.
    pub metrics: Vec<(&'static str, f64)>,
    pub repetitions: usize,
    /// Median speed factor of the repetitions: every time above was
    /// measured and then multiplied by its repetition's factor.
    pub speed_factor: f64,
    pub spans: Vec<Tracer>,
}

/// The end-to-end metrics: medians over the repetitions.
fn end_to_end(reps: &[Rep]) -> Vec<(&'static str, f64)> {
    let of = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let value = |name: &str| match name {
        "setup_s" => of(&|r| r.setup_s),
        "events_per_s" => of(&|r| r.events as f64 / r.window_s),
        "visible_us_p50" => of(&|r| median(&r.visible_us)),
        "read_us_p50" => of(&|r| median(&r.read_us)),
        // A durable repetition recovers several times: one pool.
        "recovery_ms" => median(
            &reps
                .iter()
                .flat_map(|r| r.recovery_ms.iter().copied())
                .collect::<Vec<_>>(),
        ),
        "accesses_per_event" => of(&|r| r.accesses as f64 / r.events as f64),
        "peak_rss_mb" => peak_rss_mb(),
        other => unreachable!("end-to-end metric `{other}` has no definition"),
    };
    manifest::END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name)))
        .collect()
}

/// Run one workload as the command line asks.
///
/// # Errors
/// Errors of the program's own API, or I/O errors on the scratch
/// directory: the run prints no result.
pub fn run(args: &Args) -> Result<Outcome> {
    let scratch = args.out_dir.join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| Error::Internal(format!("create {}: {e}", scratch.display())))?;
    let outcome = run_in(args, &scratch);
    // Scratch stores are removed whether or not the run succeeded.
    let _ = std::fs::remove_dir_all(&scratch);
    outcome
}

fn run_in(args: &Args, scratch: &Path) -> Result<Outcome> {
    let ctx = Ctx::new(args, scratch)?;
    let mut reps = Vec::new();
    let mut spans = Vec::new();
    let metrics = if args.trace {
        let (rep, mut layers, tracers) = ctx.traced()?;
        layers.put("harness.speed_factor", rep.speed);
        reps.push(rep);
        spans = tracers;
        manifest::PER_LAYER
            .iter()
            .map(|m| (m.name, layers.get(m.name)))
            .collect()
    } else {
        let mut measured = 0.0;
        while reps.len() < MIN_REPS || (measured < args.seconds && reps.len() < MAX_REPS) {
            let rep = ctx.untraced()?;
            measured += rep.window_s / rep.speed;
            reps.push(rep);
        }
        end_to_end(&reps)
    };
    let attempted: u64 = reps.iter().map(|r| r.events).sum();
    let mut correct = reps.iter().all(|r| r.correct);
    // The paper's cost unit is a count: one seed, one value.
    if reps.iter().any(|r| r.accesses != reps[0].accesses) {
        eprintln!("counted accesses differ between repetitions of one seed");
        correct = false;
    }
    let failed = if correct {
        reps.iter().map(|r| r.failed).sum()
    } else {
        attempted
    };
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        repetitions: reps.len(),
        speed_factor: median(&reps.iter().map(|r| r.speed).collect::<Vec<_>>()),
        spans,
    })
}

/// The result as the one JSON object the driver reads.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = manifest::find(name).map_or("", |m| m.unit);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Every metric by name with unit, direction and regression bound.
pub fn report(args: &Args, outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {}  seed {}  trace {}  repetitions {}  speed factor {:.3}  attempted {}  failed {}  correct {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.repetitions,
        outcome.speed_factor,
        outcome.attempted,
        outcome.failed,
        outcome.correct
    );
    for (name, value) in &outcome.metrics {
        if let Some(m) = manifest::find(name) {
            let bound = m
                .bound
                .map_or(String::new(), |b| format!("  bound {:.0} %", b * 100.0));
            let _ = writeln!(
                out,
                "  {name:<42} {value:>16.4} {:<9} {} is better{bound}",
                m.unit,
                m.better.label()
            );
        }
    }
    out
}

fn git_head() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

/// Write `<workload>.json`, `<workload>.trace.json` (traced runs) and
/// one line of `history.jsonl`, keyed by the commit, under the output
/// directory.
///
/// # Errors
/// I/O errors.
pub fn write_results(args: &Args, outcome: &Outcome, started: Instant) -> std::io::Result<()> {
    use std::io::Write as _;
    std::fs::create_dir_all(&args.out_dir)?;
    let result = result_json(outcome);
    let line = format!(
        "{{\"commit\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"smoke\": {}, \"repetitions\": {}, \"speed_factor\": {}, \"wall_s\": {:.3}, \"result\": {result}}}",
        json::escape(&git_head()),
        args.workload,
        args.seed,
        args.trace,
        args.smoke,
        outcome.repetitions,
        outcome.speed_factor,
        started.elapsed().as_secs_f64()
    );
    let suffix = if args.trace { ".traced" } else { "" };
    std::fs::write(
        args.out_dir.join(format!("{}{suffix}.json", args.workload)),
        format!("{line}\n"),
    )?;
    if args.trace {
        let passes: Vec<String> = outcome.spans.iter().map(Tracer::to_json).collect();
        std::fs::write(
            args.out_dir.join(format!("{}.trace.json", args.workload)),
            format!(
                "{{\"workload\": \"{}\", \"seed\": {}, \"passes\": [\n{}\n]}}\n",
                args.workload,
                args.seed,
                passes.join(",\n")
            ),
        )?;
    }
    let mut history = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(args.out_dir.join("history.jsonl"))?;
    writeln!(history, "{line}")
}
