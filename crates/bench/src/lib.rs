//! `idivm-bench`: the experiment harness regenerating every table and
//! figure of the paper's evaluation (Section 7).
//!
//! One executable, one subcommand per experiment
//! (`cargo run --release -p idivm-bench -- <name> [flags]`):
//!
//! * `table2` — SPJ cost breakdown + model parameters (paper Table 2).
//! * `table3` — aggregate cost breakdown with cache (paper Table 3).
//! * `fig10` — BSMA speedups for Q7…Q*3 (paper Figure 10).
//! * `fig12` — parameter sweeps `diff-size | joins | selectivity |
//!   fanout` with all four systems (paper Figure 12).
//! * `analysis` — analytic speedup surfaces and model-vs-measured
//!   validation (paper Section 6).
//! * `scaling`, `wall` — thread-count sweep and wall-clock rounds.
//! * `tpch`, `multiview`, `sqlshell` — the layers above the engine,
//!   each with its in-process guards.
//!
//! Every experiment is the same two pieces, kept here once: [`Args`]
//! (the command line) and [`Lane`] (a database with one system set up on
//! a view, warmed and measured). Each writes its `BENCH_*.json` as one
//! `idivm_types::Json` value.
//!
//! All experiments report the paper's cost unit (tuple accesses + index
//! lookups) and wall time; access counts are deterministic and
//! machine-independent, wall time is indicative.

use idivm_algebra::Plan;
use idivm_core::{Engine, IdIvm, IvmOptions, MaintenanceReport, TraceConfig};
use idivm_exec::ParallelConfig;
use idivm_reldb::{Database, TableSignature};
use idivm_sched::{MaintenanceScheduler, RefreshPolicy, SchedulerConfig};
use idivm_sdbt::{Partial, Sdbt, SdbtVariant};
use idivm_tuple::TupleIvm;
use idivm_types::{Error, Json, Result};
use idivm_workloads::bsma::{Bsma, BsmaQuery};
use idivm_workloads::multiview::{MultiView, VIEW_NAMES};
use idivm_workloads::RunningExample;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::str::FromStr;
use std::time::Instant;

// ── Args ─────────────────────────────────────────────────────────────

/// One subcommand of the executable.
pub struct Experiment {
    pub name: &'static str,
    /// The flags it reads; any other flag is rejected.
    pub flags: &'static [&'static str],
    /// The positional words it takes, the default first (`fig12`'s
    /// sweep name); empty when it takes none.
    pub sweeps: &'static [&'static str],
    pub run: fn(&Args) -> Result<()>,
}

impl Experiment {
    /// The usage line printed with every rejection.
    pub fn usage(&self) -> String {
        let mut line = format!("usage: idivm-bench {}", self.name);
        if !self.sweeps.is_empty() {
            let _ = write!(line, " [{}]", self.sweeps.join("|"));
        }
        for flag in self.flags.iter().filter(|f| f.starts_with("--")) {
            let value = if *flag == "--smoke" { "" } else { " <value>" };
            let _ = write!(line, " [{flag}{value}]");
        }
        line
    }
}

/// A parsed command line. Sizing flags are `None` when absent — each
/// experiment has its own defaults (see [`Args::or`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    pub smoke: bool,
    /// The positional word, defaulted; `""` for experiments without one.
    pub sweep: &'static str,
    pub scale: Option<f64>,
    pub diffs: Option<usize>,
    pub rounds: Option<u64>,
    pub customers: Option<usize>,
    pub skew: Option<u32>,
    pub workload: Option<String>,
    pub file: Option<String>,
}

impl Args {
    /// Parse the process's command line against `experiments`; a
    /// rejection prints the reason and a usage line on stderr and exits
    /// with status 2.
    pub fn from_env(experiments: &'static [Experiment]) -> (&'static Experiment, Args) {
        Args::parse(experiments, std::env::args().skip(1)).unwrap_or_else(|msg| {
            eprintln!("idivm-bench: {msg}");
            std::process::exit(2)
        })
    }

    /// [`Args::from_env`] without the process: `argv` starts at the
    /// experiment name.
    ///
    /// # Errors
    /// The message for stderr: an unknown experiment, an unknown flag
    /// (for this experiment), a flag without a value, an unparsable
    /// value, a stray positional.
    pub fn parse(
        experiments: &[Experiment],
        argv: impl IntoIterator<Item = String>,
    ) -> std::result::Result<(&Experiment, Args), String> {
        let mut argv = argv.into_iter();
        let names: Vec<&str> = experiments.iter().map(|e| e.name).collect();
        let usage = format!("usage: idivm-bench <{}> [flags]", names.join("|"));
        let name = argv.next().ok_or_else(|| usage.clone())?;
        let exp = experiments
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| format!("unknown experiment `{name}`\n{usage}"))?;
        Args::parse_flags(exp, argv)
            .map(|args| (exp, args))
            .map_err(|msg| format!("{msg}\n{}", exp.usage()))
    }

    fn parse_flags(
        exp: &Experiment,
        mut argv: impl Iterator<Item = String>,
    ) -> std::result::Result<Args, String> {
        let mut args = Args::default();
        let mut sweep = None;
        while let Some(arg) = argv.next() {
            if !arg.starts_with("--") {
                let word = exp.sweeps.iter().find(|s| **s == arg);
                sweep = match (word, sweep) {
                    (Some(word), None) => Some(*word),
                    _ => return Err(format!("unexpected argument `{arg}`")),
                };
                continue;
            }
            let flag = arg.as_str();
            match flag {
                _ if !exp.flags.contains(&flag) => return Err(format!("unknown flag `{flag}`")),
                "--smoke" => args.smoke = true,
                "--scale" => args.scale = Some(value(flag, &mut argv)?),
                "--diffs" => args.diffs = Some(value(flag, &mut argv)?),
                "--rounds" => args.rounds = Some(value(flag, &mut argv)?),
                "--customers" => args.customers = Some(value(flag, &mut argv)?),
                "--skew" => args.skew = Some(value(flag, &mut argv)?),
                "--workload" => args.workload = Some(value(flag, &mut argv)?),
                "--file" => args.file = Some(value(flag, &mut argv)?),
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        args.sweep = sweep.or(exp.sweeps.first().copied()).unwrap_or("");
        Ok(args)
    }

    /// `flag`'s value when given, else the `--smoke` or the full-size
    /// default.
    pub fn or<T>(&self, flag: Option<T>, smoke: T, full: T) -> T {
        flag.unwrap_or(if self.smoke { smoke } else { full })
    }
}

/// The next word, parsed as `flag`'s value (never read as a positional).
fn value<T: FromStr>(
    flag: &str,
    argv: &mut impl Iterator<Item = String>,
) -> std::result::Result<T, String> {
    let word = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
    word.parse()
        .map_err(|_| format!("{flag}: cannot parse `{word}`"))
}

// ── Lane ─────────────────────────────────────────────────────────────

/// The four systems of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    IdIvm,
    Tuple,
    /// SDBT with one fixed stream: the table of the single partial given.
    SdbtFixed,
    SdbtStreams,
}

impl EngineKind {
    /// In the paper's order A–D.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::IdIvm,
        EngineKind::Tuple,
        EngineKind::SdbtFixed,
        EngineKind::SdbtStreams,
    ];

    /// The paper's name for the system.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::IdIvm => "ID-based IVM",
            EngineKind::Tuple => "Tuple-based IVM",
            EngineKind::SdbtFixed => "SDBT-fixed",
            EngineKind::SdbtStreams => "SDBT-streams",
        }
    }
}

/// What [`Lane::time_rounds`] measured.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Total accesses over the measured rounds.
    pub accesses: u64,
    pub best_ms: f64,
    pub total_ms: f64,
}

/// One system set up on one view of its own database — the unit every
/// experiment repeats per system.
pub struct Lane {
    pub db: Database,
    pub engine: Box<dyn Engine>,
}

impl Lane {
    /// Set `kind` up on `view` = `plan` over `db`. `options` configures
    /// ID-based IVM in full; the other systems take its thread count and
    /// trace switch. `partials` are SDBT's (empty otherwise).
    ///
    /// # Errors
    /// The engine's setup errors; `SdbtFixed` without exactly one partial.
    pub fn new(
        kind: EngineKind,
        options: IvmOptions,
        mut db: Database,
        view: &str,
        plan: Plan,
        partials: Vec<Partial>,
    ) -> Result<Lane> {
        let engine: Box<dyn Engine> = match kind {
            EngineKind::IdIvm => Box::new(IdIvm::setup(&mut db, view, plan, options)?),
            EngineKind::Tuple => configured(TupleIvm::setup(&mut db, view, plan)?, &options)?,
            EngineKind::SdbtFixed | EngineKind::SdbtStreams => {
                let variant = match (kind, partials.as_slice()) {
                    (EngineKind::SdbtStreams, _) => SdbtVariant::Streams,
                    (_, [partial]) => SdbtVariant::Fixed(partial.table.clone()),
                    _ => return Err(Error::Config("SDBT-fixed takes one partial".into())),
                };
                configured(
                    Sdbt::setup(&mut db, view, plan, partials, variant)?,
                    &options,
                )?
            }
        };
        Ok(Lane { db, engine })
    }

    /// Stage `batch(db, 0)`, run the warm round, stage `batch(db, 1)`
    /// and measure that round from reset access counters.
    ///
    /// # Errors
    /// The batch's or the engine's.
    pub fn warm_then_measure(
        &mut self,
        mut batch: impl FnMut(&mut Database, u64) -> Result<()>,
    ) -> Result<MaintenanceReport> {
        batch(&mut self.db, 0)?;
        self.engine.maintain(&mut self.db)?;
        batch(&mut self.db, 1)?;
        self.db.stats().reset();
        self.engine.maintain(&mut self.db)
    }

    /// A warm round on `batch(db, 0)`, then `rounds` (at least one)
    /// timed rounds on `batch(db, 1..)`: summed accesses, best and total
    /// wall-clock of `maintain` alone.
    ///
    /// # Errors
    /// The batch's or the engine's.
    pub fn time_rounds(
        &mut self,
        rounds: u64,
        mut batch: impl FnMut(&mut Database, u64) -> Result<()>,
    ) -> Result<Timed> {
        batch(&mut self.db, 0)?;
        self.engine.maintain(&mut self.db)?;
        let mut timed = Timed {
            accesses: 0,
            best_ms: f64::INFINITY,
            total_ms: 0.0,
        };
        for round in 1..=rounds.max(1) {
            batch(&mut self.db, round)?;
            self.db.stats().reset();
            let started = Instant::now();
            timed.accesses += self.engine.maintain(&mut self.db)?.total_accesses();
            let ms = started.elapsed().as_secs_f64() * 1e3;
            timed.best_ms = timed.best_ms.min(ms);
            timed.total_ms += ms;
        }
        Ok(timed)
    }
}

fn configured<E: Engine + 'static>(mut engine: E, options: &IvmOptions) -> Result<Box<dyn Engine>> {
    engine.set_parallel(options.parallel)?;
    engine.set_trace(options.trace);
    Ok(Box::new(engine))
}

/// The default options with tracing switched as given.
pub fn with_trace(trace: TraceConfig) -> IvmOptions {
    IvmOptions {
        trace,
        ..IvmOptions::default()
    }
}

/// A fresh running-example database with `kind` maintaining `V` — the
/// aggregate view V′ or the SPJ view under it.
///
/// # Errors
/// Generator, plan or setup failures.
pub fn running_example_lane(
    cfg: &RunningExample,
    kind: EngineKind,
    options: IvmOptions,
    aggregate: bool,
) -> Result<Lane> {
    let db = cfg.build()?;
    let plan = if aggregate {
        cfg.agg_plan(&db)?
    } else {
        cfg.spj_plan(&db)?
    };
    let partials = match kind {
        EngineKind::SdbtFixed => vec![cfg.sdbt_parts_partial(&db)?],
        EngineKind::SdbtStreams => cfg.sdbt_all_partials(&db)?,
        EngineKind::IdIvm | EngineKind::Tuple => Vec::new(),
    };
    Lane::new(kind, options, db, "V", plan, partials)
}

/// A fresh BSMA database with `kind` (ID- or tuple-based) maintaining
/// query `q` as `V`.
///
/// # Errors
/// Generator, plan or setup failures.
pub fn bsma_lane(cfg: &Bsma, q: BsmaQuery, kind: EngineKind, options: IvmOptions) -> Result<Lane> {
    let db = cfg.build()?;
    let plan = cfg.plan(&db, q)?;
    Lane::new(kind, options, db, "V", plan, Vec::new())
}

/// A scheduler over a fresh multi-view database with the five views of
/// [`VIEW_NAMES`] registered under `policy(name)`.
///
/// # Errors
/// Generator, plan or registration failures; an invalid `parallel`.
pub fn multiview_scheduler(
    cfg: &MultiView,
    config: SchedulerConfig,
    parallel: ParallelConfig,
    policy: impl Fn(&str) -> RefreshPolicy,
) -> Result<MaintenanceScheduler> {
    let mut sched = MaintenanceScheduler::new(cfg.build()?, config);
    for name in VIEW_NAMES {
        let plan = cfg.plan(sched.db(), name)?;
        sched.register(name, plan, policy(name), IvmOptions::default())?;
    }
    sched.set_parallel_all(parallel)?;
    Ok(sched)
}

/// Every [`VIEW_NAMES`] view's signature and its counted accesses so far.
///
/// # Errors
/// A view that is not registered.
pub fn view_state(
    sched: &MaintenanceScheduler,
) -> Result<(BTreeMap<String, TableSignature>, BTreeMap<String, u64>)> {
    let mut signatures = BTreeMap::new();
    let mut accesses = BTreeMap::new();
    for name in VIEW_NAMES {
        signatures.insert(name.to_string(), sched.catalog().signature(name)?);
        accesses.insert(name.to_string(), sched.stats(name)?.accesses.total());
    }
    Ok((signatures, accesses))
}

/// One engine's measured round.
#[derive(Debug, Clone)]
pub struct Measured {
    pub label: &'static str,
    pub report: MaintenanceReport,
}

impl Measured {
    /// Total accesses (the paper's cost unit).
    pub fn cost(&self) -> u64 {
        self.report.total_accesses()
    }
}

/// One warm-then-measured round of `diff_size` price updates on the
/// aggregate view for all four systems (fresh databases, identical
/// seeds), in the order of [`EngineKind::ALL`]. `round_undo = false`
/// disarms the rollback journal ([`Database::set_round_undo`]) — the
/// pre-atomicity baseline of [`rollback_overhead`].
///
/// # Errors
/// Any engine failure (a bug).
pub fn four_systems_round(
    cfg: &RunningExample,
    diff_size: usize,
    trace: TraceConfig,
    round_undo: bool,
) -> Result<Vec<Measured>> {
    EngineKind::ALL
        .into_iter()
        .map(|kind| {
            let mut lane = running_example_lane(cfg, kind, with_trace(trace), true)?;
            lane.db.set_round_undo(round_undo);
            let report =
                lane.warm_then_measure(|db, r| cfg.price_update_batch(db, diff_size, r))?;
            Ok(Measured {
                label: kind.label(),
                report,
            })
        })
        .collect()
}

/// `(label, accesses with undo journaling armed, accesses with it
/// disarmed)` of the same clean round for all four systems. Journaling
/// is designed to stay off the counted access paths, so the two are
/// expected equal; `fig12` guards the overhead under 10 %.
///
/// # Errors
/// Any engine failure (a bug).
pub fn rollback_overhead(
    cfg: &RunningExample,
    diff_size: usize,
) -> Result<Vec<(&'static str, u64, u64)>> {
    let on = four_systems_round(cfg, diff_size, TraceConfig::disabled(), true)?;
    let off = four_systems_round(cfg, diff_size, TraceConfig::disabled(), false)?;
    Ok(on
        .iter()
        .zip(&off)
        .map(|(a, b)| (a.label, a.cost(), b.cost()))
        .collect())
}

/// `baseline / subject` in accesses — how many times cheaper the
/// subject is; infinite when it cost nothing.
pub fn speedup(subject: u64, baseline: u64) -> f64 {
    if subject == 0 {
        return f64::INFINITY;
    }
    baseline as f64 / subject as f64
}

/// `(subject / baseline − 1) × 100`; 0 when the baseline is 0.
pub fn overhead_pct(subject: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        return 0.0;
    }
    (subject / baseline - 1.0) * 100.0
}

/// The trace report of several measured systems (`{"bench", "systems":
/// [{"label", "total_accesses", "trace"}]}` followed by `extra`);
/// systems measured without a trace are skipped. Schema in
/// `EXPERIMENTS.md`.
pub fn trace_report(bench: &str, measured: &[Measured], extra: Vec<(&str, Json)>) -> Json {
    let systems = measured.iter().filter_map(|m| {
        let trace = m.report.trace.as_ref()?;
        Some(Json::inline([
            ("label", m.label.into()),
            ("total_accesses", m.cost().into()),
            ("trace", trace.to_json()),
        ]))
    });
    let mut fields = vec![("bench", bench.into()), ("systems", Json::rows(systems))];
    fields.extend(extra);
    Json::block(fields)
}

/// Fixed-width, right-aligned table cells.
pub fn fmt_row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use idivm_exec::{executor::sorted, recompute_rows};

    fn noop(_: &Args) -> Result<()> {
        Ok(())
    }

    const TABLE: &[Experiment] = &[
        Experiment {
            name: "fig12",
            flags: &["--smoke", "--scale"],
            sweeps: &["all", "diff-size", "joins", "selectivity", "fanout"],
            run: noop,
        },
        Experiment {
            name: "tpch",
            flags: &["--smoke", "--customers", "--rounds", "--diffs", "--skew"],
            sweeps: &[],
            run: noop,
        },
        Experiment {
            name: "table2",
            flags: &[],
            sweeps: &[],
            run: noop,
        },
    ];

    fn parse(line: &str) -> std::result::Result<(&'static str, Args), String> {
        let argv = line.split_whitespace().map(String::from);
        Args::parse(TABLE, argv).map(|(exp, args)| (exp.name, args))
    }

    #[test]
    fn omitted_sweep_is_all_and_a_flag_value_is_never_the_sweep() {
        let (name, args) = parse("fig12 --scale 0.02").unwrap();
        assert_eq!(name, "fig12");
        assert_eq!(args.sweep, "all");
        assert_eq!(args.scale, Some(0.02));
        assert_eq!(parse("fig12 all --scale 0.02").unwrap().1, args);
        let (_, joins) = parse("fig12 --smoke joins").unwrap();
        assert_eq!((joins.sweep, joins.smoke), ("joins", true));
        assert_eq!(parse("table2").unwrap().1, Args::default());
    }

    #[test]
    fn sizing_flags_parse_to_their_types_and_default_by_smoke() {
        let (_, args) = parse("tpch --smoke --rounds 8 --skew 30 --customers 60").unwrap();
        assert_eq!(
            (args.rounds, args.skew, args.customers),
            (Some(8), Some(30), Some(60))
        );
        assert_eq!(args.or(args.rounds, 4, 8), 8);
        assert_eq!(args.or(args.diffs, 10, 24), 10);
    }

    #[test]
    fn mistyped_command_lines_are_rejected_with_a_usage_line() {
        for (line, reason) in [
            ("", "usage: idivm-bench <fig12|tpch|table2>"),
            ("fig13", "unknown experiment `fig13`"),
            ("tpch --bogus", "unknown flag `--bogus`"),
            ("table2 --smoke", "unknown flag `--smoke`"),
            ("tpch --scale 0.5", "unknown flag `--scale`"),
            ("tpch --rounds", "--rounds needs a value"),
            ("tpch --smoke --rounds x8", "--rounds: cannot parse `x8`"),
            ("tpch --rounds --smoke", "--rounds: cannot parse `--smoke`"),
            ("fig12 0.02", "unexpected argument `0.02`"),
            ("fig12 joins fanout", "unexpected argument `fanout`"),
            ("tpch all", "unexpected argument `all`"),
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.starts_with(reason), "`{line}`: {err}");
            assert!(err.contains("usage: idivm-bench"), "`{line}`: {err}");
        }
        let err = parse("tpch --rounds x8").unwrap_err();
        assert!(err.ends_with(&TABLE[1].usage()), "{err}");
        assert_eq!(
            TABLE[0].usage(),
            "usage: idivm-bench fig12 [all|diff-size|joins|selectivity|fanout] [--smoke] \
             [--scale <value>]"
        );
    }

    #[test]
    fn speedup_and_overhead_survive_a_zero_base() {
        assert!((speedup(10, 40) - 4.0).abs() < 1e-12 && speedup(0, 40).is_infinite());
        assert_eq!(overhead_pct(5.0, 0.0), 0.0);
        assert!((overhead_pct(3.0, 2.0) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn harness_produces_all_four_systems() {
        let cfg = RunningExample {
            n_parts: 100,
            n_devices: 80,
            fanout: 3,
            selectivity_pct: 30,
            joins: 2,
            seed: 3,
        };
        let measured = four_systems_round(&cfg, 10, TraceConfig::disabled(), true).unwrap();
        let labels: Vec<&str> = measured.iter().map(|m| m.label).collect();
        assert_eq!(
            labels,
            vec![
                "ID-based IVM",
                "Tuple-based IVM",
                "SDBT-fixed",
                "SDBT-streams"
            ]
        );
        // The paper's ordering on the update workload:
        // fixed ≤ id < tuple, streams worst.
        let cost: Vec<u64> = measured.iter().map(Measured::cost).collect();
        assert!(cost[0] < cost[1], "id {} < tuple {}", cost[0], cost[1]);
        assert!(cost[3] > cost[2], "streams {} > fixed {}", cost[3], cost[2]);
        let mut lane =
            running_example_lane(&cfg, EngineKind::IdIvm, IvmOptions::default(), true).unwrap();
        let timed = lane
            .time_rounds(2, |db, r| cfg.price_update_batch(db, 10, r))
            .unwrap();
        assert!(timed.accesses > 0 && timed.best_ms <= timed.total_ms);
        assert_eq!(
            sorted(lane.engine.visible_rows(&lane.db).unwrap()),
            sorted(recompute_rows(&lane.db, lane.engine.plan()).unwrap())
        );
    }
}
