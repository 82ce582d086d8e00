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
//! * `tpch`, `multiview`, `firehose`, `chaos`, `crashbench`, `sqlshell`
//!   — the layers above the engine, each with its in-process guards.
//!
//! Every experiment is the same three pieces, kept here once: [`Args`]
//! (the command line), [`Lane`] (a database with one system set up on a
//! view, warmed and measured) and [`Json`] (the `BENCH_*.json` writer).
//!
//! All experiments report the paper's cost unit (tuple accesses + index
//! lookups) and wall time; access counts are deterministic and
//! machine-independent, wall time is indicative.

use idivm_algebra::Plan;
use idivm_core::trace::json_escape;
use idivm_core::{Engine, IdIvm, IvmOptions, MaintenanceReport, TraceConfig};
use idivm_exec::{executor::sorted, recompute_rows, ParallelConfig};
use idivm_reldb::{Database, TableSignature};
use idivm_sched::{MaintenanceScheduler, RefreshPolicy, SchedulerConfig};
use idivm_sdbt::{Partial, Sdbt, SdbtVariant};
use idivm_tuple::TupleIvm;
use idivm_types::{Error, Result};
use idivm_workloads::bsma::{Bsma, BsmaQuery};
use idivm_workloads::multiview::{MultiView, VIEW_NAMES};
use idivm_workloads::RunningExample;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::str::FromStr;
use std::time::Instant;

// ── Args ─────────────────────────────────────────────────────────────

/// The fault seed when `IDIVM_FAULT_SEED` is unset. The two sweeps
/// disagree for history's sake and keep doing so: the pinned
/// `BENCH_chaos.json` records the first, `BENCH_crash.json` the second.
pub const CHAOS_SEED: u64 = 0x5eed_2015;
/// See [`CHAOS_SEED`].
pub const CRASH_SEED: u64 = 2015;

/// The one environment variable the harness reads. An experiment that
/// reads it lists it among its [`Experiment::flags`].
pub const SEED_VAR: &str = "IDIVM_FAULT_SEED";

/// One subcommand of the executable.
pub struct Experiment {
    pub name: &'static str,
    /// The flags it reads, and [`SEED_VAR`] if it reads that; any other
    /// flag is rejected, the variable is otherwise left unread.
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
    /// `IDIVM_FAULT_SEED`, when set and the experiment reads it.
    pub fault_seed: Option<u64>,
}

impl Args {
    /// Parse the process's command line, and `IDIVM_FAULT_SEED` for an
    /// experiment that reads it, against `experiments`; a rejection prints the reason and a usage line on
    /// stderr and exits with status 2.
    pub fn from_env(experiments: &'static [Experiment]) -> (&'static Experiment, Args) {
        let seed = std::env::var_os(SEED_VAR).map(|s| s.to_string_lossy().into_owned());
        Args::parse(experiments, std::env::args().skip(1), seed).unwrap_or_else(|msg| {
            eprintln!("idivm-bench: {msg}");
            std::process::exit(2)
        })
    }

    /// [`Args::from_env`] without the process: `argv` starts at the
    /// experiment name, `seed` is the environment variable's value.
    ///
    /// # Errors
    /// The message for stderr: an unknown experiment, an unknown flag
    /// (for this experiment), a flag without a value, an unparsable
    /// value or seed, a stray positional.
    pub fn parse(
        experiments: &[Experiment],
        argv: impl IntoIterator<Item = String>,
        seed: Option<String>,
    ) -> std::result::Result<(&Experiment, Args), String> {
        let mut argv = argv.into_iter();
        let names: Vec<&str> = experiments.iter().map(|e| e.name).collect();
        let usage = format!("usage: idivm-bench <{}> [flags]", names.join("|"));
        let name = argv.next().ok_or_else(|| usage.clone())?;
        let exp = experiments
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| format!("unknown experiment `{name}`\n{usage}"))?;
        Args::parse_flags(exp, argv, seed)
            .map(|args| (exp, args))
            .map_err(|msg| format!("{msg}\n{}", exp.usage()))
    }

    fn parse_flags(
        exp: &Experiment,
        mut argv: impl Iterator<Item = String>,
        seed: Option<String>,
    ) -> std::result::Result<Args, String> {
        let mut args = Args::default();
        if let Some(seed) = seed.filter(|_| exp.flags.contains(&SEED_VAR)) {
            let parsed = seed.parse();
            args.fault_seed = Some(
                parsed
                    .map_err(|_| format!("{SEED_VAR} is `{seed}`, not a decimal 64-bit number"))?,
            );
        }
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

    /// Does the maintained view equal the recompute oracle, row for row?
    ///
    /// # Errors
    /// Recompute failures.
    pub fn agrees_with_oracle(&self) -> Result<bool> {
        let oracle = recompute_rows(&self.db, self.engine.plan())?;
        Ok(sorted(self.engine.visible_rows(&self.db)?) == sorted(oracle))
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
            ("trace", Json::Raw(trace.to_json())),
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

// ── Json ─────────────────────────────────────────────────────────────

/// How an object or array is laid out: one member per line, indented
/// two spaces under its parent, or all on one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    Block,
    Inline,
}

/// A JSON value with its layout — the one writer of every
/// `BENCH_*.json`. Strings and keys are escaped; a non-finite float is
/// `null`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i128),
    /// A float with a fixed number of decimals.
    Fixed(f64, usize),
    /// A float as `Display` prints it (`0.02`, `1`).
    Num(f64),
    Str(String),
    /// Already-rendered JSON — the library's own `to_json()` strings.
    Raw(String),
    Obj(Layout, Vec<(String, Json)>),
    Arr(Layout, Vec<Json>),
}

impl Json {
    /// An object, one field per line.
    pub fn block<'k>(fields: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
        Json::Obj(Layout::Block, owned(fields))
    }

    /// An object on one line.
    pub fn inline<'k>(fields: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
        Json::Obj(Layout::Inline, owned(fields))
    }

    /// An array, one item per line.
    pub fn rows(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(Layout::Block, items.into_iter().collect())
    }

    /// An array on one line.
    pub fn list(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(Layout::Inline, items.into_iter().collect())
    }

    /// The document text (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    /// Write the document, newline-terminated, to `path`.
    ///
    /// # Errors
    /// [`Error::Config`] naming the path and the I/O error.
    pub fn write(&self, path: &str) -> Result<()> {
        std::fs::write(path, self.render() + "\n")
            .map_err(|e| Error::Config(format!("cannot write {path}: {e}")))
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        // A container's delimiters, layout and (key, value) members.
        type Members<'a> = Vec<(Option<&'a str>, &'a Json)>;
        let (delimiters, layout, members): ([char; 2], Layout, Members) = match self {
            Json::Obj(layout, fields) => {
                let members = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                (['{', '}'], *layout, members.collect())
            }
            Json::Arr(layout, items) => (
                ['[', ']'],
                *layout,
                items.iter().map(|v| (None, v)).collect(),
            ),
            scalar => return scalar.render_scalar(out),
        };
        let block = layout == Layout::Block;
        out.push(delimiters[0]);
        if block {
            out.push('\n');
        }
        for (i, (key, value)) in members.into_iter().enumerate() {
            if i > 0 {
                out.push_str(if block { ",\n" } else { ", " });
            }
            if block {
                let _ = write!(out, "{:1$}", "", indent + 2);
            }
            if let Some(key) = key {
                let _ = write!(out, "\"{}\": ", json_escape(key));
            }
            value.render_into(out, indent + 2);
        }
        if block {
            let _ = write!(out, "\n{:1$}", "", indent);
        }
        out.push(delimiters[1]);
    }

    fn render_scalar(&self, out: &mut String) {
        let _ = match self {
            Json::Bool(b) => write!(out, "{b}"),
            Json::Int(i) => write!(out, "{i}"),
            Json::Fixed(x, digits) if x.is_finite() => write!(out, "{x:.digits$}"),
            Json::Num(x) if x.is_finite() => write!(out, "{x}"),
            Json::Str(s) => write!(out, "\"{}\"", json_escape(s)),
            Json::Raw(s) => write!(out, "{s}"),
            _ => write!(out, "null"),
        };
    }
}

fn owned<'k>(fields: impl IntoIterator<Item = (&'k str, Json)>) -> Vec<(String, Json)> {
    let fields = fields.into_iter();
    fields.map(|(k, v)| (k.to_string(), v)).collect()
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(i: $t) -> Json {
                Json::Int(i as i128)
            }
        }
    )*};
}
json_from_int!(u32, u64, i64, usize);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        Experiment {
            name: "chaos",
            flags: &["--smoke", SEED_VAR],
            sweeps: &[],
            run: noop,
        },
    ];

    fn parse(line: &str, seed: Option<&str>) -> std::result::Result<(&'static str, Args), String> {
        let argv = line.split_whitespace().map(String::from);
        Args::parse(TABLE, argv, seed.map(String::from)).map(|(exp, args)| (exp.name, args))
    }

    #[test]
    fn omitted_sweep_is_all_and_a_flag_value_is_never_the_sweep() {
        let (name, args) = parse("fig12 --scale 0.02", None).unwrap();
        assert_eq!(name, "fig12");
        assert_eq!(args.sweep, "all");
        assert_eq!(args.scale, Some(0.02));
        assert_eq!(parse("fig12 all --scale 0.02", None).unwrap().1, args);
        let (_, joins) = parse("fig12 --smoke joins", None).unwrap();
        assert_eq!((joins.sweep, joins.smoke), ("joins", true));
        assert_eq!(parse("table2", None).unwrap().1, Args::default());
    }

    #[test]
    fn sizing_flags_parse_to_their_types_and_default_by_smoke() {
        let (_, args) = parse("tpch --smoke --rounds 8 --skew 30 --customers 60", None).unwrap();
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
            ("", "usage: idivm-bench <fig12|tpch|table2|chaos>"),
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
            (
                "chaos IDIVM_FAULT_SEED",
                "unexpected argument `IDIVM_FAULT_SEED`",
            ),
        ] {
            let err = parse(line, None).expect_err(line);
            assert!(err.starts_with(reason), "`{line}`: {err}");
            assert!(err.contains("usage: idivm-bench"), "`{line}`: {err}");
        }
        let err = parse("tpch --rounds x8", None).unwrap_err();
        assert!(err.ends_with(&TABLE[1].usage()), "{err}");
        assert_eq!(
            TABLE[0].usage(),
            "usage: idivm-bench fig12 [all|diff-size|joins|selectivity|fanout] [--smoke] \
             [--scale <value>]"
        );
    }

    #[test]
    fn fault_seed_is_decimal_or_rejected_where_it_is_read() {
        assert_eq!(
            parse("chaos", Some("424242")).unwrap().1.fault_seed,
            Some(424_242)
        );
        assert_eq!(parse("chaos", None).unwrap().1.fault_seed, None);
        for bad in ["0x7e7", "", "-1", "2015 "] {
            let err = parse("chaos --smoke", Some(bad)).unwrap_err();
            assert!(err.starts_with("IDIVM_FAULT_SEED is `"), "{bad}: {err}");
            assert!(err.ends_with("usage: idivm-bench chaos [--smoke]"), "{err}");
            // An experiment that reads no seed runs whatever the variable holds.
            assert_eq!(parse("table2", Some(bad)).unwrap().1, Args::default());
        }
    }

    #[test]
    fn strings_and_keys_are_escaped() {
        let doc = Json::inline([("re\"covery", Json::from("a\"b\\c\nd\u{1}e"))]);
        assert_eq!(doc.render(), r#"{"re\"covery": "a\"b\\c\nd\u0001e"}"#);
    }

    #[test]
    fn non_finite_floats_render_null() {
        let doc = Json::list([
            Json::Fixed(f64::INFINITY, 3),
            Json::Fixed(f64::NAN, 3),
            Json::Num(f64::NEG_INFINITY),
            Json::Fixed(1.0, 3),
            Json::Num(0.02),
            Json::Num(1.0),
            Json::Null,
        ]);
        assert_eq!(doc.render(), "[null, null, null, 1.000, 0.02, 1, null]");
        assert!((speedup(10, 40) - 4.0).abs() < 1e-12 && speedup(0, 40).is_infinite());
        assert_eq!(overhead_pct(5.0, 0.0), 0.0);
        assert!((overhead_pct(3.0, 2.0) - 50.0).abs() < 1e-12);
    }

    /// The committed `BENCH_tpch.json`, byte for byte: block objects
    /// holding block arrays of inline objects and an inline object.
    #[test]
    fn block_and_inline_layouts_reproduce_bench_tpch() {
        let engine = |name: &str, accesses: u64, rescans: u64| {
            Json::inline([
                ("name", name.into()),
                ("accesses", accesses.into()),
                ("rescans", rescans.into()),
            ])
        };
        let doc = Json::block([
            ("bench", "tpch".into()),
            ("customers", 200usize.into()),
            ("rounds", 8u64.into()),
            ("diffs", 24usize.into()),
            ("extremum_pct", 30u32.into()),
            (
                "extremes",
                Json::block([
                    (
                        "engines",
                        Json::rows([
                            engine("id-ivm", 2114, 73),
                            engine("tuple-ivm", 2506, 73),
                            engine("sdbt-fixed", 2329, 73),
                            engine("id-ivm-p4", 2114, 73),
                        ]),
                    ),
                    ("recompute_accesses", 22_078u64.into()),
                    ("id_vs_recompute_ratio", Json::Fixed(22_078.0 / 2114.0, 4)),
                ]),
            ),
            (
                "order_pad",
                Json::block([
                    (
                        "engines",
                        Json::rows([engine("id-ivm", 1172, 0), engine("tuple-ivm", 1782, 0)]),
                    ),
                    ("recompute_accesses", 5715u64.into()),
                    ("padded_rows_final", 104usize.into()),
                ]),
            ),
            (
                "signatures_match",
                Json::inline([("cross_engine", true.into()), ("parallel_p4", true.into())]),
            ),
        ]);
        let want = r#"{
  "bench": "tpch",
  "customers": 200,
  "rounds": 8,
  "diffs": 24,
  "extremum_pct": 30,
  "extremes": {
    "engines": [
      {"name": "id-ivm", "accesses": 2114, "rescans": 73},
      {"name": "tuple-ivm", "accesses": 2506, "rescans": 73},
      {"name": "sdbt-fixed", "accesses": 2329, "rescans": 73},
      {"name": "id-ivm-p4", "accesses": 2114, "rescans": 73}
    ],
    "recompute_accesses": 22078,
    "id_vs_recompute_ratio": 10.4437
  },
  "order_pad": {
    "engines": [
      {"name": "id-ivm", "accesses": 1172, "rescans": 0},
      {"name": "tuple-ivm", "accesses": 1782, "rescans": 0}
    ],
    "recompute_accesses": 5715,
    "padded_rows_final": 104
  },
  "signatures_match": {"cross_engine": true, "parallel_p4": true}
}"#;
        assert_eq!(doc.render(), want);
        // An inline array of inline objects (`BENCH_firehose.json`'s
        // `depth_series` shape) and the empty block array the
        // no-promotion multiview report carries.
        let doc = Json::block([
            ("cells", Json::list([engine("a", 1, 2), engine("b", 3, 4)])),
            ("events", Json::rows([])),
        ]);
        let want = "{\n  \"cells\": [{\"name\": \"a\", \"accesses\": 1, \"rescans\": 2}, \
                    {\"name\": \"b\", \"accesses\": 3, \"rescans\": 4}],\n  \
                    \"events\": [\n\n  ]\n}";
        assert_eq!(doc.render(), want);
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
        assert!(lane.agrees_with_oracle().unwrap());
    }
}
