//! `engine-fig12`: the bare id-IVM engine (`IdIvm::setup` +
//! `IdIvm::maintain`) on the paper's running example, aggregate view,
//! rounds of 200 diffs applied as direct DML. `sql` is used once, at
//! set-up, to lower the view's SQL text; `ingest`, `sched` and
//! `durability` are not on the path at all.
//!
//! The traced run drives the same diffs through the tuple-based and
//! SDBT baselines, through the engine with two threads, and through the
//! engine with its own per-operator trace switched on.

use crate::gen::{Inputs, TableRows, FIG12_ROUND};
use crate::harness::{
    apply, base_rows, between_steps, drift_pct, live_rows, load, lower, matches_oracle, us_between,
    Layers, Rep,
};
use crate::reference::{Reference, Sample};
use crate::span::Tracer;
use crate::stats::{quantile, ratio};
use idivm_algebra::Plan;
use idivm_core::{EngineConfig, IdIvm, IvmOptions, MaintenanceReport, TraceConfig};
use idivm_exec::{executor::sorted, materialize_view, ParallelConfig};
use idivm_reldb::Database;
use idivm_sdbt::{Sdbt, SdbtVariant};
use idivm_tuple::TupleIvm;
use idivm_types::Result;
use idivm_workloads::RunningExample;
use std::time::Instant;

const VIEW: &str = "V";

/// Generated inputs plus the configuration they were generated under.
pub struct Ctx {
    pub inputs: Inputs,
    cfg: RunningExample,
}

impl Ctx {
    /// # Errors
    /// Generator bugs only.
    pub fn new(seed: u64, cfg: RunningExample, rounds: usize) -> Result<Ctx> {
        Ok(Ctx {
            inputs: crate::gen::fig12(seed, &cfg, rounds)?,
            cfg,
        })
    }
}

/// Generated rows in memory -> ready for the first diff.
fn setup(
    ctx: &Ctx,
    tables: &[TableRows],
    options: IvmOptions,
    tracer: &mut Tracer,
    reference: &mut Reference,
) -> Result<(Database, IdIvm)> {
    let mut db = tracer.time("reldb.load", || load(tables))?;
    between_steps(reference, tracer);
    let plan = tracer.time("sql.parse_lower", || lower(&db, VIEW, &ctx.cfg.agg_sql()))?;
    let ivm = tracer.time("core.setup", || IdIvm::setup(&mut db, VIEW, plan, options))?;
    Ok((db, ivm))
}

/// What driving the diffs through one engine observed.
#[derive(Default)]
struct Drive {
    /// The window in seconds, raw and at reference speed.
    window_s: (f64, f64),
    visible_us: Vec<Sample>,
    read_us: Vec<Sample>,
    failed: u64,
    maintain_us: f64,
    diffs: u64,
    accesses: u64,
    rescans: u64,
    /// Sums over the engine's own round traces (when switched on).
    fold_us: f64,
    populate_us: f64,
    propagate_us: f64,
    apply_us: f64,
    dummies: u64,
    applied: u64,
}

impl Drive {
    /// State the summed engine times at reference speed.
    fn scale(&mut self, factor: f64) {
        for us in [
            &mut self.maintain_us,
            &mut self.fold_us,
            &mut self.populate_us,
            &mut self.propagate_us,
            &mut self.apply_us,
        ] {
            *us *= factor;
        }
    }
}

/// The timed window over the first `rounds` rounds: DML, `maintain`,
/// one read of the view per round.
fn drive(
    db: &mut Database,
    ctx: &Ctx,
    rounds: usize,
    tracer: &mut Tracer,
    reference: &mut Reference,
    mut maintain: impl FnMut(&mut Database) -> Result<MaintenanceReport>,
) -> Result<Drive> {
    let mut d = Drive::default();
    let mut stamps = Vec::with_capacity(FIG12_ROUND);
    let first_segment = reference.open_window();
    for (round, chunk) in ctx
        .inputs
        .entries
        .chunks(FIG12_ROUND)
        .take(rounds)
        .enumerate()
    {
        tracer.set_round(round as u64 + 1, reference.segment());
        stamps.clear();
        d.failed += tracer.time("reldb.dml", || apply(db, chunk, &mut stamps));
        let call = Instant::now();
        let report = maintain(db)?;
        let done = Instant::now();
        tracer.record("core.maintain", call, done);
        for t in &stamps {
            d.visible_us
                .push((us_between(*t, done), reference.segment()));
        }
        d.maintain_us += us_between(call, done);
        d.diffs += report.base_diff_tuples as u64;
        d.accesses += report.total_accesses();
        d.rescans += report.rescans;
        if let Some(trace) = &report.trace {
            d.fold_us += trace.timings.fold.as_secs_f64() * 1e6;
            d.populate_us += trace.timings.populate.as_secs_f64() * 1e6;
            d.propagate_us += trace.timings.propagate.as_secs_f64() * 1e6;
            d.apply_us += trace.timings.apply.as_secs_f64() * 1e6;
            d.dummies += trace.dummy_diffs();
            d.applied += trace.applied_diffs();
        }
        // The bare engine has no `read_view`; reading the view is what
        // the catalog's `rows` does: the materialized table, sorted.
        let read_start = Instant::now();
        let rows = sorted(db.table(VIEW)?.rows_uncounted());
        let read_end = Instant::now();
        std::hint::black_box(rows);
        tracer.record("reldb.read", read_start, read_end);
        d.read_us
            .push((us_between(read_start, read_end), reference.segment()));
        reference.tick();
    }
    d.window_s = reference.close_window(first_segment);
    Ok(d)
}

struct Pass {
    rep: Rep,
    drive: Drive,
    recompute_ms: f64,
    materialize_ms: f64,
    drift_pct: f64,
}

/// One repetition on the id-IVM engine: fresh system, every round, the
/// oracle gate, then the only recovery a bare engine has: rebuilding
/// from the base tables' current rows.
fn pass(ctx: &Ctx, options: IvmOptions, tracer: &mut Tracer) -> Result<Pass> {
    let rounds = ctx.inputs.entries.len() / FIG12_ROUND;
    let mut reference = Reference::new();
    let (built, setup_s) = reference.window(|r| setup(ctx, &ctx.inputs.tables, options, tracer, r));
    let (mut db, ivm) = built?;
    let rows_start = live_rows(&db, &ctx.inputs.tables)?;

    let mut drive = drive(&mut db, ctx, rounds, tracer, &mut reference, |db| {
        ivm.maintain(db)
    })?;

    let (correct, recompute_ms) = matches_oracle(&db, VIEW, ivm.plan())?;
    let drift = drift_pct(rows_start, live_rows(&db, &ctx.inputs.tables)?);
    let mut materialize_ms = 0.0;
    if tracer.enabled() {
        let started = Instant::now();
        materialize_view(&mut db, "__bench_scratch", ivm.plan())?;
        materialize_ms = started.elapsed().as_secs_f64() * 1e3;
        db.drop_table("__bench_scratch");
    }
    let rows = base_rows(&db, &ctx.inputs.tables)?;
    drop(db);
    let (rebuilt, rebuild_s) =
        reference.window(|r| setup(ctx, &rows, options, &mut Tracer::off(), r));
    std::hint::black_box(rebuilt?.0.table(VIEW)?.len());
    let recovery_ms = vec![rebuild_s * 1e3];
    let (window_raw_s, window_s) = drive.window_s;
    let speed = window_s / window_raw_s;
    tracer.set_factors(reference.factors());
    drive.scale(speed);

    Ok(Pass {
        rep: Rep {
            setup_s,
            window_s,
            events: (rounds * FIG12_ROUND) as u64,
            visible_us: reference.at_reference(&drive.visible_us),
            read_us: reference.at_reference(&drive.read_us),
            recovery_ms,
            accesses: drive.accesses,
            failed: drive.failed,
            correct,
            speed,
        },
        drive,
        recompute_ms: recompute_ms * speed,
        materialize_ms: materialize_ms * speed,
        drift_pct: drift,
    })
}

/// One untraced repetition.
///
/// # Errors
/// Errors of the program's own API (never expected on these inputs).
pub fn untraced(ctx: &Ctx) -> Result<Rep> {
    Ok(pass(ctx, IvmOptions::default(), &mut Tracer::off())?.rep)
}

/// What a comparison engine's `maintain` looks like to the driver.
type Maintain = Box<dyn Fn(&mut Database) -> Result<MaintenanceReport>>;

/// The first `rounds` rounds through a comparison engine that `build`
/// sets up over the loaded tables and the view's plan.
fn baseline(
    ctx: &Ctx,
    rounds: usize,
    build: impl FnOnce(&mut Database, Plan) -> Result<Maintain>,
) -> Result<Drive> {
    let mut db = load(&ctx.inputs.tables)?;
    let plan = lower(&db, VIEW, &ctx.cfg.agg_sql())?;
    let maintain = build(&mut db, plan)?;
    let mut reference = Reference::new();
    let mut d = drive(
        &mut db,
        ctx,
        rounds,
        &mut Tracer::off(),
        &mut reference,
        maintain,
    )?;
    d.scale(d.window_s.1 / d.window_s.0);
    Ok(d)
}

/// The traced run: the engine pass under spans, plus the comparison
/// passes. Returns the engine's repetition, the per-layer numbers and
/// the recorded spans.
///
/// # Errors
/// Errors of the program's own API.
pub fn traced(ctx: &Ctx) -> Result<(Rep, Layers, Vec<Tracer>)> {
    let mut l = Layers::default();
    let base = pass(ctx, IvmOptions::default(), &mut Tracer::off())?;
    let mut tracer = Tracer::on("engine");
    let top = pass(ctx, IvmOptions::default(), &mut tracer)?;
    let events = top.rep.events as f64;
    let rounds = events / FIG12_ROUND as f64;
    let diffs = top.drive.diffs as f64;

    // The engine's own per-operator trace: phase split and dummies, and
    // what switching it on costs.
    let own = pass(
        ctx,
        IvmOptions {
            trace: TraceConfig::enabled(),
            ..IvmOptions::default()
        },
        &mut Tracer::off(),
    )?;
    let (own_rep, own) = (own.rep, own.drive);

    // Baselines and P = 2 see the first quarter of the rounds.
    let part = (ctx.inputs.entries.len() / FIG12_ROUND / 4).max(1);
    let engine_part = baseline(ctx, part, |db, plan| {
        let ivm = IdIvm::setup(db, VIEW, plan, IvmOptions::default())?;
        Ok(Box::new(move |db| ivm.maintain(db)))
    })?;
    let tuple = baseline(ctx, part, |db, plan| {
        let ivm = TupleIvm::setup(db, VIEW, plan)?;
        Ok(Box::new(move |db| ivm.maintain(db)))
    })?;
    let sdbt = baseline(ctx, part, |db, plan| {
        let partials = ctx.cfg.sdbt_all_partials(db)?;
        let engine = Sdbt::setup(db, VIEW, plan, partials, SdbtVariant::Streams)?;
        Ok(Box::new(move |db| engine.maintain(db)))
    })?;
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    if threads >= 2 {
        let p2 = baseline(ctx, part, |db, plan| {
            let mut ivm = IdIvm::setup(db, VIEW, plan, IvmOptions::default())?;
            ivm.set_parallel(ParallelConfig::with_threads(2))?;
            Ok(Box::new(move |db| ivm.maintain(db)))
        })?;
        l.put(
            "exec.parallel_p2_ratio",
            ratio(engine_part.maintain_us, p2.maintain_us),
        );
    }

    l.put("visible_us_p99", quantile(&top.rep.visible_us, 0.99));
    l.put(
        "sql.parse_lower_us_per_view",
        tracer.total_us("sql.parse_lower"),
    );
    l.put(
        "sql.register_ms_per_view",
        tracer.total_us("core.setup") / 1e3,
    );
    l.put("reldb.load_ms", tracer.total_us("reldb.load") / 1e3);
    l.put(
        "reldb.dml_us_per_event",
        tracer.total_us("reldb.dml") / events,
    );
    l.put("reldb.fold_us_per_round", own.fold_us / rounds);
    l.put("reldb.rows_live_drift_pct", top.drift_pct);
    l.put(
        "core.maintain_us_per_diff",
        ratio(top.drive.maintain_us, diffs),
    );
    l.put(
        "core.fold_us_per_diff",
        ratio(own.fold_us, own.diffs as f64),
    );
    l.put(
        "core.populate_us_per_diff",
        ratio(own.populate_us, own.diffs as f64),
    );
    l.put(
        "core.propagate_us_per_diff",
        ratio(own.propagate_us, own.diffs as f64),
    );
    l.put(
        "core.apply_us_per_diff",
        ratio(own.apply_us, own.diffs as f64),
    );
    l.put(
        "core.accesses_per_diff",
        ratio(top.drive.accesses as f64, diffs),
    );
    l.put(
        "core.dummy_diff_ratio",
        ratio(own.dummies as f64, own.applied as f64),
    );
    l.put(
        "core.rescans_per_kevent",
        top.drive.rescans as f64 / events * 1e3,
    );
    l.put(
        "core.engine_share",
        ratio(top.drive.maintain_us, top.rep.window_s * 1e6),
    );
    l.put(
        "core.trace_overhead_pct",
        (ratio(own.maintain_us, top.drive.maintain_us) - 1.0) * 100.0,
    );
    l.put(
        "core.speedup_vs_tuple",
        ratio(tuple.maintain_us, engine_part.maintain_us),
    );
    l.put(
        "tuple-ivm.maintain_us_per_diff",
        ratio(tuple.maintain_us, tuple.diffs as f64),
    );
    l.put(
        "tuple-ivm.accesses_per_diff",
        ratio(tuple.accesses as f64, tuple.diffs as f64),
    );
    l.put(
        "sdbt.maintain_us_per_diff",
        ratio(sdbt.maintain_us, sdbt.diffs as f64),
    );
    l.put(
        "sdbt.accesses_per_diff",
        ratio(sdbt.accesses as f64, sdbt.diffs as f64),
    );
    l.put("exec.recompute_ms", top.recompute_ms);
    l.put(
        "exec.speedup_vs_recompute",
        ratio(top.recompute_ms * 1e3, top.drive.maintain_us / rounds),
    );
    l.put("exec.initial_materialize_ms", top.materialize_ms);

    let total = top.rep.window_s * 1e6 / events;
    let reldb = tracer.total_us("reldb.dml") / events;
    let core = top.drive.maintain_us / events;
    l.put("trace.total_us_per_event", total);
    l.put("trace.reldb_us_per_event", reldb);
    l.put("trace.core_us_per_event", core);
    l.put("trace.unattributed_us_per_event", total - reldb - core);
    l.put(
        "trace.overhead_pct",
        (top.rep.window_s / base.rep.window_s - 1.0) * 100.0,
    );
    let mut rep = top.rep.with_gates_of(&[&base.rep, &own_rep]);
    rep.failed += tuple.failed + sdbt.failed + engine_part.failed;
    Ok((rep, l, vec![tracer]))
}
