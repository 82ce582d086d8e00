//! `mixed-tpch-reads`: the direct path. Rounds of 8 logged DML calls
//! on `db_mut()` followed by `tick()`, three SQL views under three
//! refresh policies, and one `read_view` every 8 rounds rotating over
//! the views. Small rounds, read barriers and MIN/MAX rescans: the same
//! `sched` and `core` layers as the firehose, used the other way round,
//! so a big-batch gain that taxes small rounds or reads shows here.

use crate::gen::{Inputs, TableRows};
use crate::harness::{
    apply, base_rows, between_steps, drift_pct, live_rows, load, lower, materialize_ms,
    total_accesses, us_between, views_match_oracle, CoreAccount, Layers, Rep,
};
use crate::reference::{Reference, Sample};
use crate::span::Tracer;
use crate::stats::{mean, median, quantile, ratio};
use idivm_core::IvmOptions;
use idivm_sched::{MaintenanceScheduler, RefreshPolicy, SchedulerConfig};
use idivm_types::Result;
use idivm_workloads::Tpch;
use std::time::Instant;

/// DML calls per round.
const ROUND: usize = 8;
/// One `read_view` every this many rounds.
const READ_EVERY_ROUNDS: u64 = 8;

const VIEWS: [&str; 3] = ["extremes", "extremes_lazy", "loj"];

fn views() -> [(&'static str, String, RefreshPolicy); 3] {
    let t = Tpch::default();
    [
        ("extremes", t.extremes_sql(), RefreshPolicy::Eager),
        ("extremes_lazy", t.extremes_sql(), RefreshPolicy::OnRead),
        (
            "loj",
            t.loj_sql(),
            RefreshPolicy::Deferred {
                max_staleness_rounds: 4,
            },
        ),
    ]
}

/// Generated inputs.
pub struct Ctx {
    pub inputs: Inputs,
}

impl Ctx {
    /// # Errors
    /// Generator bugs only.
    pub fn new(seed: u64, n_customers: usize, events: usize) -> Result<Ctx> {
        Ok(Ctx {
            inputs: crate::gen::tpch(seed, n_customers, events)?,
        })
    }
}

/// Generated rows in memory -> ready for the first DML call.
fn setup(
    tables: &[TableRows],
    tracer: &mut Tracer,
    reference: &mut Reference,
) -> Result<MaintenanceScheduler> {
    let db = tracer.time("reldb.load", || load(tables))?;
    between_steps(reference, tracer);
    let mut sched = MaintenanceScheduler::new(db, SchedulerConfig::default());
    for (name, sql, policy) in views() {
        let plan = tracer.time("sql.parse_lower", || lower(sched.db(), name, &sql))?;
        tracer.time("sql.register", || {
            sched.register(name, plan, policy, IvmOptions::default())
        })?;
        between_steps(reference, tracer);
    }
    Ok(sched)
}

#[derive(Default)]
struct Pass {
    rep: Rep,
    core: CoreAccount,
    rounds: u64,
    shared_hits: u64,
    shared_saved: u64,
    deferred: u64,
    barrier_us: Vec<f64>,
    recompute_ms: f64,
    materialize_ms: f64,
    drift_pct: f64,
}

/// One repetition: fresh system, every round, a drain so the deferred
/// and on-read views are current, the oracle gate, then the only
/// recovery an in-memory stack has: rebuilding from the base tables'
/// current rows.
fn pass(ctx: &Ctx, tracer: &mut Tracer) -> Result<Pass> {
    let mut reference = Reference::new();
    let (sched, setup_s) = reference.window(|r| setup(&ctx.inputs.tables, tracer, r));
    let mut sched = sched?;
    let rows_start = live_rows(sched.db(), &ctx.inputs.tables)?;

    let mut out = Pass::default();
    let mut rep = Rep {
        setup_s,
        events: ctx.inputs.entries.len() as u64,
        ..Rep::default()
    };
    let mut stamps = Vec::with_capacity(ROUND);
    let mut visible_us: Vec<Sample> = Vec::with_capacity(ctx.inputs.entries.len());
    let mut read_us: Vec<Sample> = Vec::new();
    let first_segment = reference.open_window();
    for chunk in ctx.inputs.entries.chunks(ROUND) {
        out.rounds += 1;
        tracer.set_round(out.rounds, reference.segment());
        stamps.clear();
        rep.failed += tracer.time("reldb.dml", || apply(sched.db_mut(), chunk, &mut stamps));
        let call = Instant::now();
        let summary = sched.tick()?;
        let done = Instant::now();
        for t in &stamps {
            visible_us.push((us_between(*t, done), reference.segment()));
        }
        if tracer.enabled() {
            let tick = tracer.record("sched.tick", call, done);
            out.core.absorb(&sched, &VIEWS, tracer, tick)?;
            out.shared_hits += summary.shared_hits;
            out.shared_saved += summary.shared_saved_accesses;
            out.deferred += summary.deferred.len() as u64;
        }
        if out.rounds.is_multiple_of(READ_EVERY_ROUNDS) {
            let view = VIEWS[(out.rounds / READ_EVERY_ROUNDS) as usize % VIEWS.len()];
            let read_start = Instant::now();
            let rows = sched.read_view(view)?;
            let read_end = Instant::now();
            std::hint::black_box(rows);
            read_us.push((us_between(read_start, read_end), reference.segment()));
            if tracer.enabled() {
                let read = tracer.record("sched.read_view", read_start, read_end);
                if out.core.absorb(&sched, &VIEWS, tracer, read)? {
                    out.barrier_us.push(us_between(read_start, read_end));
                }
            }
        }
        reference.tick();
    }
    let (window_raw_s, window_s) = reference.close_window(first_segment);
    rep.window_s = window_s;
    rep.speed = window_s / window_raw_s;
    rep.visible_us = reference.at_reference(&visible_us);
    rep.read_us = reference.at_reference(&read_us);

    sched.drain()?;
    let (correct, recompute_ms) = views_match_oracle(&sched, &VIEWS)?;
    rep.correct = correct;
    rep.accesses = total_accesses(&sched, &VIEWS)?;
    out.recompute_ms = recompute_ms;
    out.drift_pct = drift_pct(rows_start, live_rows(sched.db(), &ctx.inputs.tables)?);
    if tracer.enabled() {
        out.materialize_ms = materialize_ms(&mut sched, &VIEWS)?;
    }
    let rows = base_rows(sched.db(), &ctx.inputs.tables)?;
    drop(sched);
    let (rebuilt, rebuild_s) = reference.window(|r| setup(&rows, &mut Tracer::off(), r));
    std::hint::black_box(rebuilt?.rounds());
    rep.recovery_ms = vec![rebuild_s * 1e3];
    let speed = rep.speed;
    tracer.set_factors(reference.factors());
    out.core.scale(speed);
    out.recompute_ms *= speed;
    out.materialize_ms *= speed;
    for us in &mut out.barrier_us {
        *us *= speed;
    }

    out.rep = rep;
    Ok(out)
}

/// One untraced repetition.
///
/// # Errors
/// Errors of the program's own API (never expected on these inputs).
pub fn untraced(ctx: &Ctx) -> Result<Rep> {
    Ok(pass(ctx, &mut Tracer::off())?.rep)
}

/// The traced run: the same stream once untraced (the overhead's
/// base) and once under spans.
///
/// # Errors
/// Errors of the program's own API.
pub fn traced(ctx: &Ctx) -> Result<(Rep, Layers, Vec<Tracer>)> {
    let mut l = Layers::default();
    let base = pass(ctx, &mut Tracer::off())?;
    let mut tracer = Tracer::on("direct");
    let top = pass(ctx, &mut tracer)?;
    let events = top.rep.events as f64;
    let rounds = top.rounds as f64;
    let ticks = tracer.durations_us("sched.tick");

    l.put("visible_us_p99", quantile(&top.rep.visible_us, 0.99));
    l.put(
        "sql.parse_lower_us_per_view",
        mean(&tracer.durations_us("sql.parse_lower")),
    );
    l.put(
        "sql.register_ms_per_view",
        mean(&tracer.durations_us("sql.register")) / 1e3,
    );
    l.put("reldb.load_ms", tracer.total_us("reldb.load") / 1e3);
    l.put(
        "reldb.dml_us_per_event",
        tracer.total_us("reldb.dml") / events,
    );
    l.put("reldb.rows_live_drift_pct", top.drift_pct);
    l.put("sched.tick_us_p50", median(&ticks));
    l.put("sched.tick_us_p99", quantile(&ticks, 0.99));
    l.put(
        "sched.self_us_per_round",
        tracer.self_us("sched.tick") / rounds,
    );
    l.put("sched.read_us_p99", quantile(&top.rep.read_us, 0.99));
    l.put("sched.read_barrier_us_p50", median(&top.barrier_us));
    l.put(
        "sched.shared_hits_per_round",
        top.shared_hits as f64 / rounds,
    );
    l.put(
        "sched.shared_saved_accesses_per_round",
        top.shared_saved as f64 / rounds,
    );
    l.put(
        "sched.deferred_views_per_round",
        top.deferred as f64 / rounds,
    );
    l.put("sched.supervised_rounds", top.core.supervised as f64);
    l.put(
        "core.maintain_us_per_diff",
        ratio(top.core.wall_us, top.core.diffs as f64),
    );
    l.put(
        "core.accesses_per_diff",
        ratio(top.core.accesses as f64, top.core.diffs as f64),
    );
    l.put(
        "core.rescans_per_kevent",
        top.core.rescans as f64 / events * 1e3,
    );
    l.put(
        "core.engine_share",
        ratio(
            top.core.wall_us,
            tracer.total_us("sched.tick") + tracer.total_us("sched.read_view"),
        ),
    );
    l.put("exec.recompute_ms", top.recompute_ms);
    l.put(
        "exec.speedup_vs_recompute",
        ratio(top.recompute_ms * 1e3, mean(&ticks)),
    );
    l.put("exec.initial_materialize_ms", top.materialize_ms);

    let total = top.rep.window_s * 1e6 / events;
    let reldb = tracer.total_us("reldb.dml") / events;
    let sched = (tracer.self_us("sched.tick") + tracer.self_us("sched.read_view")) / events;
    let core = top.core.wall_us / events;
    l.put("trace.total_us_per_event", total);
    l.put("trace.reldb_us_per_event", reldb);
    l.put("trace.sched_us_per_event", sched);
    l.put("trace.core_us_per_event", core);
    l.put(
        "trace.unattributed_us_per_event",
        total - reldb - sched - core,
    );
    l.put(
        "trace.overhead_pct",
        (top.rep.window_s / base.rep.window_s - 1.0) * 100.0,
    );
    Ok((top.rep.with_gates_of(&[&base.rep]), l, vec![tracer]))
}
