//! `firehose-multiview` and `durable-multiview`: the same seeded wire
//! stream through `IngestPipeline::{offer, poll}` (resp.
//! `Durable::{offer, poll_ingest}`) in cuts of 64 into the five
//! SQL-registered eager views of the multiview suite. The two
//! workloads differ only by the durability layer.
//!
//! The traced run attributes time by replay, from outside: the stream
//! runs once more through the plain ingest stack (`ingest` pass) and
//! once as direct DML + `tick` in the same batches (`direct` pass);
//! what a higher stack costs beyond the one below it is that layer's
//! self time.

use crate::gen::Inputs;
use crate::harness::{
    apply, base_rows, between_steps, drift_pct, live_rows, load, lower, materialize_ms,
    total_accesses, us_between, views_match_oracle, CoreAccount, Layers, Rep,
};
use crate::reference::{Reference, Sample};
use crate::span::Tracer;
use crate::stats::{mean, median, quantile, ratio};
use idivm_core::{FaultPlan, FaultState, IvmOptions};
use idivm_cost::PromotionConfig;
use idivm_durability::{
    Checkpoint, DurabilityConfig, DurabilityPolicy, Durable, RoundKind, Wal, WalRecord,
    CHECKPOINT_FILE,
};
use idivm_ingest::{
    BatchPolicy, IngestOutcome, IngestPipeline, IngestTotals, OverflowPolicy, PipelineConfig,
    QueueConfig, RawEvent, SendOutcome,
};
use idivm_sched::{MaintenanceScheduler, RefreshPolicy, SchedulerConfig};
use idivm_types::{Error, Result, Row};
use idivm_workloads::bsma::Bsma;
use idivm_workloads::multiview::VIEW_NAMES;
use idivm_workloads::MultiView;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Events per cut.
const CUT: usize = 64;
/// One `read_view` every this many cuts, rotating over the views.
const READ_EVERY_CUTS: u64 = 2;
/// WAL fsync cadence of the end-to-end durable run.
const FSYNC_EVERY: u32 = 8;
/// Checkpoint cadence in journaled rounds.
const CHECKPOINT_EVERY: u32 = 256;
/// Times a repetition recovers its store; the run's `recovery_ms` is
/// the median of all its repetitions' recoveries.
const RECOVERY_OPENS: usize = 4;

/// The view to read after cut number `cuts`, if one is due.
fn read_after(cuts: u64) -> Option<&'static str> {
    cuts.is_multiple_of(READ_EVERY_CUTS)
        .then(|| VIEW_NAMES[(cuts / READ_EVERY_CUTS) as usize % VIEW_NAMES.len()])
}

/// Which stack a pass runs the stream through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `IngestPipeline` over a `MaintenanceScheduler`.
    Plain { promotion: bool },
    /// The same inside `Durable` under this fsync policy.
    Durable(DurabilityPolicy),
}

/// Everything a pass needs: generated inputs, the wire stream, the
/// view definitions, and where durable stores may be put.
pub struct Ctx {
    pub inputs: Inputs,
    pub wire: Vec<RawEvent>,
    views: Vec<(&'static str, String)>,
    scratch: PathBuf,
    stores: std::cell::Cell<u32>,
}

impl Ctx {
    /// # Errors
    /// Generator bugs only.
    pub fn new(seed: u64, scale: f64, events: usize, scratch: &Path) -> Result<Ctx> {
        let inputs = crate::gen::multiview(seed, scale, events)?;
        let suite = MultiView {
            bsma: Bsma { scale, seed },
        };
        let views = VIEW_NAMES
            .iter()
            .map(|n| Ok((*n, suite.sql(n)?)))
            .collect::<Result<Vec<_>>>()?;
        Ok(Ctx {
            wire: inputs.wire(),
            inputs,
            views,
            scratch: scratch.to_path_buf(),
            stores: std::cell::Cell::new(0),
        })
    }

    fn next_dir(&self) -> PathBuf {
        let n = self.stores.get();
        self.stores.set(n + 1);
        self.scratch.join(format!("store-{n}"))
    }
}

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        queue: QueueConfig::with_capacity(1024, OverflowPolicy::Block),
        // Cuts are by count only: the virtual clock advances one tick
        // per cut, so age never triggers.
        batch: BatchPolicy {
            max_events: CUT,
            max_age_ticks: u64::MAX / 2,
            max_staleness_ticks: u64::MAX / 2,
        },
    }
}

fn no_faults() -> Arc<FaultState> {
    Arc::new(FaultState::new(FaultPlan::disabled()))
}

fn durability(policy: DurabilityPolicy) -> DurabilityConfig {
    DurabilityConfig {
        policy,
        checkpoint_every_rounds: CHECKPOINT_EVERY,
    }
}

enum Stack {
    Plain {
        sched: Box<MaintenanceScheduler>,
        pipeline: Box<IngestPipeline>,
    },
    Durable(Box<Durable>),
}

impl Stack {
    fn offer(&mut self, now: u64, ev: &RawEvent) -> Result<SendOutcome> {
        match self {
            Stack::Plain { pipeline, .. } => pipeline.offer(now, ev),
            Stack::Durable(store) => store.offer(now, ev),
        }
    }

    fn poll(&mut self, now: u64) -> Result<Option<IngestOutcome>> {
        match self {
            Stack::Plain { sched, pipeline } => pipeline.poll(now, sched),
            Stack::Durable(store) => store.poll_ingest(now),
        }
    }

    fn flush(&mut self, now: u64) -> Result<Option<IngestOutcome>> {
        match self {
            Stack::Plain { sched, pipeline } => pipeline.flush(now, sched),
            Stack::Durable(store) => store.flush_ingest(now),
        }
    }

    fn read_view(&mut self, name: &str) -> Result<Vec<Row>> {
        match self {
            Stack::Plain { sched, .. } => sched.read_view(name),
            Stack::Durable(store) => store.read_view(name),
        }
    }

    fn sched(&self) -> &MaintenanceScheduler {
        match self {
            Stack::Plain { sched, .. } => sched,
            Stack::Durable(store) => store.scheduler(),
        }
    }

    fn pipeline(&self) -> Result<&IngestPipeline> {
        match self {
            Stack::Plain { pipeline, .. } => Ok(pipeline),
            Stack::Durable(store) => store
                .pipeline()
                .ok_or_else(|| Error::Internal("durable store lost its pipeline".into())),
        }
    }

    fn wal_len(&self) -> u64 {
        match self {
            Stack::Plain { .. } => 0,
            Stack::Durable(store) => store.wal_len(),
        }
    }
}

/// Generated rows in memory -> ready for the first event.
fn setup(
    ctx: &Ctx,
    tables: &[crate::gen::TableRows],
    kind: Kind,
    tracer: &mut Tracer,
    reference: &mut Reference,
) -> Result<Stack> {
    let db = tracer.time("reldb.load", || load(tables))?;
    between_steps(reference, tracer);
    match kind {
        Kind::Plain { promotion } => {
            let config = SchedulerConfig {
                promotion: promotion.then(PromotionConfig::default),
                ..SchedulerConfig::default()
            };
            let mut sched = MaintenanceScheduler::new(db, config);
            for (name, sql) in &ctx.views {
                let plan = tracer.time("sql.parse_lower", || lower(sched.db(), name, sql))?;
                tracer.time("sql.register", || {
                    sched.register(name, plan, RefreshPolicy::Eager, IvmOptions::default())
                })?;
                between_steps(reference, tracer);
            }
            Ok(Stack::Plain {
                sched: Box::new(sched),
                pipeline: Box::new(IngestPipeline::new(pipeline_config(), no_faults())?),
            })
        }
        Kind::Durable(policy) => {
            let dir = ctx.next_dir();
            let mut store = tracer.time("durability.create", || {
                Durable::create(
                    &dir,
                    db,
                    SchedulerConfig::default(),
                    IvmOptions::default(),
                    durability(policy),
                    no_faults(),
                )
            })?;
            between_steps(reference, tracer);
            for (name, sql) in &ctx.views {
                let plan = tracer.time("sql.parse_lower", || lower(store.db(), name, sql))?;
                tracer.time("sql.register", || {
                    store.register(name, plan, RefreshPolicy::Eager)
                })?;
                between_steps(reference, tracer);
            }
            store.attach_pipeline(pipeline_config())?;
            Ok(Stack::Durable(Box::new(store)))
        }
    }
}

/// What driving the stream through a stack observed.
#[derive(Default)]
struct Drive {
    /// The window in seconds, raw and at reference speed.
    window_s: (f64, f64),
    visible_us: Vec<Sample>,
    read_us: Vec<Sample>,
    failed: u64,
    cuts: u64,
    batch_events: u64,
    promotions: u64,
    /// Journaled rounds (cuts and reads) since the last checkpoint.
    wal_tail: u64,
    /// Durations of the calls during which a checkpoint was taken.
    checkpoint_call_us: Vec<f64>,
}

/// The timed window: hand every event over as fast as the calls
/// return; one client, one thread.
fn drive(
    stack: &mut Stack,
    wire: &[RawEvent],
    tracer: &mut Tracer,
    reference: &mut Reference,
) -> Result<Drive> {
    let mut d = Drive {
        visible_us: Vec::with_capacity(wire.len()),
        ..Drive::default()
    };
    let mut handed: Vec<Instant> = Vec::with_capacity(CUT);
    let first_segment = reference.open_window();
    // A cut committed: its events are visible; maybe read a view.
    fn committed(
        d: &mut Drive,
        stack: &mut Stack,
        tracer: &mut Tracer,
        handed: &mut Vec<Instant>,
        outcome: &IngestOutcome,
        call: (Instant, Instant, u64, u32),
    ) -> Result<()> {
        let (call_start, done, wal_before, segment) = call;
        for t in handed.drain(..) {
            d.visible_us.push((us_between(t, done), segment));
        }
        d.cuts += 1;
        d.batch_events += outcome.batch_events as u64;
        d.promotions += outcome.summary.promotions.len() as u64;
        d.failed += outcome.trace.dead_lettered + outcome.trace.shed;
        d.wal_tail += 1;
        if stack.wal_len() < wal_before {
            d.wal_tail = 0;
            d.checkpoint_call_us.push(us_between(call_start, done));
        }
        if let Some(view) = read_after(d.cuts) {
            let wal_before = stack.wal_len();
            let read_start = Instant::now();
            let rows = stack.read_view(view)?;
            let read_end = Instant::now();
            std::hint::black_box(rows);
            tracer.record("sched.read_view", read_start, read_end);
            d.read_us.push((us_between(read_start, read_end), segment));
            d.wal_tail += 1;
            if stack.wal_len() < wal_before {
                d.wal_tail = 0;
                d.checkpoint_call_us.push(us_between(read_start, read_end));
            }
        }
        Ok(())
    }
    for ev in wire {
        let now = d.cuts;
        handed.push(Instant::now());
        if tracer.time("ingest.offer", || stack.offer(now, ev))? != SendOutcome::Enqueued {
            handed.pop();
            d.failed += 1;
        }
        let wal_before = stack.wal_len();
        let call_start = Instant::now();
        let outcome = stack.poll(now)?;
        let done = Instant::now();
        if let Some(outcome) = outcome {
            tracer.record("ingest.cut", call_start, done);
            committed(
                &mut d,
                stack,
                tracer,
                &mut handed,
                &outcome,
                (call_start, done, wal_before, reference.segment()),
            )?;
            reference.tick();
            tracer.set_round(d.cuts, reference.segment());
        } else {
            tracer.record("ingest.poll", call_start, done);
        }
    }
    let wal_before = stack.wal_len();
    let call_start = Instant::now();
    let outcome = stack.flush(d.cuts)?;
    let done = Instant::now();
    if let Some(outcome) = outcome {
        tracer.record("ingest.cut", call_start, done);
        committed(
            &mut d,
            stack,
            tracer,
            &mut handed,
            &outcome,
            (call_start, done, wal_before, reference.segment()),
        )?;
    }
    d.window_s = reference.close_window(first_segment);
    Ok(d)
}

/// The gates of one pass, outside every timed window: every view
/// equals the recompute oracle, and every offered event is accounted
/// for as admitted, dead-lettered or shed.
fn gates(stack: &Stack, offered: usize) -> Result<(bool, f64, IngestTotals)> {
    let (views_ok, recompute_ms) = views_match_oracle(stack.sched(), &VIEW_NAMES)?;
    let totals = stack.pipeline()?.totals();
    let conserved = totals.admitted + totals.dead_lettered + totals.shed == offered as u64;
    if !conserved {
        eprintln!("conservation violated: {totals:?} of {offered} offered");
    }
    Ok((views_ok && conserved, recompute_ms, totals))
}

/// What a full pass keeps for the per-layer numbers.
#[derive(Default)]
struct Pass {
    rep: Rep,
    drive: Drive,
    totals: IngestTotals,
    queue_depth_max: u64,
    recompute_ms: f64,
    materialize_ms: f64,
    drift_pct: f64,
    checkpoint_ms: Vec<f64>,
    checkpoint_bytes: u64,
    checkpoint_load_ms: f64,
    replayed: u64,
}

/// One repetition: fresh system, the whole stream, the gates, then
/// recovery — for a durable stack `drop` + `Durable::open`, for an
/// in-memory one the only recovery there is: rebuilding from the base
/// tables' current rows.
fn pass(ctx: &Ctx, kind: Kind, tracer: &mut Tracer, probe_layers: bool) -> Result<Pass> {
    let mut reference = Reference::new();
    let (stack, setup_s) = reference.window(|r| setup(ctx, &ctx.inputs.tables, kind, tracer, r));
    let mut stack = stack?;
    let rows_start = live_rows(stack.sched().db(), &ctx.inputs.tables)?;

    let drive = drive(&mut stack, &ctx.wire, tracer, &mut reference)?;

    let (mut correct, recompute_ms, totals) = gates(&stack, ctx.wire.len())?;
    let accesses = total_accesses(stack.sched(), &VIEW_NAMES)?;
    let queue_depth_max = stack.pipeline()?.queue().stats().max_depth;
    let drift = drift_pct(
        rows_start,
        live_rows(stack.sched().db(), &ctx.inputs.tables)?,
    );
    let mut out = Pass {
        totals,
        queue_depth_max,
        recompute_ms,
        drift_pct: drift,
        replayed: drive.wal_tail,
        drive,
        ..Pass::default()
    };

    let recovery_ms = match stack {
        Stack::Plain { mut sched, .. } => {
            if probe_layers {
                out.materialize_ms = materialize_ms(&mut sched, &VIEW_NAMES)?;
            }
            let rows = base_rows(sched.db(), &ctx.inputs.tables)?;
            drop(sched);
            let (rebuilt, rebuild_s) =
                reference.window(|r| setup(ctx, &rows, kind, &mut Tracer::off(), r));
            std::hint::black_box(rebuilt?.sched().rounds());
            vec![rebuild_s * 1e3]
        }
        Stack::Durable(store) => {
            let Kind::Durable(policy) = kind else {
                return Err(Error::Internal("durable stack of a plain kind".into()));
            };
            let signature = store.signature();
            let dir = store.dir().to_path_buf();
            drop(store);
            if probe_layers {
                let started = Instant::now();
                std::hint::black_box(Checkpoint::load(&dir)?.last_lsn);
                out.checkpoint_load_ms = started.elapsed().as_secs_f64() * 1e3;
            }
            // `Durable::open` writes nothing, so the same store recovers
            // several times; the last one stays open for the probes.
            let mut opens_ms = Vec::with_capacity(RECOVERY_OPENS);
            let mut reopened = None;
            for _ in 0..RECOVERY_OPENS {
                drop(reopened.take());
                let (store, open_s) = reference.bracket(|| {
                    Durable::open(
                        &dir,
                        SchedulerConfig::default(),
                        IvmOptions::default(),
                        durability(policy),
                        no_faults(),
                        Some(pipeline_config()),
                    )
                });
                let store = store?;
                opens_ms.push(open_s * 1e3);
                // Under `Off` nothing is journaled: recovery lands on the
                // last checkpoint by design, not on the pre-drop state.
                if policy != DurabilityPolicy::Off && store.signature() != signature {
                    eprintln!("recovery mismatch: reopened store's signature differs");
                    correct = false;
                }
                reopened = Some(store);
            }
            let Some(mut reopened) = reopened else {
                return Err(Error::Internal("no recovery was timed".into()));
            };
            if probe_layers {
                for _ in 0..3 {
                    let started = Instant::now();
                    reopened.checkpoint()?;
                    out.checkpoint_ms
                        .push(started.elapsed().as_secs_f64() * 1e3);
                }
                out.checkpoint_bytes = std::fs::metadata(dir.join(CHECKPOINT_FILE))
                    .map_err(|e| Error::Internal(format!("checkpoint size: {e}")))?
                    .len();
            }
            drop(reopened);
            std::fs::remove_dir_all(&dir)
                .map_err(|e| Error::Internal(format!("remove {}: {e}", dir.display())))?;
            opens_ms
        }
    };

    let (window_raw_s, window_s) = out.drive.window_s;
    let speed = window_s / window_raw_s;
    tracer.set_factors(reference.factors());
    for ms in out.checkpoint_ms.iter_mut().chain([
        &mut out.recompute_ms,
        &mut out.materialize_ms,
        &mut out.checkpoint_load_ms,
    ]) {
        *ms *= speed;
    }
    for us in &mut out.drive.checkpoint_call_us {
        *us *= speed;
    }
    out.rep = Rep {
        setup_s,
        window_s,
        events: ctx.wire.len() as u64,
        visible_us: reference.at_reference(&out.drive.visible_us),
        read_us: reference.at_reference(&out.drive.read_us),
        recovery_ms,
        accesses,
        failed: out.drive.failed,
        correct,
        speed,
    };
    Ok(out)
}

/// One untraced repetition of `firehose-multiview` (`durable` false)
/// or `durable-multiview`.
///
/// # Errors
/// Errors of the program's own API (never expected on these inputs).
pub fn untraced(ctx: &Ctx, durable: bool) -> Result<Rep> {
    Ok(pass(ctx, end_to_end_kind(durable), &mut Tracer::off(), false)?.rep)
}

fn end_to_end_kind(durable: bool) -> Kind {
    if durable {
        Kind::Durable(DurabilityPolicy::EveryNRounds(FSYNC_EVERY))
    } else {
        Kind::Plain { promotion: false }
    }
}

/// What the direct-path replay observed.
#[derive(Default)]
struct Direct {
    core: CoreAccount,
    rounds: u64,
    shared_hits: u64,
    shared_saved: u64,
    deferred: u64,
    barrier_us: Vec<f64>,
    fold_us: Vec<f64>,
    append_us: Vec<f64>,
    fsync_us: Vec<f64>,
    wal_bytes: u64,
}

/// The `direct` pass: the same batches as logged DML + `tick`, reads on
/// the same schedule. With `scratch_wal`, each round's own record is
/// also appended to a scratch WAL (fsync every 8), timing
/// `Wal::append` / `Wal::fsync` directly.
fn direct(ctx: &Ctx, tracer: &mut Tracer, scratch_wal: Option<&Path>) -> Result<Direct> {
    let mut reference = Reference::new();
    let Stack::Plain { mut sched, .. } = setup(
        ctx,
        &ctx.inputs.tables,
        Kind::Plain { promotion: false },
        &mut Tracer::off(),
        &mut reference,
    )?
    else {
        return Err(Error::Internal("plain setup built a durable stack".into()));
    };
    let mut wal = match scratch_wal {
        Some(path) => Some(Wal::create(path, 1, no_faults())?),
        None => None,
    };
    let mut out = Direct::default();
    let first_segment = reference.open_window();
    let mut stamps = Vec::with_capacity(CUT);
    let mut journaled = 0u32;
    let mut admitted = 0u64;
    let mut journal = |out: &mut Direct, wal: &mut Option<Wal>, record: WalRecord| -> Result<()> {
        let Some(wal) = wal.as_mut() else {
            return Ok(());
        };
        let started = Instant::now();
        wal.append(&record)?;
        out.append_us.push(us_between(started, Instant::now()));
        journaled += 1;
        if journaled.is_multiple_of(FSYNC_EVERY) {
            let started = Instant::now();
            wal.fsync()?;
            out.fsync_us.push(us_between(started, Instant::now()));
        }
        out.wal_bytes = wal.len();
        Ok(())
    };
    for (round, chunk) in ctx.inputs.entries.chunks(CUT).enumerate() {
        let round = round as u64 + 1;
        out.rounds = round;
        tracer.set_round(round, reference.segment());
        stamps.clear();
        tracer.time("reldb.dml", || apply(sched.db_mut(), chunk, &mut stamps));
        admitted += chunk.len() as u64;
        let started = Instant::now();
        let net = sched.db().fold_log();
        out.fold_us.push(us_between(started, Instant::now()));
        journal(
            &mut out,
            &mut wal,
            WalRecord::Round {
                kind: RoundKind::Ingest {
                    expected_seq: BTreeMap::from([(0, admitted)]),
                    dlq_appended: Vec::new(),
                    totals: IngestTotals {
                        admitted,
                        cuts: round,
                        ..IngestTotals::default()
                    },
                },
                net,
            },
        )?;
        let started = Instant::now();
        let summary = sched.tick()?;
        let tick = tracer.record("sched.tick", started, Instant::now());
        out.core.absorb(&sched, &VIEW_NAMES, tracer, tick)?;
        out.shared_hits += summary.shared_hits;
        out.shared_saved += summary.shared_saved_accesses;
        out.deferred += summary.deferred.len() as u64;
        if let Some(view) = read_after(round) {
            let started = Instant::now();
            let rows = sched.read_view(view)?;
            let ended = Instant::now();
            std::hint::black_box(rows);
            let read = tracer.record("sched.read_view", started, ended);
            if out.core.absorb(&sched, &VIEW_NAMES, tracer, read)? {
                out.barrier_us.push(us_between(started, ended));
            }
            journal(
                &mut out,
                &mut wal,
                WalRecord::Round {
                    kind: RoundKind::ReadView(view.to_string()),
                    net: Default::default(),
                },
            )?;
        }
        reference.tick();
    }
    let (window_raw_s, window_s) = reference.close_window(first_segment);
    let speed = window_s / window_raw_s;
    tracer.set_factors(reference.factors());
    out.core.scale(speed);
    for us in out
        .barrier_us
        .iter_mut()
        .chain(&mut out.fold_us)
        .chain(&mut out.append_us)
        .chain(&mut out.fsync_us)
    {
        *us *= speed;
    }
    Ok(out)
}

/// The traced run of either workload: every pass once over the fixed
/// stream. Returns the end-to-end stack's repetition, the per-layer
/// numbers and the recorded spans.
///
/// # Errors
/// Errors of the program's own API.
pub fn traced(ctx: &Ctx, durable: bool) -> Result<(Rep, Layers, Vec<Tracer>)> {
    let kind = end_to_end_kind(durable);
    let events = ctx.wire.len() as f64;
    let mut l = Layers::default();

    let base = pass(ctx, kind, &mut Tracer::off(), false)?;
    let mut top_tracer = Tracer::on(if durable { "durable" } else { "ingest" });
    let top = pass(ctx, kind, &mut top_tracer, true)?;
    let mut tracers = vec![top_tracer];
    // The plain ingest stack's spans: the end-to-end pass itself on
    // firehose, one more pass on durable.
    let ingest_pass = if durable {
        let mut t = Tracer::on("ingest");
        let p = pass(ctx, Kind::Plain { promotion: false }, &mut t, true)?;
        tracers.push(t);
        Some(p)
    } else {
        None
    };
    let wal_path = ctx.scratch.join("scratch-wal.log");
    let mut direct_tracer = Tracer::on("direct");
    let d = direct(
        ctx,
        &mut direct_tracer,
        durable.then_some(wal_path.as_path()),
    )?;
    if durable {
        std::fs::remove_file(&wal_path)
            .map_err(|e| Error::Internal(format!("remove scratch wal: {e}")))?;
    }

    let plain = ingest_pass.as_ref().unwrap_or(&top);
    let it = &tracers[usize::from(durable)];
    let dt = &direct_tracer;

    l.put("visible_us_p99", quantile(&top.rep.visible_us, 0.99));
    l.put(
        "sql.parse_lower_us_per_view",
        mean(&it.durations_us("sql.parse_lower")),
    );
    l.put(
        "sql.register_ms_per_view",
        mean(&it.durations_us("sql.register")) / 1e3,
    );
    l.put("reldb.load_ms", it.total_us("reldb.load") / 1e3);

    let decode_start = Instant::now();
    for ev in &ctx.wire {
        std::hint::black_box(ev.decode().is_ok());
    }
    l.put(
        "ingest.decode_us_per_event",
        us_between(decode_start, Instant::now()) / events,
    );
    let cuts = it.durations_us("ingest.cut");
    // What a cut costs beyond the same batch as direct DML + tick,
    // paired by round and summarised by the median so that a stall in
    // either pass does not pass for ingest work; plus the calls that
    // only enqueue.
    let beyond_direct: Vec<f64> = cuts
        .iter()
        .zip(
            dt.durations_us("reldb.dml")
                .iter()
                .zip(dt.durations_us("sched.tick")),
        )
        .map(|(cut, (dml, tick))| cut - dml - tick)
        .collect();
    let ingest_self = (median(&beyond_direct) * beyond_direct.len() as f64
        + it.total_us("ingest.offer")
        + it.total_us("ingest.poll"))
        / events;
    l.put(
        "ingest.offer_us_per_event",
        it.total_us("ingest.offer") / events,
    );
    l.put("ingest.cut_us_p50", median(&cuts));
    l.put("ingest.cut_us_p99", quantile(&cuts, 0.99));
    l.put("ingest.self_us_per_event", ingest_self);
    l.put(
        "ingest.batch_events_mean",
        ratio(plain.drive.batch_events as f64, plain.drive.cuts as f64),
    );
    l.put("ingest.queue_depth_max", plain.queue_depth_max as f64);
    l.put("ingest.dead_lettered", plain.totals.dead_lettered as f64);
    l.put("ingest.shed", plain.totals.shed as f64);

    let rounds = d.rounds as f64;
    let ticks = dt.durations_us("sched.tick");
    let sched_self = dt.self_us("sched.tick") + dt.self_us("sched.read_view");
    l.put("reldb.dml_us_per_event", dt.total_us("reldb.dml") / events);
    l.put("reldb.fold_us_per_round", mean(&d.fold_us));
    l.put("reldb.rows_live_drift_pct", top.drift_pct);
    l.put("sched.tick_us_p50", median(&ticks));
    l.put("sched.tick_us_p99", quantile(&ticks, 0.99));
    l.put("sched.self_us_per_round", dt.self_us("sched.tick") / rounds);
    l.put(
        "sched.read_us_p99",
        quantile(&dt.durations_us("sched.read_view"), 0.99),
    );
    l.put("sched.read_barrier_us_p50", median(&d.barrier_us));
    l.put("sched.shared_hits_per_round", d.shared_hits as f64 / rounds);
    l.put(
        "sched.shared_saved_accesses_per_round",
        d.shared_saved as f64 / rounds,
    );
    l.put("sched.deferred_views_per_round", d.deferred as f64 / rounds);
    l.put("sched.supervised_rounds", d.core.supervised as f64);
    l.put(
        "core.maintain_us_per_diff",
        ratio(d.core.wall_us, d.core.diffs as f64),
    );
    l.put(
        "core.accesses_per_diff",
        ratio(d.core.accesses as f64, d.core.diffs as f64),
    );
    l.put(
        "core.rescans_per_kevent",
        d.core.rescans as f64 / events * 1e3,
    );
    l.put(
        "core.engine_share",
        ratio(d.core.wall_us, dt.total_us("sched.tick")),
    );
    l.put("exec.recompute_ms", top.recompute_ms);
    l.put(
        "exec.speedup_vs_recompute",
        ratio(top.recompute_ms * 1e3, mean(&cuts)),
    );
    l.put("exec.initial_materialize_ms", plain.materialize_ms);

    let mut durability_us = 0.0;
    // Passes whose gates count towards the run's correctness.
    let mut others: Vec<&Rep> = vec![&base.rep];
    others.extend(ingest_pass.iter().map(|p| &p.rep));
    let (off, always, promoted);
    if durable {
        off = pass(
            ctx,
            Kind::Durable(DurabilityPolicy::Off),
            &mut Tracer::off(),
            false,
        )?;
        always = pass(
            ctx,
            Kind::Durable(DurabilityPolicy::Always),
            &mut Tracer::off(),
            false,
        )?;
        others.extend([&off.rep, &always.rep]);
        let usual = median(&tracers[0].durations_us("ingest.cut"));
        let stall: f64 = top
            .drive
            .checkpoint_call_us
            .iter()
            .map(|us| us - usual)
            .sum();
        durability_us =
            (d.append_us.iter().sum::<f64>() + d.fsync_us.iter().sum::<f64>() + stall) / events;
        l.put("durability.append_us_per_round", mean(&d.append_us));
        l.put(
            "durability.wal_bytes_per_event",
            d.wal_bytes as f64 / events,
        );
        l.put("durability.fsync_us_p50", median(&d.fsync_us));
        l.put("durability.fsync_us_p99", quantile(&d.fsync_us, 0.99));
        l.put(
            "durability.fsyncs_per_kevent",
            d.fsync_us.len() as f64 / events * 1e3,
        );
        l.put("durability.off_events_per_s", events / off.rep.window_s);
        l.put(
            "durability.always_events_per_s",
            events / always.rep.window_s,
        );
        l.put("durability.checkpoint_ms_p50", median(&top.checkpoint_ms));
        l.put("durability.checkpoint_bytes", top.checkpoint_bytes as f64);
        l.put(
            "durability.checkpoint_stall_share",
            stall / 1e6 / top.rep.window_s,
        );
        l.put("durability.checkpoint_load_ms", top.checkpoint_load_ms);
        l.put("durability.replayed_records", top.replayed as f64);
        l.put(
            "durability.replay_us_per_record",
            ratio(
                (median(&top.rep.recovery_ms) - top.checkpoint_load_ms) * 1e3,
                top.replayed as f64,
            ),
        );
    } else {
        promoted = pass(
            ctx,
            Kind::Plain { promotion: true },
            &mut Tracer::off(),
            false,
        )?;
        others.push(&promoted.rep);
        l.put("cost-model.promotions", promoted.drive.promotions as f64);
        l.put(
            "cost-model.promoted_accesses_ratio",
            ratio(promoted.rep.accesses as f64, base.rep.accesses as f64),
        );
        l.put(
            "cost-model.promoted_events_per_s_ratio",
            ratio(base.rep.window_s, promoted.rep.window_s),
        );
    }

    let total = top.rep.window_s * 1e6 / events;
    let reldb = dt.total_us("reldb.dml") / events;
    let sched = sched_self / events;
    let core = d.core.wall_us / events;
    l.put("trace.total_us_per_event", total);
    l.put("trace.ingest_us_per_event", ingest_self);
    l.put("trace.reldb_us_per_event", reldb);
    l.put("trace.sched_us_per_event", sched);
    l.put("trace.core_us_per_event", core);
    l.put("trace.durability_us_per_event", durability_us);
    l.put(
        "trace.unattributed_us_per_event",
        total - ingest_self - reldb - sched - core - durability_us,
    );
    l.put(
        "trace.overhead_pct",
        (top.rep.window_s / base.rep.window_s - 1.0) * 100.0,
    );

    tracers.push(direct_tracer);
    Ok((top.rep.with_gates_of(&others), l, tracers))
}
