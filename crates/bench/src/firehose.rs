//! Firehose streaming-ingestion benchmark — the CDC front-end under
//! load.
//!
//! Usage:
//! ```text
//! cargo run --release -p idivm-bench -- firehose [--scale N --rounds R --diffs D --smoke]
//! ```
//!
//! Replays the deterministic multi-view tweet stream as CDC events
//! through the full ingest stack — bounded admission queue, adaptive
//! micro-batcher, dead-letter quarantine, per-cut scheduler ticks —
//! on the virtual tick clock, across an offered-rate × overflow-policy
//! grid, serial and P = 4. Reports sustained events/tick, p50/p99
//! queue→cut latency, queue depth over time, cut causes, and shed/DLQ
//! counts into `BENCH_firehose.json` (schema in `EXPERIMENTS.md`).
//!
//! Guards (in-process asserts):
//!
//! * **Conservation** — every generated event is admitted,
//!   dead-lettered, or shed; nothing disappears silently.
//! * **Bit-identity vs one-shot** — whenever a cell loses nothing
//!   (`shed == 0 && dlq == 0`; every Block cell, by construction), the
//!   streamed run's final `Database::signature()` *and* per-view
//!   catalog signatures equal a one-shot run that applies the same log
//!   directly and folds it in a single round.
//! * **Thread-count independence** — P = 4 matches serial exactly:
//!   view signatures, per-view counted accesses, cut sequence, and
//!   DLQ bytes. Admission is serial by design; engine parallelism must
//!   not leak into ingest observables.
//! * **Determinism** — a repeated serial run is byte-identical (cuts,
//!   depth series, latency samples, DLQ JSON).
//! * **Quarantine isolation** — a garbage-laced cell dead-letters
//!   exactly the garbage (deterministic bytes) while the healthy
//!   events still converge to the clean one-shot signature.
//!
//! Shed cells under overload lose events *by design* (counted, never
//! silent), so their final state intentionally differs from the
//! lossless baseline; they are held to the determinism guards instead.

use idivm_bench::{fmt_row, multiview_scheduler, view_state, Args, Json};
use idivm_core::{FaultPlan, FaultState};
use idivm_exec::ParallelConfig;
use idivm_ingest::{
    apply_log, drive, partition_log, BatchPolicy, DriveConfig, DriveStats, IngestPipeline,
    OverflowPolicy, PipelineConfig, QueueConfig, RawEvent,
};
use idivm_reldb::{LogEntry, TableSignature};
use idivm_sched::{MaintenanceScheduler, RefreshPolicy, SchedulerConfig};
use idivm_types::{row, Result};
use idivm_workloads::bsma::Bsma;
use idivm_workloads::MultiView;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Producers the log is partitioned across (single writer per key).
const PRODUCERS: u32 = 4;
/// Admitted events the maintainer folds per busy tick.
const SERVICE_RATE: u64 = 32;

type Signatures = BTreeMap<String, TableSignature>;

/// Everything one streamed run is judged on.
struct StreamOutcome {
    stats: DriveStats,
    /// Base + view table signatures, sorted for stable comparison.
    db_signature: Signatures,
    view_signatures: Signatures,
    per_view_accesses: BTreeMap<String, u64>,
    dlq_json: String,
    dlq_len: usize,
}

fn scheduler(cfg: &MultiView, parallel: ParallelConfig) -> Result<MaintenanceScheduler> {
    multiview_scheduler(cfg, SchedulerConfig::default(), parallel, |_| {
        RefreshPolicy::Eager
    })
}

/// The lossless baseline: apply the whole log directly, fold it in a
/// single maintenance round. Returns the database's and the views'
/// signatures.
fn run_oneshot(cfg: &MultiView, entries: &[LogEntry]) -> Result<(Signatures, Signatures)> {
    let mut sched = scheduler(cfg, ParallelConfig::serial())?;
    apply_log(sched.db_mut(), entries)?;
    sched.tick()?;
    Ok((
        sched.db().signature().into_iter().collect(),
        view_state(&sched)?.0,
    ))
}

fn run_streamed(
    cfg: &MultiView,
    streams: &[Vec<RawEvent>],
    rate: usize,
    policy: OverflowPolicy,
    parallel: ParallelConfig,
) -> Result<StreamOutcome> {
    let mut sched = scheduler(cfg, parallel)?;
    let pipeline_cfg = PipelineConfig {
        queue: QueueConfig::with_capacity(96, policy),
        batch: BatchPolicy {
            max_events: 32,
            max_age_ticks: 4,
            max_staleness_ticks: 16,
        },
    };
    let faults = Arc::new(FaultState::new(FaultPlan::disabled()));
    let mut pipeline = IngestPipeline::new(pipeline_cfg, faults)?;
    let drive_cfg = DriveConfig {
        offers_per_tick: rate,
        service_rate: SERVICE_RATE,
        max_ticks: 1_000_000,
    };
    let stats = drive(&mut pipeline, &mut sched, streams.to_vec(), drive_cfg)?;
    let (view_signatures, per_view_accesses) = view_state(&sched)?;
    Ok(StreamOutcome {
        stats,
        db_signature: sched.db().signature().into_iter().collect(),
        view_signatures,
        per_view_accesses,
        dlq_json: pipeline.dlq().to_json(),
        dlq_len: pipeline.dlq().len(),
    })
}

/// Decodable-but-inadmissible and undecodable events appended to the
/// streams for the quarantine cell. Sequence numbers continue each
/// stream's own numbering, so healthy admission is undisturbed.
fn lace_with_garbage(streams: &mut [Vec<RawEvent>]) -> usize {
    use idivm_ingest::{ChangeEvent, ChangeOp};
    // Undecodable wire on producer 0 (never consumes a seq slot).
    streams[0].push(RawEvent {
        wire: "3|zero|microblog|ins|i:1,i:2,i:3,i:4".into(),
    });
    // Unknown table on producer 1; wrong arity on producer 2 (microblog
    // has 4 columns); type confusion on producer 3 (the ts column is
    // Int, send Str).
    for (producer, table, row) in [
        (1, "no_such_table", row![1]),
        (2, "microblog", row![77, 77]),
        (3, "microblog", row![9_999_999, 0, "soon", 1]),
    ] {
        let stream = &mut streams[producer as usize];
        let seq = stream.len() as u64;
        let op = ChangeOp::Insert { row };
        stream.push(RawEvent::encode(&ChangeEvent {
            producer,
            seq,
            table: table.into(),
            op,
        }));
    }
    4
}

/// Downsample the per-tick depth series to at most `n` points.
fn downsample(series: &[u64], n: usize) -> Vec<u64> {
    if series.len() <= n {
        return series.to_vec();
    }
    (0..n).map(|i| series[i * series.len() / n]).collect()
}

struct Cell {
    rate: usize,
    policy: OverflowPolicy,
    garbage: usize,
    outcome: StreamOutcome,
    converged_oneshot: bool,
}

fn cell_json(c: &Cell) -> Json {
    let s = &c.outcome.stats;
    let mut causes: BTreeMap<&str, u64> = BTreeMap::new();
    for (cause, _, _) in &s.cuts {
        *causes.entry(cause).or_default() += 1;
    }
    Json::inline([
        ("rate", c.rate.into()),
        ("policy", c.policy.label().into()),
        ("garbage", c.garbage.into()),
        ("ticks", s.ticks.into()),
        ("offered", s.offered.into()),
        ("admitted", s.admitted.into()),
        ("dead_lettered", s.dead_lettered.into()),
        ("shed", s.shed.into()),
        ("cuts", s.cuts.len().into()),
        (
            "cut_causes",
            Json::inline(causes.into_iter().map(|(k, v)| (k, v.into()))),
        ),
        ("events_per_tick", Json::Fixed(s.events_per_tick(), 4)),
        (
            "latency_p50_ticks",
            s.latency_percentile(50.0).unwrap_or(0).into(),
        ),
        (
            "latency_p99_ticks",
            s.latency_percentile(99.0).unwrap_or(0).into(),
        ),
        ("max_depth", s.max_depth().into()),
        (
            "depth_series",
            Json::list(downsample(&s.depth_series, 32).into_iter().map(Json::from)),
        ),
        ("converged_oneshot", c.converged_oneshot.into()),
    ])
}

pub fn run(args: &Args) -> Result<()> {
    let scale = args.scale.unwrap_or(0.02);
    let rounds = args.or(args.rounds, 3, 6);
    let diffs = args.or(args.diffs, 16, 48);
    let cfg = MultiView {
        bsma: Bsma { scale, seed: 2015 },
    };

    let entries = cfg.tweet_stream(rounds, diffs)?;
    let streams = partition_log(&cfg.build()?, &entries, PRODUCERS)?;
    let total = entries.len() as u64;
    println!(
        "Firehose — {total} CDC events ({rounds} rounds x {diffs} tweets, scale {scale}), \
         {PRODUCERS} producers, service rate {SERVICE_RATE}/tick"
    );

    let (oneshot_db_sig, oneshot_view_sigs) = run_oneshot(&cfg, &entries)?;

    let four_threads = ParallelConfig {
        threads: 4,
        min_shard_rows: 1,
    };
    let mut cells: Vec<Cell> = Vec::new();

    let mut check_cell = |rate: usize,
                          policy: OverflowPolicy,
                          streams: &[Vec<RawEvent>],
                          garbage: usize|
     -> Result<()> {
        let serial = run_streamed(&cfg, streams, rate, policy, ParallelConfig::serial())?;
        let parallel = run_streamed(&cfg, streams, rate, policy, four_threads)?;
        let again = run_streamed(&cfg, streams, rate, policy, ParallelConfig::serial())?;
        let s = &serial.stats;
        let label = format!("rate {rate} policy {}", policy.label());

        // Conservation: nothing disappears silently.
        let expected = total + garbage as u64;
        assert_eq!(
            s.offered, expected,
            "{label}: consumed {} of {expected} events",
            s.offered
        );
        assert_eq!(
            s.admitted + s.dead_lettered + s.shed,
            expected,
            "{label}: admitted {} + dlq {} + shed {} != {expected}",
            s.admitted,
            s.dead_lettered,
            s.shed
        );
        if policy == OverflowPolicy::Block {
            assert_eq!(s.shed, 0, "{label}: a blocking queue shed events");
        }

        // P = 4 must match serial bit-for-bit on every observable.
        assert_eq!(
            serial.view_signatures, parallel.view_signatures,
            "{label}: P=4 view contents diverged"
        );
        assert_eq!(
            serial.db_signature, parallel.db_signature,
            "{label}: P=4 database signature diverged"
        );
        assert_eq!(
            serial.per_view_accesses, parallel.per_view_accesses,
            "{label}: P=4 access attribution diverged"
        );
        assert_eq!(
            serial.stats.cuts, parallel.stats.cuts,
            "{label}: P=4 cut sequence diverged"
        );
        assert_eq!(
            serial.dlq_json, parallel.dlq_json,
            "{label}: P=4 DLQ bytes diverged"
        );

        // Repeat run must be byte-identical.
        assert_eq!(
            serial.stats.cuts, again.stats.cuts,
            "{label}: cuts not deterministic"
        );
        assert_eq!(
            serial.stats.depth_series, again.stats.depth_series,
            "{label}: depth series not deterministic"
        );
        assert_eq!(
            serial.stats.latencies_ticks, again.stats.latencies_ticks,
            "{label}: latencies not deterministic"
        );
        assert_eq!(
            serial.dlq_json, again.dlq_json,
            "{label}: DLQ bytes not deterministic"
        );
        assert_eq!(
            serial.db_signature, again.db_signature,
            "{label}: final state not deterministic"
        );

        // Lossless cells must converge to the one-shot fold.
        let lossless = s.shed == 0 && serial.dlq_len == garbage;
        let converged =
            serial.db_signature == oneshot_db_sig && serial.view_signatures == oneshot_view_sigs;
        if garbage > 0 {
            assert_eq!(
                s.dead_lettered, garbage as u64,
                "{label}: quarantined {} events, expected exactly the {garbage} garbage ones",
                s.dead_lettered
            );
            assert!(
                !serial.dlq_json.is_empty() && serial.dlq_len == garbage,
                "{label}: DLQ should hold the garbage"
            );
        }
        if lossless {
            assert!(
                converged,
                "{label}: lossless streamed run did not converge to the one-shot signature"
            );
        }
        cells.push(Cell {
            rate,
            policy,
            garbage,
            outcome: serial,
            converged_oneshot: converged,
        });
        Ok(())
    };

    for rate in [2usize, 8, 64] {
        for policy in [OverflowPolicy::Block, OverflowPolicy::Shed] {
            check_cell(rate, policy, &streams, 0)?;
        }
    }
    // Quarantine cell: garbage rides along at nominal rate, Block.
    let mut laced = streams.clone();
    let garbage = lace_with_garbage(&mut laced);
    check_cell(8, OverflowPolicy::Block, &laced, garbage)?;

    // --- Console report ------------------------------------------------
    let widths = &[6usize, 7, 9, 9, 6, 6, 6, 7, 7, 9, 10];
    let header = [
        "rate",
        "policy",
        "admitted",
        "dlq",
        "shed",
        "cuts",
        "ticks",
        "ev/tick",
        "p50",
        "p99",
        "max_depth",
    ];
    println!("\n{}", fmt_row(&header.map(String::from), widths));
    for c in &cells {
        let s = &c.outcome.stats;
        println!(
            "{}",
            fmt_row(
                &[
                    c.rate.to_string(),
                    c.policy.label().into(),
                    s.admitted.to_string(),
                    s.dead_lettered.to_string(),
                    s.shed.to_string(),
                    s.cuts.len().to_string(),
                    s.ticks.to_string(),
                    format!("{:.2}", s.events_per_tick()),
                    s.latency_percentile(50.0).unwrap_or(0).to_string(),
                    s.latency_percentile(99.0).unwrap_or(0).to_string(),
                    s.max_depth().to_string(),
                ],
                widths
            )
        );
    }
    let converged = cells.iter().filter(|c| c.converged_oneshot).count();
    let overloaded = cells.iter().any(|c| {
        c.outcome
            .stats
            .cuts
            .iter()
            .any(|(cause, _, _)| cause == "staleness")
    });
    assert!(
        overloaded,
        "the rate grid never drove the batcher into staleness-SLO cuts — overload untested"
    );
    println!(
        "\nguards: conservation ok, P=4 bit-identical ok, repeat-run determinism ok, \
         {converged}/{} cells converged to one-shot, quarantine isolation ok",
        cells.len()
    );

    // --- Machine-readable record ---------------------------------------
    Json::block([
        ("bench", "firehose".into()),
        ("scale", Json::Num(scale)),
        ("rounds", rounds.into()),
        ("diffs", diffs.into()),
        ("events", total.into()),
        ("producers", PRODUCERS.into()),
        ("service_rate", SERVICE_RATE.into()),
        ("cells", Json::rows(cells.iter().map(cell_json))),
    ])
    .write("BENCH_firehose.json")?;
    println!("wrote BENCH_firehose.json");
    Ok(())
}
