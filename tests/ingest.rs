//! Streaming-ingestion integration suite: admission quarantine,
//! ingest-site fault atomicity, streamed-vs-one-shot convergence, and
//! real-thread backpressure.
//!
//! The contracts under test:
//!
//! * **Deterministic quarantine** — malformed events (wrong arity,
//!   type confusion, stale pre-images, out-of-order sequence numbers)
//!   dead-letter with specific causes and *byte-identical* DLQ JSON
//!   across repeated runs and across engine thread counts, while the
//!   healthy events in the same batch fold, maintain, and count
//!   accesses exactly as they would have without the garbage.
//! * **Ingest fault atomicity** — an injected fault at any ingest
//!   failpoint (`Enqueue`, `BatchCut`, `Decode`) leaves the database
//!   bit-identical to its pre-round state (via `Database::signature`),
//!   keeps the whole batch pending and retryable, and un-pushes any
//!   dead letters from the aborted attempt; a retry converges to the
//!   clean run's final state and DLQ bytes. The CI fault-sweep job
//!   runs this file under the `IDIVM_FAULT_SEED` matrix.
//! * **Convergence** — the streamed path (queue → micro-batches →
//!   per-cut scheduler ticks) reaches the same view signatures as a
//!   one-shot run that applies the whole log and folds it in a single
//!   round, serial and at P = 4 with identical access attribution.
//! * **Backpressure** — real producer threads blocking on a full
//!   bounded queue deliver every event exactly once; nothing is shed,
//!   lost, or duplicated.

use idivm_repro::catalog::{MaintenanceScheduler, RefreshPolicy, SchedulerConfig};
use idivm_repro::core::{FaultPlan, FaultSite, FaultState, IvmOptions};
use idivm_repro::exec::ParallelConfig;
use idivm_repro::ingest::{
    apply_log, drive, partition_log, BatchPolicy, ChangeEvent, ChangeOp, DriveConfig,
    IngestPipeline, OverflowPolicy, PipelineConfig, QueueConfig, RawEvent,
};
use idivm_repro::reldb::TableSignature;
use idivm_repro::types::row;
use idivm_repro::workloads::bsma::Bsma;
use idivm_repro::workloads::multiview::VIEW_NAMES;
use idivm_repro::workloads::MultiView;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Fault seed, overridable via `IDIVM_FAULT_SEED` (the CI fault-sweep
/// job runs a fixed seed matrix through this hook).
fn fault_seed() -> u64 {
    std::env::var("IDIVM_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5eed_2015)
}

fn workload() -> MultiView {
    MultiView {
        bsma: Bsma {
            scale: 0.02,
            seed: 7,
        },
    }
}

fn scheduler(cfg: &MultiView, parallel: ParallelConfig) -> MaintenanceScheduler {
    let db = cfg.build().expect("build");
    let mut sched = MaintenanceScheduler::new(db, SchedulerConfig::default());
    for name in VIEW_NAMES {
        let plan = cfg.plan(sched.db(), name).expect("plan");
        sched
            .register(name, plan, RefreshPolicy::Eager, IvmOptions::default())
            .expect("register");
    }
    sched.set_parallel_all(parallel).expect("parallel");
    sched
}

fn pipeline(capacity: usize, plan: FaultPlan) -> IngestPipeline {
    IngestPipeline::new(
        PipelineConfig {
            queue: QueueConfig::with_capacity(capacity, OverflowPolicy::Block),
            batch: BatchPolicy::default(),
        },
        Arc::new(FaultState::new(plan)),
    )
    .expect("pipeline")
}

fn view_signatures(sched: &MaintenanceScheduler) -> BTreeMap<String, TableSignature> {
    VIEW_NAMES
        .iter()
        .map(|name| {
            (
                name.to_string(),
                sched.catalog().signature(name).expect("signature"),
            )
        })
        .collect()
}

fn per_view_accesses(sched: &MaintenanceScheduler) -> BTreeMap<String, u64> {
    VIEW_NAMES
        .iter()
        .map(|name| {
            (
                name.to_string(),
                sched.stats(name).expect("stats").accesses.total(),
            )
        })
        .collect()
}

/// Offer every event, then flush as one cut — a fixed tick structure,
/// so access counts are comparable across runs with and without
/// garbage riding along.
struct SingleCut {
    dlq_json: String,
    dlq_len: usize,
    view_sigs: BTreeMap<String, TableSignature>,
    accesses: BTreeMap<String, u64>,
}

fn run_single_cut(cfg: &MultiView, events: &[RawEvent], parallel: ParallelConfig) -> SingleCut {
    let mut sched = scheduler(cfg, parallel);
    let mut pipe = pipeline(events.len().max(1), FaultPlan::disabled());
    for ev in events {
        let outcome = pipe.offer(1, ev).expect("offer");
        assert_eq!(outcome, idivm_repro::ingest::SendOutcome::Enqueued);
    }
    pipe.flush(2, &mut sched).expect("flush").expect("a cut");
    SingleCut {
        dlq_json: pipe.dlq().to_json(),
        dlq_len: pipe.dlq().len(),
        view_sigs: view_signatures(&sched),
        accesses: per_view_accesses(&sched),
    }
}

/// A healthy single-producer event stream plus its length (= the next
/// fresh sequence number).
fn healthy_events(cfg: &MultiView) -> Vec<RawEvent> {
    let entries = cfg.tweet_stream(1, 8).expect("stream");
    let streams = partition_log(&cfg.build().expect("build"), &entries, 1).expect("partition");
    streams.into_iter().next().expect("one stream")
}

fn encode(producer: u32, seq: u64, table: &str, op: ChangeOp) -> RawEvent {
    RawEvent::encode(&ChangeEvent {
        producer,
        seq,
        table: table.to_string(),
        op,
    })
}

// ---------------------------------------------------------------------
// Deterministic quarantine (malformed-event admission)
// ---------------------------------------------------------------------

#[test]
fn malformed_events_quarantine_deterministically_without_perturbing_healthy_events() {
    let cfg = workload();
    let healthy = healthy_events(&cfg);
    let n = healthy.len() as u64;

    // Five flavors of garbage on the same producer, sequence numbers
    // continuing the healthy stream. microblog is (mid, uid, ts,
    // topic), all Int; seed tweet mid 0 exists.
    let mut laced = healthy.clone();
    laced.push(encode(
        0,
        n,
        "microblog",
        ChangeOp::Insert {
            row: row![5_000_000, 1],
        },
    )); // wrong_arity
    laced.push(encode(
        0,
        n + 1,
        "microblog",
        ChangeOp::Insert {
            row: row![5_000_001, 0, "late", 3],
        },
    )); // type_mismatch (ts is Int)
    laced.push(encode(
        0,
        n + 2,
        "microblog",
        ChangeOp::Delete {
            pre: row![0, -1, -1, -1],
        },
    )); // stale_pre_image (mid 0 exists with different attrs)
    laced.push(encode(
        0,
        0,
        "microblog",
        ChangeOp::Insert {
            row: row![5_000_002, 0, 1, 1],
        },
    )); // sequence_regression (seq 0 replayed; baseline stays n+3)
    laced.push(encode(
        0,
        n + 7,
        "microblog",
        ChangeOp::Insert {
            row: row![5_000_003, 0, 1, 1],
        },
    )); // sequence_gap (expected n+3)

    let clean = run_single_cut(&cfg, &healthy, ParallelConfig::serial());
    let a = run_single_cut(&cfg, &laced, ParallelConfig::serial());
    let b = run_single_cut(&cfg, &laced, ParallelConfig::serial());
    let p4 = run_single_cut(
        &cfg,
        &laced,
        ParallelConfig {
            threads: 4,
            min_shard_rows: 1,
        },
    );

    // Exactly the garbage is quarantined, each with its own cause.
    assert_eq!(a.dlq_len, 5, "dlq: {}", a.dlq_json);
    for label in [
        "wrong_arity",
        "type_mismatch",
        "stale_pre_image",
        "sequence_regression",
        "sequence_gap",
    ] {
        assert!(
            a.dlq_json.contains(&format!("\"cause\": \"{label}\"")),
            "missing {label} in {}",
            a.dlq_json
        );
    }

    // Byte-identical across runs and across engine thread counts.
    assert_eq!(a.dlq_json, b.dlq_json, "DLQ not deterministic across runs");
    assert_eq!(a.dlq_json, p4.dlq_json, "DLQ bytes depend on thread count");
    assert_eq!(a.view_sigs, p4.view_sigs, "P=4 view contents diverged");
    assert_eq!(a.accesses, p4.accesses, "P=4 access attribution diverged");

    // Healthy events were untouched by the garbage riding along: same
    // view contents, same counted accesses, to the byte.
    assert_eq!(clean.view_sigs, a.view_sigs, "garbage perturbed view contents");
    assert_eq!(
        clean.accesses, a.accesses,
        "garbage perturbed healthy events' access counts"
    );
    assert!(clean.dlq_json == "[]" && clean.dlq_len == 0);
}

#[test]
fn undecodable_wire_lines_quarantine_without_consuming_sequence_slots() {
    let cfg = workload();
    let healthy = healthy_events(&cfg);
    let n = healthy.len() as u64;
    let mut laced = Vec::new();
    // Garbage first: if it consumed a slot, every healthy event after
    // it would dead-letter as a gap/regression.
    laced.push(RawEvent {
        wire: "0|zero|microblog|ins|i:1,i:2,i:3,i:4".into(),
    });
    laced.extend(healthy.clone());
    // Decodable garbage after the stream *does* consume its slot: a
    // follow-up healthy event at the old expectation dead-letters.
    laced.push(encode(0, n, "no_such_table", ChangeOp::Insert { row: row![1] }));
    laced.push(encode(
        0,
        n + 1,
        "microblog",
        ChangeOp::Insert {
            row: row![6_000_000, 0, 1, 1],
        },
    )); // admitted: the unknown-table event consumed seq n

    let out = run_single_cut(&cfg, &laced, ParallelConfig::serial());
    assert_eq!(out.dlq_len, 2, "dlq: {}", out.dlq_json);
    assert!(out.dlq_json.contains("\"cause\": \"decode\""));
    assert!(out.dlq_json.contains("\"cause\": \"unknown_table\""));
}

// ---------------------------------------------------------------------
// Streamed vs one-shot convergence
// ---------------------------------------------------------------------

#[test]
fn streamed_ingest_converges_to_the_oneshot_fold_serial_and_p4() {
    let cfg = workload();
    let entries = cfg.tweet_stream(2, 8).expect("stream");
    let streams = partition_log(&cfg.build().expect("build"), &entries, 3).expect("partition");

    // One-shot baseline: apply everything, fold once.
    let mut oneshot = scheduler(&cfg, ParallelConfig::serial());
    apply_log(oneshot.db_mut(), &entries).expect("apply");
    oneshot.tick().expect("tick");
    let oneshot_sigs = view_signatures(&oneshot);
    let oneshot_db: BTreeMap<_, _> = oneshot.db().signature().into_iter().collect();

    let mut outcomes = Vec::new();
    for parallel in [
        ParallelConfig::serial(),
        ParallelConfig {
            threads: 4,
            min_shard_rows: 1,
        },
    ] {
        let mut sched = scheduler(&cfg, parallel);
        let mut pipe = pipeline(16, FaultPlan::disabled());
        let stats = drive(
            &mut pipe,
            &mut sched,
            streams.clone(),
            DriveConfig {
                offers_per_tick: 4,
                service_rate: 16,
                max_ticks: 100_000,
            },
        )
        .expect("drive");
        assert_eq!(stats.admitted, entries.len() as u64);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.dead_lettered, 0);
        assert!(stats.cuts.len() > 1, "expected a multi-batch run");
        let db_sig: BTreeMap<_, _> = sched.db().signature().into_iter().collect();
        assert_eq!(
            view_signatures(&sched),
            oneshot_sigs,
            "streamed views diverged from the one-shot fold"
        );
        assert_eq!(db_sig, oneshot_db, "streamed database diverged");
        outcomes.push((stats.cuts, per_view_accesses(&sched)));
    }
    let (serial_cuts, serial_accesses) = &outcomes[0];
    let (p4_cuts, p4_accesses) = &outcomes[1];
    assert_eq!(serial_cuts, p4_cuts, "cut sequence depends on thread count");
    assert_eq!(
        serial_accesses, p4_accesses,
        "access attribution depends on thread count"
    );
}

// ---------------------------------------------------------------------
// Ingest-site fault atomicity (CI sweeps IDIVM_FAULT_SEED through this)
// ---------------------------------------------------------------------

#[test]
fn enqueue_fault_leaves_producer_owning_the_event_and_retry_heals() {
    let cfg = workload();
    let events = healthy_events(&cfg);
    let seed = fault_seed();
    let mut sched = scheduler(&cfg, ParallelConfig::serial());
    // Fires on the second enqueue (counters are 0-indexed).
    let mut pipe = pipeline(events.len(), FaultPlan::at(FaultSite::Enqueue, 1, seed));
    let pre: BTreeMap<_, _> = sched.db().signature().into_iter().collect();

    let mut faulted = 0;
    for ev in &events {
        match pipe.offer(1, ev) {
            Ok(outcome) => assert_eq!(outcome, idivm_repro::ingest::SendOutcome::Enqueued),
            Err(e) => {
                assert!(e.retryable(), "enqueue fault must be retryable: {e}");
                faulted += 1;
                // The producer still owns the event; the retry goes
                // through (single-shot fault).
                assert_eq!(
                    pipe.offer(1, ev).expect("retry"),
                    idivm_repro::ingest::SendOutcome::Enqueued
                );
            }
        }
    }
    assert_eq!(faulted, 1, "exactly one enqueue should fault");
    let mid: BTreeMap<_, _> = sched.db().signature().into_iter().collect();
    assert_eq!(pre, mid, "an enqueue fault must not touch the database");

    pipe.flush(2, &mut sched).expect("flush").expect("a cut");
    let clean = run_single_cut(&cfg, &events, ParallelConfig::serial());
    assert_eq!(view_signatures(&sched), clean.view_sigs);
    assert_eq!(pipe.totals().admitted, events.len() as u64);
}

#[test]
fn batch_cut_and_decode_faults_roll_back_to_the_pre_round_signature() {
    let cfg = workload();
    let seed = fault_seed();
    let mut events = healthy_events(&cfg);
    // One undecodable line rides along so the rollback must also
    // un-push its dead letter.
    events.push(RawEvent {
        wire: "0|?|microblog|ins|garbage".into(),
    });
    let clean = run_single_cut(&cfg, &events, ParallelConfig::serial());
    assert_eq!(clean.dlq_len, 1);

    for plan in [
        FaultPlan::at(FaultSite::BatchCut, 0, seed),
        FaultPlan::at(FaultSite::Decode, 0, seed),
        FaultPlan::at(FaultSite::Decode, 3, seed),
        // Mid-batch, after the decoder has already dead-lettered and
        // admitted earlier events of this batch.
        FaultPlan::at(FaultSite::Decode, events.len() as u64 - 1, seed),
    ] {
        let mut sched = scheduler(&cfg, ParallelConfig::serial());
        let mut pipe = pipeline(events.len(), plan);
        for ev in &events {
            pipe.offer(1, ev).expect("offer");
        }
        let pre: BTreeMap<_, _> = sched.db().signature().into_iter().collect();
        let pre_log = sched.db().log().len();

        let err = pipe.flush(2, &mut sched).expect_err("the armed fault fires");
        assert!(err.retryable(), "{plan:?}: fault must be retryable: {err}");

        // Full rollback: database bit-identical, log truncated, no
        // dead letters from the aborted attempt, whole batch pending.
        let post: BTreeMap<_, _> = sched.db().signature().into_iter().collect();
        assert_eq!(pre, post, "{plan:?}: database not at pre-round signature");
        assert_eq!(sched.db().log().len(), pre_log, "{plan:?}: log not rolled back");
        assert_eq!(pipe.dlq().len(), 0, "{plan:?}: aborted attempt leaked dead letters");
        assert_eq!(
            pipe.queue().depth(),
            events.len(),
            "{plan:?}: batch must stay pending"
        );

        // Retry converges to the clean run, dead letters included.
        pipe.flush(3, &mut sched).expect("retry").expect("a cut");
        assert_eq!(
            view_signatures(&sched),
            clean.view_sigs,
            "{plan:?}: retry diverged from the clean run"
        );
        assert_eq!(
            pipe.dlq().to_json(),
            clean.dlq_json,
            "{plan:?}: retry DLQ bytes diverged"
        );
    }
}

#[test]
fn driver_retries_past_ingest_faults_and_still_converges() {
    let cfg = workload();
    let seed = fault_seed();
    let entries = cfg.tweet_stream(1, 8).expect("stream");
    let streams = partition_log(&cfg.build().expect("build"), &entries, 2).expect("partition");

    let mut clean_sched = scheduler(&cfg, ParallelConfig::serial());
    apply_log(clean_sched.db_mut(), &entries).expect("apply");
    clean_sched.tick().expect("tick");
    let clean_sigs = view_signatures(&clean_sched);

    for plan in [
        FaultPlan::at(FaultSite::Enqueue, 2, seed),
        FaultPlan::at(FaultSite::BatchCut, 0, seed),
        FaultPlan::at(FaultSite::Decode, 1, seed),
    ] {
        let mut sched = scheduler(&cfg, ParallelConfig::serial());
        let mut pipe = pipeline(16, plan);
        let stats = drive(
            &mut pipe,
            &mut sched,
            streams.clone(),
            DriveConfig {
                offers_per_tick: 4,
                service_rate: 16,
                max_ticks: 100_000,
            },
        )
        .expect("drive");
        assert_eq!(
            stats.fault_sightings.len(),
            1,
            "{plan:?}: the single-shot fault should be seen once: {:?}",
            stats.fault_sightings
        );
        assert_eq!(stats.admitted, entries.len() as u64, "{plan:?}: events lost");
        assert_eq!(
            view_signatures(&sched),
            clean_sigs,
            "{plan:?}: post-fault run diverged from the clean fold"
        );
    }
}

// ---------------------------------------------------------------------
// Real-thread backpressure
// ---------------------------------------------------------------------

#[test]
fn blocking_producer_threads_deliver_every_event_exactly_once() {
    const THREADS: u32 = 3;
    const PER_THREAD: u64 = 40;
    let cfg = workload();
    let mut sched = scheduler(&cfg, ParallelConfig::serial());
    let base_rows = sched.db().table("microblog").expect("table").len();
    // A queue much smaller than the stream forces real blocking.
    let mut pipe = pipeline(8, FaultPlan::disabled());

    let handles: Vec<_> = (0..THREADS)
        .map(|p| {
            let queue = pipe.queue().clone();
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let ev = encode(
                        p,
                        i,
                        "microblog",
                        ChangeOp::Insert {
                            // Distinct mids per producer: single
                            // writer per key.
                            row: row![10_000_000 + i64::from(p) * 1_000 + i as i64, 0, 1, 1],
                        },
                    );
                    let outcome = queue
                        .send(&ev, Duration::from_secs(10))
                        .expect("blocking send");
                    assert_eq!(outcome, idivm_repro::ingest::SendOutcome::Enqueued);
                }
            })
        })
        .collect();

    let total = u64::from(THREADS) * PER_THREAD;
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut now = 0;
    while pipe.totals().admitted < total {
        assert!(
            std::time::Instant::now() < deadline,
            "consumer starved: {} of {total} admitted",
            pipe.totals().admitted
        );
        now += 1;
        if pipe.flush(now, &mut sched).expect("flush").is_none() {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    for h in handles {
        h.join().expect("producer thread");
    }
    assert!(pipe.flush(now + 1, &mut sched).expect("final flush").is_none());

    let totals = pipe.totals();
    assert_eq!(totals.admitted, total, "exactly-once delivery");
    assert_eq!(totals.shed, 0, "a blocking queue never sheds");
    assert!(pipe.dlq().is_empty(), "dlq: {}", pipe.dlq().to_json());
    let stats = pipe.queue().stats();
    assert_eq!(stats.enqueued, total);
    assert!(
        stats.max_depth <= 8,
        "bounded queue overflowed: depth {}",
        stats.max_depth
    );
    assert_eq!(
        sched.db().table("microblog").expect("table").len(),
        base_rows + total as usize,
        "every inserted row must be present exactly once"
    );
}
