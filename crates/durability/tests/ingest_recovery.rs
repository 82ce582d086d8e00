//! Durable streaming ingest: journaled cuts carry their sequence
//! baselines, dead-letter appends, and totals, so a crash-restart
//! keeps the exactly-once admission contract — producers resending
//! already-durable events are dead-lettered as regressions, resends of
//! a *lost* (never-journaled) cut admit cleanly, and the quarantine
//! survives the restart.

#![allow(clippy::unwrap_used)]

mod common;

use common::{armed, fresh_dir, no_faults, tiny_db, tiny_plan};
use idivm_core::{FaultPlan, FaultSite, IvmOptions};
use idivm_durability::{Durable, DurabilityConfig, DurabilityPolicy};
use idivm_ingest::{
    BatchPolicy, ChangeEvent, ChangeOp, DeadLetterCause, OverflowPolicy, PipelineConfig,
    QueueConfig, RawEvent, SendOutcome,
};
use idivm_sched::{RefreshPolicy, SchedulerConfig};
use idivm_types::{row, Error};
use std::path::Path;
use std::sync::Arc;

fn pipe_cfg() -> PipelineConfig {
    PipelineConfig {
        queue: QueueConfig::with_capacity(16, OverflowPolicy::Block),
        batch: BatchPolicy {
            max_events: 4,
            max_age_ticks: 4,
            max_staleness_ticks: 16,
        },
    }
}

fn always() -> DurabilityConfig {
    DurabilityConfig {
        policy: DurabilityPolicy::Always,
        checkpoint_every_rounds: 0,
    }
}

/// An insert into `items` from `producer` at `seq`.
fn ev(producer: u32, seq: u64) -> RawEvent {
    let id = 100 + seq as i64;
    RawEvent::encode(&ChangeEvent {
        producer,
        seq,
        table: "items".into(),
        op: ChangeOp::Insert {
            row: row![id, format!("ev-{seq}"), seq as i64],
        },
    })
}

/// A structurally valid event against a table that does not exist.
fn bad_ev(seq: u64) -> RawEvent {
    RawEvent::encode(&ChangeEvent {
        producer: 9,
        seq,
        table: "nope".into(),
        op: ChangeOp::Insert { row: row![1] },
    })
}

fn ingest_store(dir: &Path, faults: Arc<idivm_core::FaultState>) -> Durable {
    let mut store = Durable::create(
        dir,
        tiny_db(),
        SchedulerConfig::default(),
        IvmOptions::default(),
        always(),
        faults,
    )
    .unwrap();
    let plan = tiny_plan(store.db());
    store.register("stock", plan, RefreshPolicy::Eager).unwrap();
    store.attach_pipeline(pipe_cfg()).unwrap();
    store
}

/// The full exactly-once-across-restart story: two journaled cuts, a
/// crash killing the third cut's WAL append, recovery, then resends of
/// both the durable and the lost events.
#[test]
fn journaled_cuts_keep_exactly_once_across_restart() {
    let dir = fresh_dir("ingest");
    // Appends: register = 0, cut 1 = 1, cut 2 = 2, cut 3 = 3 (killed).
    let mut store = ingest_store(&dir, armed(FaultPlan::at(FaultSite::WalAppend, 3, 2015)));

    // Cut 1: three good events plus an unknown-table dead letter.
    for s in 1..=3u64 {
        assert_eq!(store.offer(1, &ev(1, s)).unwrap(), SendOutcome::Enqueued);
    }
    assert_eq!(store.offer(1, &bad_ev(1)).unwrap(), SendOutcome::Enqueued);
    let out = store.poll_ingest(1).unwrap().expect("cut 1 should fire");
    assert_eq!(out.batch_events, 4);

    // Cut 2: four more good events.
    for s in 4..=7u64 {
        store.offer(2, &ev(1, s)).unwrap();
    }
    store.poll_ingest(2).unwrap().expect("cut 2 should fire");
    let durable_sig = store.signature();
    let durable_seq = store.pipeline().unwrap().expected_seq().clone();
    let durable_totals = store.pipeline().unwrap().totals();
    assert_eq!(durable_totals.admitted, 7);
    assert_eq!(durable_totals.dead_lettered, 1);

    // Cut 3 is killed at its WAL append: applied in memory, never
    // journaled.
    for s in 8..=11u64 {
        store.offer(3, &ev(1, s)).unwrap();
    }
    let err = store.poll_ingest(3).map(|_| ()).unwrap_err();
    assert!(matches!(err, Error::Injected(_)), "got {err:?}");
    let at_failure_sig = store.signature();
    assert_ne!(at_failure_sig, durable_sig);
    drop(store);

    // Recovery: the two journaled cuts replay; the third never existed.
    let mut store = Durable::open(
        &dir,
        SchedulerConfig::default(),
        IvmOptions::default(),
        always(),
        no_faults(),
        Some(pipe_cfg()),
    )
    .unwrap();
    assert_eq!(store.signature(), durable_sig);
    let p = store.pipeline().unwrap();
    assert_eq!(p.expected_seq(), &durable_seq);
    assert_eq!(p.totals(), durable_totals);
    assert_eq!(p.dlq().entries().len(), 1);
    assert!(matches!(p.dlq().entries()[0].cause, DeadLetterCause::UnknownTable));

    // A producer replaying the already-durable events is quarantined:
    // every resend dead-letters as a sequence regression, nothing
    // double-applies.
    for s in 1..=4u64 {
        store.offer(4, &ev(1, s)).unwrap();
    }
    store.poll_ingest(4).unwrap().expect("regression cut should fire");
    assert_eq!(store.signature(), durable_sig, "resent durable events must not re-apply");
    let p = store.pipeline().unwrap();
    assert_eq!(p.totals().admitted, 7);
    assert_eq!(p.totals().dead_lettered, 5);
    assert!(p
        .dlq()
        .entries()
        .iter()
        .skip(1)
        .all(|l| matches!(l.cause, DeadLetterCause::SequenceRegression { .. })));

    // The lost cut's events were never acknowledged as durable — the
    // producer resends them and they admit cleanly, converging to the
    // exact pre-crash in-memory state.
    for s in 8..=11u64 {
        store.offer(5, &ev(1, s)).unwrap();
    }
    store.poll_ingest(5).unwrap().expect("resend cut should fire");
    assert_eq!(store.signature(), at_failure_sig);
    assert_eq!(store.pipeline().unwrap().totals().admitted, 11);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint taken with an attached pipeline snapshots the ingest
/// state wholesale: recovery from the checkpoint alone (zero WAL
/// records) restores baselines, quarantine, and totals.
#[test]
fn checkpoint_snapshots_ingest_state() {
    let dir = fresh_dir("ingest_ckpt");
    let mut store = ingest_store(&dir, no_faults());
    for s in 1..=3u64 {
        store.offer(1, &ev(1, s)).unwrap();
    }
    store.offer(1, &bad_ev(1)).unwrap();
    store.poll_ingest(1).unwrap().expect("cut should fire");
    store.checkpoint().unwrap();
    let live_sig = store.signature();
    let live_seq = store.pipeline().unwrap().expected_seq().clone();
    let live_totals = store.pipeline().unwrap().totals();
    drop(store);

    let store = Durable::open(
        &dir,
        SchedulerConfig::default(),
        IvmOptions::default(),
        always(),
        no_faults(),
        Some(pipe_cfg()),
    )
    .unwrap();
    assert_eq!(store.signature(), live_sig);
    let note = store.recovered_from().unwrap();
    assert!(note.contains("+ 0 wal record(s)"), "note: {note}");
    let p = store.pipeline().unwrap();
    assert_eq!(p.expected_seq(), &live_seq);
    assert_eq!(p.totals(), live_totals);
    assert_eq!(p.dlq().entries().len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Flush (a partial, under-threshold batch) journals like any cut.
#[test]
fn flushed_partial_batches_are_durable() {
    let dir = fresh_dir("ingest_flush");
    let mut store = ingest_store(&dir, no_faults());
    store.offer(1, &ev(1, 1)).unwrap();
    store.offer(1, &ev(1, 2)).unwrap();
    assert!(store.poll_ingest(1).unwrap().is_none(), "under threshold, no cut yet");
    store.flush_ingest(2).unwrap().expect("flush should cut");
    let live_sig = store.signature();
    drop(store);

    let store = Durable::open(
        &dir,
        SchedulerConfig::default(),
        IvmOptions::default(),
        always(),
        no_faults(),
        Some(pipe_cfg()),
    )
    .unwrap();
    assert_eq!(store.signature(), live_sig);
    assert_eq!(store.pipeline().unwrap().totals().admitted, 2);
    std::fs::remove_dir_all(&dir).unwrap();
}
