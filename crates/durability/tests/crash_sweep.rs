//! Crash-point sweep: simulate a kill at **every** WAL append, WAL
//! fsync, and checkpoint attempt of a full multi-view lifecycle
//! (register ×5, DML ticks with automatic checkpoints, a read barrier,
//! promote, demote, drain) and prove recovery always lands on an
//! acknowledged state.
//!
//! A "kill" is the injected fault at the durability site — the write
//! path leaves a seeded torn prefix / unsynced tail / partial temp
//! file, the in-memory stack is dropped on the spot, and
//! [`Durable::open`] recovers from whatever reached the disk. Under
//! [`DurabilityPolicy::Always`] the contract is sharp:
//!
//! * append/fsync kill — the failing round was never acknowledged;
//!   recovery lands on the **last acknowledged** signature;
//! * checkpoint kill — the round journaled *before* the checkpoint
//!   attempt is already durable; recovery lands on the at-failure
//!   signature (the previous checkpoint + full WAL stay valid).
//!
//! Automatic checkpoints are published by a worker thread and looked
//! at again only at the store's join points (the next due checkpoint,
//! an explicit one, `Drop`), so a checkpoint kill *surfaces* rounds
//! after it struck — with every round journaled in between still in
//! the log — and an append/fsync kill can strike with a checkpoint in
//! flight. The second half of this file pins those windows.
//!
//! Kill offsets are seeded (`IDIVM_FAULT_SEED` overrides the default
//! pair) so CI explores different torn-prefix lengths deterministically.

#![allow(clippy::unwrap_used)]

mod common;

use common::{armed, fresh_dir, mv_policy, reopen, suite, sweep_seeds, Sig};
use idivm_core::{FaultPlan, FaultSite, FaultState, IvmOptions};
use idivm_durability::{Durable, DurabilityConfig, DurabilityPolicy, WAL_FILE};
use idivm_sched::SchedulerConfig;
use idivm_types::Error;
use idivm_workloads::multiview::VIEW_NAMES;
use std::path::Path;
use std::sync::Arc;

const DIFFS: usize = 12;
const DEEP: &str = "join[mentions,microblog,users]";

fn sweep_cfg() -> DurabilityConfig {
    DurabilityConfig {
        policy: DurabilityPolicy::Always,
        checkpoint_every_rounds: 2,
    }
}

/// One sweep iteration's observable history: the signature after every
/// acknowledged operation, plus the in-memory signature at the moment
/// the injected crash surfaced (ahead of disk, per the error contract).
struct ScenarioRun {
    acks: Vec<Sig>,
    at_failure: Option<Sig>,
    completed: bool,
}

fn assert_injected(err: &Error, what: &str) {
    assert!(
        matches!(err, Error::Injected(_)),
        "{what}: expected the injected crash, got {err:?}"
    );
}

/// Drive the lifecycle until it completes or the armed fault kills it.
fn run_scenario(dir: &Path, dcfg: DurabilityConfig, faults: Arc<FaultState>) -> ScenarioRun {
    let cfg = suite();
    let mut acks: Vec<Sig> = Vec::new();
    let db = cfg.build().unwrap();
    let mut store = match Durable::create(
        dir,
        db,
        SchedulerConfig::default(),
        IvmOptions::default(),
        dcfg,
        faults,
    ) {
        Ok(s) => s,
        Err(err) => {
            assert_injected(&err, "create");
            return ScenarioRun {
                acks,
                at_failure: None,
                completed: false,
            };
        }
    };
    acks.push(store.signature());

    macro_rules! step {
        ($e:expr) => {
            match $e {
                Ok(_) => acks.push(store.signature()),
                Err(err) => {
                    assert_injected(&err, stringify!($e));
                    return ScenarioRun {
                        acks,
                        at_failure: Some(store.signature()),
                        completed: false,
                    };
                }
            }
        };
    }

    for name in VIEW_NAMES {
        let plan = cfg.plan(store.db(), name).unwrap();
        step!(store.register(name, plan, mv_policy(name)));
    }
    for round in 1..=4u64 {
        cfg.tweet_batch(store.db_mut(), DIFFS, round).unwrap();
        step!(store.tick());
    }
    step!(store.read_view("mention_topic_counts"));
    let backing = match store.force_promote(DEEP) {
        Ok(b) => {
            acks.push(store.signature());
            b
        }
        Err(err) => {
            assert_injected(&err, "force_promote");
            return ScenarioRun {
                acks,
                at_failure: Some(store.signature()),
                completed: false,
            };
        }
    };
    for round in 5..=6u64 {
        cfg.tweet_batch(store.db_mut(), DIFFS, round).unwrap();
        step!(store.tick());
    }
    step!(store.force_demote(&backing));
    step!(store.drain());

    ScenarioRun {
        acks,
        at_failure: None,
        completed: true,
    }
}

/// Recover the killed store and check the sweep contract: recovery
/// succeeds, lands on the last acknowledged or at-failure signature,
/// and the recovered store keeps accepting rounds.
fn assert_recovers(dir: &Path, run: &ScenarioRun, label: &str) {
    let mut recovered = reopen(dir, sweep_cfg())
        .unwrap_or_else(|e| panic!("{label}: recovery after injected crash failed: {e:?}"));
    let sig = recovered.signature();
    let last_ack = run.acks.last().unwrap();
    assert!(
        sig == *last_ack || run.at_failure.as_ref() == Some(&sig),
        "{label}: recovered signature is neither the last acknowledged \
         state nor the at-failure state"
    );
    assert!(recovered.recovered_from().is_some(), "{label}: missing recovery note");
    // Liveness: the recovered store still runs ordinary rounds.
    suite().tweet_batch(recovered.db_mut(), 6, 99).unwrap();
    recovered.tick().unwrap();
}

/// Sweep one durability fault site over every occurrence index `k`
/// (starting at `start_k`) for every sweep seed, until a run completes
/// without the fault firing — i.e. `k` walked past the last occurrence.
fn sweep_site(site: &str, plan_for: impl Fn(u64, u64) -> FaultPlan, start_k: u64) {
    for seed in sweep_seeds() {
        let mut k = start_k;
        loop {
            let dir = fresh_dir(&format!("sweep_{site}"));
            let faults = armed(plan_for(k, seed));
            let run = run_scenario(&dir, sweep_cfg(), Arc::clone(&faults));
            if run.completed {
                assert!(
                    k > start_k,
                    "site={site} seed={seed}: the armed fault never fired"
                );
                std::fs::remove_dir_all(&dir).unwrap();
                break;
            }
            assert_recovers(&dir, &run, &format!("site={site} k={k} seed={seed}"));
            std::fs::remove_dir_all(&dir).unwrap();
            k += 1;
            assert!(k < 64, "site={site}: sweep ran away");
        }
    }
}

/// Kill before every WAL append of the lifecycle (a seeded torn prefix
/// of the record may land on disk).
#[test]
fn kill_at_every_wal_append() {
    sweep_site("wal_append", |k, s| FaultPlan::at(FaultSite::WalAppend, k, s), 0);
}

/// Kill at every WAL fsync (appended bytes buffered but never made
/// durable; recovery sees the log truncated to the last synced offset).
#[test]
fn kill_at_every_wal_fsync() {
    sweep_site("wal_fsync", |k, s| FaultPlan::at(FaultSite::WalFsync, k, s), 0);
}

/// Kill before every checkpoint rename (k = 0 is the store-creation
/// checkpoint, covered by its own test below).
#[test]
fn kill_at_every_checkpoint() {
    sweep_site("checkpoint", |k, s| FaultPlan::at(FaultSite::Checkpoint, k, s), 1);
}

/// A kill during the store-creation checkpoint leaves a directory with
/// no published snapshot: nothing was ever acknowledged, and `open`
/// refuses with a typed corruption error instead of fabricating state.
#[test]
fn kill_during_create_leaves_unopenable_store() {
    let dir = fresh_dir("create_kill");
    let faults = armed(FaultPlan::at(FaultSite::Checkpoint, 0, 2015));
    let err = Durable::create(
        &dir,
        common::tiny_db(),
        SchedulerConfig::default(),
        IvmOptions::default(),
        sweep_cfg(),
        faults,
    )
    .map(|_| ())
    .unwrap_err();
    assert_injected(&err, "create");
    let err = reopen(&dir, sweep_cfg()).map(|_| ()).unwrap_err();
    assert!(matches!(err, Error::Corrupt(_)), "got {err:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Under `EveryNRounds`, an fsync kill can roll back several rounds at
/// once — but always to an *acknowledged* signature, never a torn
/// half-round.
#[test]
fn every_n_rounds_fsync_kill_recovers_to_acknowledged_state() {
    let dcfg = DurabilityConfig {
        policy: DurabilityPolicy::EveryNRounds(3),
        checkpoint_every_rounds: 0,
    };
    // The five registration DDLs fsync unconditionally (k = 0..=4);
    // k = 5 is the first batched round fsync, covering rounds 1–3.
    let dir = fresh_dir("everyn_kill");
    let faults = armed(FaultPlan::at(FaultSite::WalFsync, 5, 2015));
    let run = run_scenario(&dir, dcfg, Arc::clone(&faults));
    assert!(!run.completed);
    let recovered = reopen(&dir, dcfg).unwrap();
    let sig = recovered.signature();
    assert!(
        run.acks.iter().any(|s| s == &sig),
        "recovered signature is not an acknowledged state"
    );
    // Rounds 1-3 rode the killed fsync: recovery lands back on the
    // post-registration state, three rounds behind the failure point.
    assert_eq!(sig, run.acks[5]);
    assert_ne!(&sig, run.acks.last().unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The same (site, k, seed) kill is bit-reproducible: two independent
/// sweeps of the same scenario recover to identical signatures.
#[test]
fn killed_runs_are_reproducible() {
    let plan = FaultPlan::at(FaultSite::WalAppend, 8, 424242);
    let mut sigs: Vec<Sig> = Vec::new();
    for _ in 0..2 {
        let dir = fresh_dir("repro_kill");
        let run = run_scenario(&dir, sweep_cfg(), armed(plan));
        assert!(!run.completed);
        sigs.push(reopen(&dir, sweep_cfg()).unwrap().signature());
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert_eq!(sigs[0], sigs[1]);
}

// ---------------------------------------------------------------------
// Checkpoints in flight
// ---------------------------------------------------------------------
//
// In `run_scenario` under `sweep_cfg` the five registrations are WAL
// appends / fsyncs 0..=4 (LSNs 1..=5); tick 1 is append 5; tick 2
// (append 6, LSN 7) is the first due round and starts checkpoint 1,
// which is joined — published, the log cut behind LSN 7 — when tick 4
// falls due, or when the store is dropped.

/// A kill of checkpoint 1 strikes on the worker after tick 2 and is
/// reported by tick 4, two acknowledged rounds later. Recovery replays
/// all of them from the untouched log onto the creation checkpoint.
#[test]
fn checkpoint_kill_surfaces_at_the_next_join_point_and_loses_nothing() {
    for seed in sweep_seeds() {
        let dir = fresh_dir("late_ckpt_kill");
        let plan = FaultPlan::at(FaultSite::Checkpoint, 1, seed);
        let run = run_scenario(&dir, sweep_cfg(), armed(plan));
        assert!(!run.completed);
        // create + 5 registrations + ticks 1..=3 were acknowledged.
        assert_eq!(run.acks.len(), 9, "seed {seed}: the kill surfaced at another call");
        let recovered = reopen(&dir, sweep_cfg()).unwrap();
        assert_eq!(Some(recovered.signature()), run.at_failure, "seed {seed}");
        assert_eq!(
            recovered.recovered_from().unwrap(),
            "checkpoint (lsn 0) + 9 wal record(s)",
            "seed {seed}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Tick 3 dies in its WAL append / fsync with checkpoint 1 in flight.
/// Dropping the store joins the worker, so the new checkpoint is there
/// and the log is cut behind it; the round that died was never
/// acknowledged and is not in either.
#[test]
fn wal_kill_with_a_checkpoint_in_flight_recovers_the_last_acknowledged_round() {
    type PlanFor = fn(u64, u64) -> FaultPlan;
    let sites: [(&str, PlanFor); 2] = [
        ("append", |k, s| FaultPlan::at(FaultSite::WalAppend, k, s)),
        ("fsync", |k, s| FaultPlan::at(FaultSite::WalFsync, k, s)),
    ];
    for (site, plan_for) in sites {
        for seed in sweep_seeds() {
            let dir = fresh_dir("inflight_kill");
            let run = run_scenario(&dir, sweep_cfg(), armed(plan_for(7, seed)));
            assert!(!run.completed);
            assert_eq!(run.acks.len(), 8, "{site} seed {seed}: tick 3 is the one that dies");
            let recovered = reopen(&dir, sweep_cfg()).unwrap();
            assert_eq!(&recovered.signature(), run.acks.last().unwrap(), "{site} seed {seed}");
            let note = recovered.recovered_from().unwrap();
            assert!(
                note.starts_with("checkpoint (lsn 7) + 0 wal record(s)"),
                "{site} seed {seed}: {note}"
            );
            drop(recovered);
            assert_recovers(&dir, &run, &format!("in-flight {site} seed={seed}"));
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// The store after ticks 1 and 2 (checkpoint 1 just started) and
/// `more` further ticks, none of which is due.
fn store_with_a_checkpoint_in_flight(dir: &Path, dcfg: DurabilityConfig, more: u64) -> Durable {
    let cfg = suite();
    let mut store = common::mv_store(dir, dcfg, common::no_faults());
    for round in 1..=2 + more {
        cfg.tweet_batch(store.db_mut(), DIFFS, round).unwrap();
        store.tick().unwrap();
    }
    store
}

/// Dropping the store is a join point: the checkpoint in flight is
/// published and the log cut, whatever the worker had got to.
#[test]
fn drop_with_a_checkpoint_in_flight_then_open() {
    let dir = fresh_dir("inflight_drop");
    let store = store_with_a_checkpoint_in_flight(&dir, sweep_cfg(), 1);
    let live = store.signature();
    drop(store);
    let recovered = reopen(&dir, sweep_cfg()).unwrap();
    assert_eq!(recovered.signature(), live);
    assert_eq!(
        recovered.recovered_from().unwrap(),
        "checkpoint (lsn 7) + 1 wal record(s)"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A kill between the cut's temp write and its rename: the new
/// checkpoint is published, the log is still the uncut one, and a torn
/// `wal.tmp` lies beside it. Recovery reads the log, skips what the
/// checkpoint covers, and never looks at the temp file.
#[test]
fn kill_between_the_cuts_temp_write_and_its_rename() {
    let dir = fresh_dir("cut_kill");
    let store = store_with_a_checkpoint_in_flight(&dir, sweep_cfg(), 1);
    let live = store.signature();
    let uncut = std::fs::read(dir.join(WAL_FILE)).unwrap();
    drop(store); // publishes checkpoint 1 and cuts
    let cut = std::fs::read(dir.join(WAL_FILE)).unwrap();
    assert!(cut.len() < uncut.len());
    // Put the disk back to where the kill would have left it.
    std::fs::write(dir.join(WAL_FILE), &uncut).unwrap();
    std::fs::write(dir.join("wal.tmp"), &cut[..cut.len() / 2]).unwrap();

    let mut recovered = reopen(&dir, sweep_cfg()).unwrap();
    assert_eq!(recovered.signature(), live);
    assert_eq!(
        recovered.recovered_from().unwrap(),
        "checkpoint (lsn 7) + 1 wal record(s)"
    );
    // The next cut writes over the leftover temp file.
    suite().tweet_batch(recovered.db_mut(), DIFFS, 9).unwrap();
    recovered.tick().unwrap();
    recovered.checkpoint().unwrap();
    let live = recovered.signature();
    drop(recovered);
    assert_eq!(reopen(&dir, sweep_cfg()).unwrap().signature(), live);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Under `EveryNRounds` a checkpoint can be captured past the log's
/// synced prefix. If an fsync kill then drops the unsynced tail, the
/// published checkpoint is *ahead* of the log: recovery lands on it (an
/// acknowledged state), and the log restarts behind it — appending to
/// the short log would leave an LSN gap for the next recovery to trip
/// over.
#[test]
fn checkpoint_ahead_of_a_log_that_lost_its_tail() {
    let dcfg = DurabilityConfig {
        policy: DurabilityPolicy::EveryNRounds(3),
        checkpoint_every_rounds: 2,
    };
    let dir = fresh_dir("ckpt_ahead");
    // Ticks 1 and 2 are appended unsynced; checkpoint 1 captures LSN 7;
    // tick 3 brings the batched fsync (the sixth: five DDL ones before
    // it), which dies and takes LSNs 6..=8 with it.
    let run = run_scenario(&dir, dcfg, armed(FaultPlan::at(FaultSite::WalFsync, 5, 2015)));
    assert!(!run.completed);
    assert_eq!(run.acks.len(), 8);

    let mut recovered = reopen(&dir, dcfg).unwrap();
    assert_eq!(recovered.signature(), run.acks[7], "the state checkpoint 1 captured");
    assert_eq!(
        recovered.recovered_from().unwrap(),
        "checkpoint (lsn 7) + 0 wal record(s)"
    );
    suite().tweet_batch(recovered.db_mut(), DIFFS, 3).unwrap();
    recovered.tick().unwrap();
    let live = recovered.signature();
    drop(recovered);
    let again = reopen(&dir, dcfg).unwrap();
    assert_eq!(again.signature(), live);
    assert_eq!(
        again.recovered_from().unwrap(),
        "checkpoint (lsn 7) + 1 wal record(s)"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
