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
//!
//! The last part runs the running example's aggregate view through the
//! same kinds of kill and holds each to the sharp form of the contract
//! (append/fsync kills land on the last acknowledged state, checkpoint
//! kills on the at-failure one), recovers one kill bit-identically
//! across runs and P = 1 / P = 4, checks that journaling leaves the
//! maintenance result alone, and measures a BSMA multi-view store at
//! three sizes. The counts — recovered digests, outcomes, recovery
//! notes, table rows, WAL records, checkpoint bytes and what the
//! incremental checkpoint reused — are pinned in the committed
//! `BENCH_crash.json`, the same for every seed: the kill sweep's part
//! and the size sweep's part each by a test of its own (`IDIVM_BLESS=1`
//! rewrites the part).

#![allow(clippy::unwrap_used)]

mod common;
#[path = "../../../tests/common/mod.rs"]
mod pinned;

use common::{armed, fresh_dir, mv_policy, no_faults, reopen, suite, sweep_seeds, Sig};
use idivm_core::{FaultPlan, FaultSite, FaultState, IvmOptions};
use idivm_durability::{
    CheckpointStats, DurabilityConfig, DurabilityPolicy, Durable, Wal, CHECKPOINT_FILE, WAL_FILE,
};
use idivm_exec::ParallelConfig;
use idivm_sched::{RefreshPolicy, SchedulerConfig};
use idivm_types::{Error, Fnv1a, Json};
use idivm_workloads::bsma::Bsma;
use idivm_workloads::multiview::{MultiView, VIEW_NAMES};
use idivm_workloads::RunningExample;
use std::hash::Hasher;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

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
#[derive(Default)]
struct ScenarioRun {
    acks: Vec<Sig>,
    at_failure: Option<Sig>,
    completed: bool,
}

impl ScenarioRun {
    /// The created store, its signature acknowledged; `None` when the
    /// injected crash killed the creation.
    fn created(&mut self, made: idivm_types::Result<Durable>) -> Option<Durable> {
        let store = made.map_err(|err| assert_injected(&err, "create")).ok()?;
        self.acks.push(store.signature());
        Some(store)
    }

    /// An operation's result on `store`: success acknowledges the
    /// store's signature; a failure must be the injected crash, and
    /// leaves the at-failure signature. A panic names the caller's line.
    #[track_caller]
    fn step<T>(&mut self, done: idivm_types::Result<T>, store: &Durable) -> Option<T> {
        match done {
            Ok(value) => {
                self.acks.push(store.signature());
                Some(value)
            }
            Err(err) => {
                assert_injected(&err, "step");
                self.at_failure = Some(store.signature());
                None
            }
        }
    }
}

#[track_caller]
fn assert_injected(err: &Error, what: &str) {
    assert!(
        matches!(err, Error::Injected(_)),
        "{what}: expected the injected crash, got {err:?}"
    );
}

/// Drive `lifecycle` until it completes (`Some`) or the armed fault
/// kills it.
fn run_scenario(lifecycle: impl FnOnce(&mut ScenarioRun) -> Option<()>) -> ScenarioRun {
    let mut run = ScenarioRun::default();
    run.completed = lifecycle(&mut run).is_some();
    run
}

/// The BSMA multi-view lifecycle: register ×5, four ticks, a read
/// barrier, promote, two ticks, demote, drain.
fn bsma_run(dir: &Path, dcfg: DurabilityConfig, faults: Arc<FaultState>) -> ScenarioRun {
    run_scenario(|run| {
        let cfg = suite();
        let db = cfg.build().unwrap();
        let (sched, options) = (SchedulerConfig::default(), IvmOptions::default());
        let mut store = run.created(Durable::create(dir, db, sched, options, dcfg, faults))?;
        for name in VIEW_NAMES {
            let plan = cfg.plan(store.db(), name).unwrap();
            run.step(store.register(name, plan, mv_policy(name)), &store)?;
        }
        for round in 1..=4u64 {
            cfg.tweet_batch(store.db_mut(), DIFFS, round).unwrap();
            run.step(store.tick(), &store)?;
        }
        run.step(store.read_view("mention_topic_counts"), &store)?;
        let backing = run.step(store.force_promote(DEEP), &store)?;
        for round in 5..=6u64 {
            cfg.tweet_batch(store.db_mut(), DIFFS, round).unwrap();
            run.step(store.tick(), &store)?;
        }
        run.step(store.force_demote(&backing), &store)?;
        run.step(store.drain(), &store).map(drop)
    })
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

/// Kill `scenario` at every occurrence `k` of `site` (starting at
/// `start_k`) under `seed`, until a run completes without the fault
/// firing — i.e. `k` walked past the last occurrence. `check` recovers
/// each killed store from its directory and returns what it found.
fn sweep_site<R>(
    site: FaultSite,
    start_k: u64,
    seed: u64,
    scenario: impl Fn(&Path, Arc<FaultState>) -> ScenarioRun,
    mut check: impl FnMut(&Path, &ScenarioRun, u64, &str) -> R,
) -> Vec<R> {
    let mut found = Vec::new();
    for k in start_k.. {
        let label = format!("site={} k={k} seed={seed}", site.label());
        let dir = fresh_dir(&format!("sweep_{}", site.label()));
        let run = scenario(&dir, armed(FaultPlan::at(site, k, seed)));
        if run.completed {
            assert!(k > start_k, "{label}: the armed fault never fired");
            std::fs::remove_dir_all(&dir).unwrap();
            break;
        }
        assert!(k < 64, "{label}: sweep ran away");
        found.push(check(&dir, &run, k, &label));
        std::fs::remove_dir_all(&dir).unwrap();
    }
    found
}

/// [`sweep_site`] over the BSMA lifecycle under every sweep seed.
fn sweep_bsma(site: FaultSite, start_k: u64) {
    for seed in sweep_seeds() {
        let scenario = |dir: &Path, faults| bsma_run(dir, sweep_cfg(), faults);
        sweep_site(site, start_k, seed, scenario, |dir, run, _, label| {
            assert_recovers(dir, run, label);
        });
    }
}

/// Kill before every WAL append of the lifecycle (a seeded torn prefix
/// of the record may land on disk).
#[test]
fn kill_at_every_wal_append() {
    sweep_bsma(FaultSite::WalAppend, 0);
}

/// Kill at every WAL fsync (appended bytes buffered but never made
/// durable; recovery sees the log truncated to the last synced offset).
#[test]
fn kill_at_every_wal_fsync() {
    sweep_bsma(FaultSite::WalFsync, 0);
}

/// Kill before every checkpoint rename (k = 0 is the store-creation
/// checkpoint, covered by its own test below).
#[test]
fn kill_at_every_checkpoint() {
    sweep_bsma(FaultSite::Checkpoint, 1);
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
    let run = bsma_run(&dir, dcfg, Arc::clone(&faults));
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
        let run = bsma_run(&dir, sweep_cfg(), armed(plan));
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
// In `bsma_run` under `sweep_cfg` the five registrations are WAL
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
        let run = bsma_run(&dir, sweep_cfg(), armed(plan));
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
            let run = bsma_run(&dir, sweep_cfg(), armed(plan_for(7, seed)));
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
    let faults = armed(FaultPlan::at(FaultSite::WalFsync, 5, 2015));
    let run = bsma_run(&dir, dcfg, faults);
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

// ---------------------------------------------------------------------
// The running example under kill injection; BENCH_crash.json
// ---------------------------------------------------------------------

/// The committed count file, relative to this package.
const CRASH_COUNTS: &str = "../../BENCH_crash.json";
/// Price updates per round, and rounds, of the running-example lifecycle.
const EXAMPLE_DIFF: usize = 60;
const EXAMPLE_ROUNDS: u64 = 6;

fn example() -> RunningExample {
    RunningExample {
        n_parts: 600,
        n_devices: 450,
        fanout: 3,
        selectivity_pct: 30,
        joins: 2,
        seed: 7,
    }
}

fn example_cfg() -> DurabilityConfig {
    DurabilityConfig {
        policy: DurabilityPolicy::Always,
        checkpoint_every_rounds: 3,
    }
}

fn options(threads: usize) -> IvmOptions {
    IvmOptions {
        parallel: ParallelConfig {
            threads,
            min_shard_rows: 2,
        },
        ..IvmOptions::default()
    }
}

fn reopen_example(dir: &Path, threads: usize) -> idivm_types::Result<Durable> {
    let sched = SchedulerConfig::default();
    Durable::open(
        dir,
        sched,
        options(threads),
        example_cfg(),
        no_faults(),
        None,
    )
}

/// FNV-1a over a full-store signature, table by table in name order.
fn digest(sig: &Sig) -> String {
    let mut tables: Vec<&String> = sig.keys().collect();
    tables.sort();
    let mut h = Fnv1a::default();
    for t in tables {
        h.write(format!("{t}={:?};", sig[t]).as_bytes());
    }
    format!("{:#018x}", h.finish())
}

/// The aggregate view `V` registered, [`EXAMPLE_ROUNDS`] price-update
/// rounds, a drain and a close.
fn example_run(dir: &Path, threads: usize, faults: Arc<FaultState>) -> ScenarioRun {
    run_scenario(|run| {
        let cfg = example();
        let db = cfg.build().unwrap();
        let sched = SchedulerConfig::default();
        let made = Durable::create(dir, db, sched, options(threads), example_cfg(), faults);
        let mut store = run.created(made)?;
        let plan = cfg.agg_plan(store.db()).unwrap();
        run.step(store.register("V", plan, RefreshPolicy::Eager), &store)?;
        for round in 1..=EXAMPLE_ROUNDS {
            cfg.price_update_batch(store.db_mut(), EXAMPLE_DIFF, round)
                .unwrap();
            run.step(store.tick(), &store)?;
        }
        run.step(store.drain(), &store)?;
        // A checkpoint still in flight comes out, if killed, at the close.
        let at_close = store.signature();
        let closed = store.close().map_err(|err| assert_injected(&err, "close"));
        run.at_failure = closed.is_err().then_some(at_close);
        closed.ok()
    })
}

/// The kill sweep under `seed`: the recovered digests of one WAL-append
/// kill (append 3, round 3) over two runs at P = 1 and at P = 4, all
/// equal, and one row per kill of every WAL append, WAL fsync and
/// checkpoint (creation's excepted) of the lifecycle.
fn example_kill_sweep(seed: u64) -> (Vec<Json>, Vec<Json>) {
    let mut determinism = Vec::new();
    let mut digests = Vec::new();
    for threads in [1usize, 4] {
        for rep in 0..2u32 {
            let dir = fresh_dir("example_repro");
            let kill = armed(FaultPlan::at(FaultSite::WalAppend, 3, seed));
            let run = example_run(&dir, threads, kill);
            assert!(
                !run.completed,
                "P={threads} rep {rep} seed {seed}: the kill never fired"
            );
            let recovered = digest(&reopen_example(&dir, threads).unwrap().signature());
            determinism.push(Json::inline([
                ("threads", threads.into()),
                ("rep", rep.into()),
                ("digest", recovered.as_str().into()),
            ]));
            digests.push(recovered);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "seed {seed}: recovered digests differ across runs and thread counts: {digests:?}"
    );

    let mut sweep = Vec::new();
    for (site, start_k) in [
        (FaultSite::WalAppend, 0),
        (FaultSite::WalFsync, 0),
        (FaultSite::Checkpoint, 1),
    ] {
        let scenario = |dir: &Path, faults| example_run(dir, 1, faults);
        let check = |dir: &Path, run: &ScenarioRun, k: u64, label: &str| {
            let mut recovered = reopen_example(dir, 1)
                .unwrap_or_else(|e| panic!("{label}: recovery failed: {e:?}"));
            // Under `Always` an append/fsync kill rolls back to the last
            // acknowledged state (the round that died was never
            // acknowledged); a checkpoint kill strikes after its round
            // was journaled, so the at-failure state is already durable.
            let (outcome, want) = match site {
                FaultSite::Checkpoint => ("at_failure", run.at_failure.as_ref()),
                _ => ("last_ack", run.acks.last()),
            };
            assert_eq!(
                Some(&recovered.signature()),
                want,
                "{label}: not the {outcome} state"
            );
            let note = recovered.recovered_from().unwrap().to_string();
            // Liveness: the recovered store still accepts rounds.
            example()
                .price_update_batch(recovered.db_mut(), EXAMPLE_DIFF, 999)
                .unwrap();
            recovered.tick().unwrap();
            Json::inline([
                ("site", site.label().into()),
                ("k", k.into()),
                ("outcome", outcome.into()),
                ("recovery", note.into()),
            ])
        };
        sweep.extend(sweep_site(site, start_k, seed, scenario, check));
    }
    (determinism, sweep)
}

/// A BSMA multi-view store at `scale`: five eager views, 3.5 intervals
/// of 16 rounds of 64 tweets between automatic checkpoints. Its table
/// rows, WAL records, checkpoint bytes, what the second automatic
/// checkpoint (the first incremental one) reused and encoded, and the
/// bytes its cut dropped; recovery must land on the live signature.
fn size_counts(scale: f64) -> Json {
    const EVERY: u64 = 16;
    let cfg = MultiView {
        bsma: Bsma { scale, seed: 7 },
    };
    let dcfg = DurabilityConfig {
        policy: DurabilityPolicy::EveryNRounds(8),
        checkpoint_every_rounds: EVERY as u32,
    };
    let dir = fresh_dir("size");
    let (sched, options) = (SchedulerConfig::default(), IvmOptions::default());
    let db = cfg.build().unwrap();
    let mut store = Durable::create(&dir, db, sched, options, dcfg, no_faults()).unwrap();
    for name in VIEW_NAMES {
        let plan = cfg.plan(store.db(), name).unwrap();
        store.register(name, plan, RefreshPolicy::Eager).unwrap();
    }
    let mut before = CheckpointStats::default();
    for round in 1..=EVERY * 7 / 2 {
        cfg.tweet_batch(store.db_mut(), 64, round).unwrap();
        store.tick().unwrap();
        if round == EVERY * 2 {
            // The first automatic checkpoint was joined just now.
            before = store.checkpoint_stats();
        }
    }
    let stats = store.checkpoint_stats();
    assert_eq!(
        stats.taken,
        before.taken + 1,
        "scale {scale}: the second automatic checkpoint"
    );
    let db = store.db();
    let table_rows: usize = db
        .table_names()
        .into_iter()
        .map(|t| db.table(t).unwrap().len())
        .sum();
    let live = store.signature();
    store.close().unwrap();
    assert!(
        reopen(&dir, dcfg).unwrap().signature() == live,
        "scale {scale}: recovery diverged"
    );
    let checkpoint_bytes = std::fs::metadata(dir.join(CHECKPOINT_FILE)).unwrap().len();
    let wal_records = Wal::scan(&dir.join(WAL_FILE)).unwrap().records.len();
    std::fs::remove_dir_all(&dir).unwrap();
    Json::inline([
        ("scale", Json::Num(scale)),
        ("table_rows", table_rows.into()),
        ("wal_records", wal_records.into()),
        ("checkpoint_bytes", checkpoint_bytes.into()),
        (
            "tables_reused",
            (stats.tables_reused - before.tables_reused).into(),
        ),
        (
            "tables_encoded",
            (stats.tables_encoded - before.tables_encoded).into(),
        ),
        (
            "bytes_reused",
            (stats.bytes_reused - before.bytes_reused).into(),
        ),
        (
            "bytes_encoded",
            (stats.bytes_encoded - before.bytes_encoded).into(),
        ),
        ("cut_bytes", stats.last_cut_bytes.into()),
    ])
}

/// `BENCH_crash.json` is the kill sweep's members, then the size
/// sweep's, from this line on.
const SIZE_SECTION: &str = "\n  \"size_sweep\": ";

fn crash_report(determinism: Vec<Json>, sweep: Vec<Json>, sizes: Vec<Json>) -> Json {
    Json::block([
        ("bench", "crash".into()),
        ("determinism", Json::rows(determinism)),
        ("sweep", Json::rows(sweep)),
        ("size_sweep", Json::rows(sizes)),
    ])
}

/// Pin one part of the committed counts, byte for byte: `report`'s
/// text before [`SIZE_SECTION`] (`kills`) or from it on, with the
/// other part as committed. The lock keeps the two tests from blessing
/// the file at once.
fn pin_part(report: &Json, kills: bool) {
    static FILE: Mutex<()> = Mutex::new(());
    let _held = FILE.lock().unwrap_or_else(PoisonError::into_inner);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(CRASH_COUNTS);
    let committed = std::fs::read_to_string(path).unwrap_or_default();
    let rendered = report.render() + "\n";
    let cut = |text: &str| text.find(SIZE_SECTION).unwrap_or(text.len());
    let (r, c) = (cut(&rendered), cut(&committed));
    let text = match kills {
        true => format!("{}{}", &rendered[..r], &committed[c..]),
        false => format!("{}{}", &committed[..c], &rendered[r..]),
    };
    pinned::assert_pinned(CRASH_COUNTS, &text);
}

/// The kill sweep under every sweep seed writes the committed counts
/// before the size sweep's, byte for byte: they do not depend on the
/// seed.
#[test]
fn running_example_kills_rewrite_the_committed_counts() {
    for seed in sweep_seeds() {
        let (determinism, sweep) = example_kill_sweep(seed);
        pin_part(&crash_report(determinism, sweep, Vec::new()), true);
    }
}

/// The size sweep writes the committed counts from `size_sweep` on,
/// byte for byte. A BSMA store at scale 4.0 takes ≈ 20 s and 0.4 GB in
/// a debug build; CI runs this test in the optimised build only.
#[test]
fn state_sizes_rewrite_the_committed_counts() {
    let sizes = [0.25, 1.0, 4.0].into_iter().map(size_counts).collect();
    pin_part(&crash_report(Vec::new(), Vec::new(), sizes), false);
}

/// Journaling every round and fsyncing it (`Always`) leaves the
/// maintenance result what it is with the journal `Off`: twelve rounds
/// of 400 price updates over 5 000 parts, three joins.
#[test]
fn journaling_leaves_the_maintenance_result_alone() {
    let cfg = RunningExample {
        n_parts: 5_000,
        n_devices: 5_000,
        fanout: 10,
        selectivity_pct: 20,
        joins: 3,
        seed: 7,
    };
    let signatures = [DurabilityPolicy::Off, DurabilityPolicy::Always].map(|policy| {
        let dir = fresh_dir("journal_off_on");
        let dcfg = DurabilityConfig {
            policy,
            checkpoint_every_rounds: 0,
        };
        let (sched, options) = (SchedulerConfig::default(), IvmOptions::default());
        let db = cfg.build().unwrap();
        let mut store = Durable::create(&dir, db, sched, options, dcfg, no_faults()).unwrap();
        let plan = cfg.agg_plan(store.db()).unwrap();
        store.register("V", plan, RefreshPolicy::Eager).unwrap();
        for round in 1..=12 {
            cfg.price_update_batch(store.db_mut(), 400, round).unwrap();
            store.tick().unwrap();
        }
        let sig = store.signature();
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
        sig
    });
    assert!(
        signatures[0] == signatures[1],
        "journaling changed the maintenance result"
    );
}
