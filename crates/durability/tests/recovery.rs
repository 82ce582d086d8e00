//! Clean-shutdown and mid-lifecycle recovery: a durable store dropped
//! at any quiescent point and re-opened must come back with a
//! bit-identical [`Database::signature`] — materialized rows, indexes,
//! Deferred/OnRead pendings, promoted intermediates, and ingest
//! baselines included — and then behave exactly like a store that
//! never restarted.

#![allow(clippy::unwrap_used)]

mod common;

use common::{fresh_dir, mv_store, no_faults, reopen, suite, tiny_db, tiny_plan};
use idivm_core::{FaultPlan, FaultSite, IvmOptions};
use idivm_cost::PromotionConfig;
use idivm_durability::{
    Durable, DurabilityConfig, DurabilityPolicy, CHECKPOINT_FILE, WAL_FILE,
};
use idivm_exec::recompute_rows;
use idivm_ingest::{
    BatchPolicy, ChangeEvent, ChangeOp, OverflowPolicy, PipelineConfig, QueueConfig, RawEvent,
};
use idivm_sched::{RefreshPolicy, SchedulerConfig};
use idivm_types::{row, Key, Value};
use idivm_workloads::multiview::VIEW_NAMES;
use std::path::{Path, PathBuf};

const DIFFS: usize = 24;
const DEEP: &str = "join[mentions,microblog,users]";

fn always() -> DurabilityConfig {
    DurabilityConfig {
        policy: DurabilityPolicy::Always,
        checkpoint_every_rounds: 0,
    }
}

/// Full multi-view lifecycle — DML rounds, a read barrier, promote,
/// demote, drain — then drop and re-open. The recovered store must be
/// bit-identical and every view must match the recompute oracle.
#[test]
fn multiview_lifecycle_survives_restart() {
    let dir = fresh_dir("lifecycle");
    let cfg = suite();
    let dcfg = DurabilityConfig {
        policy: DurabilityPolicy::Always,
        checkpoint_every_rounds: 3,
    };
    let mut store = mv_store(&dir, dcfg, no_faults());

    for round in 1..=4u64 {
        cfg.tweet_batch(store.db_mut(), DIFFS, round).unwrap();
        store.tick().unwrap();
        if round == 2 {
            store.read_view("mention_topic_counts").unwrap();
        }
    }
    let backing = store.force_promote(DEEP).unwrap();
    for round in 5..=6u64 {
        cfg.tweet_batch(store.db_mut(), DIFFS, round).unwrap();
        store.tick().unwrap();
    }
    store.force_demote(&backing).unwrap();
    store.drain().unwrap();
    let live_sig = store.signature();
    drop(store);

    let recovered = reopen(&dir, dcfg).unwrap();
    assert_eq!(recovered.signature(), live_sig, "recovery must be bit-identical");
    let note = recovered.recovered_from().unwrap();
    assert!(note.starts_with("checkpoint (lsn "), "note: {note}");

    // Every recovered view still matches the full recompute oracle.
    let sched = recovered.scheduler();
    for name in VIEW_NAMES {
        let view = sched.catalog().view(name).unwrap();
        let mut oracle = recompute_rows(sched.db(), view.engine().plan()).unwrap();
        oracle.sort();
        let mut rows = sched.catalog().rows(name).unwrap();
        rows.sort();
        assert_eq!(rows, oracle, "recovered `{name}` diverges from oracle");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Re-opening the same directory twice yields identical state —
/// recovery itself is deterministic and non-destructive (beyond
/// truncating a torn tail, of which a clean shutdown has none).
#[test]
fn double_open_is_deterministic() {
    let dir = fresh_dir("doubleopen");
    let cfg = suite();
    let mut store = mv_store(&dir, always(), no_faults());
    for round in 1..=3u64 {
        cfg.tweet_batch(store.db_mut(), DIFFS, round).unwrap();
        store.tick().unwrap();
    }
    let live_sig = store.signature();
    drop(store);

    let first = reopen(&dir, always()).unwrap();
    let first_sig = first.signature();
    drop(first);
    let second = reopen(&dir, always()).unwrap();
    assert_eq!(first_sig, live_sig);
    assert_eq!(second.signature(), live_sig);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A store that restarts mid-stream and keeps going must end
/// bit-identical to a control store that never restarted: recovery
/// leaves no invisible state behind that later rounds depend on.
#[test]
fn recovered_store_continues_like_uninterrupted_control() {
    let cfg = suite();

    let control_dir = fresh_dir("control");
    let mut control = mv_store(&control_dir, always(), no_faults());
    for round in 1..=6u64 {
        cfg.tweet_batch(control.db_mut(), DIFFS, round).unwrap();
        control.tick().unwrap();
    }
    control.drain().unwrap();
    let control_sig = control.signature();
    drop(control);

    let dir = fresh_dir("restarted");
    let mut store = mv_store(&dir, always(), no_faults());
    for round in 1..=3u64 {
        cfg.tweet_batch(store.db_mut(), DIFFS, round).unwrap();
        store.tick().unwrap();
    }
    drop(store); // restart mid-stream
    let mut store = reopen(&dir, always()).unwrap();
    for round in 4..=6u64 {
        cfg.tweet_batch(store.db_mut(), DIFFS, round).unwrap();
        store.tick().unwrap();
    }
    store.drain().unwrap();
    assert_eq!(store.signature(), control_sig);

    std::fs::remove_dir_all(&control_dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Uncommitted DML (logged but never ticked) is not durable: recovery
/// rolls back to the last journaled round, exactly as documented.
#[test]
fn unticked_dml_is_not_durable() {
    let dir = fresh_dir("unticked");
    let mut store = Durable::create(
        &dir,
        tiny_db(),
        SchedulerConfig::default(),
        IvmOptions::default(),
        always(),
        no_faults(),
    )
    .unwrap();
    let plan = tiny_plan(store.db());
    store.register("stock", plan, RefreshPolicy::Eager).unwrap();
    store.db_mut().insert("items", row![100, "durable", 1]).unwrap();
    store.tick().unwrap();
    let committed = store.signature();

    // This insert is acknowledged by the database but never journaled.
    store.db_mut().insert("items", row![101, "lost", 2]).unwrap();
    drop(store);

    let recovered = reopen(&dir, always()).unwrap();
    assert_eq!(recovered.signature(), committed);
    let items = recovered.db().table("items").unwrap();
    assert!(items.get(&idivm_types::Key(vec![idivm_types::Value::Int(101)])).is_none());
    assert!(items.get(&idivm_types::Key(vec![idivm_types::Value::Int(100)])).is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Manual checkpoints truncate the WAL; recovery from checkpoint-only
/// state (zero replayed records) is still exact.
#[test]
fn checkpoint_truncates_wal_and_recovers_alone() {
    let dir = fresh_dir("ckpt");
    let cfg = suite();
    let mut store = mv_store(&dir, always(), no_faults());
    for round in 1..=3u64 {
        cfg.tweet_batch(store.db_mut(), DIFFS, round).unwrap();
        store.tick().unwrap();
    }
    let before = store.wal_len();
    store.checkpoint().unwrap();
    assert!(store.wal_len() < before, "checkpoint must truncate the WAL");
    let live_sig = store.signature();
    drop(store);

    let recovered = reopen(&dir, always()).unwrap();
    assert_eq!(recovered.signature(), live_sig);
    let note = recovered.recovered_from().unwrap();
    assert!(note.contains("+ 0 wal record(s)"), "note: {note}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The published-checkpoint-but-stale-WAL crash window: if a crash
/// lands after the checkpoint rename but before the WAL truncation,
/// recovery must skip the already-folded records instead of
/// double-applying them.
#[test]
fn checkpoint_published_but_wal_not_truncated() {
    let dir = fresh_dir("stalewal");
    let cfg = suite();
    let mut store = mv_store(&dir, always(), no_faults());
    for round in 1..=3u64 {
        cfg.tweet_batch(store.db_mut(), DIFFS, round).unwrap();
        store.tick().unwrap();
    }
    let stale_wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
    store.checkpoint().unwrap();
    let live_sig = store.signature();
    drop(store);

    // Simulate the crash window by restoring the pre-truncation WAL
    // next to the freshly published checkpoint.
    std::fs::write(dir.join(WAL_FILE), &stale_wal).unwrap();
    let mut recovered = reopen(&dir, always()).unwrap();
    assert_eq!(recovered.signature(), live_sig);
    let note = recovered.recovered_from().unwrap();
    assert!(note.contains("+ 0 wal record(s)"), "note: {note}");

    // And the store keeps working: LSNs continue past the stale tail.
    cfg.tweet_batch(recovered.db_mut(), DIFFS, 9).unwrap();
    recovered.tick().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Deferred and OnRead pendings survive a restart: a view that was
/// stale before the crash is exactly as stale after, and draining the
/// recovered store converges it to the oracle.
#[test]
fn pending_state_survives_restart() {
    let dir = fresh_dir("pending");
    let cfg = suite();
    let mut store = mv_store(&dir, always(), no_faults());
    // One tick: Deferred(2)/OnRead views accumulate pending nets.
    cfg.tweet_batch(store.db_mut(), DIFFS, 1).unwrap();
    store.tick().unwrap();
    let live_sig = store.signature();
    drop(store);

    let mut recovered = reopen(&dir, always()).unwrap();
    assert_eq!(recovered.signature(), live_sig);
    // Draining after recovery converges the stale views to the oracle.
    recovered.drain().unwrap();
    let sched = recovered.scheduler();
    for name in VIEW_NAMES {
        let view = sched.catalog().view(name).unwrap();
        let mut oracle = recompute_rows(sched.db(), view.engine().plan()).unwrap();
        oracle.sort();
        let mut rows = sched.catalog().rows(name).unwrap();
        rows.sort();
        assert_eq!(rows, oracle, "drained `{name}` diverges from oracle");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Catalog operations refuse to run over un-journaled DML — the
/// quiescence guard is what keeps the replay order exact.
#[test]
fn catalog_ops_require_quiescent_log() {
    let dir = fresh_dir("quiescent");
    let mut store = Durable::create(
        &dir,
        tiny_db(),
        SchedulerConfig::default(),
        IvmOptions::default(),
        always(),
        no_faults(),
    )
    .unwrap();
    let plan = tiny_plan(store.db());
    store.db_mut().insert("items", row![50, "pending", 5]).unwrap();
    let err = store.register("stock", plan.clone(), RefreshPolicy::Eager).unwrap_err();
    assert!(
        matches!(err, idivm_types::Error::Config(_)),
        "expected Config, got {err:?}"
    );
    store.tick().unwrap();
    store.register("stock", plan, RefreshPolicy::Eager).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `EveryNRounds` batching: a clean shutdown loses nothing (the tail
/// is still on disk, just not fsynced), and recovery is exact.
#[test]
fn every_n_rounds_clean_shutdown_is_exact() {
    let dir = fresh_dir("everyn");
    let cfg = suite();
    let dcfg = DurabilityConfig {
        policy: DurabilityPolicy::EveryNRounds(3),
        checkpoint_every_rounds: 0,
    };
    let mut store = mv_store(&dir, dcfg, no_faults());
    for round in 1..=4u64 {
        cfg.tweet_batch(store.db_mut(), DIFFS, round).unwrap();
        store.tick().unwrap();
    }
    let live_sig = store.signature();
    drop(store);
    let recovered = reopen(&dir, dcfg).unwrap();
    assert_eq!(recovered.signature(), live_sig);
    std::fs::remove_dir_all(&dir).unwrap();
}

// --- Replay semantics ---------------------------------------------
//
// Each lifecycle below runs on a live store, copies the store's
// directory (the disk image a crash at that instant would leave), then
// re-opens the copy and compares it with the live store: signature,
// round counter, per-view runtime state, ingest state, and the bytes
// of a checkpoint both sides write right after.

/// A copy of the store directory as it stands.
fn disk_image(dir: &Path) -> PathBuf {
    let copy = fresh_dir("image");
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, copy.join(path.file_name().unwrap())).unwrap();
    }
    copy
}

/// The bytes of a checkpoint `store` publishes now.
fn checkpoint_bytes(store: &mut Durable) -> Vec<u8> {
    store.checkpoint().unwrap();
    std::fs::read(store.dir().join(CHECKPOINT_FILE)).unwrap()
}

/// A view's name, staleness and pending net (table, digest), sorted.
type Runtime = (String, u32, Vec<(String, u64)>);

/// Per-view runtime state a checkpoint carries.
fn runtime(store: &Durable) -> Vec<Runtime> {
    let sched = store.scheduler();
    let mut out = Vec::new();
    for name in sched.catalog().names() {
        let mut pending: Vec<(String, u64)> = sched
            .pending(name)
            .unwrap()
            .iter()
            .map(|(t, c)| (t.clone(), c.digest()))
            .collect();
        pending.sort();
        out.push((name.to_string(), sched.staleness(name).unwrap(), pending));
    }
    out
}

/// What recovery must reproduce of a live store.
fn assert_recovers_exactly(live: &mut Durable, recovered: &mut Durable) {
    assert_eq!(recovered.signature(), live.signature(), "signature");
    assert_eq!(recovered.scheduler().rounds(), live.scheduler().rounds(), "rounds");
    assert_eq!(runtime(recovered), runtime(live), "pending nets and staleness");
    assert_eq!(
        recovered.scheduler().tracker_streaks(),
        live.scheduler().tracker_streaks(),
        "crossover trackers"
    );
    assert_eq!(
        recovered.scheduler().intermediates(),
        live.scheduler().intermediates(),
        "promoted intermediates"
    );
    match (live.pipeline(), recovered.pipeline()) {
        (Some(l), Some(r)) => {
            assert_eq!(r.totals(), l.totals(), "ingest totals");
            assert_eq!(r.expected_seq(), l.expected_seq(), "expected seqs");
            assert_eq!(r.dlq().to_json().render(), l.dlq().to_json().render(), "dead letters");
        }
        (None, None) => {}
        _ => panic!("pipeline attached on one side only"),
    }
    assert!(
        checkpoint_bytes(recovered) == checkpoint_bytes(live),
        "checkpoint bytes differ"
    );
}

/// Drop nothing: image the live store's directory, re-open the image
/// under `sched_config` and `options`, and compare with the live store.
fn reopen_image_and_compare(
    live: &mut Durable,
    sched_config: SchedulerConfig,
    options: IvmOptions,
    pipeline: Option<PipelineConfig>,
) -> Durable {
    let image = disk_image(live.dir());
    let mut recovered = Durable::open(
        &image,
        sched_config,
        options,
        always(),
        no_faults(),
        pipeline,
    )
    .unwrap();
    assert_recovers_exactly(live, &mut recovered);
    recovered
}

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

/// One change event from producer 1.
fn event(seq: u64, table: &str, op: ChangeOp) -> RawEvent {
    RawEvent::encode(&ChangeEvent {
        producer: 1,
        seq,
        table: table.into(),
        op,
    })
}

/// The multi-view suite with every view `Eager` except those `policy`
/// names otherwise, `skip` left unregistered.
fn suite_store(
    dir: &Path,
    sched_config: SchedulerConfig,
    options: IvmOptions,
    policy: impl Fn(&str) -> RefreshPolicy,
    skip: &[&str],
) -> Durable {
    let cfg = suite();
    let mut store = Durable::create(dir, cfg.build().unwrap(), sched_config, options, always(), no_faults())
        .unwrap();
    for name in VIEW_NAMES.iter().filter(|n| !skip.contains(n)) {
        let plan = cfg.plan(store.db(), name).unwrap();
        store.register(name, plan, policy(name)).unwrap();
    }
    store
}

/// All-`Eager` lifecycle: plain ticks, ingest cuts (one with a dead
/// letter), a read barrier, a drain, a `register` in the middle of the
/// WAL tail, and one microblog key inserted, updated and deleted in
/// three different cuts. The tail ends on a read barrier, which leaves
/// the other views' changes pending.
#[test]
fn eager_lifecycle_replays_exactly() {
    let dir = fresh_dir("eager_replay");
    let cfg = suite();
    let mut store = suite_store(
        &dir,
        SchedulerConfig::default(),
        IvmOptions::default(),
        |_| RefreshPolicy::Eager,
        &["mention_users"],
    );
    store.attach_pipeline(pipe_cfg()).unwrap();
    let (mid, tweet) = (9_000_001i64, row![9_000_001i64, 3, 500, 7]);
    let edited = row![9_000_001i64, 3, 500, 9];

    cfg.tweet_batch(store.db_mut(), DIFFS, 1).unwrap();
    store.tick().unwrap();
    // Cut 1: the tweet, a mention of it, and a dead letter.
    store.offer(1, &event(1, "microblog", ChangeOp::Insert { row: tweet.clone() })).unwrap();
    store.offer(1, &event(2, "mentions", ChangeOp::Insert { row: row![mid, 2] })).unwrap();
    store.offer(1, &event(3, "nope", ChangeOp::Insert { row: row![1] })).unwrap();
    store.flush_ingest(1).unwrap().expect("cut 1");
    // Cut 2: the tweet changes topic.
    store
        .offer(2, &event(4, "microblog", ChangeOp::Update { pre: tweet, post: edited.clone() }))
        .unwrap();
    store.flush_ingest(2).unwrap().expect("cut 2");
    cfg.tweet_batch(store.db_mut(), DIFFS, 2).unwrap();
    store.read_view("mention_timeline").unwrap();
    store.tick().unwrap();
    store
        .register("mention_users", cfg.plan(store.db(), "mention_users").unwrap(), RefreshPolicy::Eager)
        .unwrap();
    // Cut 3: the tweet and its mention go.
    store.offer(3, &event(5, "mentions", ChangeOp::Delete { pre: row![mid, 2] })).unwrap();
    store.offer(3, &event(6, "microblog", ChangeOp::Delete { pre: edited })).unwrap();
    store.flush_ingest(3).unwrap().expect("cut 3");
    cfg.tweet_batch(store.db_mut(), DIFFS, 3).unwrap();
    store.tick().unwrap();
    cfg.tweet_batch(store.db_mut(), DIFFS, 4).unwrap();
    store.drain().unwrap();
    cfg.tweet_batch(store.db_mut(), DIFFS, 5).unwrap();
    store.read_view("mention_favor").unwrap();
    assert_eq!(store.pipeline().unwrap().totals().dead_lettered, 1);

    let recovered = reopen_image_and_compare(
        &mut store,
        SchedulerConfig::default(),
        IvmOptions::default(),
        Some(pipe_cfg()),
    );
    let note = recovered.recovered_from().unwrap();
    assert!(note.ends_with("+ 14 wal record(s)"), "note: {note}");
    let (image, live) = (recovered.dir().to_path_buf(), store.dir().to_path_buf());
    drop((store, recovered));
    std::fs::remove_dir_all(live).unwrap();
    std::fs::remove_dir_all(image).unwrap();
}

/// A `Deferred { 3 }` view and an `OnRead` view: their pending nets
/// and staleness after each round are per round, so replay must
/// reproduce the rounds, not just their sum.
#[test]
fn deferred_and_on_read_views_replay_exactly() {
    let dir = fresh_dir("deferred_replay");
    let cfg = suite();
    let policy = |name: &str| match name {
        "mention_reach" => RefreshPolicy::Deferred {
            max_staleness_rounds: 3,
        },
        "mention_topic_counts" => RefreshPolicy::OnRead,
        _ => RefreshPolicy::Eager,
    };
    let mut store = suite_store(&dir, SchedulerConfig::default(), IvmOptions::default(), policy, &[]);
    for round in 1..=5u64 {
        cfg.tweet_batch(store.db_mut(), DIFFS, round).unwrap();
        store.tick().unwrap();
        if round == 3 {
            store.read_view("mention_topic_counts").unwrap();
        }
    }
    assert!(store.scheduler().staleness("mention_reach").unwrap() > 0);
    let recovered =
        reopen_image_and_compare(&mut store, SchedulerConfig::default(), IvmOptions::default(), None);
    let (image, live) = (recovered.dir().to_path_buf(), store.dir().to_path_buf());
    drop((store, recovered));
    std::fs::remove_dir_all(live).unwrap();
    std::fs::remove_dir_all(image).unwrap();
}

/// Promotion on: the crossover trackers observe every round, so the
/// streaks (and any promotion they fire) depend on where rounds end.
#[test]
fn promotion_replays_exactly() {
    let dir = fresh_dir("promotion_replay");
    let cfg = suite();
    let sched_config = SchedulerConfig {
        promotion: Some(PromotionConfig::default()),
        ..SchedulerConfig::default()
    };
    let mut store =
        suite_store(&dir, sched_config, IvmOptions::default(), |_| RefreshPolicy::Eager, &[]);
    for round in 1..=6u64 {
        cfg.tweet_batch(store.db_mut(), DIFFS, round).unwrap();
        store.tick().unwrap();
    }
    assert!(!store.scheduler().tracker_streaks().is_empty());
    let recovered = reopen_image_and_compare(&mut store, sched_config, IvmOptions::default(), None);
    let (image, live) = (recovered.dir().to_path_buf(), store.dir().to_path_buf());
    drop((store, recovered));
    std::fs::remove_dir_all(live).unwrap();
    std::fs::remove_dir_all(image).unwrap();
}

/// A fault plan armed only at recovery strikes the first operator of
/// every replayed round of every view, and heals on the retry: replay
/// converges to the live store, and each view's supervisor ran once
/// per round that maintained it.
#[test]
fn a_fault_during_replay_strikes_every_replayed_round() {
    let dir = fresh_dir("fault_replay");
    let cfg = suite();
    let mut store = suite_store(
        &dir,
        SchedulerConfig::default(),
        IvmOptions::default(),
        |_| RefreshPolicy::Eager,
        &[],
    );
    for round in 1..=4u64 {
        cfg.tweet_batch(store.db_mut(), DIFFS, round).unwrap();
        store.tick().unwrap();
    }
    let options = IvmOptions {
        faults: FaultPlan::at(FaultSite::Operator, 0, 7).healing_after(1),
        ..IvmOptions::default()
    };
    let recovered = reopen_image_and_compare(&mut store, SchedulerConfig::default(), options, None);
    let sched = recovered.scheduler();
    for name in VIEW_NAMES {
        let stats = sched.stats(name).unwrap();
        assert_eq!((stats.rounds, stats.supervised_rounds), (4, 4), "`{name}`");
    }
    let (image, live) = (recovered.dir().to_path_buf(), store.dir().to_path_buf());
    drop((store, recovered));
    std::fs::remove_dir_all(live).unwrap();
    std::fs::remove_dir_all(image).unwrap();
}

// --- Folded replay -------------------------------------------------
//
// Whether a store replays its WAL tail as one round is the scheduler's
// configuration's to decide (the cold pins above fold too). The
// lifecycles below first warm the store up and checkpoint it, so that
// replay starts from a checkpoint taken after maintained rounds.

/// Tick batches into `store`, each also deleting a tweet of the one
/// before with its mentions, drain, and checkpoint.
fn warm_up(store: &mut Durable) {
    let cfg = suite();
    for round in 101..=106u64 {
        cfg.tweet_batch(store.db_mut(), DIFFS, round).unwrap();
        let mid = Value::Int(1_000_000 + (round as i64 - 1) * 100_000);
        let db = store.db_mut();
        for mention in db.table("mentions").unwrap().lookup(&[0], std::slice::from_ref(&mid)) {
            db.delete("mentions", &Key(mention.0.to_vec())).unwrap();
        }
        let _ = db.delete("microblog", &Key(vec![mid]));
        store.tick().unwrap();
    }
    store.drain().unwrap();
    store.checkpoint().unwrap();
}

/// Maintenance rounds each view ran since the store was opened.
fn rounds_run(store: &Durable) -> Vec<u64> {
    let sched = store.scheduler();
    VIEW_NAMES.iter().map(|name| sched.stats(name).unwrap().rounds).collect()
}

/// A warm all-`Eager` store folds the tail between two DDL records
/// into one round, and after the last one every round up to the last
/// tick, cut or drain; the read barrier after it replays alone. The
/// result is the live store's, checkpoint bytes included.
#[test]
fn a_warm_eager_tail_replays_as_one_round_per_run() {
    let dir = fresh_dir("warm_eager");
    let cfg = suite();
    let mut store = suite_store(
        &dir,
        SchedulerConfig::default(),
        IvmOptions::default(),
        |_| RefreshPolicy::Eager,
        &[],
    );
    store.attach_pipeline(pipe_cfg()).unwrap();
    warm_up(&mut store);
    let (mid, tweet) = (9_000_001i64, row![9_000_001i64, 3, 500, 7]);
    let edited = row![9_000_001i64, 3, 500, 9];
    store.offer(1, &event(1, "microblog", ChangeOp::Insert { row: tweet.clone() })).unwrap();
    store.offer(1, &event(2, "mentions", ChangeOp::Insert { row: row![mid, 2] })).unwrap();
    store.offer(1, &event(3, "nope", ChangeOp::Insert { row: row![1] })).unwrap();
    store.flush_ingest(1).unwrap().expect("cut 1");
    cfg.tweet_batch(store.db_mut(), DIFFS, 1).unwrap();
    store.read_view("mention_timeline").unwrap();
    store.tick().unwrap();
    store.offer(2, &event(4, "microblog", ChangeOp::Update { pre: tweet, post: edited.clone() })).unwrap();
    store.flush_ingest(2).unwrap().expect("cut 2");
    store.unregister("mention_favor").unwrap();
    store.offer(3, &event(5, "mentions", ChangeOp::Delete { pre: row![mid, 2] })).unwrap();
    store.offer(3, &event(6, "microblog", ChangeOp::Delete { pre: edited })).unwrap();
    store.flush_ingest(3).unwrap().expect("cut 3");
    cfg.tweet_batch(store.db_mut(), DIFFS, 2).unwrap();
    store.drain().unwrap();
    cfg.tweet_batch(store.db_mut(), DIFFS, 3).unwrap();
    store.read_view("mention_reach").unwrap();

    let recovered = reopen_image_and_compare(
        &mut store,
        SchedulerConfig::default(),
        IvmOptions::default(),
        Some(pipe_cfg()),
    );
    let note = recovered.recovered_from().unwrap();
    assert!(note.ends_with("+ 8 wal record(s)"), "note: {note}");
    // Four rounds before the unregister fold into one, the two cuts
    // and the drain after it into another; `mention_reach` also runs
    // the read barrier on its own.
    let sched = recovered.scheduler();
    for name in ["mention_reach", "mention_timeline", "mention_topic_counts", "mention_users"] {
        let want = if name == "mention_reach" { 3 } else { 2 };
        assert_eq!(sched.stats(name).unwrap().rounds, want, "`{name}`");
    }
    let (image, live) = (recovered.dir().to_path_buf(), store.dir().to_path_buf());
    drop((store, recovered));
    std::fs::remove_dir_all(live).unwrap();
    std::fs::remove_dir_all(image).unwrap();
}

/// Run `lifecycle` on a warm store under `sched_config`, then re-open
/// an image of it with `options`: it must equal the live store.
/// Returns the rounds each view ran during replay.
fn warm_replay(
    sched_config: SchedulerConfig,
    policy: impl Fn(&str) -> RefreshPolicy,
    options: IvmOptions,
    lifecycle: impl Fn(&mut Durable),
) -> Vec<u64> {
    let dir = fresh_dir("warm");
    let mut store = suite_store(&dir, sched_config, IvmOptions::default(), policy, &[]);
    warm_up(&mut store);
    lifecycle(&mut store);
    let recovered = reopen_image_and_compare(&mut store, sched_config, options, None);
    let rounds = rounds_run(&recovered);
    let (image, live) = (recovered.dir().to_path_buf(), store.dir().to_path_buf());
    drop((store, recovered));
    std::fs::remove_dir_all(live).unwrap();
    std::fs::remove_dir_all(image).unwrap();
    rounds
}

/// Five ticks with a read barrier among them.
fn five_ticks(store: &mut Durable) {
    let cfg = suite();
    for round in 1..=5u64 {
        cfg.tweet_batch(store.db_mut(), DIFFS, round).unwrap();
        store.tick().unwrap();
        if round == 3 {
            store.read_view("mention_topic_counts").unwrap();
        }
    }
}

/// Warm, a `Deferred { 3 }` and an `OnRead` view still replay round by
/// round.
#[test]
fn warm_deferred_and_on_read_views_replay_round_by_round() {
    let policy = |name: &str| match name {
        "mention_reach" => RefreshPolicy::Deferred {
            max_staleness_rounds: 3,
        },
        "mention_topic_counts" => RefreshPolicy::OnRead,
        _ => RefreshPolicy::Eager,
    };
    let rounds = warm_replay(SchedulerConfig::default(), policy, IvmOptions::default(), five_ticks);
    // favor, reach, timeline, topic_counts, users
    assert_eq!(rounds, vec![5, 1, 5, 1, 5]);
}

/// Warm, with promotion on, replay still goes round by round: the
/// crossover trackers observe every round.
#[test]
fn warm_promotion_replays_round_by_round() {
    let sched_config = SchedulerConfig {
        promotion: Some(PromotionConfig::default()),
        ..SchedulerConfig::default()
    };
    let rounds = warm_replay(sched_config, |_| RefreshPolicy::Eager, IvmOptions::default(), five_ticks);
    assert!(rounds.iter().all(|&r| r >= 5), "{rounds:?}");
}

/// Warm, a fault plan armed at recovery strikes every replayed round,
/// and replay converges to the live store.
#[test]
fn warm_replay_under_a_fault_goes_round_by_round() {
    let options = IvmOptions {
        faults: FaultPlan::at(FaultSite::Operator, 0, 7).healing_after(1),
        ..IvmOptions::default()
    };
    let rounds =
        warm_replay(SchedulerConfig::default(), |_| RefreshPolicy::Eager, options, five_ticks);
    assert_eq!(rounds, vec![5, 5, 5, 5, 5]);
}
