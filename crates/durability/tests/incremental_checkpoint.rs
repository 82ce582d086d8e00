//! The store's checkpoints are assembled from cached table sections on
//! a worker thread; this suite pins that nobody can tell.
//!
//! * A seeded property: over random sequences of DML rounds, catalog
//!   operations, same-named table re-creation, index creation and
//!   explicit/automatic checkpoints, **every published checkpoint file
//!   equals `Checkpoint::capture(..).to_bytes()` taken from scratch at
//!   the same LSN, byte for byte**, and loads back to itself. Each
//!   component of the section key has an operation that only it
//!   notices: DML moves the version; a re-created table repeats name,
//!   version and index list under a new id; an index created over
//!   unchanged rows moves nothing but the index list.
//! * The same two hazards spelled out as plain tests.
//! * `CheckpointStats` counts what was reused.

#![allow(clippy::unwrap_used)]

mod common;

use common::{fresh_dir, mv_policy, no_faults, reopen, suite, tiny_db};
use idivm_core::IvmOptions;
use idivm_reldb::Database;
use idivm_durability::{
    Checkpoint, Durable, DurabilityConfig, DurabilityPolicy, CHECKPOINT_FILE,
};
use idivm_sched::SchedulerConfig;
use idivm_types::{row, ColumnType, Row, Schema};
use idivm_workloads::multiview::VIEW_NAMES;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};

const DEEP: &str = "join[mentions,microblog,users]";
const SCRATCH: &str = "scratch";
const SCRATCH_ROWS: i64 = 6;

fn scratch_schema() -> Schema {
    Schema::from_pairs(&[("k", ColumnType::Int), ("v", ColumnType::Int)], &["k"]).unwrap()
}

/// Drop `scratch` (if there) and create it again with the same number
/// of writes — so the same version — over rows drawn from `salt`.
fn recreate_scratch(db: &mut Database, salt: i64) {
    db.drop_table(SCRATCH);
    db.create_table(SCRATCH, scratch_schema()).unwrap();
    let t = db.table_mut(SCRATCH).unwrap();
    for k in 0..SCRATCH_ROWS {
        t.load(row![k, salt * 100 + k]).unwrap();
    }
}

/// What the test mirrors of the store: the LSN (every journaled call
/// appends exactly one record under `Always`) and the catalog. Every
/// step ends in a journaled call, so an LSN names one state.
struct Model {
    lsn: u64,
    round: u64,
    registered: BTreeSet<&'static str>,
    promoted: Option<String>,
    /// From-scratch images by LSN, for whichever one gets published.
    scratch_images: HashMap<u64, Vec<u8>>,
    /// LSN of the published file last looked at.
    checked: u64,
}

impl Model {
    /// After a journaled call (`lsn` has moved) or at the start:
    /// remember what a from-scratch checkpoint of this state is, then
    /// look at the published file — the worker renames it into place
    /// whenever it gets there, so any call may be the first to see it.
    fn observe(&mut self, store: &Durable) {
        let scratch = Checkpoint::capture(store.scheduler(), store.pipeline(), self.lsn)
            .unwrap()
            .to_bytes();
        self.scratch_images.insert(self.lsn, scratch);
        self.check_published(store.dir());
    }

    fn journaled(&mut self, store: &Durable) {
        self.lsn += 1;
        self.observe(store);
    }

    fn check_published(&mut self, dir: &std::path::Path) {
        let file = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
        let loaded = Checkpoint::from_bytes(&file).unwrap();
        let lsn = loaded.last_lsn;
        let expect = &self.scratch_images[&lsn];
        assert!(
            file == *expect,
            "checkpoint at lsn {lsn} differs from a from-scratch capture ({} vs {} bytes)",
            file.len(),
            expect.len()
        );
        assert!(loaded.to_bytes() == file, "lsn {lsn}: load does not re-encode to itself");
        self.checked = lsn;
    }
}

fn run_sequence(seed: u64, ops: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = suite();
    let dir = fresh_dir(&format!("incr_{seed}"));
    let dcfg = DurabilityConfig {
        policy: DurabilityPolicy::Always,
        checkpoint_every_rounds: 3,
    };
    let mut db = cfg.build().unwrap();
    recreate_scratch(&mut db, 0);
    let mut store = Durable::create(
        &dir,
        db,
        SchedulerConfig::default(),
        IvmOptions::default(),
        dcfg,
        no_faults(),
    )
    .unwrap();
    let mut m = Model {
        lsn: 0,
        round: 0,
        registered: BTreeSet::new(),
        promoted: None,
        scratch_images: HashMap::new(),
        checked: 0,
    };
    m.observe(&store);
    for name in VIEW_NAMES {
        let plan = cfg.plan(store.db(), name).unwrap();
        store.register(name, plan, mv_policy(name)).unwrap();
        m.registered.insert(name);
        m.journaled(&store);
    }
    let mut explicit = 0u64;

    for step in 0..ops {
        match rng.gen_range(0..10) {
            // DML round (the common case; every third one is due).
            0..=3 => {
                m.round += 1;
                cfg.tweet_batch(store.db_mut(), 6, m.round).unwrap();
                store.tick().unwrap();
                m.journaled(&store);
            }
            4 => {
                if m.promoted.is_some() {
                    continue;
                }
                // Put a missing view back before taking another out.
                match VIEW_NAMES.into_iter().find(|v| !m.registered.contains(v)) {
                    Some(name) => {
                        let plan = cfg.plan(store.db(), name).unwrap();
                        store.register(name, plan, mv_policy(name)).unwrap();
                        m.registered.insert(name);
                    }
                    None => {
                        let name = VIEW_NAMES[rng.gen_range(0..VIEW_NAMES.len())];
                        store.unregister(name).unwrap();
                        m.registered.remove(name);
                    }
                }
                m.journaled(&store);
            }
            5 => match m.promoted.take() {
                Some(backing) => {
                    store.force_demote(&backing).unwrap();
                    m.journaled(&store);
                }
                None if m.registered.len() == VIEW_NAMES.len() => {
                    m.promoted = Some(store.force_promote(DEEP).unwrap());
                    m.journaled(&store);
                }
                None => {}
            },
            // Same name, same version, same indexes — other rows.
            6 => {
                recreate_scratch(store.db_mut(), step as i64 + 1);
                store.drain().unwrap();
                m.journaled(&store);
            }
            // An index over rows that do not change (idempotent when
            // the positions repeat).
            7 => {
                let table = ["friendlist", SCRATCH][rng.gen_range(0..2)];
                let col = rng.gen_range(0..2);
                store
                    .db_mut()
                    .table_mut(table)
                    .unwrap()
                    .create_index_positions(vec![col]);
                store.drain().unwrap();
                m.journaled(&store);
            }
            8 => {
                store.drain().unwrap();
                m.journaled(&store);
            }
            _ => {
                store.checkpoint().unwrap();
                explicit += 1;
                m.check_published(&dir);
                assert_eq!(m.checked, m.lsn, "an explicit checkpoint is published on return");
            }
        }
    }
    // `create` took one, and the last automatic one may still be in
    // flight; the closing explicit one joins it. (It also makes the
    // un-journaled scratch tables and indexes durable.)
    store.checkpoint().unwrap();
    m.check_published(&dir);
    let stats = store.checkpoint_stats();
    assert!(
        stats.taken > explicit + 2,
        "seed {seed}: no automatic checkpoint was taken"
    );
    assert!(stats.tables_reused > 0 && stats.bytes_reused > 0);
    let live = store.signature();
    drop(store);
    assert_eq!(reopen(&dir, dcfg).unwrap().signature(), live);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_published_checkpoint_equals_a_from_scratch_capture() {
    for seed in [1, 2015, 424242] {
        run_sequence(seed, 80);
    }
}

fn tiny_store(dir: &std::path::Path) -> Durable {
    Durable::create(
        dir,
        tiny_db(),
        SchedulerConfig::default(),
        IvmOptions::default(),
        DurabilityConfig::default(),
        no_faults(),
    )
    .unwrap()
}

fn published_rows(dir: &std::path::Path, table: &str) -> Vec<Row> {
    let ckpt = Checkpoint::load(dir).unwrap();
    ckpt.tables.into_iter().find(|t| t.name == table).unwrap().rows
}

/// A table dropped and created again under its name, with as many
/// writes as before, reports the version it had — over other rows. The
/// second checkpoint must hold the new ones.
#[test]
fn recreated_table_with_a_repeated_version_is_checkpointed_anew() {
    let dir = fresh_dir("repeat_version");
    let mut store = tiny_store(&dir);
    recreate_scratch(store.db_mut(), 1);
    let version = store.db().table(SCRATCH).unwrap().version();
    store.checkpoint().unwrap();
    assert_eq!(published_rows(&dir, SCRATCH)[0], row![0, 100]);

    recreate_scratch(store.db_mut(), 2);
    assert_eq!(store.db().table(SCRATCH).unwrap().version(), version);
    store.checkpoint().unwrap();
    assert_eq!(published_rows(&dir, SCRATCH)[0], row![0, 200]);
    let live = store.signature();
    drop(store);
    assert_eq!(reopen(&dir, DurabilityConfig::default()).unwrap().signature(), live);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The engine creates a view's id index the first time an update or
/// delete diff needs it (`ensure_id_index`) — possibly in a round that
/// changes no row of the table. The next checkpoint must list it, or a
/// recovered store would answer id probes by scanning.
#[test]
fn index_created_between_two_checkpoints_is_in_the_second() {
    let dir = fresh_dir("late_index");
    let mut store = tiny_store(&dir);
    store.checkpoint().unwrap();
    let indexes = |dir: &std::path::Path| {
        let ckpt = Checkpoint::load(dir).unwrap();
        ckpt.tables.into_iter().find(|t| t.name == "bins").unwrap().indexes
    };
    assert!(indexes(&dir).is_empty());

    let bins = store.db_mut().table_mut("bins").unwrap();
    let version = bins.version();
    bins.create_index_positions(vec![1]);
    assert_eq!(bins.version(), version, "the rows did not change");
    store.checkpoint().unwrap();
    assert_eq!(indexes(&dir), vec![vec![1]]);
    let live = store.signature();
    drop(store);
    assert_eq!(reopen(&dir, DurabilityConfig::default()).unwrap().signature(), live);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What the round's thread is spared shows in the stats: a table the
/// rounds never touch is encoded once, then reused.
#[test]
fn stats_count_reused_and_encoded_sections() {
    let dir = fresh_dir("stats");
    let mut store = tiny_store(&dir);
    let first = store.checkpoint_stats();
    assert_eq!((first.taken, first.tables_reused, first.tables_encoded), (1, 0, 2));
    assert_eq!(first.bytes_reused, 0);

    store.db_mut().insert("items", row![9, "nine", 90]).unwrap();
    store.tick().unwrap();
    let wal_before = store.wal_len();
    store.checkpoint().unwrap();
    let second = store.checkpoint_stats();
    assert_eq!((second.taken, second.tables_reused, second.tables_encoded), (2, 1, 3));
    assert!(second.bytes_reused > 0 && second.bytes_encoded > first.bytes_encoded);
    assert_eq!(second.last_cut_bytes, wal_before - store.wal_len());
    assert!(second.last_cut_bytes > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
