//! Allocation budget of one id-IVM maintenance round.
//!
//! The paper's claim is that an i-diff reaches the view tuples it
//! modifies through the view's ID index without reconstructing them, so
//! a round should allocate in proportion to the rows it *changes*, not
//! to the steps it takes. This test pins that by count: a counting
//! `#[global_allocator]` (an integration test is its own binary, so the
//! wrapper and its `unsafe` stay in this file) is read immediately
//! before and after [`IdIvm::maintain`] over rounds shaped like the
//! benchmark's `engine-fig12` (150 price updates, 25 link inserts, 25
//! deletes of the oldest links on the running example's aggregate
//! view), and the allocations per base diff tuple must stay within
//! budget.
//!
//! A second measurement brackets [`MaintenanceScheduler::tick`] over
//! cuts shaped like the benchmark's `firehose-multiview` (64 events
//! into the five eager SQL views of the multiview suite): what the
//! scheduler spends handing one folded net to five views must not grow
//! with the number of views that scan it.
//!
//! A third brackets a bulk [`Table::load`] of pre-built rows into a
//! reserved table with one secondary index: storing a row must not
//! build a key for it, for the primary-key map or for the index.
//!
//! A fourth brackets [`Durable::open`] of a warm all-`Eager` store of
//! the same five views, which folds its WAL tail into one round: what
//! replay spends must grow with the records it reads.
//!
//! A fifth brackets one [`ViewCatalog::register`] of the same suite's
//! `mention_favor` (two joins, a selection and a grouping, with an
//! input cache) on a catalog that holds no view yet: what set-up spends
//! besides materializing the view and its cache must stay within it.
//!
//! Counts are deterministic for a given build; the tests take
//! [`BRACKET`] so no other test thread allocates inside a bracket.

use idivm_repro::catalog::{MaintenanceScheduler, RefreshPolicy, SchedulerConfig, ViewCatalog};
use idivm_repro::core::{FaultPlan, FaultState, IdIvm, IvmOptions};
use idivm_repro::durability::{Durable, DurabilityConfig, DurabilityPolicy};
use idivm_repro::exec::{executor::sorted, recompute_rows};
use idivm_repro::reldb::{AccessStats, Database, Table};
use idivm_repro::types::{row, ColumnType, Key, Row, Schema, Value};
use idivm_repro::workloads::bsma::Bsma;
use idivm_repro::workloads::multiview::VIEW_NAMES;
use idivm_repro::workloads::{MultiView, RunningExample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Heap allocations per base diff tuple inside `IdIvm::maintain` that a
/// round may spend (the parent of the PR that introduced this test
/// spent 42.6 on this shape, 43.6 on the benchmark's).
const BUDGET_PER_DIFF: f64 = 22.0;

/// Heap allocations per event inside `MaintenanceScheduler::tick` on a
/// five-view cut of 64. The parent of the PR that introduced this
/// measurement spent 40.1 (4.4 of them in `distribute`, 1.6 of those
/// in the fold itself), that PR 36.9 (1.6 in `distribute`): what is
/// left is the five engines' rounds, which the budget above is about.
/// Building each i-diff row once per operator — straight into the
/// output layout, and shared when already in target order — took it
/// from 35.7 to 28.8 (and the round above from 14.9 to 14.0 per diff).
/// Creating every Ī′ index at registration, not inside the first ticks
/// whose diffs need one, took it to 26.4; the budget is that plus 8 %.
const BUDGET_PER_EVENT: f64 = 28.5;

/// Heap allocations per row of a bulk [`Table::load`] into a reserved
/// table with one secondary index. What is left is per indexed value
/// (its postings list and the value it is filed under) and the index's
/// own growth; a key built per row, as the maps keyed by `Key` did
/// (2.0 per row on this shape, one key for each map), is 20 times this.
const BUDGET_PER_LOADED_ROW: f64 = 0.1;

/// Heap allocations per WAL record that [`Durable::open`] spends
/// replaying a warm all-`Eager` store's tail of five-view cuts of 64,
/// folded into one round: opening the store with its tail less opening
/// it at its checkpoint alone. The parent of the PR that introduced
/// this measurement spent 745.1 on ten records; the budget is that
/// plus 8 %.
const BUDGET_PER_REPLAYED_RECORD: f64 = 805.0;

/// Heap allocations of one [`ViewCatalog::register`] of the multiview
/// suite's `mention_favor` at BSMA scale 0.05 on a catalog with no view
/// yet: materializing the view and its cache, their indexes, and the
/// engine's set-up. The parent of the PR that introduced this
/// measurement spent 2 971; the budget is that plus 8 %.
const BUDGET_PER_REGISTER: u64 = 3_208;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Held by each test for its whole run: the counter is process-wide.
static BRACKET: Mutex<()> = Mutex::new(());

/// `System`, counting every call that hands out a (new or resized)
/// block.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed counter bump that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as the caller vouched for.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const VIEW: &str = "V";
const PRICE_UPDATES: usize = 150;
const LINK_CHURN: usize = 25;

/// One benchmark-shaped round of logged DML.
fn dml_round(
    db: &mut Database,
    cfg: &RunningExample,
    rng: &mut StdRng,
    window: &mut VecDeque<(i64, i64)>,
) {
    for _ in 0..PRICE_UPDATES {
        let pid = rng.gen_range(0..cfg.n_parts) as i64;
        let price: i64 = rng.gen_range(1..1_000);
        db.update_named(
            "parts",
            &Key(vec![Value::Int(pid)]),
            &[("price", Value::Int(price))],
        )
        .unwrap();
    }
    for _ in 0..LINK_CHURN {
        window.push_back(insert_link(db, cfg, rng));
    }
    for _ in 0..LINK_CHURN {
        let (did, pid) = window.pop_front().unwrap();
        db.delete(
            "devices_parts",
            &Key(vec![Value::Int(did), Value::Int(pid)]),
        )
        .unwrap();
    }
}

fn insert_link(db: &mut Database, cfg: &RunningExample, rng: &mut StdRng) -> (i64, i64) {
    loop {
        let did = rng.gen_range(0..cfg.n_devices) as i64;
        let pid = rng.gen_range(0..cfg.n_parts) as i64;
        if db.insert("devices_parts", row![did, pid]).is_ok() {
            return (did, pid);
        }
    }
}

#[test]
fn maintain_allocates_per_changed_row_not_per_step() {
    let _bracket = BRACKET.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = RunningExample {
        n_parts: 2_500,
        n_devices: 2_500,
        seed: 18,
        ..RunningExample::default()
    };
    let mut db = cfg.build().unwrap();
    let mut rng = StdRng::seed_from_u64(0x616c_6c6f_6318);
    // The links the rounds will delete oldest-first, loaded unlogged.
    let mut window = VecDeque::new();
    db.set_logging(false);
    for _ in 0..4 * LINK_CHURN {
        window.push_back(insert_link(&mut db, &cfg, &mut rng));
    }
    db.set_logging(true);

    let plan = cfg.agg_plan(&db).unwrap();
    let ivm = IdIvm::setup(&mut db, VIEW, plan, IvmOptions::default()).unwrap();

    // Warm-up: first-use capacity is a set-up cost, not the steady
    // state being budgeted.
    dml_round(&mut db, &cfg, &mut rng, &mut window);
    ivm.maintain(&mut db).unwrap();

    let (mut allocations, mut diffs, mut accesses) = (0u64, 0u64, 0u64);
    for _ in 0..3 {
        dml_round(&mut db, &cfg, &mut rng, &mut window);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let report = ivm.maintain(&mut db).unwrap();
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        allocations += after - before;
        diffs += report.base_diff_tuples as u64;
        accesses += report.total_accesses();
    }
    assert_eq!(
        sorted(db.table(VIEW).unwrap().rows_uncounted()),
        sorted(recompute_rows(&db, ivm.plan()).unwrap()),
        "the budgeted rounds must still maintain the view correctly"
    );
    assert!(diffs >= 3 * (PRICE_UPDATES as u64) / 2, "rounds were not benchmark-shaped");

    let per_diff = allocations as f64 / diffs as f64;
    println!(
        "alloc_budget: {allocations} allocations over {diffs} base diff tuples in 3 rounds = \
         {per_diff:.1} per diff (budget {BUDGET_PER_DIFF}); {:.1} counted accesses per diff",
        accesses as f64 / diffs as f64
    );
    assert!(
        per_diff <= BUDGET_PER_DIFF,
        "IdIvm::maintain allocated {per_diff:.1} times per base diff tuple, budget {BUDGET_PER_DIFF}"
    );
}

const CUT: usize = 64;
const CUTS: usize = 10;

/// One cut of the benchmark's multiview stream: tweet inserts (one
/// `microblog` row, two `mentions`), deletes of the oldest generated
/// tweet, `microblog` and `users` updates — 40 : 40 : 20 by event.
fn tweet_cut(db: &mut Database, rng: &mut StdRng, next_mid: &mut i64, window: &mut VecDeque<(i64, [i64; 2])>) {
    let n_users = db.table("users").unwrap().len() as i64;
    let start = db.log().len();
    while db.log().len() - start < CUT {
        match rng.gen_range(0..7) {
            0 | 1 => {
                let mid = *next_mid;
                *next_mid += 1;
                let (author, ts, topic) = (
                    rng.gen_range(0..n_users),
                    rng.gen_range(0..1_000_000i64),
                    rng.gen_range(0..50i64),
                );
                db.insert("microblog", row![mid, author, ts, topic]).unwrap();
                let first = rng.gen_range(0..n_users);
                let second = (first + rng.gen_range(1..n_users)) % n_users;
                for uid in [first, second] {
                    db.insert("mentions", row![mid, uid]).unwrap();
                }
                window.push_back((mid, [first, second]));
            }
            2 | 3 => {
                let Some((mid, mentioned)) = window.pop_front() else {
                    continue;
                };
                for uid in mentioned {
                    db.delete("mentions", &Key(vec![Value::Int(mid), Value::Int(uid)]))
                        .unwrap();
                }
                db.delete("microblog", &Key(vec![Value::Int(mid)])).unwrap();
            }
            4 => {
                let mid = rng.gen_range(0..20i64);
                let (ts, topic) = (rng.gen_range(0..1_000_000i64), rng.gen_range(0..50i64));
                db.update_named(
                    "microblog",
                    &Key(vec![Value::Int(mid)]),
                    &[("ts", Value::Int(ts)), ("topic", Value::Int(topic))],
                )
                .unwrap();
            }
            _ => {
                let uid = rng.gen_range(0..n_users);
                let (tweets, favor) = (rng.gen_range(0..500i64), rng.gen_range(0..2_000i64));
                db.update_named(
                    "users",
                    &Key(vec![Value::Int(uid)]),
                    &[("tweetsnum", Value::Int(tweets)), ("favornum", Value::Int(favor))],
                )
                .unwrap();
            }
        }
    }
}

#[test]
fn tick_allocates_per_event_not_per_view() {
    let _bracket = BRACKET.lock().unwrap_or_else(|e| e.into_inner());
    let suite = MultiView {
        bsma: Bsma {
            scale: 0.05,
            seed: 24,
        },
    };
    let mut sched = MaintenanceScheduler::new(suite.build().unwrap(), SchedulerConfig::default());
    for name in VIEW_NAMES {
        let plan = suite.plan(sched.db(), name).unwrap();
        sched
            .register(name, plan, RefreshPolicy::Eager, IvmOptions::default())
            .unwrap();
    }
    let mut rng = StdRng::seed_from_u64(0x616c_6c6f_6324);
    let (mut next_mid, mut window) = (1_000_000i64, VecDeque::new());

    // Warm-up, as above.
    tweet_cut(sched.db_mut(), &mut rng, &mut next_mid, &mut window);
    sched.tick().unwrap();

    let (mut allocations, mut events, mut hits) = (0u64, 0u64, 0u64);
    for _ in 0..CUTS {
        tweet_cut(sched.db_mut(), &mut rng, &mut next_mid, &mut window);
        events += sched.db().log().len() as u64;
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let summary = sched.tick().unwrap();
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        allocations += after - before;
        hits += summary.shared_hits;
        assert_eq!(summary.maintained.len(), VIEW_NAMES.len());
    }
    for name in VIEW_NAMES {
        let plan = sched.catalog().view(name).unwrap().engine().plan();
        assert_eq!(
            sched.catalog().rows(name).unwrap(),
            sorted(recompute_rows(sched.db(), plan).unwrap()),
            "the budgeted ticks must still maintain `{name}` correctly"
        );
    }
    assert_eq!(hits, 3 * CUTS as u64, "the cuts did not share their prefixes");

    let per_event = allocations as f64 / events as f64;
    println!(
        "alloc_budget: {allocations} allocations over {events} events in {CUTS} ticks of five \
         views = {per_event:.1} per event (budget {BUDGET_PER_EVENT})"
    );
    assert!(
        per_event <= BUDGET_PER_EVENT,
        "MaintenanceScheduler::tick allocated {per_event:.1} times per event, budget {BUDGET_PER_EVENT}"
    );
}

/// Journal every round; checkpoint on demand only.
const JOURNALED: DurabilityConfig = DurabilityConfig {
    policy: DurabilityPolicy::Always,
    checkpoint_every_rounds: 0,
};

/// The five views of `suite`, registered `Eager` in a new durable
/// store at `dir`.
fn durable_suite(dir: &Path, suite: &MultiView) -> Durable {
    let (sched, options) = (SchedulerConfig::default(), IvmOptions::default());
    let db = suite.build().unwrap();
    let mut store = Durable::create(dir, db, sched, options, JOURNALED, no_faults()).unwrap();
    for name in VIEW_NAMES {
        let plan = suite.plan(store.db(), name).unwrap();
        store.register(name, plan, RefreshPolicy::Eager).unwrap();
    }
    store
}

fn no_faults() -> Arc<FaultState> {
    Arc::new(FaultState::new(FaultPlan::disabled()))
}

/// A fresh directory under the system's temporary one.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("idivm_alloc_{tag}_{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Copy every file of `from` into a fresh directory tagged `tag`.
fn copy_dir(from: &Path, tag: &str) -> PathBuf {
    let to = temp_dir(tag);
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
    }
    to
}

/// Allocations inside [`Durable::open`] of the store at `dir`, and the
/// store.
fn counted_open(dir: &Path) -> (u64, Durable) {
    let (sched, options) = (SchedulerConfig::default(), IvmOptions::default());
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let store = Durable::open(dir, sched, options, JOURNALED, no_faults(), None).unwrap();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, store)
}

#[test]
fn folded_replay_allocates_per_record_not_per_round() {
    let _bracket = BRACKET.lock().unwrap_or_else(|e| e.into_inner());
    let suite = MultiView {
        bsma: Bsma {
            scale: 0.05,
            seed: 24,
        },
    };
    let dir = temp_dir("live");
    let mut store = durable_suite(&dir, &suite);
    let mut rng = StdRng::seed_from_u64(0x616c_6c6f_6325);
    let (mut next_mid, mut window) = (1_000_000i64, VecDeque::new());
    // Warm-up, as above, ending on the checkpoint replay starts from.
    for _ in 0..3 {
        tweet_cut(store.db_mut(), &mut rng, &mut next_mid, &mut window);
        store.tick().unwrap();
    }
    store.checkpoint().unwrap();
    let at_checkpoint = copy_dir(&dir, "checkpoint");
    for _ in 0..CUTS {
        tweet_cut(store.db_mut(), &mut rng, &mut next_mid, &mut window);
        store.tick().unwrap();
    }
    let live = store.signature();
    store.close().unwrap();

    let (base, _) = counted_open(&at_checkpoint);
    let (allocations, recovered) = counted_open(&dir);
    let note = recovered.recovered_from().unwrap();
    assert!(note.ends_with(&format!("+ {CUTS} wal record(s)")), "note: {note}");
    assert!(recovered.signature() == live, "replay must end in the live store's state");
    for name in VIEW_NAMES {
        let rounds = recovered.scheduler().stats(name).unwrap().rounds;
        assert_eq!(rounds, 1, "`{name}` must replay the tail as one round");
    }
    drop(recovered);
    for d in [dir, at_checkpoint] {
        std::fs::remove_dir_all(d).unwrap();
    }

    let per_record = (allocations - base) as f64 / CUTS as f64;
    println!(
        "alloc_budget: {allocations} allocations opening a store with {CUTS} wal records, \
         {base} at its checkpoint alone = {per_record:.1} per record \
         (budget {BUDGET_PER_REPLAYED_RECORD})"
    );
    assert!(
        per_record <= BUDGET_PER_REPLAYED_RECORD,
        "Durable::open allocated {per_record:.1} times per replayed record, \
         budget {BUDGET_PER_REPLAYED_RECORD}"
    );
}

const LOADED_ROWS: i64 = 8_192;
const GROUPS: i64 = 16;

#[test]
fn load_allocates_per_indexed_value_not_per_row() {
    let _bracket = BRACKET.lock().unwrap_or_else(|e| e.into_inner());
    let schema = Schema::from_pairs(
        &[
            ("id", ColumnType::Int),
            ("grp", ColumnType::Int),
            ("name", ColumnType::Str),
        ],
        &["id"],
    )
    .unwrap();
    let mut t = Table::new("loaded", schema, AccessStats::new());
    t.create_index(&["grp"]).unwrap();
    t.reserve(LOADED_ROWS as usize);
    let rows: Vec<Row> = (0..LOADED_ROWS)
        .map(|id| row![id, id % GROUPS, format!("row {id}")])
        .collect();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for r in rows {
        t.load(r).unwrap();
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(t.len(), LOADED_ROWS as usize);
    assert_eq!(
        t.lookup(&[1], &[Value::Int(3)]).len(),
        (LOADED_ROWS / GROUPS) as usize
    );
    let per_row = allocations as f64 / LOADED_ROWS as f64;
    println!(
        "alloc_budget: {allocations} allocations loading {LOADED_ROWS} rows over {GROUPS} \
         indexed values = {per_row:.3} per row (budget {BUDGET_PER_LOADED_ROW})"
    );
    assert!(
        per_row <= BUDGET_PER_LOADED_ROW,
        "Table::load allocated {per_row:.3} times per row, budget {BUDGET_PER_LOADED_ROW}"
    );
}

#[test]
fn register_allocates_within_budget() {
    let _bracket = BRACKET.lock().unwrap_or_else(|e| e.into_inner());
    let suite = MultiView {
        bsma: Bsma {
            scale: 0.05,
            seed: 24,
        },
    };
    let db = suite.build().unwrap();
    let plan = suite.plan(&db, "mention_favor").unwrap();
    let mut catalog = ViewCatalog::new(db);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    catalog
        .register("mention_favor", plan, IvmOptions::default())
        .unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let view = catalog.view("mention_favor").unwrap();
    assert!(!view.engine().caches().is_empty(), "the view lost its cache");
    let rows = catalog.rows("mention_favor").unwrap();
    assert_eq!(rows, sorted(recompute_rows(catalog.db(), view.engine().plan()).unwrap()));
    println!(
        "alloc_budget: {allocations} allocations registering `mention_favor` ({} rows; budget \
         {BUDGET_PER_REGISTER})",
        rows.len()
    );
    assert!(
        allocations <= BUDGET_PER_REGISTER,
        "ViewCatalog::register allocated {allocations} times, budget {BUDGET_PER_REGISTER}"
    );
}
