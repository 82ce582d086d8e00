//! Cross-layer read differential: whatever happened to a view's table,
//! and whoever did it, `read_view` / `ViewCatalog::rows` return exactly
//! `sorted(table.rows_uncounted())`.
//!
//! Reads are served from per-view sorted snapshots that clean rounds
//! bring forward by their own Δ. The snapshot is only ever allowed to
//! stand in for the table when the table's mutation version says
//! nothing else wrote — so the suite drives every writer there is, in
//! seeded random order, and compares after every step:
//!
//! * random DML rounds (MIN/MAX-holder deletions, LOJ padding churn,
//!   group-moving topic updates, base-row deletions) under Eager,
//!   Deferred and OnRead policies, with `tick` / `read_view` / `drain`
//!   interleaved;
//! * rounds aborted by a `FaultPlan` and retried by the supervisor, and
//!   supervised rounds that escalate to a full recompute;
//! * `force_promote` / `force_demote` rewiring between reads;
//! * a write straight into a view's table behind the catalog's back;
//! * a `Durable` store dropped and reopened.
//!
//! A check settles the snapshot it looks at, so each step checks a
//! random half of the views: the other half goes on accumulating
//! rounds, which is what makes rows come and go *between* two reads of
//! one view. Once drained, every read also equals the recompute oracle.

use idivm_repro::algebra::ensure_ids;
use idivm_repro::catalog::{MaintenanceScheduler, RefreshPolicy, SchedulerConfig};
use idivm_repro::core::{
    EngineConfig, FaultPlan, FaultSite, FaultState, IvmOptions, SupervisorVerdict,
};
use idivm_repro::durability::{DurabilityConfig, Durable};
use idivm_repro::exec::{executor::sorted, recompute_rows};
use idivm_repro::reldb::Database;
use idivm_repro::types::{Key, Row, Value};
use idivm_repro::workloads::bsma::Bsma;
use idivm_repro::workloads::multiview::VIEW_NAMES;
use idivm_repro::workloads::{MultiView, Tpch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const SEEDS: [u64; 3] = [7, 2015, 424242];
const STEPS: usize = 60;
const DEEP: &str = "join[mentions,microblog,users]";

fn table_rows(db: &Database, name: &str) -> Vec<Row> {
    sorted(db.table(name).unwrap().rows_uncounted())
}

/// The snapshot path without a barrier, against the table as it is.
fn assert_rows_are_the_table(sched: &MaintenanceScheduler, name: &str, context: &str) {
    assert_eq!(
        sched.catalog().rows(name).unwrap(),
        table_rows(sched.db(), name),
        "{context}: `{name}` read differs from its table"
    );
}

/// The read barrier: maintained first, then the same comparison.
fn assert_read_is_the_table(sched: &mut MaintenanceScheduler, name: &str, context: &str) {
    let rows = sched.read_view(name).unwrap();
    assert_eq!(
        rows,
        table_rows(sched.db(), name),
        "{context}: `read_view({name})` differs from its table"
    );
}

fn assert_matches_oracle(sched: &MaintenanceScheduler, name: &str, context: &str) {
    let plan = ensure_ids(sched.catalog().view(name).unwrap().source_plan().clone()).unwrap();
    assert_eq!(
        sched.catalog().rows(name).unwrap(),
        sorted(recompute_rows(sched.db(), &plan).unwrap()),
        "{context}: drained `{name}` differs from the recompute oracle"
    );
}

fn set_faults(sched: &mut MaintenanceScheduler, name: &str, plan: FaultPlan) {
    sched
        .catalog_mut()
        .view_mut(name)
        .unwrap()
        .engine_mut()
        .set_faults(plan);
}

/// Delete up to `n` random `deletable` rows of a base table through
/// the logged path.
fn delete_some(
    db: &mut Database,
    table: &str,
    n: usize,
    rng: &mut StdRng,
    deletable: fn(&Row) -> bool,
) {
    let key_cols = db.table(table).unwrap().schema().key().to_vec();
    for _ in 0..n {
        let mut rows = table_rows(db, table);
        rows.retain(deletable);
        if rows.is_empty() {
            return;
        }
        let victim = rows[rng.gen_range(0..rows.len())].key(&key_cols);
        db.delete(table, &victim).unwrap();
    }
}

#[derive(Default)]
struct Seen {
    aborted: u64,
    recomputed: u64,
    rewired: u64,
}

/// `STEPS` random steps over `views`, comparing after each one; then a
/// drain and the oracle. `dml(db, rng, round)` applies one logged round
/// of base-table changes; `promotable` turns the promotion step on.
fn drive(
    mut sched: MaintenanceScheduler,
    views: &[&str],
    seed: u64,
    promotable: bool,
    mut dml: impl FnMut(&mut Database, &mut StdRng, u64),
) -> Seen {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = Seen::default();
    let mut round = 0u64;
    for step in 0..STEPS {
        let view = views[rng.gen_range(0..views.len())];
        let context = format!("seed {seed} step {step}");
        match rng.gen_range(0..10) {
            0..=2 => {
                round += 1;
                dml(sched.db_mut(), &mut rng, round);
                sched.tick().unwrap();
            }
            3 => {
                sched.tick().unwrap();
            }
            4 => assert_read_is_the_table(&mut sched, view, &context),
            5 => {
                sched.drain().unwrap();
            }
            6 => {
                // The first attempt fails somewhere in the round (at an
                // APPLY, or at an access checkpoint before or after the
                // view was written) and is rolled back; the
                // supervisor's retry commits the round.
                let plan = match rng.gen_range(0..3) {
                    0 => FaultPlan::at(FaultSite::Apply, 1, seed),
                    1 => FaultPlan::at(FaultSite::Apply, 2, seed),
                    _ => FaultPlan::at(FaultSite::Access, rng.gen_range(1..150), seed),
                };
                set_faults(&mut sched, view, plan.healing_after(1));
                let before = sched.stats(view).unwrap().supervised_rounds;
                round += 1;
                dml(sched.db_mut(), &mut rng, round);
                sched.tick().unwrap();
                assert_read_is_the_table(&mut sched, view, &context);
                seen.aborted += sched.stats(view).unwrap().supervised_rounds - before;
                set_faults(&mut sched, view, FaultPlan::disabled());
            }
            7 => {
                // Nothing commits incrementally: the supervisor
                // escalates to a recompute that rewrites the table.
                set_faults(
                    &mut sched,
                    view,
                    FaultPlan::at(FaultSite::Operator, 1, seed).permanent(),
                );
                let before = sched.stats(view).unwrap().supervised_rounds;
                round += 1;
                dml(sched.db_mut(), &mut rng, round);
                sched.tick().unwrap();
                assert_read_is_the_table(&mut sched, view, &context);
                let stats = sched.stats(view).unwrap();
                if stats.supervised_rounds > before {
                    assert_eq!(stats.last_verdict, Some(SupervisorVerdict::Recomputed));
                    seen.recomputed += 1;
                }
                set_faults(&mut sched, view, FaultPlan::disabled());
            }
            8 if promotable => {
                let promoted = sched.intermediates();
                match promoted.first() {
                    Some(backing) => sched.force_demote(backing).unwrap(),
                    None => {
                        sched.force_promote(DEEP).unwrap();
                    }
                }
                seen.rewired += 1;
            }
            _ => {
                // Behind the catalog's back: take a row out of the
                // view's own table, look, put it back, look again.
                let Some(row) = table_rows(sched.db(), view).into_iter().next() else {
                    continue;
                };
                let table = sched.db_mut().table_mut(view).unwrap();
                let pk = table.pk_of(&row);
                table.delete_located(&pk).unwrap();
                for name in views {
                    assert_rows_are_the_table(&sched, name, &format!("{context} (row removed)"));
                }
                sched.db_mut().table_mut(view).unwrap().load(row).unwrap();
                assert_rows_are_the_table(&sched, view, &format!("{context} (row restored)"));
            }
        }
        for name in views {
            if rng.gen_range(0..2) == 0 {
                assert_rows_are_the_table(&sched, name, &context);
            }
        }
    }
    sched.drain().unwrap();
    for name in views {
        assert_read_is_the_table(&mut sched, name, &format!("seed {seed} drained"));
        assert_matches_oracle(&sched, name, &format!("seed {seed} drained"));
    }
    seen
}

fn tpch() -> Tpch {
    Tpch {
        n_customers: 60,
        orders_per_customer: 2,
        lineitems_per_order: 3,
        extremum_pct: 40,
        seed: 21,
    }
}

fn tpch_scheduler(cfg: &Tpch) -> MaintenanceScheduler {
    let mut sched = MaintenanceScheduler::new(cfg.build().unwrap(), SchedulerConfig::default());
    let policies = [
        ("extremes", RefreshPolicy::Eager),
        ("extremes_lazy", RefreshPolicy::OnRead),
        (
            "loj",
            RefreshPolicy::Deferred {
                max_staleness_rounds: 4,
            },
        ),
    ];
    for (name, policy) in policies {
        let plan = match name {
            "loj" => cfg.loj_plan(sched.db()),
            _ => cfg.extremes_plan(sched.db()),
        };
        sched
            .register(name, plan.unwrap(), policy, IvmOptions::default())
            .unwrap();
    }
    sched
}

#[test]
fn tpch_three_policies_read_their_tables_through_every_writer() {
    let cfg = tpch();
    let mut seen = Seen::default();
    for seed in SEEDS {
        let s = drive(
            tpch_scheduler(&cfg),
            &["extremes", "extremes_lazy", "loj"],
            seed,
            false,
            |db, rng, round| {
                // MIN/MAX holders deleted or priced out of their group,
                // orders appearing and disappearing under the LOJ.
                cfg.lineitem_churn_batch(db, 6, seed ^ round).unwrap();
                cfg.order_churn_batch(db, 4, seed ^ round).unwrap();
                delete_some(db, "lineitem", rng.gen_range(0..3), rng, |_| true);
            },
        );
        seen.aborted += s.aborted;
        seen.recomputed += s.recomputed;
    }
    assert!(seen.aborted > 0, "no fault-aborted round was ever retried");
    assert!(
        seen.recomputed > 0,
        "no supervised round ever escalated to recompute"
    );
}

fn multiview() -> MultiView {
    MultiView {
        bsma: Bsma {
            scale: 0.02,
            seed: 424242,
        },
    }
}

fn multiview_policy(name: &str) -> RefreshPolicy {
    match name {
        "mention_reach" => RefreshPolicy::Deferred {
            max_staleness_rounds: 3,
        },
        "mention_topic_counts" => RefreshPolicy::OnRead,
        _ => RefreshPolicy::Eager,
    }
}

/// Tweets with their mention edges, timestamp/topic updates (which move
/// rows between `mention_topic_counts` groups), user updates, and
/// deletions of mention edges and of streamed tweets (the seed tweets
/// and the users stay: `tweet_batch` updates them by id).
fn multiview_round(cfg: &MultiView, db: &mut Database, rng: &mut StdRng, round: u64) {
    cfg.tweet_batch(db, 12, round).unwrap();
    delete_some(db, "mentions", rng.gen_range(0..4), rng, |_| true);
    delete_some(db, "microblog", rng.gen_range(0..3), rng, |tweet| {
        tweet[0] >= Value::Int(1_000_000)
    });
}

#[test]
fn multiview_reads_their_tables_through_every_writer_and_rewiring() {
    let cfg = multiview();
    let mut seen = Seen::default();
    for seed in SEEDS {
        let mut sched = MaintenanceScheduler::new(cfg.build().unwrap(), SchedulerConfig::default());
        for name in VIEW_NAMES {
            let plan = cfg.plan(sched.db(), name).unwrap();
            sched
                .register(name, plan, multiview_policy(name), IvmOptions::default())
                .unwrap();
        }
        // Rounds are numbered per seed: tweet ids are a function of the
        // round number and must not repeat within one database.
        let s = drive(sched, &VIEW_NAMES, seed, true, |db, rng, round| {
            multiview_round(&cfg, db, rng, round)
        });
        seen.aborted += s.aborted;
        seen.recomputed += s.recomputed;
        seen.rewired += s.rewired;
    }
    assert!(seen.aborted > 0, "no fault-aborted round was ever retried");
    assert!(
        seen.recomputed > 0,
        "no supervised round ever escalated to recompute"
    );
    assert!(seen.rewired > 0, "no promotion or demotion ever ran");
}

/// A row inserted in one round and deleted in a later one, with no read
/// in between, must cancel inside the snapshot: the read after it is a
/// hit that merged both images, not a rebuild.
#[test]
fn row_that_comes_and_goes_between_two_reads_is_settled_not_rebuilt() {
    let cfg = tpch();
    let mut sched = tpch_scheduler(&cfg);
    sched.set_policy("loj", RefreshPolicy::Eager).unwrap();
    let before = sched.read_view("loj").unwrap();
    let custkey = table_rows(sched.db(), "orders")[0][1].clone();
    let order = Key(vec![Value::Int(9_000_000)]);
    sched
        .db_mut()
        .insert(
            "orders",
            Row::new(vec![order.0[0].clone(), custkey, Value::str("O")]),
        )
        .unwrap();
    sched.tick().unwrap();
    assert_ne!(
        table_rows(sched.db(), "loj"),
        before,
        "the order never reached the view"
    );
    sched.db_mut().delete("orders", &order).unwrap();
    sched.tick().unwrap();
    assert_eq!(sched.read_view("loj").unwrap(), before);
    let stats = sched.stats("loj").unwrap();
    assert_eq!(
        (
            stats.reads,
            stats.snapshot_rebuilds,
            stats.snapshot_hits,
            stats.rows_merged
        ),
        (2, 1, 1, 2),
        "the insert/delete pair across two rounds did not cancel in the snapshot"
    );
}

#[test]
fn reopened_durable_store_reads_its_tables() {
    let cfg = multiview();
    let dir = std::env::temp_dir().join(format!("idivm_read_path_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let faults = || Arc::new(FaultState::new(FaultPlan::disabled()));
    let mut store = Durable::create(
        &dir,
        cfg.build().unwrap(),
        SchedulerConfig::default(),
        IvmOptions::default(),
        DurabilityConfig::default(),
        faults(),
    )
    .unwrap();
    for name in VIEW_NAMES {
        let plan = cfg.plan(store.db(), name).unwrap();
        store.register(name, plan, multiview_policy(name)).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(SEEDS[0]);
    let check = |store: &mut Durable, context: &str| {
        for name in VIEW_NAMES {
            let rows = store.read_view(name).unwrap();
            assert_eq!(rows, table_rows(store.db(), name), "{context}: `{name}`");
        }
    };
    for round in 1..=6 {
        multiview_round(&cfg, store.db_mut(), &mut rng, round);
        store.tick().unwrap();
        if round % 2 == 0 {
            check(&mut store, &format!("round {round}"));
        }
    }
    // Pending Deferred/OnRead nets and un-ticked DML cross the restart.
    multiview_round(&cfg, store.db_mut(), &mut rng, 7);
    store.tick().unwrap();
    drop(store);
    let mut store = Durable::open(
        &dir,
        SchedulerConfig::default(),
        IvmOptions::default(),
        DurabilityConfig::default(),
        faults(),
        None,
    )
    .unwrap();
    // No snapshot crosses the restart; replayed `read_view` rounds and
    // the reads below build their own over the recovered tables.
    check(&mut store, "reopened");
    multiview_round(&cfg, store.db_mut(), &mut rng, 8);
    store.tick().unwrap();
    check(&mut store, "reopened, next round");
    for name in VIEW_NAMES {
        assert_matches_oracle(store.scheduler(), name, "reopened, drained");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The version check on its own: a row taken out of the view's table
/// by someone who is not the engine is gone from the very next read.
#[test]
fn direct_write_is_visible_to_the_very_next_read() {
    let cfg = tpch();
    let mut sched = tpch_scheduler(&cfg);
    let before = sched.read_view("extremes").unwrap();
    let table = sched.db_mut().table_mut("extremes").unwrap();
    let pk = table.pk_of(&before[0]);
    table.delete_located(&pk).unwrap();
    assert_eq!(
        sched.read_view("extremes").unwrap(),
        before[1..],
        "the read served the stale snapshot"
    );
    assert_eq!(sched.stats("extremes").unwrap().snapshot_rebuilds, 2);
}
