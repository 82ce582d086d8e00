//! Ī′ indexes. APPLY locates its update and delete targets through an
//! index on the i-diff's IDs (paper Section 2). Set-up creates one for
//! every set `core::cache::apply_id_sets` names — the IDs by which the
//! rules can bring a view or cache an update or a delete — and APPLY
//! creates none. A table's index set is part of its signature and of
//! the checkpoint, so it follows the catalog alone, not which diffs
//! have arrived. The sets are pinned here for the benchmark's view
//! families and held against the indexes the tables carry while they
//! are maintained.

use idivm_repro::algebra::Plan;
use idivm_repro::catalog::{MaintenanceScheduler, RefreshPolicy, SchedulerConfig};
use idivm_repro::core::access::node_at;
use idivm_repro::core::cache::apply_id_sets;
use idivm_repro::core::{IdIvm, IvmOptions};
use idivm_repro::reldb::Database;
use idivm_repro::types::{row, Key, Value};
use idivm_repro::workloads::bsma::Bsma;
use idivm_repro::workloads::multiview::VIEW_NAMES;
use idivm_repro::workloads::{MultiView, RunningExample, Tpch};
use std::collections::BTreeMap;

/// Table → the index sets it carries.
type Indexes = BTreeMap<String, Vec<Vec<usize>>>;

fn suite() -> MultiView {
    MultiView {
        bsma: Bsma {
            scale: 0.02,
            seed: 424242,
        },
    }
}

/// The multi-view suite's five views, Figure 12's aggregate view and
/// the two TPC-H views, each family over its own database.
fn families() -> Vec<(Database, Vec<(String, Plan)>)> {
    let cfg = suite();
    let db = cfg.build().unwrap();
    let multiview = VIEW_NAMES
        .iter()
        .map(|name| (name.to_string(), cfg.plan(&db, name).unwrap()))
        .collect();
    let fig12 = RunningExample::default();
    let fig12_db = fig12.build().unwrap();
    let agg = vec![("agg".to_string(), fig12.agg_plan(&fig12_db).unwrap())];
    let tpch = Tpch::default();
    let tpch_db = tpch.build().unwrap();
    let tpch_views = vec![
        (
            "extremes".to_string(),
            tpch.extremes_plan(&tpch_db).unwrap(),
        ),
        ("loj".to_string(), tpch.loj_plan(&tpch_db).unwrap()),
    ];
    vec![(db, multiview), (fig12_db, agg), (tpch_db, tpch_views)]
}

/// The view's and each cache's Ī′ sets, by table.
fn id_sets(ivm: &IdIvm) -> Indexes {
    let minimize = ivm.options().minimize;
    ivm.cache_map()
        .iter()
        .map(|(path, table)| {
            let node = node_at(ivm.plan(), path).unwrap();
            (
                table.clone(),
                apply_id_sets(node, ivm.schemas(), minimize).unwrap(),
            )
        })
        .collect()
}

/// The secondary indexes of the view and each cache, by table.
fn indexes(db: &Database, ivm: &IdIvm) -> Indexes {
    ivm.cache_map()
        .values()
        .map(|table| (table.clone(), db.table(table).unwrap().index_positions()))
        .collect()
}

#[test]
fn multiview_id_sets_are_pinned() {
    let mut lines = Vec::new();
    for (mut db, views) in families() {
        for (name, plan) in views {
            let ivm = IdIvm::setup(&mut db, &name, plan, IvmOptions::default()).unwrap();
            let carried = indexes(&db, &ivm);
            for (table, sets) in id_sets(&ivm) {
                let key = db.table(&table).unwrap().schema().key().to_vec();
                for set in sets.iter().filter(|s| **s != key) {
                    assert!(carried[&table].contains(set), "`{table}` lacks {set:?}");
                }
                lines.push(format!("{table} {sets:?}"));
            }
        }
    }
    assert_eq!(
        lines,
        [
            "mention_favor [[0]]",
            "mention_favor#cache_0 [[0, 1], [0, 1, 2], [2], [6]]",
            "mention_reach [[0, 1], [0, 1, 3], [3], [4]]",
            "mention_timeline [[0, 1], [0, 1, 3], [3]]",
            "mention_topic_counts [[0]]",
            "mention_topic_counts#cache_0 [[0, 1], [0, 1, 2], [2]]",
            "mention_users [[0, 1], [0, 1, 4], [4], [5]]",
            // Both join conditions are on key columns: no update or
            // delete comes keyed by parts ⋈ devices_parts's IDs.
            "agg [[0]]",
            "agg#cache_0 [[0], [0, 2, 3, 4], [2, 3], [4]]",
            "extremes [[0]]",
            "extremes#cache_0 [[0], [3, 4]]",
            "loj [[0], [0, 3], [3]]",
        ]
    );
}

/// The eleven indexes APPLY created lazily in each repetition of the
/// benchmark's `firehose-multiview` and `durable-multiview` at seed 7,
/// when it still created them. Registration now does.
const MULTIVIEW_LAZY: [(&str, &[usize]); 11] = [
    ("mention_favor#cache_0", &[0, 1, 2]),
    ("mention_reach", &[0, 1]),
    ("mention_reach", &[0, 1, 3]),
    ("mention_reach", &[3]),
    ("mention_reach", &[4]),
    ("mention_timeline", &[0, 1]),
    ("mention_timeline", &[3]),
    ("mention_users", &[0, 1]),
    ("mention_users", &[0, 1, 4]),
    ("mention_users", &[4]),
    ("mention_users", &[5]),
];

#[test]
fn multiview_id_sets_cover_the_benchmarks_lazy_indexes() {
    let cfg = suite();
    let mut db = cfg.build().unwrap();
    for name in VIEW_NAMES {
        let plan = cfg.plan(&db, name).unwrap();
        IdIvm::setup(&mut db, name, plan, IvmOptions::default()).unwrap();
    }
    for (table, set) in MULTIVIEW_LAZY {
        assert!(db.table(table).unwrap().has_index(set), "`{table}` {set:?}");
    }
}

/// Register `views` on `db` under one scheduler, run `rounds` rounds
/// of `dml`, and return how many indexes the views and caches gained.
fn indexes_apply_creates(
    db: Database,
    views: Vec<(String, Plan)>,
    rounds: u64,
    dml: impl Fn(&mut Database, u64),
) -> usize {
    let mut sched = MaintenanceScheduler::new(db, SchedulerConfig::default());
    for (name, plan) in views {
        sched
            .register(&name, plan, RefreshPolicy::Eager, IvmOptions::default())
            .unwrap();
    }
    let all = |sched: &MaintenanceScheduler| -> Vec<Indexes> {
        let catalog = sched.catalog();
        let names = catalog.names();
        names
            .iter()
            .map(|name| indexes(sched.db(), catalog.view(name).unwrap().engine()))
            .collect()
    };
    let before = all(&sched);
    for round in 1..=rounds {
        dml(sched.db_mut(), round);
        sched.tick().unwrap();
    }
    let mut created = 0;
    for (was, now) in before.iter().zip(all(&sched)) {
        for (table, now) in now {
            created += now.iter().filter(|s| !was[&table].contains(s)).count();
        }
    }
    created
}

#[test]
fn every_index_apply_creates_is_an_id_set() {
    // The multi-view suite: tweets, their mentions, edits, deletes.
    let cfg = suite();
    let db = cfg.build().unwrap();
    let views = VIEW_NAMES
        .iter()
        .map(|name| (name.to_string(), cfg.plan(&db, name).unwrap()))
        .collect();
    let created = indexes_apply_creates(db, views, 4, |db, round| {
        cfg.tweet_batch(db, 24, round).unwrap();
        let mid = Value::Int(1_000_000 + (round as i64 - 1) * 100_000);
        for mention in db
            .table("mentions")
            .unwrap()
            .lookup(&[0], std::slice::from_ref(&mid))
        {
            db.delete("mentions", &Key(mention.0.to_vec())).unwrap();
        }
        let _ = db.delete("microblog", &Key(vec![mid]));
    });
    assert_eq!(created, 0);

    // Figure 12's aggregate view: price updates and link inserts.
    let cfg = RunningExample::default();
    let db = cfg.build().unwrap();
    let views = vec![("agg".to_string(), cfg.agg_plan(&db).unwrap())];
    let created = indexes_apply_creates(db, views, 4, |db, round| {
        cfg.price_update_batch(db, 30, round).unwrap();
        cfg.link_insert_batch(db, 10, round).unwrap();
    });
    assert_eq!(created, 0);

    // The TPC-H views: line-item and order churn.
    let cfg = Tpch::default();
    let db = cfg.build().unwrap();
    let views = vec![
        ("extremes".to_string(), cfg.extremes_plan(&db).unwrap()),
        ("loj".to_string(), cfg.loj_plan(&db).unwrap()),
    ];
    let created = indexes_apply_creates(db, views, 4, |db, round| {
        cfg.lineitem_churn_batch(db, 16, round).unwrap();
        cfg.order_churn_batch(db, 8, round).unwrap();
    });
    assert_eq!(created, 0);
}

/// Two stores with equal rows carry equal indexes: the same views over
/// equal data, one after a round that inserts a tweet with a mention
/// and a round that deletes both, the other after no round at all.
#[test]
fn equal_rows_have_equal_signatures_whatever_the_diffs_were() {
    let cfg = suite();
    let scheduler = || {
        let db = cfg.build().unwrap();
        let mut sched = MaintenanceScheduler::new(db, SchedulerConfig::default());
        for name in VIEW_NAMES {
            let plan = cfg.plan(sched.db(), name).unwrap();
            sched
                .register(name, plan, RefreshPolicy::Eager, IvmOptions::default())
                .unwrap();
        }
        sched
    };
    let (mut churned, still) = (scheduler(), scheduler());
    let mid = 9_000_001i64;
    let db = churned.db_mut();
    db.insert("microblog", row![mid, 3, 500, 7]).unwrap();
    db.insert("mentions", row![mid, 2]).unwrap();
    churned.tick().unwrap();
    let db = churned.db_mut();
    db.delete("mentions", &Key(vec![Value::Int(mid), Value::Int(2)]))
        .unwrap();
    db.delete("microblog", &Key(vec![Value::Int(mid)])).unwrap();
    churned.tick().unwrap();
    let (churned, still) = (churned.db().signature(), still.db().signature());
    let mut differ: Vec<&String> = churned
        .keys()
        .filter(|t| churned[*t] != still[*t])
        .collect();
    differ.sort();
    assert_eq!(
        differ,
        Vec::<&String>::new(),
        "tables whose signatures differ"
    );
}
