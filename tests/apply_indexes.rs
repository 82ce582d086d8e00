//! Ī′ indexes. APPLY locates its targets through an index on the
//! i-diff's IDs (paper Section 2) and creates a missing one the first
//! time a diff needs it. `core::cache::apply_id_sets` names, from Pass
//! 1's ID provenance alone, every set a diff can bring each view and
//! cache. Recovery folds a WAL tail into one round only once every
//! table carries all of them (`IdIvm::has_every_id_index`): a table's
//! index set is part of its signature. So the sets must cover what
//! APPLY creates. They are pinned here for the multi-view suite and
//! held against the indexes APPLY creates while the three benchmark
//! view families are maintained.

use idivm_repro::algebra::Plan;
use idivm_repro::catalog::{MaintenanceScheduler, RefreshPolicy, SchedulerConfig};
use idivm_repro::core::access::node_at;
use idivm_repro::core::cache::apply_id_sets;
use idivm_repro::core::{IdIvm, IvmOptions};
use idivm_repro::reldb::Database;
use idivm_repro::types::{Key, Value};
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

/// The view's and each cache's Ī′ sets, by table.
fn id_sets(ivm: &IdIvm) -> Indexes {
    ivm.cache_map()
        .iter()
        .map(|(path, table)| {
            let sets = apply_id_sets(node_at(ivm.plan(), path).unwrap()).unwrap();
            (table.clone(), sets)
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
    let cfg = suite();
    let mut db = cfg.build().unwrap();
    let mut lines = Vec::new();
    for name in VIEW_NAMES {
        let plan = cfg.plan(&db, name).unwrap();
        let ivm = IdIvm::setup(&mut db, name, plan, IvmOptions::default()).unwrap();
        for (table, sets) in id_sets(&ivm) {
            lines.push(format!("{table} {sets:?}"));
        }
    }
    assert_eq!(
        lines,
        [
            "mention_favor [[0]]",
            "mention_favor#cache_0 [[0, 1], [0, 1, 2], [0, 1, 2, 6], [2], [6]]",
            "mention_reach [[0, 1], [0, 1, 3], [0, 1, 3, 4], [3], [4]]",
            "mention_timeline [[0, 1], [0, 1, 3], [3]]",
            "mention_topic_counts [[0]]",
            "mention_topic_counts#cache_0 [[0, 1], [0, 1, 2], [2]]",
            "mention_users [[0, 1], [0, 1, 4], [0, 1, 4, 5], [4], [5]]",
        ]
    );
}

/// The eleven indexes APPLY creates lazily in each repetition of the
/// benchmark's `firehose-multiview` and `durable-multiview` at seed 7.
/// On `engine-fig12` and `mixed-tpch-reads` it creates none.
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
    let mut sets = Indexes::new();
    for name in VIEW_NAMES {
        let plan = cfg.plan(&db, name).unwrap();
        sets.extend(id_sets(
            &IdIvm::setup(&mut db, name, plan, IvmOptions::default()).unwrap(),
        ));
    }
    for (table, set) in MULTIVIEW_LAZY {
        assert!(sets[table].iter().any(|s| s == set), "`{table}` {set:?}");
    }
}

/// Register `views` on `db` under one scheduler, run `rounds` rounds
/// of `dml`, and check that every index APPLY created on a view or a
/// cache is one of its Ī′ sets. Returns how many it created.
fn lazy_indexes_are_id_sets(
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
    let engines = |sched: &MaintenanceScheduler| -> Vec<(Indexes, Indexes)> {
        let catalog = sched.catalog();
        let names = catalog.names();
        names
            .iter()
            .map(|name| {
                let ivm = catalog.view(name).unwrap().engine();
                (indexes(sched.db(), ivm), id_sets(ivm))
            })
            .collect()
    };
    let before = engines(&sched);
    for round in 1..=rounds {
        dml(sched.db_mut(), round);
        sched.tick().unwrap();
    }
    let mut created = 0;
    for ((was, _), (now, sets)) in before.iter().zip(engines(&sched)) {
        for (table, now) in now {
            for set in now.iter().filter(|s| !was[&table].contains(s)) {
                assert!(sets[&table].contains(set), "`{table}` gained {set:?}");
                created += 1;
            }
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
    let created = lazy_indexes_are_id_sets(db, views, 4, |db, round| {
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
    // Nine of the benchmark's eleven at this scale.
    assert_eq!(created, 9);

    // Figure 12's aggregate view: price updates and link inserts.
    let cfg = RunningExample::default();
    let db = cfg.build().unwrap();
    let views = vec![("agg".to_string(), cfg.agg_plan(&db).unwrap())];
    let created = lazy_indexes_are_id_sets(db, views, 4, |db, round| {
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
    let created = lazy_indexes_are_id_sets(db, views, 4, |db, round| {
        cfg.lineitem_churn_batch(db, 16, round).unwrap();
        cfg.order_churn_batch(db, 8, round).unwrap();
    });
    assert_eq!(created, 1);
}
