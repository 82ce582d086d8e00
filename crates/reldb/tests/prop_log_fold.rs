//! Property test: folding the modification log into effective net
//! changes is equivalent to replaying the log — for any random DML
//! sequence, `pre_state ∘ NetChanges ≡ post_state`, and the pre-state
//! overlay reconstructs exactly the state before the batch.

use idivm_reldb::{Database, NetChange, PreState};
use idivm_types::{row, ColumnType, Key, Row, Schema, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
enum Op {
    Insert(u8, i64),
    Delete(u8),
    Update(u8, i64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..16, -50i64..50).prop_map(|(k, v)| Op::Insert(k, v)),
        (0u8..16).prop_map(Op::Delete),
        (0u8..16, -50i64..50).prop_map(|(k, v)| Op::Update(k, v)),
    ]
}

fn db_with(initial: &[(u8, i64)]) -> Database {
    let mut db = Database::new();
    db.set_logging(false);
    db.create_table(
        "t",
        Schema::from_pairs(
            &[("id", ColumnType::Int), ("v", ColumnType::Int)],
            &["id"],
        )
        .unwrap(),
    )
    .unwrap();
    for (k, v) in initial {
        let _ = db.insert("t", row![*k as i64, *v]);
    }
    db.set_logging(true);
    db
}

fn apply_op(db: &mut Database, o: &Op) {
    match o {
        Op::Insert(k, v) => {
            let _ = db.insert("t", row![*k as i64, *v]);
        }
        Op::Delete(k) => {
            let _ = db.delete("t", &Key(vec![Value::Int(*k as i64)]));
        }
        Op::Update(k, v) => {
            let _ = db.update_named(
                "t",
                &Key(vec![Value::Int(*k as i64)]),
                &[("v", Value::Int(*v))],
            );
        }
    }
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Replaying the folded net changes over the pre-state yields the
    /// post-state (fold soundness), and the overlay inverts them.
    #[test]
    fn fold_replays_to_post_state(
        initial in proptest::collection::vec((0u8..16, -50i64..50), 0..10),
        ops in proptest::collection::vec(op(), 0..30),
    ) {
        let mut db = db_with(&initial);
        let pre_rows = sorted(db.table("t").unwrap().rows_uncounted());
        for o in &ops {
            apply_op(&mut db, o);
        }
        let post_rows = sorted(db.table("t").unwrap().rows_uncounted());
        let folded = db.fold_log();

        // Overlay reconstructs the pre-state.
        let overlay = PreState::new(db.table("t").unwrap(), folded.get("t"));
        prop_assert_eq!(sorted(overlay.rows_uncounted()), pre_rows.clone());

        // Replay the net changes over the pre-state.
        let mut replayed: Vec<Row> = pre_rows.clone();
        if let Some(changes) = folded.get("t") {
            for (key, c) in changes.iter() {
                match c {
                    NetChange::Inserted { post } => replayed.push(post.clone()),
                    NetChange::Deleted { .. } => {
                        replayed.retain(|r| &r.key(&[0]) != key);
                    }
                    NetChange::Updated { post, .. } => {
                        for r in replayed.iter_mut() {
                            if &r.key(&[0]) == key {
                                *r = post.clone();
                            }
                        }
                    }
                }
            }
        }
        prop_assert_eq!(sorted(replayed), post_rows);
    }

    /// Net changes never mention untouched keys and hold at most one
    /// entry per key.
    #[test]
    fn fold_is_minimal(
        initial in proptest::collection::vec((0u8..16, -50i64..50), 0..10),
        ops in proptest::collection::vec(op(), 0..30),
    ) {
        let mut db = db_with(&initial);
        let mut touched: BTreeSet<i64> = BTreeSet::new();
        for o in &ops {
            // Track keys whose DML actually did something.
            let before = db.table("t").unwrap().rows_uncounted().len();
            apply_op(&mut db, o);
            let after = db.table("t").unwrap().rows_uncounted().len();
            let k = match o {
                Op::Insert(k, _) | Op::Delete(k) | Op::Update(k, _) => *k as i64,
            };
            if before != after || matches!(o, Op::Update(..)) {
                touched.insert(k);
            }
        }
        let folded = db.fold_log();
        if let Some(changes) = folded.get("t") {
            for key in changes.keys() {
                let k = key.0[0].as_int().unwrap();
                prop_assert!(touched.contains(&k), "untouched key {k} in fold");
            }
        }
    }

    /// A no-op round (every change undone) folds to nothing.
    #[test]
    fn undone_changes_cancel(
        initial in proptest::collection::vec((0u8..8, -50i64..50), 1..8),
    ) {
        let mut db = db_with(&initial);
        let rows = db.table("t").unwrap().rows_uncounted();
        // Update everything to new values, then back.
        for r in &rows {
            let key = r.key(&[0]);
            let old = r[1].clone();
            db.update_named("t", &key, &[("v", Value::Int(999))]).unwrap();
            db.update_named("t", &key, &[("v", old)]).unwrap();
        }
        // Delete + reinsert identically.
        for r in &rows {
            let key = r.key(&[0]);
            db.delete("t", &key).unwrap();
            db.insert("t", r.clone()).unwrap();
        }
        prop_assert!(db.fold_log().is_empty());
    }
}
