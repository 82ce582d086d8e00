//! Property test: the table write path keeps secondary indexes and the
//! undo journal exact under any interleaving.
//!
//! `patch`/`update` re-file a row in an index only when one of that
//! index's columns actually changed, and journal only the overwritten
//! values. Both shortcuts are invisible iff (a) after every mutation
//! the indexes equal the ones a from-scratch build over the same rows
//! would produce, and (b) every aborted round restores the exact
//! pre-round signature. The table carries one index on a column no
//! operation assigns, one on an assigned column, and one composite
//! spanning both.
//!
//! The same interleavings pin [`Table::version`], which everything
//! cached from a table's rows is checked against: it strictly
//! increases across every step that changes the signature (undo replay
//! and `clear` included), a DML call that changes nothing — a refused
//! duplicate insert, an `insert_if_absent` of the identical row, a
//! patch or update that re-asserts the stored values, a delete of a
//! missing key — leaves it alone, and so does every read.

use idivm_reldb::{AccessStats, Database, Table, TableSignature};
use idivm_types::{row, ColumnType, Key, Schema, Value};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64, i64),
    InsertIfAbsent(i64, i64, i64),
    Update(i64, i64, i64),
    /// Assign `grp` and/or `val` of an already-located row.
    Patch(i64, Option<i64>, Option<i64>),
    Delete(i64),
    DeleteLocated(i64),
    Clear,
    Begin,
    Abort,
    Commit,
}

fn op() -> impl Strategy<Value = Op> {
    let id = || 0i64..12;
    // Few distinct values, so assignments often re-assert the stored
    // one and postings lists hold several keys.
    let grp = || 0i64..3;
    let val = || 0i64..4;
    let maybe = |s: std::ops::Range<i64>| prop_oneof![Just(None), s.prop_map(Some)];
    prop_oneof![
        (id(), grp(), val()).prop_map(|(i, g, v)| Op::Insert(i, g, v)),
        (id(), grp(), val()).prop_map(|(i, g, v)| Op::InsertIfAbsent(i, g, v)),
        (id(), grp(), val()).prop_map(|(i, g, v)| Op::Update(i, g, v)),
        (id(), maybe(grp()), maybe(val())).prop_map(|(i, g, v)| Op::Patch(i, g, v)),
        (id(), maybe(grp()), maybe(val())).prop_map(|(i, g, v)| Op::Patch(i, g, v)),
        id().prop_map(Op::Delete),
        id().prop_map(Op::DeleteLocated),
        Just(Op::Begin),
        Just(Op::Abort),
        Just(Op::Commit),
    ]
}

fn schema() -> Schema {
    Schema::from_pairs(
        &[
            ("id", ColumnType::Int),
            ("shard", ColumnType::Int),
            ("grp", ColumnType::Int),
            ("val", ColumnType::Int),
        ],
        &["id"],
    )
    .unwrap()
}

/// `shard` is a function of the key: no operation ever assigns it a
/// different value.
fn full_row(id: i64, grp: i64, val: i64) -> idivm_types::Row {
    row![id, id % 3, grp, val]
}

fn db() -> Database {
    let mut db = Database::new();
    db.set_logging(false);
    db.create_table("t", schema()).unwrap();
    let t = db.table_mut("t").unwrap();
    t.create_index(&["shard"]).unwrap();
    t.create_index(&["grp"]).unwrap();
    t.create_index(&["shard", "grp"]).unwrap();
    for id in 0..6 {
        t.load(full_row(id, id % 2, id % 4)).unwrap();
    }
    db
}

/// The signature of a table built from scratch over `t`'s rows, with
/// the same index definitions.
fn rebuilt_signature(t: &Table) -> TableSignature {
    let mut fresh = Table::new("t", t.schema().clone(), AccessStats::new());
    for cols in t.index_positions() {
        fresh.create_index_positions(cols);
    }
    for r in t.rows_uncounted() {
        fresh.load(r).unwrap();
    }
    fresh.signature()
}

fn apply_op(db: &mut Database, round: &mut Option<HashMap<String, TableSignature>>, o: &Op) {
    let key = |id: i64| Key(vec![Value::Int(id)]);
    match o {
        Op::Begin => {
            if round.is_none() {
                *round = Some(db.signature());
                assert!(db.begin_round());
            }
        }
        Op::Abort => {
            if let Some(before) = round.take() {
                db.abort_round();
                assert_eq!(
                    db.signature(),
                    before,
                    "abort must restore the pre-round state"
                );
                assert!(db.undo_log().is_empty() && !db.undo_log().is_armed());
            }
        }
        Op::Commit => {
            if round.take().is_some() {
                db.commit_round();
                assert!(db.undo_log().is_empty() && !db.undo_log().is_armed());
            }
        }
        dml => {
            let t = db.table_mut("t").unwrap();
            // Duplicate keys, conflicting inserts and missing rows are
            // part of the interleaving: a refused operation must leave
            // the table as consistent as an accepted one.
            match dml {
                Op::Insert(id, g, v) => {
                    let _ = t.insert(full_row(*id, *g, *v));
                }
                Op::InsertIfAbsent(id, g, v) => {
                    let _ = t.insert_if_absent(full_row(*id, *g, *v));
                }
                Op::Update(id, g, v) => {
                    let _ = t.update(&key(*id), full_row(*id, *g, *v));
                }
                Op::Patch(id, g, v) => {
                    let assignments: Vec<(usize, Value)> = [(2, g), (3, v)]
                        .into_iter()
                        .filter_map(|(c, x)| x.map(|x| (c, Value::Int(x))))
                        .collect();
                    let stored = t.get_uncounted(&key(*id)).cloned();
                    let patched = t.patch(&key(*id), &assignments);
                    match (&stored, &patched) {
                        (None, None) => {}
                        (Some(stored), Some(p)) => {
                            let changed = assignments.iter().any(|(c, x)| stored[*c] != *x);
                            assert_eq!(p.pre.is_some(), changed);
                            assert_eq!(p.pre.as_ref().unwrap_or(p.post), stored);
                            assert!(assignments.iter().all(|(c, x)| p.post[*c] == *x));
                        }
                        _ => panic!("patch disagrees with the stored row on existence"),
                    }
                }
                Op::Delete(id) => {
                    let _ = t.delete(&key(*id));
                }
                Op::DeleteLocated(id) => {
                    let _ = t.delete_located(&key(*id));
                }
                Op::Clear => t.clear(),
                Op::Begin | Op::Abort | Op::Commit => unreachable!(),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexes_and_rollback_stay_exact(ops in proptest::collection::vec(op(), 0..60)) {
        let mut db = db();
        let mut round = None;
        // Every generated step, a closing abort, then a `clear` inside
        // a round that is aborted in turn.
        let tail = [Op::Abort, Op::Begin, Op::Clear, Op::Abort];
        for o in ops.iter().chain(&tail) {
            let before = db.table("t").unwrap();
            let (sig, version) = (before.signature(), before.version());
            apply_op(&mut db, &mut round, o);
            let t = db.table("t").unwrap();
            prop_assert_eq!(t.signature(), rebuilt_signature(t));
            if t.signature() != sig {
                prop_assert!(t.version() > version, "{:?} changed the table unversioned", o);
            } else if !matches!(o, Op::Abort | Op::Clear) {
                // An abort whose round netted to nothing still replays
                // its journal, and `clear` does not look first: both
                // may move the version over equal rows. No other step.
                prop_assert_eq!(t.version(), version, "{:?} changed nothing", o);
            }
            let version = t.version();
            let probe = Key(vec![Value::Int(1)]);
            let _ = (t.get(&probe), t.lookup(&[2], &probe), t.pks_by(&[1, 2], &probe));
            let _ = (t.rows_uncounted(), t.contains_key(&probe));
            prop_assert_eq!(t.version(), version, "a read moved the version");
        }
    }
}
