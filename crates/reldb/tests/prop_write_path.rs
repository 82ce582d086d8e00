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
//!
//! Rows are immutable and shared: a patch builds the post row, swaps it
//! into the slot and hands back the *displaced* allocation, and reads,
//! net changes, log entries and undo records hold reference-count
//! copies of stored rows. `sharing_is_invisible` pins what makes that
//! safe — no write, abort replay included, ever shows through a row
//! that was handed out before it — and the `Patch` step pins the
//! copy-on-write contract by pointer identity.
//!
//! `index_probes_return_rows_in_posting_order` pins the order in which
//! an index probe returns its rows against a reference model of every
//! postings list, so a change of how postings are stored cannot reorder
//! what a lookup hands back.

use idivm_reldb::{AccessStats, Database, LogEntry, NetChange, Table, TableSignature, UndoOp};
use idivm_types::{row, ColumnType, Key, Row, Schema, Value};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64, i64),
    InsertIfAbsent(i64, i64, i64),
    Update(i64, i64, i64),
    /// Assign `grp` and/or `val` of an already-located row.
    Patch(i64, Option<i64>, Option<i64>),
    Delete(i64),
    DeleteLocated(i64),
    /// Locate by `LOCATORS[.0]` = `.1` and assign `grp` and/or `val`.
    PatchWhere(usize, i64, Option<i64>, Option<i64>),
    /// Locate by `LOCATORS[.0]` = `.1` and delete.
    DeleteWhere(usize, i64),
    Clear,
    Begin,
    Abort,
    Commit,
}

/// What the located writers address rows by: the primary key, each
/// index (one no operation re-files, one on an assigned column, the
/// composite over both) and an un-indexed column (the scan fallback).
const LOCATORS: [&[usize]; 5] = [&[0], &[1], &[2], &[1, 2], &[3]];

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
        (0..LOCATORS.len(), 0i64..4, maybe(grp()), maybe(val()))
            .prop_map(|(l, p, g, v)| Op::PatchWhere(l, p, g, v)),
        (0..LOCATORS.len(), 0i64..4).prop_map(|(l, p)| Op::DeleteWhere(l, p)),
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
fn full_row(id: i64, grp: i64, val: i64) -> Row {
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

/// Apply one step; returns the primary keys it addressed, in the order
/// it reached them (one key for a single-row write, the callback order
/// of a located one, none for `Begin`/`Abort`/`Commit`/`Clear`).
fn apply_op(
    db: &mut Database,
    round: &mut Option<HashMap<String, TableSignature>>,
    o: &Op,
) -> Vec<Key> {
    let key = |id: i64| Key(vec![Value::Int(id)]);
    let mut reached = Vec::new();
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
            if let Op::Insert(id, ..)
            | Op::InsertIfAbsent(id, ..)
            | Op::Update(id, ..)
            | Op::Patch(id, ..)
            | Op::Delete(id)
            | Op::DeleteLocated(id) = dml
            {
                reached.push(key(*id));
            }
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
                            // Copy-on-write: `pre` is the displaced
                            // allocation itself, `post` a new one; a
                            // patch that moved nothing left the stored
                            // allocation in place.
                            let displaced = p.pre.as_ref().unwrap_or(p.post);
                            assert!(Arc::ptr_eq(&displaced.0, &stored.0));
                            assert_eq!(Arc::ptr_eq(&p.post.0, &stored.0), !changed);
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
                Op::PatchWhere(l, p, g, v) => {
                    let (cols, probe) = locator(*l, *p);
                    let assignments = assignments(*g, *v);
                    let expect = matching(t, cols, &probe);
                    let mut seen = Vec::new();
                    let located = t.patch_where(cols, &probe, &assignments, |pk, patched| {
                        let stored = &expect[&Key(pk.to_vec())];
                        let changed = assignments.iter().any(|(c, x)| stored[*c] != *x);
                        assert_eq!(patched.pre.is_some(), changed);
                        assert_eq!(patched.pre.as_ref().unwrap_or(patched.post), stored);
                        assert!(assignments.iter().all(|(c, x)| patched.post[*c] == *x));
                        seen.push(Key(pk.to_vec()));
                    });
                    reached.clone_from(&seen);
                    seen.sort();
                    assert_eq!(located, expect.len());
                    assert_eq!(seen, sorted_keys(&expect), "every located row patched once");
                }
                Op::DeleteWhere(l, p) => {
                    let (cols, probe) = locator(*l, *p);
                    let expect = matching(t, cols, &probe);
                    let mut seen = Vec::new();
                    let located = t.delete_where(cols, &probe, |pk, row| {
                        assert_eq!(row, expect[&pk]);
                        seen.push(pk);
                    });
                    reached.clone_from(&seen);
                    seen.sort();
                    assert_eq!(located, expect.len());
                    assert_eq!(seen, sorted_keys(&expect), "every located row deleted once");
                    assert!(matching(t, cols, &probe).is_empty());
                }
                Op::Clear => t.clear(),
                Op::Begin | Op::Abort | Op::Commit => unreachable!(),
            }
        }
    }
    reached
}

/// Per index (by its columns), per indexed value: the primary keys in
/// the order an index probe must return their rows.
type OrderModel = HashMap<Vec<usize>, HashMap<Key, Vec<Key>>>;

/// The model as the table answers it now — how the pin re-seeds after
/// an abort, whose replay may file rows back in any order.
fn seeded(t: &Table) -> OrderModel {
    let mut model = OrderModel::new();
    for cols in t.index_positions() {
        let lists = model.entry(cols.clone()).or_default();
        for r in t.rows_uncounted() {
            let v = r.key(&cols);
            lists
                .entry(v.clone())
                .or_insert_with(|| t.lookup(&cols, &v).iter().map(|r| t.pk_of(r)).collect());
        }
    }
    model
}

/// Follow `pk`'s row from `before` to `after` in every index whose
/// value it changes: out of its old list by `swap_remove` at its
/// position, then pushed onto the end of its new one.
fn track(model: &mut OrderModel, pk: &Key, before: Option<&Row>, after: Option<&Row>) {
    for (cols, lists) in model.iter_mut() {
        let (from, to) = (before.map(|r| r.key(cols)), after.map(|r| r.key(cols)));
        if from == to {
            continue;
        }
        if let Some(from) = from {
            let list = lists.get_mut(&from).expect("a stored row is posted");
            let at = list.iter().position(|k| k == pk).expect("a stored row is posted");
            list.swap_remove(at);
            if list.is_empty() {
                lists.remove(&from);
            }
        }
        if let Some(to) = to {
            lists.entry(to).or_default().push(pk.clone());
        }
    }
}

/// Every stored row by primary key.
fn rows_by_key(t: &Table) -> HashMap<Key, Row> {
    t.rows_uncounted().into_iter().map(|r| (t.pk_of(&r), r)).collect()
}

/// Every index probe — of each value the table holds or the model
/// lists — returns its rows in exactly the model's order.
fn assert_posting_order(t: &Table, model: &OrderModel, o: &Op) {
    for (cols, lists) in model {
        let mut values: Vec<Key> = t.rows_uncounted().iter().map(|r| r.key(cols)).collect();
        values.extend(lists.keys().cloned());
        values.sort();
        values.dedup();
        for v in values {
            let got: Vec<Key> = t.lookup(cols, &v).iter().map(|r| t.pk_of(r)).collect();
            let want = lists.get(&v).cloned().unwrap_or_default();
            assert_eq!(got, want, "after {o:?}: probe {cols:?} = {v:?}");
        }
    }
}

fn assignments(g: Option<i64>, v: Option<i64>) -> Vec<(usize, Value)> {
    [(2, g), (3, v)]
        .into_iter()
        .filter_map(|(c, x)| x.map(|x| (c, Value::Int(x))))
        .collect()
}

/// Locator `l` probed with `p` in every column.
fn locator(l: usize, p: i64) -> (&'static [usize], Vec<Value>) {
    let cols = LOCATORS[l];
    (cols, vec![Value::Int(p); cols.len()])
}

/// The rows a located write must reach, by primary key.
fn matching(t: &Table, cols: &[usize], probe: &[Value]) -> HashMap<Key, Row> {
    t.rows_uncounted()
        .into_iter()
        .filter(|r| r.matches(cols, probe))
        .map(|r| (t.pk_of(&r), r))
        .collect()
}

fn sorted_keys(rows: &HashMap<Key, Row>) -> Vec<Key> {
    let mut keys: Vec<Key> = rows.keys().cloned().collect();
    keys.sort();
    keys
}

/// A handed-out row next to a deep copy of its values taken at the same
/// moment.
type Captured = Vec<(Row, Vec<Value>)>;

fn capture(held: &mut Captured, rows: impl IntoIterator<Item = Row>) {
    held.extend(rows.into_iter().map(|r| {
        let deep = r.0.to_vec();
        (r, deep)
    }));
}

/// Everything the database hands out that shares rows with its tables.
fn capture_all(held: &mut Captured, db: &Database) {
    let t = db.table("t").unwrap();
    capture(held, t.scan());
    capture(held, t.rows_uncounted());
    capture(held, t.lookup(&[2], &[Value::Int(1)]));
    capture(held, t.lookup(&[0], &[Value::Int(2)]));
    for changes in db.fold_log().into_values() {
        for change in changes.values().cloned() {
            match change {
                NetChange::Inserted { post } => capture(held, [post]),
                NetChange::Deleted { pre } => capture(held, [pre]),
                NetChange::Updated { pre, post } => capture(held, [pre, post]),
            }
        }
    }
    for entry in db.log().entries() {
        match entry.clone() {
            LogEntry::Insert { row, .. } => capture(held, [row]),
            LogEntry::Delete { pre, .. } => capture(held, [pre]),
            LogEntry::Update { pre, post, .. } => capture(held, [pre, post]),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Rows obtained from reads, net changes and log entries *before* a
    /// write compare equal to deep copies taken at capture time
    /// *after* it — through logged DML, unlogged patches and deletes,
    /// located writes and abort replay alike.
    #[test]
    fn sharing_is_invisible(ops in proptest::collection::vec(op(), 0..40)) {
        let mut db = db();
        db.set_logging(true);
        // An open round: the table's signature and the log's length at
        // `begin_round` (an abort un-logs the round's DML, as ingest does).
        let mut round: Option<(TableSignature, usize)> = None;
        let mut held = Captured::new();
        let key = |id: i64| Key(vec![Value::Int(id)]);
        for o in ops.iter().chain(&[Op::Abort]) {
            capture_all(&mut held, &db);
            match o {
                // The logged twins of the table-level steps, so the
                // modification log and its fold hold shared rows too.
                Op::Insert(id, g, v) => {
                    let _ = db.insert("t", full_row(*id, *g, *v));
                }
                Op::Update(id, g, v) => {
                    let _ = db.update("t", &key(*id), &assignments(Some(*g), Some(*v)));
                }
                Op::Delete(id) => {
                    let _ = db.delete("t", &key(*id));
                }
                Op::Begin => {
                    if round.is_none() {
                        round = Some((db.table("t").unwrap().signature(), db.log().len()));
                        prop_assert!(db.begin_round());
                    }
                }
                Op::Abort => {
                    if let Some((before, logged)) = round.take() {
                        db.abort_round();
                        db.truncate_log(logged);
                        prop_assert_eq!(db.table("t").unwrap().signature(), before);
                    }
                }
                Op::Commit => {
                    if round.take().is_some() {
                        db.commit_round();
                    }
                }
                unlogged => {
                    apply_op(&mut db, &mut None, unlogged);
                }
            }
        }
        capture_all(&mut held, &db);
        for (row, deep) in &held {
            prop_assert_eq!(&row.0[..], &deep[..], "a write showed through a handed-out row");
        }
    }

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

    /// An index probe returns its rows in posting order: a stored row is
    /// pushed, a removed one `swap_remove`d at its position, a row whose
    /// indexed value moves is removed and then pushed, and a located
    /// delete empties the whole list. The fixture creates its indexes on
    /// the empty table, so the loads are pushed in load order too.
    #[test]
    fn index_probes_return_rows_in_posting_order(ops in proptest::collection::vec(op(), 0..60)) {
        let mut db = db();
        let mut round = None;
        let mut model: OrderModel = db
            .table("t")
            .unwrap()
            .index_positions()
            .into_iter()
            .map(|cols| (cols, HashMap::new()))
            .collect();
        let t = db.table("t").unwrap();
        for id in 0..6 {
            let loaded = t.get_uncounted(&Key(vec![Value::Int(id)])).unwrap();
            track(&mut model, &t.pk_of(loaded), None, Some(loaded));
        }
        assert_posting_order(t, &model, &Op::Begin);
        let tail = [Op::Abort, Op::Begin, Op::Clear, Op::Abort];
        for o in ops.iter().chain(&tail) {
            let before = rows_by_key(db.table("t").unwrap());
            let aborts = matches!(o, Op::Abort) && round.is_some();
            let reached = apply_op(&mut db, &mut round, o);
            let t = db.table("t").unwrap();
            if aborts {
                model = seeded(t);
            } else if matches!(o, Op::Clear) {
                model.values_mut().for_each(HashMap::clear);
            } else {
                let after = rows_by_key(t);
                for pk in &reached {
                    track(&mut model, pk, before.get(pk), after.get(pk));
                }
            }
            assert_posting_order(t, &model, o);
        }
    }
}

/// The undo record of a patch is the displaced row itself, and replaying
/// it puts exactly that row back: rows, index postings and all.
#[test]
fn aborted_patch_replays_the_displaced_row() {
    let mut db = db();
    let before = db.signature();
    let key = Key(vec![Value::Int(4)]);
    let stored = db.table("t").unwrap().get_uncounted(&key).unwrap().clone();

    assert!(db.begin_round());
    let t = db.table_mut("t").unwrap();
    // Moves `grp`, so two of the three indexes re-file the row.
    let patched = t.patch(&key, &[(2, Value::Int(2)), (3, Value::Int(3))]).unwrap();
    assert!(Arc::ptr_eq(&patched.pre.as_ref().unwrap().0, &stored.0));
    assert_eq!(patched.post, &full_row(4, 2, 3));
    assert_ne!(db.signature(), before);

    // Look at the journal and put it back as it was.
    let journal = db.undo_log().split_off(0);
    match journal.as_slice() {
        [UndoOp::Update { row, .. }] => assert!(
            Arc::ptr_eq(&row.0, &stored.0),
            "the undo record must carry the displaced row, not a copy or the post row"
        ),
        other => panic!("expected one Update record, got {other:?}"),
    }
    for op in journal {
        db.undo_log().record(op);
    }

    db.abort_round();
    assert_eq!(db.signature(), before, "replay must restore the displaced row exactly");
    let restored = db.table("t").unwrap().get_uncounted(&key).unwrap();
    assert!(Arc::ptr_eq(&restored.0, &stored.0));
}
