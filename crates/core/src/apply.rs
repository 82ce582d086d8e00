//! Applying i-diffs to a materialized relation — the `APPLY` statements
//! of paper Section 2.
//!
//! * **Update**: `UPDATE V SET Ā″ = Ā″_post FROM ∆u WHERE V.Ī′ = ∆u.Ī′`
//! * **Insert**: `INSERT INTO V SELECT … FROM ∆+ WHERE ROW(…) NOT IN V`
//! * **Delete**: `DELETE FROM V WHERE ROW(Ī′) IN (SELECT Ī′ FROM ∆−)`
//!
//! Cost accounting follows the paper's view-modification model: one view
//! *index lookup* per diff tuple (locating the targets through the view
//! index on `Ī′`) plus one view *tuple access* per actually-modified
//! view tuple. Diff tuples that match nothing (“dummy” tuples produced
//! by overestimating rules) cost only their index lookup — the effect
//! the paper's compression factor `p` measures.
//!
//! Update and delete diffs locate and write in one step
//! ([`Table::patch_where`] / [`Table::delete_where`]), probing with the
//! diff row's leading ID slots as a borrowed `[Value]`: a modified view
//! tuple costs the post row it becomes and the overlay key that must
//! own it, nothing per probe.
//!
//! **Atomicity.** Each public entry point ([`apply`], [`apply_all`])
//! is all-or-nothing: mutations journal their inverses into the
//! table's shared [`UndoLog`](idivm_reldb::UndoLog) and an `Err`
//! mid-batch rolls back both the table (rows and indexes) and the
//! caller's `changes` overlay map before returning — no half-applied
//! APPLY escapes. The session composes with an enclosing maintenance
//! round (`Database::begin_round`): on success the journaled suffix is
//! handed to the round's owner, on failure only this APPLY's suffix is
//! replayed, and the round's own abort restores the rest.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::diff::{DiffInstance, DiffKind, State};
use idivm_reldb::{NetChange, Table, TableChanges, UndoLog};
use idivm_types::{Error, Key, Result, Row, Value};
use std::collections::hash_map::Entry;

/// Outcome counters of one APPLY.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// View tuples inserted.
    pub inserted: u64,
    /// View tuples deleted.
    pub deleted: u64,
    /// View tuples updated in place.
    pub updated: u64,
    /// Diff tuples that matched no view tuple (overestimation).
    pub dummies: u64,
}

impl ApplyOutcome {
    /// Add `other`'s counters to these.
    pub(crate) fn absorb(&mut self, other: ApplyOutcome) {
        self.inserted += other.inserted;
        self.deleted += other.deleted;
        self.updated += other.updated;
        self.dummies += other.dummies;
    }
}

/// Pre-images of the caller's `changes` overlay map, one per touch in
/// touch order, so a failed APPLY can restore it alongside the table.
/// An append-only list replayed in reverse (like the table's undo
/// journal): recording a touch hashes nothing and allocates nothing —
/// the entries hold shared rows, and the overlay key (the tuple's
/// primary key) is derived from them only if the APPLY fails — and a key
/// touched twice ends on its oldest pre-image.
#[derive(Debug, Default)]
struct ChangesJournal {
    touched: Vec<Touched>,
}

/// What `changes` held for a tuple before one touch.
#[derive(Debug)]
enum Touched {
    /// No entry; the row is any image of the tuple (for its key).
    Absent(Row),
    /// This entry.
    Was(NetChange),
}

impl ChangesJournal {
    /// Put every touched key back to its pre-APPLY state. `key_cols`
    /// are the table's primary-key positions.
    fn restore(self, changes: &mut TableChanges, key_cols: &[usize]) {
        for touched in self.touched.into_iter().rev() {
            match touched {
                Touched::Was(net) => {
                    let (NetChange::Inserted { post: image }
                    | NetChange::Deleted { pre: image }
                    | NetChange::Updated { pre: image, .. }) = &net;
                    changes.insert(image.key(key_cols), net);
                }
                Touched::Absent(image) => {
                    changes.remove(&image.key(key_cols));
                }
            }
        }
    }
}

/// One all-or-nothing APPLY scope over a table's shared undo journal.
struct ApplySession {
    undo: UndoLog,
    mark: usize,
    journal: ChangesJournal,
}

impl ApplySession {
    /// Open the scope, sizing `changes` and its journal for one touch
    /// per diff tuple up front (rehash-on-grow would otherwise hash
    /// every recorded key a second time).
    fn begin(table: &Table, changes: &mut TableChanges, diff_tuples: usize) -> Self {
        let undo = table.undo_log().clone();
        let mark = undo.arm();
        changes.reserve(diff_tuples);
        ApplySession {
            undo,
            mark,
            journal: ChangesJournal {
                touched: Vec::with_capacity(diff_tuples),
            },
        }
    }

    /// Keep the mutations. Inside a maintenance round the journaled
    /// suffix stays for the round's owner; standalone (no other
    /// interest), the journal is drained so it cannot grow unboundedly.
    fn commit(self) {
        self.undo.disarm();
        if !self.undo.is_armed() {
            self.undo.clear();
        }
    }

    /// Replay this session's suffix in reverse (rows and indexes,
    /// uncounted) and restore the touched `changes` entries.
    fn rollback(self, table: &mut Table, changes: &mut TableChanges) {
        self.undo.disarm();
        for op in self.undo.split_off(self.mark).into_iter().rev() {
            table.apply_undo(op);
        }
        self.journal.restore(changes, table.schema().key());
    }
}

/// Apply `diff` to `table` (a materialized view or cache), recording the
/// induced net changes into `changes` so later rules can read the
/// relation's pre-state through an overlay. All-or-nothing: on `Err`,
/// `table` and `changes` are exactly as before the call.
///
/// # Errors
/// Conflicting inserts (an ineffective diff — upstream bug) or arity
/// mismatches.
pub fn apply(
    table: &mut Table,
    diff: &DiffInstance,
    changes: &mut TableChanges,
) -> Result<ApplyOutcome> {
    let mut session = ApplySession::begin(table, changes, diff.len());
    match apply_one(table, diff, changes, &mut session.journal) {
        Ok(out) => {
            session.commit();
            Ok(out)
        }
        Err(e) => {
            session.rollback(table, changes);
            Err(e)
        }
    }
}

fn apply_one(
    table: &mut Table,
    diff: &DiffInstance,
    changes: &mut TableChanges,
    journal: &mut ChangesJournal,
) -> Result<ApplyOutcome> {
    let mut out = ApplyOutcome::default();
    match diff.schema.kind {
        DiffKind::Update => out.absorb(apply_update(table, diff, changes, journal)?),
        DiffKind::Insert => out.absorb(apply_insert(table, diff, changes, journal)?),
        DiffKind::Delete => out.absorb(apply_delete(table, diff, changes, journal)?),
    }
    Ok(out)
}

/// Apply a whole batch of diffs in any order (they are effective, so
/// order is immaterial — paper Section 2); inserts are deferred last so
/// an insert+update pair targeting the same fresh tuple cannot trip the
/// duplicate-insert guard. All-or-nothing across the whole batch: on
/// `Err`, `table` and `changes` are exactly as before the call.
///
/// # Errors
/// Same conditions as [`apply`].
pub fn apply_all(
    table: &mut Table,
    diffs: &[DiffInstance],
    changes: &mut TableChanges,
) -> Result<ApplyOutcome> {
    let diff_tuples = diffs.iter().map(DiffInstance::len).sum();
    let mut session = ApplySession::begin(table, changes, diff_tuples);
    match apply_all_inner(table, diffs, changes, &mut session.journal) {
        Ok(out) => {
            session.commit();
            Ok(out)
        }
        Err(e) => {
            session.rollback(table, changes);
            Err(e)
        }
    }
}

fn apply_all_inner(
    table: &mut Table,
    diffs: &[DiffInstance],
    changes: &mut TableChanges,
    journal: &mut ChangesJournal,
) -> Result<ApplyOutcome> {
    let mut out = ApplyOutcome::default();
    for d in diffs.iter().filter(|d| d.schema.kind == DiffKind::Delete) {
        out.absorb(apply_one(table, d, changes, journal)?);
    }
    for d in diffs.iter().filter(|d| d.schema.kind == DiffKind::Update) {
        out.absorb(apply_one(table, d, changes, journal)?);
    }
    for d in diffs.iter().filter(|d| d.schema.kind == DiffKind::Insert) {
        out.absorb(apply_one(table, d, changes, journal)?);
    }
    Ok(out)
}

fn apply_update(
    table: &mut Table,
    diff: &DiffInstance,
    changes: &mut TableChanges,
    journal: &mut ChangesJournal,
) -> Result<ApplyOutcome> {
    let mut out = ApplyOutcome::default();
    let schema = &diff.schema;
    debug_check_id_index(table, diff);
    // Which slot of a diff row carries each assigned column's post
    // value — resolved once per diff, not per tuple.
    let sources: Vec<(usize, usize)> = schema
        .post_cols
        .iter()
        .map(|&c| {
            schema.post_source(c).map(|slot| (c, slot)).ok_or_else(|| {
                Error::Internal(format!(
                    "update i-diff carries no post value for column #{c} \
                     (schema {schema:?})"
                ))
            })
        })
        .collect::<Result<_>>()?;
    let mut assignments: Vec<(usize, Value)> = Vec::with_capacity(sources.len());
    for d in &diff.rows {
        assignments.clear();
        assignments.extend(sources.iter().map(|&(c, slot)| (c, d[slot].clone())));
        let mut updated = 0;
        let located = table.patch_where(
            &schema.id_cols,
            schema.id_slice(d),
            &assignments,
            |pk, patched| {
                if let Some(pre) = patched.pre {
                    record_update(changes, journal, pk, pre, patched.post);
                    updated += 1;
                }
            },
        );
        out.updated += updated;
        // A diff tuple that located nothing is one dummy; a located
        // tuple it did not change — it re-asserted the stored values,
        // or the indexed key points at a row that is no longer there —
        // had nothing to update and is a dummy too, rather than an
        // abort of a half-applied round.
        out.dummies += (located as u64).max(1) - updated;
    }
    Ok(out)
}

fn apply_insert(
    table: &mut Table,
    diff: &DiffInstance,
    changes: &mut TableChanges,
    journal: &mut ChangesJournal,
) -> Result<ApplyOutcome> {
    let mut out = ApplyOutcome::default();
    // A diff row whose IDs lead the target's columns is the row.
    let layout = match diff.schema.full_sources(table.schema().arity(), State::Post) {
        Some(layout) => layout,
        None if diff.rows.is_empty() => return Ok(out),
        None => {
            return Err(Error::Internal(format!(
                "insert i-diff does not cover the full target row \
                 (schema {:?})",
                diff.schema
            )))
        }
    };
    for d in &diff.rows {
        let row = layout.apply(d);
        if table.insert_if_absent(row.clone())? {
            record_insert(changes, journal, table.pk_of(&row), row);
            out.inserted += 1;
        } else {
            out.dummies += 1;
        }
    }
    Ok(out)
}

fn apply_delete(
    table: &mut Table,
    diff: &DiffInstance,
    changes: &mut TableChanges,
    journal: &mut ChangesJournal,
) -> Result<ApplyOutcome> {
    let mut out = ApplyOutcome::default();
    let schema = &diff.schema;
    debug_check_id_index(table, diff);
    for d in &diff.rows {
        let located = table.delete_where(&schema.id_cols, schema.id_slice(d), |pk, pre| {
            record_delete(changes, journal, pk, pre);
            out.deleted += 1;
        });
        if located == 0 {
            out.dummies += 1;
        }
    }
    Ok(out)
}

/// The paper's APPLY locates its targets through an index on the
/// i-diff's IDs; set-up creates one for every Ī′ an update or delete
/// can bring the table (`cache::apply_id_sets`).
fn debug_check_id_index(table: &Table, diff: &DiffInstance) {
    let ids = &diff.schema.id_cols;
    debug_assert!(
        diff.rows.is_empty() || table.has_index(ids),
        "`{}` has no index on the i-diff's IDs {ids:?}",
        table.name()
    );
}

/// Probe `changes` for `key` once — the `record_*` functions fold
/// their tuple change in through the returned entry — journaling the
/// entry's prior state on the way (`image` is any image of the tuple).
fn touch<'a>(
    changes: &'a mut TableChanges,
    journal: &mut ChangesJournal,
    key: Key,
    image: &Row,
) -> Entry<'a, Key, NetChange> {
    let entry = changes.entry(key);
    journal.touched.push(match &entry {
        Entry::Occupied(e) => Touched::Was(e.get().clone()),
        Entry::Vacant(_) => Touched::Absent(image.clone()),
    });
    entry
}

/// The located primary key *is* the overlay key; the map must own it.
fn record_update(
    changes: &mut TableChanges,
    journal: &mut ChangesJournal,
    pk: &[Value],
    pre: Row,
    post: &Row,
) {
    match touch(changes, journal, Key(pk.to_vec()), post) {
        Entry::Vacant(e) => {
            e.insert(NetChange::Updated {
                pre,
                post: post.clone(),
            });
        }
        Entry::Occupied(mut e) => {
            let round_tripped = match e.get_mut() {
                NetChange::Inserted { post: p } => {
                    *p = post.clone();
                    false
                }
                NetChange::Updated {
                    pre: first,
                    post: p,
                } => {
                    if first == post {
                        // Back to the first pre-image: no net change.
                        true
                    } else {
                        *p = post.clone();
                        false
                    }
                }
                // Deleted then re-updated cannot happen with effective
                // diffs; keep the delete (defensive).
                NetChange::Deleted { .. } => false,
            };
            if round_tripped {
                e.remove();
            }
        }
    }
}

fn record_insert(changes: &mut TableChanges, journal: &mut ChangesJournal, key: Key, post: Row) {
    match touch(changes, journal, key, &post) {
        Entry::Vacant(e) => {
            e.insert(NetChange::Inserted { post });
        }
        Entry::Occupied(mut e) => {
            // delete + re-insert (an expanded condition-affected
            // update): net update, or nothing if the row came back
            // identical. Inserting over a live entry is prevented by
            // insert_if_absent; such an entry is left as it is
            // (defensive).
            if let NetChange::Deleted { pre } = e.get_mut() {
                if *pre == post {
                    e.remove();
                } else {
                    let pre = std::mem::take(pre);
                    e.insert(NetChange::Updated { pre, post });
                }
            }
        }
    }
}

fn record_delete(changes: &mut TableChanges, journal: &mut ChangesJournal, key: Key, pre: Row) {
    match touch(changes, journal, key, &pre) {
        Entry::Vacant(e) => {
            e.insert(NetChange::Deleted { pre });
        }
        Entry::Occupied(mut e) => {
            match e.get_mut() {
                // insert + delete in one round: net nothing.
                NetChange::Inserted { .. } => {
                    e.remove();
                }
                // The first pre-image stands.
                NetChange::Updated { pre: first, .. } => {
                    let pre = std::mem::take(first);
                    e.insert(NetChange::Deleted { pre });
                }
                NetChange::Deleted { .. } => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::diff::DiffSchema;
    use idivm_reldb::AccessStats;
    use idivm_types::{row, ColumnType, Schema};
    use std::collections::HashMap;

    /// The running-example view V(did, pid, price) of Figure 2, with
    /// the Ī′ index on `pid` that set-up gives it (the update and
    /// delete diffs below are keyed by `pid`).
    fn view() -> Table {
        let schema = Schema::from_pairs(
            &[
                ("did", ColumnType::Str),
                ("pid", ColumnType::Str),
                ("price", ColumnType::Int),
            ],
            &["did", "pid"],
        )
        .unwrap();
        let mut t = Table::new("V", schema, AccessStats::new());
        t.load(row!["D1", "P1", 10]).unwrap();
        t.load(row!["D2", "P1", 10]).unwrap();
        t.load(row!["D1", "P2", 20]).unwrap();
        t.create_index(&["pid"]).unwrap();
        t
    }

    /// Example 2.2: one update i-diff tuple updates *both* P1 rows.
    #[test]
    fn update_by_id_subset_hits_all_matches() {
        let mut v = view();
        let mut ch = HashMap::new();
        let d = DiffInstance::new(
            DiffSchema::update(&[1], &[2], &[2]),
            vec![row!["P1", 10, 11]],
        );
        v.stats().reset();
        let out = apply(&mut v, &d, &mut ch).unwrap();
        assert_eq!(out.updated, 2);
        assert_eq!(out.dummies, 0);
        assert_eq!(
            v.get_uncounted(&Key(vec![Value::str("D1"), Value::str("P1")]))
                .unwrap(),
            &row!["D1", "P1", 11]
        );
        // Cost: 1 index lookup (the single diff tuple) + 2 tuple writes.
        let snap = v.stats().snapshot();
        assert_eq!((snap.index_lookups, snap.tuple_accesses), (1, 2));
        assert_eq!(ch.len(), 2);
    }

    /// Example 2.3: insert i-diff; re-applying the same insert is a no-op
    /// (the NOT IN guard).
    #[test]
    fn insert_with_not_in_guard() {
        let mut v = view();
        let mut ch = HashMap::new();
        let d = DiffInstance::new(
            DiffSchema::insert(&[0, 1], 3),
            vec![row!["D3", "P2", 20], row!["D4", "P3", 30]],
        );
        let out = apply(&mut v, &d, &mut ch).unwrap();
        assert_eq!(out.inserted, 2);
        assert_eq!(v.len(), 5);
        // Same insert again: both are dummies.
        let out2 = apply(&mut v, &d, &mut HashMap::new()).unwrap();
        assert_eq!(out2.inserted, 0);
        assert_eq!(out2.dummies, 2);
    }

    /// Example 2.4: delete i-diff by pid removes both P1 tuples.
    #[test]
    fn delete_by_id_subset() {
        let mut v = view();
        let mut ch = HashMap::new();
        let d = DiffInstance::new(
            DiffSchema::delete(&[1], &[2]),
            vec![row!["P1", 10]],
        );
        let out = apply(&mut v, &d, &mut ch).unwrap();
        assert_eq!(out.deleted, 2);
        assert_eq!(v.len(), 1);
    }

    /// Overestimation: a dummy P3 update matches nothing and costs only
    /// its index lookup (Section 1's overestimation discussion).
    #[test]
    fn dummy_update_costs_one_lookup() {
        let mut v = view();
        let mut ch = HashMap::new();
        let d = DiffInstance::new(
            DiffSchema::update(&[1], &[2], &[2]),
            vec![row!["P3", 20, 21]],
        );
        v.stats().reset();
        let out = apply(&mut v, &d, &mut ch).unwrap();
        assert_eq!(out.dummies, 1);
        assert_eq!(out.updated, 0);
        let snap = v.stats().snapshot();
        assert_eq!((snap.index_lookups, snap.tuple_accesses), (1, 0));
        assert!(ch.is_empty());
    }

    #[test]
    fn conflicting_insert_is_an_error() {
        let mut v = view();
        let d = DiffInstance::new(
            DiffSchema::insert(&[0, 1], 3),
            vec![row!["D1", "P1", 999]], // same key, different price
        );
        assert!(apply(&mut v, &d, &mut HashMap::new()).is_err());
    }

    /// Regression (partial-effect APPLY): a conflicting insert in the
    /// middle of a batch used to return `Err` with the earlier rows of
    /// the same diff already inserted. The APPLY session must roll the
    /// whole diff back: table, indexes, and the `changes` overlay.
    #[test]
    fn failed_insert_batch_is_all_or_nothing() {
        let mut v = view();
        let before = v.signature();
        let d = DiffInstance::new(
            DiffSchema::insert(&[0, 1], 3),
            vec![
                row!["D7", "P7", 70],   // fresh — would insert
                row!["D1", "P1", 999],  // conflicts with existing D1/P1
                row!["D8", "P8", 80],   // never reached
            ],
        );
        let mut ch = HashMap::new();
        assert!(apply(&mut v, &d, &mut ch).is_err());
        assert_eq!(v.signature(), before, "table must be untouched");
        assert!(ch.is_empty(), "changes overlay must be untouched");
        assert!(
            v.undo_log().is_empty() && !v.undo_log().is_armed(),
            "standalone session must leave the journal drained"
        );
    }

    /// Same property across a batch of several diffs: a failure in a
    /// later diff rolls back earlier diffs of the same `apply_all`.
    #[test]
    fn failed_apply_all_rolls_back_earlier_diffs() {
        let mut v = view();
        let before = v.signature();
        let diffs = vec![
            DiffInstance::new(
                DiffSchema::delete(&[1], &[]),
                vec![row!["P2"]], // applies first, succeeds
            ),
            DiffInstance::new(
                DiffSchema::insert(&[0, 1], 3),
                vec![row!["D2", "P1", 999]], // conflicting insert
            ),
        ];
        let mut ch = HashMap::new();
        assert!(apply_all(&mut v, &diffs, &mut ch).is_err());
        assert_eq!(v.signature(), before);
        assert!(ch.is_empty());
    }

    /// Pre-existing overlay entries touched by a failing APPLY must be
    /// restored to their exact prior value, not dropped.
    #[test]
    fn rollback_restores_preexisting_changes_entries() {
        let mut v = view();
        let key = Key(vec![Value::str("D1"), Value::str("P2")]);
        let mut ch = HashMap::new();
        ch.insert(
            key.clone(),
            NetChange::Updated {
                pre: row!["D1", "P2", 19],
                post: row!["D1", "P2", 20],
            },
        );
        let prior = ch.clone();
        let diffs = vec![
            DiffInstance::new(
                DiffSchema::delete(&[1], &[]),
                vec![row!["P2"]], // touches the journaled key
            ),
            DiffInstance::new(
                DiffSchema::insert(&[0, 1], 3),
                vec![row!["D2", "P1", 999]], // then fails
            ),
        ];
        assert!(apply_all(&mut v, &diffs, &mut ch).is_err());
        assert_eq!(ch, prior, "overlay entry must be restored verbatim");
    }

    #[test]
    fn apply_all_orders_deletes_updates_inserts() {
        let mut v = view();
        let mut ch = HashMap::new();
        let diffs = vec![
            DiffInstance::new(
                DiffSchema::insert(&[0, 1], 3),
                vec![row!["D9", "P9", 90]],
            ),
            DiffInstance::new(
                DiffSchema::delete(&[1], &[]),
                vec![row!["P2"]],
            ),
        ];
        let out = apply_all(&mut v, &diffs, &mut ch).unwrap();
        assert_eq!(out.inserted, 1);
        assert_eq!(out.deleted, 1);
        assert_eq!(v.len(), 3);
    }

    /// Regression: a delete and an update landing on the same key in one
    /// batch (a folded delete racing a stale update diff) must not panic
    /// — the update finds nothing and is counted as a dummy.
    #[test]
    fn delete_then_update_same_key_is_dummy_not_panic() {
        let mut v = view();
        let mut ch = HashMap::new();
        let diffs = vec![
            DiffInstance::new(
                DiffSchema::update(&[1], &[2], &[2]),
                vec![row!["P2", 20, 25]],
            ),
            DiffInstance::new(
                DiffSchema::delete(&[1], &[]),
                vec![row!["P2"]],
            ),
        ];
        // apply_all orders deletes first, so the update probes a key
        // whose rows are gone.
        let out = apply_all(&mut v, &diffs, &mut ch).unwrap();
        assert_eq!(out.deleted, 1);
        assert_eq!(out.updated, 0);
        assert_eq!(out.dummies, 1);
        assert_eq!(v.len(), 2);
    }

    /// Dummy accounting through the in-place patch, on a view whose
    /// `price` column is indexed: a diff tuple that re-asserts the
    /// stored values, one whose ID matches nothing, and one that flips
    /// the indexed column. Each costs 1 lookup + m tuple accesses for
    /// its m located tuples, whether or not they end up written.
    #[test]
    fn update_accounting_through_in_place_patch() {
        let mut v = view();
        v.create_index(&["price"]).unwrap();
        let by_price = |v: &Table, p: i64| v.lookup(&[2], &Key(vec![Value::Int(p)])).len();
        let update = |d: Row| DiffInstance::new(DiffSchema::update(&[1], &[2], &[2]), vec![d]);
        let before = v.signature();
        let mut ch = TableChanges::new();

        // (diff tuple, updated, dummies, lookups, tuple accesses)
        let cases = [
            (row!["P1", 10, 10], 0, 2, 1, 2), // re-asserts both P1 rows
            (row!["P3", 20, 21], 0, 1, 1, 0), // matches nothing
            (row!["P1", 10, 11], 2, 0, 1, 2), // flips the indexed column
        ];
        for (d, updated, dummies, lookups, tuples) in cases {
            v.stats().reset();
            let out = apply(&mut v, &update(d.clone()), &mut ch).unwrap();
            let cost = v.stats().snapshot();
            assert_eq!(
                (out.updated, out.dummies),
                (updated, dummies),
                "diff tuple {d:?}"
            );
            assert_eq!(
                (cost.index_lookups, cost.tuple_accesses),
                (lookups, tuples),
                "diff tuple {d:?}"
            );
            if updated == 0 {
                assert_eq!(v.signature(), before, "a dummy must write nothing");
                assert!(ch.is_empty(), "a dummy must record nothing");
            }
        }
        // The flip moved both P1 rows in the price index and recorded
        // one net update per view tuple, keyed by its primary key.
        assert_eq!((by_price(&v, 10), by_price(&v, 11)), (0, 2));
        let d1p1 = Key(vec![Value::str("D1"), Value::str("P1")]);
        assert_eq!(ch.len(), 2);
        assert_eq!(
            ch[&d1p1],
            NetChange::Updated {
                pre: row!["D1", "P1", 10],
                post: row!["D1", "P1", 11],
            }
        );

        // A later diff failing in the same `apply_all` takes an earlier
        // indexed-column flip back with it: rows, index postings and
        // the overlay entries the flip had already rewritten.
        let flipped = v.signature();
        let recorded = ch.clone();
        let diffs = vec![
            update(row!["P1", 11, 12]),
            DiffInstance::new(
                DiffSchema::insert(&[0, 1], 3),
                vec![row!["D1", "P2", 999]], // conflicts with D1/P2
            ),
        ];
        assert!(apply_all(&mut v, &diffs, &mut ch).is_err());
        assert_eq!(v.signature(), flipped);
        assert_eq!(ch, recorded);
        assert_eq!((by_price(&v, 11), by_price(&v, 12)), (2, 0));

        // Patching back to the first pre-image cancels the net change.
        let out = apply(&mut v, &update(row!["P1", 11, 10]), &mut ch).unwrap();
        assert_eq!((out.updated, out.dummies), (2, 0));
        assert_eq!(v.signature(), before);
        assert!(ch.is_empty());
    }

    #[test]
    fn noop_update_counts_as_dummy() {
        let mut v = view();
        let d = DiffInstance::new(
            DiffSchema::update(&[1], &[2], &[2]),
            vec![row!["P2", 20, 20]], // sets price to its current value
        );
        let mut ch = HashMap::new();
        let out = apply(&mut v, &d, &mut ch).unwrap();
        assert_eq!(out.updated, 0);
        assert_eq!(out.dummies, 1);
        assert!(ch.is_empty());
    }
}
