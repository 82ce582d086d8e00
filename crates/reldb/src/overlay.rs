//! Pre-state access for deferred IVM.
//!
//! In deferred IVM the base tables are already in *post-state* when the
//! view is maintained (DML applies eagerly, the log holds pre-images).
//! Propagation rules, however, may request `Input_pre` — the subview over
//! the base tables *before* the logged changes (Section 4, "the input
//! subviews can be requested either in their pre-state form … or in the
//! post-state"). [`PreState`] serves that by inverse-applying the
//! effective [`NetChange`]s over the post-state table:
//!
//! * rows whose key was net-*inserted* are hidden,
//! * rows whose key was net-*updated* are replaced by their pre-image,
//! * net-*deleted* pre-images are added back.
//!
//! Cost accounting matches the underlying table's access paths; the
//! (small) change-map patches are charged one tuple access per patched
//! row produced, so pre-state reads are never cheaper than post-state
//! reads.

use crate::log::{NetChange, TableChanges};
use crate::table::Table;
use idivm_types::{Row, Value};
use std::borrow::Borrow;

/// A read-only view of a table's pre-state. Every row it returns is
/// shared with the table or with the change map, never copied.
pub struct PreState<'a> {
    table: &'a Table,
    changes: Option<&'a TableChanges>,
}

/// The net change recorded for `row`'s primary key, if any. The key is
/// projected into `scratch`, so a loop over many rows builds no `Key`.
fn change_of<'c>(
    changes: &'c TableChanges,
    key_cols: &[usize],
    row: &Row,
    scratch: &mut Vec<Value>,
) -> Option<&'c NetChange> {
    scratch.clear();
    scratch.extend(key_cols.iter().map(|&c| row[c].clone()));
    changes.get(scratch.as_slice())
}

/// Append the pre-images a pre-state read adds back, one tuple access
/// each, in row order: the change map is a `HashMap`, whose order
/// differs from process to process.
fn add_back<'r>(table: &Table, out: &mut Vec<Row>, pre: impl Iterator<Item = &'r Row>) {
    let start = out.len();
    out.extend(pre.cloned());
    out[start..].sort_unstable();
    table.stats().tuples((out.len() - start) as u64);
}

impl<'a> PreState<'a> {
    /// Wrap `table` with the net changes that produced its current
    /// (post-) state. `None` means the table did not change.
    pub fn new(table: &'a Table, changes: Option<&'a TableChanges>) -> Self {
        PreState { table, changes }
    }

    /// The table's schema.
    pub fn schema(&self) -> &idivm_types::Schema {
        self.table.schema()
    }

    /// Point lookup by primary key in the pre-state.
    pub fn get(&self, key: &(impl Borrow<[Value]> + ?Sized)) -> Option<Row> {
        let key = key.borrow();
        if let Some(changes) = self.changes {
            match changes.get(key) {
                Some(NetChange::Inserted { .. }) => return None,
                Some(NetChange::Updated { pre, .. })
                | Some(NetChange::Deleted { pre }) => {
                    // One logical index lookup + one tuple access, same
                    // as a post-state point read.
                    self.table.stats().index_lookup();
                    self.table.stats().tuples(1);
                    return Some(pre.clone());
                }
                None => {}
            }
        }
        self.table.get(key).cloned()
    }

    /// Full scan of the pre-state.
    pub fn scan(&self) -> Vec<Row> {
        let Some(changes) = self.changes else {
            return self.table.scan();
        };
        let key_cols = self.table.schema().key();
        let mut scratch = Vec::with_capacity(key_cols.len());
        let mut out: Vec<Row> = Vec::with_capacity(self.table.len());
        for row in self.table.iter() {
            match change_of(changes, key_cols, row, &mut scratch) {
                Some(NetChange::Inserted { .. }) => {}
                Some(NetChange::Updated { pre, .. }) => out.push(pre.clone()),
                Some(NetChange::Deleted { .. }) | None => out.push(row.clone()),
            }
        }
        let deleted = changes.values().filter_map(|c| match c {
            NetChange::Deleted { pre } => Some(pre),
            _ => None,
        });
        add_back(self.table, &mut out, deleted);
        out
    }

    /// Equality lookup on a column subset in the pre-state.
    ///
    /// Uses the post-state access path, then patches with the change map:
    /// post-state hits whose key was inserted are dropped, updated rows
    /// are re-checked against their pre-image, and deleted/updated
    /// pre-images matching the probe are added. The pass over the change
    /// map compares columns in place: a probe allocates for the rows it
    /// returns, not for the round's changes it looks at.
    pub fn lookup(&self, positions: &[usize], probe: &(impl Borrow<[Value]> + ?Sized)) -> Vec<Row> {
        let probe = probe.borrow();
        let Some(changes) = self.changes else {
            return self.table.lookup(positions, probe);
        };
        let key_cols = self.table.schema().key();
        let mut scratch = Vec::with_capacity(key_cols.len());
        let mut out = self.table.lookup(positions, probe);
        // Inserted: not in the pre-state. Updated: the pre-image is
        // handled below (it may or may not match).
        out.retain(|row| {
            matches!(
                change_of(changes, key_cols, row, &mut scratch),
                Some(NetChange::Deleted { .. }) | None
            )
        });
        let matching = changes.values().filter_map(|c| match c {
            NetChange::Deleted { pre } | NetChange::Updated { pre, .. } => {
                pre.matches(positions, probe).then_some(pre)
            }
            NetChange::Inserted { .. } => None,
        });
        add_back(self.table, &mut out, matching);
        out
    }

    /// Uncounted pre-state row set — for oracles and tests.
    pub fn rows_uncounted(&self) -> Vec<Row> {
        let Some(changes) = self.changes else {
            return self.table.rows_uncounted();
        };
        let key_cols = self.table.schema().key();
        let mut scratch = Vec::with_capacity(key_cols.len());
        let mut out = self.table.rows_uncounted();
        out.retain_mut(|row| match change_of(changes, key_cols, row, &mut scratch) {
            Some(NetChange::Inserted { .. }) => false,
            Some(NetChange::Updated { pre, .. }) => {
                *row = pre.clone();
                true
            }
            Some(NetChange::Deleted { .. }) | None => true,
        });
        out.extend(changes.values().filter_map(|c| match c {
            NetChange::Deleted { pre } => Some(pre.clone()),
            _ => None,
        }));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::AccessStats;
    use idivm_types::{row, ColumnType, Key, Schema, Value};
    use std::collections::HashMap;

    fn table() -> Table {
        let schema = Schema::from_pairs(
            &[("pid", ColumnType::Int), ("price", ColumnType::Int)],
            &["pid"],
        )
        .unwrap();
        let mut t = Table::new("parts", schema, AccessStats::new());
        // post-state: (1,11) updated from (1,10); (2,20) untouched;
        // (3,30) freshly inserted; (4,40) was deleted.
        t.load(row![1, 11]).unwrap();
        t.load(row![2, 20]).unwrap();
        t.load(row![3, 30]).unwrap();
        t
    }

    fn changes() -> TableChanges {
        let mut c = HashMap::new();
        c.insert(
            Key(vec![Value::Int(1)]),
            NetChange::Updated {
                pre: row![1, 10],
                post: row![1, 11],
            },
        );
        c.insert(
            Key(vec![Value::Int(3)]),
            NetChange::Inserted { post: row![3, 30] },
        );
        c.insert(
            Key(vec![Value::Int(4)]),
            NetChange::Deleted { pre: row![4, 40] },
        );
        c
    }

    #[test]
    fn pre_state_scan_reconstructs() {
        let t = table();
        let ch = changes();
        let pre = PreState::new(&t, Some(&ch));
        let mut rows = pre.scan();
        rows.sort();
        assert_eq!(rows, vec![row![1, 10], row![2, 20], row![4, 40]]);
    }

    #[test]
    fn pre_state_get_patches() {
        let t = table();
        let ch = changes();
        let pre = PreState::new(&t, Some(&ch));
        assert_eq!(pre.get(&Key(vec![Value::Int(1)])), Some(row![1, 10]));
        assert_eq!(pre.get(&Key(vec![Value::Int(2)])), Some(row![2, 20]));
        assert_eq!(pre.get(&Key(vec![Value::Int(3)])), None); // inserted
        assert_eq!(pre.get(&Key(vec![Value::Int(4)])), Some(row![4, 40])); // deleted
    }

    #[test]
    fn pre_state_lookup_on_non_key() {
        let t = table();
        let ch = changes();
        let pre = PreState::new(&t, Some(&ch));
        // price = 10 existed only in the pre-state of pid 1.
        let hits = pre.lookup(&[1], &Key(vec![Value::Int(10)]));
        assert_eq!(hits, vec![row![1, 10]]);
        // price = 11 exists only in the post-state.
        let hits = pre.lookup(&[1], &Key(vec![Value::Int(11)]));
        assert!(hits.is_empty());
        // price = 40 was deleted.
        let hits = pre.lookup(&[1], &Key(vec![Value::Int(40)]));
        assert_eq!(hits, vec![row![4, 40]]);
    }

    /// The pre-images a scan or a probe adds back come in row order,
    /// whatever the change map's order.
    #[test]
    fn added_back_pre_images_come_in_row_order() {
        let t = table();
        let mut ch = changes();
        for pid in [9, 5, 7, 6, 8] {
            let pre = row![pid, 40];
            ch.insert(Key(vec![Value::Int(pid)]), NetChange::Deleted { pre });
        }
        let pre = PreState::new(&t, Some(&ch));
        let deleted: Vec<Row> = [4, 5, 6, 7, 8, 9].map(|pid| row![pid, 40]).to_vec();
        assert_eq!(pre.lookup(&[1], &[Value::Int(40)]), deleted);
        assert_eq!(pre.scan()[2..], deleted[..]);
    }

    #[test]
    fn no_changes_passthrough() {
        let t = table();
        let pre = PreState::new(&t, None);
        let mut rows = pre.scan();
        rows.sort();
        assert_eq!(rows, vec![row![1, 11], row![2, 20], row![3, 30]]);
    }

    /// A pre-state probe reads what it returns, whatever the size of the
    /// round: over a 100-change map (40 updates, 30 inserts, 30 deletes)
    /// the counts are the post-state access path's plus one tuple access
    /// per pre-image that matches — none per change merely looked at.
    #[test]
    fn pre_state_probe_counts_over_a_hundred_changes() {
        let schema = Schema::from_pairs(
            &[("pid", ColumnType::Int), ("grp", ColumnType::Int)],
            &["pid"],
        )
        .unwrap();
        let mut t = Table::new("parts", schema, AccessStats::new());
        t.create_index(&["grp"]).unwrap();
        let k = |pid: i64| Key(vec![Value::Int(pid)]);
        let mut ch = TableChanges::new();
        // Untouched rows 0..50, grp = pid % 5.
        for pid in 0..50 {
            t.load(row![pid, pid % 5]).unwrap();
        }
        // Updated rows 100..140: moved from grp (pid % 5) to grp 9.
        for pid in 100..140 {
            t.load(row![pid, 9]).unwrap();
            ch.insert(
                k(pid),
                NetChange::Updated {
                    pre: row![pid, pid % 5],
                    post: row![pid, 9],
                },
            );
        }
        // Inserted rows 200..230 (grp 3) and deleted rows 300..330
        // (were in grp pid % 5, no longer stored).
        for pid in 200..230 {
            t.load(row![pid, 3]).unwrap();
            ch.insert(k(pid), NetChange::Inserted { post: row![pid, 3] });
        }
        for pid in 300..330 {
            ch.insert(k(pid), NetChange::Deleted { pre: row![pid, pid % 5] });
        }
        assert_eq!(ch.len(), 100);
        let pre = PreState::new(&t, Some(&ch));

        // grp = 3 in the post-state: 10 untouched + 30 inserted = 40
        // index hits. Pre-state: the 10 untouched, 8 updated pre-images
        // (pid % 5 == 3 in 100..140) and 6 deleted ones (300..330).
        let s0 = t.stats().snapshot();
        let mut hits = pre.lookup(&[1], &[Value::Int(3)]);
        let d = t.stats().snapshot().since(&s0);
        assert_eq!((d.index_lookups, d.tuple_accesses), (1, 40 + 8 + 6));
        hits.sort();
        let mut expect: Vec<Row> = (0..50)
            .chain(100..140)
            .chain(300..330)
            .filter(|pid| pid % 5 == 3)
            .map(|pid| row![pid, 3])
            .collect();
        expect.sort();
        assert_eq!(hits, expect);

        // grp = 9 exists only in the post-state: 40 index hits, all of
        // them updated rows whose pre-image does not match.
        let s0 = t.stats().snapshot();
        assert!(pre.lookup(&[1], &[Value::Int(9)]).is_empty());
        let d = t.stats().snapshot().since(&s0);
        assert_eq!((d.index_lookups, d.tuple_accesses), (1, 40));

        // A primary-key probe of a deleted row: the post-state miss (1
        // lookup) plus its one matching pre-image.
        let s0 = t.stats().snapshot();
        assert_eq!(pre.lookup(&[0], &k(300)), vec![row![300, 0]]);
        let d = t.stats().snapshot().since(&s0);
        assert_eq!((d.index_lookups, d.tuple_accesses), (1, 1));
    }
}
