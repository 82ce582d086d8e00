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
//!
//! An equality probe adds back the pre-images that match it. Those come
//! from the [`SharedChanges`]' memoized groups by probe columns
//! ([`SharedChanges::pre_images`]), built in one pass per allocation and
//! column set, so a round of probes costs O(probes + |Δ|) rather than
//! O(probes × |Δ|). The pass is not counted, as the per-probe filter it
//! replaces was not.

use crate::log::{NetChange, SharedChanges, TableChanges};
use crate::table::Table;
use idivm_types::{Row, Value};
use std::borrow::Borrow;

/// A read-only view of a table's pre-state. Every row it returns is
/// shared with the table or with the change map, never copied.
pub struct PreState<'a> {
    table: &'a Table,
    changes: Option<&'a SharedChanges>,
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

/// Charge the pre-images a pre-state read added back after `start`,
/// one tuple access each, and put them in row order: the change map is
/// a `HashMap`, whose order differs from process to process.
fn add_back(table: &Table, out: &mut [Row], start: usize) {
    out[start..].sort_unstable();
    table.stats().tuples((out.len() - start) as u64);
}

impl<'a> PreState<'a> {
    /// Wrap `table` with the net changes that produced its current
    /// (post-) state. `None` means the table did not change.
    pub fn new(table: &'a Table, changes: Option<&'a SharedChanges>) -> Self {
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
        let start = out.len();
        out.extend(changes.values().filter_map(|c| match c {
            NetChange::Deleted { pre } => Some(pre.clone()),
            _ => None,
        }));
        add_back(self.table, &mut out, start);
        out
    }

    /// Equality lookup on a column subset in the pre-state.
    ///
    /// Uses the post-state access path, then patches with the change map:
    /// post-state hits whose key was inserted are dropped, updated rows
    /// are re-checked against their pre-image, and deleted/updated
    /// pre-images matching the probe are added.
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
        let start = out.len();
        if let Some(rows) = changes.pre_images(positions).get(probe) {
            out.extend(rows.iter().cloned());
        }
        add_back(self.table, &mut out, start);
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
    use crate::log::PRE_IMAGE_VISITS;
    use crate::stats::AccessStats;
    use idivm_types::{row, ColumnType, Key, Schema, Value};
    use proptest::test_runner::TestRng;
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
        let ch = changes().into();
        let pre = PreState::new(&t, Some(&ch));
        let mut rows = pre.scan();
        rows.sort();
        assert_eq!(rows, vec![row![1, 10], row![2, 20], row![4, 40]]);
    }

    #[test]
    fn pre_state_get_patches() {
        let t = table();
        let ch = changes().into();
        let pre = PreState::new(&t, Some(&ch));
        assert_eq!(pre.get(&Key(vec![Value::Int(1)])), Some(row![1, 10]));
        assert_eq!(pre.get(&Key(vec![Value::Int(2)])), Some(row![2, 20]));
        assert_eq!(pre.get(&Key(vec![Value::Int(3)])), None); // inserted
        assert_eq!(pre.get(&Key(vec![Value::Int(4)])), Some(row![4, 40])); // deleted
    }

    #[test]
    fn pre_state_lookup_on_non_key() {
        let t = table();
        let ch = changes().into();
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
        let ch = ch.into();
        let pre = PreState::new(&t, Some(&ch));
        let deleted: Vec<Row> = [4, 5, 6, 7, 8, 9].map(|pid| row![pid, 40]).to_vec();
        assert_eq!(pre.lookup(&[1], &[Value::Int(40)]), deleted);
        assert_eq!(pre.scan()[2..], deleted[..]);
    }

    /// Random changes over a random table, every value drawn with
    /// NULLs: `(pid, a, b)`, `a` indexed, `b` not.
    fn random_round(rng: &mut TestRng) -> (Table, TableChanges) {
        let schema = Schema::from_pairs(
            &[
                ("pid", ColumnType::Int),
                ("a", ColumnType::Int),
                ("b", ColumnType::Str),
            ],
            &["pid"],
        )
        .unwrap();
        let mut t = Table::new("t", schema, AccessStats::new());
        t.create_index(&["a"]).unwrap();
        let mut ch = TableChanges::new();
        for pid in 0..40 {
            let mut draw = |pid: i64| {
                let a = [Value::Null, Value::Int(0), Value::Int(1), Value::Int(2)][rng.below(4)].clone();
                let b = [Value::Null, Value::str("x"), Value::str("y")][rng.below(3)].clone();
                Row::from([Value::Int(pid), a, b])
            };
            let (post, pre) = (draw(pid), draw(pid));
            let key = Key(vec![Value::Int(pid)]);
            match rng.below(4) {
                0 => t.load(post).unwrap(),
                1 => {
                    t.load(post.clone()).unwrap();
                    ch.insert(key, NetChange::Inserted { post });
                }
                2 => {
                    t.load(post.clone()).unwrap();
                    ch.insert(key, NetChange::Updated { pre, post });
                }
                _ => {
                    ch.insert(key, NetChange::Deleted { pre });
                }
            }
        }
        (t, ch)
    }

    /// The reference the memoized pre-image groups replace: the
    /// post-state probe patched by a linear filter over every change,
    /// counted as [`PreState::lookup`] counts.
    fn linear_lookup(t: &Table, plain: &TableChanges, cols: &[usize], probe: &[Value]) -> Vec<Row> {
        let mut scratch = Vec::new();
        let mut out = t.lookup(cols, probe);
        out.retain(|row| {
            matches!(
                change_of(plain, t.schema().key(), row, &mut scratch),
                Some(NetChange::Deleted { .. }) | None
            )
        });
        let start = out.len();
        out.extend(plain.values().filter_map(|c| match c {
            NetChange::Deleted { pre } | NetChange::Updated { pre, .. } => {
                pre.matches(cols, probe).then(|| pre.clone())
            }
            NetChange::Inserted { .. } => None,
        }));
        add_back(t, &mut out, start);
        out
    }

    /// Every probe on `cols` over the value domain through `shared`
    /// returns what the linear filter over `plain` returns — rows,
    /// order and counted accesses.
    fn assert_probes_agree(t: &Table, shared: &SharedChanges, plain: &TableChanges, cols: &[usize]) {
        let a = [Value::Null, Value::Int(0), Value::Int(1), Value::Int(2), Value::Int(3)];
        let b = [Value::Null, Value::str("x"), Value::str("y")];
        let probes: Vec<Vec<Value>> = match cols {
            [1] => a.iter().map(|v| vec![v.clone()]).collect(),
            _ => a
                .iter()
                .flat_map(|x| b.iter().map(move |y| vec![x.clone(), y.clone()]))
                .collect(),
        };
        for probe in probes {
            let s0 = t.stats().snapshot();
            let indexed = PreState::new(t, Some(shared)).lookup(cols, &probe);
            let s1 = t.stats().snapshot();
            let linear = linear_lookup(t, plain, cols, &probe);
            let s2 = t.stats().snapshot();
            assert_eq!(indexed, linear, "cols {cols:?} probe {probe:?}");
            assert_eq!(s1.since(&s0), s2.since(&s1), "cols {cols:?} probe {probe:?}");
        }
    }

    /// The memoized pre-image groups answer every probe as the linear
    /// filter they replace: two column sets on one `SharedChanges`,
    /// then the same after `make_mut` changed it in place.
    #[test]
    fn indexed_pre_image_probes_equal_the_linear_filter() {
        let mut rng = TestRng::deterministic();
        for _ in 0..64 {
            let (t, ch) = random_round(&mut rng);
            let mut shared = SharedChanges::from(ch.clone());
            assert_probes_agree(&t, &shared, &ch, &[1]);
            assert_probes_agree(&t, &shared, &ch, &[1, 2]);
            // Change it in place: every entry's pre-image moves to a = 3.
            for change in shared.make_mut().values_mut() {
                if let NetChange::Deleted { pre } | NetChange::Updated { pre, .. } = change {
                    *pre = Row::from([pre[0].clone(), Value::Int(3), pre[2].clone()]);
                }
            }
            let plain: TableChanges = (*shared).clone();
            assert_probes_agree(&t, &shared, &plain, &[1]);
            assert_probes_agree(&t, &shared, &plain, &[1, 2]);
        }
    }

    /// A round's probes visit each change-map entry at most once per
    /// column set, however many probes there are and whichever handle
    /// they come through; a change through `make_mut` costs one more
    /// pass per column set probed after it.
    #[test]
    fn pre_image_groups_are_built_once_per_column_set() {
        let visits = || PRE_IMAGE_VISITS.with(std::cell::Cell::get);
        let (t, ch) = random_round(&mut TestRng::deterministic());
        let n = ch.len() as u64;
        let mut shared = SharedChanges::from(ch);
        let other = shared.clone();
        let v0 = visits();
        for i in 0..50 {
            let a = Value::Int(i % 3);
            PreState::new(&t, Some(&shared)).lookup(&[1], std::slice::from_ref(&a));
            PreState::new(&t, Some(&other)).lookup(&[1, 2], &[a, Value::str("x")]);
        }
        assert_eq!(visits() - v0, 2 * n);
        drop(other);
        shared
            .make_mut()
            .insert(Key(vec![Value::Int(99)]), NetChange::Deleted { pre: row![99, 1, "x"] });
        let v1 = visits();
        for _ in 0..50 {
            PreState::new(&t, Some(&shared)).lookup(&[1], &[Value::Int(1)]);
        }
        assert_eq!(visits() - v1, n + 1);
    }

    #[test]
    fn no_changes_passthrough() {
        let t = table();
        let pre = PreState::new(&t, None::<&SharedChanges>);
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
        let ch = ch.into();
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
