//! Sorted row snapshots behind [`ViewCatalog::rows`](crate::ViewCatalog::rows).
//!
//! A [`Snapshot`] is a table's rows in sorted order, the
//! [`Table::version`] they were taken at, and the Δs of the clean
//! rounds that ran since, held by reference. A read settles those Δs
//! into the rows instead of cloning and sorting the whole table again.
//!
//! Correctness rests on one invariant: the snapshot plus its pending Δs
//! describes the table *at `version`*. Only [`Snapshot::advance`] moves
//! `version` forward, and only for a round that started at exactly that
//! version and reported every change it made. Any other writer leaves
//! the table at a version the snapshot does not know, which
//! [`Snapshot::settle`] refuses to serve — the caller rebuilds.

use idivm_exec::executor::sorted;
use idivm_reldb::{NetChange, SharedChanges, Table};
use idivm_types::Row;
use std::cmp::Ordering;

pub(crate) struct Snapshot {
    version: u64,
    rows: Vec<Row>,
    pending: Vec<SharedChanges>,
    /// Row images (pre and post) across `pending`.
    pending_images: usize,
}

impl Snapshot {
    /// Clone and sort `table`'s rows — the cold start, and what every
    /// invalidation falls back to.
    pub(crate) fn build(table: &Table) -> Self {
        Snapshot {
            version: table.version(),
            rows: sorted(table.rows_uncounted()),
            pending: Vec::new(),
            pending_images: 0,
        }
    }

    pub(crate) fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Take on the Δ of a clean round that moved the table from version
    /// `pre` to `post`. `false` means the snapshot can no longer follow
    /// the table and must be dropped: someone else wrote since it was
    /// taken, or the unsettled Δs have outgrown the rows they would be
    /// merged into (rebuilding is then the cheaper read, and nothing
    /// piles up behind a view that is maintained but no longer read).
    pub(crate) fn advance(&mut self, pre: u64, post: u64, delta: &SharedChanges) -> bool {
        if self.version != pre {
            return false;
        }
        self.version = post;
        if !delta.is_empty() {
            self.pending_images += delta.values().map(images).sum::<usize>();
            self.pending.push(delta.clone());
        }
        self.pending_images <= self.rows.len()
    }

    /// Bring the rows up to `table`'s current state and return them
    /// with the number of row images merged. `None` when the snapshot
    /// does not describe `table`: a version it has not followed, a
    /// pre-image that is not among the rows, a post-image that already
    /// is, or a row count that disagrees afterwards.
    pub(crate) fn settle(&mut self, table: &Table) -> Option<(&[Row], usize)> {
        if self.version != table.version() {
            return None;
        }
        let pending = std::mem::take(&mut self.pending);
        let merged = std::mem::take(&mut self.pending_images);
        let mut removes: Vec<&Row> = Vec::with_capacity(merged);
        let mut adds: Vec<&Row> = Vec::with_capacity(merged);
        for change in pending.iter().flat_map(|delta| delta.values()) {
            match change {
                NetChange::Inserted { post } => adds.push(post),
                NetChange::Deleted { pre } => removes.push(pre),
                NetChange::Updated { pre, post } => {
                    removes.push(pre);
                    adds.push(post);
                }
            }
        }
        removes.sort_unstable();
        adds.sort_unstable();
        // Across rounds one row value can come and go (inserted in one
        // round, deleted in a later one; or the reverse): those pairs
        // net to nothing and must not reach the rows.
        cancel_pairs(&mut removes, &mut adds);
        // Both lists are sorted: each image is found forward of the one
        // before it.
        let mut from = 0;
        let gone = removes
            .iter()
            .map(|row| {
                let i = gallop(&self.rows, from, row).ok()?;
                from = i + 1;
                Some(i)
            })
            .collect::<Option<Vec<usize>>>()?;
        from = 0;
        let at = adds
            .iter()
            .map(|row| {
                from = gallop(&self.rows, from, row).err()?;
                Some(from)
            })
            .collect::<Option<Vec<usize>>>()?;
        if !gone.is_empty() || !at.is_empty() {
            let old = std::mem::take(&mut self.rows);
            let mut rows = Vec::with_capacity(old.len() + at.len());
            let (mut g, mut a) = (0, 0);
            for (i, row) in old.into_iter().enumerate() {
                while at.get(a) == Some(&i) {
                    rows.push(adds[a].clone());
                    a += 1;
                }
                if gone.get(g) == Some(&i) {
                    g += 1;
                } else {
                    rows.push(row);
                }
            }
            rows.extend(adds[a..].iter().map(|row| (*row).clone()));
            self.rows = rows;
        }
        (self.rows.len() == table.len()).then_some((self.rows.as_slice(), merged))
    }
}

/// Where `row` is (`Ok`) or would go (`Err`) in the sorted `rows`,
/// searching only `rows[from..]` (`from` at most the length): 1, 2,
/// 4, … rows ahead of `from` until a row not below `row`, then by halves
/// within that last stride. A sorted batch of `k` images, each searched
/// from the last one's place, costs `O(k log(n / k))` row compares
/// instead of `k` searches of all `n` rows.
fn gallop(rows: &[Row], from: usize, row: &Row) -> Result<usize, usize> {
    let rest = &rows[from..];
    let (mut lo, mut stride) = (0, 1);
    while lo + stride < rest.len() && rest[lo + stride - 1] < *row {
        lo += stride;
        stride *= 2;
    }
    let hi = (lo + stride).min(rest.len());
    let base = from + lo;
    rest[lo..hi]
        .binary_search(row)
        .map(|i| base + i)
        .map_err(|i| base + i)
}

fn images(change: &NetChange) -> usize {
    match change {
        NetChange::Inserted { .. } | NetChange::Deleted { .. } => 1,
        NetChange::Updated { .. } => 2,
    }
}

/// Drop every row that occurs in both sorted lists, once per pairing.
fn cancel_pairs<'a>(removes: &mut Vec<&'a Row>, adds: &mut Vec<&'a Row>) {
    let (mut kept_removes, mut kept_adds) = (Vec::new(), Vec::new());
    let (mut r, mut a) = (0, 0);
    while r < removes.len() && a < adds.len() {
        match removes[r].cmp(adds[a]) {
            Ordering::Less => {
                kept_removes.push(removes[r]);
                r += 1;
            }
            Ordering::Greater => {
                kept_adds.push(adds[a]);
                a += 1;
            }
            Ordering::Equal => {
                r += 1;
                a += 1;
            }
        }
    }
    kept_removes.extend_from_slice(&removes[r..]);
    kept_adds.extend_from_slice(&adds[a..]);
    *removes = kept_removes;
    *adds = kept_adds;
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use idivm_reldb::{AccessStats, TableChanges};
    use idivm_types::{row, ColumnType, Key, Schema, Value};

    fn table() -> Table {
        let schema =
            Schema::from_pairs(&[("id", ColumnType::Int), ("v", ColumnType::Int)], &["id"])
                .unwrap();
        let mut t = Table::new("t", schema, AccessStats::new());
        for id in [5, 1, 11, 3, 9, 7] {
            t.load(row![id, 10 * id]).unwrap();
        }
        t
    }

    fn key(id: i64) -> Key {
        Key(vec![Value::Int(id)])
    }

    /// Apply `changes` to `t` the way a clean round would and hand the
    /// snapshot its Δ.
    fn round(t: &mut Table, snap: &mut Snapshot, changes: Vec<NetChange>) -> bool {
        let pre = t.version();
        let mut delta = TableChanges::new();
        for change in changes {
            let k = match &change {
                NetChange::Inserted { post } => {
                    t.insert(post.clone()).unwrap();
                    t.pk_of(post)
                }
                NetChange::Deleted { pre } => {
                    t.delete(&t.pk_of(pre)).unwrap();
                    t.pk_of(pre)
                }
                NetChange::Updated { pre, post } => {
                    t.update(&t.pk_of(pre), post.clone()).unwrap();
                    t.pk_of(pre)
                }
            };
            delta.insert(k, change);
        }
        snap.advance(pre, t.version(), &delta.into())
    }

    fn settled(snap: &mut Snapshot, t: &Table) -> Option<(Vec<Row>, usize)> {
        snap.settle(t).map(|(rows, merged)| (rows.to_vec(), merged))
    }

    #[test]
    fn settles_inserts_deletes_and_updates_at_both_ends() {
        let mut t = table();
        let mut snap = Snapshot::build(&t);
        assert!(round(
            &mut t,
            &mut snap,
            vec![
                NetChange::Inserted { post: row![0, 0] },
                NetChange::Inserted {
                    post: row![12, 120]
                },
                NetChange::Deleted { pre: row![3, 30] },
                NetChange::Updated {
                    pre: row![5, 50],
                    post: row![5, 51],
                },
            ],
        ));
        let (rows, merged) = settled(&mut snap, &t).unwrap();
        assert_eq!(rows, sorted(t.rows_uncounted()));
        assert_eq!(merged, 5);
        // Nothing pending: a second read merges nothing.
        assert_eq!(settled(&mut snap, &t).unwrap().1, 0);
    }

    #[test]
    fn a_row_that_comes_and_goes_across_rounds_cancels() {
        let mut t = table();
        let mut snap = Snapshot::build(&t);
        // Inserted, then deleted: never reaches the rows.
        assert!(round(
            &mut t,
            &mut snap,
            vec![NetChange::Inserted { post: row![2, 20] }]
        ));
        assert!(round(
            &mut t,
            &mut snap,
            vec![NetChange::Deleted { pre: row![2, 20] }]
        ));
        // Deleted, then re-inserted identically: stays where it is.
        assert!(round(
            &mut t,
            &mut snap,
            vec![NetChange::Deleted { pre: row![1, 10] }]
        ));
        assert!(round(
            &mut t,
            &mut snap,
            vec![NetChange::Inserted { post: row![1, 10] }]
        ));
        let (rows, merged) = settled(&mut snap, &t).unwrap();
        assert_eq!(rows, sorted(table().rows_uncounted()));
        assert_eq!(merged, 4);
    }

    #[test]
    fn a_write_the_snapshot_was_not_told_about_is_refused() {
        let mut t = table();
        let mut snap = Snapshot::build(&t);
        t.patch(&key(3), &[(1, Value::Int(31))]).unwrap();
        assert!(snap.settle(&t).is_none());
        // A later clean round cannot re-attach it either.
        let mut snap = Snapshot::build(&table());
        assert!(!round(
            &mut t,
            &mut snap,
            vec![NetChange::Deleted { pre: row![3, 31] }]
        ));
    }

    #[test]
    fn images_that_do_not_fit_the_rows_are_refused() {
        let t = table();
        let lie = |change: NetChange| {
            let mut snap = Snapshot::build(&t);
            let delta = TableChanges::from([(key(8), change)]).into();
            assert!(snap.advance(t.version(), t.version(), &delta));
            snap.settle(&t).is_none()
        };
        assert!(
            lie(NetChange::Deleted { pre: row![8, 80] }),
            "missing pre-image"
        );
        assert!(
            lie(NetChange::Inserted { post: row![3, 30] }),
            "post-image already present"
        );
        assert!(
            lie(NetChange::Inserted { post: row![8, 80] }),
            "row count disagrees"
        );
    }

    /// `gallop` from any start agrees with a binary search of the rows
    /// from there on.
    #[test]
    fn gallop_finds_what_binary_search_finds() {
        let rows: Vec<Row> = (0..40).map(|i| row![2 * i]).collect();
        for from in 0..=rows.len() {
            for probe in -1..82 {
                let want = rows[from..]
                    .binary_search(&row![probe])
                    .map(|i| from + i)
                    .map_err(|i| from + i);
                assert_eq!(gallop(&rows, from, &row![probe]), want, "{from} {probe}");
            }
        }
    }

    /// Seeded rounds of inserts, deletes and updates on distinct keys,
    /// some settled between rounds: every settle equals a snapshot built
    /// from scratch. A dropped snapshot is rebuilt, as the catalog does.
    #[test]
    fn settling_random_rounds_equals_a_fresh_build() {
        for seed in 0..40u64 {
            let mut state = seed;
            let mut next = move |n: u64| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) % n
            };
            let mut t = table();
            let mut snap = Snapshot::build(&t);
            for r in 0..40 {
                let mut ids: Vec<i64> = (0..1 + next(4)).map(|_| next(24) as i64).collect();
                ids.sort_unstable();
                ids.dedup();
                let changes = ids
                    .into_iter()
                    .map(|id| match t.get_uncounted(&key(id)) {
                        None => NetChange::Inserted {
                            post: row![id, next(5) as i64],
                        },
                        Some(pre) if next(2) == 0 => NetChange::Deleted { pre: pre.clone() },
                        Some(pre) => NetChange::Updated {
                            pre: pre.clone(),
                            post: row![id, pre[1].as_int().unwrap() + 1 + next(3) as i64],
                        },
                    })
                    .collect();
                if !round(&mut t, &mut snap, changes) {
                    snap = Snapshot::build(&t);
                } else if next(3) == 0 {
                    let (rows, _) = settled(&mut snap, &t).unwrap();
                    assert_eq!(rows, Snapshot::build(&t).rows(), "seed {seed} round {r}");
                }
            }
        }
    }

    #[test]
    fn pending_larger_than_the_rows_drops_the_snapshot() {
        let mut t = table();
        let mut snap = Snapshot::build(&t);
        assert!(round(
            &mut t,
            &mut snap,
            (20..26)
                .map(|id| NetChange::Inserted { post: row![id, 0] })
                .collect(),
        ));
        assert!(!round(
            &mut t,
            &mut snap,
            vec![NetChange::Inserted { post: row![26, 0] }]
        ));
    }
}
