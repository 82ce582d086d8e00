//! Secondary hash indexes.
//!
//! A [`SecondaryIndex`] maps a value combination over some column subset
//! to the primary keys of the rows holding it. The paper's experimental
//! setup gives the *tuple-based* baseline "appropriate base table indices"
//! while the ID-based approach needs only the view index — the engine
//! therefore makes secondary indexes opt-in per table, and (matching the
//! paper, which does not charge index maintenance to the baseline) index
//! upkeep during DML is not counted in [`AccessStats`](crate::AccessStats).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use idivm_types::{Key, Row, Value};
use std::collections::HashMap;

/// A hash index over a fixed set of column positions of one table.
#[derive(Debug, Clone, Default)]
pub struct SecondaryIndex {
    /// Indexed column positions (in table-schema order given at creation).
    cols: Vec<usize>,
    /// Indexed value combination → primary keys of matching rows.
    map: HashMap<Key, Vec<Key>>,
}

impl SecondaryIndex {
    /// Create an empty index over `cols`.
    pub fn new(cols: Vec<usize>) -> Self {
        SecondaryIndex {
            cols,
            map: HashMap::new(),
        }
    }

    /// The indexed column positions.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Register `row` (with primary key `pk`) in the index. Takes the
    /// key by value: the postings list stores an owned copy anyway, so
    /// callers that own a spare `Key` hand it over instead of paying a
    /// forced clone inside the index.
    pub fn insert(&mut self, pk: Key, row: &Row) {
        let k = row.key(&self.cols);
        self.map.entry(k).or_default().push(pk);
    }

    /// Remove `row` (with primary key `pk`) from the index. A single
    /// hash via the entry API: the postings `Vec` is dropped in place
    /// when it empties instead of being re-found and removed by a
    /// second probe.
    pub fn remove(&mut self, pk: &[Value], row: &Row) {
        if let std::collections::hash_map::Entry::Occupied(mut e) =
            self.map.entry(row.key(&self.cols))
        {
            let v = e.get_mut();
            if let Some(pos) = v.iter().position(|p| p.0 == pk) {
                v.swap_remove(pos);
            }
            if v.is_empty() {
                e.remove();
            }
        }
    }

    /// Re-file `pk` after its row changed from `before` to `after`.
    /// Touches the map only when an indexed column actually differs:
    /// an update that moves no indexed value costs the column compares
    /// and nothing else — no key build, no hash, no postings scan.
    pub fn refile(&mut self, pk: &[Value], before: &Row, after: &Row) {
        if self.cols.iter().any(|&c| before[c] != after[c]) {
            self.remove(pk, before);
            self.insert(Key(pk.to_vec()), after);
        }
    }

    /// Primary keys of rows whose indexed columns equal `probe`.
    pub fn get(&self, probe: &[Value]) -> &[Key] {
        self.map.get(probe).map_or(&[], |v| v.as_slice())
    }

    /// Remove and return the whole postings list of `probe` — for a
    /// caller about to delete every row on it, which would otherwise
    /// copy the list and then empty it one `remove` at a time.
    pub fn take(&mut self, probe: &[Value]) -> Vec<Key> {
        self.map.remove(probe).unwrap_or_default()
    }

    /// Number of distinct indexed values.
    pub fn distinct_values(&self) -> usize {
        self.map.len()
    }

    /// Deterministic (fully sorted) snapshot of the index contents, for
    /// bit-identity assertions. Postings lists are sorted because their
    /// in-memory order is an implementation detail (`swap_remove`);
    /// semantically they are sets.
    pub fn entries_sorted(&self) -> Vec<(Key, Vec<Key>)> {
        let mut out: Vec<(Key, Vec<Key>)> = self
            .map
            .iter()
            .map(|(k, v)| {
                let mut v = v.clone();
                v.sort();
                (k.clone(), v)
            })
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use idivm_types::row;

    fn pk(v: i64) -> Key {
        Key(vec![idivm_types::Value::Int(v)])
    }

    #[test]
    fn insert_lookup_remove() {
        let mut ix = SecondaryIndex::new(vec![1]);
        let r1 = row![1, "phone"];
        let r2 = row![2, "phone"];
        let r3 = row![3, "tablet"];
        ix.insert(pk(1), &r1);
        ix.insert(pk(2), &r2);
        ix.insert(pk(3), &r3);

        let probe = Key(vec![idivm_types::Value::str("phone")]);
        let mut hits: Vec<_> = ix.get(&probe.0).to_vec();
        hits.sort();
        assert_eq!(hits, vec![pk(1), pk(2)]);
        assert_eq!(ix.distinct_values(), 2);

        ix.remove(&pk(1).0, &r1);
        assert_eq!(ix.get(&probe.0), &[pk(2)]);
        ix.remove(&pk(2).0, &r2);
        assert!(ix.get(&probe.0).is_empty());
        assert_eq!(ix.distinct_values(), 1);
    }

    #[test]
    fn refile_moves_only_when_an_indexed_column_differs() {
        let mut ix = SecondaryIndex::new(vec![1]);
        ix.insert(pk(1), &row![1, "phone", 10]);
        ix.insert(pk(2), &row![2, "phone", 20]);
        let phone = Key(vec![idivm_types::Value::str("phone")]);
        let before = ix.get(&phone.0).to_vec();
        // Unindexed column moved: postings untouched, order included.
        ix.refile(&pk(1).0, &row![1, "phone", 10], &row![1, "phone", 11]);
        assert_eq!(ix.get(&phone.0), before.as_slice());
        // Indexed column moved: pk re-filed under the new value.
        ix.refile(&pk(1).0, &row![1, "phone", 11], &row![1, "tablet", 11]);
        assert_eq!(ix.get(&phone.0), &[pk(2)]);
        let tablet = Key(vec![idivm_types::Value::str("tablet")]);
        assert_eq!(ix.get(&tablet.0), &[pk(1)]);
    }

    #[test]
    fn missing_probe_is_empty() {
        let ix = SecondaryIndex::new(vec![0]);
        assert!(ix.get(&pk(9).0).is_empty());
    }

    #[test]
    fn multi_column_index() {
        let mut ix = SecondaryIndex::new(vec![0, 1]);
        let r = row![1, "a", 10];
        ix.insert(pk(7), &r);
        let probe = Key(vec![idivm_types::Value::Int(1), idivm_types::Value::str("a")]);
        assert_eq!(ix.get(&probe.0), &[pk(7)]);
    }
}
