//! Secondary hash indexes.
//!
//! A [`SecondaryIndex`] maps a value combination over some column subset
//! to the *slots* of the rows holding it — positions in the owning
//! [`Table`](crate::Table)'s row vector, 4 bytes a posting — and keeps,
//! per slot, where in its postings list the slot sits, so a row leaves
//! its list by one hash and one `swap_remove`. The paper's experimental
//! setup gives the *tuple-based* baseline "appropriate base table indices"
//! while the ID-based approach needs only the view index — the engine
//! therefore makes secondary indexes opt-in per table, and (matching the
//! paper, which does not charge index maintenance to the baseline) index
//! upkeep during DML is not counted in [`AccessStats`](crate::AccessStats).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::digest_map::{self, DigestMap};
use idivm_types::{Key, Row, Value};
use std::collections::hash_map::RandomState;

/// A hash index over a fixed set of column positions of one table.
#[derive(Debug, Clone)]
pub(crate) struct SecondaryIndex {
    /// Indexed column positions (in table-schema order given at creation).
    cols: Vec<usize>,
    /// Keys the digests of indexed values.
    state: RandomState,
    /// Indexed value combination → slots of the matching rows, filed by
    /// the value's digest.
    map: DigestMap<Postings>,
    /// Slot → its position in its postings list. Meaningful only for a
    /// posted slot; a stale entry is never read as one (see `remove`).
    at: Vec<u32>,
}

/// One indexed value and the slots of the rows holding it, in posting
/// order: pushed on insert, `swap_remove`d on removal. The value is kept
/// once per list, built when the list is; a row posted under a value
/// that already has one allocates nothing.
#[derive(Debug, Clone)]
struct Postings {
    value: Key,
    slots: Vec<u32>,
}

impl SecondaryIndex {
    /// Create an empty index over `cols`.
    pub(crate) fn new(cols: Vec<usize>) -> Self {
        SecondaryIndex {
            cols,
            state: RandomState::new(),
            map: DigestMap::default(),
            at: Vec::new(),
        }
    }

    /// The indexed column positions.
    pub(crate) fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Post `slot`, which holds `row`, at the end of its value's list.
    pub(crate) fn insert(&mut self, slot: u32, row: &Row) {
        let cols = &self.cols;
        let (list, _) = self.map.entry(
            digest_map::of_row(&self.state, row, cols),
            |p| row.matches(cols, &p.value.0),
            || Postings {
                value: row.key(cols),
                slots: Vec::new(),
            },
        );
        let s = slot as usize;
        if self.at.len() <= s {
            self.at.resize(s + 1, 0);
        }
        self.at[s] = list.slots.len() as u32;
        list.slots.push(slot);
    }

    /// Unpost `slot`, which holds `row`: one probe by the indexed value,
    /// read in place, then a `swap_remove` at the slot's recorded
    /// position, whose vacancy the list's last slot fills (its position
    /// follows). The list is dropped when it empties. A slot not posted
    /// under `row`'s value is left alone.
    pub(crate) fn remove(&mut self, slot: u32, row: &Row) {
        let cols = &self.cols;
        let digest = digest_map::of_row(&self.state, row, cols);
        let is = |p: &Postings| row.matches(cols, &p.value.0);
        let Some(list) = self.map.get_mut(digest, is) else {
            return;
        };
        let Some(&at) = self.at.get(slot as usize) else {
            return;
        };
        let at = at as usize;
        if list.slots.get(at) != Some(&slot) {
            return;
        }
        list.slots.swap_remove(at);
        if let Some(&moved) = list.slots.get(at) {
            if let Some(p) = self.at.get_mut(moved as usize) {
                *p = at as u32;
            }
        } else if list.slots.is_empty() {
            self.map.remove(digest, is);
        }
    }

    /// Re-file `slot` after its row changed from `before` to `after`.
    /// Touches the map only when an indexed column actually differs:
    /// an update that moves no indexed value costs the column compares
    /// and nothing else — no key build, no hash.
    pub(crate) fn refile(&mut self, slot: u32, before: &Row, after: &Row) {
        if self.cols.iter().any(|&c| before[c] != after[c]) {
            self.remove(slot, before);
            self.insert(slot, after);
        }
    }

    /// Slots of the rows whose indexed columns equal `probe`, in
    /// posting order.
    pub(crate) fn get(&self, probe: &[Value]) -> &[u32] {
        self.map
            .get(digest_map::of_probe(&self.state, probe), |p| {
                p.value.0 == probe
            })
            .map_or(&[], |p| p.slots.as_slice())
    }

    /// Remove and return the whole postings list of `probe` — for a
    /// caller about to delete every row on it, which would otherwise
    /// copy the list and then empty it one `remove` at a time.
    pub(crate) fn take(&mut self, probe: &[Value]) -> Vec<u32> {
        self.map
            .remove(digest_map::of_probe(&self.state, probe), |p| {
                p.value.0 == probe
            })
            .map_or_else(Vec::new, |p| p.slots)
    }

    /// Every indexed value with its postings, in no particular order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&Key, &[u32])> {
        self.map.values().map(|p| (&p.value, p.slots.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use idivm_types::row;

    fn probe(v: &str) -> Vec<Value> {
        vec![Value::str(v)]
    }

    /// Every posting's recorded position is where it sits.
    fn assert_positions(ix: &SecondaryIndex) {
        for (_, slots) in ix.entries() {
            for (i, &s) in slots.iter().enumerate() {
                assert_eq!(ix.at[s as usize] as usize, i, "slot {s}");
            }
        }
    }

    /// Four slots under one value, posted in slot order.
    fn four_phones() -> (SecondaryIndex, Vec<Row>) {
        let mut ix = SecondaryIndex::new(vec![1]);
        let rows: Vec<Row> = (0..4).map(|i| row![i, "phone"]).collect();
        for (s, r) in rows.iter().enumerate() {
            ix.insert(s as u32, r);
        }
        (ix, rows)
    }

    #[test]
    fn insert_lookup_remove() {
        let mut ix = SecondaryIndex::new(vec![1]);
        let r1 = row![1, "phone"];
        let r2 = row![2, "phone"];
        let r3 = row![3, "tablet"];
        ix.insert(1, &r1);
        ix.insert(2, &r2);
        ix.insert(3, &r3);

        assert_eq!(ix.get(&probe("phone")), &[1, 2]);
        assert_eq!(ix.entries().count(), 2);

        ix.remove(1, &r1);
        assert_eq!(ix.get(&probe("phone")), &[2]);
        ix.remove(2, &r2);
        assert!(ix.get(&probe("phone")).is_empty());
        assert_eq!(ix.entries().count(), 1);
        assert_positions(&ix);
    }

    /// Removing the head, a middle entry and the tail each leaves the
    /// `swap_remove` order with the moved slot's position fixed up; the
    /// only entry takes its list with it.
    #[test]
    fn remove_swaps_the_tail_into_the_gap() {
        let (mut ix, rows) = four_phones();
        ix.remove(0, &rows[0]); // head: the tail moves to the front
        assert_eq!(ix.get(&probe("phone")), &[3, 1, 2]);
        assert_positions(&ix);
        ix.remove(1, &rows[1]); // middle
        assert_eq!(ix.get(&probe("phone")), &[3, 2]);
        assert_positions(&ix);
        ix.remove(2, &rows[2]); // tail: nothing moves
        assert_eq!(ix.get(&probe("phone")), &[3]);
        assert_positions(&ix);
        ix.remove(3, &rows[3]); // only entry
        assert!(ix.get(&probe("phone")).is_empty());
        assert_eq!(ix.entries().count(), 0);
    }

    /// A slot not posted under the row's value — never posted, or
    /// taken out with its list, leaving a stale position behind — is no
    /// reason to touch, or panic on, anyone else's posting.
    #[test]
    fn removing_an_unposted_slot_changes_nothing() {
        let (mut ix, rows) = four_phones();
        ix.remove(1, &row![1, "tablet"]);
        ix.remove(9, &rows[0]);
        assert_eq!(ix.get(&probe("phone")), &[0, 1, 2, 3]);
        ix.take(&probe("phone"));
        ix.insert(10, &rows[0]);
        ix.insert(11, &rows[0]);
        ix.remove(1, &rows[1]); // stale position 1 now holds slot 11
        ix.remove(3, &rows[3]); // stale position 3 is past the end
        assert_eq!(ix.get(&probe("phone")), &[10, 11]);
        assert_positions(&ix);
    }

    #[test]
    fn refile_moves_only_when_an_indexed_column_differs() {
        let mut ix = SecondaryIndex::new(vec![1]);
        ix.insert(1, &row![1, "phone", 10]);
        ix.insert(2, &row![2, "phone", 20]);
        let before = ix.get(&probe("phone")).to_vec();
        // Unindexed column moved: postings untouched, order included.
        ix.refile(1, &row![1, "phone", 10], &row![1, "phone", 11]);
        assert_eq!(ix.get(&probe("phone")), before.as_slice());
        // Indexed column moved: the slot re-filed under the new value.
        ix.refile(1, &row![1, "phone", 11], &row![1, "tablet", 11]);
        assert_eq!(ix.get(&probe("phone")), &[2]);
        assert_eq!(ix.get(&probe("tablet")), &[1]);
        assert_positions(&ix);
    }

    /// `take` hands over the list in posting order and leaves the
    /// other values' postings where they were.
    #[test]
    fn take_removes_the_whole_list() {
        let (mut ix, rows) = four_phones();
        ix.insert(4, &row![4, "tablet"]);
        ix.remove(0, &rows[0]);
        assert_eq!(ix.take(&probe("phone")), vec![3, 1, 2]);
        assert!(ix.get(&probe("phone")).is_empty());
        assert!(ix.take(&probe("phone")).is_empty());
        assert_eq!(ix.get(&probe("tablet")), &[4]);
        assert_positions(&ix);
    }

    #[test]
    fn missing_probe_is_empty() {
        let ix = SecondaryIndex::new(vec![0]);
        assert!(ix.get(&[Value::Int(9)]).is_empty());
    }

    #[test]
    fn multi_column_index() {
        let mut ix = SecondaryIndex::new(vec![0, 1]);
        let r = row![1, "a", 10];
        ix.insert(7, &r);
        assert_eq!(ix.get(&[Value::Int(1), Value::str("a")]), &[7]);
        // A scattered column set is read in place, and found.
        let mut scattered = SecondaryIndex::new(vec![2, 0]);
        scattered.insert(7, &r);
        scattered.remove(7, &r);
        assert_eq!(scattered.entries().count(), 0);
    }
}
