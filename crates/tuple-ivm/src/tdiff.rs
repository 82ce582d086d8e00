//! Tuple-based diffs: full-row insert/delete/update sets over one
//! relation, and their application to a materialized view.

use idivm_algebra::aggregate::{Event, GroupDelta};
use idivm_algebra::AggSpec;
use idivm_core::apply::ApplyOutcome;
use idivm_exec::Batch;
use idivm_reldb::{NetChange, Table, TableChanges};
use idivm_types::{Key, Result, Row, Value};
use std::collections::{HashMap, HashSet};

/// The three t-diff tables `D⁺`, `D−`, `Du` of one relation, holding
/// *complete* rows of that relation's schema.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TDiffs {
    pub inserts: Vec<Row>,
    pub deletes: Vec<Row>,
    /// `(pre, post)` row pairs; keys never change between the two.
    pub updates: Vec<(Row, Row)>,
}

impl TDiffs {
    /// Total diff tuples (the paper's `|D|`).
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len() + self.updates.len()
    }

    /// True iff all three tables are empty.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty() && self.updates.is_empty()
    }

    /// Merge another diff set into this one.
    pub fn absorb(&mut self, other: TDiffs) {
        self.inserts.extend(other.inserts);
        self.deletes.extend(other.deletes);
        self.updates.extend(other.updates);
    }

    /// Fold the rows — a group-by's input rows, grouped by `keys` — into
    /// per-group deltas started from `fresh`, sorted by group key. An
    /// input row asserted twice in one kind (several operators below can
    /// report one vanished join row) is folded once: rows are told apart
    /// by the input's `ids`. An update that moves its row between groups
    /// leaves the one and joins the other.
    ///
    /// # Errors
    /// Argument-expression evaluation failures.
    pub fn group_deltas(
        &self,
        ids: &[usize],
        keys: &[usize],
        aggs: &[AggSpec],
        fresh: &GroupDelta,
    ) -> Result<Vec<(Key, GroupDelta)>> {
        let mut seen: HashSet<(u8, Key)> = HashSet::new();
        let mut groups: HashMap<Key, GroupDelta> = HashMap::new();
        let mut fold = |ev: Event<'_>| {
            let g = groups
                .entry(ev.row().key(keys))
                .or_insert_with(|| fresh.clone());
            g.fold(aggs, ev)
        };
        for r in &self.inserts {
            if seen.insert((b'+', r.key(ids))) {
                fold(Event::Ins(r))?;
            }
        }
        for r in &self.deletes {
            if seen.insert((b'-', r.key(ids))) {
                fold(Event::Del(r))?;
            }
        }
        for (p, q) in &self.updates {
            if !seen.insert((b'u', q.key(ids))) {
                continue;
            }
            if keys.iter().all(|&k| p[k] == q[k]) {
                fold(Event::Upd(p, q))?;
            } else {
                fold(Event::Del(p))?;
                fold(Event::Ins(q))?;
            }
        }
        let mut groups: Vec<(Key, GroupDelta)> = groups.into_iter().collect();
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(groups)
    }

    /// Build from the folded modification log of one base table.
    pub fn from_changes(changes: &TableChanges) -> TDiffs {
        let mut d = TDiffs::default();
        for c in changes.values() {
            match c {
                NetChange::Inserted { post } => d.inserts.push(post.clone()),
                NetChange::Deleted { pre } => d.deletes.push(pre.clone()),
                NetChange::Updated { pre, post } => {
                    d.updates.push((pre.clone(), post.clone()))
                }
            }
        }
        d
    }
}

/// Cut for the parallel fan-out one list at a time: the items are the
/// inserts, then the deletes, then the updates. A rule that maps each
/// list on its own (inserts and deletes to their own kind, updates to
/// any) therefore emits, chunk by chunk, exactly its serial output.
impl Batch for TDiffs {
    fn items(&self) -> usize {
        self.len()
    }

    fn split_off(&mut self, at: usize) -> Self {
        let inserts = at.min(self.inserts.len());
        let deletes = (at - inserts).min(self.deletes.len());
        let updates = (at - inserts - deletes).min(self.updates.len());
        TDiffs {
            inserts: self.inserts.split_off(inserts),
            deletes: self.deletes.split_off(deletes),
            updates: self.updates.split_off(updates),
        }
    }
}

/// Apply view-level t-diffs: per diff tuple one view index lookup (the
/// primary key probe) plus one tuple access when a row is actually
/// written — the view-modification cost of the paper's Table 2.
///
/// # Errors
/// Arity mismatches.
pub fn apply(view: &mut Table, diffs: &TDiffs) -> Result<ApplyOutcome> {
    let mut out = ApplyOutcome::default();
    let key_cols = view.schema().key().to_vec();
    // The probe key is projected into one reused vector.
    let mut pk: Vec<Value> = Vec::with_capacity(key_cols.len());
    for pre in &diffs.deletes {
        pk.clear();
        pk.extend(key_cols.iter().map(|&c| pre[c].clone()));
        if view.delete_where(&key_cols, &pk, |_, _| {}) == 0 {
            out.dummies += 1;
        } else {
            out.deleted += 1;
        }
    }
    let mut assignments: Vec<(usize, Value)> = Vec::new();
    for (pre, post) in &diffs.updates {
        debug_assert_eq!(pre.key(&key_cols), post.key(&key_cols));
        pk.clear();
        pk.extend(key_cols.iter().map(|&c| post[c].clone()));
        assignments.clear();
        assignments.extend(
            (0..post.arity())
                .filter(|c| !key_cols.contains(c))
                .map(|c| (c, post[c].clone())),
        );
        if view.patch_where(&key_cols, &pk, &assignments, |_, _| {}) == 0 {
            out.dummies += 1;
        } else {
            out.updated += 1;
        }
    }
    for row in &diffs.inserts {
        if view.insert_if_absent(row.clone())? {
            out.inserted += 1;
        } else {
            out.dummies += 1;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use idivm_reldb::AccessStats;
    use idivm_types::{row, ColumnType, Schema};

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
        t
    }

    /// Figure 2a: the t-diff needs one tuple *per view row*.
    #[test]
    fn updates_are_per_view_tuple() {
        let mut v = view();
        let d = TDiffs {
            updates: vec![
                (row!["D1", "P1", 10], row!["D1", "P1", 11]),
                (row!["D2", "P1", 10], row!["D2", "P1", 11]),
            ],
            ..Default::default()
        };
        v.stats().reset();
        let out = apply(&mut v, &d).unwrap();
        assert_eq!(out.updated, 2);
        // 2 lookups + 2 tuple accesses — contrast with the single-lookup
        // i-diff apply in idivm-core.
        let s = v.stats().snapshot();
        assert_eq!((s.index_lookups, s.tuple_accesses), (2, 2));
    }

    #[test]
    fn insert_dedupes_and_delete_tolerates_missing() {
        let mut v = view();
        let d = TDiffs {
            inserts: vec![row!["D1", "P1", 10], row!["D9", "P9", 90]],
            deletes: vec![row!["D7", "P7", 70]],
            ..Default::default()
        };
        let out = apply(&mut v, &d).unwrap();
        assert_eq!(out.inserted, 1);
        assert_eq!(out.dummies, 2); // duplicate insert + missing delete
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn split_off_cuts_the_lists_in_order() {
        let whole = TDiffs {
            inserts: vec![row![1], row![2], row![3]],
            deletes: vec![row![4], row![5]],
            updates: vec![(row![6], row![7]), (row![8], row![9])],
        };
        for at in 0..=whole.len() {
            let mut head = whole.clone();
            let tail = Batch::split_off(&mut head, at);
            assert_eq!((head.len(), tail.len()), (at, whole.len() - at));
            head.absorb(tail);
            assert_eq!(head, whole, "at {at}");
        }
    }

    #[test]
    fn from_changes_translates_net_effects() {
        use idivm_types::{Key, Value};
        let mut ch = TableChanges::new();
        ch.insert(
            Key(vec![Value::str("P1")]),
            NetChange::Updated {
                pre: row!["P1", 10],
                post: row!["P1", 11],
            },
        );
        ch.insert(
            Key(vec![Value::str("P2")]),
            NetChange::Deleted { pre: row!["P2", 20] },
        );
        let d = TDiffs::from_changes(&ch);
        assert_eq!(d.len(), 2);
        assert_eq!(d.updates.len(), 1);
        assert_eq!(d.deletes.len(), 1);
    }
}
