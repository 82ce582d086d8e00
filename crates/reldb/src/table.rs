//! Primary-key tables with counted access paths.
//!
//! Every [`Table`] is keyed by the primary key of its
//! [`idivm_types::Schema`] (the paper's standing assumption that
//! base tables have keys). Reads go through counted access paths —
//! [`Table::get`], [`Table::scan`], [`Table::lookup`] — which report tuple
//! accesses and index lookups to the shared [`AccessStats`] with the same
//! accounting as the paper's cost model: an index probe retrieving `m`
//! rows costs `1 + m`.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::index::SecondaryIndex;
use crate::log::{UndoLog, UndoOp};
use crate::stats::AccessStats;
use idivm_types::{Error, Key, Result, Row, Schema, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Order-insensitive structural fingerprint of a table: sorted rows
/// plus sorted secondary-index contents. Two tables with equal
/// signatures hold the same rows and answer every lookup identically
/// (index postings lists are order-insensitive sets). Used by the
/// fault-injection suite to assert that a rolled-back round restored
/// the exact pre-round state, indexes included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSignature {
    /// (primary key, row), sorted by key.
    pub rows: Vec<(Key, Row)>,
    /// (indexed columns, sorted postings), sorted by columns.
    pub indexes: Vec<IndexSignature>,
}

/// One secondary index's structural fingerprint: the indexed column
/// positions and the sorted `(index key -> posting keys)` entries.
pub type IndexSignature = (Vec<usize>, Vec<(Key, Vec<Key>)>);

/// What [`Table::patch`] did to a located row.
#[derive(Debug)]
pub struct Patched<'a> {
    /// The row as it was before the patch — `None` when every assigned
    /// value already equalled the stored one, in which case nothing was
    /// written, journaled or re-indexed.
    pub pre: Option<Row>,
    /// The stored row after the patch.
    pub post: &'a Row,
}

/// A stored relation (base table, materialized view, or IVM cache).
#[derive(Clone)]
pub struct Table {
    /// Shared with every [`UndoOp`] this table journals.
    name: Arc<str>,
    schema: Schema,
    rows: HashMap<Key, Row>,
    indexes: Vec<SecondaryIndex>,
    stats: AccessStats,
    undo: UndoLog,
    /// See [`Table::version`].
    version: u64,
}

impl Table {
    /// Create an empty table with its own (disarmed) undo journal.
    pub fn new(name: impl Into<Arc<str>>, schema: Schema, stats: AccessStats) -> Self {
        Table::with_undo(name, schema, stats, UndoLog::new())
    }

    /// Create an empty table journaling into a shared [`UndoLog`] —
    /// how [`Database`](crate::Database) wires every table into the
    /// per-round undo machinery (the same sharing pattern as `stats`).
    pub fn with_undo(
        name: impl Into<Arc<str>>,
        schema: Schema,
        stats: AccessStats,
        undo: UndoLog,
    ) -> Self {
        Table {
            name: name.into(),
            schema,
            rows: HashMap::new(),
            indexes: Vec::new(),
            stats,
            undo,
            version: 0,
        }
    }

    /// Mutation version: strictly increases on every change to the
    /// stored rows — a stored insert, a patch that moved a value, a
    /// delete, a [`Table::clear`], an undo replay. Reads, refused
    /// writes and patches that re-assert the stored values leave it
    /// alone. Whoever caches something derived from the rows keeps the
    /// version it was derived at: while the table still reports that
    /// version it holds the same rows, whoever had access to it since.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The shared undo journal this table records into.
    pub fn undo_log(&self) -> &UndoLog {
        &self.undo
    }

    /// Record an inverse operation if a round/session is open. The
    /// closure defers building the op (with its clones) until we know
    /// the journal is armed, so the disarmed cost is one relaxed load.
    fn journal(&self, op: impl FnOnce() -> UndoOp) {
        if self.undo.is_armed() {
            self.undo.record(op());
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema (including primary-key positions).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The shared access-counting instrument.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Primary key of `row` per this table's schema.
    pub fn pk_of(&self, row: &Row) -> Key {
        row.key(self.schema.key())
    }

    /// Create a secondary hash index over the named columns (idempotent).
    ///
    /// # Errors
    /// Fails if a column name is unknown.
    pub fn create_index(&mut self, cols: &[&str]) -> Result<()> {
        let mut positions = Vec::with_capacity(cols.len());
        for c in cols {
            positions.push(self.schema.index_of(c)?);
        }
        self.create_index_positions(positions);
        Ok(())
    }

    /// Create a secondary index over column positions (idempotent).
    pub fn create_index_positions(&mut self, positions: Vec<usize>) {
        if self.find_index(&positions).is_some() || positions == self.schema.key() {
            return;
        }
        self.journal(|| UndoOp::CreateIndex {
            table: self.name.clone(),
            cols: positions.clone(),
        });
        let mut ix = SecondaryIndex::new(positions);
        for (pk, row) in &self.rows {
            ix.insert(pk.clone(), row);
        }
        self.indexes.push(ix);
    }

    /// True iff an index (secondary or primary) exists over `positions`.
    pub fn has_index(&self, positions: &[usize]) -> bool {
        positions == self.schema.key() || self.find_index(positions).is_some()
    }

    /// Column-position lists of every secondary index, in creation
    /// order. A checkpoint records these definitions (postings are
    /// rebuilt from the restored rows via
    /// [`Table::create_index_positions`], which is content-deterministic).
    pub fn index_positions(&self) -> Vec<Vec<usize>> {
        self.indexes.iter().map(|ix| ix.cols().to_vec()).collect()
    }

    fn find_index(&self, positions: &[usize]) -> Option<&SecondaryIndex> {
        self.indexes.iter().find(|ix| ix.cols() == positions)
    }

    // ------------------------------------------------------------------
    // Counted read paths
    // ------------------------------------------------------------------

    /// Point lookup by primary key. Costs 1 index lookup, plus 1 tuple
    /// access when the row exists.
    pub fn get(&self, key: &Key) -> Option<&Row> {
        self.stats.index_lookup();
        let hit = self.rows.get(key);
        if hit.is_some() {
            self.stats.tuples(1);
        }
        hit
    }

    /// Existence probe by primary key. Costs 1 index lookup only (no
    /// tuple needs to be read to answer membership from the index).
    pub fn contains_key(&self, key: &Key) -> bool {
        self.stats.index_lookup();
        self.rows.contains_key(key)
    }

    /// Full scan. Costs one tuple access per stored row.
    pub fn scan(&self) -> Vec<Row> {
        self.stats.tuples(self.rows.len() as u64);
        self.rows.values().cloned().collect()
    }

    /// Iterate rows without materializing (same cost as [`Table::scan`]).
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        self.stats.tuples(self.rows.len() as u64);
        self.rows.values()
    }

    /// Equality lookup on an arbitrary column subset.
    ///
    /// With a matching index (or the primary key) this costs
    /// `1 + m` for `m` hits — the paper's index access model. Without one
    /// it degrades to a counted full scan, mirroring a DBMS that lacks the
    /// index.
    pub fn lookup(&self, positions: &[usize], probe: &Key) -> Vec<Row> {
        if positions == self.schema.key() {
            self.stats.index_lookup();
            return match self.rows.get(probe) {
                Some(r) => {
                    self.stats.tuples(1);
                    vec![r.clone()]
                }
                None => Vec::new(),
            };
        }
        if let Some(ix) = self.find_index(positions) {
            self.stats.index_lookup();
            let pks = ix.get(probe);
            self.stats.tuples(pks.len() as u64);
            return pks
                .iter()
                .map(|pk| self.rows[pk].clone())
                .collect();
        }
        // No index: counted scan with a filter.
        self.stats.tuples(self.rows.len() as u64);
        self.rows
            .values()
            .filter(|r| &r.key(positions) == probe)
            .cloned()
            .collect()
    }

    /// Primary keys of the rows whose `positions` columns equal `probe`.
    /// Costs exactly 1 index lookup (the paper's unit for locating
    /// to-be-modified view tuples) — the rows themselves are not read.
    /// Falls back to a counted scan when no index covers `positions`.
    pub fn pks_by(&self, positions: &[usize], probe: &Key) -> Vec<Key> {
        if positions == self.schema.key() {
            self.stats.index_lookup();
            return if self.rows.contains_key(probe) {
                vec![probe.clone()]
            } else {
                Vec::new()
            };
        }
        if let Some(ix) = self.find_index(positions) {
            self.stats.index_lookup();
            return ix.get(probe).to_vec();
        }
        self.stats.tuples(self.rows.len() as u64);
        self.rows
            .iter()
            .filter(|(_, r)| &r.key(positions) == probe)
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Uncounted read of all rows — for test assertions and oracle
    /// comparisons only, never inside measured IVM paths.
    pub fn rows_uncounted(&self) -> Vec<Row> {
        self.rows.values().cloned().collect()
    }

    /// Uncounted point read — for test assertions and internal plumbing.
    pub fn get_uncounted(&self, key: &Key) -> Option<&Row> {
        self.rows.get(key)
    }

    // ------------------------------------------------------------------
    // Write paths
    // ------------------------------------------------------------------

    /// Insert a row. Costs 1 tuple access (the write). Index maintenance
    /// is not charged (the paper's experiments do not charge it either).
    ///
    /// # Errors
    /// [`Error::DuplicateKey`] if a row with the same primary key exists;
    /// [`Error::Schema`] on arity mismatch.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        self.check_arity(&row)?;
        let pk = self.pk_of(&row);
        if self.rows.contains_key(&pk) {
            return Err(Error::DuplicateKey(format!(
                "table `{}`, key {:?}",
                self.name, pk
            )));
        }
        self.stats.tuples(1);
        self.store(pk, row);
        Ok(())
    }

    /// Bulk load a row without touching the counters (workload setup).
    ///
    /// # Errors
    /// Same conditions as [`Table::insert`].
    pub fn load(&mut self, row: Row) -> Result<()> {
        self.check_arity(&row)?;
        let pk = self.pk_of(&row);
        if self.rows.contains_key(&pk) {
            return Err(Error::DuplicateKey(format!(
                "table `{}`, key {:?}",
                self.name, pk
            )));
        }
        self.store(pk, row);
        Ok(())
    }

    /// Journal, index and store a row whose key is known to be free.
    fn store(&mut self, pk: Key, row: Row) {
        self.journal(|| UndoOp::Insert {
            table: self.name.clone(),
            pk: pk.clone(),
        });
        for ix in &mut self.indexes {
            ix.insert(pk.clone(), &row);
        }
        self.rows.insert(pk, row);
        self.version += 1;
    }

    /// Delete by primary key, returning the removed row. Costs 1 index
    /// lookup plus 1 tuple access when the row existed.
    pub fn delete(&mut self, key: &Key) -> Option<Row> {
        self.stats.index_lookup();
        self.delete_located(key)
    }

    /// Overwrite the non-key attributes of the row with primary key
    /// `key`, returning the pre-state row. Costs 1 index lookup + 1 tuple
    /// access. Key columns must be unchanged (the paper treats keys as
    /// immutable; a key change is modelled as delete + insert).
    ///
    /// # Errors
    /// [`Error::NotFound`] if no such row; [`Error::Schema`] if `post`
    /// disagrees with the key or has wrong arity.
    pub fn update(&mut self, key: &Key, post: Row) -> Result<Row> {
        self.check_arity(&post)?;
        if &self.pk_of(&post) != key {
            return Err(Error::Schema(format!(
                "update must not change key columns (table `{}`)",
                self.name
            )));
        }
        self.stats.index_lookup();
        let assignments: Vec<(usize, Value)> = post.0.into_iter().enumerate().collect();
        match self.patch(key, &assignments) {
            Some(p) => Ok(p.pre.unwrap_or_else(|| p.post.clone())),
            None => Err(self.not_found(key)),
        }
    }

    /// Update selected columns of the row with primary key `key`,
    /// returning `(pre, post)` rows. Cost as [`Table::update`].
    ///
    /// # Errors
    /// Same conditions as [`Table::update`]; also rejects key-column
    /// assignments.
    pub fn update_columns(
        &mut self,
        key: &Key,
        assignments: &[(usize, Value)],
    ) -> Result<(Row, Row)> {
        for (col, _) in assignments {
            if self.schema.is_key_col(*col) {
                return Err(Error::Schema(format!(
                    "cannot update key column {} of `{}`",
                    self.schema.name_of(*col),
                    self.name
                )));
            }
        }
        let Some(p) = self.patch(key, assignments) else {
            return Err(self.not_found(key));
        };
        let post = p.post.clone();
        let pre = p.pre.unwrap_or_else(|| post.clone());
        self.stats.index_lookup();
        Ok((pre, post))
    }

    /// Patch the non-key columns of an already-located row (by primary
    /// key), in place. Costs 1 tuple access and **no** index lookup —
    /// the caller located the row via [`Table::pks_by`]. `None` if the
    /// row vanished. Key-column assignments are ignored (keys are
    /// immutable).
    ///
    /// The work is proportional to what changed: an assignment that
    /// re-asserts the stored value writes nothing, a row none of whose
    /// values moved is neither cloned nor journaled, the undo record
    /// carries only the overwritten values, and a secondary index is
    /// re-filed only when one of its columns actually differs.
    pub fn patch(&mut self, pk: &Key, assignments: &[(usize, Value)]) -> Option<Patched<'_>> {
        let slot = self.rows.get_mut(pk)?;
        self.stats.tuples(1);
        let armed = self.undo.is_armed();
        let mut pre: Option<Row> = None;
        let mut old = Vec::new();
        for (col, v) in assignments {
            if self.schema.is_key_col(*col) || slot.0[*col] == *v {
                continue;
            }
            if pre.is_none() {
                pre = Some(slot.clone());
            }
            let was = std::mem::replace(&mut slot.0[*col], v.clone());
            if armed {
                old.push((*col, was));
            }
        }
        if let Some(pre) = &pre {
            if armed {
                self.undo.record(UndoOp::Update {
                    table: self.name.clone(),
                    pk: pk.clone(),
                    old,
                });
            }
            for ix in &mut self.indexes {
                ix.refile(pk, pre, slot);
            }
            self.version += 1;
        }
        Some(Patched { pre, post: slot })
    }

    /// Insert `row` unless an identical row is already present — the
    /// apply semantics of insert i-diffs (paper Section 2: "an attempt
    /// is made to insert a tuple into V only if it does not already
    /// exist in V in the exact same form"). Costs 1 index lookup (the
    /// `NOT IN` membership probe) plus 1 tuple access when the write
    /// happens. Returns whether the row was inserted.
    ///
    /// # Errors
    /// [`Error::DuplicateKey`] when a *different* row with the same
    /// primary key exists (an ineffective diff — a bug upstream);
    /// [`Error::Schema`] on arity mismatch.
    pub fn insert_if_absent(&mut self, row: Row) -> Result<bool> {
        self.check_arity(&row)?;
        let pk = self.pk_of(&row);
        self.stats.index_lookup();
        match self.rows.get(&pk) {
            Some(existing) if *existing == row => Ok(false),
            Some(_) => Err(Error::DuplicateKey(format!(
                "table `{}`: conflicting insert for key {:?}",
                self.name, pk
            ))),
            None => {
                self.stats.tuples(1);
                self.store(pk, row);
                Ok(true)
            }
        }
    }

    /// Delete an already-located row (by primary key). Costs 1 tuple
    /// access and no index lookup (see [`Table::patch`]). Returns the
    /// removed row.
    pub fn delete_located(&mut self, pk: &Key) -> Option<Row> {
        let row = self.rows.remove(pk)?;
        self.stats.tuples(1);
        self.journal(|| UndoOp::Delete {
            table: self.name.clone(),
            row: row.clone(),
        });
        for ix in &mut self.indexes {
            ix.remove(pk, &row);
        }
        self.version += 1;
        Some(row)
    }

    /// Remove all rows (indexes are kept, emptied). Uncounted. Only
    /// used outside maintenance rounds (workload resets, recompute
    /// repair after rollback), but journaled defensively: with a
    /// session open, each removed row is recorded for restoration.
    pub fn clear(&mut self) {
        self.version += 1;
        if self.undo.is_armed() {
            for row in self.rows.values() {
                self.undo.record(UndoOp::Delete {
                    table: self.name.clone(),
                    row: row.clone(),
                });
            }
        }
        self.rows.clear();
        let defs: Vec<Vec<usize>> = self.indexes.iter().map(|ix| ix.cols().to_vec()).collect();
        self.indexes = defs.into_iter().map(SecondaryIndex::new).collect();
    }

    // ------------------------------------------------------------------
    // Rollback replay and state fingerprinting
    // ------------------------------------------------------------------

    /// Replay one inverse operation, exactly reversing the mutation
    /// that journaled it. **Uncounted** — rollback is failure
    /// machinery, not a measured IVM path — and never re-journaled
    /// (the ops below bypass the recording mutators).
    pub fn apply_undo(&mut self, op: UndoOp) {
        self.version += 1;
        match op {
            UndoOp::Insert { pk, .. } => {
                if let Some(row) = self.rows.remove(&pk) {
                    for ix in &mut self.indexes {
                        ix.remove(&pk, &row);
                    }
                }
            }
            UndoOp::Delete { row, .. } => {
                let pk = self.pk_of(&row);
                for ix in &mut self.indexes {
                    ix.insert(pk.clone(), &row);
                }
                self.rows.insert(pk, row);
            }
            UndoOp::Update { pk, old, .. } => {
                if let Some(slot) = self.rows.get_mut(&pk) {
                    let post = slot.clone();
                    // Reverse order: should one column ever be
                    // recorded twice, its oldest value lands last.
                    for (col, v) in old.into_iter().rev() {
                        slot.0[col] = v;
                    }
                    for ix in &mut self.indexes {
                        ix.refile(&pk, &post, slot);
                    }
                }
            }
            UndoOp::CreateIndex { cols, .. } => {
                self.indexes.retain(|ix| ix.cols() != cols.as_slice());
            }
        }
    }

    /// Uncounted structural fingerprint — see [`TableSignature`].
    pub fn signature(&self) -> TableSignature {
        let mut rows: Vec<(Key, Row)> = self
            .rows
            .iter()
            .map(|(k, r)| (k.clone(), r.clone()))
            .collect();
        rows.sort();
        let mut indexes: Vec<IndexSignature> = self
            .indexes
            .iter()
            .map(|ix| (ix.cols().to_vec(), ix.entries_sorted()))
            .collect();
        indexes.sort();
        TableSignature { rows, indexes }
    }

    fn not_found(&self, key: &Key) -> Error {
        Error::NotFound(format!("table `{}`, key {:?}", self.name, key))
    }

    fn check_arity(&self, row: &Row) -> Result<()> {
        if row.arity() != self.schema.arity() {
            return Err(Error::Schema(format!(
                "row arity {} != schema arity {} for `{}`",
                row.arity(),
                self.schema.arity(),
                self.name
            )));
        }
        Ok(())
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Table {} {} [{} rows, {} indexes]",
            self.name,
            self.schema,
            self.rows.len(),
            self.indexes.len()
        )
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use idivm_types::{row, ColumnType};

    fn parts_table() -> Table {
        let schema = Schema::from_pairs(
            &[("pid", ColumnType::Str), ("price", ColumnType::Int)],
            &["pid"],
        )
        .unwrap();
        Table::new("parts", schema, AccessStats::new())
    }

    fn key(s: &str) -> Key {
        Key(vec![Value::str(s)])
    }

    #[test]
    fn insert_get_delete_with_costs() {
        let mut t = parts_table();
        t.insert(row!["P1", 10]).unwrap();
        t.insert(row!["P2", 20]).unwrap();
        let s0 = t.stats().snapshot();
        assert_eq!(s0.tuple_accesses, 2); // the two insert writes

        assert_eq!(t.get(&key("P1")).unwrap(), &row!["P1", 10]);
        let s1 = t.stats().snapshot().since(&s0);
        assert_eq!((s1.index_lookups, s1.tuple_accesses), (1, 1));

        assert!(t.get(&key("P9")).is_none());
        let deleted = t.delete(&key("P1")).unwrap();
        assert_eq!(deleted, row!["P1", 10]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut t = parts_table();
        t.insert(row!["P1", 10]).unwrap();
        assert!(matches!(
            t.insert(row!["P1", 99]),
            Err(Error::DuplicateKey(_))
        ));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = parts_table();
        assert!(matches!(t.insert(row!["P1"]), Err(Error::Schema(_))));
    }

    #[test]
    fn update_returns_pre_state_and_counts() {
        let mut t = parts_table();
        t.load(row!["P1", 10]).unwrap();
        let s0 = t.stats().snapshot();
        let pre = t.update(&key("P1"), row!["P1", 11]).unwrap();
        assert_eq!(pre, row!["P1", 10]);
        assert_eq!(t.get_uncounted(&key("P1")).unwrap(), &row!["P1", 11]);
        let d = t.stats().snapshot().since(&s0);
        assert_eq!((d.index_lookups, d.tuple_accesses), (1, 1));
    }

    #[test]
    fn update_cannot_change_key() {
        let mut t = parts_table();
        t.load(row!["P1", 10]).unwrap();
        assert!(t.update(&key("P1"), row!["P2", 10]).is_err());
        assert!(t
            .update_columns(&key("P1"), &[(0, Value::str("PX"))])
            .is_err());
    }

    #[test]
    fn update_columns_patches_subset() {
        let mut t = parts_table();
        t.load(row!["P1", 10]).unwrap();
        let (pre, post) = t
            .update_columns(&key("P1"), &[(1, Value::Int(11))])
            .unwrap();
        assert_eq!(pre, row!["P1", 10]);
        assert_eq!(post, row!["P1", 11]);
    }

    #[test]
    fn secondary_index_lookup_costs_one_plus_m() {
        let schema = Schema::from_pairs(
            &[("did", ColumnType::Str), ("category", ColumnType::Str)],
            &["did"],
        )
        .unwrap();
        let mut t = Table::new("devices", schema, AccessStats::new());
        t.create_index(&["category"]).unwrap();
        t.load(row!["D1", "phone"]).unwrap();
        t.load(row!["D2", "phone"]).unwrap();
        t.load(row!["D3", "tablet"]).unwrap();

        let s0 = t.stats().snapshot();
        let hits = t.lookup(&[1], &Key(vec![Value::str("phone")]));
        assert_eq!(hits.len(), 2);
        let d = t.stats().snapshot().since(&s0);
        assert_eq!((d.index_lookups, d.tuple_accesses), (1, 2));
    }

    #[test]
    fn lookup_without_index_scans() {
        let mut t = parts_table();
        t.load(row!["P1", 10]).unwrap();
        t.load(row!["P2", 20]).unwrap();
        t.load(row!["P3", 20]).unwrap();
        let s0 = t.stats().snapshot();
        let hits = t.lookup(&[1], &Key(vec![Value::Int(20)]));
        assert_eq!(hits.len(), 2);
        let d = t.stats().snapshot().since(&s0);
        assert_eq!((d.index_lookups, d.tuple_accesses), (0, 3)); // full scan
    }

    #[test]
    fn lookup_on_pk_uses_pk_map() {
        let mut t = parts_table();
        t.load(row!["P1", 10]).unwrap();
        let s0 = t.stats().snapshot();
        let hits = t.lookup(&[0], &key("P1"));
        assert_eq!(hits, vec![row!["P1", 10]]);
        let d = t.stats().snapshot().since(&s0);
        assert_eq!((d.index_lookups, d.tuple_accesses), (1, 1));
    }

    #[test]
    fn index_stays_consistent_across_dml() {
        let schema = Schema::from_pairs(
            &[("id", ColumnType::Int), ("grp", ColumnType::Int)],
            &["id"],
        )
        .unwrap();
        let mut t = Table::new("t", schema, AccessStats::new());
        t.create_index(&["grp"]).unwrap();
        for i in 0..10 {
            t.load(row![i, i % 2]).unwrap();
        }
        // move id=0 from grp 0 to grp 1
        t.update(&Key(vec![Value::Int(0)]), row![0, 1]).unwrap();
        t.delete(&Key(vec![Value::Int(2)])); // remove a grp-0 row
        let g0 = t.lookup(&[1], &Key(vec![Value::Int(0)]));
        let g1 = t.lookup(&[1], &Key(vec![Value::Int(1)]));
        assert_eq!(g0.len(), 3); // ids 4,6,8
        assert_eq!(g1.len(), 6); // ids 1,3,5,7,9 and moved 0
    }

    #[test]
    fn pks_by_costs_single_lookup() {
        let schema = Schema::from_pairs(
            &[("id", ColumnType::Int), ("grp", ColumnType::Int)],
            &["id"],
        )
        .unwrap();
        let mut t = Table::new("t", schema, AccessStats::new());
        t.create_index(&["grp"]).unwrap();
        for i in 0..6 {
            t.load(row![i, i % 2]).unwrap();
        }
        let s0 = t.stats().snapshot();
        let pks = t.pks_by(&[1], &Key(vec![Value::Int(0)]));
        assert_eq!(pks.len(), 3);
        let d = t.stats().snapshot().since(&s0);
        assert_eq!((d.index_lookups, d.tuple_accesses), (1, 0));
    }

    #[test]
    fn patch_costs_one_tuple_access() {
        let mut t = parts_table();
        t.load(row!["P1", 10]).unwrap();
        let s0 = t.stats().snapshot();
        let pre = t.patch(&key("P1"), &[(1, Value::Int(99))]).unwrap().pre;
        assert_eq!(pre, Some(row!["P1", 10]));
        let d = t.stats().snapshot().since(&s0);
        assert_eq!((d.index_lookups, d.tuple_accesses), (0, 1));
        assert_eq!(t.get_uncounted(&key("P1")).unwrap(), &row!["P1", 99]);
    }

    #[test]
    fn patch_ignores_key_assignments() {
        let mut t = parts_table();
        t.load(row!["P1", 10]).unwrap();
        t.patch(&key("P1"), &[(0, Value::str("PX")), (1, Value::Int(5))]);
        assert_eq!(t.get_uncounted(&key("P1")).unwrap(), &row!["P1", 5]);
    }

    #[test]
    fn insert_if_absent_semantics() {
        let mut t = parts_table();
        t.load(row!["P1", 10]).unwrap();
        // Identical row: no-op, allowed (multiple insert i-diffs may
        // carry the same tuple).
        assert!(!t.insert_if_absent(row!["P1", 10]).unwrap());
        // Conflicting row with same key: upstream bug.
        assert!(t.insert_if_absent(row!["P1", 99]).is_err());
        // Fresh row: inserted.
        let s0 = t.stats().snapshot();
        assert!(t.insert_if_absent(row!["P2", 20]).unwrap());
        let d = t.stats().snapshot().since(&s0);
        assert_eq!((d.index_lookups, d.tuple_accesses), (1, 1));
    }

    #[test]
    fn delete_located_costs_one_access() {
        let mut t = parts_table();
        t.load(row!["P1", 10]).unwrap();
        let s0 = t.stats().snapshot();
        assert_eq!(t.delete_located(&key("P1")), Some(row!["P1", 10]));
        let d = t.stats().snapshot().since(&s0);
        assert_eq!((d.index_lookups, d.tuple_accesses), (0, 1));
        assert!(t.delete_located(&key("P1")).is_none());
    }

    #[test]
    fn load_is_uncounted() {
        let mut t = parts_table();
        t.load(row!["P1", 10]).unwrap();
        assert_eq!(t.stats().snapshot().total(), 0);
    }

    #[test]
    fn undo_roundtrip_restores_rows_and_indexes() {
        let schema = Schema::from_pairs(
            &[("id", ColumnType::Int), ("grp", ColumnType::Int)],
            &["id"],
        )
        .unwrap();
        let mut t = Table::new("t", schema, AccessStats::new());
        t.create_index(&["grp"]).unwrap();
        for i in 0..6 {
            t.load(row![i, i % 2]).unwrap();
        }
        let before = t.signature();

        // Open a session, mutate every which way, then roll back.
        let undo = t.undo_log().clone();
        let mark = undo.arm();
        t.insert(row![100, 0]).unwrap();
        t.delete(&Key(vec![Value::Int(1)])).unwrap();
        t.update(&Key(vec![Value::Int(2)]), row![2, 7]).unwrap();
        t.patch(&Key(vec![Value::Int(3)]), &[(1, Value::Int(9))])
            .unwrap();
        t.insert_if_absent(row![101, 1]).unwrap();
        t.delete_located(&Key(vec![Value::Int(4)])).unwrap();
        t.create_index_positions(vec![0, 1]);
        assert_ne!(t.signature(), before, "mutations must be visible");

        let s0 = t.stats().snapshot();
        for op in undo.split_off(mark).into_iter().rev() {
            t.apply_undo(op);
        }
        undo.disarm();
        assert_eq!(t.signature(), before, "rollback must be bit-identical");
        assert_eq!(
            t.stats().snapshot().since(&s0).total(),
            0,
            "rollback must be uncounted"
        );
    }

    #[test]
    fn disarmed_journal_records_nothing() {
        let mut t = parts_table();
        t.insert(row!["P1", 10]).unwrap();
        t.delete(&key("P1"));
        assert!(t.undo_log().is_empty());
    }

    #[test]
    fn clear_resets_rows_but_keeps_index_defs() {
        let mut t = parts_table();
        t.create_index(&["price"]).unwrap();
        t.load(row!["P1", 10]).unwrap();
        t.clear();
        assert!(t.is_empty());
        assert!(t.has_index(&[1]));
        t.load(row!["P2", 10]).unwrap();
        let hits = t.lookup(&[1], &Key(vec![Value::Int(10)]));
        assert_eq!(hits.len(), 1);
    }
}
