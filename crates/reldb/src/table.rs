//! Primary-key tables with counted access paths.
//!
//! Every [`Table`] is keyed by the primary key of its
//! [`idivm_types::Schema`] (the paper's standing assumption that
//! base tables have keys). Reads go through counted access paths —
//! [`Table::get`], [`Table::scan`], [`Table::lookup`] — which report tuple
//! accesses and index lookups to the shared [`AccessStats`] with the same
//! accounting as the paper's cost model: an index probe retrieving `m`
//! rows costs `1 + m`.
//!
//! Rows live in *slots*, positions of one vector per table. The
//! primary-key map and every secondary index hold slot numbers, so a row
//! located once — through its key or through an index — is read, patched
//! or removed without hashing its key again. Both kinds of map file a
//! slot by the digest of its key columns, read in place from the row
//! (see [`crate::digest_map`]): a stored row keeps no key beside it.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::digest_map::{self, DigestMap};
use crate::index::SecondaryIndex;
use crate::log::{UndoLog, UndoOp};
use crate::stats::AccessStats;
use idivm_types::{Error, Key, Result, Row, Schema, Value};
use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The next [`Table::id`]. Process-wide, so no two tables — of one
/// database or of two — are ever handed the same one.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

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
    /// The *displaced* row — the very allocation the table stored
    /// before the patch, handed over instead of copied — or `None` when
    /// every assigned value already equalled the stored one, in which
    /// case nothing was written, journaled or re-indexed.
    pub pre: Option<Row>,
    /// The stored row after the patch (a newly built row when `pre` is
    /// `Some`, the untouched one otherwise).
    pub post: &'a Row,
}

/// A stored relation (base table, materialized view, or IVM cache).
#[derive(Clone)]
pub struct Table {
    /// Shared with every [`UndoOp`] this table journals.
    name: Arc<str>,
    schema: Schema,
    /// Keys the digests of primary keys.
    state: RandomState,
    /// Primary key → the slot its row is stored in, filed by the key's
    /// digest and told apart by the stored row's key columns.
    pks: DigestMap<u32>,
    /// The stored rows by slot; `None` is a free slot, listed in
    /// `free`. (`u32` slots: four billion rows is beyond what this
    /// in-memory store holds.)
    slots: Vec<Option<Row>>,
    /// Free slots, the last one freed reused first.
    free: Vec<u32>,
    indexes: Vec<SecondaryIndex>,
    stats: AccessStats,
    undo: UndoLog,
    /// See [`Table::id`].
    id: u64,
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
            state: RandomState::new(),
            pks: DigestMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            indexes: Vec::new(),
            stats,
            undo,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            version: 0,
        }
    }

    /// Identity of this incarnation: never handed out twice, so a table
    /// dropped and created again under its old name is a different
    /// table to whoever remembers the id. (A clone keeps the id of the
    /// table it was cloned from.)
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Mutation version: strictly increases on every change to the
    /// stored rows — a stored insert, a patch that moved a value, a
    /// delete, a [`Table::clear`], an undo replay. Reads, refused
    /// writes and patches that re-assert the stored values leave it
    /// alone; so does creating or rolling back a secondary index
    /// ([`Table::index_positions`] tells). Whoever caches something
    /// derived from the rows keeps the [`Table::id`] and the version it
    /// was derived at: while the table of that id still reports that
    /// version it holds the same rows, whoever had access to it since.
    /// The version alone does not say so — every table starts at 0, and
    /// two incarnations of one name can count the same number of writes.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The shared undo journal this table records into.
    pub fn undo_log(&self) -> &UndoLog {
        &self.undo
    }

    /// Record an inverse operation if a round/session is open. The
    /// closure defers building the op until we know the journal is
    /// armed, so the disarmed cost is one relaxed load.
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
        self.pks.len()
    }

    /// True iff the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The row in slot `s`; `None` for a free slot, so a posting that
    /// outlived its row reads as absent.
    fn row_at(&self, s: u32) -> Option<&Row> {
        self.slots.get(s as usize)?.as_ref()
    }

    /// The slot of the row stored under primary key `pk`.
    fn locate(&self, pk: &[Value]) -> Option<u32> {
        let (slots, key) = (&self.slots, self.schema.key());
        let digest = digest_map::of_probe(&self.state, pk);
        self.pks.get(digest, |&s| holds(slots, s, key, pk)).copied()
    }

    /// The slot of the row stored under `row`'s primary key.
    fn locate_row(&self, row: &Row) -> Option<u32> {
        let (slots, key) = (&self.slots, self.schema.key());
        let digest = digest_map::of_row(&self.state, row, key);
        self.pks
            .get(digest, |&s| holds_key_of(slots, s, key, row))
            .copied()
    }

    /// File the [`Table::next_slot`] under `row`'s primary key, in one
    /// probe — `Err` with the slot already filed there instead.
    fn claim(&mut self, row: &Row) -> std::result::Result<u32, u32> {
        let next = self.next_slot();
        let (slots, key) = (&self.slots, self.schema.key());
        let digest = digest_map::of_row(&self.state, row, key);
        match self
            .pks
            .entry(digest, |&s| holds_key_of(slots, s, key, row), || next)
        {
            (_, true) => Ok(next),
            (&mut filed, false) => Err(filed),
        }
    }

    /// Take slot `s` out of the primary-key map, its digest read from
    /// the row it holds. `false` when it holds none or is not filed.
    fn unfile(&mut self, s: u32) -> bool {
        let key = self.schema.key();
        let Some(digest) = self
            .row_at(s)
            .map(|r| digest_map::of_row(&self.state, r, key))
        else {
            return false;
        };
        self.pks.remove(digest, |&t| t == s).is_some()
    }

    /// Every stored row, in slot order.
    fn stored(&self) -> impl Iterator<Item = &Row> {
        self.slots.iter().flatten()
    }

    /// Every stored row, shared, in one allocation of the exact size
    /// (skipping free slots, the iterator cannot tell its length).
    fn all_rows(&self) -> Vec<Row> {
        let mut rows = Vec::with_capacity(self.len());
        rows.extend(self.stored().cloned());
        rows
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
    /// Indexes are created at registration, never inside a round, so
    /// the undo journal has nothing to reverse here.
    pub fn create_index_positions(&mut self, positions: Vec<usize>) {
        if self.find_index(&positions).is_some() || positions == self.schema.key() {
            return;
        }
        debug_assert!(!self.undo.is_armed(), "an index created inside a round");
        let mut ix = SecondaryIndex::new(positions);
        for (s, row) in self.slots.iter().enumerate() {
            if let Some(row) = row {
                ix.insert(s as u32, row);
            }
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
    pub fn get(&self, key: &(impl Borrow<[Value]> + ?Sized)) -> Option<&Row> {
        self.stats.index_lookup();
        let hit = self.get_uncounted(key);
        if hit.is_some() {
            self.stats.tuples(1);
        }
        hit
    }

    /// Existence probe by primary key. Costs 1 index lookup only (no
    /// tuple needs to be read to answer membership from the index).
    pub fn contains_key(&self, key: &(impl Borrow<[Value]> + ?Sized)) -> bool {
        self.stats.index_lookup();
        self.locate(key.borrow()).is_some()
    }

    /// Full scan. Costs one tuple access per stored row. The rows are
    /// shared with the table, not copied.
    pub fn scan(&self) -> Vec<Row> {
        self.stats.tuples(self.len() as u64);
        self.all_rows()
    }

    /// Iterate rows without materializing (same cost as [`Table::scan`]).
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        self.stats.tuples(self.len() as u64);
        self.stored()
    }

    /// Equality lookup on an arbitrary column subset; `probe` is a
    /// [`Key`] or any borrowed `[Value]` (a diff row's leading ID slots,
    /// a reused scratch vector).
    ///
    /// With a matching index (or the primary key) this costs
    /// `1 + m` for `m` hits — the paper's index access model. Without one
    /// it degrades to a counted full scan, mirroring a DBMS that lacks the
    /// index.
    pub fn lookup(
        &self,
        positions: &[usize],
        probe: &(impl Borrow<[Value]> + ?Sized),
    ) -> Vec<Row> {
        let probe = probe.borrow();
        if positions == self.schema.key() {
            return self.get(probe).cloned().into_iter().collect();
        }
        if let Some(ix) = self.find_index(positions) {
            self.stats.index_lookup();
            let posted = ix.get(probe);
            self.stats.tuples(posted.len() as u64);
            return posted
                .iter()
                .filter_map(|&s| self.row_at(s))
                .cloned()
                .collect();
        }
        // No index: counted scan with a filter.
        self.iter()
            .filter(|r| r.matches(positions, probe))
            .cloned()
            .collect()
    }

    /// Primary keys of the rows whose `positions` columns equal `probe`.
    /// Costs exactly 1 index lookup (the paper's unit for locating
    /// to-be-modified view tuples) — the rows themselves are not read.
    /// Falls back to a counted scan when no index covers `positions`.
    /// Inspection only: writers locate and write in one step through
    /// [`Table::patch_where`] / [`Table::delete_where`].
    pub fn pks_by(&self, positions: &[usize], probe: &(impl Borrow<[Value]> + ?Sized)) -> Vec<Key> {
        let probe = probe.borrow();
        if positions == self.schema.key() {
            self.stats.index_lookup();
            return self
                .get_uncounted(probe)
                .map(|r| self.pk_of(r))
                .into_iter()
                .collect();
        }
        let slots = match self.find_index(positions) {
            Some(ix) => {
                self.stats.index_lookup();
                ix.get(probe)
            }
            None => &self.scan_slots(positions, probe),
        };
        slots
            .iter()
            .filter_map(|&s| self.row_at(s))
            .map(|r| self.pk_of(r))
            .collect()
    }

    /// The no-index way to locate: a counted scan with an in-place
    /// column compare, yielding slots.
    fn scan_slots(&self, positions: &[usize], probe: &[Value]) -> Vec<u32> {
        self.stats.tuples(self.len() as u64);
        (0..self.slots.len() as u32)
            .filter(|&s| self.row_at(s).is_some_and(|r| r.matches(positions, probe)))
            .collect()
    }

    /// Uncounted read of all rows (shared, not copied) — for test
    /// assertions and oracle comparisons only, never inside measured
    /// IVM paths.
    pub fn rows_uncounted(&self) -> Vec<Row> {
        self.all_rows()
    }

    /// Uncounted point read — for test assertions and internal plumbing.
    pub fn get_uncounted(&self, key: &(impl Borrow<[Value]> + ?Sized)) -> Option<&Row> {
        self.row_at(self.locate(key.borrow())?)
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
        self.store(row)?;
        self.stats.tuples(1);
        Ok(())
    }

    /// Bulk load a row without touching the counters (workload setup).
    ///
    /// # Errors
    /// Same conditions as [`Table::insert`].
    pub fn load(&mut self, row: Row) -> Result<()> {
        self.check_arity(&row)?;
        self.store(row)
    }

    /// Make room for `additional` more rows, so a bulk load of known
    /// size grows the primary-key map and the slot vector once instead
    /// of one doubling at a time. Secondary indexes are left to grow:
    /// their maps are keyed by distinct indexed values, which may be far
    /// fewer than the rows, and a hash table reserved for rows it never
    /// sees is never given back.
    pub fn reserve(&mut self, additional: usize) {
        self.pks.reserve(additional);
        self.slots.reserve(additional);
    }

    /// Journal and store `row`, its arity checked, under its primary
    /// key, which must be free: one probe both checks and claims it.
    fn store(&mut self, row: Row) -> Result<()> {
        match self.claim(&row) {
            Ok(s) => {
                self.file(s, row);
                Ok(())
            }
            Err(_) => Err(Error::DuplicateKey(format!(
                "table `{}`, key {:?}",
                self.name,
                self.pk_of(&row)
            ))),
        }
    }

    /// Journal and fill slot `s`, just claimed for `row`.
    fn file(&mut self, s: u32, row: Row) {
        self.journal(|| UndoOp::Insert {
            table: self.name.clone(),
            row: row.clone(),
        });
        self.fill(s, row);
        self.version += 1;
    }

    /// The slot the next row goes in: the last one freed, else a new
    /// one at the end.
    fn next_slot(&self) -> u32 {
        self.free.last().copied().unwrap_or(self.slots.len() as u32)
    }

    /// Put `row` in slot `s`, the [`Table::next_slot`], and post it in
    /// every index. The primary-key map is the caller's.
    fn fill(&mut self, s: u32, row: Row) {
        for ix in &mut self.indexes {
            ix.insert(s, &row);
        }
        match self.slots.get_mut(s as usize) {
            Some(slot) => {
                self.free.pop();
                *slot = Some(row);
            }
            None => self.slots.push(Some(row)),
        }
    }

    /// Empty slot `s`, unpost its row from every index but `skip`, and
    /// free the slot. The primary-key map is the caller's.
    fn vacate(&mut self, s: u32, skip: Option<usize>) -> Option<Row> {
        let row = self.slots.get_mut(s as usize)?.take()?;
        self.free.push(s);
        for (i, ix) in self.indexes.iter_mut().enumerate() {
            if Some(i) != skip {
                ix.remove(s, &row);
            }
        }
        Some(row)
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
        if !post.matches(self.schema.key(), &key.0) {
            return Err(Error::Schema(format!(
                "update must not change key columns (table `{}`)",
                self.name
            )));
        }
        self.stats.index_lookup();
        match self.replace(&key.0, |_, stored| (post != *stored).then_some(post)) {
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
    /// key). Costs 1 tuple access and **no** index lookup — the caller
    /// accounts for how it located the row. `None` if the row vanished.
    /// Key-column assignments are ignored (keys are immutable).
    ///
    /// Copy-on-write: rows are immutable and shared, so a patch that
    /// moves a value builds the post row once, swaps it into the slot
    /// and hands back the displaced row as the pre-image — readers that
    /// still hold the old row keep seeing it unchanged. The work is
    /// proportional to what changed: a patch that re-asserts the stored
    /// values builds, journals and re-indexes nothing; the undo record
    /// is the displaced row (a reference-count bump); a secondary index
    /// is re-filed only when one of its columns actually differs.
    pub fn patch(
        &mut self,
        pk: &(impl Borrow<[Value]> + ?Sized),
        assignments: &[(usize, Value)],
    ) -> Option<Patched<'_>> {
        self.replace(pk.borrow(), |schema, stored| {
            patched_row(schema, stored, assignments)
        })
    }

    /// The one write to a stored row, located by primary key: see
    /// [`Table::replace_at`].
    fn replace(
        &mut self,
        pk: &[Value],
        post_of: impl FnOnce(&Schema, &Row) -> Option<Row>,
    ) -> Option<Patched<'_>> {
        let s = self.locate(pk)?;
        self.replace_at(s, post_of)
    }

    /// The one write to the row in slot `s`: let `post_of` say which
    /// (different) row replaces the stored one — `None`: nothing to
    /// write —, swap, then journal / re-index / bump the version.
    /// Counts the 1 tuple access of a located write.
    fn replace_at(
        &mut self,
        s: u32,
        post_of: impl FnOnce(&Schema, &Row) -> Option<Row>,
    ) -> Option<Patched<'_>> {
        let stored = self.slots.get_mut(s as usize)?.as_mut()?;
        self.stats.tuples(1);
        let Some(post) = post_of(&self.schema, stored) else {
            return Some(Patched {
                pre: None,
                post: stored,
            });
        };
        let pre = displace(stored, post, &self.undo, &self.name, &mut self.version);
        for ix in &mut self.indexes {
            ix.refile(s, &pre, stored);
        }
        Some(Patched {
            pre: Some(pre),
            post: stored,
        })
    }

    /// Locate the rows whose `positions` columns equal `probe` and patch
    /// each in place, calling `each(pk, patched)` per located row;
    /// returns how many keys the locate produced. Costs 1 index lookup for the
    /// locate (the paper's unit for reaching to-be-modified view tuples
    /// through the ID index) plus 1 tuple access per located row, written
    /// or not — exactly a [`Table::pks_by`] followed by one
    /// [`Table::patch`] per key, in **one** probe when `positions` is
    /// the primary key, and otherwise walking the index's slots by
    /// reference, each row read straight from its slot: the slot list
    /// is copied only when an assignment touches an indexed column, the
    /// one case in which postings can move under the walk. Without a
    /// covering index the locate is a counted scan.
    pub fn patch_where(
        &mut self,
        positions: &[usize],
        probe: &[Value],
        assignments: &[(usize, Value)],
        mut each: impl FnMut(&[Value], Patched<'_>),
    ) -> usize {
        if positions == self.schema.key() {
            self.stats.index_lookup();
            return match self.patch(probe, assignments) {
                Some(p) => {
                    each(probe, p);
                    1
                }
                None => 0,
            };
        }
        let Some(at) = self.indexes.iter().position(|ix| ix.cols() == positions) else {
            let slots = self.scan_slots(positions, probe);
            return self.patch_each(&slots, assignments, each);
        };
        self.stats.index_lookup();
        let refiles = assignments.iter().any(|(c, _)| {
            !self.schema.is_key_col(*c) && self.indexes.iter().any(|ix| ix.cols().contains(c))
        });
        if refiles {
            let slots = self.indexes[at].get(probe).to_vec();
            return self.patch_each(&slots, assignments, each);
        }
        // No index can be affected: walk the postings where they are.
        let posted = self.indexes[at].get(probe);
        for &s in posted {
            let Some(stored) = self.slots.get_mut(s as usize).and_then(Option::as_mut) else {
                continue;
            };
            self.stats.tuples(1);
            let pre = patched_row(&self.schema, stored, assignments)
                .map(|post| displace(stored, post, &self.undo, &self.name, &mut self.version));
            let post: &Row = stored;
            each(&post.key(self.schema.key()).0, Patched { pre, post });
        }
        posted.len()
    }

    fn patch_each(
        &mut self,
        slots: &[u32],
        assignments: &[(usize, Value)],
        mut each: impl FnMut(&[Value], Patched<'_>),
    ) -> usize {
        for &s in slots {
            let Some(pk) = self.row_at(s).map(|r| self.pk_of(r)) else {
                continue;
            };
            let patched =
                self.replace_at(s, |schema, stored| patched_row(schema, stored, assignments));
            if let Some(p) = patched {
                each(&pk.0, p);
            }
        }
        slots.len()
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
        self.stats.index_lookup();
        match self.claim(&row) {
            Ok(s) => {
                self.file(s, row);
                self.stats.tuples(1);
                Ok(true)
            }
            Err(s) if self.row_at(s) == Some(&row) => Ok(false),
            Err(_) => Err(Error::DuplicateKey(format!(
                "table `{}`: conflicting insert for key {:?}",
                self.name,
                self.pk_of(&row)
            ))),
        }
    }

    /// Delete an already-located row (by primary key). Costs 1 tuple
    /// access and no index lookup (see [`Table::patch`]). Returns the
    /// removed row. One probe finds it and takes it out of the
    /// primary-key map; no key is built.
    pub fn delete_located(&mut self, pk: &(impl Borrow<[Value]> + ?Sized)) -> Option<Row> {
        let pk = pk.borrow();
        let (slots, key) = (&self.slots, self.schema.key());
        let digest = digest_map::of_probe(&self.state, pk);
        let s = self.pks.remove(digest, |&s| holds(slots, s, key, pk))?;
        self.remove_slot(s, None)
    }

    /// Remove the row in slot `s`, which has just left the key map, and
    /// its postings, except those of index `skip` (whose list the caller
    /// has already taken out whole).
    fn remove_slot(&mut self, s: u32, skip: Option<usize>) -> Option<Row> {
        let row = self.vacate(s, skip)?;
        self.stats.tuples(1);
        self.journal(|| UndoOp::Delete {
            table: self.name.clone(),
            row: row.clone(),
        });
        self.version += 1;
        Some(row)
    }

    /// Locate the rows whose `positions` columns equal `probe` and
    /// delete them, handing each removed `(primary key, row)` to `each`;
    /// returns how many keys the locate produced. Costs 1 index lookup plus 1 tuple
    /// access per removed row — a [`Table::pks_by`] followed by one
    /// [`Table::delete_located`] per key, in one probe when `positions`
    /// is the primary key; through an index the postings list (every
    /// row on it is going away) is taken out whole instead of being
    /// copied and then emptied entry by entry, and each row on it is
    /// read from its slot. Without a covering index the locate is a
    /// counted scan.
    pub fn delete_where(
        &mut self,
        positions: &[usize],
        probe: &[Value],
        mut each: impl FnMut(Key, Row),
    ) -> usize {
        if positions == self.schema.key() {
            self.stats.index_lookup();
            return match self.delete_located(probe) {
                Some(row) => {
                    each(self.pk_of(&row), row);
                    1
                }
                None => 0,
            };
        }
        let at = self.indexes.iter().position(|ix| ix.cols() == positions);
        let slots = match at {
            Some(at) => {
                self.stats.index_lookup();
                self.indexes[at].take(probe)
            }
            None => self.scan_slots(positions, probe),
        };
        for &s in &slots {
            if !self.unfile(s) {
                continue;
            }
            if let Some(row) = self.remove_slot(s, at) {
                each(self.pk_of(&row), row);
            }
        }
        slots.len()
    }

    /// Remove all rows (indexes are kept, emptied). Uncounted. Only
    /// used outside maintenance rounds (workload resets, recompute
    /// repair after rollback), but journaled defensively: with a
    /// session open, each removed row is recorded for restoration.
    pub fn clear(&mut self) {
        self.version += 1;
        if self.undo.is_armed() {
            for row in self.stored() {
                self.undo.record(UndoOp::Delete {
                    table: self.name.clone(),
                    row: row.clone(),
                });
            }
        }
        self.pks.clear();
        self.slots.clear();
        self.free.clear();
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
            UndoOp::Insert { row, .. } => {
                let (slots, key) = (&self.slots, self.schema.key());
                let digest = digest_map::of_row(&self.state, &row, key);
                if let Some(s) = self.pks.remove(digest, |&s| holds_key_of(slots, s, key, &row)) {
                    self.vacate(s, None);
                }
            }
            UndoOp::Delete { row, .. } => {
                if let Ok(s) = self.claim(&row) {
                    self.fill(s, row);
                }
            }
            UndoOp::Update { row, .. } => {
                // The displaced row goes back into its slot; its key is
                // the one it was stored under (keys are immutable).
                let Some(s) = self.locate_row(&row) else {
                    return;
                };
                if let Some(stored) = self.slots.get_mut(s as usize).and_then(Option::as_mut) {
                    let post = std::mem::replace(stored, row);
                    for ix in &mut self.indexes {
                        ix.refile(s, &post, stored);
                    }
                }
            }
        }
    }

    /// Uncounted structural fingerprint — see [`TableSignature`].
    pub fn signature(&self) -> TableSignature {
        let mut rows: Vec<(Key, Row)> = self
            .pks
            .values()
            .filter_map(|&s| self.row_at(s))
            .map(|r| (self.pk_of(r), r.clone()))
            .collect();
        rows.sort();
        let mut indexes: Vec<IndexSignature> = self
            .indexes
            .iter()
            .map(|ix| (ix.cols().to_vec(), self.postings_sorted(ix)))
            .collect();
        indexes.sort();
        TableSignature { rows, indexes }
    }

    /// `ix`'s `(indexed value -> primary keys)` entries, fully sorted:
    /// a postings list's order is an implementation detail
    /// (`swap_remove`), so semantically it is a set.
    fn postings_sorted(&self, ix: &SecondaryIndex) -> Vec<(Key, Vec<Key>)> {
        let mut out: Vec<(Key, Vec<Key>)> = ix
            .entries()
            .map(|(value, slots)| {
                let mut pks: Vec<Key> = slots
                    .iter()
                    .filter_map(|&s| self.row_at(s))
                    .map(|r| self.pk_of(r))
                    .collect();
                pks.sort();
                (value.clone(), pks)
            })
            .collect();
        out.sort();
        out
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

/// Does slot `s` hold a row whose `cols` columns equal `probe`?
fn holds(slots: &[Option<Row>], s: u32, cols: &[usize], probe: &[Value]) -> bool {
    slots
        .get(s as usize)
        .and_then(Option::as_ref)
        .is_some_and(|r| r.matches(cols, probe))
}

/// Does slot `s` hold a row whose `cols` columns equal `row`'s?
fn holds_key_of(slots: &[Option<Row>], s: u32, cols: &[usize], row: &Row) -> bool {
    slots
        .get(s as usize)
        .and_then(Option::as_ref)
        .is_some_and(|r| cols.iter().all(|&c| r[c] == row[c]))
}

/// Swap `post` into a stored row's slot: journal the displaced row (if
/// a round is open), move the table's version, and hand the displaced
/// row back. Index upkeep is the caller's.
fn displace(
    slot: &mut Row,
    post: Row,
    undo: &UndoLog,
    table: &Arc<str>,
    version: &mut u64,
) -> Row {
    let displaced = std::mem::replace(slot, post);
    if undo.is_armed() {
        undo.record(UndoOp::Update {
            table: table.clone(),
            row: displaced.clone(),
        });
    }
    *version += 1;
    displaced
}

/// `stored` with the non-key `assignments` applied — `None` when that is
/// the stored row again, which is decided without building anything when
/// every assignment re-asserts the stored value.
fn patched_row(schema: &Schema, stored: &Row, assignments: &[(usize, Value)]) -> Option<Row> {
    let is_key = |(c, _): &(usize, Value)| schema.is_key_col(*c);
    if !assignments.iter().any(|a| !is_key(a) && stored[a.0] != a.1) {
        return None;
    }
    let post = if assignments.iter().any(is_key) {
        // Keys are immutable: assignments to them are dropped.
        let non_key: Vec<(usize, Value)> =
            assignments.iter().filter(|a| !is_key(a)).cloned().collect();
        stored.with(&non_key)
    } else {
        stored.with(assignments)
    };
    (post != *stored).then_some(post)
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Table {} {} [{} rows, {} indexes]",
            self.name,
            self.schema,
            self.len(),
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

    fn key_int(i: i64) -> Key {
        Key(vec![Value::Int(i)])
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
        // Too short to hold the key: refused before the key is read.
        assert!(matches!(t.insert(Row::new(vec![])), Err(Error::Schema(_))));
        assert!(matches!(t.load(Row::new(vec![])), Err(Error::Schema(_))));
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

    /// The located writers cost what `pks_by` + one `patch` /
    /// `delete_located` per key cost: 1 lookup for the locate, 1 tuple
    /// access per located row — by primary key, through an index whose
    /// postings stay put, and through one an assignment re-files.
    #[test]
    fn located_writes_cost_one_lookup_plus_one_access_per_row() {
        let schema = Schema::from_pairs(
            &[
                ("id", ColumnType::Int),
                ("grp", ColumnType::Int),
                ("val", ColumnType::Int),
            ],
            &["id"],
        )
        .unwrap();
        let mut t = Table::new("t", schema, AccessStats::new());
        t.create_index(&["grp"]).unwrap();
        for i in 0..6 {
            t.load(row![i, i % 2, 0]).unwrap();
        }
        let cost = |t: &Table, s0: &crate::StatsSnapshot| {
            let d = t.stats().snapshot().since(s0);
            (d.index_lookups, d.tuple_accesses)
        };
        let grp = |t: &Table, g: i64| t.pks_by(&[1], &[Value::Int(g)]).len();

        // By primary key: one probe; a miss costs only the lookup.
        let s0 = t.stats().snapshot();
        let mut seen = Vec::new();
        let n = t.patch_where(&[0], &[Value::Int(2)], &[(2, Value::Int(7))], |pk, p| {
            seen.push((pk.to_vec(), p.pre.clone(), p.post.clone()));
        });
        assert_eq!((n, cost(&t, &s0)), (1, (1, 1)));
        assert_eq!(seen, vec![(vec![Value::Int(2)], Some(row![2, 0, 0]), row![2, 0, 7])]);
        let s0 = t.stats().snapshot();
        assert_eq!(t.patch_where(&[0], &[Value::Int(99)], &[(2, Value::Int(7))], |_, _| {}), 0);
        assert_eq!(cost(&t, &s0), (1, 0));

        // Through the index, assigning an un-indexed column (postings
        // walked in place) and then the indexed one (rows re-filed).
        let s0 = t.stats().snapshot();
        let mut changed = 0;
        let n = t.patch_where(&[1], &[Value::Int(0)], &[(2, Value::Int(7))], |_, p| {
            changed += usize::from(p.pre.is_some());
        });
        assert_eq!((n, changed, cost(&t, &s0)), (3, 2, (1, 3))); // id 2 re-asserts
        let s0 = t.stats().snapshot();
        let n = t.patch_where(&[1], &[Value::Int(0)], &[(1, Value::Int(5))], |_, _| {});
        assert_eq!((n, cost(&t, &s0)), (3, (1, 3)));
        assert_eq!((grp(&t, 0), grp(&t, 5)), (0, 3));

        // Deletes: the whole postings list goes with its rows.
        let s0 = t.stats().snapshot();
        let mut gone = Vec::new();
        let n = t.delete_where(&[1], &[Value::Int(5)], |pk, row| gone.push((pk, row)));
        assert_eq!((n, gone.len(), cost(&t, &s0)), (3, 3, (1, 3)));
        assert_eq!((t.len(), grp(&t, 5)), (3, 0));
        let s0 = t.stats().snapshot();
        assert_eq!(t.delete_where(&[0], &[Value::Int(1)], |_, _| {}), 1);
        assert_eq!(t.delete_where(&[0], &[Value::Int(1)], |_, _| {}), 0);
        assert_eq!(cost(&t, &s0), (2, 1));
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

    fn grouped(n: i64) -> Table {
        let schema = Schema::from_pairs(
            &[
                ("id", ColumnType::Int),
                ("grp", ColumnType::Int),
                ("val", ColumnType::Int),
            ],
            &["id"],
        )
        .unwrap();
        let mut t = Table::new("t", schema, AccessStats::new());
        t.create_index(&["grp"]).unwrap();
        for i in 0..n {
            t.load(row![i, i % 2, 0]).unwrap();
        }
        t
    }

    fn ids(rows: &[Row]) -> Vec<i64> {
        rows.iter().map(|r| r[0].as_int().unwrap()).collect()
    }

    /// A posting that outlives its row — which no write path leaves
    /// behind — reads as absent on every path that walks postings: no
    /// row, no key, no write, and no panic.
    #[test]
    fn a_posting_whose_row_is_gone_reads_as_absent() {
        let mut t = grouped(6);
        let gone = t.locate(&key_int(2).0).unwrap();
        t.slots[gone as usize] = None;
        let even = [Value::Int(0)];
        assert_eq!(ids(&t.lookup(&[1], &even)), vec![0, 4]);
        assert_eq!(t.pks_by(&[1], &even).len(), 2);
        let mut patched = Vec::new();
        t.patch_where(&[1], &even, &[(2, Value::Int(1))], |pk, _| {
            patched.push(pk.to_vec())
        });
        assert_eq!(patched.len(), 2);
        let mut deleted = Vec::new();
        t.delete_where(&[1], &even, |pk, _| deleted.push(pk));
        assert_eq!(deleted, vec![key_int(0), key_int(4)]);
        assert!(t.lookup(&[1], &even).is_empty());
    }

    /// A deleted row's slot is the next one filled, and a probe through
    /// the index reads the new row from it.
    #[test]
    fn deleted_slots_are_reused() {
        let mut t = grouped(4);
        let freed = t.locate(&key_int(1).0).unwrap();
        t.delete(&key_int(1)).unwrap();
        t.insert(row![9, 1, 0]).unwrap();
        assert_eq!(
            (t.locate(&key_int(9).0).unwrap(), t.slots.len(), t.len()),
            (freed, 4, 4)
        );
        assert_eq!(ids(&t.lookup(&[1], &[Value::Int(1)])), vec![3, 9]);
        t.insert(row![10, 0, 0]).unwrap();
        assert_eq!(t.slots.len(), 5, "no free slot left: the vector grows");
    }

    #[test]
    fn reserve_grows_the_slot_vector() {
        let mut t = grouped(0);
        t.reserve(100);
        assert!(t.slots.capacity() >= 100 && t.pks.capacity() >= 100);
    }

    /// A patch of an un-indexed column leaves the row where it is in
    /// its postings list; one that moves the indexed value takes it out
    /// (the list's last row fills the gap) and appends it to the new
    /// value's list.
    #[test]
    fn patch_refiles_only_an_indexed_column() {
        let mut t = grouped(8);
        let grp = |t: &Table, g: i64| ids(&t.lookup(&[1], &[Value::Int(g)]));
        t.patch(&key_int(2), &[(2, Value::Int(5))]).unwrap();
        assert_eq!(grp(&t, 0), vec![0, 2, 4, 6]);
        t.patch(&key_int(2), &[(1, Value::Int(1))]).unwrap();
        assert_eq!(
            (grp(&t, 0), grp(&t, 1)),
            (vec![0, 6, 4], vec![1, 3, 5, 7, 2])
        );
        assert_eq!(t.signature(), {
            let mut fresh = grouped(0);
            for r in t.rows_uncounted() {
                fresh.load(r).unwrap();
            }
            fresh.signature()
        });
    }

    /// Each write's undo record alone puts the signature back, and the
    /// slot bookkeeping stays whole: every slot is stored or free.
    #[test]
    fn undo_replay_of_each_write_restores_the_signature() {
        type Write = fn(&mut Table);
        let writes: [(&str, Write); 4] = [
            ("insert", |t| t.insert(row![9, 0, 0]).unwrap()),
            ("delete", |t| {
                t.delete(&key_int(0)).unwrap();
            }),
            ("update", |t| {
                t.update(&key_int(1), row![1, 0, 3]).unwrap();
            }),
            ("delete_where", |t| {
                t.delete_where(&[1], &[Value::Int(1)], |_, _| {});
            }),
        ];
        for (name, write) in writes {
            let mut t = grouped(4);
            let before = t.signature();
            let undo = t.undo_log().clone();
            let mark = undo.arm();
            write(&mut t);
            assert_ne!(t.signature(), before, "{name} must be visible");
            for op in undo.split_off(mark).into_iter().rev() {
                t.apply_undo(op);
            }
            undo.disarm();
            assert_eq!(t.signature(), before, "{name} replayed");
            assert_eq!(
                t.len() + t.free.len(),
                t.slots.len(),
                "{name}: slots stored or free"
            );
        }
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

    /// Seeded sequences of every write path — `insert`, `load`,
    /// `delete`, `delete_located`, `delete_where`, `patch`,
    /// `patch_where`, `insert_if_absent`, `create_index_positions`,
    /// `clear` and rolled-back sessions (`apply_undo`) — against a
    /// `BTreeMap` model, each step followed by a check of `get`,
    /// `lookup`, `pks_by`, `len` and `signature()`. Run with the real
    /// digest and with every key sent to one digest: SipHash never
    /// collides by chance, so only the second run walks the maps' side
    /// lists.
    mod model {
        use super::*;
        use crate::digest_map::colliding;
        use crate::table::IndexSignature;
        use std::collections::BTreeMap;

        const IDS: i64 = 10;
        /// Column sets probed: the primary key, the three an index may
        /// be created on, and one never indexed (a counted scan).
        const PROBED: [&[usize]; 5] = [&[0], &[1], &[1, 2], &[2, 0], &[2]];
        const INDEXABLE: [&[usize]; 3] = [&[1], &[1, 2], &[2, 0]];

        struct Rng(u64);

        impl Rng {
            fn below(&mut self, n: u64) -> u64 {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) % n
            }

            /// A value of column `c`: ids, three groups, and a nullable
            /// column.
            fn value(&mut self, c: usize) -> Value {
                match c {
                    0 => Value::Int(self.below(IDS as u64) as i64),
                    1 => Value::Int(self.below(3) as i64),
                    _ => match self.below(4) {
                        0 => Value::Null,
                        n => Value::Int(n as i64),
                    },
                }
            }

            fn row(&mut self) -> Row {
                (0..3).map(|c| self.value(c)).collect()
            }

            fn probe(&mut self, cols: &[usize]) -> Vec<Value> {
                cols.iter().map(|&c| self.value(c)).collect()
            }

            fn pick<T: Copy>(&mut self, from: &[T]) -> T {
                from[self.below(from.len() as u64) as usize]
            }
        }

        #[derive(Clone, Default)]
        struct Model {
            rows: BTreeMap<Key, Row>,
            indexes: Vec<Vec<usize>>,
        }

        impl Model {
            fn matching(&self, cols: &[usize], probe: &[Value]) -> Vec<Row> {
                let hit = |r: &&Row| r.matches(cols, probe);
                self.rows.values().filter(hit).cloned().collect()
            }

            fn signature(&self) -> TableSignature {
                let mut indexes: Vec<IndexSignature> = self
                    .indexes
                    .iter()
                    .map(|cols| {
                        let mut postings: BTreeMap<Key, Vec<Key>> = BTreeMap::new();
                        for (pk, r) in &self.rows {
                            postings.entry(r.key(cols)).or_default().push(pk.clone());
                        }
                        (cols.clone(), postings.into_iter().collect())
                    })
                    .collect();
                indexes.sort();
                TableSignature {
                    rows: self
                        .rows
                        .iter()
                        .map(|(k, r)| (k.clone(), r.clone()))
                        .collect(),
                    indexes,
                }
            }
        }

        fn sorted_rows(mut rows: Vec<Row>) -> Vec<Row> {
            rows.sort();
            rows
        }

        fn check(t: &Table, m: &Model, at: &str) {
            assert_eq!(t.len(), m.rows.len(), "{at}: len");
            for id in 0..IDS {
                let pk = key_int(id);
                assert_eq!(t.get(&pk), m.rows.get(&pk), "{at}: get {id}");
            }
            let mut rng = Rng(0);
            for cols in PROBED {
                for _ in 0..12 {
                    let probe = rng.probe(cols);
                    let want = m.matching(cols, &probe);
                    let what = format!("{at}: {cols:?} = {probe:?}");
                    assert_eq!(
                        sorted_rows(t.lookup(cols, &probe[..])),
                        want,
                        "lookup {what}"
                    );
                    let mut pks = t.pks_by(cols, &probe[..]);
                    pks.sort();
                    let want_pks: Vec<Key> = want.iter().map(|r| t.pk_of(r)).collect();
                    assert_eq!(pks, want_pks, "pks_by {what}");
                }
            }
            assert_eq!(t.signature(), m.signature(), "{at}: signature");
        }

        /// One seeded run of `steps` writes; an open session is rolled
        /// back at the end.
        fn run(seed: u64, steps: usize) {
            let mut t = grouped(0);
            let mut m = Model {
                indexes: vec![vec![1]],
                ..Model::default()
            };
            let mut rng = Rng(seed);
            let undo = t.undo_log().clone();
            let mut session: Option<(usize, Model)> = None;
            for step in 0..steps {
                let at = format!("seed {seed} step {step}");
                match rng.below(12) {
                    0 | 1 => {
                        let r = rng.row();
                        let free = !m.rows.contains_key(&t.pk_of(&r));
                        let done = if rng.below(2) == 0 {
                            t.insert(r.clone())
                        } else {
                            t.load(r.clone())
                        };
                        assert_eq!(done.is_ok(), free, "{at}: insert {r:?}");
                        if free {
                            m.rows.insert(t.pk_of(&r), r);
                        }
                    }
                    2 => {
                        let pk = key_int(rng.below(IDS as u64) as i64);
                        let gone = if rng.below(2) == 0 {
                            t.delete(&pk)
                        } else {
                            t.delete_located(&pk)
                        };
                        assert_eq!(gone, m.rows.remove(&pk), "{at}: delete {pk:?}");
                    }
                    3 | 4 => {
                        let cols = rng.pick(&PROBED);
                        let probe = rng.probe(cols);
                        let want = m.matching(cols, &probe);
                        let mut gone = Vec::new();
                        let n = t.delete_where(cols, &probe, |pk, r| gone.push((pk, r)));
                        gone.sort();
                        let want: Vec<(Key, Row)> = want
                            .into_iter()
                            .map(|r| m.rows.remove_entry(&t.pk_of(&r)).unwrap())
                            .collect();
                        assert_eq!((n, gone), (want.len(), want), "{at}: delete_where");
                    }
                    5 | 6 => {
                        let cols = rng.pick(&PROBED);
                        let probe = rng.probe(cols);
                        let mut assignments = vec![(rng.pick(&[1, 2]), Value::Null)];
                        assignments[0].1 = rng.value(assignments[0].0);
                        if rng.below(3) == 0 {
                            assignments.push((0, rng.value(0)));
                        }
                        let want = m.matching(cols, &probe);
                        let mut patched = Vec::new();
                        if cols == [0] && rng.below(2) == 0 {
                            patched
                                .extend(t.patch(&probe[..], &assignments).map(|p| p.post.clone()));
                        } else {
                            t.patch_where(cols, &probe, &assignments, |_, p| {
                                patched.push(p.post.clone())
                            });
                        }
                        let keep: Vec<(usize, Value)> =
                            assignments.into_iter().filter(|(c, _)| *c != 0).collect();
                        let want: Vec<Row> = want.iter().map(|r| r.with(&keep)).collect();
                        for r in &want {
                            m.rows.insert(t.pk_of(r), r.clone());
                        }
                        assert_eq!(sorted_rows(patched), want, "{at}: patch_where");
                    }
                    7 => {
                        let r = match m.rows.values().next() {
                            Some(stored) if rng.below(2) == 0 => stored.clone(),
                            _ => rng.row(),
                        };
                        let want = match m.rows.get(&t.pk_of(&r)) {
                            None => Some(true),
                            Some(stored) => (*stored == r).then_some(false),
                        };
                        let got = t.insert_if_absent(r.clone()).ok();
                        assert_eq!(got, want, "{at}: insert_if_absent {r:?}");
                        if want == Some(true) {
                            m.rows.insert(t.pk_of(&r), r);
                        }
                    }
                    // Indexes are created outside rounds only.
                    8 if session.is_none() => {
                        let cols = rng.pick(&INDEXABLE).to_vec();
                        t.create_index_positions(cols.clone());
                        if !m.indexes.contains(&cols) {
                            m.indexes.push(cols);
                        }
                    }
                    9 => {
                        if rng.below(4) == 0 {
                            t.clear();
                            m.rows.clear();
                        }
                    }
                    _ => match session.take() {
                        None => session = Some((undo.arm(), m.clone())),
                        Some((mark, saved)) => {
                            let ops = undo.split_off(mark);
                            if rng.below(2) == 0 {
                                for op in ops.into_iter().rev() {
                                    t.apply_undo(op);
                                }
                                m = saved;
                            }
                            undo.disarm();
                        }
                    },
                }
                check(&t, &m, &at);
            }
            if let Some((mark, saved)) = session {
                for op in undo.split_off(mark).into_iter().rev() {
                    t.apply_undo(op);
                }
                undo.disarm();
                check(&t, &saved, &format!("seed {seed}: final rollback"));
            }
        }

        #[test]
        fn every_write_path_matches_the_model() {
            for seed in 0..16 {
                run(seed, 200);
            }
        }

        #[test]
        fn every_write_path_matches_the_model_when_every_key_collides() {
            colliding(|| {
                for seed in 100..116 {
                    run(seed, 200);
                }
            });
        }
    }
}
