//! The [`Database`]: a named collection of [`Table`]s sharing one
//! [`AccessStats`] instrument and one [`ModificationLog`].
//!
//! Base-table DML goes through the logged methods ([`Database::insert`],
//! [`Database::delete`], [`Database::update`]) so the modification logger
//! captures every change (the paper's data-modification-time component).
//! Materialized views and IVM caches are ordinary tables created through
//! [`Database::create_table`] and mutated through unlogged access
//! ([`Database::table_mut`]) by the ∆-script executor.

use crate::log::{LogEntry, ModificationLog, Net, UndoLog};
use crate::overlay::PreState;
use crate::stats::AccessStats;
use crate::table::Table;
use idivm_types::{Error, Key, Result, Row, Schema, Value};
use std::collections::HashMap;

/// Reserved pseudo-table name under which [`Database::signature`]
/// fingerprints the folded pending modification log. Never a real
/// table.
pub const MODLOG_SIGNATURE_KEY: &str = "__modlog__";

/// An in-memory database instance.
pub struct Database {
    tables: HashMap<String, Table>,
    stats: AccessStats,
    log: ModificationLog,
    logging: bool,
    /// Shared per-round undo journal; every table created through
    /// [`Database::create_table`] records into this one sink.
    undo: UndoLog,
    /// 0 = no maintenance round open; 1 = a round owns the journal.
    /// (Nested maintenance — SDBT Streams driving inner per-map
    /// engines — observes the open round and defers to its owner.)
    round_depth: usize,
    /// Bench escape hatch: `false` runs rounds with the journal
    /// disarmed, reproducing the pre-undo engine for overhead
    /// baselines. A failed round then strands partial state.
    round_undo: bool,
    /// Whether the currently open round armed the journal (sampled
    /// from `round_undo` at `begin_round`, so a mid-round toggle
    /// cannot unbalance the arm/disarm pairing).
    round_armed: bool,
}

impl Default for Database {
    fn default() -> Self {
        Database {
            tables: HashMap::new(),
            stats: AccessStats::default(),
            log: ModificationLog::default(),
            logging: false,
            undo: UndoLog::new(),
            round_depth: 0,
            round_undo: true,
            round_armed: false,
        }
    }
}

impl Database {
    /// Empty database with modification logging enabled.
    pub fn new() -> Self {
        Database {
            logging: true,
            ..Database::default()
        }
    }

    /// The shared access-count instrument.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Enable/disable modification logging (e.g. while bulk-loading).
    pub fn set_logging(&mut self, on: bool) {
        self.logging = on;
    }

    /// Create an empty table.
    ///
    /// # Errors
    /// Fails if the name is taken.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<()> {
        if self.tables.contains_key(name) {
            return Err(Error::Schema(format!("table `{name}` already exists")));
        }
        self.tables.insert(
            name.to_string(),
            Table::with_undo(name, schema, self.stats.clone(), self.undo.clone()),
        );
        Ok(())
    }

    /// Drop a table (used to tear down caches).
    pub fn drop_table(&mut self, name: &str) -> Option<Table> {
        self.tables.remove(name)
    }

    /// Borrow a table.
    ///
    /// # Errors
    /// [`Error::NotFound`] for unknown names.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| Error::NotFound(format!("table `{name}`")))
    }

    /// Mutably borrow a table (unlogged access — used for views/caches).
    ///
    /// # Errors
    /// [`Error::NotFound`] for unknown names.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| Error::NotFound(format!("table `{name}`")))
    }

    /// True iff a table with this name exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Names of all tables (sorted, for deterministic output).
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    // ------------------------------------------------------------------
    // Logged base-table DML
    // ------------------------------------------------------------------

    /// Insert into a base table, logging the modification.
    ///
    /// # Errors
    /// Unknown table, duplicate key, or arity mismatch.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<()> {
        let t = self.table_mut(table)?;
        t.insert(row.clone())?;
        if self.logging {
            self.log.push(LogEntry::Insert {
                table: table.to_string(),
                row,
            });
        }
        Ok(())
    }

    /// Delete by primary key from a base table, logging the
    /// modification. Returns the removed row (if any).
    ///
    /// # Errors
    /// Unknown table.
    pub fn delete(&mut self, table: &str, key: &Key) -> Result<Option<Row>> {
        let t = self.table_mut(table)?;
        let pre = t.delete(key);
        if let (true, Some(pre_row)) = (self.logging, pre.as_ref()) {
            self.log.push(LogEntry::Delete {
                table: table.to_string(),
                key: key.clone(),
                pre: pre_row.clone(),
            });
        }
        Ok(pre)
    }

    /// Update selected columns of a base-table row, logging the
    /// modification. Returns `(pre, post)`.
    ///
    /// # Errors
    /// Unknown table/row, or key-column assignment.
    pub fn update(
        &mut self,
        table: &str,
        key: &Key,
        assignments: &[(usize, Value)],
    ) -> Result<(Row, Row)> {
        let t = self.table_mut(table)?;
        let (pre, post) = t.update_columns(key, assignments)?;
        if self.logging {
            self.log.push(LogEntry::Update {
                table: table.to_string(),
                key: key.clone(),
                pre: pre.clone(),
                post: post.clone(),
            });
        }
        Ok((pre, post))
    }

    /// Update selected columns addressed by name.
    ///
    /// # Errors
    /// Unknown table/row/column, or key-column assignment.
    pub fn update_named(
        &mut self,
        table: &str,
        key: &Key,
        assignments: &[(&str, Value)],
    ) -> Result<(Row, Row)> {
        let schema = self.table(table)?.schema();
        let resolved = assignments
            .iter()
            .map(|(name, v)| Ok((schema.index_of(name)?, v.clone())))
            .collect::<Result<Vec<_>>>()?;
        self.update(table, key, &resolved)
    }

    // ------------------------------------------------------------------
    // Log access
    // ------------------------------------------------------------------

    /// The modification log (read-only).
    pub fn log(&self) -> &ModificationLog {
        &self.log
    }

    /// Fold the log into effective per-table net changes (Section 5's
    /// combination step) without consuming it.
    pub fn fold_log(&self) -> Net {
        self.log.fold(|table, row| {
            let key_cols = self.tables[table].schema().key();
            row.key(key_cols)
        })
    }

    /// Clear the modification log (after a maintenance round).
    pub fn clear_log(&mut self) {
        self.log.clear();
    }

    /// Truncate the modification log back to an earlier length. Paired
    /// with [`Database::abort_round`] by the ingest pipeline: rollback
    /// restores the tables, truncation un-logs the aborted batch's DML
    /// so no downstream round ever folds changes that were undone.
    pub fn truncate_log(&mut self, len: usize) {
        self.log.truncate(len);
    }

    // ------------------------------------------------------------------
    // Atomic maintenance rounds
    // ------------------------------------------------------------------

    /// Open an atomic maintenance round: every table mutation from here
    /// on journals its inverse. Returns `true` iff this call opened the
    /// round — the owner must later call exactly one of
    /// [`Database::commit_round`] / [`Database::abort_round`]. Nested
    /// maintenance (SDBT Streams driving inner per-map engines) gets
    /// `false`: a round is already open and its owner handles the
    /// outcome; the nested caller must do neither.
    pub fn begin_round(&mut self) -> bool {
        if self.round_depth > 0 {
            self.round_depth += 1;
            return false;
        }
        self.round_depth = 1;
        self.round_armed = self.round_undo;
        if self.round_armed {
            self.undo.arm();
        }
        true
    }

    /// Commit the open round: keep every mutation, discard the journal.
    /// No-op when no round is open.
    pub fn commit_round(&mut self) {
        if self.round_depth == 0 {
            return;
        }
        self.round_depth = 0;
        if self.round_armed {
            self.round_armed = false;
            self.undo.clear();
            self.undo.disarm();
        }
    }

    /// Abort the open round: replay the journal in reverse, restoring
    /// every table — rows and secondary indexes — to its exact
    /// pre-round state. Uncounted (rollback is failure machinery, not
    /// a measured IVM path). No-op when no round is open; with
    /// [`Database::set_round_undo`] off the journal is empty and the
    /// partial round-state stands (bench baseline only).
    pub fn abort_round(&mut self) {
        if self.round_depth == 0 {
            return;
        }
        self.round_depth = 0;
        if !self.round_armed {
            return;
        }
        self.round_armed = false;
        self.undo.disarm();
        for op in self.undo.split_off(0).into_iter().rev() {
            if let Some(t) = self.tables.get_mut(op.table()) {
                t.apply_undo(op);
            }
        }
    }

    /// True iff a maintenance round is currently open.
    pub fn round_open(&self) -> bool {
        self.round_depth > 0
    }

    /// Leave a nested round scope (a `begin_round` that returned
    /// `false`). The journal is untouched — the owning round's
    /// commit/abort decides the fate of every journaled mutation.
    pub fn end_nested_round(&mut self) {
        if self.round_depth > 1 {
            self.round_depth -= 1;
        }
    }

    /// Toggle per-round undo journaling (default on). `false` is the
    /// bench baseline: rounds run with the journal disarmed, exactly
    /// reproducing the pre-undo write paths — and forfeiting rollback.
    pub fn set_round_undo(&mut self, on: bool) {
        self.round_undo = on;
    }

    /// The shared undo journal (tests and APPLY-session plumbing).
    pub fn undo_log(&self) -> &UndoLog {
        &self.undo
    }

    /// Structural fingerprints of every table, keyed by name — the
    /// whole-database state signature the fault-injection suite
    /// compares across rollback. Uncounted.
    ///
    /// The map also carries one reserved pseudo-entry,
    /// [`MODLOG_SIGNATURE_KEY`], fingerprinting the **folded pending
    /// modification log**: two databases only compare equal when their
    /// tables match *and* their un-drained work nets to the same
    /// effective changes. Recovery-equivalence checks therefore cover
    /// pending deferred batches, not just applied state. The fold (not
    /// the raw entry list) is hashed, so logs that differ only in
    /// already-cancelled entries — or one drained log vs. one that
    /// nets to nothing — still agree.
    pub fn signature(&self) -> HashMap<String, crate::table::TableSignature> {
        let mut sig: HashMap<String, crate::table::TableSignature> = self
            .tables
            .iter()
            .map(|(n, t)| (n.clone(), t.signature()))
            .collect();
        sig.insert(MODLOG_SIGNATURE_KEY.to_string(), self.modlog_signature());
        sig
    }

    /// Fingerprint of the folded pending modification log, encoded as a
    /// single-row pseudo [`TableSignature`](crate::table::TableSignature)
    /// so it rides the existing signature map without changing its
    /// type. Canonical order (tables, then keys, both sorted) makes the
    /// hash independent of `HashMap` iteration order.
    fn modlog_signature(&self) -> crate::table::TableSignature {
        use std::hash::{Hash, Hasher};
        let folded = self.fold_log();
        let mut tables: Vec<&String> = folded.keys().collect();
        tables.sort();
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for t in tables {
            t.hash(&mut h);
            let changes = &folded[t];
            let mut keys: Vec<&Key> = changes.keys().collect();
            keys.sort();
            for k in keys {
                k.hash(&mut h);
                changes[k].hash(&mut h);
            }
        }
        crate::table::TableSignature {
            rows: vec![(Key(vec![Value::Int(h.finish() as i64)]), Row::default())],
            indexes: Vec::new(),
        }
    }

    /// Pre-state view of `table` given the folded `changes` map for the
    /// whole database.
    ///
    /// # Errors
    /// Unknown table.
    pub fn pre_state<'a>(
        &'a self,
        table: &str,
        changes: &'a Net,
    ) -> Result<PreState<'a>> {
        Ok(PreState::new(self.table(table)?, changes.get(table)))
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Database ({} tables):", self.tables.len())?;
        for name in self.table_names() {
            writeln!(f, "  {:?}", self.tables[name])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::NetChange;
    use idivm_types::{row, ColumnType};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "parts",
            Schema::from_pairs(
                &[("pid", ColumnType::Str), ("price", ColumnType::Int)],
                &["pid"],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    fn k(s: &str) -> Key {
        Key(vec![Value::str(s)])
    }

    #[test]
    fn dml_is_logged_with_pre_images() {
        let mut d = db();
        d.insert("parts", row!["P1", 10]).unwrap();
        d.update("parts", &k("P1"), &[(1, Value::Int(11))]).unwrap();
        d.delete("parts", &k("P1")).unwrap();
        assert_eq!(d.log().len(), 3);
        match &d.log().entries()[1] {
            LogEntry::Update { pre, post, .. } => {
                assert_eq!(pre, &row!["P1", 10]);
                assert_eq!(post, &row!["P1", 11]);
            }
            other => panic!("expected update, got {other:?}"),
        }
        // net effect: insert then delete cancels.
        assert!(d.fold_log().is_empty());
    }

    #[test]
    fn fold_log_produces_net_changes() {
        let mut d = db();
        d.set_logging(false);
        d.insert("parts", row!["P1", 10]).unwrap();
        d.set_logging(true);
        d.update("parts", &k("P1"), &[(1, Value::Int(11))]).unwrap();
        d.update("parts", &k("P1"), &[(1, Value::Int(12))]).unwrap();
        let folded = d.fold_log();
        assert_eq!(
            folded["parts"][&k("P1")],
            NetChange::Updated {
                pre: row!["P1", 10],
                post: row!["P1", 12]
            }
        );
    }

    #[test]
    fn delete_of_missing_row_not_logged() {
        let mut d = db();
        assert!(d.delete("parts", &k("nope")).unwrap().is_none());
        assert!(d.log().is_empty());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut d = db();
        let r = d.create_table(
            "parts",
            Schema::from_pairs(&[("x", ColumnType::Int)], &["x"]).unwrap(),
        );
        assert!(r.is_err());
    }

    /// A version counts writes from zero, so it cannot tell two
    /// incarnations of one name apart; the id can.
    #[test]
    fn recreated_table_with_equal_write_count_is_a_different_table() {
        let mut d = db();
        d.insert("parts", row!["P1", 10]).unwrap();
        d.insert("parts", row!["P2", 20]).unwrap();
        let old = d.table("parts").unwrap();
        let (old_id, old_version) = (old.id(), old.version());
        let schema = old.schema().clone();

        d.drop_table("parts").unwrap();
        d.create_table("parts", schema).unwrap();
        d.insert("parts", row!["P8", 80]).unwrap();
        d.insert("parts", row!["P9", 90]).unwrap();
        let new = d.table("parts").unwrap();
        assert_eq!(new.version(), old_version, "same number of writes");
        assert_ne!(new.id(), old_id, "a re-created table must not pass for the dropped one");
    }

    /// Creating an index leaves the version alone (the rows did not
    /// change); `index_positions` is what tells.
    #[test]
    fn index_creation_shows_in_positions_not_in_version() {
        let mut d = db();
        d.insert("parts", row!["P1", 10]).unwrap();
        let t = d.table_mut("parts").unwrap();
        let (id, version) = (t.id(), t.version());
        t.create_index(&["price"]).unwrap();
        assert_eq!((t.id(), t.version()), (id, version));
        assert_eq!(t.index_positions(), vec![vec![1]]);
    }

    #[test]
    fn update_named_resolves_columns() {
        let mut d = db();
        d.insert("parts", row!["P1", 10]).unwrap();
        let (pre, post) = d
            .update_named("parts", &k("P1"), &[("price", Value::Int(42))])
            .unwrap();
        assert_eq!(pre, row!["P1", 10]);
        assert_eq!(post, row!["P1", 42]);
    }

    #[test]
    fn abort_round_restores_db_and_preserves_log() {
        let mut d = db();
        d.set_logging(false);
        d.insert("parts", row!["P1", 10]).unwrap();
        d.insert("parts", row!["P2", 20]).unwrap();
        d.set_logging(true);
        // A pending base-table change, as at the start of a round.
        d.update("parts", &k("P1"), &[(1, Value::Int(11))]).unwrap();
        let before = d.signature();
        let log_len = d.log().len();

        assert!(d.begin_round());
        assert!(!d.begin_round(), "nested open must not own the round");
        d.end_nested_round();
        d.table_mut("parts").unwrap().insert(row!["P9", 90]).unwrap();
        d.table_mut("parts").unwrap().delete(&k("P2")).unwrap();
        d.abort_round();

        assert_eq!(d.signature(), before, "abort must restore exactly");
        assert_eq!(d.log().len(), log_len, "abort must keep the mod log");
        assert!(!d.round_open());
        assert!(d.undo_log().is_empty());

        // Commit path: mutations stick, journal drains.
        assert!(d.begin_round());
        d.table_mut("parts").unwrap().insert(row!["P9", 90]).unwrap();
        d.commit_round();
        assert_ne!(d.signature(), before);
        assert!(d.undo_log().is_empty());
        assert!(!d.undo_log().is_armed());
    }

    #[test]
    fn round_undo_off_skips_journaling() {
        let mut d = db();
        d.set_round_undo(false);
        assert!(d.begin_round());
        d.table_mut("parts").unwrap().insert(row!["P1", 1]).unwrap();
        assert!(d.undo_log().is_empty(), "baseline mode must not journal");
        d.abort_round();
        // No journal ⇒ the partial state stands (documented baseline).
        assert_eq!(d.table("parts").unwrap().len(), 1);
    }

    #[test]
    fn signature_fingerprints_pending_modlog() {
        let mut d = db();
        d.set_logging(false);
        d.insert("parts", row!["P1", 10]).unwrap();
        d.set_logging(true);
        let drained = d.signature();
        assert!(
            drained.contains_key(MODLOG_SIGNATURE_KEY),
            "signature must carry the modlog pseudo-entry"
        );

        // Pending (un-drained) work is visible in the pseudo-entry.
        d.update("parts", &k("P1"), &[(1, Value::Int(11))]).unwrap();
        let pending = d.signature();
        assert_ne!(
            pending[MODLOG_SIGNATURE_KEY], drained[MODLOG_SIGNATURE_KEY],
            "un-drained work must change the modlog fingerprint"
        );

        // The *fold* is hashed: reverting the update restores the table
        // AND cancels the net, so the whole signature returns to the
        // drained state without clearing the log.
        d.update("parts", &k("P1"), &[(1, Value::Int(10))]).unwrap();
        assert_eq!(d.signature(), drained);

        // Same table contents, different pending nets ⇒ different
        // signatures (this is the coverage a table-only signature
        // lacked: the update below was applied to both, but only one
        // database still owes its views the maintenance round).
        d.update("parts", &k("P1"), &[(1, Value::Int(12))]).unwrap();
        let undrained = d.signature();
        d.clear_log();
        let drained_at_12 = d.signature();
        assert_eq!(undrained["parts"], drained_at_12["parts"]);
        assert_ne!(undrained, drained_at_12);

        // Two databases with identical tables and identical pending
        // nets agree, even when the raw entry lists differ.
        let mut a = db();
        let mut b = db();
        a.insert("parts", row!["P1", 10]).unwrap();
        b.insert("parts", row!["P1", 99]).unwrap();
        b.update("parts", &k("P1"), &[(1, Value::Int(10))]).unwrap();
        assert_eq!(a.fold_log(), b.fold_log());
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn pre_state_through_database() {
        let mut d = db();
        d.set_logging(false);
        d.insert("parts", row!["P1", 10]).unwrap();
        d.set_logging(true);
        d.update("parts", &k("P1"), &[(1, Value::Int(11))]).unwrap();
        let folded = d.fold_log();
        let pre = d.pre_state("parts", &folded).unwrap();
        assert_eq!(pre.rows_uncounted(), vec![row!["P1", 10]]);
    }
}
