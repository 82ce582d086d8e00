//! The modification logger, net-change folding, and the per-round
//! **undo log**.
//!
//! Section 5 of the paper: base-table modifications are recorded by a
//! *modification logger* at data-modification time; at view-maintenance
//! time the *i-diff instance generator* "combines multiple modifications
//! to the same tuple to a single modification, so as to generate effective
//! diffs". [`ModificationLog::fold`] implements exactly that combination,
//! producing one [`NetChange`] per (table, primary key).
//!
//! **Who owns a net.** A round's [`Net`] is folded once and then only
//! *shared*: each table's changes sit behind one [`SharedChanges`]
//! handle, and every consumer — each dependent view's pending net, the
//! write-ahead log's redo image, a checkpoint in flight — holds a clone
//! of the handle, not of the changes. Nobody mutates a net somebody
//! else can see: the one way in is [`SharedChanges::make_mut`], which
//! copies first unless the caller holds the only handle, and forgets
//! the memoized [`SharedChanges::digest`] either way. The scheduler is
//! the only caller outside this module's composition
//! ([`compose_shared`]), and only between rounds.
//!
//! The [`UndoLog`] is the inverse-operation journal that makes a
//! maintenance round *atomic*: while a round is open
//! ([`Database::begin_round`](crate::Database::begin_round)), every
//! view/cache mutation records the [`UndoOp`] that reverses it, so an
//! `Err` escaping mid-round can restore every table — rows **and**
//! secondary indexes — to its exact pre-round state
//! ([`Database::abort_round`](crate::Database::abort_round)). When no
//! round is open the journal is disarmed and each write path pays one
//! relaxed atomic load, nothing more.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use idivm_types::{Fnv1a, Key, Row};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// One logged base-table modification, with pre-images where applicable.
/// The rows are shared with whoever produced them (the table's displaced
/// and stored rows, the caller's inserted row): logging copies no tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogEntry {
    Insert {
        table: String,
        row: Row,
    },
    Delete {
        table: String,
        key: Key,
        pre: Row,
    },
    Update {
        table: String,
        key: Key,
        pre: Row,
        post: Row,
    },
}

impl LogEntry {
    /// The table this entry belongs to.
    pub fn table(&self) -> &str {
        match self {
            LogEntry::Insert { table, .. }
            | LogEntry::Delete { table, .. }
            | LogEntry::Update { table, .. } => table,
        }
    }
}

/// The *net* effect of all logged modifications on one tuple, i.e. the
/// effective single modification between the table's pre-state and
/// post-state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NetChange {
    /// Tuple did not exist before and exists now.
    Inserted { post: Row },
    /// Tuple existed before and does not exist now.
    Deleted { pre: Row },
    /// Tuple existed before and after with different contents.
    Updated { pre: Row, post: Row },
}

/// Net changes of one table: primary key → [`NetChange`].
pub type TableChanges = HashMap<Key, NetChange>;

/// One table's net changes as an immutable value shared by `Arc`:
/// cloning bumps a count, reading goes through `Deref`, and the content
/// digest and the pre-image groups of each probed column set are
/// computed at most once per allocation.
#[derive(Debug, Clone, Default)]
pub struct SharedChanges(Arc<Memoized>);

#[derive(Debug, Default)]
struct Memoized {
    changes: TableChanges,
    digest: OnceLock<u64>,
    pre_images: Mutex<Vec<(Vec<usize>, Arc<PreImages>)>>,
}

/// A copy starts without memos: they belong to the allocation.
impl Clone for Memoized {
    fn clone(&self) -> Self {
        Memoized {
            changes: self.changes.clone(),
            ..Memoized::default()
        }
    }
}

/// The pre-images of a table's deleted and updated entries, grouped by
/// their values at one column set: what a pre-state probe on those
/// columns adds back ([`crate::PreState::lookup`]).
pub(crate) type PreImages = HashMap<Key, Vec<Row>>;

#[cfg(test)]
thread_local! {
    /// Change-map entries visited to build pre-image groups.
    pub(crate) static PRE_IMAGE_VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Folded net changes of a round (or of several composed rounds):
/// table → its shared changes. The one net type every layer speaks.
pub type Net = HashMap<String, SharedChanges>;

impl SharedChanges {
    /// True iff both handles share one allocation.
    pub fn ptr_eq(&self, other: &SharedChanges) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Mutable access, copy-on-write: the changes are copied first
    /// unless this is the only handle. The memoized digest is reset.
    pub fn make_mut(&mut self) -> &mut TableChanges {
        let inner = Arc::make_mut(&mut self.0);
        inner.digest = OnceLock::new();
        inner.pre_images = Mutex::default();
        &mut inner.changes
    }

    /// The pre-images grouped by their values at `cols`: one pass over
    /// the changes on the first probe of a column set, remembered on
    /// the shared allocation for every later one.
    pub(crate) fn pre_images(&self, cols: &[usize]) -> Arc<PreImages> {
        let mut memo = self.0.pre_images.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, groups)) = memo.iter().find(|(c, _)| c == cols) {
            return Arc::clone(groups);
        }
        let mut groups = PreImages::new();
        for change in self.values() {
            #[cfg(test)]
            PRE_IMAGE_VISITS.with(|v| v.set(v.get() + 1));
            if let NetChange::Deleted { pre } | NetChange::Updated { pre, .. } = change {
                groups.entry(pre.key(cols)).or_default().push(pre.clone());
            }
        }
        let groups = Arc::new(groups);
        memo.push((cols.to_vec(), Arc::clone(&groups)));
        groups
    }

    /// FNV-1a digest of the contents in sorted key order — equal nets
    /// digest equally whatever order their entries went in, in any
    /// process. Keys and changes are fed through their `Hash` impls.
    /// Computed on first use and remembered on the shared allocation.
    pub fn digest(&self) -> u64 {
        *self.0.digest.get_or_init(|| {
            let mut h = Fnv1a::default();
            let mut items: Vec<(&Key, &NetChange)> = self.iter().collect();
            items.sort_unstable_by_key(|(k, _)| *k);
            for item in items {
                item.hash(&mut h);
            }
            h.finish()
        })
    }

    /// The digest if some holder of this allocation has computed it.
    pub fn digest_memo(&self) -> Option<u64> {
        self.0.digest.get().copied()
    }
}

impl Deref for SharedChanges {
    type Target = TableChanges;
    fn deref(&self) -> &TableChanges {
        &self.0.changes
    }
}

impl From<TableChanges> for SharedChanges {
    fn from(changes: TableChanges) -> Self {
        SharedChanges(Arc::new(Memoized {
            changes,
            ..Memoized::default()
        }))
    }
}

impl PartialEq for SharedChanges {
    fn eq(&self, other: &SharedChanges) -> bool {
        self.ptr_eq(other) || **self == **other
    }
}

/// Digest of `net` restricted to `tables` (given sorted): each present
/// table's name and [`SharedChanges::digest`].
pub fn net_digest(net: &Net, tables: &[String]) -> u64 {
    let mut h = Fnv1a::default();
    for t in tables {
        if let Some(changes) = net.get(t) {
            t.hash(&mut h);
            changes.digest().hash(&mut h);
        }
    }
    h.finish()
}

/// An append-only log of base-table modifications.
#[derive(Debug, Clone, Default)]
pub struct ModificationLog {
    entries: Vec<LogEntry>,
}

impl ModificationLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an entry.
    pub fn push(&mut self, e: LogEntry) {
        self.entries.push(e);
    }

    /// All entries in arrival order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop all entries (after a maintenance round has consumed them).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Drop every entry past `len`, restoring the log to an earlier
    /// length (ingest rollback: un-log a partially admitted batch).
    /// No-op when the log is already at or below `len`.
    pub fn truncate(&mut self, len: usize) {
        self.entries.truncate(len);
    }

    /// Drain the log, returning the entries.
    pub fn take(&mut self) -> Vec<LogEntry> {
        std::mem::take(&mut self.entries)
    }

    /// Fold the log into effective per-tuple net changes, grouped by
    /// table. `key_of` extracts the primary key of an inserted row (the
    /// caller — normally [`Database`](crate::Database) — knows each
    /// table's key positions). See [`fold_keyed`] for the collapse rules.
    pub fn fold(&self, key_of: impl Fn(&str, &Row) -> Key) -> Net {
        fold_keyed(&self.entries, key_of)
    }
}

fn apply_insert(changes: &mut TableChanges, key: Key, row: Row) {
    match changes.remove(&key) {
        None => {
            changes.insert(key, NetChange::Inserted { post: row });
        }
        Some(NetChange::Deleted { pre }) => {
            // delete → insert: net update (or nothing).
            if pre != row {
                changes.insert(key, NetChange::Updated { pre, post: row });
            }
        }
        Some(NetChange::Inserted { .. }) => {
            // insert over a net-inserted tuple (degenerate: an upsert
            // retransmission, or the cancelling delete was shed from an
            // earlier streamed batch): the key was born inside the
            // window either way, and the newest post-state wins.
            changes.insert(key, NetChange::Inserted { post: row });
        }
        Some(NetChange::Updated { pre: first_pre, .. }) => {
            // insert over a net-updated live tuple (degenerate): net
            // upsert — oldest pre-image, newest post-state. The retain
            // pass drops it if they coincide.
            changes.insert(
                key,
                NetChange::Updated {
                    pre: first_pre,
                    post: row,
                },
            );
        }
    }
}

fn apply_delete(changes: &mut TableChanges, key: Key, pre: Row) {
    match changes.remove(&key) {
        None => {
            changes.insert(key, NetChange::Deleted { pre });
        }
        Some(NetChange::Inserted { .. }) => {
            // insert → delete: net nothing.
        }
        Some(NetChange::Updated { pre: first_pre, .. }) => {
            changes.insert(key, NetChange::Deleted { pre: first_pre });
        }
        Some(NetChange::Deleted { pre }) => {
            // double delete: keep the first (log anomaly).
            changes.insert(key, NetChange::Deleted { pre });
        }
    }
}

fn apply_update(changes: &mut TableChanges, key: Key, pre: Row, post: Row) {
    match changes.remove(&key) {
        None => {
            changes.insert(key, NetChange::Updated { pre, post });
        }
        Some(NetChange::Inserted { .. }) => {
            changes.insert(key, NetChange::Inserted { post });
        }
        Some(NetChange::Updated { pre: first_pre, .. }) => {
            changes.insert(
                key,
                NetChange::Updated {
                    pre: first_pre,
                    post,
                },
            );
        }
        Some(NetChange::Deleted { pre: del_pre }) => {
            // update after delete (degenerate: the resurrecting insert
            // was lost upstream): the update proves the row lives with
            // `post` now, so the net is a plain update from the oldest
            // pre-image. The retain pass drops it if they coincide.
            changes.insert(
                key,
                NetChange::Updated {
                    pre: del_pre,
                    post,
                },
            );
        }
    }
}

/// Fold log entries into effective per-tuple net changes, grouped by
/// table. Modifications to the same key collapse pairwise:
///
/// * insert → update ⇒ insert (with updated contents)
/// * insert → delete ⇒ nothing
/// * update → update ⇒ one update (first pre, last post)
/// * update → delete ⇒ delete (first pre)
/// * delete → insert ⇒ update (or nothing if contents identical)
/// * update with pre == post ⇒ nothing
///
/// **Degenerate sequences** — entry pairs the storage layer cannot
/// produce (it rejects duplicate-key inserts and modifications of
/// missing rows) but that a streamed CDC feed, a hand-built log, or a
/// batch with shed/quarantined events can contain — resolve by
/// **oldest pre-image, newest post-state**, so folding is total, a
/// maintenance round never aborts on a log anomaly, and the result is
/// never a stale "dummy" diff that matches nothing at APPLY:
///
/// * delete → delete ⇒ the first delete stands (row is gone either way)
/// * delete → update ⇒ update (oldest pre, the update's post)
/// * insert → insert ⇒ insert with the newest contents (net upsert)
/// * update → insert ⇒ update (oldest pre, the insert's contents)
///
/// This first-pre/last-post resolution makes per-key folding a true
/// monoid action: [`compose_changes`] satisfies `compose(fold(a),
/// fold(b)) == fold(a ++ b)` for **every** entry sequence, not just
/// storage-validated ones — which is what lets streamed micro-batches
/// compose exactly across arbitrary cut boundaries.
///
/// The result is *effective* in the paper's sense: for each tuple it
/// reflects the final value, so diff application order is immaterial.
/// `key_of` extracts the primary key of an inserted row.
pub fn fold_keyed(entries: &[LogEntry], key_of: impl Fn(&str, &Row) -> Key) -> Net {
    let mut out: HashMap<String, TableChanges> = HashMap::new();
    for e in entries {
        // A table's name is copied on its first entry only.
        let per_table = match out.get_mut(e.table()) {
            Some(changes) => changes,
            None => out.entry(e.table().to_string()).or_default(),
        };
        match e {
            LogEntry::Insert { table, row } => {
                apply_insert(per_table, key_of(table, row), row.clone());
            }
            LogEntry::Delete { key, pre, .. } => {
                apply_delete(per_table, key.clone(), pre.clone());
            }
            LogEntry::Update { key, pre, post, .. } => {
                apply_update(per_table, key.clone(), pre.clone(), post.clone());
            }
        }
    }
    out.into_iter()
        .filter_map(|(table, mut changes)| {
            drop_noops(&mut changes);
            (!changes.is_empty()).then(|| (table, changes.into()))
        })
        .collect()
}

/// An update whose pre and post coincide is no change.
fn drop_noops(changes: &mut TableChanges) {
    changes.retain(|_, c| match c {
        NetChange::Updated { pre, post } => pre != post,
        _ => true,
    });
}

/// Compose a later batch of per-table net changes **onto** an earlier
/// one, in place. `base` is the accumulated pending net (older), `next`
/// the freshly folded round batch (newer); after the call `base` holds
/// the effective net between the oldest pre-state and the newest
/// post-state, using the same pairwise collapse rules as [`fold_keyed`]
/// (insert→update ⇒ insert, insert→delete ⇒ nothing, update→update ⇒
/// first-pre/last-post, update→delete ⇒ delete with first pre,
/// delete→insert ⇒ update or nothing, pre == post ⇒ nothing).
///
/// This is what lets a *deferred* view fold several rounds of
/// modifications into one effective maintenance batch — and what lets
/// the streaming ingest path cut micro-batches anywhere: composing
/// nets is associative with folding, `compose(fold(a), fold(b)) ==
/// fold(a ++ b)` for **every** log, including degenerate sequences
/// split across batch boundaries (e.g. insert → delete → insert of one
/// key across two micro-batches composes to a single net upsert; see
/// the degenerate-cell rules on [`fold_keyed`]).
pub fn compose_changes(base: &mut Net, next: Net) {
    for (table, changes) in next {
        compose_shared([&mut *base], &table, &changes);
    }
}

/// [`compose_changes`] for one table's newer changes `next`, onto that
/// table's entry in each of `nets` at once. A net that holds nothing
/// for the table takes a handle on `next` itself — nothing is copied.
/// Nets that hold the *same allocation* for it (views on one horizon)
/// are composed once and keep sharing the result, hence its digest;
/// the composition is in place when no one else holds the allocation
/// and copy-on-write otherwise ([`SharedChanges::make_mut`]).
pub fn compose_shared<'a>(
    nets: impl IntoIterator<Item = &'a mut Net>,
    table: &str,
    next: &SharedChanges,
) {
    let mut groups: Vec<(SharedChanges, Vec<&'a mut Net>)> = Vec::new();
    for net in nets {
        match net.get(table) {
            None => {
                net.insert(table.to_string(), next.clone());
            }
            Some(held) => match groups.iter_mut().find(|(of, _)| of.ptr_eq(held)) {
                Some((_, members)) => members.push(net),
                None => groups.push((held.clone(), vec![net])),
            },
        }
    }
    for (mut held, mut members) in groups {
        // The members let go first, so `held` is the only handle left
        // unless someone outside the group shares the allocation.
        for net in &mut members {
            net.remove(table);
        }
        let per_table = held.make_mut();
        for (key, change) in next.iter() {
            match change.clone() {
                NetChange::Inserted { post } => apply_insert(per_table, key.clone(), post),
                NetChange::Deleted { pre } => apply_delete(per_table, key.clone(), pre),
                NetChange::Updated { pre, post } => {
                    apply_update(per_table, key.clone(), pre, post);
                }
            }
        }
        drop_noops(per_table);
        if !held.is_empty() {
            for net in members {
                net.insert(table.to_string(), held.clone());
            }
        }
    }
}

/// The exact [`TableChanges`] between two row snapshots of one keyed
/// table: rows only in `pre` are [`NetChange::Deleted`], rows only in
/// `post` are [`NetChange::Inserted`], rows present in both with
/// different contents are [`NetChange::Updated`]. `key_cols` are the
/// table's primary-key positions.
///
/// This is the fallback Δ-extraction path of the adaptive-intermediate
/// layer: a clean maintenance round reports its net view changes
/// directly, but a *supervised* round (retry/quarantine/recompute) only
/// guarantees the final table state — diffing snapshots recovers the Δ
/// the backing table's consumers must see.
pub fn table_delta(pre: &[Row], post: &[Row], key_cols: &[usize]) -> TableChanges {
    let pre_by_key: HashMap<Key, &Row> = pre.iter().map(|r| (r.key(key_cols), r)).collect();
    let post_by_key: HashMap<Key, &Row> = post.iter().map(|r| (r.key(key_cols), r)).collect();
    let mut out = TableChanges::new();
    for (k, pre_row) in &pre_by_key {
        match post_by_key.get(k) {
            None => {
                out.insert(k.clone(), NetChange::Deleted { pre: (*pre_row).clone() });
            }
            Some(post_row) if post_row != pre_row => {
                out.insert(
                    k.clone(),
                    NetChange::Updated {
                        pre: (*pre_row).clone(),
                        post: (*post_row).clone(),
                    },
                );
            }
            Some(_) => {}
        }
    }
    for (k, post_row) in &post_by_key {
        if !pre_by_key.contains_key(k) {
            out.insert(k.clone(), NetChange::Inserted { post: (*post_row).clone() });
        }
    }
    out
}

// ----------------------------------------------------------------------
// Undo log: inverse operations for atomic maintenance rounds
// ----------------------------------------------------------------------

/// One recorded inverse operation. Replaying an [`UndoOp`] exactly
/// reverses the table mutation that recorded it — including secondary
/// index maintenance — without touching the access counters (rollback
/// is failure machinery, not a measured IVM path).
///
/// `table` is the owning table's shared name handle and every `row` is
/// shared with the table that stored it: recording an op bumps
/// reference counts and allocates nothing. Where replay needs a primary
/// key it derives it from the row and the table's schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UndoOp {
    /// `row` was inserted; undo by removing the row stored under its
    /// primary key.
    Insert { table: Arc<str>, row: Row },
    /// A row was deleted; undo by re-inserting `row`.
    Delete { table: Arc<str>, row: Row },
    /// A stored row was replaced by a patched copy; `row` is the
    /// displaced one. Undo by putting it back in the slot of its
    /// primary key (keys are immutable, so that is the slot it left).
    Update { table: Arc<str>, row: Row },
    /// A secondary index was created mid-round; undo by dropping it so
    /// a rolled-back first round leaves the table bit-identical.
    CreateIndex { table: Arc<str>, cols: Vec<usize> },
}

impl UndoOp {
    /// The table this inverse operation targets.
    pub fn table(&self) -> &str {
        match self {
            UndoOp::Insert { table, .. }
            | UndoOp::Delete { table, .. }
            | UndoOp::Update { table, .. }
            | UndoOp::CreateIndex { table, .. } => table,
        }
    }
}

#[derive(Debug, Default)]
struct UndoInner {
    /// Number of open interests (round + nested APPLY sessions).
    /// Recording happens iff this is non-zero; when zero, every write
    /// path pays exactly one relaxed atomic load.
    interest: AtomicUsize,
    /// The journal itself. Mutations (APPLY) only happen on the serial
    /// part of a round, so this mutex is uncontended — it exists so the
    /// sink can be shared (`Database` is `Sync` for the parallel
    /// propagation phase, which never writes).
    buf: Mutex<Vec<UndoOp>>,
}

/// A shared, interest-counted journal of [`UndoOp`]s.
///
/// Cloning is cheap (an `Arc` bump); [`Database`](crate::Database)
/// clones one `UndoLog` into every [`Table`](crate::Table) the same way
/// it shares [`AccessStats`](crate::AccessStats). Sessions nest:
/// [`UndoLog::arm`] takes an interest and returns the current journal
/// length as a *mark*; an inner session that fails rolls back only its
/// own suffix ([`UndoLog::split_off`]) while the outer round keeps its
/// prefix.
#[derive(Debug, Clone, Default)]
pub struct UndoLog {
    inner: Arc<UndoInner>,
}

impl UndoLog {
    /// A fresh, disarmed journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// True iff the two handles share one journal.
    pub fn same_sink(&self, other: &UndoLog) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Open an interest (begin a session) and return the mark — the
    /// journal length at session start. Entries recorded after the mark
    /// belong to this session (and any sessions nested inside it).
    pub fn arm(&self) -> usize {
        self.inner.interest.fetch_add(1, Ordering::Relaxed);
        self.len()
    }

    /// Close an interest without touching the entries (the caller
    /// decides whether to keep or roll back its suffix).
    pub fn disarm(&self) {
        self.inner.interest.fetch_sub(1, Ordering::Relaxed);
    }

    /// True iff at least one session is open. Write paths gate on this
    /// before building an [`UndoOp`], so the disarmed cost is one
    /// relaxed load.
    pub fn is_armed(&self) -> bool {
        self.inner.interest.load(Ordering::Relaxed) > 0
    }

    /// Append an inverse operation. No-op when disarmed.
    pub fn record(&self, op: UndoOp) {
        if !self.is_armed() {
            return;
        }
        self.lock_buf().push(op);
    }

    /// Current journal length (a mark for later [`UndoLog::split_off`]).
    pub fn len(&self) -> usize {
        self.lock_buf().len()
    }

    /// True iff no entries are journaled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove and return every entry recorded at or after `mark`, in
    /// recording order. The caller replays them **in reverse** to roll
    /// back. Entries before the mark stay journaled for the enclosing
    /// session.
    pub fn split_off(&self, mark: usize) -> Vec<UndoOp> {
        let mut buf = self.lock_buf();
        if mark >= buf.len() {
            return Vec::new();
        }
        buf.split_off(mark)
    }

    /// Drop every entry (a committed outermost round discards its
    /// journal wholesale).
    pub fn clear(&self) {
        self.lock_buf().clear();
    }

    fn lock_buf(&self) -> std::sync::MutexGuard<'_, Vec<UndoOp>> {
        // A poisoned mutex means a panic elsewhere; the journal data is
        // plain `Vec` pushes, still structurally sound — recover it.
        match self.inner.buf.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use idivm_types::{row, Value};

    fn k(v: i64) -> Key {
        Key(vec![idivm_types::Value::Int(v)])
    }

    fn key_of(_t: &str, r: &Row) -> Key {
        Key(vec![r[0].clone()])
    }

    #[test]
    fn update_update_collapses() {
        let entries = vec![
            LogEntry::Update {
                table: "p".into(),
                key: k(1),
                pre: row![1, 10],
                post: row![1, 11],
            },
            LogEntry::Update {
                table: "p".into(),
                key: k(1),
                pre: row![1, 11],
                post: row![1, 12],
            },
        ];
        let folded = fold_keyed(&entries, key_of);
        assert_eq!(
            folded["p"][&k(1)],
            NetChange::Updated {
                pre: row![1, 10],
                post: row![1, 12]
            }
        );
    }

    #[test]
    fn insert_then_delete_cancels() {
        let entries = vec![
            LogEntry::Insert {
                table: "p".into(),
                row: row![1, 10],
            },
            LogEntry::Delete {
                table: "p".into(),
                key: k(1),
                pre: row![1, 10],
            },
        ];
        assert!(fold_keyed(&entries, key_of).is_empty());
    }

    #[test]
    fn insert_then_update_is_insert() {
        let entries = vec![
            LogEntry::Insert {
                table: "p".into(),
                row: row![1, 10],
            },
            LogEntry::Update {
                table: "p".into(),
                key: k(1),
                pre: row![1, 10],
                post: row![1, 99],
            },
        ];
        let folded = fold_keyed(&entries, key_of);
        assert_eq!(folded["p"][&k(1)], NetChange::Inserted { post: row![1, 99] });
    }

    #[test]
    fn update_then_delete_is_delete_with_first_pre() {
        let entries = vec![
            LogEntry::Update {
                table: "p".into(),
                key: k(1),
                pre: row![1, 10],
                post: row![1, 11],
            },
            LogEntry::Delete {
                table: "p".into(),
                key: k(1),
                pre: row![1, 11],
            },
        ];
        let folded = fold_keyed(&entries, key_of);
        assert_eq!(folded["p"][&k(1)], NetChange::Deleted { pre: row![1, 10] });
    }

    #[test]
    fn delete_then_insert_same_contents_cancels() {
        let entries = vec![
            LogEntry::Delete {
                table: "p".into(),
                key: k(1),
                pre: row![1, 10],
            },
            LogEntry::Insert {
                table: "p".into(),
                row: row![1, 10],
            },
        ];
        assert!(fold_keyed(&entries, key_of).is_empty());
    }

    #[test]
    fn delete_then_insert_different_contents_is_update() {
        let entries = vec![
            LogEntry::Delete {
                table: "p".into(),
                key: k(1),
                pre: row![1, 10],
            },
            LogEntry::Insert {
                table: "p".into(),
                row: row![1, 20],
            },
        ];
        let folded = fold_keyed(&entries, key_of);
        assert_eq!(
            folded["p"][&k(1)],
            NetChange::Updated {
                pre: row![1, 10],
                post: row![1, 20]
            }
        );
    }

    #[test]
    fn update_back_to_original_cancels() {
        let entries = vec![
            LogEntry::Update {
                table: "p".into(),
                key: k(1),
                pre: row![1, 10],
                post: row![1, 11],
            },
            LogEntry::Update {
                table: "p".into(),
                key: k(1),
                pre: row![1, 11],
                post: row![1, 10],
            },
        ];
        assert!(fold_keyed(&entries, key_of).is_empty());
    }

    // ------------------------------------------------------------------
    // The full 9-cell state-transition matrix: accumulated net state
    // (Inserted / Updated / Deleted) × incoming entry (insert / delete /
    // update). The four degenerate cells are pinned as documented
    // first-pre/last-post resolutions — folding must stay total on
    // anomalous logs AND compose exactly across micro-batch boundaries.
    // ------------------------------------------------------------------

    fn ins(v: i64) -> LogEntry {
        LogEntry::Insert {
            table: "p".into(),
            row: row![1, v],
        }
    }

    fn del(pre: i64) -> LogEntry {
        LogEntry::Delete {
            table: "p".into(),
            key: k(1),
            pre: row![1, pre],
        }
    }

    fn upd(pre: i64, post: i64) -> LogEntry {
        LogEntry::Update {
            table: "p".into(),
            key: k(1),
            pre: row![1, pre],
            post: row![1, post],
        }
    }

    /// Cell (Inserted, insert): degenerate upsert — the newest
    /// contents win (the key was born in the window either way).
    #[test]
    fn insert_then_insert_keeps_newest() {
        let folded = fold_keyed(&[ins(10), ins(99)], key_of);
        assert_eq!(folded["p"][&k(1)], NetChange::Inserted { post: row![1, 99] });
    }

    /// Cell (Updated, insert): degenerate upsert over a net-updated
    /// live tuple — oldest pre-image, newest contents.
    #[test]
    fn update_then_insert_is_upsert() {
        let folded = fold_keyed(&[upd(10, 11), ins(99)], key_of);
        assert_eq!(
            folded["p"][&k(1)],
            NetChange::Updated {
                pre: row![1, 10],
                post: row![1, 99]
            }
        );
    }

    /// Cell (Deleted, delete): double delete keeps the first delete's
    /// pre-image (the row is gone either way).
    #[test]
    fn delete_then_delete_keeps_first_pre() {
        let folded = fold_keyed(&[del(10), del(99)], key_of);
        assert_eq!(folded["p"][&k(1)], NetChange::Deleted { pre: row![1, 10] });
    }

    /// Cell (Deleted, update): the update proves the row lives — net
    /// update from the delete's pre-image to the update's post.
    #[test]
    fn delete_then_update_resurrects_as_update() {
        let folded = fold_keyed(&[del(10), upd(10, 99)], key_of);
        assert_eq!(
            folded["p"][&k(1)],
            NetChange::Updated {
                pre: row![1, 10],
                post: row![1, 99]
            }
        );
        // ...and back to the original contents nets to nothing.
        assert!(fold_keyed(&[del(10), upd(99, 10)], key_of).is_empty());
    }

    /// All 9 cells in one sweep, asserting the net outcome of each
    /// (prior state × incoming entry) combination.
    #[test]
    fn nine_cell_transition_matrix() {
        let cells: Vec<(Vec<LogEntry>, Option<NetChange>)> = vec![
            // Prior Inserted:
            (vec![ins(10), ins(99)], Some(NetChange::Inserted { post: row![1, 99] })),
            (vec![ins(10), del(10)], None),
            (vec![ins(10), upd(10, 11)], Some(NetChange::Inserted { post: row![1, 11] })),
            // Prior Updated:
            (
                vec![upd(10, 11), ins(99)],
                Some(NetChange::Updated { pre: row![1, 10], post: row![1, 99] }),
            ),
            (vec![upd(10, 11), del(11)], Some(NetChange::Deleted { pre: row![1, 10] })),
            (
                vec![upd(10, 11), upd(11, 12)],
                Some(NetChange::Updated { pre: row![1, 10], post: row![1, 12] }),
            ),
            // Prior Deleted:
            (
                vec![del(10), ins(20)],
                Some(NetChange::Updated { pre: row![1, 10], post: row![1, 20] }),
            ),
            (vec![del(10), del(99)], Some(NetChange::Deleted { pre: row![1, 10] })),
            (
                vec![del(10), upd(10, 99)],
                Some(NetChange::Updated { pre: row![1, 10], post: row![1, 99] }),
            ),
        ];
        for (i, (entries, expect)) in cells.iter().enumerate() {
            let folded = fold_keyed(entries, key_of);
            match expect {
                Some(net) => assert_eq!(
                    folded["p"][&k(1)],
                    *net,
                    "cell {i}: wrong net change"
                ),
                None => assert!(folded.is_empty(), "cell {i}: expected no net change"),
            }
        }
    }

    /// **Transition-matrix extension for streamed batches**: every cell
    /// of the matrix must give the *same* net whether the two entries
    /// fold in one batch or compose across a micro-batch boundary —
    /// `compose(fold(a), fold(b)) == fold(a ++ b)` including every
    /// degenerate cell. (The old keep-first degenerate rules broke this
    /// exactly at batch boundaries: e.g. `[del(10)]` then
    /// `[del(99), ins(7)]` composed to a stale `Deleted` — a dummy diff
    /// — where folding the concatenation gave `Updated{10, 7}`.)
    #[test]
    fn compose_agrees_with_fold_on_every_matrix_cell_and_split() {
        let scripts: Vec<Vec<LogEntry>> = vec![
            // The 9 matrix cells...
            vec![ins(10), ins(99)],
            vec![ins(10), del(10)],
            vec![ins(10), upd(10, 11)],
            vec![upd(10, 11), ins(99)],
            vec![upd(10, 11), del(11)],
            vec![upd(10, 11), upd(11, 12)],
            vec![del(10), ins(20)],
            vec![del(10), del(99)],
            vec![del(10), upd(10, 99)],
            // ...plus longer degenerate runs that previously diverged.
            vec![del(10), del(99), ins(7)],
            vec![ins(10), del(10), ins(20)],
            vec![ins(10), ins(99), upd(99, 7)],
            vec![del(10), upd(10, 99), del(99)],
            vec![upd(10, 11), ins(99), upd(99, 10)],
        ];
        // One shape is deliberately absent: `[ins(10), ins(99), del(99)]`
        // split after the first insert. The later batch's fold is *empty*
        // (its degenerate insert-over-insert upsert cancels against the
        // delete batch-internally), so compose never learns the key was
        // touched and the stale `Inserted{10}` survives. That erasure is
        // inherent to the (pre, post) net encoding — and unreachable on
        // the streamed path, because admission dead-letters an insert
        // over a live key before it can be logged as a second Insert.
        for script in &scripts {
            let whole = fold_keyed(script, key_of);
            for split in 0..=script.len() {
                let mut composed = fold_keyed(&script[..split], key_of);
                compose_changes(&mut composed, fold_keyed(&script[split..], key_of));
                assert_eq!(
                    composed, whole,
                    "script {script:?} diverges when split at {split}"
                );
            }
        }
    }

    /// The satellite scenario verbatim: insert → delete → insert of the
    /// same key across two micro-batches composes to a single net
    /// upsert — including when the cancelling delete was shed from the
    /// first batch (leaving a degenerate insert-over-insert compose).
    #[test]
    fn cross_batch_insert_delete_insert_is_one_net_upsert() {
        // Clean split: [ins] ++ [del, ins'].
        let mut base = fold_keyed(&[ins(10)], key_of);
        compose_changes(&mut base, fold_keyed(&[del(10), ins(20)], key_of));
        assert_eq!(base["p"][&k(1)], NetChange::Inserted { post: row![1, 20] });
        // Degenerate: the delete was shed upstream, so batch two folds
        // to a bare insert. Newest contents must still win — the old
        // keep-first rule produced a stale Inserted{10} here.
        let mut base = fold_keyed(&[ins(10)], key_of);
        compose_changes(&mut base, fold_keyed(&[ins(20)], key_of));
        assert_eq!(base["p"][&k(1)], NetChange::Inserted { post: row![1, 20] });
    }

    #[test]
    fn compose_matches_folding_the_concatenated_log() {
        // compose(fold(a), fold(b)) == fold(a ++ b) over a mixed script.
        let a = vec![ins(10), upd(10, 11)];
        let b = vec![del(11), ins(20)];
        let mut composed = fold_keyed(&a, key_of);
        compose_changes(&mut composed, fold_keyed(&b, key_of));
        let concat: Vec<LogEntry> = a.iter().chain(b.iter()).cloned().collect();
        assert_eq!(composed, fold_keyed(&concat, key_of));
        // insert(11) then delete across batches nets to nothing... except
        // the second batch re-inserts value 20, so the net is one insert.
        assert_eq!(composed["p"][&k(1)], NetChange::Inserted { post: row![1, 20] });
    }

    #[test]
    fn compose_cancels_across_batches() {
        let mut base = fold_keyed(&[ins(10)], key_of);
        compose_changes(&mut base, fold_keyed(&[del(10)], key_of));
        assert!(base.is_empty(), "insert then delete across batches nets to nothing");

        let mut base = fold_keyed(&[upd(10, 11)], key_of);
        compose_changes(&mut base, fold_keyed(&[upd(11, 10)], key_of));
        assert!(base.is_empty(), "update there-and-back across batches nets to nothing");
    }

    #[test]
    fn changes_group_by_table() {
        let entries = vec![
            LogEntry::Insert {
                table: "a".into(),
                row: row![1],
            },
            LogEntry::Insert {
                table: "b".into(),
                row: row![1],
            },
        ];
        let folded = fold_keyed(&entries, key_of);
        assert_eq!(folded.len(), 2);
    }

    #[test]
    fn log_basic_ops() {
        let mut log = ModificationLog::new();
        assert!(log.is_empty());
        log.push(LogEntry::Insert {
            table: "p".into(),
            row: row![1, 10],
        });
        assert_eq!(log.len(), 1);
        let taken = log.take();
        assert_eq!(taken.len(), 1);
        assert!(log.is_empty());
    }

    #[test]
    fn undo_log_records_only_while_armed() {
        let u = UndoLog::new();
        u.record(UndoOp::Insert {
            table: "v".into(),
            row: row![1, 10],
        });
        assert!(u.is_empty(), "disarmed journal must drop records");
        let mark = u.arm();
        assert_eq!(mark, 0);
        u.record(UndoOp::Insert {
            table: "v".into(),
            row: row![1, 10],
        });
        assert_eq!(u.len(), 1);
        u.disarm();
        assert!(!u.is_armed());
    }

    #[test]
    fn undo_log_sessions_nest_via_marks() {
        let u = UndoLog::new();
        let outer = u.arm();
        u.record(UndoOp::Insert {
            table: "v".into(),
            row: row![1, 10],
        });
        let inner = u.arm();
        u.record(UndoOp::Delete {
            table: "v".into(),
            row: row![2, 20],
        });
        u.record(UndoOp::Update {
            table: "v".into(),
            row: row![3, 30],
        });
        // Inner session fails: only its suffix comes back.
        let suffix = u.split_off(inner);
        u.disarm();
        assert_eq!(suffix.len(), 2);
        assert!(matches!(suffix[0], UndoOp::Delete { .. }));
        assert_eq!(u.len(), 1);
        assert!(u.is_armed(), "outer interest still open");
        // Outer session commits: journal discarded wholesale.
        let _ = outer;
        u.clear();
        u.disarm();
        assert!(u.is_empty());
    }

    #[test]
    fn undo_log_handles_share_one_sink() {
        let a = UndoLog::new();
        let b = a.clone();
        assert!(a.same_sink(&b));
        a.arm();
        b.record(UndoOp::CreateIndex {
            table: "v".into(),
            cols: vec![1],
        });
        assert_eq!(a.len(), 1);
        a.disarm();
    }

    #[test]
    fn table_delta_classifies_all_three_change_kinds() {
        let pre = vec![row![1, 10], row![2, 20], row![3, 30]];
        let post = vec![row![2, 21], row![3, 30], row![4, 40]];
        let delta = table_delta(&pre, &post, &[0]);
        assert_eq!(delta.len(), 3);
        assert_eq!(delta[&k(1)], NetChange::Deleted { pre: row![1, 10] });
        assert_eq!(
            delta[&k(2)],
            NetChange::Updated {
                pre: row![2, 20],
                post: row![2, 21]
            }
        );
        assert_eq!(delta[&k(4)], NetChange::Inserted { post: row![4, 40] });
        // Identical snapshots produce the empty delta.
        assert!(table_delta(&post, &post, &[0]).is_empty());
    }

    fn change(v: i64) -> NetChange {
        NetChange::Inserted { post: row![v] }
    }

    #[test]
    fn net_digest_is_order_insensitive_and_table_scoped() {
        let mut a = Net::new();
        let mut t = TableChanges::new();
        t.insert(Key(vec![Value::Int(1)]), change(1));
        t.insert(Key(vec![Value::Int(2)]), change(2));
        a.insert("m".into(), t.into());

        let mut b = Net::new();
        let mut t = TableChanges::new();
        t.insert(Key(vec![Value::Int(2)]), change(2));
        t.insert(Key(vec![Value::Int(1)]), change(1));
        b.insert("m".into(), t.into());
        // An extra table outside the digest domain must not matter.
        let mut u = TableChanges::new();
        u.insert(Key(vec![Value::Int(9)]), change(9));
        b.insert("users".into(), u.into());

        let tables = vec!["m".to_string()];
        assert_eq!(net_digest(&a, &tables), net_digest(&b, &tables));
        // But a change inside the domain must.
        let mut c = a.clone();
        c.get_mut("m")
            .unwrap()
            .make_mut()
            .insert(Key(vec![Value::Int(3)]), change(3));
        assert_ne!(net_digest(&a, &tables), net_digest(&c, &tables));
    }

    /// Equal nets digest equally whatever order their entries went in
    /// (the two maps also draw different `SipHash` keys, so their
    /// iteration orders differ); one differing post value is enough to
    /// tell two nets apart.
    #[test]
    fn net_digest_sees_contents_not_insertion_order() {
        let entry = |i: i64| {
            let (pre, post) = (row![i, "old"], row![i, "new"]);
            let change = match i % 3 {
                0 => NetChange::Inserted { post },
                1 => NetChange::Deleted { pre },
                _ => NetChange::Updated { pre, post },
            };
            (Key(vec![Value::Int(i)]), change)
        };
        let net_of = |order: &mut dyn Iterator<Item = i64>| {
            let changes: TableChanges = order.map(entry).collect();
            Net::from([("m".to_string(), changes.into())])
        };
        let tables = vec!["m".to_string()];
        let forward = net_of(&mut (0..64));
        // 37 is coprime to 64: a full-cycle shuffle of the same keys.
        let shuffled = net_of(&mut (0..64).map(|i| (i * 37 + 11) % 64));
        assert_eq!(forward, shuffled);
        let digest = |net| net_digest(net, &tables);
        assert_eq!(digest(&forward), digest(&shuffled));

        let mut differing = forward.clone();
        differing.get_mut("m").unwrap().make_mut().insert(
            Key(vec![Value::Int(5)]),
            NetChange::Updated {
                pre: row![5, "old"],
                post: row![5, "newer"],
            },
        );
        assert_ne!(digest(&forward), digest(&differing));
    }

    fn shared(keys: std::ops::Range<i64>) -> SharedChanges {
        let changes: TableChanges = keys.map(|i| (k(i), change(i))).collect();
        changes.into()
    }

    /// `make_mut` never lets a sibling see the write, and the net it
    /// hands out has no digest until someone asks again.
    #[test]
    fn make_mut_copies_on_write_and_forgets_the_digest() {
        let a = shared(0..4);
        let before = a.digest();
        let mut b = a.clone();
        assert!(b.ptr_eq(&a) && b.digest_memo() == Some(before));
        b.make_mut().insert(k(9), change(9));
        assert!(!b.ptr_eq(&a), "the write went into a shared net");
        assert_eq!((a.len(), b.len()), (4, 5));
        assert_eq!((a.digest_memo(), b.digest_memo()), (Some(before), None));
        assert_ne!(b.digest(), before);
        // Undone by hand, the contents — and so the digest — are back.
        b.make_mut().remove(&k(9));
        assert_eq!(b.digest_memo(), None);
        assert_eq!((b.digest(), &b), (before, &a));
        // Two nets built apart digest equally (a recovered store's
        // pending nets are decoded one by one).
        assert_eq!(shared(0..4).digest(), before);
        assert_eq!(shared(0..4).digest_memo(), None);
    }

    /// One composition per allocation: nets holding the same handle
    /// keep sharing the result, a content-equal net held apart gets an
    /// equal result of its own, and a net with nothing for the table
    /// takes the incoming handle as it is.
    #[test]
    fn compose_shared_composes_once_per_allocation() {
        let (held, next) = (shared(0..3), shared(2..5));
        let apart = shared(0..3);
        let mut nets = [
            Net::from([("t".to_string(), held.clone())]),
            Net::from([("t".to_string(), held.clone())]),
            Net::from([("t".to_string(), apart)]),
            Net::new(),
        ];
        compose_shared(nets.iter_mut(), "t", &next);
        let [a, b, c, d] = &nets;
        assert!(a["t"].ptr_eq(&b["t"]), "one horizon, two compositions");
        assert!(!a["t"].ptr_eq(&c["t"]) && a["t"] == c["t"]);
        assert!(d["t"].ptr_eq(&next));
        assert_eq!((a["t"].len(), held.len()), (5, 3), "`held` itself was written");
        let mut whole = Net::from([("t".to_string(), shared(0..3))]);
        compose_changes(&mut whole, Net::from([("t".to_string(), next)]));
        assert_eq!(whole, *a);

        // A composition that cancels everything removes the entry.
        let deleted: TableChanges = (0..5)
            .map(|i| (k(i), NetChange::Deleted { pre: row![i] }))
            .collect();
        compose_shared(nets.iter_mut().take(3), "t", &deleted.into());
        assert!(nets[..3].iter().all(Net::is_empty));
    }
}
