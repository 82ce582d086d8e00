//! ID-based diffs (i-diffs) — paper Section 2.
//!
//! An i-diff for a relation `V(Ī, Ā)` is a relation
//! `∆ᵗ_V(Ī′, Ā′_pre, Ā″_post)` where `Ī′ ⊆ Ī` identifies the tuples to
//! modify, `Ā′_pre` carries pre-state values (used to *reduce*
//! overestimation and avoid base accesses) and `Ā″_post` carries the new
//! values. Insert diffs have no pre set and carry every attribute;
//! delete diffs have no post set.
//!
//! A [`DiffSchema`] describes one i-diff shape *relative to a target
//! relation's output columns* (positions into that relation). A
//! [`DiffInstance`] holds its rows, laid out `[ids…, pre…, post…]`.

use idivm_exec::Batch;
use idivm_types::{Key, Row, Value};
use std::collections::BTreeSet;

/// Diff type `t ∈ {+, −, u}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiffKind {
    Insert,
    Delete,
    Update,
}

impl DiffKind {
    /// Symbol used in displays: `+`, `-`, `u`.
    pub fn symbol(self) -> char {
        match self {
            DiffKind::Insert => '+',
            DiffKind::Delete => '-',
            DiffKind::Update => 'u',
        }
    }
}

/// The schema of an i-diff over some target relation.
///
/// All column references are positions into the target's output schema.
/// Rows of a matching [`DiffInstance`] are laid out as
/// `[id values…, pre values…, post values…]` following `id_cols`,
/// `pre_cols`, `post_cols` order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffSchema {
    pub kind: DiffKind,
    /// `Ī′`: the ID subset identifying target tuples.
    pub id_cols: Vec<usize>,
    /// `Ā′`: target columns carried in pre-state form.
    pub pre_cols: Vec<usize>,
    /// `Ā″`: target columns carried in post-state form (update: the
    /// columns being set; insert: every non-ID column).
    pub post_cols: Vec<usize>,
}

impl DiffSchema {
    /// Insert-diff schema: all IDs + post-state for all other columns.
    pub fn insert(ids: &[usize], arity: usize) -> Self {
        DiffSchema {
            kind: DiffKind::Insert,
            id_cols: ids.to_vec(),
            pre_cols: Vec::new(),
            post_cols: (0..arity).filter(|c| !ids.contains(c)).collect(),
        }
    }

    /// Delete-diff schema addressing tuples by `ids` and carrying
    /// pre-state values for `pre`.
    pub fn delete(ids: &[usize], pre: &[usize]) -> Self {
        DiffSchema {
            kind: DiffKind::Delete,
            id_cols: ids.to_vec(),
            pre_cols: pre.to_vec(),
            post_cols: Vec::new(),
        }
    }

    /// Update-diff schema addressing tuples by `ids`, setting `post`,
    /// carrying pre-state for `pre`.
    pub fn update(ids: &[usize], pre: &[usize], post: &[usize]) -> Self {
        DiffSchema {
            kind: DiffKind::Update,
            id_cols: ids.to_vec(),
            pre_cols: pre.to_vec(),
            post_cols: post.to_vec(),
        }
    }

    /// Width of a diff row.
    pub fn width(&self) -> usize {
        self.id_cols.len() + self.pre_cols.len() + self.post_cols.len()
    }

    /// Position of the pre-state value for target column `c`, if carried.
    pub fn pre_slot(&self, c: usize) -> Option<usize> {
        self.pre_cols
            .iter()
            .position(|&p| p == c)
            .map(|i| self.id_cols.len() + i)
    }

    /// Position of the post-state value for target column `c`, if
    /// carried.
    pub fn post_slot(&self, c: usize) -> Option<usize> {
        self.post_cols
            .iter()
            .position(|&p| p == c)
            .map(|i| self.id_cols.len() + self.pre_cols.len() + i)
    }

    /// Target columns whose **pre-state** value is derivable from a diff
    /// row: the IDs (immutable) plus `pre_cols`; for insert diffs
    /// nothing has a pre-state.
    pub fn pre_available(&self) -> BTreeSet<usize> {
        if self.kind == DiffKind::Insert {
            return BTreeSet::new();
        }
        self.id_cols
            .iter()
            .chain(self.pre_cols.iter())
            .copied()
            .collect()
    }

    /// Target columns whose **post-state** value is derivable: the IDs,
    /// `post_cols`, and (for updates) the carried pre columns that are
    /// *not* being updated — those are unchanged, so pre = post. Delete
    /// diffs have no post-state.
    pub fn post_available(&self) -> BTreeSet<usize> {
        if self.kind == DiffKind::Delete {
            return BTreeSet::new();
        }
        let mut s: BTreeSet<usize> = self
            .id_cols
            .iter()
            .chain(self.post_cols.iter())
            .copied()
            .collect();
        if self.kind == DiffKind::Update {
            for &c in &self.pre_cols {
                if !self.post_cols.contains(&c) {
                    s.insert(c);
                }
            }
        }
        s
    }

    /// The slot of a diff row holding the **pre-state** value of target
    /// column `c`, if derivable: an ID slot (IDs are immutable) or the
    /// carried pre value. Insert diffs have no pre-state.
    pub fn pre_source(&self, c: usize) -> Option<usize> {
        if self.kind == DiffKind::Insert {
            return None;
        }
        self.id_cols
            .iter()
            .position(|&i| i == c)
            .or_else(|| self.pre_slot(c))
    }

    /// The slot of a diff row holding the **post-state** value of target
    /// column `c`, if derivable: an ID slot, the carried post value, or
    /// (updates) the carried pre value of a column that is not being
    /// set — unchanged, so pre = post. Delete diffs have no post-state.
    pub fn post_source(&self, c: usize) -> Option<usize> {
        if self.kind == DiffKind::Delete {
            return None;
        }
        self.id_cols
            .iter()
            .position(|&i| i == c)
            .or_else(|| self.post_slot(c))
            .or_else(|| {
                (self.kind == DiffKind::Update)
                    .then(|| self.pre_slot(c))
                    .flatten()
            })
    }

    fn source(&self, c: usize, state: State) -> Option<usize> {
        match state {
            State::Pre => self.pre_source(c),
            State::Post => self.post_source(c),
        }
    }

    /// Pre-state value of target column `c` in `row`, if derivable.
    pub fn pre_value(&self, row: &Row, c: usize) -> Option<Value> {
        self.pre_source(c).map(|s| row[s].clone())
    }

    /// Post-state value of target column `c` in `row`, if derivable.
    pub fn post_value(&self, row: &Row, c: usize) -> Option<Value> {
        self.post_source(c).map(|s| row[s].clone())
    }

    /// The ID key of a diff row, owned. Probes use [`Self::id_slice`].
    pub fn id_key(&self, row: &Row) -> Key {
        Key(self.id_slice(row).to_vec())
    }

    /// The ID values of a diff row, borrowed: IDs lead by layout, so
    /// this is what probes a `HashMap<Key, _>` or a table without
    /// building a `Key`.
    pub fn id_slice<'r>(&self, row: &'r Row) -> &'r [Value] {
        &row.0[..self.id_cols.len()]
    }

    /// Assemble a full target row in the given state, if every column in
    /// `0..arity` is derivable.
    pub fn full_row(&self, row: &Row, arity: usize, state: State) -> Option<Row> {
        Row::try_collect((0..arity).map(|c| self.source(c, state).map(|s| row[s].clone()).ok_or(())))
            .ok()
    }

    /// Assemble a *scratch* target row with derivable values filled in
    /// and `Value::Null` elsewhere, for evaluating expressions whose
    /// columns are known to be covered (check with
    /// [`DiffSchema::pre_available`] / [`DiffSchema::post_available`]
    /// first).
    pub fn scratch_row(&self, row: &Row, arity: usize, state: State) -> Row {
        (0..arity)
            .map(|c| self.source(c, state).map_or(Value::Null, |s| row[s].clone()))
            .collect()
    }
}

/// Which state of the target relation a value/row refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    Pre,
    Post,
}

/// An i-diff instance: a schema plus its rows.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffInstance {
    pub schema: DiffSchema,
    pub rows: Vec<Row>,
}

/// Cut by rows for the parallel fan-out; every chunk keeps the schema.
impl Batch for DiffInstance {
    fn items(&self) -> usize {
        self.rows.len()
    }

    fn split_off(&mut self, at: usize) -> Self {
        DiffInstance {
            schema: self.schema.clone(),
            rows: self.rows.split_off(at),
        }
    }
}

impl DiffInstance {
    /// Empty instance of `schema`.
    pub fn empty(schema: DiffSchema) -> Self {
        DiffInstance {
            schema,
            rows: Vec::new(),
        }
    }

    /// Instance with rows (caller guarantees the layout matches).
    pub fn new(schema: DiffSchema, rows: Vec<Row>) -> Self {
        debug_assert!(rows.iter().all(|r| r.arity() == schema.width()));
        DiffInstance { schema, rows }
    }

    /// Number of diff tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no diff tuples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Build an insert-diff instance from full target rows.
    pub fn insert_from_rows(ids: &[usize], arity: usize, rows: &[Row]) -> Self {
        let schema = DiffSchema::insert(ids, arity);
        let rows = layout_rows(rows, &schema.id_cols, &schema.post_cols);
        DiffInstance { schema, rows }
    }

    /// Build a delete-diff instance (full pre rows) from target rows.
    pub fn delete_from_rows(ids: &[usize], arity: usize, rows: &[Row]) -> Self {
        let pre: Vec<usize> = (0..arity).filter(|c| !ids.contains(c)).collect();
        let schema = DiffSchema::delete(ids, &pre);
        let rows = layout_rows(rows, &schema.id_cols, &schema.pre_cols);
        DiffInstance { schema, rows }
    }
}

/// A target row re-laid as the diff row `[ids…, rest…]` (one
/// allocation).
pub(crate) fn laid_out(row: &Row, ids: &[usize], rest: &[usize]) -> Row {
    ids.iter().chain(rest).map(|&c| row[c].clone()).collect()
}

fn layout_rows(rows: &[Row], ids: &[usize], rest: &[usize]) -> Vec<Row> {
    rows.iter().map(|r| laid_out(r, ids, rest)).collect()
}

/// Check effectiveness of a diff instance w.r.t. the target's post-state
/// (paper Section 2): inserts must exist in the post-state, deleted IDs
/// must be absent, and every updated-and-surviving tuple must already
/// show the diff's post values. Used by tests and debug assertions.
pub fn is_effective(diff: &DiffInstance, post_rows: &[Row]) -> bool {
    let arity = post_rows
        .first()
        .map(Row::arity)
        .unwrap_or_else(|| diff.schema.width());
    match diff.schema.kind {
        DiffKind::Insert => diff.rows.iter().all(|d| {
            diff.schema
                .full_row(d, arity, State::Post)
                .is_some_and(|r| post_rows.contains(&r))
        }),
        DiffKind::Delete => diff.rows.iter().all(|d| {
            let dk = diff.schema.id_slice(d);
            !post_rows.iter().any(|r| r.matches(&diff.schema.id_cols, dk))
        }),
        DiffKind::Update => diff.rows.iter().all(|d| {
            let dk = diff.schema.id_slice(d);
            post_rows
                .iter()
                .filter(|r| r.matches(&diff.schema.id_cols, dk))
                .all(|r| {
                    diff.schema.post_cols.iter().all(|&c| {
                        diff.schema.post_value(d, c).is_some_and(|v| v == r[c])
                    })
                })
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idivm_types::row;

    /// The update i-diff of paper Example 2.2:
    /// ∆u_V(pid, price_pre, price_post) = (P1, 10, 11) over
    /// V(did, pid, price) with ID {did, pid}.
    fn example_update() -> DiffInstance {
        let schema = DiffSchema::update(&[1], &[2], &[2]); // Ī′={pid}, pre/post on price
        DiffInstance::new(schema, vec![row!["P1", 10, 11]])
    }

    #[test]
    fn update_diff_slots_and_values() {
        let d = example_update();
        let r = &d.rows[0];
        assert_eq!(d.schema.width(), 3);
        assert_eq!(d.schema.id_key(r), Key(vec![Value::str("P1")]));
        assert_eq!(d.schema.pre_value(r, 2), Some(Value::Int(10)));
        assert_eq!(d.schema.post_value(r, 2), Some(Value::Int(11)));
        assert_eq!(d.schema.post_value(r, 1), Some(Value::str("P1"))); // ID
        assert_eq!(d.schema.post_value(r, 0), None); // did not carried
    }

    #[test]
    fn availability_sets() {
        let d = example_update();
        let pre: Vec<usize> = d.schema.pre_available().into_iter().collect();
        let post: Vec<usize> = d.schema.post_available().into_iter().collect();
        assert_eq!(pre, vec![1, 2]);
        assert_eq!(post, vec![1, 2]);
    }

    #[test]
    fn unchanged_pre_doubles_as_post() {
        // Update sets col 2; col 3 carried pre-only ⇒ post(3) = pre(3).
        let schema = DiffSchema::update(&[0], &[2, 3], &[2]);
        // Layout: [id(0), pre(2), pre(3), post(2)].
        let r = row![7, 10, "x", 11];
        assert_eq!(schema.post_value(&r, 3), Some(Value::str("x")));
        assert_eq!(schema.post_value(&r, 2), Some(Value::Int(11)));
        assert_eq!(schema.pre_value(&r, 2), Some(Value::Int(10)));
    }

    #[test]
    fn insert_diff_from_rows_and_full_row() {
        let rows = vec![row!["D3", "P2", 20]];
        let d = DiffInstance::insert_from_rows(&[0, 1], 3, &rows);
        assert_eq!(d.schema.kind, DiffKind::Insert);
        let full = d.schema.full_row(&d.rows[0], 3, State::Post).unwrap();
        assert_eq!(full, row!["D3", "P2", 20]);
        assert!(d.schema.full_row(&d.rows[0], 3, State::Pre).is_none());
    }

    #[test]
    fn delete_diff_carries_pre() {
        let rows = vec![row!["D1", "P1", 10]];
        let d = DiffInstance::delete_from_rows(&[0, 1], 3, &rows);
        assert_eq!(d.schema.pre_value(&d.rows[0], 2), Some(Value::Int(10)));
        assert!(d.schema.post_value(&d.rows[0], 2).is_none());
        let full_pre = d.schema.full_row(&d.rows[0], 3, State::Pre).unwrap();
        assert_eq!(full_pre, row!["D1", "P1", 10]);
    }

    #[test]
    fn scratch_row_fills_known_slots() {
        let d = example_update();
        let s = d.schema.scratch_row(&d.rows[0], 3, State::Post);
        assert_eq!(s[1], Value::str("P1"));
        assert_eq!(s[2], Value::Int(11));
        assert!(s[0].is_null());
    }

    #[test]
    fn effectiveness_of_example() {
        // Post-state view from Figure 2 after applying the update.
        let post = vec![
            row!["D1", "P1", 11],
            row!["D2", "P1", 11],
            row!["D1", "P2", 20],
        ];
        let d = example_update();
        assert!(is_effective(&d, &post));
        // An update claiming price 99 would be ineffective.
        let bad = DiffInstance::new(
            DiffSchema::update(&[1], &[2], &[2]),
            vec![row!["P1", 10, 99]],
        );
        assert!(!is_effective(&bad, &post));
    }
}
