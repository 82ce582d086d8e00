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

    /// The slot of a diff row holding target column `c` in `state`.
    pub(crate) fn source(&self, c: usize, state: State) -> Option<usize> {
        match state {
            State::Pre => self.pre_source(c),
            State::Post => self.post_source(c),
        }
    }

    /// Where every target column `0..arity` sits in a diff row in
    /// `state`, resolved once for a whole instance, or `None` when some
    /// column is not derivable — an insert or delete diff lacking a
    /// column stands for no full rows. Applying the result to a diff row
    /// yields the full target row.
    pub(crate) fn full_sources(&self, arity: usize, state: State) -> Option<Layout> {
        let slots = (0..arity)
            .map(|c| self.source(c, state))
            .collect::<Option<Vec<usize>>>()?;
        Some(Layout::new(slots, self.width()))
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
    /// `0..arity` is derivable. A loop over an instance's rows resolves
    /// [`Self::full_sources`] once and applies it per row instead.
    pub fn full_row(&self, row: &Row, arity: usize, state: State) -> Option<Row> {
        self.full_sources(arity, state).map(|l| l.apply(row))
    }
}

/// A re-laying of rows, resolved once for a whole instance: slot `i` of
/// the result is column `slot(i)` of the row it is applied to. The
/// identity layout holds no slots and shares each row (a reference-count
/// bump) instead of copying it.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    /// `None` in the identity layout.
    slots: Option<Vec<usize>>,
}

impl Layout {
    /// Pick `slots` out of rows `width` wide.
    pub(crate) fn new(slots: Vec<usize>, width: usize) -> Self {
        let identity = slots.iter().copied().eq(0..width);
        Layout {
            slots: (!identity).then_some(slots),
        }
    }

    /// Target rows `arity` wide re-laid as diff rows `[ids…, rest…]`.
    pub(crate) fn diff_rows(ids: &[usize], rest: &[usize], arity: usize) -> Self {
        let slots = ids.iter().chain(rest).copied();
        Layout {
            slots: (!slots.clone().eq(0..arity)).then(|| slots.collect()),
        }
    }

    /// The column read into slot `i`.
    pub(crate) fn slot(&self, i: usize) -> usize {
        self.slots.as_ref().map_or(i, |s| s[i])
    }

    /// `row` re-laid: one allocation, or none in the identity layout.
    pub(crate) fn apply(&self, row: &Row) -> Row {
        match &self.slots {
            None => row.clone(),
            Some(slots) => slots.iter().map(|&c| row[c].clone()).collect(),
        }
    }

    /// Every row of `rows` re-laid.
    pub(crate) fn apply_all(&self, rows: &[Row]) -> Vec<Row> {
        rows.iter().map(|r| self.apply(r)).collect()
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
        let rows = Layout::diff_rows(&schema.id_cols, &schema.post_cols, arity).apply_all(rows);
        DiffInstance { schema, rows }
    }

    /// Build a delete-diff instance (full pre rows) from target rows.
    pub fn delete_from_rows(ids: &[usize], arity: usize, rows: &[Row]) -> Self {
        let pre: Vec<usize> = (0..arity).filter(|c| !ids.contains(c)).collect();
        let schema = DiffSchema::delete(ids, &pre);
        let rows = Layout::diff_rows(&schema.id_cols, &schema.pre_cols, arity).apply_all(rows);
        DiffInstance { schema, rows }
    }
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
        DiffKind::Insert => match diff.schema.full_sources(arity, State::Post) {
            Some(full) => diff.rows.iter().all(|d| post_rows.contains(&full.apply(d))),
            None => diff.rows.is_empty(),
        },
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
    fn full_sources_resolve_every_column_or_none() {
        let d = example_update();
        // Column 0 is not carried in either state.
        assert!(d.schema.full_sources(3, State::Pre).is_none());
        // Layout [id 0, pre 1, pre 2, post 2]: column 1 is unchanged.
        let s = DiffSchema::update(&[0], &[1, 2], &[2]);
        let r = row![7, "x", 10, 11];
        let post = s.full_sources(3, State::Post).unwrap();
        assert_eq!((post.slot(0), post.slot(1), post.slot(2)), (0, 1, 3));
        assert_eq!(post.apply(&r), row![7, "x", 11]);
        // Slots 0..3 of a 4-wide row: a prefix, copied rather than shared.
        assert_eq!(s.full_sources(3, State::Pre).unwrap().apply(&r), row![7, "x", 10]);
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
    fn identity_layout_is_shared_not_copied() {
        let image = row!["D3", "P2", 20];
        let shared = Layout::diff_rows(&[0, 1], &[2], 3).apply(&image);
        assert!(std::sync::Arc::ptr_eq(&shared.0, &image.0));
        let d = DiffInstance::insert_from_rows(&[0, 1], 3, std::slice::from_ref(&image));
        let full = d.schema.full_row(&d.rows[0], 3, State::Post).unwrap();
        assert!(std::sync::Arc::ptr_eq(&full.0, &image.0));
        // IDs that do not lead: one copy, re-laid.
        let moved = Layout::diff_rows(&[1], &[0, 2], 3).apply(&image);
        assert_eq!(moved, row!["P2", "D3", 20]);
        assert!(!std::sync::Arc::ptr_eq(&moved.0, &image.0));
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
