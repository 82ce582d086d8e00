//! Rows and keys.
//!
//! A [`Row`] is a fixed-width tuple of [`Value`]s positionally aligned
//! with a [`Schema`](crate::Schema). A [`Key`] is the projection of a row
//! onto some column subset — primary keys, join keys, group keys, and the
//! `Ī′` ID-subsets that i-diffs use to address view tuples are all `Key`s.
//!
//! **Ownership.** A row is immutable and shared: cloning bumps a
//! reference count, and nothing ever writes through a row that has been
//! handed out (there is no interior mutability and no `unsafe`). Rows
//! are *built* — [`Row::new`], `collect()`, [`row!`](crate::row),
//! [`Row::concat`], [`Row::project`], [`Row::with`], [`Row::extended`] —
//! each with one allocation of the exact size, and replaced wholesale
//! where a table stores a new version. A key stays an owned `Vec` (maps
//! must own their keys) but borrows as `[Value]`, so a `HashMap<Key, _>`
//! is probed with a slice and a `Key` is built only where a map has to
//! keep it.

use crate::value::Value;
use std::borrow::Borrow;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

/// An immutable, shared tuple of values. Cloning is one reference-count
/// bump.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Row(pub Arc<[Value]>);

/// A projection of a row used as a lookup key (primary key, index key,
/// group key, or i-diff ID subset). Hashes and compares exactly like the
/// `[Value]` it borrows as.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key(pub Vec<Value>);

impl Row {
    /// Construct from a vector of values. Prefer `collect()` from an
    /// exact-size iterator where no `Vec` exists yet: that is one
    /// allocation, this is the vector's plus the row's.
    pub fn new(values: Vec<Value>) -> Self {
        Row(values.into())
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Borrow the value at `idx`. Panics on out-of-range (schema bugs are
    /// programming errors, not data errors).
    pub fn get(&self, idx: usize) -> &Value {
        &self.0[idx]
    }

    /// Project the row onto the given column positions, yielding a key.
    pub fn key(&self, cols: &[usize]) -> Key {
        Key(cols.iter().map(|&c| self.0[c].clone()).collect())
    }

    /// Do the row's `cols` columns equal `probe`, value for value?
    /// Compares in place — the allocation-free form of
    /// `self.key(cols) == probe`.
    pub fn matches(&self, cols: &[usize], probe: &[Value]) -> bool {
        cols.len() == probe.len() && cols.iter().zip(probe).all(|(&c, v)| self.0[c] == *v)
    }

    /// Project the row onto the given column positions, yielding a row.
    pub fn project(&self, cols: &[usize]) -> Row {
        cols.iter().map(|&c| self.0[c].clone()).collect()
    }

    /// Concatenate two rows (used by join/product operators).
    pub fn concat(&self, other: &Row) -> Row {
        self.iter().chain(other.iter()).cloned().collect()
    }

    /// A copy of the row with each `(column, value)` assignment applied
    /// (the last assignment to a column wins).
    pub fn with(&self, assignments: &[(usize, Value)]) -> Row {
        self.iter()
            .enumerate()
            .map(|(i, old)| {
                assignments
                    .iter()
                    .rev()
                    .find(|(c, _)| *c == i)
                    .map_or(old, |(_, v)| v)
                    .clone()
            })
            .collect()
    }

    /// A copy of the row with `value` appended as one more column.
    pub fn extended(&self, value: Value) -> Row {
        self.iter().cloned().chain(std::iter::once(value)).collect()
    }

    /// Collect fallible values into a row, stopping at nothing but
    /// reporting the first error — which keeps the iterator exact-size,
    /// so the success path is one allocation (collecting a `Result<Row>`
    /// goes through a temporary `Vec`).
    ///
    /// # Errors
    /// The first `Err` the iterator yields.
    pub fn try_collect<E>(iter: impl IntoIterator<Item = Result<Value, E>>) -> Result<Row, E> {
        let mut first_err = None;
        let row: Row = iter
            .into_iter()
            .map(|v| {
                v.unwrap_or_else(|e| {
                    first_err.get_or_insert(e);
                    Value::Null
                })
            })
            .collect();
        first_err.map_or(Ok(row), Err)
    }

    /// Iterate over values.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.0.iter()
    }
}

/// The keyed digest of a key's values, taken in order: of a probe
/// (`key_digest(state, probe)`) or of a row's key columns read in place
/// (`key_digest(state, cols.iter().map(|&c| &row[c]))`). The two forms
/// agree whenever the values are equal, so a map filed by one is probed
/// by the other and neither builds a [`Key`].
pub fn key_digest<'v>(
    state: &impl BuildHasher,
    values: impl IntoIterator<Item = &'v Value>,
) -> u64 {
    let mut h = state.build_hasher();
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
}

impl Key {
    /// Number of key columns.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Convert the key back into a row.
    pub fn into_row(self) -> Row {
        Row::new(self.0)
    }
}

/// What lets a `HashMap<Key, _>` be probed with a `&[Value]`. Sound
/// because `Key`'s derived `Hash`/`Eq`/`Ord` are its `Vec`'s, which are
/// the slice's (pinned by `key_hashes_and_compares_like_its_slice`).
impl Borrow<[Value]> for Key {
    fn borrow(&self) -> &[Value] {
        &self.0
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// One allocation when the iterator reports an exact size (slice
/// iterators, ranges, `map`/`cloned`/`chain`/`once` over them); via a
/// temporary `Vec` otherwise.
impl FromIterator<Value> for Row {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Row(iter.into_iter().collect())
    }
}

impl<const N: usize> From<[Value; N]> for Row {
    fn from(values: [Value; N]) -> Self {
        Row(Arc::from(values))
    }
}

impl std::ops::Index<usize> for Row {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.0[idx]
    }
}

/// Convenience macro: `row![1, "phone", 3.5]`.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::Row::from([$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row's columns read in place, in any column order, digest as the
    /// probe slice of the same values — equal numbers across Int and
    /// Float included — and a different value digests differently.
    #[test]
    fn key_digest_of_columns_equals_key_digest_of_the_probe() {
        let state = std::collections::hash_map::RandomState::new();
        let r = row![1, "a", 2.5, Value::Null];
        for cols in [&[0usize][..], &[1, 0], &[3, 2, 1], &[]] {
            let probe = r.key(cols);
            assert_eq!(
                key_digest(&state, cols.iter().map(|&c| &r[c])),
                key_digest(&state, &probe.0),
                "{cols:?}"
            );
        }
        let mixed = [Value::Float(1.0), Value::str("a")];
        assert_eq!(
            key_digest(&state, [&r[0], &r[1]]),
            key_digest(&state, &mixed)
        );
        assert_ne!(
            key_digest(&state, [&r[0]]),
            key_digest(&state, &[Value::Int(2)])
        );
    }

    #[test]
    fn key_projection() {
        let r = row![1, "a", 2.5];
        assert_eq!(r.key(&[0, 2]), Key(vec![Value::Int(1), Value::Float(2.5)]));
        assert_eq!(r.key(&[1]).arity(), 1);
    }

    #[test]
    fn concat_preserves_order() {
        let a = row![1, 2];
        let b = row!["x"];
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(c[2], Value::str("x"));
    }

    #[test]
    fn project_reorders() {
        let r = row![10, 20, 30];
        assert_eq!(r.project(&[2, 0]), row![30, 10]);
    }

    #[test]
    fn display_is_tuple_like() {
        assert_eq!(row![1, "p"].to_string(), "(1, 'p')");
    }

    #[test]
    fn rows_hash_and_compare() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(row![1, 2]);
        assert!(s.contains(&row![1, 2]));
        assert!(!s.contains(&row![2, 1]));
        assert!(row![1] < row![2]);
    }

    #[test]
    fn built_rows_apply_assignments_and_extend() {
        let r = row![1, "a", 2.5];
        // Last assignment to a column wins; untouched columns are kept.
        let w = r.with(&[(2, Value::Int(7)), (0, Value::Int(9)), (2, Value::Int(8))]);
        assert_eq!(w, row![9, "a", 8]);
        assert_eq!(r.with(&[]), r);
        assert_eq!(r.extended(Value::Int(0)), row![1, "a", 2.5, 0]);
        // The source row is untouched by either builder.
        assert_eq!(r, row![1, "a", 2.5]);
        assert_eq!(row![].arity(), 0);
    }

    #[test]
    fn try_collect_reports_the_first_error() {
        let ok: Result<Row, &str> = Row::try_collect([Ok(Value::Int(1)), Ok(Value::Null)]);
        assert_eq!(ok, Ok(row![1, Value::Null]));
        let err: Result<Row, &str> =
            Row::try_collect([Ok(Value::Int(1)), Err("first"), Err("second")]);
        assert_eq!(err, Err("first"));
    }

    #[test]
    fn matches_is_key_equality_without_the_key() {
        let r = row![1, "a", 2.5];
        for cols in [&[0usize, 2][..], &[1], &[], &[2, 0]] {
            assert!(r.matches(cols, &r.key(cols).0));
        }
        assert!(!r.matches(&[0], &[Value::Int(2)]));
        assert!(!r.matches(&[0, 1], &[Value::Int(1)]), "length mismatch never matches");
    }

    /// Every borrowed probe of a `HashMap<Key, _>` relies on this: were
    /// `Key`'s `Hash` or `Eq` ever hand-written differently from the
    /// slice's, a `get(&[Value])` would silently miss.
    #[test]
    fn key_hashes_and_compares_like_its_slice() {
        use std::collections::hash_map::DefaultHasher;
        use std::collections::HashMap;
        use std::hash::{Hash, Hasher};
        fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        }
        let samples: Vec<Vec<Value>> = vec![
            vec![],
            vec![Value::Null],
            vec![Value::Int(1)],
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Float(2.5), Value::Bool(true), Value::Null],
        ];
        let mut map: HashMap<Key, usize> = HashMap::new();
        for (i, v) in samples.iter().enumerate() {
            assert_eq!(hash_of(&Key(v.clone())), hash_of(&v[..]), "sample {i}");
            map.insert(Key(v.clone()), i);
        }
        for (i, v) in samples.iter().enumerate() {
            assert_eq!(map.get(&v[..]), Some(&i), "borrowed probe of sample {i}");
            let k = Key(v.clone());
            let borrowed: &[Value] = k.borrow();
            assert_eq!(borrowed, &v[..]);
        }
        assert_eq!(map.get(&[Value::Int(2)][..]), None);
        // A row projects to the same hash as the key it would build.
        let r = row![1, "a"];
        assert_eq!(hash_of(&r.key(&[0, 1])), hash_of(&r.0[..]));
    }

    #[test]
    fn rows_are_shared_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Row>();
        let r = row![1, "a"];
        let c = r.clone();
        assert!(Arc::ptr_eq(&r.0, &c.0), "clone is a reference-count bump");
    }
}
