//! Maps filed by a key's digest, whose entries compare against rows the
//! caller already holds.
//!
//! A [`DigestMap`] files each entry under the `u64` [`key_digest`] of
//! its key and hands that digest to the hash table as the hash itself,
//! so no key is stored beside the entry and growing the table never
//! hashes a key again. The caller says which entry a digest means by an
//! equality test — against the stored row of a slot, or the value a
//! postings list was filed under — so a probe builds no key either.
//! Digests are keyed SipHash (each map owner draws its own
//! [`RandomState`]): keys come off the wire. Two distinct keys with one
//! digest are still told apart: the second and later ones wait in a
//! side list under the digest, which stays empty unless SipHash
//! collides.

use idivm_types::{key_digest, Row, Value};
use std::collections::hash_map::{Entry, HashMap, RandomState};
use std::hash::{BuildHasherDefault, Hasher};

/// The digest of `row`'s `cols` columns, read in place.
pub(crate) fn of_row(state: &RandomState, row: &Row, cols: &[usize]) -> u64 {
    seam(key_digest(state, cols.iter().map(|&c| &row[c])))
}

/// The digest of a probe — equal to [`of_row`]'s for a row whose
/// columns hold the probe's values.
pub(crate) fn of_probe(state: &RandomState, probe: &[Value]) -> u64 {
    seam(key_digest(state, probe))
}

#[cfg(test)]
thread_local! {
    /// Every digest this thread takes is 0 while set: the side lists'
    /// path, which chance never reaches, under test.
    static COLLIDE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Run `f` with every key of this thread sent to one digest.
#[cfg(test)]
pub(crate) fn colliding<R>(f: impl FnOnce() -> R) -> R {
    COLLIDE.with(|c| c.set(true));
    let out = f();
    COLLIDE.with(|c| c.set(false));
    out
}

#[cfg(test)]
fn seam(digest: u64) -> u64 {
    if COLLIDE.with(std::cell::Cell::get) {
        0
    } else {
        digest
    }
}

#[cfg(not(test))]
fn seam(digest: u64) -> u64 {
    digest
}

/// Hashes a `u64` digest to itself.
#[derive(Default)]
pub(crate) struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `write_u64` is ever called, by `u64: Hash`; fold anything
        // else in rather than ignore it.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, digest: u64) {
        self.0 = digest;
    }
}

type ByDigest<T> = HashMap<u64, T, BuildHasherDefault<PassThrough>>;

/// Entries filed by digest; see the module documentation.
#[derive(Clone, Debug)]
pub(crate) struct DigestMap<T> {
    /// The first entry filed under each digest.
    first: ByDigest<T>,
    /// Further entries under a digest `first` already holds another key
    /// for. Empty unless two keys collide.
    more: ByDigest<Vec<T>>,
}

impl<T> Default for DigestMap<T> {
    fn default() -> Self {
        DigestMap {
            first: ByDigest::default(),
            more: ByDigest::default(),
        }
    }
}

impl<T> DigestMap<T> {
    pub(crate) fn len(&self) -> usize {
        self.first.len() + self.more.values().map(Vec::len).sum::<usize>()
    }

    pub(crate) fn reserve(&mut self, additional: usize) {
        self.first.reserve(additional);
    }

    /// Drop every entry, keeping the room.
    pub(crate) fn clear(&mut self) {
        self.first.clear();
        self.more.clear();
    }

    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.first.capacity()
    }

    /// The entry under `digest` that `is` accepts.
    pub(crate) fn get(&self, digest: u64, is: impl Fn(&T) -> bool) -> Option<&T> {
        match self.first.get(&digest) {
            Some(t) if is(t) => Some(t),
            Some(_) if !self.more.is_empty() => self.more.get(&digest)?.iter().find(|t| is(t)),
            _ => None,
        }
    }

    /// The entry under `digest` that `is` accepts, to change in place.
    pub(crate) fn get_mut(&mut self, digest: u64, is: impl Fn(&T) -> bool) -> Option<&mut T> {
        match self.first.get_mut(&digest) {
            Some(t) if is(t) => Some(t),
            Some(_) if !self.more.is_empty() => {
                self.more.get_mut(&digest)?.iter_mut().find(|t| is(t))
            }
            _ => None,
        }
    }

    /// The entry under `digest` that `is` accepts, or a new one from
    /// `make` filed there — in one probe of the table when the digest is
    /// new. `true` with a new entry.
    pub(crate) fn entry(
        &mut self,
        digest: u64,
        is: impl Fn(&T) -> bool,
        make: impl FnOnce() -> T,
    ) -> (&mut T, bool) {
        let first = match self.first.entry(digest) {
            Entry::Vacant(e) => return (e.insert(make()), true),
            Entry::Occupied(e) => e.into_mut(),
        };
        if is(first) {
            return (first, false);
        }
        let more = self.more.entry(digest).or_default();
        match more.iter().position(is) {
            Some(i) => (&mut more[i], false),
            None => {
                more.push(make());
                let last = more.len() - 1;
                (&mut more[last], true)
            }
        }
    }

    /// Take out the entry under `digest` that `is` accepts.
    pub(crate) fn remove(&mut self, digest: u64, is: impl Fn(&T) -> bool) -> Option<T> {
        let Entry::Occupied(mut first) = self.first.entry(digest) else {
            return None;
        };
        if is(first.get()) {
            // A waiting entry of the same digest moves up, if any.
            let Entry::Occupied(mut more) = self.more.entry(digest) else {
                return Some(first.remove());
            };
            let next = more.get_mut().pop();
            if more.get().is_empty() {
                more.remove();
            }
            return Some(match next {
                Some(next) => std::mem::replace(first.get_mut(), next),
                None => first.remove(),
            });
        }
        let Entry::Occupied(mut more) = self.more.entry(digest) else {
            return None;
        };
        let i = more.get().iter().position(is)?;
        let taken = more.get_mut().swap_remove(i);
        if more.get().is_empty() {
            more.remove();
        }
        Some(taken)
    }

    /// Every entry, in no particular order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.first.values().chain(self.more.values().flatten())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use idivm_types::row;

    fn sorted_values(map: &DigestMap<u64>) -> Vec<u64> {
        let mut all: Vec<u64> = map.values().copied().collect();
        all.sort_unstable();
        all
    }

    /// Entries are numbers filed under their parity, so every other
    /// number collides.
    #[test]
    fn colliding_entries_are_told_apart_by_the_equality_test() {
        let mut map = DigestMap::default();
        for n in 0..6u64 {
            let (e, fresh) = map.entry(n % 2, |&t| t == n, || n);
            assert!(fresh && *e == n);
        }
        assert_eq!(map.len(), 6);
        assert!(!map.entry(1, |&t| t == 3, || 99).1, "3 is filed already");
        assert_eq!(map.get(0, |&t| t == 4), Some(&4));
        assert_eq!(map.get(0, |&t| t == 5), None);
        *map.get_mut(1, |&t| t == 5).unwrap() = 7;
        // The first entry under a digest leaves; a waiting one moves up.
        assert_eq!(map.remove(0, |&t| t == 0), Some(0));
        assert_eq!(map.remove(0, |&t| t == 0), None);
        assert_eq!(map.remove(1, |&t| t == 3), Some(3));
        assert_eq!(sorted_values(&map), vec![1, 2, 4, 7]);
        for n in [2, 4, 1, 7] {
            assert_eq!(map.remove(n % 2, |&t| t == n), Some(n));
        }
        assert_eq!((map.len(), map.more.len()), (0, 0));
    }

    #[test]
    fn a_row_and_its_probe_share_a_digest() {
        let state = RandomState::new();
        let r = row![3, "x", 1.5];
        assert_eq!(
            of_row(&state, &r, &[2, 0]),
            of_probe(&state, &[Value::Float(1.5), Value::Int(3)])
        );
        assert_eq!(colliding(|| of_row(&state, &r, &[1])), 0);
        assert_ne!(of_row(&state, &r, &[1]), 0);
    }
}
