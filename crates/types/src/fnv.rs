//! FNV-1a (64-bit): the one unkeyed hash behind every digest that must
//! repeat across runs and processes — WAL and checkpoint checksums, net
//! digests, ingest routing, the dead-letter fingerprint and the poison
//! predicate. (The default `SipHash` state is random per map.)

use crate::row::Key;
use crate::value::Value;
use std::hash::Hasher;

/// FNV-1a as a [`Hasher`]. The field is the running state, so hashing
/// can start from any state: [`Fnv1a::default`] starts from the offset
/// basis, and a checksum over a buffer held in several runs is one
/// hasher fed each run in turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(pub u64);

impl Fnv1a {
    /// The state before any byte.
    pub const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

    /// `bytes` hashed from the offset basis.
    pub fn digest(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::default();
        h.write(bytes);
        h.finish()
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(Fnv1a::OFFSET_BASIS)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Process-independent stable hash of a key: FNV-1a over a canonical
/// byte encoding of its values. Int and Float encode through the same
/// `f64` bit pattern, so cross-type-equal values hash together exactly
/// as they hash and compare equal through `Value`'s own impls.
pub fn stable_hash_key(key: &Key) -> u64 {
    let mut h = Fnv1a::default();
    for v in &key.0 {
        match v {
            Value::Null => h.write(&[0]),
            Value::Bool(b) => h.write(&[1, u8::from(*b)]),
            Value::Int(i) => {
                h.write(&[2]);
                h.write(&(*i as f64).to_bits().to_le_bytes());
            }
            Value::Float(f) => {
                h.write(&[2]);
                h.write(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                h.write(&[3]);
                h.write(s.as_bytes());
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(Fnv1a::digest(b""), Fnv1a::OFFSET_BASIS);
        assert_eq!(Fnv1a::digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::digest(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn a_split_buffer_hashes_like_the_whole() {
        let mut h = Fnv1a::default();
        h.write(b"foo");
        let mid = h.finish();
        let mut h = Fnv1a(mid);
        h.write(b"bar");
        assert_eq!(h.finish(), Fnv1a::digest(b"foobar"));
    }

    #[test]
    fn key_hash_is_stable_and_value_dependent() {
        let k1 = Key(vec![Value::Int(7), Value::str("a")]);
        let k2 = Key(vec![Value::Int(7), Value::str("a")]);
        let k3 = Key(vec![Value::Int(8), Value::str("a")]);
        assert_eq!(stable_hash_key(&k1), stable_hash_key(&k2));
        assert_ne!(stable_hash_key(&k1), stable_hash_key(&k3));
    }

    #[test]
    fn cross_type_equal_values_hash_together() {
        let i = Key(vec![Value::Int(42)]);
        let f = Key(vec![Value::Float(42.0)]);
        assert_eq!(stable_hash_key(&i), stable_hash_key(&f));
    }
}
