//! The on-disk format of WAL records and checkpoints, stated once.
//!
//! Two traits — [`Encode`] writes a value into a byte buffer,
//! [`Decode`] reads one back through a [`Reader`] — and their
//! composition: integers little-endian; `f64` by [`f64::to_bits`]
//! (bit-exact round-trip — `Display` would lose NaN payloads and signed
//! zeros); `usize` as `u64`; strings and sequences length-prefixed with
//! `u32`; maps as sequences of pairs in key order, so equal maps give
//! equal bytes; enums as a leading tag byte. Every type the two files
//! hold gets its impl pair in this crate and nowhere else: the format
//! is one decision behind one module.
//!
//! Every decode goes through [`Reader`], whose reads are
//! bounds-checked and return [`Error::Corrupt`] — never a panic — on
//! short buffers, bad tags, over-long counts, or over-deep recursion.
//! Recovery feeds this module attacker-grade garbage (bit-flip and
//! truncation sweeps in the corruption tests), so "garbage in, typed
//! error out" is the contract, enforced crate-wide by
//! `deny(clippy::unwrap_used, clippy::expect_used)`.

use idivm_algebra::{AggFunc, AggSpec, BinOp, CmpOp, Expr, JoinKind, Plan, ScalarFn};
use idivm_ingest::{DeadLetter, DeadLetterCause, IngestTotals};
use idivm_reldb::{NetChange, SharedChanges, TableChanges};
use idivm_sched::RefreshPolicy;
use idivm_types::{Column, ColumnType, Error, Fnv1a, Key, Result, Row, Schema, Value};
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::Arc;

/// Ceiling on [`Reader::nested`] levels within one tree. Real plans
/// are a few dozen operators deep; a corrupt length field must not be
/// able to drive the decoder into a stack overflow (which would be a
/// panic, not a typed error).
const MAX_DEPTH: usize = 201;

/// A value with an on-disk form. Infallible: encoding reads owned,
/// well-formed state.
pub trait Encode {
    /// Append the value's bytes to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// A value that can be read back from its on-disk form.
pub trait Decode: Sized {
    /// The fewest bytes any encoding of the type occupies. A sequence
    /// of `n` elements needs at least `n * MIN_BYTES` more bytes, so a
    /// corrupt count is refused before anything is allocated for it.
    const MIN_BYTES: usize = 1;

    /// Read one value.
    ///
    /// # Errors
    /// [`Error::Corrupt`] on a short buffer, a bad tag, an impossible
    /// count, over-deep nesting, or a structurally invalid value.
    fn decode(r: &mut Reader<'_>) -> Result<Self>;
}

/// Decode a buffer that holds exactly one `T` (a valid payload has no
/// trailing junk).
///
/// # Errors
/// [`Error::Corrupt`] on malformed or trailing bytes.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T> {
    let mut r = Reader::new(bytes);
    let value = r.read()?;
    r.finish()?;
    Ok(value)
}

/// The bytes of one value.
pub fn to_vec<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Both directions of a plain struct from one field list; the fields
/// are written, and read back, in the order listed.
macro_rules! record {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::codec::Encode::encode(&self.$field, out);)+
            }
        }
        impl $crate::codec::Decode for $ty {
            fn decode(r: &mut $crate::codec::Reader<'_>) -> idivm_types::Result<Self> {
                Ok($ty { $($field: r.read()?),+ })
            }
        }
    };
}
pub(crate) use record;

/// Both directions of an enum from one table. A row is `tag => Variant`,
/// `tag => Variant(a, ..)` or `tag => Variant { field, .. }`: the tag
/// byte, then the variant's fields in the order listed. A braced row may
/// open with `@field = Value;`: that row stands for the variant whose
/// `field` is the constant `Value`, which the tag alone encodes. `nested` marks
/// a type that contains itself: each level of it decodes through
/// [`Reader::nested`].
macro_rules! tagged {
    ($ty:ident $(: $nested:ident)?, $what:literal, {
        $($tag:literal => $variant:ident $(($($elem:ident),+))?
            $({ $(@ $fixed:ident = $value:path;)? $($field:ident),+ })?),+ $(,)?
    }) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $(($($elem),+))? $({ $($fixed: $value,)? $($field),+ })? => {
                        out.push($tag);
                        $($($crate::codec::Encode::encode($elem, out);)+)?
                        $($($crate::codec::Encode::encode($field, out);)+)?
                    })+
                }
            }
        }
        impl $crate::codec::Decode for $ty {
            fn decode(r: &mut $crate::codec::Reader<'_>) -> idivm_types::Result<Self> {
                let body = |r: &mut $crate::codec::Reader<'_>| {
                    Ok(match r.read::<u8>()? {
                        $($tag => $ty::$variant
                            $(($($crate::codec::tagged!(@read r $elem)),+))?
                            $({ $($fixed: $value,)? $($field: r.read()?),+ })?,)+
                        tag => return Err(r.no_variant($what, tag)),
                    })
                };
                $crate::codec::tagged!(@run r body $what $($nested)?)
            }
        }
    };
    (@read $r:ident $elem:ident) => { $r.read()? };
    (@run $r:ident $body:ident $what:literal) => { $body($r) };
    (@run $r:ident $body:ident $what:literal nested) => { $r.nested($what, $body) };
}
pub(crate) use tagged;

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// A bounds-checked cursor over an untrusted byte buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The self-containing type being decoded, and how deep in it.
    tree: &'static str,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            tree: "",
            depth: 0,
        }
    }

    /// Bytes consumed so far: the offset of the next read.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True iff the buffer is fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The unconsumed bytes, left in place.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    fn corrupt_at(&self, at: usize, what: &str) -> Error {
        Error::Corrupt(format!("decode at byte {at}: {what}"))
    }

    /// A structure error at the next unread byte.
    fn corrupt(&self, what: &str) -> Error {
        self.corrupt_at(self.pos, what)
    }

    /// The error for a tag byte no variant of `what` owns, reported at
    /// the tag itself — the byte just read.
    pub(crate) fn no_variant(&self, what: &str, tag: u8) -> Error {
        self.corrupt_at(self.pos.saturating_sub(1), &format!("{what} tag {tag}"))
    }

    /// Consume the next `n` bytes.
    ///
    /// # Errors
    /// [`Error::Corrupt`] when fewer than `n` remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.corrupt(&format!(
                "need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut bytes = [0; N];
        bytes.copy_from_slice(self.take(N)?);
        Ok(bytes)
    }

    /// Read one `T`.
    ///
    /// # Errors
    /// Whatever [`Decode::decode`] reports for `T`.
    pub fn read<T: Decode>(&mut self) -> Result<T> {
        T::decode(self)
    }

    /// Read an element count whose items occupy at least
    /// `min_item_bytes` each — rejects counts that could not fit in the
    /// remaining buffer, so corrupt lengths cannot trigger huge
    /// allocations.
    fn count(&mut self, min_item_bytes: usize) -> Result<usize> {
        let n = self.read::<u32>()? as usize;
        if n.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err(self.corrupt(&format!(
                "count {n} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<&'a str> {
        let n = self.count(u8::MIN_BYTES)?;
        let at = self.pos;
        std::str::from_utf8(self.take(n)?).map_err(|_| self.corrupt_at(at, "invalid utf-8"))
    }

    /// Run `f` one level down the `tree` being decoded. Every type that
    /// contains itself decodes through here, which is where the depth
    /// ceiling is enforced. A tree of another type rooted inside this
    /// one (a [`Plan`]'s [`Expr`]s) has a budget of its own.
    ///
    /// # Errors
    /// [`Error::Corrupt`] past the ceiling; otherwise what `f` returns.
    pub fn nested<T>(
        &mut self,
        tree: &'static str,
        f: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<T> {
        let outer = (self.tree, self.depth);
        if self.tree != tree {
            (self.tree, self.depth) = (tree, 0);
        }
        if self.depth == MAX_DEPTH {
            return Err(self.corrupt(&format!("{tree} nesting exceeds limit")));
        }
        self.depth += 1;
        let value = f(self);
        (self.tree, self.depth) = outer;
        value
    }

    /// Require full consumption (a valid payload has no trailing junk).
    ///
    /// # Errors
    /// [`Error::Corrupt`] when bytes remain.
    pub fn finish(&self) -> Result<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(self.corrupt(&format!("{} trailing bytes", self.remaining())))
        }
    }
}

// ---------------------------------------------------------------------
// Primitives and containers: the composition, written once
// ---------------------------------------------------------------------

macro_rules! little_endian {
    ($($ty:ty),+) => {$(
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Decode for $ty {
            const MIN_BYTES: usize = std::mem::size_of::<$ty>();
            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                Ok(<$ty>::from_le_bytes(r.array()?))
            }
        }
    )+};
}
little_endian!(u8, u32, u64, i64);

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.read::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(r.no_variant("bool", tag)),
        }
    }
}

impl Encode for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
}

impl Decode for f64 {
    const MIN_BYTES: usize = u64::MIN_BYTES;
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(f64::from_bits(r.read()?))
    }
}

impl Encode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
}

impl Decode for usize {
    const MIN_BYTES: usize = u64::MIN_BYTES;
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let at = r.pos;
        let v: u64 = r.read()?;
        usize::try_from(v).map_err(|_| r.corrupt_at(at, &format!("usize {v} overflows")))
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

impl<T: Encode + ?Sized> Encode for Box<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

impl<T: Decode> Decode for Box<T> {
    const MIN_BYTES: usize = T::MIN_BYTES;
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Box::new(r.read()?))
    }
}

impl Encode for str {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
}

impl Decode for String {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(r.str()?.to_owned())
    }
}

impl Encode for Arc<str> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

impl Decode for Arc<str> {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Arc::from(r.str()?))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => 0u8.encode(out),
            Some(value) => {
                1u8.encode(out);
                value.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.read::<u8>()? {
            0 => Ok(None),
            1 => Ok(Some(r.read()?)),
            tag => Err(r.no_variant("option", tag)),
        }
    }
}

macro_rules! tuple {
    ($($name:ident),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            #[allow(non_snake_case)]
            fn encode(&self, out: &mut Vec<u8>) {
                let ($($name,)+) = self;
                $($name.encode(out);)+
            }
        }
        impl<$($name: Decode),+> Decode for ($($name,)+) {
            const MIN_BYTES: usize = 0 $(+ $name::MIN_BYTES)+;
            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                Ok(($(r.read::<$name>()?,)+))
            }
        }
    };
}
tuple!(A, B);
tuple!(A, B, C);

/// A `u32` count, then the items.
fn encode_seq<T: Encode>(out: &mut Vec<u8>, len: usize, items: impl IntoIterator<Item = T>) {
    (len as u32).encode(out);
    for item in items {
        item.encode(out);
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(out, self.len(), self);
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}

impl<T: Decode> Decode for Vec<T> {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.count(T::MIN_BYTES)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(r.read()?);
        }
        Ok(items)
    }
}

impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(out, self.len(), self);
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(r.read::<Vec<(K, V)>>()?.into_iter().collect())
    }
}

/// Encoded in key order — the encoding is canonical, so equal maps
/// (a round's net, one table's changes) produce identical bytes.
impl<K: Encode + Ord, V: Encode> Encode for HashMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries.encode(out);
    }
}

impl<K: Decode + Eq + Hash, V: Decode> Decode for HashMap<K, V> {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(r.read::<Vec<(K, V)>>()?.into_iter().collect())
    }
}

/// A shared table net is written as the changes it holds and read back
/// as a fresh allocation: the bytes do not know about sharing.
impl Encode for SharedChanges {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

impl Decode for SharedChanges {
    const MIN_BYTES: usize = TableChanges::MIN_BYTES;
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(r.read::<TableChanges>()?.into())
    }
}

// ---------------------------------------------------------------------
// Values, rows, keys, schemas
// ---------------------------------------------------------------------

tagged!(Value, "value", {
    0 => Null,
    1 => Bool(b),
    2 => Int(i),
    3 => Float(f),
    4 => Str(s),
});

impl Encode for Row {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decode for Row {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        // Through a `Vec`: measured faster here than `Row::try_collect`
        // (27 vs 37 ms for a 5 MB checkpoint), the extra allocation included.
        Ok(Row::new(r.read()?))
    }
}

impl Encode for Key {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decode for Key {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Key(r.read()?))
    }
}

tagged!(ColumnType, "column type", { 0 => Bool, 1 => Int, 2 => Float, 3 => Str });

impl Encode for Column {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.ty.encode(out);
    }
}

impl Decode for Column {
    const MIN_BYTES: usize = <Arc<str>>::MIN_BYTES + ColumnType::MIN_BYTES;
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Column {
            name: r.read()?,
            ty: r.read()?,
        })
    }
}

/// (name, type) pairs, then the key column names.
impl Encode for Schema {
    fn encode(&self, out: &mut Vec<u8>) {
        self.columns().encode(out);
        self.key_names().encode(out);
    }
}

/// Fails also on a structurally invalid schema (duplicate columns,
/// unknown key names).
impl Decode for Schema {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let at = r.pos;
        let columns = r.read()?;
        let keys: Vec<String> = r.read()?;
        let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        Schema::new(columns, &key_refs)
            .map_err(|e| r.corrupt_at(at, &format!("invalid schema: {e}")))
    }
}

// ---------------------------------------------------------------------
// Expressions, aggregates, plans
// ---------------------------------------------------------------------

tagged!(BinOp, "binop", { 0 => Add, 1 => Sub, 2 => Mul, 3 => Div });
tagged!(CmpOp, "cmpop", { 0 => Eq, 1 => Ne, 2 => Lt, 3 => Le, 4 => Gt, 5 => Ge });
tagged!(ScalarFn, "scalarfn", { 0 => Abs, 1 => Mod, 2 => Concat, 3 => Least, 4 => Greatest });
tagged!(AggFunc, "aggfunc", { 0 => Sum, 1 => Count, 2 => Avg, 3 => Min, 4 => Max });

tagged!(Expr: nested, "expr", {
    0 => Col(i),
    1 => Lit(v),
    2 => Bin { op, left, right },
    3 => Cmp { op, left, right },
    4 => And(es),
    5 => Or(es),
    6 => Not(inner),
    7 => IsNull(inner),
    8 => Func { f, args },
});

record!(AggSpec { func, arg, name });

tagged!(Plan: nested, "plan", {
    0 => Scan { table, alias, schema },
    1 => Select { input, pred },
    2 => Project { input, cols },
    3 => Join { @kind = JoinKind::Inner; left, right, on, residual },
    4 => Join { @kind = JoinKind::LeftOuter; left, right, on, residual },
    5 => Join { @kind = JoinKind::Semi; left, right, on, residual },
    6 => Join { @kind = JoinKind::Anti; left, right, on, residual },
    7 => UnionAll { left, right },
    8 => GroupBy { input, keys, aggs },
});

// ---------------------------------------------------------------------
// Net changes, refresh policies
// ---------------------------------------------------------------------

tagged!(NetChange, "net change", {
    0 => Inserted { post },
    1 => Deleted { pre },
    2 => Updated { pre, post },
});

tagged!(RefreshPolicy, "policy", {
    0 => Eager,
    1 => Deferred { max_staleness_rounds },
    2 => OnRead,
});

// ---------------------------------------------------------------------
// Ingest state
// ---------------------------------------------------------------------

/// The one `&'static str` the format holds is the column-type label of
/// [`DeadLetterCause::TypeMismatch`]: a persisted label reads back as
/// the static string admission uses, so a decoded cause compares equal
/// to a fresh one.
impl Decode for &'static str {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let at = r.pos;
        match r.str()? {
            "bool" => Ok("bool"),
            "int" => Ok("int"),
            "float" => Ok("float"),
            "str" => Ok("str"),
            other => Err(r.corrupt_at(at, &format!("type label `{other}`"))),
        }
    }
}

tagged!(DeadLetterCause, "dead-letter cause", {
    0 => Decode(message),
    1 => UnknownTable,
    2 => WrongArity { expected, got },
    3 => TypeMismatch { column, expected },
    4 => SequenceGap { expected },
    5 => SequenceRegression { expected },
    6 => DuplicateKey,
    7 => MissingRow,
    8 => StalePreImage { actual },
    9 => KeyChanged,
    10 => Storage(message),
});

record!(DeadLetter {
    producer,
    seq,
    table,
    cause,
    pre,
    post,
    wire
});

record!(IngestTotals {
    admitted,
    dead_lettered,
    shed,
    cuts
});

// ---------------------------------------------------------------------
// Checksums and frames
// ---------------------------------------------------------------------

/// Append one checksummed WAL frame, `[u32 len][u64 fnv1a(payload)][payload]`,
/// to `out`: the header is reserved, `payload` encodes in place behind
/// it, and the header is patched once the payload's extent is known.
/// (A checkpoint body runs to the end of its file, carries no length,
/// and is framed by [`crate::checkpoint::Image`].)
pub fn frame(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let len_at = out.len();
    0u32.encode(out);
    let sum_at = out.len();
    0u64.encode(out);
    let body_at = out.len();
    payload(out);
    let sum = Fnv1a::digest(&out[body_at..]);
    out[sum_at..body_at].copy_from_slice(&sum.to_le_bytes());
    let len = (out.len() - body_at) as u32;
    out[len_at..sum_at].copy_from_slice(&len.to_le_bytes());
}

#[cfg(test)]
pub(crate) mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use idivm_reldb::Net;
    use idivm_types::row;
    use std::fmt::Debug;

    pub(crate) use super::to_vec as to_bytes;

    /// The codec contract, for any one value: it round-trips, nothing
    /// shorter decodes, and no damaged image panics the decoder.
    pub(crate) fn contract<T: Encode + Decode + PartialEq + Debug>(value: &T) {
        let bytes = to_bytes(value);
        let back: T = from_bytes(&bytes).unwrap();
        // Bit-exact: compare the re-encoding as well as `PartialEq` (a
        // raw NaN is not `==` to itself but its bits round-trip). Equal
        // bytes from a rebuilt map also prove the map order canonical.
        assert_eq!(to_bytes(&back), bytes);
        #[allow(clippy::eq_op)]
        if value == value {
            assert_eq!(&back, value);
        }
        for cut in 0..bytes.len() {
            match from_bytes::<T>(&bytes[..cut]) {
                Err(Error::Corrupt(_)) => {}
                Err(e) => panic!("truncation at {cut}: unexpected error class: {e}"),
                Ok(_) => panic!("truncation at {cut} decoded"),
            }
        }
        // Every single-bit flip either still decodes (flips inside a
        // string payload) or fails with Corrupt — never panics.
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                match from_bytes::<T>(&flipped) {
                    Ok(_) | Err(Error::Corrupt(_)) => {}
                    Err(e) => panic!("flip of byte {i} bit {bit}: unexpected error class: {e}"),
                }
            }
        }
    }

    // One table per enum. Each ends in a match without a wildcard, so
    // a new variant does not compile until its table holds it.

    fn every_value() -> Vec<Value> {
        let all = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Int(i64::MIN),
            Value::Float(0.1 + 0.2),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::str("héllo|,\\world\n"),
            Value::str(""),
        ];
        match all[0] {
            Value::Null | Value::Bool(_) | Value::Int(_) | Value::Float(_) | Value::Str(_) => all,
        }
    }

    /// The table of a fieldless enum.
    macro_rules! every {
        ($name:ident: $ty:ident { $($variant:ident),+ }) => {
            fn $name() -> Vec<$ty> {
                let all = vec![$($ty::$variant),+];
                match all[0] {
                    $($ty::$variant)|+ => all,
                }
            }
        };
    }
    every!(every_column_type: ColumnType { Bool, Int, Float, Str });
    every!(every_bin_op: BinOp { Add, Sub, Mul, Div });
    every!(every_cmp_op: CmpOp { Eq, Ne, Lt, Le, Gt, Ge });
    every!(every_scalar_fn: ScalarFn { Abs, Mod, Concat, Least, Greatest });
    every!(every_agg_func: AggFunc { Sum, Count, Avg, Min, Max });

    fn every_expr() -> Vec<Expr> {
        let col = |i| Box::new(Expr::Col(i));
        let mut all = vec![Expr::Col(3), Expr::And(Vec::new())];
        all.extend(every_value().into_iter().map(Expr::Lit));
        all.extend(every_bin_op().into_iter().map(|op| Expr::Bin {
            op,
            left: col(0),
            right: col(1),
        }));
        all.extend(every_cmp_op().into_iter().map(|op| Expr::Cmp {
            op,
            left: col(1),
            right: Box::new(Expr::Lit(Value::Int(3))),
        }));
        all.extend(every_scalar_fn().into_iter().map(|f| Expr::Func {
            f,
            args: vec![Expr::Col(0), Expr::Lit(Value::Float(1.5))],
        }));
        all.push(Expr::Not(Box::new(Expr::IsNull(col(1)))));
        all.push(Expr::Or(vec![Expr::IsNull(col(0)), Expr::Col(2)]));
        all.push(Expr::And(all.clone()));
        match all[0] {
            Expr::Col(_)
            | Expr::Lit(_)
            | Expr::Bin { .. }
            | Expr::Cmp { .. }
            | Expr::And(_)
            | Expr::Or(_)
            | Expr::Not(_)
            | Expr::IsNull(_)
            | Expr::Func { .. } => all,
        }
    }

    fn sample_schema() -> Schema {
        Schema::from_pairs(
            &[
                ("did", ColumnType::Str),
                ("price", ColumnType::Int),
                ("w", ColumnType::Float),
                ("ok", ColumnType::Bool),
            ],
            &["did", "price"],
        )
        .unwrap()
    }

    pub(crate) fn every_plan() -> Vec<Plan> {
        let scan = |alias: &str| {
            Box::new(Plan::Scan {
                table: "t".into(),
                alias: alias.into(),
                schema: sample_schema(),
            })
        };
        let residual = Some(Expr::Cmp {
            op: CmpOp::Ne,
            left: Box::new(Expr::Col(1)),
            right: Box::new(Expr::Col(5)),
        });
        let (left, right, on) = (scan("l"), scan("r"), vec![(0, 0), (1, 1)]);
        let mut all = vec![
            *scan("t"),
            Plan::Select {
                input: scan("t"),
                pred: every_expr().pop().unwrap(),
            },
            Plan::Project {
                input: scan("t"),
                cols: vec![("d".into(), Expr::Col(0)), ("p2".into(), Expr::Col(1))],
            },
            Plan::Join {
                kind: JoinKind::Inner,
                left: left.clone(),
                right: right.clone(),
                on: on.clone(),
                residual: residual.clone(),
            },
            Plan::Join {
                kind: JoinKind::LeftOuter,
                left: left.clone(),
                right: right.clone(),
                on: on.clone(),
                residual: None,
            },
            Plan::Join {
                kind: JoinKind::Semi,
                left: left.clone(),
                right: right.clone(),
                on: Vec::new(),
                residual: residual.clone(),
            },
            Plan::Join {
                kind: JoinKind::Anti,
                left: left.clone(),
                right: right.clone(),
                on,
                residual,
            },
            Plan::UnionAll { left, right },
        ];
        all.push(Plan::GroupBy {
            input: Box::new(Plan::UnionAll {
                left: Box::new(all[5].clone()),
                right: Box::new(all[6].clone()),
            }),
            keys: vec![0, 3],
            aggs: every_agg_func()
                .into_iter()
                .map(|f| AggSpec::new(f, Expr::Col(1), format!("{f:?}")))
                .collect(),
        });
        match all[0] {
            Plan::Scan { .. }
            | Plan::Select { .. }
            | Plan::Project { .. }
            | Plan::Join { .. }
            | Plan::UnionAll { .. }
            | Plan::GroupBy { .. } => all,
        }
    }

    fn every_net_change() -> Vec<NetChange> {
        let all = vec![
            NetChange::Inserted { post: row![9, "z"] },
            NetChange::Deleted { pre: row![2, "x"] },
            NetChange::Updated {
                pre: row![1, "a"],
                post: row![1, "b"],
            },
        ];
        match all[0] {
            NetChange::Inserted { .. } | NetChange::Deleted { .. } | NetChange::Updated { .. } => {
                all
            }
        }
    }

    /// A two-table net holding every kind of change.
    pub(crate) fn sample_net() -> Net {
        let mut changes = every_net_change().into_iter();
        let mut tc = TableChanges::new();
        tc.insert(Key(vec![Value::Int(2)]), changes.next_back().unwrap());
        tc.insert(Key(vec![Value::Int(1)]), changes.next_back().unwrap());
        let mut tc2 = TableChanges::new();
        tc2.insert(Key(vec![Value::Int(9)]), changes.next_back().unwrap());
        Net::from([("t".to_string(), tc.into()), ("s".to_string(), tc2.into())])
    }

    pub(crate) fn every_policy() -> Vec<RefreshPolicy> {
        let all = vec![
            RefreshPolicy::Eager,
            RefreshPolicy::Deferred {
                max_staleness_rounds: 7,
            },
            RefreshPolicy::OnRead,
        ];
        match all[0] {
            RefreshPolicy::Eager | RefreshPolicy::Deferred { .. } | RefreshPolicy::OnRead => all,
        }
    }

    fn every_cause() -> Vec<DeadLetterCause> {
        let all = vec![
            DeadLetterCause::Decode("junk".into()),
            DeadLetterCause::UnknownTable,
            DeadLetterCause::WrongArity {
                expected: 3,
                got: 1,
            },
            DeadLetterCause::TypeMismatch {
                column: 1,
                expected: "int",
            },
            DeadLetterCause::SequenceGap { expected: 4 },
            DeadLetterCause::SequenceRegression { expected: 9 },
            DeadLetterCause::DuplicateKey,
            DeadLetterCause::MissingRow,
            DeadLetterCause::StalePreImage { actual: row![5, 6] },
            DeadLetterCause::KeyChanged,
            DeadLetterCause::Storage("refused".into()),
        ];
        match all[0] {
            DeadLetterCause::Decode(_)
            | DeadLetterCause::UnknownTable
            | DeadLetterCause::WrongArity { .. }
            | DeadLetterCause::TypeMismatch { .. }
            | DeadLetterCause::SequenceGap { .. }
            | DeadLetterCause::SequenceRegression { .. }
            | DeadLetterCause::DuplicateKey
            | DeadLetterCause::MissingRow
            | DeadLetterCause::StalePreImage { .. }
            | DeadLetterCause::KeyChanged
            | DeadLetterCause::Storage(_) => all,
        }
    }

    /// One dead letter per cause, with every shape of pre/post image.
    pub(crate) fn every_dead_letter() -> Vec<DeadLetter> {
        let images = [
            (None, Some(row![1, "x"])),
            (None, None),
            (Some(row![5, 7]), Some(row![5, 8])),
            (Some(row![5, 7]), None),
        ];
        every_cause()
            .into_iter()
            .zip(images.into_iter().cycle())
            .zip(0..)
            .map(|((cause, (pre, post)), seq)| DeadLetter {
                producer: 3,
                seq,
                table: if seq == 0 { String::new() } else { "parts".into() },
                cause,
                pre,
                post,
                wire: format!("3|{seq}|parts|ins|i:1,s:x"),
            })
            .collect()
    }

    #[test]
    fn values_round_trip_bit_exactly() {
        every_value().iter().for_each(contract);
        contract(&f64::NAN);
        contract(&row![1, "x", -0.0, Value::Null, true]);
        contract(&Key(every_value()));
    }

    #[test]
    fn fieldless_enums_round_trip_through_their_tag_tables() {
        every_column_type().iter().for_each(contract);
        every_bin_op().iter().for_each(contract);
        every_cmp_op().iter().for_each(contract);
        every_scalar_fn().iter().for_each(contract);
        every_agg_func().iter().for_each(contract);
    }

    #[test]
    fn schema_round_trips() {
        contract(&sample_schema());
    }

    #[test]
    fn exprs_and_plans_round_trip() {
        every_expr().iter().for_each(contract);
        every_plan().iter().for_each(contract);
    }

    #[test]
    fn nets_encode_canonically_and_round_trip() {
        every_net_change().iter().for_each(contract);
        let (a, b) = (sample_net(), sample_net());
        assert_eq!(
            to_bytes(&a),
            to_bytes(&b),
            "encoding is canonical regardless of map order"
        );
        contract(&a);
    }

    #[test]
    fn dead_letters_round_trip_including_static_labels() {
        every_cause().iter().for_each(contract);
        contract(&every_dead_letter());
        contract(&IngestTotals {
            admitted: 10,
            dead_lettered: 1,
            shed: 2,
            cuts: 3,
        });
    }

    #[test]
    fn policies_round_trip() {
        every_policy().iter().for_each(contract);
    }

    #[test]
    fn truncated_and_garbage_buffers_yield_corrupt_not_panic() {
        contract(&Plan::Scan {
            table: "t".into(),
            alias: "t".into(),
            schema: Schema::from_pairs(&[("a", ColumnType::Int)], &["a"]).unwrap(),
        });
    }

    #[test]
    fn deep_nesting_is_rejected_typed() {
        // 300 Not() wrappers: over the decoder's depth ceiling.
        let mut out = vec![6u8; 300];
        (0u8, 0usize).encode(&mut out);
        assert!(matches!(from_bytes::<Expr>(&out), Err(Error::Corrupt(_))));
    }

    /// `plans` nested Selects over a Scan, the innermost's predicate
    /// `exprs` Not() wrappers deep.
    fn select_chain(plans: usize, exprs: usize) -> Vec<u8> {
        let mut out = vec![1u8; plans];
        every_plan()[0].encode(&mut out);
        out.extend_from_slice(&vec![6u8; exprs]);
        (0..plans).for_each(|_| (0u8, 0usize).encode(&mut out));
        out
    }

    #[test]
    fn deep_plans_are_rejected_typed_and_the_deepest_format_01_payload_decodes() {
        // A 1 000-deep Select chain is refused by the ceiling, not by
        // running out of stack.
        match from_bytes::<Plan>(&select_chain(1_000, 0)) {
            Err(Error::Corrupt(m)) => assert!(m.contains("plan nesting"), "{m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // What the format has always accepted still decodes: 201 plan
        // levels, and 201 expression levels inside the deepest holder.
        // One level more of either is refused.
        let deepest = std::thread::Builder::new()
            .stack_size(8 << 20) // a main thread's, whatever the test harness gives its own
            .spawn(|| from_bytes::<Plan>(&select_chain(200, 200)).is_ok())
            .unwrap();
        assert!(deepest.join().unwrap());
        for over in [select_chain(201, 0), select_chain(200, 201)] {
            assert!(matches!(from_bytes::<Plan>(&over), Err(Error::Corrupt(_))));
        }
    }

    #[test]
    fn counts_cannot_force_huge_allocations() {
        // A 4 GiB element count over a 12-byte buffer must be refused
        // before any allocation happens.
        let mut out = Vec::new();
        u32::MAX.encode(&mut out);
        out.extend_from_slice(&[0u8; 8]);
        let mut r = Reader::new(&out);
        assert!(matches!(r.count(u8::MIN_BYTES), Err(Error::Corrupt(_))));
    }

    #[test]
    fn the_count_guard_scales_with_the_element_type() {
        assert_eq!(<(usize, usize)>::MIN_BYTES, 16);
        assert_eq!(<(String, u32, u32)>::MIN_BYTES, 12);
        assert_eq!(Column::MIN_BYTES, 5);
        // Sixty bytes could hold sixty one-byte items, but not four
        // 16-byte pairs: the count itself is refused, before any
        // allocation is sized from it.
        for count in [4, u32::MAX] {
            let mut out = Vec::new();
            count.encode(&mut out);
            out.extend_from_slice(&[0u8; 60]);
            match from_bytes::<Vec<(usize, usize)>>(&out) {
                Err(Error::Corrupt(m)) => assert!(m.contains(&format!("count {count}")), "{m}"),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn structure_errors_report_the_offset_of_the_offending_byte() {
        let message = |bytes: Vec<u8>| match from_bytes::<Schema>(&bytes) {
            Err(Error::Corrupt(m)) => m,
            other => panic!("expected Corrupt, got {other:?}"),
        };
        let good = to_bytes(&Schema::from_pairs(&[("a", ColumnType::Int)], &["a"]).unwrap());
        // [u32 1]["a": u32 1, 'a'][type tag] — the tag is byte 9, the key name byte 18.
        let mut no_variant = good.clone();
        no_variant[9] = 9;
        assert_eq!(message(no_variant), "decode at byte 9: column type tag 9");
        // The key names "b", a column the schema does not have: the
        // fault is the schema's, which starts at byte 0.
        let mut bad_key = good.clone();
        bad_key[18] = b'b';
        assert!(message(bad_key).starts_with("decode at byte 0: invalid schema"));
        let mut bad_utf8 = good;
        bad_utf8[8] = 0xff;
        assert_eq!(message(bad_utf8), "decode at byte 8: invalid utf-8");
    }
}
