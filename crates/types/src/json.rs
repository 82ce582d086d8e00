//! The workspace's one JSON writer.
//!
//! Every report — the experiment harness's `BENCH_*.json`, a round's
//! trace, a supervisor run, a dead-letter queue — is built as a [`Json`]
//! value and turned into text by [`Json::render`]. Output is
//! deterministic: members keep their insertion order and each container
//! carries its own [`Layout`]. This module is the only place that knows
//! JSON syntax; strings are escaped by [`Json::Str`] alone.

use crate::{Error, Result};
use std::fmt::Write as _;

/// How an object or array is laid out: one member per line, indented
/// two spaces under its parent, or all on one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    Block,
    Inline,
}

/// A JSON value with its layout. Strings and keys are escaped; a
/// non-finite float is `null`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i128),
    /// A float with a fixed number of decimals.
    Fixed(f64, usize),
    /// A float as `Display` prints it (`0.02`, `1`).
    Num(f64),
    Str(String),
    Obj(Layout, Vec<(String, Json)>),
    Arr(Layout, Vec<Json>),
}

impl Json {
    /// An object, one field per line.
    pub fn block<'k>(fields: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
        Json::Obj(Layout::Block, owned(fields))
    }

    /// An object on one line.
    pub fn inline<'k>(fields: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
        Json::Obj(Layout::Inline, owned(fields))
    }

    /// An array, one item per line.
    pub fn rows(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(Layout::Block, items.into_iter().collect())
    }

    /// An array on one line.
    pub fn list(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(Layout::Inline, items.into_iter().collect())
    }

    /// The document text (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    /// Write the document, newline-terminated, to `path`.
    ///
    /// # Errors
    /// [`Error::Config`] naming the path and the I/O error.
    pub fn write(&self, path: &str) -> Result<()> {
        std::fs::write(path, self.render() + "\n")
            .map_err(|e| Error::Config(format!("cannot write {path}: {e}")))
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        // A container's delimiters, layout and (key, value) members.
        type Members<'a> = Vec<(Option<&'a str>, &'a Json)>;
        let (delimiters, layout, members): ([char; 2], Layout, Members) = match self {
            Json::Obj(layout, fields) => {
                let members = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                (['{', '}'], *layout, members.collect())
            }
            Json::Arr(layout, items) => (
                ['[', ']'],
                *layout,
                items.iter().map(|v| (None, v)).collect(),
            ),
            scalar => return scalar.render_scalar(out),
        };
        let block = layout == Layout::Block;
        out.push(delimiters[0]);
        if block {
            out.push('\n');
        }
        for (i, (key, value)) in members.into_iter().enumerate() {
            if i > 0 {
                out.push_str(if block { ",\n" } else { ", " });
            }
            if block {
                let _ = write!(out, "{:1$}", "", indent + 2);
            }
            if let Some(key) = key {
                escaped(out, key);
                out.push_str(": ");
            }
            value.render_into(out, indent + 2);
        }
        if block {
            let _ = write!(out, "\n{:1$}", "", indent);
        }
        out.push(delimiters[1]);
    }

    fn render_scalar(&self, out: &mut String) {
        let _ = match self {
            Json::Bool(b) => write!(out, "{b}"),
            Json::Int(i) => write!(out, "{i}"),
            Json::Fixed(x, digits) if x.is_finite() => write!(out, "{x:.digits$}"),
            Json::Num(x) if x.is_finite() => write!(out, "{x}"),
            Json::Str(s) => {
                escaped(out, s);
                Ok(())
            }
            _ => write!(out, "null"),
        };
    }
}

/// Append `s` to `out` as a quoted JSON string literal.
fn escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn owned<'k>(fields: impl IntoIterator<Item = (&'k str, Json)>) -> Vec<(String, Json)> {
    let fields = fields.into_iter();
    fields.map(|(k, v)| (k.to_string(), v)).collect()
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(i: $t) -> Json {
                Json::Int(i as i128)
            }
        }
    )*};
}
json_from_int!(u32, u64, i64, usize);

impl From<u128> for Json {
    /// Saturates at `i128::MAX`.
    fn from(i: u128) -> Json {
        Json::Int(i128::try_from(i).unwrap_or(i128::MAX))
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    /// `None` is `null`.
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_keys_are_escaped() {
        let doc = Json::inline([("re\"covery", Json::from("a\"b\\c\nd\te\u{1}f"))]);
        assert_eq!(doc.render(), r#"{"re\"covery": "a\"b\\c\nd\te\u0001f"}"#);
    }

    #[test]
    fn non_finite_floats_and_none_render_null() {
        let doc = Json::list([
            Json::Fixed(f64::INFINITY, 3),
            Json::Fixed(f64::NAN, 3),
            Json::Num(f64::NEG_INFINITY),
            Json::Fixed(1.0, 3),
            Json::Num(0.02),
            Json::Num(1.0),
            Json::Null,
            Json::from(None::<u64>),
            Json::from(Some(7u64)),
        ]);
        assert_eq!(
            doc.render(),
            "[null, null, null, 1.000, 0.02, 1, null, null, 7]"
        );
    }

    /// The committed `BENCH_tpch.json`, byte for byte: block objects
    /// holding block arrays of inline objects and an inline object.
    #[test]
    fn block_and_inline_layouts_reproduce_bench_tpch() {
        let engine = |name: &str, accesses: u64, rescans: u64| {
            Json::inline([
                ("name", name.into()),
                ("accesses", accesses.into()),
                ("rescans", rescans.into()),
            ])
        };
        let doc = Json::block([
            ("bench", "tpch".into()),
            ("customers", 200usize.into()),
            ("rounds", 8u64.into()),
            ("diffs", 24usize.into()),
            ("extremum_pct", 30u32.into()),
            (
                "extremes",
                Json::block([
                    (
                        "engines",
                        Json::rows([
                            engine("id-ivm", 2114, 73),
                            engine("tuple-ivm", 2506, 73),
                            engine("sdbt-fixed", 2329, 73),
                            engine("id-ivm-p4", 2114, 73),
                        ]),
                    ),
                    ("recompute_accesses", 22_078u64.into()),
                    ("id_vs_recompute_ratio", Json::Fixed(22_078.0 / 2114.0, 4)),
                ]),
            ),
            (
                "order_pad",
                Json::block([
                    (
                        "engines",
                        Json::rows([engine("id-ivm", 1172, 0), engine("tuple-ivm", 1782, 0)]),
                    ),
                    ("recompute_accesses", 5715u64.into()),
                    ("padded_rows_final", 104usize.into()),
                ]),
            ),
            (
                "signatures_match",
                Json::inline([("cross_engine", true.into()), ("parallel_p4", true.into())]),
            ),
        ]);
        let want = r#"{
  "bench": "tpch",
  "customers": 200,
  "rounds": 8,
  "diffs": 24,
  "extremum_pct": 30,
  "extremes": {
    "engines": [
      {"name": "id-ivm", "accesses": 2114, "rescans": 73},
      {"name": "tuple-ivm", "accesses": 2506, "rescans": 73},
      {"name": "sdbt-fixed", "accesses": 2329, "rescans": 73},
      {"name": "id-ivm-p4", "accesses": 2114, "rescans": 73}
    ],
    "recompute_accesses": 22078,
    "id_vs_recompute_ratio": 10.4437
  },
  "order_pad": {
    "engines": [
      {"name": "id-ivm", "accesses": 1172, "rescans": 0},
      {"name": "tuple-ivm", "accesses": 1782, "rescans": 0}
    ],
    "recompute_accesses": 5715,
    "padded_rows_final": 104
  },
  "signatures_match": {"cross_engine": true, "parallel_p4": true}
}"#;
        assert_eq!(doc.render(), want);
        // An inline array of inline objects (`BENCH_firehose.json`'s
        // `depth_series` shape) and the empty block array the
        // no-promotion multiview report carries.
        let doc = Json::block([
            ("cells", Json::list([engine("a", 1, 2), engine("b", 3, 4)])),
            ("events", Json::rows([])),
        ]);
        let want = "{\n  \"cells\": [{\"name\": \"a\", \"accesses\": 1, \"rescans\": 2}, \
                    {\"name\": \"b\", \"accesses\": 3, \"rescans\": 4}],\n  \
                    \"events\": [\n\n  ]\n}";
        assert_eq!(doc.render(), want);
    }
}
