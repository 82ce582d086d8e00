//! Core data-model primitives shared by every crate in the idIVM
//! reproduction: SQL-style [`Value`]s, [`Row`]s, [`Schema`]s with primary
//! keys, the common [`Error`] type, and [`Json`], the one writer of every
//! JSON report.
//!
//! The paper ("Utilizing IDs to Accelerate Incremental View Maintenance",
//! SIGMOD 2015) assumes a relational model in which *every base table has a
//! primary key*; the key columns of a relation are recorded in its
//! [`Schema`] and are what i-diffs use to identify tuples.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod error;
pub mod fnv;
pub mod json;
pub mod row;
pub mod schema;
pub mod value;

pub use error::{Error, Result};
pub use fnv::{stable_hash_key, Fnv1a};
pub use json::Json;
pub use row::{key_digest, Key, Row};
pub use schema::{Column, ColumnType, Schema};
pub use value::Value;
