//! `idivm-reldb`: the in-memory relational storage substrate for the
//! idIVM reproduction.
//!
//! The paper evaluates IVM approaches on PostgreSQL with a cost model that
//! counts *tuple accesses* and *index lookups* (Section 6 / Appendix A).
//! This crate substitutes a from-scratch engine that provides exactly what
//! that analysis needs:
//!
//! * [`Table`]s keyed by primary key, with optional secondary hash
//!   indexes — rows live in slots, and both kinds of map file a slot by
//!   the keyed digest of its key columns, read in place from the row, so
//!   no key is stored or built per row,
//! * an [`AccessStats`] instrument counting tuple accesses and index
//!   lookups at the same granularity as the paper's model,
//! * a [`ModificationLog`] capturing inserts/deletes/updates with
//!   pre-images (the paper's "modification logger"), and
//! * a [`PreState`] overlay that serves the *pre-state* of a table during
//!   deferred view maintenance, reconstructed from the net changes.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod database;
mod digest_map;
mod index;
pub mod log;
pub mod overlay;
pub mod stats;
pub mod table;

pub use database::{Database, MODLOG_SIGNATURE_KEY};
pub use log::{
    compose_changes, compose_shared, net_digest, table_delta, LogEntry, ModificationLog, Net,
    NetChange, SharedChanges, TableChanges, UndoLog,
    UndoOp,
};
pub use overlay::PreState;
pub use stats::{AccessStats, StatsSnapshot};
pub use table::{Patched, Table, TableSignature};
