//! `idivm-exec`: evaluates [`Plan`](idivm_algebra::Plan)s against a
//! [`Database`](idivm_reldb::Database).
//!
//! One evaluator ([`executor::evaluate`]) does all full evaluation in
//! the workspace, bottom up over counted base-table scans, with one
//! chained hash table for every join kind and for grouping:
//!
//! * **the recomputation oracle** ([`execute`], [`recompute_rows`]) that
//!   every IVM engine here is differential-tested against;
//! * **view materialization** ([`materialize_view`], [`refresh_view`],
//!   [`materialize_nodes`]): a keyed storage schema derived from the
//!   plan, with the inferred IDs as primary key, filled from the
//!   result — a view and the caches under it in a single pass, reading
//!   join subtrees an earlier view over the same table versions
//!   evaluated from a [`SubplanMemo`] when the caller keeps one;
//! * **subview scans** in `idivm-core`, which read cache tables and
//!   pre-state overlays in place of the subtrees they stand for.
//!
//! The last two ride on the evaluator's [`PathHook`]: seeing each node
//! by its path from the root, a hook may *claim* the node (its rows are
//! read from the hook, and nothing under it is evaluated) or *want* it
//! (its rows are handed to the hook as well as to the operator above).
//!
//! The delta queries of maintenance (diff-driven index nested loops) and
//! the application of diffs live in `idivm-core`, on the counted access
//! paths of `idivm-reldb`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod catalog;
pub mod executor;
pub mod memo;
pub mod partition;
pub mod recompute;

pub use catalog::DbCatalog;
pub use executor::{execute, PathHook};
pub use memo::SubplanMemo;
pub use partition::{Batch, ParallelConfig, MAX_THREADS};
pub use recompute::{materialize_nodes, materialize_view, recompute_rows, refresh_view, view_schema};
