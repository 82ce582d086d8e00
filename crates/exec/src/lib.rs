//! `idivm-exec`: executes [`Plan`](idivm_algebra::Plan)s against a
//! [`Database`](idivm_reldb::Database).
//!
//! Two jobs:
//!
//! * **Full evaluation** ([`execute`]) — hash joins and hash
//!   aggregation over counted base-table scans; used to materialize
//!   views initially and as the *recomputation oracle* that every IVM
//!   engine in this workspace is differential-tested against.
//! * **View materialization** ([`materialize_view`]) — derives a keyed
//!   storage schema from a plan (using the inferred IDs as the primary
//!   key) and fills it.
//!
//! The *delta-query* execution used during IVM (diff-driven index
//! nested loops) lives in `idivm-core`, which reuses the counted access
//! paths of `idivm-reldb` directly.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod catalog;
pub mod executor;
pub mod partition;
pub mod recompute;

pub use catalog::DbCatalog;
pub use executor::execute;
pub use partition::{Batch, ParallelConfig, MAX_THREADS};
pub use recompute::{materialize_view, recompute_rows, refresh_view, view_schema};
