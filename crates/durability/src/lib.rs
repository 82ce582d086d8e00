//! `idivm-durability`: write-ahead logging, checkpoints, and
//! crash-consistent recovery for the idIVM maintenance stack.
//!
//! Everything below this crate is an in-memory system: the
//! [`idivm_reldb::Database`], the view catalog, the scheduler, and the
//! ingest pipeline all evaporate with the process. This crate adds the
//! durability boundary on top, without touching the maintenance
//! algorithms themselves:
//!
//! * [`wal`] — a checksummed, length-prefixed **write-ahead log**. One
//!   record per committed scheduler round (the folded net DML, plus —
//!   for streamed rounds — the ingest sequence baselines and
//!   dead-letter appends), plus records for catalog registration and
//!   forced promotion transitions. Fsync cadence is governed by
//!   [`DurabilityPolicy`].
//! * [`checkpoint`] — periodic full snapshots: every table (views,
//!   hidden `__ivm{n}` backings, caches included) verbatim, the
//!   catalog manifest (source plans, policies, intermediates), the
//!   scheduler's pending nets / staleness / round counter / cost-model
//!   streaks, and the ingest pipeline's sequence baselines, dead
//!   letters, and totals. A checkpoint truncates the WAL behind it.
//! * [`durable`] — the [`Durable`] wrapper that journals every round
//!   at commit, takes checkpoints on a round cadence, and recovers
//!   with [`Durable::open`]: newest valid checkpoint, then WAL-tail
//!   replay through the ordinary deterministic tick machinery, landing
//!   on a [`idivm_reldb::Database::signature`] bit-identical to the
//!   pre-crash committed state.
//! * [`codec`] — the on-disk format both files share, stated once: an
//!   `Encode`/`Decode` trait pair, the containers composed generically,
//!   one table per type. Every read is bounds-checked and returns a
//!   typed [`idivm_types::Error::Corrupt`]; garbage bytes can never
//!   panic the recovery path.
//!
//! **Torn vs corrupt.** A crash mid-append leaves a *torn tail*: the
//! last record extends past EOF or fails its checksum with nothing
//! after it. Recovery truncates the tail and continues — those bytes
//! were never acknowledged as durable. A checksum failure *before* the
//! end of the log is different: acknowledged history is damaged, so
//! recovery refuses with [`idivm_types::Error::Corrupt`] rather than
//! silently dropping committed rounds.
//!
//! The crash-injection sites ([`idivm_core::FaultSite::WalAppend`],
//! [`FaultSite::WalFsync`](idivm_core::FaultSite::WalFsync),
//! [`FaultSite::Checkpoint`](idivm_core::FaultSite::Checkpoint)) fire
//! inside this crate's write paths; the tests simulate a kill by
//! dropping all in-memory state at the fault and re-opening from disk.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
pub mod checkpointer;
pub mod codec;
pub mod durable;
pub mod wal;

pub use checkpoint::{Checkpoint, CHECKPOINT_FILE};
pub use checkpointer::CheckpointStats;
pub use durable::{Durable, DurabilityConfig, DurabilityPolicy, WAL_FILE};
pub use wal::{RoundKind, Wal, WalRecord};
