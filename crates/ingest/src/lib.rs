//! `idivm-ingest`: the streaming CDC front-end for the idIVM
//! maintenance stack.
//!
//! The paper's engines consume a folded `ChangeLog` per maintenance
//! round; everything upstream of that fold is this crate:
//!
//! * [`event`] — the typed change-event format (insert/delete/update
//!   with pre-images, per-producer monotone sequence numbers) and its
//!   lossless wire encoding.
//! * [`queue`] — the bounded MPSC admission queue with real
//!   backpressure: block or shed at capacity, watermark hysteresis,
//!   counted (never silent) sheds.
//! * [`batcher`] — the adaptive micro-batcher: cut a maintenance tick
//!   by count, by age, or — under overload — grow batches up to the
//!   staleness SLO.
//! * [`dlq`] — the deterministic dead-letter queue for events that
//!   fail admission, with cause + pre/post images (the ingest mirror
//!   of the supervisor's quarantine log).
//! * [`pipeline`] — decode → validate → logged DML admission, atomic
//!   per cut, feeding
//!   [`MaintenanceScheduler::tick_ingest`](idivm_sched::MaintenanceScheduler::tick_ingest);
//!   carries the ingest failpoints (`Enqueue`, `BatchCut`, `Decode`)
//!   with full rollback on fault.
//! * [`stream`] — log ↔ stream conversion: partition logged DML into
//!   producer streams by stable key hash (single writer per key), and
//!   the direct-replay one-shot baseline.
//! * [`driver`] — the deterministic virtual-tick firehose driver the
//!   firehose grid and convergence tests share.
//!
//! Everything is deterministic on the virtual tick clock: same event
//! streams in, bit-identical database signature, DLQ bytes, and batch
//! boundaries out — independent of engine thread count.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod batcher;
pub mod dlq;
pub mod driver;
pub mod event;
pub mod pipeline;
pub mod queue;
pub mod stream;

pub use batcher::{BatchPolicy, CutCause, MicroBatcher};
pub use dlq::{DeadLetter, DeadLetterCause, DeadLetterQueue};
pub use driver::{drive, DriveConfig, DriveStats};
pub use event::{ChangeEvent, ChangeOp, RawEvent};
pub use pipeline::{CommittedCut, IngestOutcome, IngestPipeline, IngestTotals, PipelineConfig};
pub use queue::{EventQueue, OverflowPolicy, QueueConfig, QueueStats, SendOutcome};
pub use stream::{apply_log, partition_log};
