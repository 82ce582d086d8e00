//! `idivm-sched`: the multi-view catalog and shared-diff maintenance
//! scheduler — the subsystem that turns one idIVM engine into a
//! server-shaped workload.
//!
//! The paper's idIVM system is explicitly a *multi-view* maintainer:
//! i-diffs are computed once per base-table modification and pushed
//! through every dependent view's operator tree. This crate provides
//! that layer over the single-view engines:
//!
//! * [`ViewCatalog`] — register many named views over one shared
//!   [`idivm_reldb::Database`]; keeps the base-table → view dependency
//!   DAG and the cross-view shared operator-tree prefix designations
//!   ([`idivm_core::shared`]) current on every registration, so each
//!   base i-diff batch is computed **once** per shared prefix and
//!   fanned out to all dependent views.
//! * [`MaintenanceScheduler`] — per-view refresh policies
//!   ([`RefreshPolicy::Eager`], [`RefreshPolicy::Deferred`],
//!   [`RefreshPolicy::OnRead`] with a [`read_view`] barrier), pending
//!   nets shared between views and composed across deferred rounds
//!   ([`idivm_reldb::compose_shared`]), atomic per-view rounds, and
//!   per-view failure routing through the
//!   [`idivm_core::supervisor::MaintenanceSupervisor`].
//!
//! [`read_view`]: MaintenanceScheduler::read_view
//!
//! Everything is deterministic: views are driven in name order, shared
//! caches are round-scoped and keyed by structural fingerprint ⊕
//! pending-net digest, and per-view/per-prefix access attribution is
//! bit-identical for any `ParallelConfig` thread count.
//!
//! The crate is re-exported from the umbrella crate as
//! `idivm_repro::catalog` (it cannot live under `idivm_core` itself —
//! it sits *above* the engines in the dependency DAG).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod catalog;
pub mod scheduler;
mod snapshot;

pub use catalog::{Backing, CatalogView, ViewCatalog};
pub use scheduler::{
    CostEntry, MaintenanceScheduler, PromotionEvent, RefreshPolicy, RoundSummary, SchedulerConfig,
    ViewStats,
};
