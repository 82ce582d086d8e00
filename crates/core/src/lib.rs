//! `idivm-core`: the paper's contribution — **ID-based incremental view
//! maintenance** (idIVM).
//!
//! Instead of classical *tuple-based* diffs (one diff tuple per modified
//! view tuple), idIVM propagates **i-diffs**: diff tuples that identify
//! the to-be-modified view tuples through a *subset* `Ī′` of the view's
//! ID (key) attributes, optionally carrying pre-state (`Ā′_pre`) and
//! post-state (`Ā″_post`) values for some non-ID attributes. A single
//! i-diff tuple can stand for many view tuples, and computing i-diffs
//! usually avoids the base-table joins tuple-based IVM needs.
//!
//! The crate mirrors the system architecture of paper Section 3:
//!
//! * [`schema_gen`] — the *base-table i-diff schema generator*
//!   (view-definition time): splits attributes into conditional sets
//!   `C_op` and the non-conditional set `NC`, one update-diff schema per
//!   set (Section 5).
//! * [`diff`] — i-diff schemas and instances (Section 2), including
//!   effectiveness checking.
//! * [`rules`] — the per-operator i-diff propagation rules (Tables
//!   4–13), one module per operator.
//! * [`minimize`] — the semantic-minimization switch (Pass 4 / Figure
//!   8): every rule has a *general* form that probes base data and,
//!   where Figure 8 licenses it, a *minimized* diff-only form.
//! * [`access`] — `RelAccess`, the counted access path to any subview
//!   (`Input_pre` / `Input_post` / `Output` of Section 4), served from
//!   base tables, pre-state overlays, or intermediate caches.
//! * [`apply`] — the APPLY statements of Section 2 (UPDATE / INSERT /
//!   DELETE against the materialized view or a cache).
//! * [`cache`] — intermediate-cache planning for aggregate operators
//!   (Section 4, Example 4.6), with the multi-valued-dependency guard.
//! * [`engine`] — [`engine::IdIvm`]: setup (the four passes) and
//!   [`maintain`](engine::IdIvm::maintain) (modification log → i-diff
//!   instances → propagation → application), with a per-phase cost
//!   report.
//! * [`round`] — the round spine: the [`round::Engine`] trait (strategy
//!   required, atomic-round protocol provided) and the [`round::Round`]
//!   context, shared by all three engines.
//! * [`script`] — a human-readable rendering of the generated ∆-script
//!   (paper Figure 7).
//! * [`supervisor`] — the self-healing maintenance supervisor: drives
//!   rounds to convergence with retry/backoff, poison-diff bisection
//!   and quarantine, recompute escalation, and round budgets.
//! * [`config`] — the [`config::EngineKnobs`] block and
//!   [`config::EngineConfig`] trait shared by every engine.
//! * [`shared`] — cross-view shared-prefix i-diff reuse (the engine
//!   hook under the `idivm-sched` view catalog).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod access;
pub mod apply;
pub mod cache;
pub mod config;
pub mod diff;
pub mod engine;
pub mod faults;
pub mod minimize;
pub mod report;
pub mod round;
pub mod rules;
pub mod schema_gen;
pub mod script;
pub mod shared;
pub mod supervisor;
pub mod trace;

pub use config::{EngineConfig, EngineKnobs};
pub use diff::{DiffInstance, DiffKind, DiffSchema};
pub use engine::{IdIvm, IvmOptions};
pub use faults::{FaultKind, FaultPlan, FaultSite, FaultState, RoundBudget};
pub use report::MaintenanceReport;
pub use round::{Engine, Round};
pub use shared::{
    detect_shared_prefixes, promotion_candidates, structure_key, substitute_scan,
    substitute_structures, PrefixSpec, PromotionCandidate, SharedDiffCache, SharedPrefixStat,
    SharedPrefixes,
};
pub use supervisor::{
    BackoffPolicy, BisectNode, BisectOutcome, MaintenanceSupervisor, QuarantineEntry,
    QuarantineLog, SupervisedEngine, SupervisorConfig, SupervisorReport, SupervisorVerdict,
};
pub use trace::{IngestTrace, OpTrace, PhaseTimings, RoundTrace, TraceConfig, TracePhase};
