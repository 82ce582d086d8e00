//! `idivm-cost`: the analytic cost model of paper Section 6 and
//! Appendix A.
//!
//! Cost unit: combined tuple accesses + index lookups. Parameters:
//!
//! * `p` — the i-diff **compression factor** `|D_V| / |∆_V|`: view
//!   tuples modified per view i-diff tuple (`> 1` when one i-diff tuple
//!   covers many view tuples, `< 1` under overestimation),
//! * `a` — average accesses the **tuple-based** approach spends per
//!   base diff tuple to reconstruct the view diff (the diff-driven loop
//!   over `σ_c′(E)`),
//! * `g` — the grouping compression factor `|Du_Vagg| / |Du_Vspj|`,
//! * `k` — view-input rows created per base diff tuple (insert case).
//!
//! The [`spj`] and [`agg`] modules give the per-approach costs of the
//! paper's Tables 2 and 3 and the speedup formulas; [`measure`]
//! extracts the parameters from measured
//! [`MaintenanceReport`](idivm_reldb::StatsSnapshot)-style counters so
//! experiments can confront prediction with observation.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod agg;
pub mod measure;
pub mod promote;
pub mod spj;

pub use agg::AggModel;
pub use measure::ObservedParams;
pub use promote::{CrossoverModel, PrefixObservation, PromotionConfig, PromotionDecision};
pub use spj::SpjModel;
