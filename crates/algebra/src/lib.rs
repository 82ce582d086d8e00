//! `idivm-algebra`: the relational algebra of the view-definition
//! language `QSPJADU` (paper Section 2) plus scalar expressions and the
//! ID-inference rules of paper Table 1.
//!
//! `QSPJADU` contains **S**election, generalized **P**rojection (with
//! functions), **J**oin (arbitrary conditions), grouping/**A**ggregation
//! with associative functions, anti-semijoin (**D**ifference/negation),
//! and **U**nion (bag union with a branch attribute). Plans built here
//! are executed by `idivm-exec` and incrementally maintained by
//! `idivm-core` / `idivm-tuple`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod aggregate;
pub mod builder;
pub mod display;
pub mod expr;
pub mod ids;
pub mod plan;

pub use aggregate::{Accumulator, AggFunc, AggSpec};
pub use builder::PlanBuilder;
pub use expr::{opt_pred, BinOp, CmpOp, Expr, ScalarFn};
pub use ids::{ensure_ids, infer_ids, project_ids};
pub use plan::{ColOrigin, JoinKind, Plan, PlanCol};
