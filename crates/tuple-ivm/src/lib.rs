//! `idivm-tuple`: the classical **tuple-based IVM** baseline the paper
//! compares against.
//!
//! Tuple-based diffs (*t-diffs*, the paper's `D` tables) contain one
//! diff tuple per view tuple to insert, delete, or update — full view
//! rows, not ID handles. Computing them requires reconstructing entire
//! view tuples, which means joining each base-table diff tuple with the
//! other base relations (the *diff-driven loop plan* of Appendix A,
//! costing `a` accesses per diff tuple). That reconstruction work is
//! precisely what ID-based IVM avoids, and what the experiments
//! measure.
//!
//! The engine shares the substrate with `idivm-core` — the same counted
//! access paths, the same executor — so measured differences are
//! algorithmic, not infrastructural. Per the paper's experimental setup
//! the baseline gets every base-table index it wants for free
//! ([`engine::TupleIvm::setup`] creates them; index maintenance is not
//! charged).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod engine;
pub mod propagate;
pub mod tdiff;

pub use engine::TupleIvm;
pub use tdiff::TDiffs;
