//! `idivm-workloads`: data and workload generators for the paper's two
//! experiment families.
//!
//! * [`running_example`] — the devices/parts/devices_parts schema of
//!   Figure 1, parameterized exactly like Figure 11: diff size `d`,
//!   number of joins `j`, selectivity `s`, fanout `f`. Used for the
//!   Figure 12 sweeps and Tables 2/3.
//! * [`bsma`] — a synthetic generator with the schema and relative
//!   relation sizes of the Benchmark for Social Media Analytics
//!   (Figure 9a), plus the eight analytics views of Figure 9b (Q7, Q10,
//!   Q11, Q15, Q18, Q*1, Q*2, Q*3).
//! * [`multiview`] — the overlapping Q7-family suite for the view
//!   catalog: five standing views sharing the σ_ts(mentions ⋈
//!   microblog) prefix, plus a tweet-stream modification generator
//!   whose diffs actually reach the shared subtree.
//! * [`tpch`] — a TPC-H-flavored customer/orders/lineitem workload with
//!   skewed extremum-deleting updates, exercising MIN/MAX rescans and
//!   LEFT OUTER JOIN padding churn.
//!
//! Every view of the running example, Figure 9b's BSMA queries, the
//! multi-view suite and TPC-H is defined once, as SQL text (`*_sql`,
//! [`bsma::Bsma::sql`], [`MultiView::sql`]); its `*_plan` accessor
//! lowers that text with [`idivm_sql::plan_sql`]. Q11 and Q18 join
//! above an aggregate through a `WITH` helper whose group keys carry
//! `AS` aliases. Only the SDBT partials stay `PlanBuilder` programs:
//! they are engine state, not views.
//!
//! The paper ran on BSMA's released data at 1M-user scale on PostgreSQL;
//! we substitute a seeded synthetic generator with the same shape,
//! scaled down by a configurable factor (see DESIGN.md — the speedups
//! under study derive from join-chain length, selectivity, and fanout,
//! which the generator preserves).

pub mod bsma;
pub mod multiview;
pub mod running_example;
pub mod tpch;

pub use multiview::MultiView;
pub use running_example::RunningExample;
pub use tpch::Tpch;
