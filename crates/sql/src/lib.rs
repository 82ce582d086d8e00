//! `idivm-sql`: the SQL front-end of the idIVM reproduction.
//!
//! A hand-rolled lexer + recursive-descent parser for the materialized
//! view subset —
//!
//! ```sql
//! CREATE MATERIALIZED VIEW [IF NOT EXISTS] name AS
//!   [WITH helper AS (SELECT …) [, …]]
//!   SELECT … FROM …
//!   [JOIN … ON … | LEFT [OUTER] JOIN … ON …]*
//!   [WHERE … [AND EXISTS (SELECT …)]]
//!   [GROUP BY …]
//!   [UNION ALL SELECT …];
//! DROP MATERIALIZED VIEW [IF EXISTS] name;
//! EXPLAIN MAINTENANCE name;
//! ```
//!
//! — that name-resolves against the `reldb` schema, lowers to
//! [`idivm_algebra::Plan`]s, and registers/unregisters views in the
//! [`idivm_sched::ViewCatalog`] by name. A `FROM` item naming a
//! previously registered view is expanded **inline** (SpacetimeDB-style
//! substitution of the defining subtree, wrapped in a renaming
//! projection), so shared-prefix detection and adaptive promotion see
//! the common subtrees of views-over-views automatically. A `WITH`
//! helper is such a view that belongs to its one statement and is never
//! registered; group keys may carry `AS` aliases, so a helper's
//! aggregate can be joined by name.
//!
//! Everything outside the subset fails with a typed
//! [`Error::Unsupported`](idivm_types::Error::Unsupported) naming the
//! offending SQL span — the front-end never panics on arbitrary input.
//!
//! Module map:
//!
//! * [`lexer`] — span-carrying tokens; unknown input is a typed error.
//! * [`ast`] — the statement / query / expression trees, all spanned.
//! * [`parser`] — recursive descent from tokens to [`ast::Statement`]s.
//! * [`lower`] — name resolution + lowering to `idivm-algebra` plans,
//!   including inline view expansion and earliest-binding predicate
//!   placement (shape-preserving: the plan follows the text's written
//!   order, so a view's plan, and its access counts, change only when
//!   its text does).
//! * [`frontend`] — applies statements to a [`idivm_sched::ViewCatalog`]
//!   or [`idivm_sched::MaintenanceScheduler`] (`register_sql` with
//!   `IF NOT EXISTS`, `DROP`, `EXPLAIN MAINTENANCE`), and lowers one
//!   view's text to a plan without a catalog (`plan_sql`, how
//!   `idivm-workloads` derives every bundled view's plan).
//! * [`explain`] — the `EXPLAIN MAINTENANCE` text renderer: operator
//!   tree, per-base-table i-diff schemas with the C_op/NC split, the
//!   generated ∆-script, and (when a traced round has run) per-operator
//!   trace attribution.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ast;
pub mod explain;
pub mod frontend;
pub mod lexer;
pub mod lower;
pub mod parser;

pub use ast::{Query, Statement};
pub use explain::explain_view;
pub use frontend::{execute, explain, plan_sql, register_sql, Outcome};
pub use lower::lower_query;
pub use parser::parse;
