//! Applying parsed SQL statements to a [`ViewCatalog`] or a
//! [`MaintenanceScheduler`].
//!
//! These are free functions (not catalog methods) because `idivm-sched`
//! cannot depend on this crate. Both entry points parse a whole
//! `;`-separated script, lower each `CREATE MATERIALIZED VIEW` against
//! the catalog's database schema *and* the already-registered views
//! (so later statements can build views over earlier ones), and return
//! one [`Outcome`] per statement.

use crate::ast::Statement;
use crate::explain::explain_view;
use crate::lower::lower_query;
use crate::parser::parse;
use idivm_algebra::Plan;
use idivm_core::IvmOptions;
use idivm_exec::DbCatalog;
use idivm_reldb::Database;
use idivm_sched::{MaintenanceScheduler, RefreshPolicy, ViewCatalog};
use idivm_types::{Error, Result};
use std::collections::HashMap;

/// What one statement did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// `CREATE MATERIALIZED VIEW` registered a new view.
    Created { name: String },
    /// `CREATE MATERIALIZED VIEW IF NOT EXISTS` hit an existing view.
    SkippedExisting { name: String },
    /// `DROP MATERIALIZED VIEW` removed a view.
    Dropped { name: String },
    /// `DROP MATERIALIZED VIEW IF EXISTS` found nothing to drop.
    SkippedMissing { name: String },
    /// `EXPLAIN MAINTENANCE` rendered a report.
    Explained { name: String, text: String },
}

/// The defining plans of every registered view, for inline expansion.
fn view_plans(catalog: &ViewCatalog) -> HashMap<String, Plan> {
    let mut out = HashMap::new();
    for name in catalog.names() {
        if let Ok(view) = catalog.view(name) {
            out.insert(name.to_string(), view.source_plan().clone());
        }
    }
    out
}

/// Lower one view's `SELECT` text against `db`'s base tables, with no
/// registered views in scope: the plan a `CREATE MATERIALIZED VIEW … AS
/// {select}` would register.
///
/// # Errors
/// [`Error::Unsupported`] for SQL outside the subset, and for text that
/// is not exactly one `CREATE MATERIALIZED VIEW` once wrapped (e.g. a
/// second statement after a `;`).
pub fn plan_sql(db: &Database, select: &str) -> Result<Plan> {
    let text = format!("CREATE MATERIALIZED VIEW v AS {select}");
    match parse(&text)?.as_slice() {
        [Statement::CreateView { query, .. }] => {
            lower_query(&text, query, &DbCatalog(db), &HashMap::new())
        }
        _ => Err(Error::Unsupported(format!("`{select}` is not one SELECT"))),
    }
}

/// Run a SQL script against a bare [`ViewCatalog`].
///
/// `EXPLAIN MAINTENANCE` works here too, but without trace attribution
/// (the catalog holds no per-round reports — use [`execute`] with a
/// scheduler for that).
///
/// # Errors
/// Typed [`Error::Unsupported`](idivm_types::Error::Unsupported) for
/// SQL outside the subset; [`Error::Config`](idivm_types::Error::Config)
/// for duplicate registrations without `IF NOT EXISTS`.
pub fn register_sql(
    catalog: &mut ViewCatalog,
    sql: &str,
    options: &IvmOptions,
) -> Result<Vec<Outcome>> {
    let statements = parse(sql)?;
    let mut outcomes = Vec::with_capacity(statements.len());
    for stmt in statements {
        outcomes.push(match stmt {
            Statement::CreateView {
                name,
                if_not_exists,
                query,
                ..
            } => {
                if if_not_exists && catalog.view(&name).is_ok() {
                    Outcome::SkippedExisting { name }
                } else {
                    let views = view_plans(catalog);
                    let plan = lower_query(sql, &query, &DbCatalog(catalog.db()), &views)?;
                    catalog.register(&name, plan, *options)?;
                    Outcome::Created { name }
                }
            }
            Statement::DropView {
                name, if_exists, ..
            } => {
                if if_exists && catalog.view(&name).is_err() {
                    Outcome::SkippedMissing { name }
                } else {
                    catalog.unregister(&name)?;
                    Outcome::Dropped { name }
                }
            }
            Statement::ExplainMaintenance { name, .. } => {
                let view = catalog.view(&name)?;
                let text = explain_view(catalog.db(), view, None);
                Outcome::Explained { name, text }
            }
        });
    }
    Ok(outcomes)
}

/// Run a SQL script against a [`MaintenanceScheduler`]: views register
/// under `policy`, drops discard pending work, and `EXPLAIN
/// MAINTENANCE` includes per-operator trace attribution when the view's
/// last round ran with tracing enabled.
///
/// # Errors
/// As [`register_sql`].
pub fn execute(
    sched: &mut MaintenanceScheduler,
    sql: &str,
    policy: RefreshPolicy,
    options: &IvmOptions,
) -> Result<Vec<Outcome>> {
    let statements = parse(sql)?;
    let mut outcomes = Vec::with_capacity(statements.len());
    for stmt in statements {
        outcomes.push(match stmt {
            Statement::CreateView {
                name,
                if_not_exists,
                query,
                ..
            } => {
                if if_not_exists && sched.catalog().view(&name).is_ok() {
                    Outcome::SkippedExisting { name }
                } else {
                    let views = view_plans(sched.catalog());
                    let plan =
                        lower_query(sql, &query, &DbCatalog(sched.db()), &views)?;
                    sched.register(&name, plan, policy, *options)?;
                    Outcome::Created { name }
                }
            }
            Statement::DropView {
                name, if_exists, ..
            } => {
                if if_exists && sched.catalog().view(&name).is_err() {
                    Outcome::SkippedMissing { name }
                } else {
                    sched.unregister(&name)?;
                    Outcome::Dropped { name }
                }
            }
            Statement::ExplainMaintenance { name, .. } => {
                let text = explain(sched, &name)?;
                Outcome::Explained { name, text }
            }
        });
    }
    Ok(outcomes)
}

/// Render `EXPLAIN MAINTENANCE` for one registered view, including the
/// last traced round when one exists.
///
/// # Errors
/// Unknown view name.
pub fn explain(sched: &MaintenanceScheduler, name: &str) -> Result<String> {
    let view = sched.catalog().view(name)?;
    let trace = sched
        .stats(name)
        .ok()
        .and_then(|s| s.last_report.as_ref())
        .and_then(|r| r.trace.as_ref());
    Ok(explain_view(sched.db(), view, trace))
}
