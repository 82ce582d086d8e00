//! View materialization and the recomputation oracle.
//!
//! A materialized view is an ordinary [`Table`](idivm_reldb::Table) whose
//! primary key is the view's inferred ID set (paper Section 2: "the set
//! Ī of ID attributes of a view V forms a key of that view"). Both IVM
//! engines and the tests use [`recompute_rows`] as ground truth.

use crate::executor::{evaluate, execute, PathHook};
use crate::memo::{Kept, SubplanMemo, Use};
use idivm_algebra::{infer_ids, Plan};
use idivm_reldb::Database;
use idivm_types::{Column, ColumnType, Error, Result, Row, Schema};

/// Derive the storage schema for a view from its plan: column names are
/// the plan's output names, the primary key is the inferred ID set.
/// Column types are taken from base-table provenance where available
/// (synthesized columns — aggregates, function results — default to
/// `Float`, which is only documentation: execution is dynamically
/// typed).
///
/// # Errors
/// Fails if IDs cannot be inferred (run
/// [`ensure_ids`](idivm_algebra::ensure_ids) first).
pub fn view_schema(db: &Database, plan: &Plan) -> Result<Schema> {
    let ids = infer_ids(plan)?;
    let cols = plan.output_cols();
    let columns: Vec<Column> = cols
        .iter()
        .zip(plan.base_cols())
        .map(|(c, base)| {
            let ty = base.and_then(|(_, t, i)| Some(db.table(t).ok()?.schema().columns()[i].ty));
            Column::new(&c.name, ty.unwrap_or(ColumnType::Float))
        })
        .collect();
    let key_names: Vec<&str> = ids.iter().map(|&i| cols[i].name.as_str()).collect();
    Schema::new(columns, &key_names)
}

/// Recompute the view's rows from scratch (the oracle).
///
/// # Errors
/// Unknown tables or malformed plans.
pub fn recompute_rows(db: &Database, plan: &Plan) -> Result<Vec<Row>> {
    execute(db, plan)
}

/// Create table `name` with the view's schema and fill it with the
/// current result of `plan`.
///
/// # Errors
/// Name collision, inference failure, or duplicate IDs in the result
/// (which indicates the plan's ID set is not actually a key — a bug in
/// the view definition).
pub fn materialize_view(db: &mut Database, name: &str, plan: &Plan) -> Result<()> {
    materialize_nodes(db, plan, &[(&[], name)], None)
}

/// Evaluate `plan` once and materialize, like [`materialize_view`], the
/// node at each `(path, name)` as table `name` — a view and the caches
/// under it in one pass. Tables are created in the order given.
///
/// With a `memo`, join subtrees it holds rows of are read from it, and
/// the rows of join subtrees that plans materialized through it earlier
/// also hold are kept in it (see [`SubplanMemo`]).
///
/// # Errors
/// As [`materialize_view`], and [`Error::Plan`] for a path that names
/// no node.
pub fn materialize_nodes(
    db: &mut Database,
    plan: &Plan,
    tables: &[(&[usize], &str)],
    memo: Option<&mut SubplanMemo>,
) -> Result<()> {
    let mut schemas = Vec::with_capacity(tables.len());
    for (path, _) in tables {
        let node = plan
            .node(path)
            .ok_or_else(|| Error::Plan(format!("invalid plan path {path:?}")))?;
        schemas.push(view_schema(db, node)?);
    }
    let uses = match memo.as_deref() {
        Some(memo) => {
            let listed: Vec<&[usize]> = tables.iter().map(|&(path, _)| path).collect();
            memo.uses(db, plan, &listed)?
        }
        None => Vec::new(),
    };
    let mut keep = Keep {
        db,
        rows: tables.iter().map(|&(path, _)| (path, None)).collect(),
        memo: uses,
        fresh: Vec::new(),
        claims: 0,
    };
    let root = evaluate(db, plan, &[], &mut keep)?;
    let Keep {
        rows,
        fresh,
        claims,
        ..
    } = keep;
    if let Some(memo) = memo {
        memo.record(plan, fresh, claims);
    }
    let mut root = Some(root);
    for (((path, name), schema), (_, kept)) in tables.iter().zip(schemas).zip(rows) {
        let rows = if path.is_empty() { root.take() } else { kept };
        let rows =
            rows.ok_or_else(|| Error::Plan(format!("`{name}`: the root is listed twice")))?;
        db.create_table(name, schema)?;
        load(db, name, rows).map_err(|e| match e {
            Error::DuplicateKey(m) => Error::Plan(format!(
                "view `{name}`: inferred IDs are not a key of the result ({m})"
            )),
            other => other,
        })?;
    }
    Ok(())
}

/// The [`PathHook`] of [`materialize_nodes`]: keeps the rows of each
/// listed node below the root (the root's are the evaluation's result),
/// and claims and keeps what the memo says.
struct Keep<'d, 'p, 'm> {
    db: &'d Database,
    rows: Vec<(&'p [usize], Option<Vec<Row>>)>,
    memo: Vec<(Vec<usize>, Use<'m>)>,
    /// Rows kept for the memo.
    fresh: Vec<Kept>,
    /// Nodes read from the memo.
    claims: usize,
}

impl<'m> Keep<'_, '_, 'm> {
    fn memo_use(&self, path: &[usize]) -> Option<&Use<'m>> {
        self.memo.iter().find(|(p, _)| p == path).map(|(_, u)| u)
    }

    /// Hand a listed node below the root its rows.
    fn fill(&mut self, path: &[usize], rows: &[Row]) {
        for (p, kept) in &mut self.rows {
            if *p == path && !path.is_empty() {
                *kept = Some(rows.to_vec());
            }
        }
    }
}

impl PathHook for Keep<'_, '_, '_> {
    fn claim(&mut self, path: &[usize], _node: &Plan) -> Result<Option<Vec<Row>>> {
        let Some(&Use::Claim(entry)) = self.memo_use(path) else {
            return Ok(None);
        };
        let rows = entry.claim(self.db)?;
        self.claims += 1;
        // A claimed node is not evaluated, so not kept: fill it here.
        // No listed node lies below it (`SubplanMemo::uses`).
        self.fill(path, &rows);
        Ok(Some(rows))
    }

    fn wants(&self, path: &[usize]) -> bool {
        (!path.is_empty() && self.rows.iter().any(|(p, _)| *p == path))
            || matches!(self.memo_use(path), Some(Use::Keep(_)))
    }

    fn keep(&mut self, path: &[usize], rows: &[Row]) {
        self.fill(path, rows);
        if let Some(Use::Keep(stamps)) = self.memo_use(path) {
            let kept = Kept {
                path: path.to_vec(),
                stamps: stamps.clone(),
                rows: rows.to_vec(),
            };
            self.fresh.push(kept);
        }
    }
}

/// Bulk-load `rows` into table `name`.
fn load(db: &mut Database, name: &str, rows: Vec<Row>) -> Result<()> {
    let table = db.table_mut(name)?;
    table.reserve(rows.len());
    rows.into_iter().try_for_each(|r| table.load(r))
}

/// Re-fill an existing materialized view from scratch (full refresh —
/// the non-incremental alternative the paper's IVM competes with).
///
/// # Errors
/// Unknown view or evaluation failure.
pub fn refresh_view(db: &mut Database, name: &str, plan: &Plan) -> Result<()> {
    let rows = execute(db, plan)?;
    db.table_mut(name)?.clear();
    load(db, name, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DbCatalog;
    use idivm_algebra::{AggFunc, PlanBuilder};
    use idivm_types::{row, Key, Value};

    fn setup() -> Database {
        let mut db = Database::new();
        db.set_logging(false);
        db.create_table(
            "parts",
            Schema::from_pairs(
                &[("pid", ColumnType::Str), ("price", ColumnType::Int)],
                &["pid"],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            "devices_parts",
            Schema::from_pairs(
                &[("did", ColumnType::Str), ("pid", ColumnType::Str)],
                &["did", "pid"],
            )
            .unwrap(),
        )
        .unwrap();
        db.insert("parts", row!["P1", 10]).unwrap();
        db.insert("parts", row!["P2", 20]).unwrap();
        db.insert("devices_parts", row!["D1", "P1"]).unwrap();
        db.insert("devices_parts", row!["D1", "P2"]).unwrap();
        db
    }

    #[test]
    fn materialized_view_is_keyed_by_ids() {
        let mut db = setup();
        let cat = DbCatalog(&db);
        let plan = PlanBuilder::scan(&cat, "devices_parts")
            .unwrap()
            .group_by(&["devices_parts.did"], &[(AggFunc::Count, "*", "n")])
            .unwrap()
            .build()
            .unwrap();
        materialize_view(&mut db, "v", &plan).unwrap();
        let v = db.table("v").unwrap();
        assert_eq!(v.schema().key_names(), vec!["devices_parts.did"]);
        assert_eq!(
            v.get_uncounted(&Key(vec![Value::str("D1")])).unwrap(),
            &row!["D1", 2]
        );
    }

    #[test]
    fn view_schema_types_follow_provenance() {
        let db = setup();
        let cat = DbCatalog(&db);
        let plan = PlanBuilder::scan(&cat, "parts").unwrap().build().unwrap();
        let schema = view_schema(&db, &plan).unwrap();
        assert_eq!(schema.columns()[0].ty, ColumnType::Str);
        assert_eq!(schema.columns()[1].ty, ColumnType::Int);
    }

    #[test]
    fn refresh_view_tracks_base_changes() {
        let mut db = setup();
        let cat = DbCatalog(&db);
        let plan = PlanBuilder::scan(&cat, "parts").unwrap().build().unwrap();
        materialize_view(&mut db, "v", &plan).unwrap();
        db.insert("parts", row!["P3", 30]).unwrap();
        refresh_view(&mut db, "v", &plan).unwrap();
        assert_eq!(db.table("v").unwrap().len(), 3);
    }

    #[test]
    fn duplicate_view_name_rejected() {
        let mut db = setup();
        let cat = DbCatalog(&db);
        let plan = PlanBuilder::scan(&cat, "parts").unwrap().build().unwrap();
        materialize_view(&mut db, "v", &plan).unwrap();
        assert!(materialize_view(&mut db, "v", &plan).is_err());
    }
}
