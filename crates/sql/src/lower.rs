//! Name resolution and lowering from [`Query`] ASTs to
//! [`idivm_algebra::Plan`]s.
//!
//! The SQL text is a view's one definition, and the lowering is
//! deliberately *shape-preserving*: the plan mirrors the text, so it
//! (and with it every access count) changes only when the text does.
//! The bundled workload views' plans are pinned by digest in
//! `tests/sql_frontend.rs`.
//!
//! * The `FROM`/`JOIN` list folds left-deep, in written order.
//! * `WHERE` is split into top-level conjuncts; each conjunct attaches
//!   at the **earliest** left-deep step where every referenced column is
//!   in scope, and conjuncts landing at the same step combine with
//!   [`Expr::and`] into ONE `Select` node.
//! * `SELECT *` emits no `Project`; an explicit column list emits one
//!   `Project`; `GROUP BY` lowers straight to the builder's `group_by`,
//!   plus one renaming `Project` only when a group key is aliased.
//! * `WHERE [NOT] EXISTS (…)` becomes a semi/anti join applied after
//!   the inner joins, with correlated equality conjuncts as join keys.
//! * A `FROM` item naming a registered view inlines the view's defining
//!   plan under a renaming projection (`alias.short_name`), so shared
//!   subtrees stay visible to prefix detection.
//! * `WITH name AS (…)` helpers lower in order, each against the base
//!   tables, the registered views and the earlier helpers, and a `FROM`
//!   item naming one inlines it exactly like a registered view. Helpers
//!   belong to their statement and are never registered.

use crate::ast::{
    AggCall, ColumnRef, FromItem, Query, SelectItem, Span, SqlCmp, SqlExpr,
};
use idivm_algebra::builder::SchemaSource;
use idivm_algebra::{AggFunc, Expr, JoinKind, Plan, PlanBuilder, PlanCol};
use idivm_types::{Error, Result};
use std::collections::HashMap;

/// Lower a parsed query against base-table schemas (`tables`) and the
/// already-registered views (`views`, name → defining plan).
///
/// # Errors
/// [`Error::Unsupported`] naming the offending SQL span for anything
/// the subset cannot express, including a `WITH` helper whose name is
/// already a base table, a registered view or an earlier helper.
pub fn lower_query<S: SchemaSource>(
    src: &str,
    query: &Query,
    tables: &S,
    views: &HashMap<String, Plan>,
) -> Result<Plan> {
    if query.with.is_empty() {
        return lower_union(src, query, tables, views);
    }
    let mut scope = views.clone();
    for helper in &query.with {
        let clash = if views.contains_key(&helper.name) {
            Some("a registered view")
        } else if scope.contains_key(&helper.name) {
            Some("an earlier helper")
        } else if tables.schema(&helper.name).is_ok() {
            Some("a base table")
        } else {
            None
        };
        if let Some(what) = clash {
            return Err(unsup(
                &format!("helper `{}` shadows {what}", helper.name),
                src,
                helper.name_span,
            ));
        }
        let plan = lower_query(src, &helper.query, tables, &scope)?;
        scope.insert(helper.name.clone(), plan);
    }
    lower_union(src, query, tables, &scope)
}

/// Lower a `SELECT` block and its `UNION ALL` tail.
fn lower_union<S: SchemaSource>(
    src: &str,
    query: &Query,
    tables: &S,
    views: &HashMap<String, Plan>,
) -> Result<Plan> {
    let mut plan = lower_single(src, query, tables, views)?;
    if let Some(tail) = &query.union_all {
        no_helpers(src, tail, "a UNION ALL branch")?;
        let right = lower_union(src, tail, tables, views)?;
        plan = PlanBuilder::from_plan(plan)
            .union_all(PlanBuilder::from_plan(right))
            .plan()
            .clone();
    }
    Ok(plan)
}

/// `WITH` precedes a statement's (or a helper's) `SELECT` only.
fn no_helpers(src: &str, query: &Query, place: &str) -> Result<()> {
    match query.with.first() {
        Some(helper) => Err(unsup(
            &format!("WITH is not supported inside {place}"),
            src,
            helper.name_span,
        )),
        None => Ok(()),
    }
}

fn unsup(what: &str, src: &str, span: Span) -> Error {
    Error::Unsupported(format!("{what} ({})", span.render(src)))
}

/// Lower one `SELECT` block (no `UNION ALL` tail).
fn lower_single<S: SchemaSource>(
    src: &str,
    query: &Query,
    tables: &S,
    views: &HashMap<String, Plan>,
) -> Result<Plan> {
    // -- scans ------------------------------------------------------
    let items: Vec<&FromItem> = std::iter::once(&query.from)
        .chain(query.joins.iter().map(|j| &j.item))
        .collect();
    for (i, a) in items.iter().enumerate() {
        for b in &items[..i] {
            if a.alias == b.alias {
                return Err(unsup(
                    &format!("duplicate table alias `{}`", a.alias),
                    src,
                    a.span,
                ));
            }
        }
    }
    let scans: Vec<Plan> = items
        .iter()
        .map(|it| scan_item(src, it, tables, views))
        .collect::<Result<_>>()?;

    // Full scope: the left-deep join concatenates scan columns in
    // order, so the final scope is the per-step concatenation.
    let mut scope: Vec<(String, usize)> = Vec::new();
    for (step, scan) in scans.iter().enumerate() {
        for c in scan.output_cols() {
            scope.push((c.name, step));
        }
    }

    // -- WHERE conjunct placement -----------------------------------
    let mut step_preds: Vec<Vec<SqlExpr>> = vec![Vec::new(); scans.len()];
    let mut exists_preds: Vec<SqlExpr> = Vec::new();
    if let Some(pred) = query.where_pred.clone() {
        for conjunct in pred.conjuncts() {
            if matches!(conjunct, SqlExpr::Exists { .. }) {
                exists_preds.push(conjunct);
                continue;
            }
            let step = conjunct_step(src, &conjunct, &scope)?;
            step_preds[step].push(conjunct);
        }
    }

    // -- left-deep fold with earliest-binding selects ---------------
    let mut scans_iter = scans.into_iter();
    let first = scans_iter.next().ok_or_else(|| {
        Error::Unsupported("query has no FROM item".to_string())
    })?;
    let mut builder = PlanBuilder::from_plan(first);
    builder = apply_step_preds(src, builder, &scope, &step_preds[0])?;
    for (idx, (join, scan)) in query.joins.iter().zip(scans_iter).enumerate() {
        let step = idx + 1;
        let pairs = join_on_pairs(src, &join.on, builder.plan(), &scan)?;
        let on: Vec<(&str, &str)> = pairs
            .iter()
            .map(|(l, r)| (l.as_str(), r.as_str()))
            .collect();
        let right = PlanBuilder::from_plan(scan);
        builder = builder.join_kind(join.kind, right, &on, None)?;
        builder = apply_step_preds(src, builder, &scope, &step_preds[step])?;
    }

    // -- EXISTS → semi/anti joins -----------------------------------
    for pred in exists_preds {
        builder = lower_exists(src, builder, &pred, tables, views)?;
    }

    // -- SELECT list / GROUP BY -------------------------------------
    builder = lower_select_list(src, builder, query, &scope)?;
    Ok(builder.plan().clone())
}

/// Build the scan (or inline view expansion) for one `FROM` item.
///
/// Registered views shadow base tables: registration materializes a
/// backing table under the view name, so the view map is consulted
/// first and the defining plan — not the materialized table — is
/// inlined. The inline plan is wrapped in a renaming projection
/// (`alias.short`) so downstream name resolution treats the view like
/// a base table while the shared subtree below stays intact for
/// prefix detection.
fn scan_item<S: SchemaSource>(
    src: &str,
    item: &FromItem,
    tables: &S,
    views: &HashMap<String, Plan>,
) -> Result<Plan> {
    if let Some(view_plan) = views.get(&item.table) {
        let cols = view_plan.output_cols();
        let mut renamed: Vec<(String, Expr)> = Vec::with_capacity(cols.len());
        for (i, c) in cols.iter().enumerate() {
            let short = c.name.rsplit('.').next().unwrap_or(&c.name);
            let name = format!("{}.{short}", item.alias);
            if renamed.iter().any(|(n, _)| n == &name) {
                return Err(unsup(
                    &format!(
                        "view `{}` has colliding short column name `{short}`; \
                         cannot be referenced from SQL",
                        item.table
                    ),
                    src,
                    item.span,
                ));
            }
            renamed.push((name, Expr::Col(i)));
        }
        return Ok(PlanBuilder::from_plan(view_plan.clone())
            .project(renamed)
            .plan()
            .clone());
    }
    match PlanBuilder::scan_as(tables, &item.table, &item.alias) {
        Ok(b) => Ok(b.plan().clone()),
        Err(_) => Err(unsup(
            &format!("unknown table or view `{}`", item.table),
            src,
            item.span,
        )),
    }
}

/// Resolve a column reference against a scope of qualified names.
/// Qualified refs match exactly; bare refs match by unique suffix.
fn resolve_in<'a>(
    src: &str,
    c: &ColumnRef,
    names: impl Iterator<Item = &'a str>,
) -> Result<String> {
    if let Some(q) = &c.qualifier {
        let want = format!("{q}.{}", c.column);
        for n in names {
            if n == want {
                return Ok(want);
            }
        }
        return Err(unsup(
            &format!("unknown column `{want}`"),
            src,
            c.span,
        ));
    }
    let mut matches: Vec<&str> = Vec::new();
    let suffix = format!(".{}", c.column);
    for n in names {
        if n == c.column || n.ends_with(&suffix) {
            matches.push(n);
        }
    }
    match matches.len() {
        1 => Ok(matches[0].to_string()),
        0 => Err(unsup(
            &format!("unknown column `{}`", c.column),
            src,
            c.span,
        )),
        _ => Err(unsup(
            &format!(
                "ambiguous column `{}` (matches {matches:?})",
                c.column
            ),
            src,
            c.span,
        )),
    }
}

fn resolve_in_scope(src: &str, c: &ColumnRef, scope: &[(String, usize)]) -> Result<String> {
    resolve_in(src, c, scope.iter().map(|(n, _)| n.as_str()))
}

/// The earliest left-deep step at which every column of `conjunct` is
/// in scope (= max owning step over its references).
fn conjunct_step(src: &str, conjunct: &SqlExpr, scope: &[(String, usize)]) -> Result<usize> {
    let mut step = 0;
    let mut stack = vec![conjunct];
    while let Some(e) = stack.pop() {
        match e {
            SqlExpr::Column(c) => {
                let name = resolve_in_scope(src, c, scope)?;
                if let Some((_, s)) = scope.iter().find(|(n, _)| n == &name) {
                    step = step.max(*s);
                }
            }
            SqlExpr::Cmp { left, right, .. } => {
                stack.push(left);
                stack.push(right);
            }
            SqlExpr::And(parts) => stack.extend(parts.iter()),
            SqlExpr::Or(l, r, _) => {
                stack.push(l);
                stack.push(r);
            }
            SqlExpr::Not(inner, _) => stack.push(inner),
            SqlExpr::Exists { span, .. } => {
                return Err(unsup(
                    "EXISTS is only supported as a top-level WHERE conjunct",
                    src,
                    *span,
                ));
            }
            SqlExpr::IntLit(..) | SqlExpr::StrLit(..) => {}
        }
    }
    Ok(step)
}

/// Lower `preds` and combine them with [`Expr::and`], which flattens to
/// one `And` list — the same shape the builders produce. `None` when
/// `preds` is empty.
fn lower_and(
    src: &str,
    preds: &[SqlExpr],
    plan: &Plan,
    scope: &[(String, usize)],
) -> Result<Option<Expr>> {
    let mut combined: Option<Expr> = None;
    for p in preds {
        let e = lower_scalar(src, p, plan, scope)?;
        combined = Some(match combined {
            None => e,
            Some(prev) => prev.and(e),
        });
    }
    Ok(combined)
}

/// Put the conjuncts assigned to one step into a single `Select`.
fn apply_step_preds(
    src: &str,
    builder: PlanBuilder,
    scope: &[(String, usize)],
    preds: &[SqlExpr],
) -> Result<PlanBuilder> {
    Ok(match lower_and(src, preds, builder.plan(), scope)? {
        Some(e) => builder.select(e),
        None => builder,
    })
}

/// Lower a scalar predicate/expression against `plan`'s output schema.
/// Bare column names resolve via the full-query `scope` first (for a
/// deterministic unique-suffix rule), then positionally against `plan`.
fn lower_scalar(
    src: &str,
    e: &SqlExpr,
    plan: &Plan,
    scope: &[(String, usize)],
) -> Result<Expr> {
    match e {
        SqlExpr::Column(c) => {
            let name = resolve_in_scope(src, c, scope)?;
            let pos = plan.col(&name).map_err(|_| {
                unsup(
                    &format!("column `{name}` is not in scope here"),
                    src,
                    c.span,
                )
            })?;
            Ok(Expr::Col(pos))
        }
        SqlExpr::IntLit(n, _) => Ok(Expr::lit(*n)),
        SqlExpr::StrLit(s, _) => Ok(Expr::lit(s.as_str())),
        SqlExpr::Cmp {
            op, left, right, ..
        } => {
            let l = lower_scalar(src, left, plan, scope)?;
            let r = lower_scalar(src, right, plan, scope)?;
            Ok(match op {
                SqlCmp::Eq => l.eq(r),
                SqlCmp::Ne => l.ne(r),
                SqlCmp::Lt => l.lt(r),
                SqlCmp::Le => l.le(r),
                SqlCmp::Gt => l.gt(r),
                SqlCmp::Ge => l.ge(r),
            })
        }
        SqlExpr::And(parts) => lower_and(src, parts, plan, scope)?
            .ok_or_else(|| Error::Unsupported("empty AND".to_string())),
        SqlExpr::Or(l, r, _) => {
            let le = lower_scalar(src, l, plan, scope)?;
            let re = lower_scalar(src, r, plan, scope)?;
            Ok(le.or(re))
        }
        SqlExpr::Not(inner, _) => Ok(lower_scalar(src, inner, plan, scope)?.negate()),
        SqlExpr::Exists { span, .. } => Err(unsup(
            "EXISTS is only supported as a top-level WHERE conjunct",
            src,
            *span,
        )),
    }
}

/// Extract equi-join pairs from an `ON` predicate: a conjunction of
/// `left_col = right_col` equalities, one side already in the left
/// scope and the other from the newly joined item, kept in written
/// order (so the on-pair order follows the text).
fn join_on_pairs(
    src: &str,
    on: &SqlExpr,
    left: &Plan,
    right: &Plan,
) -> Result<Vec<(String, String)>> {
    let left_cols = left.output_cols();
    let right_cols = right.output_cols();
    let mut pairs = Vec::new();
    for conjunct in on.clone().conjuncts() {
        let SqlExpr::Cmp {
            op: SqlCmp::Eq,
            left: a,
            right: b,
            span,
        } = conjunct
        else {
            return Err(unsup(
                "ON clauses must be conjunctions of column equalities",
                src,
                conjunct.span(),
            ));
        };
        let (SqlExpr::Column(ca), SqlExpr::Column(cb)) = (a.as_ref(), b.as_ref()) else {
            return Err(unsup(
                "ON equalities must compare two columns",
                src,
                span,
            ));
        };
        let side = |c: &ColumnRef| -> (Option<String>, Option<String>) {
            let in_left = resolve_in(src, c, left_cols.iter().map(|x| x.name.as_str())).ok();
            let in_right = resolve_in(src, c, right_cols.iter().map(|x| x.name.as_str())).ok();
            (in_left, in_right)
        };
        let (a_l, a_r) = side(ca);
        let (b_l, b_r) = side(cb);
        let pair = match (a_l, a_r, b_l, b_r) {
            // written `left = right`
            (Some(l), _, _, Some(r)) => (l, r),
            // written `right = left`: orient left-first like the builders
            (_, Some(r), Some(l), _) => (l, r),
            _ => {
                return Err(unsup(
                    "each ON equality must reference one column from each side",
                    src,
                    span,
                ));
            }
        };
        pairs.push(pair);
    }
    if pairs.is_empty() {
        return Err(unsup("empty ON clause", src, on.span()));
    }
    Ok(pairs)
}

/// Lower one `[NOT] EXISTS (subquery)` conjunct to a semi/anti join.
fn lower_exists<S: SchemaSource>(
    src: &str,
    builder: PlanBuilder,
    pred: &SqlExpr,
    tables: &S,
    views: &HashMap<String, Plan>,
) -> Result<PlanBuilder> {
    let SqlExpr::Exists {
        negated,
        query,
        span,
    } = pred
    else {
        return Err(Error::Unsupported("not an EXISTS predicate".to_string()));
    };
    no_helpers(src, query, "EXISTS")?;
    if !query.joins.is_empty() || !query.group_by.is_empty() || query.union_all.is_some() {
        return Err(unsup(
            "EXISTS subqueries must be a single-table SELECT",
            src,
            *span,
        ));
    }
    let inner = scan_item(src, &query.from, tables, views)?;
    let inner_cols = inner.output_cols();
    let outer_cols = builder.plan().output_cols();
    let inner_scope: Vec<(String, usize)> = inner_cols
        .iter()
        .map(|c| (c.name.clone(), 0))
        .collect();

    let mut on_pairs: Vec<(String, String)> = Vec::new();
    let mut inner_preds: Vec<SqlExpr> = Vec::new();
    if let Some(pred) = query.where_pred.clone() {
        for conjunct in pred.conjuncts() {
            if let Some(pair) =
                correlation_pair(src, &conjunct, &outer_cols, &inner_cols)?
            {
                on_pairs.push(pair);
            } else {
                inner_preds.push(conjunct);
            }
        }
    }
    if on_pairs.is_empty() {
        return Err(unsup(
            "EXISTS subqueries must correlate on at least one outer = inner equality",
            src,
            *span,
        ));
    }
    let inner_builder = PlanBuilder::from_plan(inner);
    let inner_builder = apply_step_preds(src, inner_builder, &inner_scope, &inner_preds)?;
    let on: Vec<(&str, &str)> = on_pairs
        .iter()
        .map(|(l, r)| (l.as_str(), r.as_str()))
        .collect();
    let kind = if *negated {
        JoinKind::Anti
    } else {
        JoinKind::Semi
    };
    builder.join_kind(kind, inner_builder, &on, None)
}

/// If `conjunct` is an `outer = inner` column equality, return the
/// `(outer, inner)` pair; if it resolves fully inner, return `None`
/// (it becomes an inner select); anything else is unsupported.
fn correlation_pair(
    src: &str,
    conjunct: &SqlExpr,
    outer_cols: &[PlanCol],
    inner_cols: &[PlanCol],
) -> Result<Option<(String, String)>> {
    let SqlExpr::Cmp {
        op: SqlCmp::Eq,
        left,
        right,
        ..
    } = conjunct
    else {
        return Ok(None); // non-equality: must be inner-only, checked later
    };
    let (SqlExpr::Column(ca), SqlExpr::Column(cb)) = (left.as_ref(), right.as_ref()) else {
        return Ok(None);
    };
    let resolve = |c: &ColumnRef, cols: &[PlanCol]| -> Option<String> {
        resolve_in(src, c, cols.iter().map(|x| x.name.as_str())).ok()
    };
    // Prefer inner resolution (subquery scope shadows the outer query).
    let a_inner = resolve(ca, inner_cols);
    let b_inner = resolve(cb, inner_cols);
    match (a_inner, b_inner) {
        (Some(_), Some(_)) | (None, None) => Ok(None),
        (None, Some(i)) => match resolve(ca, outer_cols) {
            Some(o) => Ok(Some((o, i))),
            None => Err(unsup(
                &format!("unknown column `{}`", ca.display()),
                src,
                ca.span,
            )),
        },
        (Some(i), None) => match resolve(cb, outer_cols) {
            Some(o) => Ok(Some((o, i))),
            None => Err(unsup(
                &format!("unknown column `{}`", cb.display()),
                src,
                cb.span,
            )),
        },
    }
}

/// Lower the select list: `SELECT *` is a no-op, a plain column list is
/// one `Project`, and `GROUP BY` lowers directly to the builder's
/// `group_by` (keys first, in order, then `AS`-named aggregates),
/// followed by one renaming `Project` when a key carries an `AS` alias.
fn lower_select_list(
    src: &str,
    builder: PlanBuilder,
    query: &Query,
    scope: &[(String, usize)],
) -> Result<PlanBuilder> {
    let Some(items) = &query.select else {
        if let Some(first) = query.group_by.first() {
            return Err(unsup(
                "GROUP BY requires an explicit select list",
                src,
                first.span,
            ));
        }
        return Ok(builder);
    };

    if query.group_by.is_empty() {
        // Plain projection; aggregates need GROUP BY.
        let mut cols: Vec<(String, Expr)> = Vec::with_capacity(items.len());
        for item in items {
            match item {
                SelectItem::Column { col, alias } => {
                    let name = resolve_in_scope(src, col, scope)?;
                    let pos = builder.pos(&name).map_err(|_| {
                        unsup(
                            &format!("column `{name}` is not in scope here"),
                            src,
                            col.span,
                        )
                    })?;
                    cols.push((alias.clone().unwrap_or(name), Expr::Col(pos)));
                }
                SelectItem::Aggregate { span, .. } => {
                    return Err(unsup(
                        "aggregates require GROUP BY",
                        src,
                        *span,
                    ));
                }
            }
        }
        return Ok(builder.project(cols));
    }

    // GROUP BY: select list = keys (in order) then aggregates.
    let keys = &query.group_by;
    if items.len() < keys.len() {
        return Err(unsup(
            "GROUP BY select list must start with the group keys",
            src,
            keys[0].span,
        ));
    }
    let mut key_names: Vec<String> = Vec::with_capacity(keys.len());
    let mut key_aliases: Vec<Option<String>> = Vec::with_capacity(keys.len());
    for (i, key) in keys.iter().enumerate() {
        let key_name = resolve_in_scope(src, key, scope)?;
        let SelectItem::Column { col, alias } = &items[i] else {
            return Err(unsup(
                "GROUP BY select list must start with the group keys",
                src,
                key.span,
            ));
        };
        let sel_name = resolve_in_scope(src, col, scope)?;
        if sel_name != key_name {
            return Err(unsup(
                &format!(
                    "select item `{}` must match group key `{key_name}` in order",
                    col.display()
                ),
                src,
                col.span,
            ));
        }
        key_names.push(key_name);
        key_aliases.push(alias.clone());
    }
    let mut aggs: Vec<(AggFunc, String, String)> = Vec::new();
    for item in &items[keys.len()..] {
        let SelectItem::Aggregate { func, alias, span } = item else {
            let span = match item {
                SelectItem::Column { col, .. } => col.span,
                SelectItem::Aggregate { span, .. } => *span,
            };
            return Err(unsup(
                "non-key select items under GROUP BY must be aggregates",
                src,
                span,
            ));
        };
        let (f, arg) = match func {
            AggCall::CountStar => (AggFunc::Count, "*".to_string()),
            AggCall::OnColumn { func, col } => {
                let f = match func.to_ascii_lowercase().as_str() {
                    "count" => AggFunc::Count,
                    "sum" => AggFunc::Sum,
                    "min" => AggFunc::Min,
                    "max" => AggFunc::Max,
                    "avg" => AggFunc::Avg,
                    other => {
                        return Err(unsup(
                            &format!("unsupported aggregate `{other}`"),
                            src,
                            *span,
                        ));
                    }
                };
                (f, resolve_in_scope(src, col, scope)?)
            }
        };
        aggs.push((f, arg, alias.clone()));
    }
    let key_refs: Vec<&str> = key_names.iter().map(String::as_str).collect();
    let agg_refs: Vec<(AggFunc, &str, &str)> = aggs
        .iter()
        .map(|(f, a, n)| (*f, a.as_str(), n.as_str()))
        .collect();
    let grouped = builder.group_by(&key_refs, &agg_refs)?;
    if key_aliases.iter().all(Option::is_none) {
        return Ok(grouped);
    }
    let renamed = grouped
        .plan()
        .output_cols()
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let name = key_aliases.get(i).cloned().flatten().unwrap_or(c.name);
            (name, Expr::Col(i))
        })
        .collect();
    Ok(grouped.project(renamed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use idivm_types::{ColumnType, Schema};

    fn schemas() -> HashMap<String, Schema> {
        let mut m = HashMap::new();
        m.insert(
            "parts".to_string(),
            Schema::from_pairs(
                &[("pid", ColumnType::Int), ("price", ColumnType::Int)],
                &["pid"],
            )
            .unwrap(),
        );
        m.insert(
            "devices".to_string(),
            Schema::from_pairs(
                &[("did", ColumnType::Int), ("category", ColumnType::Str)],
                &["did"],
            )
            .unwrap(),
        );
        m.insert(
            "devices_parts".to_string(),
            Schema::from_pairs(
                &[("did", ColumnType::Int), ("pid", ColumnType::Int)],
                &["did", "pid"],
            )
            .unwrap(),
        );
        m
    }

    fn create_query(sql: &str) -> Query {
        let stmts = parse(sql).unwrap();
        match stmts.into_iter().next().unwrap() {
            crate::ast::Statement::CreateView { query, .. } => *query,
            other => panic!("not a create: {other:?}"),
        }
    }

    fn lower(sql: &str) -> Result<Plan> {
        let q = create_query(sql);
        lower_query(sql, &q, &schemas(), &HashMap::new())
    }

    #[test]
    fn spj_matches_the_builder_shape() {
        let sql = "CREATE MATERIALIZED VIEW v AS SELECT * FROM parts \
                   JOIN devices_parts ON parts.pid = devices_parts.pid \
                   JOIN devices ON devices_parts.did = devices.did \
                   WHERE devices.category = 'phone'";
        let plan = lower(sql).unwrap();
        let t = schemas();
        let expected = PlanBuilder::scan(&t, "parts")
            .unwrap()
            .join(
                PlanBuilder::scan(&t, "devices_parts").unwrap(),
                &[("parts.pid", "devices_parts.pid")],
            )
            .unwrap()
            .join(
                PlanBuilder::scan(&t, "devices").unwrap(),
                &[("devices_parts.did", "devices.did")],
            )
            .unwrap()
            .select_eq("devices.category", "phone")
            .unwrap()
            .plan()
            .clone();
        assert_eq!(plan, expected);
    }

    #[test]
    fn conjuncts_bind_earliest_and_combine_per_step() {
        // Both parts-only conjuncts must land in ONE Select directly
        // above the parts scan, before the join.
        let sql = "CREATE MATERIALIZED VIEW v AS SELECT * FROM parts \
                   JOIN devices_parts ON parts.pid = devices_parts.pid \
                   WHERE parts.price >= 5 AND parts.price <= 10";
        let plan = lower(sql).unwrap();
        let t = schemas();
        let base = PlanBuilder::scan(&t, "parts").unwrap();
        let lo = base.col("parts.price").unwrap().ge(Expr::lit(5));
        let hi = base.col("parts.price").unwrap().le(Expr::lit(10));
        let expected = base
            .select(lo.and(hi))
            .join(
                PlanBuilder::scan(&t, "devices_parts").unwrap(),
                &[("parts.pid", "devices_parts.pid")],
            )
            .unwrap()
            .plan()
            .clone();
        assert_eq!(plan, expected);
    }

    #[test]
    fn group_by_lowers_to_builder_group_by() {
        let sql = "CREATE MATERIALIZED VIEW v AS \
                   SELECT devices_parts.did, SUM(parts.price) AS cost \
                   FROM parts JOIN devices_parts ON parts.pid = devices_parts.pid \
                   GROUP BY devices_parts.did";
        let plan = lower(sql).unwrap();
        let t = schemas();
        let expected = PlanBuilder::scan(&t, "parts")
            .unwrap()
            .join(
                PlanBuilder::scan(&t, "devices_parts").unwrap(),
                &[("parts.pid", "devices_parts.pid")],
            )
            .unwrap()
            .group_by(
                &["devices_parts.did"],
                &[(AggFunc::Sum, "parts.price", "cost")],
            )
            .unwrap()
            .plan()
            .clone();
        assert_eq!(plan, expected);
    }

    #[test]
    fn exists_lowers_to_semijoin() {
        let sql = "CREATE MATERIALIZED VIEW v AS SELECT * FROM parts WHERE EXISTS \
                   (SELECT * FROM devices_parts \
                    WHERE devices_parts.pid = parts.pid AND devices_parts.did = 7)";
        let plan = lower(sql).unwrap();
        let t = schemas();
        let inner = PlanBuilder::scan(&t, "devices_parts")
            .unwrap()
            .select_eq("devices_parts.did", 7i64)
            .unwrap();
        let expected = PlanBuilder::scan(&t, "parts")
            .unwrap()
            .semi_join(inner, &[("parts.pid", "devices_parts.pid")])
            .unwrap()
            .plan()
            .clone();
        assert_eq!(plan, expected);
    }

    #[test]
    fn view_expansion_inlines_under_a_rename() {
        let t = schemas();
        let base = PlanBuilder::scan(&t, "parts")
            .unwrap()
            .select_eq("parts.price", 5i64)
            .unwrap()
            .plan()
            .clone();
        let mut views = HashMap::new();
        views.insert("cheap_parts".to_string(), base.clone());
        let sql = "CREATE MATERIALIZED VIEW v AS SELECT cp.pid FROM cheap_parts cp";
        let q = create_query(sql);
        let plan = lower_query(sql, &q, &t, &views).unwrap();
        // The defining subtree is inlined intact beneath the rename.
        let rendered = format!("{plan:?}");
        assert!(rendered.contains("Select"), "{rendered}");
        assert!(plan.col("cp.pid").is_ok());
        // Prefix reuse requirement: the inlined subtree equals the
        // view's defining plan.
        fn find_subtree(p: &Plan, needle: &Plan) -> bool {
            if p == needle {
                return true;
            }
            p.children().iter().any(|c| find_subtree(c, needle))
        }
        assert!(find_subtree(&plan, &base));
    }

    #[test]
    fn helpers_lower_in_order_like_unregistered_views() {
        // The second helper reads the first; the body reads the second.
        let sql = "CREATE MATERIALIZED VIEW v AS \
                   WITH cheap AS (SELECT parts.pid FROM parts WHERE parts.price <= 10), \
                   used AS (SELECT cheap.pid, devices_parts.did FROM cheap \
                   JOIN devices_parts ON cheap.pid = devices_parts.pid) \
                   SELECT used.did FROM used";
        let plan = lower(sql).unwrap();
        // The same plan as registering both helpers as views first.
        let t = schemas();
        let mut views = HashMap::new();
        for (name, text) in [
            (
                "cheap",
                "CREATE MATERIALIZED VIEW cheap AS \
                 SELECT parts.pid FROM parts WHERE parts.price <= 10",
            ),
            (
                "used",
                "CREATE MATERIALIZED VIEW used AS \
                 SELECT cheap.pid, devices_parts.did FROM cheap \
                 JOIN devices_parts ON cheap.pid = devices_parts.pid",
            ),
            (
                "v",
                "CREATE MATERIALIZED VIEW v AS SELECT used.did FROM used",
            ),
        ] {
            let lowered = lower_query(text, &create_query(text), &t, &views).unwrap();
            views.insert(name.to_string(), lowered);
        }
        assert_eq!(plan, views["v"]);
    }

    #[test]
    fn helpers_are_fresh_names_before_the_top_level_select() {
        let t = schemas();
        let mut views = HashMap::new();
        let cheap = lower("CREATE MATERIALIZED VIEW cheap AS SELECT * FROM parts").unwrap();
        views.insert("cheap".to_string(), cheap);
        // (statement body, what the error says, the helper name it points at)
        for (body, want, name) in [
            (
                "WITH parts AS (SELECT * FROM devices) SELECT * FROM parts",
                "a base table",
                "parts",
            ),
            (
                "WITH cheap AS (SELECT * FROM parts) SELECT * FROM cheap",
                "a registered view",
                "cheap",
            ),
            (
                "WITH h AS (SELECT * FROM parts), h AS (SELECT * FROM devices) SELECT * FROM h",
                "an earlier helper",
                "h",
            ),
            (
                "SELECT * FROM parts WHERE EXISTS (WITH h AS (SELECT * FROM devices_parts) \
                 SELECT * FROM h WHERE h.pid = parts.pid)",
                "inside EXISTS",
                "h",
            ),
            (
                "SELECT * FROM parts UNION ALL WITH h AS (SELECT * FROM parts) SELECT * FROM h",
                "inside a UNION ALL branch",
                "h",
            ),
        ] {
            let sql = format!("CREATE MATERIALIZED VIEW v AS {body}");
            match lower_query(&sql, &create_query(&sql), &t, &views) {
                Err(Error::Unsupported(msg)) => assert!(
                    msg.contains(want) && msg.contains(&format!("`{name}` at bytes")),
                    "{body}: {msg}"
                ),
                other => panic!("{body}: expected Unsupported, got {other:?}"),
            }
        }
    }

    #[test]
    fn aliased_group_keys_rename_above_the_group_by() {
        let group = "FROM parts JOIN devices_parts ON parts.pid = devices_parts.pid \
                     GROUP BY devices_parts.did";
        let plain = lower(&format!(
            "CREATE MATERIALIZED VIEW v AS SELECT devices_parts.did, SUM(parts.price) AS cost {group}"
        ))
        .unwrap();
        let aliased = lower(&format!(
            "CREATE MATERIALIZED VIEW v AS \
             SELECT devices_parts.did AS device, SUM(parts.price) AS cost {group}"
        ))
        .unwrap();
        let Plan::Project { input, cols } = &aliased else {
            panic!("no renaming Project: {aliased:?}");
        };
        assert_eq!(**input, plain);
        assert_eq!(
            cols,
            &[
                ("device".to_string(), Expr::Col(0)),
                ("cost".to_string(), Expr::Col(1)),
            ]
        );
    }

    #[test]
    fn bad_sql_is_typed_never_panics() {
        for bad in [
            "CREATE MATERIALIZED VIEW v AS SELECT * FROM nope",
            "CREATE MATERIALIZED VIEW v AS SELECT * FROM parts p JOIN parts p ON p.pid = p.pid",
            "CREATE MATERIALIZED VIEW v AS SELECT * FROM parts WHERE zzz = 1",
            "CREATE MATERIALIZED VIEW v AS SELECT * FROM parts \
             JOIN devices ON parts.price < devices.did",
            "CREATE MATERIALIZED VIEW v AS SELECT pid FROM parts \
             JOIN devices_parts ON parts.pid = devices_parts.pid", // ambiguous `pid`
            "CREATE MATERIALIZED VIEW v AS SELECT SUM(parts.price) AS s FROM parts",
            "CREATE MATERIALIZED VIEW v AS SELECT parts.price, SUM(parts.pid) AS s \
             FROM parts GROUP BY parts.pid",
        ] {
            match lower(bad) {
                Err(Error::Unsupported(_)) => {}
                other => panic!("{bad:?}: expected Unsupported, got {other:?}"),
            }
        }
    }
}
