//! The SQL abstract syntax trees. Every name-bearing node carries its
//! byte span so lowering errors can point at the offending SQL text.

use idivm_algebra::JoinKind;

/// A byte span in the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub start: usize,
    pub end: usize,
}

impl Span {
    /// Render against the source (`` `text` at bytes a..b ``).
    pub fn render(&self, src: &str) -> String {
        crate::lexer::span(src, self.start, self.end)
    }
}

/// One parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE MATERIALIZED VIEW [IF NOT EXISTS] name AS query`.
    CreateView {
        name: String,
        name_span: Span,
        if_not_exists: bool,
        query: Box<Query>,
    },
    /// `DROP MATERIALIZED VIEW [IF EXISTS] name`.
    DropView {
        name: String,
        name_span: Span,
        if_exists: bool,
    },
    /// `EXPLAIN MAINTENANCE name`.
    ExplainMaintenance { name: String, name_span: Span },
}

/// A `SELECT` query (possibly with `WITH` helpers and a `UNION ALL`
/// tail).
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `WITH name AS (…)` helpers, in written order.
    pub with: Vec<Helper>,
    /// The select list; `None` means `SELECT *`.
    pub select: Option<Vec<SelectItem>>,
    /// First `FROM` item.
    pub from: FromItem,
    /// `JOIN` / `LEFT OUTER JOIN` clauses, in order.
    pub joins: Vec<JoinClause>,
    /// `WHERE` predicate.
    pub where_pred: Option<SqlExpr>,
    /// `GROUP BY` key columns, in order.
    pub group_by: Vec<ColumnRef>,
    /// `UNION ALL` continuation.
    pub union_all: Option<Box<Query>>,
}

/// One `WITH` helper: a named query visible to the later helpers and
/// to its statement's body, never registered.
#[derive(Debug, Clone, PartialEq)]
pub struct Helper {
    pub name: String,
    pub name_span: Span,
    pub query: Query,
}

/// One item of an explicit select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// A (possibly qualified) column, optionally renamed with `AS`.
    Column {
        col: ColumnRef,
        alias: Option<String>,
    },
    /// An aggregate call — only legal together with `GROUP BY`, and it
    /// must carry an `AS` output name.
    Aggregate {
        func: AggCall,
        alias: String,
        span: Span,
    },
}

/// An aggregate function call.
#[derive(Debug, Clone, PartialEq)]
pub enum AggCall {
    /// `COUNT(*)`.
    CountStar,
    /// `COUNT(col) | SUM(col) | MIN(col) | MAX(col) | AVG(col)`.
    OnColumn { func: String, col: ColumnRef },
}

/// A table (or registered view) reference in `FROM`/`JOIN`.
#[derive(Debug, Clone, PartialEq)]
pub struct FromItem {
    /// Table or view name as written.
    pub table: String,
    /// Alias (`FROM t a` / `FROM t AS a`); defaults to the table name.
    pub alias: String,
    pub span: Span,
}

/// One `JOIN … ON …` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// `Inner` or `LeftOuter`.
    pub kind: JoinKind,
    pub item: FromItem,
    pub on: SqlExpr,
    pub span: Span,
}

/// A possibly-qualified column reference.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnRef {
    /// Qualifier (`alias.` prefix), if written.
    pub qualifier: Option<String>,
    pub column: String,
    pub span: Span,
}

impl ColumnRef {
    /// The qualified display form (`alias.col` or `col`).
    pub fn display(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}.{}", self.column),
            None => self.column.clone(),
        }
    }
}

/// Comparison operators of the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlCmp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// A scalar predicate / expression.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    Column(ColumnRef),
    IntLit(i64, Span),
    StrLit(String, Span),
    Cmp {
        op: SqlCmp,
        left: Box<SqlExpr>,
        right: Box<SqlExpr>,
        span: Span,
    },
    And(Vec<SqlExpr>),
    Or(Box<SqlExpr>, Box<SqlExpr>, Span),
    Not(Box<SqlExpr>, Span),
    /// `[NOT] EXISTS (subquery)` — lowered to a semi/anti join.
    Exists {
        negated: bool,
        query: Box<Query>,
        span: Span,
    },
}

impl SqlExpr {
    /// Split a predicate into its top-level conjuncts.
    pub fn conjuncts(self) -> Vec<SqlExpr> {
        match self {
            SqlExpr::And(parts) => parts
                .into_iter()
                .flat_map(SqlExpr::conjuncts)
                .collect(),
            other => vec![other],
        }
    }

    /// The overall span of the expression (best effort).
    pub fn span(&self) -> Span {
        match self {
            SqlExpr::Column(c) => c.span,
            SqlExpr::IntLit(_, s) | SqlExpr::StrLit(_, s) => *s,
            SqlExpr::Cmp { span, .. }
            | SqlExpr::Or(_, _, span)
            | SqlExpr::Not(_, span)
            | SqlExpr::Exists { span, .. } => *span,
            SqlExpr::And(parts) => {
                let start = parts.first().map_or(0, |p| p.span().start);
                let end = parts.last().map_or(0, |p| p.span().end);
                Span { start, end }
            }
        }
    }
}
