//! Recursive-descent parser from tokens to [`Statement`]s.
//!
//! Every rejection is a typed [`Error::Unsupported`] naming the
//! offending span; the parser never panics on arbitrary input.

use crate::ast::{
    AggCall, ColumnRef, FromItem, Helper, JoinClause, Query, SelectItem, Span, SqlCmp, SqlExpr,
    Statement,
};
use crate::lexer::{tokenize, Token, TokenKind};
use idivm_algebra::JoinKind;
use idivm_types::{Error, Result};

/// Reserved words that terminate clause parsing and may not be used as
/// bare identifiers for tables, aliases, or columns.
const KEYWORDS: &[&str] = &[
    "select", "from", "where", "group", "by", "join", "left", "right", "full", "outer", "inner",
    "on", "and", "or", "not", "exists", "union", "all", "as", "create", "drop", "materialized",
    "view", "if", "explain", "maintenance", "count", "sum", "min", "max", "avg", "between",
    "order", "having", "limit", "distinct", "is", "null", "in", "like", "with",
];

/// Parse a script of `;`-separated statements.
///
/// # Errors
/// [`Error::Unsupported`] for anything outside the subset, with the
/// offending span.
pub fn parse(src: &str) -> Result<Vec<Statement>> {
    let tokens = tokenize(src)?;
    let mut p = Parser {
        src,
        tokens,
        pos: 0,
    };
    let mut out = Vec::new();
    loop {
        while p.eat_punct(&TokenKind::Semi) {}
        if p.at_end() {
            break;
        }
        out.push(p.statement()?);
        if !p.at_end() && !p.eat_punct(&TokenKind::Semi) {
            return Err(p.err_here("expected `;` between statements"));
        }
    }
    Ok(out)
}

struct Parser<'a> {
    src: &'a str,
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser<'_> {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_at(&self, off: usize) -> Option<&Token> {
        self.tokens.get(self.pos + off)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err_here(&self, what: &str) -> Error {
        match self.peek() {
            Some(t) => Error::Unsupported(format!(
                "{what}, found {}",
                crate::lexer::span(self.src, t.start, t.end)
            )),
            None => Error::Unsupported(format!("{what}, found end of input")),
        }
    }

    /// Is the current token the keyword `kw` (case-insensitive)?
    fn at_kw(&self, kw: &str) -> bool {
        self.kw_at(0, kw)
    }

    fn kw_at(&self, off: usize, kw: &str) -> bool {
        matches!(self.peek_at(off), Some(Token { kind: TokenKind::Ident(s), .. })
            if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err_here(&format!("expected `{}`", kw.to_uppercase())))
        }
    }

    fn eat_punct(&mut self, kind: &TokenKind) -> bool {
        if matches!(self.peek(), Some(t) if &t.kind == kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, kind: &TokenKind, what: &str) -> Result<Token> {
        if matches!(self.peek(), Some(t) if &t.kind == kind) {
            self.bump().ok_or_else(|| self.err_here(what))
        } else {
            Err(self.err_here(what))
        }
    }

    /// A non-keyword identifier (table, view, alias, or column name).
    fn ident(&mut self, what: &str) -> Result<(String, Span)> {
        match self.peek() {
            Some(Token {
                kind: TokenKind::Ident(s),
                start,
                end,
            }) => {
                if KEYWORDS.iter().any(|k| s.eq_ignore_ascii_case(k)) {
                    return Err(self.err_here(what));
                }
                let out = (s.clone(), Span {
                    start: *start,
                    end: *end,
                });
                self.pos += 1;
                Ok(out)
            }
            _ => Err(self.err_here(what)),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.at_kw("create") {
            return self.create_view();
        }
        if self.at_kw("drop") {
            return self.drop_view();
        }
        if self.at_kw("explain") {
            self.pos += 1;
            self.expect_kw("maintenance")?;
            let (name, name_span) = self.ident("expected a view name")?;
            return Ok(Statement::ExplainMaintenance { name, name_span });
        }
        Err(self.err_here(
            "expected `CREATE MATERIALIZED VIEW`, `DROP MATERIALIZED VIEW`, or `EXPLAIN MAINTENANCE`",
        ))
    }

    fn create_view(&mut self) -> Result<Statement> {
        self.expect_kw("create")?;
        self.expect_kw("materialized")?;
        self.expect_kw("view")?;
        let if_not_exists = if self.at_kw("if") {
            self.pos += 1;
            self.expect_kw("not")?;
            self.expect_kw("exists")?;
            true
        } else {
            false
        };
        let (name, name_span) = self.ident("expected a view name")?;
        self.expect_kw("as")?;
        let query = Box::new(self.query()?);
        Ok(Statement::CreateView {
            name,
            name_span,
            if_not_exists,
            query,
        })
    }

    fn drop_view(&mut self) -> Result<Statement> {
        self.expect_kw("drop")?;
        self.expect_kw("materialized")?;
        self.expect_kw("view")?;
        let if_exists = if self.at_kw("if") {
            self.pos += 1;
            self.expect_kw("exists")?;
            true
        } else {
            false
        };
        let (name, name_span) = self.ident("expected a view name")?;
        Ok(Statement::DropView {
            name,
            name_span,
            if_exists,
        })
    }

    /// `query := [WITH name AS (query) [, …]] SELECT …`
    fn query(&mut self) -> Result<Query> {
        let mut with = Vec::new();
        if self.eat_kw("with") {
            loop {
                let (name, name_span) = self.ident("expected a helper name")?;
                self.expect_kw("as")?;
                self.expect_punct(&TokenKind::LParen, "expected `(` before the helper query")?;
                let query = self.query()?;
                self.expect_punct(&TokenKind::RParen, "expected `)` closing the helper query")?;
                with.push(Helper {
                    name,
                    name_span,
                    query,
                });
                if !self.eat_punct(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect_kw("select")?;
        let select = if self.eat_punct(&TokenKind::Star) {
            None
        } else {
            let mut items = vec![self.select_item()?];
            while self.eat_punct(&TokenKind::Comma) {
                items.push(self.select_item()?);
            }
            Some(items)
        };
        self.expect_kw("from")?;
        let from = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            if self.at_kw("join") || self.at_kw("inner") {
                let start = self.current_start();
                self.eat_kw("inner");
                self.expect_kw("join")?;
                joins.push(self.join_tail(JoinKind::Inner, start)?);
            } else if self.at_kw("left") {
                let start = self.current_start();
                self.pos += 1;
                self.eat_kw("outer");
                self.expect_kw("join")?;
                joins.push(self.join_tail(JoinKind::LeftOuter, start)?);
            } else if self.at_kw("right") || self.at_kw("full") {
                return Err(self.err_here(
                    "only `JOIN` and `LEFT [OUTER] JOIN` are supported",
                ));
            } else {
                break;
            }
        }
        let where_pred = if self.eat_kw("where") {
            Some(self.predicate()?)
        } else {
            None
        };
        let group_by = if self.at_kw("group") {
            self.pos += 1;
            self.expect_kw("by")?;
            let mut keys = vec![self.column_ref()?];
            while self.eat_punct(&TokenKind::Comma) {
                keys.push(self.column_ref()?);
            }
            keys
        } else {
            Vec::new()
        };
        let union_all = if self.at_kw("union") {
            self.pos += 1;
            self.expect_kw("all")?;
            Some(Box::new(self.query()?))
        } else {
            None
        };
        for kw in ["order", "having", "limit", "distinct"] {
            if self.at_kw(kw) {
                return Err(self.err_here(&format!(
                    "`{}` is outside the supported subset",
                    kw.to_uppercase()
                )));
            }
        }
        Ok(Query {
            with,
            select,
            from,
            joins,
            where_pred,
            group_by,
            union_all,
        })
    }

    fn current_start(&self) -> usize {
        self.peek().map_or(self.src.len(), |t| t.start)
    }

    fn join_tail(&mut self, kind: JoinKind, start: usize) -> Result<JoinClause> {
        let item = self.table_ref()?;
        self.expect_kw("on")?;
        let on = self.predicate()?;
        let end = on.span().end;
        Ok(JoinClause {
            kind,
            item,
            on,
            span: Span { start, end },
        })
    }

    fn table_ref(&mut self) -> Result<FromItem> {
        let (table, span) = self.ident("expected a table or view name")?;
        let alias = if self.eat_kw("as") {
            Some(self.ident("expected an alias")?.0)
        } else if matches!(self.peek(), Some(Token { kind: TokenKind::Ident(s), .. })
            if !KEYWORDS.iter().any(|k| s.eq_ignore_ascii_case(k)))
        {
            self.bump().and_then(|t| match t.kind {
                TokenKind::Ident(s) => Some(s),
                _ => None,
            })
        } else {
            None
        };
        let alias = alias.unwrap_or_else(|| table.clone());
        Ok(FromItem { table, alias, span })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        for func in ["count", "sum", "min", "max", "avg"] {
            if self.at_kw(func) && matches!(self.peek_at(1), Some(t) if t.kind == TokenKind::LParen)
            {
                let start = self.current_start();
                self.pos += 2; // func (
                let call = if func == "count" && self.eat_punct(&TokenKind::Star) {
                    AggCall::CountStar
                } else {
                    AggCall::OnColumn {
                        func: func.to_string(),
                        col: self.column_ref()?,
                    }
                };
                let close = self.expect_punct(&TokenKind::RParen, "expected `)`")?;
                let span = Span {
                    start,
                    end: close.end,
                };
                self.expect_kw("as")
                    .map_err(|_| Error::Unsupported(format!(
                        "aggregate {} requires an `AS` output name",
                        crate::lexer::span(self.src, span.start, span.end)
                    )))?;
                let (alias, _) = self.ident("expected an aggregate output name")?;
                return Ok(SelectItem::Aggregate {
                    func: call,
                    alias,
                    span,
                });
            }
        }
        let col = self.column_ref()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident("expected a column alias")?.0)
        } else {
            None
        };
        Ok(SelectItem::Column { col, alias })
    }

    fn column_ref(&mut self) -> Result<ColumnRef> {
        let (first, first_span) = self.ident("expected a column reference")?;
        if self.eat_punct(&TokenKind::Dot) {
            let (col, col_span) = self.ident("expected a column name after `.`")?;
            Ok(ColumnRef {
                qualifier: Some(first),
                column: col,
                span: Span {
                    start: first_span.start,
                    end: col_span.end,
                },
            })
        } else {
            Ok(ColumnRef {
                qualifier: None,
                column: first,
                span: first_span,
            })
        }
    }

    /// `predicate := disjunct (OR disjunct)*`
    fn predicate(&mut self) -> Result<SqlExpr> {
        let mut left = self.conjunction()?;
        while self.at_kw("or") {
            let start = left.span().start;
            self.pos += 1;
            let right = self.conjunction()?;
            let span = Span {
                start,
                end: right.span().end,
            };
            left = SqlExpr::Or(Box::new(left), Box::new(right), span);
        }
        Ok(left)
    }

    /// `conjunction := atom (AND atom)*`
    fn conjunction(&mut self) -> Result<SqlExpr> {
        let first = self.atom()?;
        if !self.at_kw("and") {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.eat_kw("and") {
            parts.push(self.atom()?);
        }
        Ok(SqlExpr::And(parts))
    }

    fn atom(&mut self) -> Result<SqlExpr> {
        if self.at_kw("not") {
            let start = self.current_start();
            self.pos += 1;
            if self.at_kw("exists") {
                return self.exists_tail(true, start);
            }
            let inner = self.atom()?;
            let span = Span {
                start,
                end: inner.span().end,
            };
            return Ok(SqlExpr::Not(Box::new(inner), span));
        }
        if self.at_kw("exists") {
            let start = self.current_start();
            return self.exists_tail(false, start);
        }
        if self.eat_punct(&TokenKind::LParen) {
            let inner = self.predicate()?;
            self.expect_punct(&TokenKind::RParen, "expected `)`")?;
            return Ok(inner);
        }
        let left = self.operand()?;
        let op = match self.peek().map(|t| t.kind.clone()) {
            Some(TokenKind::Eq) => SqlCmp::Eq,
            Some(TokenKind::Ne) => SqlCmp::Ne,
            Some(TokenKind::Lt) => SqlCmp::Lt,
            Some(TokenKind::Le) => SqlCmp::Le,
            Some(TokenKind::Gt) => SqlCmp::Gt,
            Some(TokenKind::Ge) => SqlCmp::Ge,
            _ => {
                return Err(self.err_here(
                    "expected a comparison operator (=, <>, <, <=, >, >=)",
                ))
            }
        };
        self.pos += 1;
        let right = self.operand()?;
        let span = Span {
            start: left.span().start,
            end: right.span().end,
        };
        Ok(SqlExpr::Cmp {
            op,
            left: Box::new(left),
            right: Box::new(right),
            span,
        })
    }

    fn exists_tail(&mut self, negated: bool, start: usize) -> Result<SqlExpr> {
        self.expect_kw("exists")?;
        self.expect_punct(&TokenKind::LParen, "expected `(` after EXISTS")?;
        let query = self.query()?;
        let close = self.expect_punct(&TokenKind::RParen, "expected `)` closing EXISTS")?;
        Ok(SqlExpr::Exists {
            negated,
            query: Box::new(query),
            span: Span {
                start,
                end: close.end,
            },
        })
    }

    fn operand(&mut self) -> Result<SqlExpr> {
        match self.peek().cloned() {
            Some(Token {
                kind: TokenKind::Int(n),
                start,
                end,
            }) => {
                self.pos += 1;
                Ok(SqlExpr::IntLit(n, Span { start, end }))
            }
            Some(Token {
                kind: TokenKind::Str(s),
                start,
                end,
            }) => {
                self.pos += 1;
                Ok(SqlExpr::StrLit(s, Span { start, end }))
            }
            Some(Token {
                kind: TokenKind::Ident(_),
                ..
            }) => Ok(SqlExpr::Column(self.column_ref()?)),
            _ => Err(self.err_here("expected a column, integer, or string literal")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_create_view() {
        let stmts = parse(
            "CREATE MATERIALIZED VIEW v AS \
             SELECT devices_parts.did, SUM(parts.price) AS cost \
             FROM parts \
             JOIN devices_parts ON parts.pid = devices_parts.pid \
             JOIN devices ON devices_parts.did = devices.did \
             WHERE devices.category = 'phone' \
             GROUP BY devices_parts.did;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 1);
        let Statement::CreateView { name, query, .. } = &stmts[0] else {
            panic!("not a create");
        };
        assert_eq!(name, "v");
        assert_eq!(query.joins.len(), 2);
        assert_eq!(query.group_by.len(), 1);
        assert!(query.where_pred.is_some());
    }

    #[test]
    fn parses_drop_and_explain() {
        let stmts =
            parse("DROP MATERIALIZED VIEW IF EXISTS v; EXPLAIN MAINTENANCE w").unwrap();
        assert!(matches!(&stmts[0], Statement::DropView { if_exists: true, .. }));
        assert!(matches!(&stmts[1], Statement::ExplainMaintenance { name, .. } if name == "w"));
    }

    #[test]
    fn parses_exists_and_union_all() {
        let stmts = parse(
            "CREATE MATERIALIZED VIEW v AS \
             SELECT * FROM parts WHERE EXISTS \
             (SELECT * FROM devices_parts WHERE devices_parts.pid = parts.pid) \
             UNION ALL SELECT * FROM parts",
        )
        .unwrap();
        let Statement::CreateView { query, .. } = &stmts[0] else {
            panic!("not a create");
        };
        assert!(query.union_all.is_some());
        assert!(matches!(
            query.where_pred,
            Some(SqlExpr::Exists { negated: false, .. })
        ));
    }

    #[test]
    fn rejections_are_typed_and_name_spans() {
        for bad in [
            "SELECT * FROM t",                       // not a statement form
            "CREATE VIEW v AS SELECT * FROM t",      // not MATERIALIZED
            "CREATE MATERIALIZED VIEW v AS SELECT * FROM t ORDER BY x",
            "CREATE MATERIALIZED VIEW v AS SELECT * FROM t RIGHT JOIN u ON a = b",
            "CREATE MATERIALIZED VIEW v AS SELECT SUM(x) FROM t GROUP BY y",
            "CREATE MATERIALIZED VIEW v AS SELECT a FROM t WHERE a LIKE 'x'",
        ] {
            match parse(bad) {
                Err(Error::Unsupported(_)) => {}
                other => panic!("{bad:?}: expected Unsupported, got {other:?}"),
            }
        }
    }

    #[test]
    fn if_not_exists_and_aliases() {
        let stmts = parse(
            "CREATE MATERIALIZED VIEW IF NOT EXISTS v AS \
             SELECT p.pid FROM parts AS p LEFT OUTER JOIN devices d ON p.pid = d.did",
        )
        .unwrap();
        let Statement::CreateView {
            if_not_exists,
            query,
            ..
        } = &stmts[0]
        else {
            panic!("not a create");
        };
        assert!(if_not_exists);
        assert_eq!(query.from.alias, "p");
        assert_eq!(query.joins[0].item.alias, "d");
        assert_eq!(query.joins[0].kind, JoinKind::LeftOuter);
    }
}
