//! Algebraic query plans for `QSPJADU` views.
//!
//! A [`Plan`] is the operator tree the IVM algorithms work on — the paper
//! (Section 4) assumes "that the algebraic plan of the view on which
//! the algorithm operates is given as input". Every node can report its
//! output columns ([`Plan::output_cols`]) including *provenance*: which
//! base-table attribute a column is a verbatim copy of. Provenance is
//! what lets the i-diff schema generator (paper Section 5) split base
//! attributes into conditional sets `C_op` and the non-conditional set
//! `NC`, and what lets diff propagation align base-table diff columns
//! with operator inputs.

use crate::aggregate::AggSpec;
use crate::expr::Expr;
use idivm_types::{Error, Result, Schema};
use std::collections::BTreeSet;
use std::fmt;

/// Where an output column comes from, when it is a verbatim copy of a
/// base-table attribute.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColOrigin {
    /// Scan alias (unique per plan; equals the table name unless
    /// aliased).
    pub alias: String,
    /// Column position within the scanned table's schema.
    pub column: usize,
}

/// One output column of a plan node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanCol {
    /// Unique-within-node display name (e.g. `"parts.price"`).
    pub name: String,
    /// Base-table provenance, if the column is a direct copy.
    pub origin: Option<ColOrigin>,
}

/// Name of the branch attribute appended by the bag-union operator
/// (paper Section 2, footnote on union all: "a special attribute b,
/// denoting which child branch a tuple came from").
pub const BRANCH_COL: &str = "__branch";

/// The kind of a [`Plan::Join`]: the paper's join (Tables 4 and 10),
/// its NULL-padding left outer extension, and the semijoin and
/// antisemijoin (Table 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    /// `⋈`: the matching pairs.
    Inner,
    /// `⟕`: the matching pairs, and each unmatched left row NULL-padded
    /// across the right columns (SQL semantics: a NULL join key on the
    /// left never matches and is always padded).
    LeftOuter,
    /// `⋉`: the left rows with a match.
    Semi,
    /// `▷`: the left rows without a match (negation/difference).
    Anti,
}

impl JoinKind {
    /// Does the output carry the right input's columns after the left's
    /// (inner and left outer), or the left's alone (semi and anti)?
    pub fn keeps_right(self) -> bool {
        matches!(self, JoinKind::Inner | JoinKind::LeftOuter)
    }
}

/// An algebraic plan node.
#[derive(Clone, PartialEq)]
pub enum Plan {
    /// Base-table scan. The schema is captured at build time.
    Scan {
        table: String,
        alias: String,
        schema: Schema,
    },
    /// Selection σ_pred.
    Select { input: Box<Plan>, pred: Expr },
    /// Generalized projection π: each output column is `name := expr`.
    Project {
        input: Box<Plan>,
        cols: Vec<(String, Expr)>,
    },
    /// Join of any [`JoinKind`]: equi-key pairs (left pos, right pos)
    /// plus an optional residual θ predicate over the concatenated
    /// schema (left ++ right, also for semi and anti). Output columns are
    /// the concatenation, or the left's alone
    /// ([`JoinKind::keeps_right`]). An inner join with `on` empty and
    /// `residual` `None` is the cross product.
    Join {
        kind: JoinKind,
        left: Box<Plan>,
        right: Box<Plan>,
        on: Vec<(usize, usize)>,
        residual: Option<Expr>,
    },
    /// Bag union with a branch column appended (0 = left, 1 = right).
    UnionAll { left: Box<Plan>, right: Box<Plan> },
    /// Grouping + aggregation γ.
    GroupBy {
        input: Box<Plan>,
        keys: Vec<usize>,
        aggs: Vec<AggSpec>,
    },
}

impl Plan {
    /// Output columns with names and provenance.
    pub fn output_cols(&self) -> Vec<PlanCol> {
        match self {
            Plan::Scan { alias, schema, .. } => schema
                .columns()
                .iter()
                .enumerate()
                .map(|(i, c)| PlanCol {
                    name: format!("{alias}.{}", c.name),
                    origin: Some(ColOrigin {
                        alias: alias.clone(),
                        column: i,
                    }),
                })
                .collect(),
            Plan::Select { input, .. } => input.output_cols(),
            Plan::Project { input, cols } => {
                let in_cols = input.output_cols();
                cols.iter()
                    .map(|(name, expr)| PlanCol {
                        name: name.clone(),
                        origin: match expr {
                            Expr::Col(i) => in_cols[*i].origin.clone(),
                            _ => None,
                        },
                    })
                    .collect()
            }
            Plan::Join {
                kind, left, right, ..
            } => {
                let mut cols = left.output_cols();
                match kind {
                    JoinKind::Inner => cols.extend(right.output_cols()),
                    // Right columns may be NULL-padded, so they are not
                    // verbatim copies of their base attributes:
                    // provenance is dropped (a padded row holds NULL
                    // where the base holds a value).
                    JoinKind::LeftOuter => {
                        cols.extend(right.output_cols().into_iter().map(|c| PlanCol {
                            name: c.name,
                            origin: None,
                        }))
                    }
                    JoinKind::Semi | JoinKind::Anti => {}
                }
                cols
            }
            Plan::UnionAll { left, .. } => {
                // Union output takes the left names; provenance is
                // ambiguous (a column may come from either branch).
                let mut cols: Vec<PlanCol> = left
                    .output_cols()
                    .into_iter()
                    .map(|c| PlanCol {
                        name: c.name,
                        origin: None,
                    })
                    .collect();
                cols.push(PlanCol {
                    name: BRANCH_COL.to_string(),
                    origin: None,
                });
                cols
            }
            Plan::GroupBy { input, keys, aggs } => {
                let in_cols = input.output_cols();
                let mut cols: Vec<PlanCol> = keys.iter().map(|&k| in_cols[k].clone()).collect();
                cols.extend(aggs.iter().map(|a| PlanCol {
                    name: a.name.clone(),
                    origin: None,
                }));
                cols
            }
        }
    }

    /// Number of output columns.
    pub fn arity(&self) -> usize {
        match self {
            Plan::Scan { schema, .. } => schema.arity(),
            Plan::Select { input, .. } => input.arity(),
            Plan::Project { cols, .. } => cols.len(),
            Plan::Join {
                kind, left, right, ..
            } => left.arity() + if kind.keeps_right() { right.arity() } else { 0 },
            Plan::UnionAll { left, .. } => left.arity() + 1,
            Plan::GroupBy { keys, aggs, .. } => keys.len() + aggs.len(),
        }
    }

    /// Immutable children (unary: one, binary: two, scan: none).
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan { .. } => vec![],
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::GroupBy { input, .. } => vec![input],
            Plan::Join { left, right, .. } | Plan::UnionAll { left, right } => vec![left, right],
        }
    }

    /// The node at `path`, child indices from this node (`[]` is this
    /// node itself); `None` past a leaf or an arity.
    pub fn node(&self, path: &[usize]) -> Option<&Plan> {
        path.iter()
            .try_fold(self, |node, &i| node.children().get(i).copied())
    }

    /// Find the scanned base tables: `(alias, table)` pairs in preorder.
    pub fn scans(&self) -> Vec<(&str, &str)> {
        let mut out = Vec::new();
        self.collect_scans(&mut out);
        out
    }

    fn collect_scans<'a>(&'a self, out: &mut Vec<(&'a str, &'a str)>) {
        if let Plan::Scan { alias, table, .. } = self {
            out.push((alias, table));
        }
        for c in self.children() {
            c.collect_scans(out);
        }
    }

    /// Each output column's base attribute as `(alias, table, column)`,
    /// where the column is a verbatim copy of one ([`PlanCol::origin`]
    /// resolved through [`Plan::scans`]).
    pub fn base_cols(&self) -> Vec<Option<(&str, &str, usize)>> {
        let scans = self.scans();
        let resolve = |o: ColOrigin| {
            let &(alias, table) = scans.iter().find(|(a, _)| *a == o.alias)?;
            Some((alias, table, o.column))
        };
        self.output_cols()
            .into_iter()
            .map(|c| c.origin.and_then(resolve))
            .collect()
    }

    /// The condition columns of input `side`, in its own frame: those
    /// that decide *which* rows the operator emits, not just their
    /// values — a selection's predicate columns, a join side's keys and
    /// its part of the residual, a grouping's keys. None elsewhere.
    pub fn cond_cols(&self, side: usize) -> BTreeSet<usize> {
        match self {
            Plan::Select { pred, .. } => pred.columns(),
            Plan::Join {
                left, on, residual, ..
            } => {
                let la = left.arity();
                let mut cols: BTreeSet<usize> = on
                    .iter()
                    .map(|&(l, r)| if side == 0 { l } else { r })
                    .collect();
                let own = residual.iter().flat_map(Expr::columns);
                cols.extend(
                    own.filter(|&c| (c >= la) == (side == 1))
                        .map(|c| c - side * la),
                );
                cols
            }
            Plan::GroupBy { keys, .. } => keys.iter().copied().collect(),
            _ => BTreeSet::new(),
        }
    }

    /// Resolve an output column name to its position.
    ///
    /// # Errors
    /// Unknown name.
    pub fn col(&self, name: &str) -> Result<usize> {
        let cols = self.output_cols();
        cols.iter().position(|c| c.name == name).ok_or_else(|| {
            let names: Vec<&str> = cols.iter().map(|c| c.name.as_str()).collect();
            Error::Plan(format!("unknown column `{name}`; available: {names:?}"))
        })
    }

    /// Validate structural invariants: expression column references in
    /// bounds, join keys in bounds, union branches arity-aligned,
    /// duplicate output names absent, scans keyed.
    ///
    /// # Errors
    /// [`Error::Plan`] describing the first violation found.
    pub fn validate(&self) -> Result<()> {
        // Recurse first.
        for c in self.children() {
            c.validate()?;
        }
        let check_expr = |e: &Expr, arity: usize, what: &str| -> Result<()> {
            if let Some(&max) = e.columns().iter().max() {
                if max >= arity {
                    return Err(Error::Plan(format!(
                        "{what} references column #{max} but input arity is {arity}"
                    )));
                }
            }
            Ok(())
        };
        match self {
            Plan::Scan { schema, table, .. } => {
                if schema.key().is_empty() {
                    return Err(Error::Plan(format!(
                        "scanned table `{table}` has no primary key (idIVM requires keys)"
                    )));
                }
            }
            Plan::Select { input, pred } => {
                check_expr(pred, input.arity(), "selection predicate")?;
            }
            Plan::Project { input, cols } => {
                for (name, e) in cols {
                    check_expr(e, input.arity(), &format!("projection `{name}`"))?;
                }
            }
            Plan::Join {
                left,
                right,
                on,
                residual,
                ..
            } => {
                for &(l, r) in on {
                    if l >= left.arity() || r >= right.arity() {
                        return Err(Error::Plan(format!("join key ({l}, {r}) out of bounds")));
                    }
                }
                if let Some(res) = residual {
                    check_expr(res, left.arity() + right.arity(), "join residual")?;
                }
            }
            Plan::UnionAll { left, right } => {
                if left.arity() != right.arity() {
                    return Err(Error::Plan(format!(
                        "union branches have arity {} vs {}",
                        left.arity(),
                        right.arity()
                    )));
                }
            }
            Plan::GroupBy { input, keys, aggs } => {
                for &k in keys {
                    if k >= input.arity() {
                        return Err(Error::Plan(format!("group key #{k} out of bounds")));
                    }
                }
                for a in aggs {
                    check_expr(&a.arg, input.arity(), &format!("aggregate `{}`", a.name))?;
                }
            }
        }
        // Output names must be unique (required for diff-schema naming).
        let cols = self.output_cols();
        for (i, c) in cols.iter().enumerate() {
            if cols[..i].iter().any(|o| o.name == c.name) {
                return Err(Error::Plan(format!(
                    "duplicate output column name `{}`",
                    c.name
                )));
            }
        }
        Ok(())
    }
}

/// Written by hand: a join renders under one name per kind (`Join`,
/// `LeftOuterJoin`, `SemiJoin`, `AntiJoin`) and without its `kind`
/// field, because the rendering is persisted as promotion's `structure`
/// key and hashed by the workload plan digests, so it must not move.
impl fmt::Debug for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Plan::Scan {
                table,
                alias,
                schema,
            } => f
                .debug_struct("Scan")
                .field("table", table)
                .field("alias", alias)
                .field("schema", schema)
                .finish(),
            Plan::Select { input, pred } => f
                .debug_struct("Select")
                .field("input", input)
                .field("pred", pred)
                .finish(),
            Plan::Project { input, cols } => f
                .debug_struct("Project")
                .field("input", input)
                .field("cols", cols)
                .finish(),
            Plan::Join {
                kind,
                left,
                right,
                on,
                residual,
            } => f
                .debug_struct(match kind {
                    JoinKind::Inner => "Join",
                    JoinKind::LeftOuter => "LeftOuterJoin",
                    JoinKind::Semi => "SemiJoin",
                    JoinKind::Anti => "AntiJoin",
                })
                .field("left", left)
                .field("right", right)
                .field("on", on)
                .field("residual", residual)
                .finish(),
            Plan::UnionAll { left, right } => f
                .debug_struct("UnionAll")
                .field("left", left)
                .field("right", right)
                .finish(),
            Plan::GroupBy { input, keys, aggs } => f
                .debug_struct("GroupBy")
                .field("input", input)
                .field("keys", keys)
                .field("aggs", aggs)
                .finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFunc;
    use idivm_types::ColumnType;

    fn parts_scan() -> Plan {
        Plan::Scan {
            table: "parts".into(),
            alias: "parts".into(),
            schema: Schema::from_pairs(
                &[("pid", ColumnType::Str), ("price", ColumnType::Int)],
                &["pid"],
            )
            .unwrap(),
        }
    }

    fn devices_scan() -> Plan {
        Plan::Scan {
            table: "devices".into(),
            alias: "devices".into(),
            schema: Schema::from_pairs(
                &[("did", ColumnType::Str), ("category", ColumnType::Str)],
                &["did"],
            )
            .unwrap(),
        }
    }

    #[test]
    fn scan_names_are_qualified_with_provenance() {
        let cols = parts_scan().output_cols();
        assert_eq!(cols[0].name, "parts.pid");
        assert_eq!(
            cols[1].origin,
            Some(ColOrigin {
                alias: "parts".into(),
                column: 1
            })
        );
    }

    #[test]
    fn join_concatenates_columns() {
        let j = Plan::Join {
            kind: JoinKind::Inner,
            left: Box::new(parts_scan()),
            right: Box::new(devices_scan()),
            on: vec![],
            residual: None,
        };
        let cols = j.output_cols();
        assert_eq!(cols.len(), 4);
        assert_eq!(cols[2].name, "devices.did");
        assert!(j.validate().is_ok());
    }

    #[test]
    fn project_tracks_provenance_through_direct_copies() {
        let p = Plan::Project {
            input: Box::new(parts_scan()),
            cols: vec![
                ("pid".into(), Expr::col(0)),
                ("double_price".into(), Expr::col(1).mul(Expr::lit(2))),
            ],
        };
        let cols = p.output_cols();
        assert!(cols[0].origin.is_some());
        assert!(cols[1].origin.is_none());
    }

    #[test]
    fn union_appends_branch_column() {
        let u = Plan::UnionAll {
            left: Box::new(parts_scan()),
            right: Box::new(parts_scan()),
        };
        let cols = u.output_cols();
        assert_eq!(cols.len(), 3);
        assert_eq!(cols[2].name, BRANCH_COL);
        assert!(u.validate().is_ok());
    }

    #[test]
    fn union_arity_mismatch_rejected() {
        let u = Plan::UnionAll {
            left: Box::new(parts_scan()),
            right: Box::new(Plan::Project {
                input: Box::new(parts_scan()),
                cols: vec![("pid".into(), Expr::col(0))],
            }),
        };
        assert!(u.validate().is_err());
    }

    #[test]
    fn group_by_output_is_keys_then_aggs() {
        let g = Plan::GroupBy {
            input: Box::new(parts_scan()),
            keys: vec![0],
            aggs: vec![AggSpec::new(AggFunc::Sum, Expr::col(1), "total")],
        };
        let cols = g.output_cols();
        assert_eq!(cols[0].name, "parts.pid");
        assert_eq!(cols[1].name, "total");
        assert!(g.validate().is_ok());
    }

    #[test]
    fn out_of_bounds_predicate_rejected() {
        let s = Plan::Select {
            input: Box::new(parts_scan()),
            pred: Expr::col(9).eq(Expr::lit(1)),
        };
        assert!(s.validate().is_err());
    }

    #[test]
    fn col_resolution() {
        let p = parts_scan();
        assert_eq!(p.col("parts.price").unwrap(), 1);
        assert!(p.col("nope").is_err());
    }

    #[test]
    fn scans_collects_aliases() {
        let j = Plan::Join {
            kind: JoinKind::Inner,
            left: Box::new(parts_scan()),
            right: Box::new(devices_scan()),
            on: vec![],
            residual: None,
        };
        assert_eq!(j.scans(), vec![("parts", "parts"), ("devices", "devices")]);
    }

    /// A join renders under its kind's name and without `kind`, as the
    /// persisted `structure` keys and the plan digests expect.
    #[test]
    fn debug_renders_each_kind_under_its_historical_variant_name() {
        let scan = |t: &str| Plan::Scan {
            table: t.into(),
            alias: t.into(),
            schema: Schema::from_pairs(&[("id", ColumnType::Int)], &["id"]).unwrap(),
        };
        let shown = |t: &str| {
            format!(
                "Scan {{ table: \"{t}\", alias: \"{t}\", schema: Schema {{ columns: \
                 [Column {{ name: \"id\", ty: Int }}], key: [0] }} }}"
            )
        };
        for (kind, name) in [
            (JoinKind::Inner, "Join"),
            (JoinKind::LeftOuter, "LeftOuterJoin"),
            (JoinKind::Semi, "SemiJoin"),
            (JoinKind::Anti, "AntiJoin"),
        ] {
            let j = Plan::Join {
                kind,
                left: Box::new(scan("l")),
                right: Box::new(scan("r")),
                on: vec![(0, 0)],
                residual: None,
            };
            let (l, r) = (shown("l"), shown("r"));
            let want = format!("{name} {{ left: {l}, right: {r}, on: [(0, 0)], residual: None }}");
            assert_eq!(format!("{j:?}"), want);
        }
    }

    #[test]
    fn keyless_scan_rejected() {
        let s = Plan::Scan {
            table: "t".into(),
            alias: "t".into(),
            schema: Schema::from_pairs(&[("a", ColumnType::Int)], &[]).unwrap(),
        };
        assert!(s.validate().is_err());
    }
}
