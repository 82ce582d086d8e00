//! Fluent construction of [`Plan`]s with name-based column resolution.
//!
//! Plans reference columns positionally; the builder lets workloads and
//! tests use qualified names (`"parts.price"`) and resolves them against
//! the evolving output schema. Scans take their [`Schema`] from any
//! [`SchemaSource`] (e.g. a `HashMap<String, Schema>`, or the database
//! catalog wrapper in `idivm-exec`).

use crate::aggregate::{AggFunc, AggSpec};
use crate::expr::Expr;
use crate::plan::{JoinKind, Plan};
use idivm_types::{Error, Result, Schema};
use std::collections::HashMap;

/// Anything that can hand out table schemas for scan construction.
pub trait SchemaSource {
    /// Schema of `table`.
    ///
    /// # Errors
    /// [`Error::NotFound`] for unknown tables.
    fn schema(&self, table: &str) -> Result<Schema>;
}

impl SchemaSource for HashMap<String, Schema> {
    fn schema(&self, table: &str) -> Result<Schema> {
        self.get(table)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("table `{table}`")))
    }
}

/// Fluent plan builder. Most methods consume and return the builder;
/// resolution helpers ([`PlanBuilder::col`], [`PlanBuilder::pos`]) borrow
/// it so predicates can be built before being attached.
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    plan: Plan,
}

impl PlanBuilder {
    /// Scan `table` under its own name.
    ///
    /// # Errors
    /// Unknown table in `source`.
    pub fn scan(source: &impl SchemaSource, table: &str) -> Result<Self> {
        Self::scan_as(source, table, table)
    }

    /// Scan `table` under `alias` (needed when a table appears twice).
    ///
    /// # Errors
    /// Unknown table in `source`.
    pub fn scan_as(source: &impl SchemaSource, table: &str, alias: &str) -> Result<Self> {
        Ok(PlanBuilder {
            plan: Plan::Scan {
                table: table.to_string(),
                alias: alias.to_string(),
                schema: source.schema(table)?,
            },
        })
    }

    /// Wrap an existing plan.
    pub fn from_plan(plan: Plan) -> Self {
        PlanBuilder { plan }
    }

    /// Column reference expression by qualified name.
    ///
    /// # Errors
    /// Unknown column.
    pub fn col(&self, name: &str) -> Result<Expr> {
        Ok(Expr::Col(self.plan.col(name)?))
    }

    /// Column position by qualified name.
    ///
    /// # Errors
    /// Unknown column.
    pub fn pos(&self, name: &str) -> Result<usize> {
        self.plan.col(name)
    }

    /// Attach a selection.
    pub fn select(self, pred: Expr) -> Self {
        PlanBuilder {
            plan: Plan::Select {
                input: Box::new(self.plan),
                pred,
            },
        }
    }

    /// Convenience: σ(name = value).
    ///
    /// # Errors
    /// Unknown column.
    pub fn select_eq(self, name: &str, value: impl Into<idivm_types::Value>) -> Result<Self> {
        let c = self.col(name)?;
        Ok(self.select(c.eq(Expr::Lit(value.into()))))
    }

    /// Generalized projection from `(output name, expression)` pairs.
    pub fn project(self, cols: Vec<(String, Expr)>) -> Self {
        PlanBuilder {
            plan: Plan::Project {
                input: Box::new(self.plan),
                cols,
            },
        }
    }

    /// Projection onto named columns (names kept).
    ///
    /// # Errors
    /// Unknown column.
    pub fn project_names(self, names: &[&str]) -> Result<Self> {
        let mut cols = Vec::with_capacity(names.len());
        for n in names {
            let pos = self.plan.col(n)?;
            cols.push((n.to_string(), Expr::Col(pos)));
        }
        Ok(self.project(cols))
    }

    /// Equi-join on `(left column, right column)` name pairs.
    ///
    /// # Errors
    /// Unknown column on either side.
    pub fn join(self, right: PlanBuilder, on: &[(&str, &str)]) -> Result<Self> {
        self.join_kind(JoinKind::Inner, right, on, None)
    }

    /// Semijoin `self ⋉ right`.
    ///
    /// # Errors
    /// Unknown column on either side.
    pub fn semi_join(self, right: PlanBuilder, on: &[(&str, &str)]) -> Result<Self> {
        self.join_kind(JoinKind::Semi, right, on, None)
    }

    /// Antisemijoin `self ▷ right` (negation).
    ///
    /// # Errors
    /// Unknown column on either side.
    pub fn anti_join(self, right: PlanBuilder, on: &[(&str, &str)]) -> Result<Self> {
        self.join_kind(JoinKind::Anti, right, on, None)
    }

    /// Join of any kind on `(left column, right column)` name pairs,
    /// with an optional θ residual over the concatenated schema (resolve
    /// its columns by position, or with [`PlanBuilder::col`] on a built
    /// join).
    ///
    /// # Errors
    /// Unknown column on either side.
    pub fn join_kind(
        self,
        kind: JoinKind,
        right: PlanBuilder,
        on: &[(&str, &str)],
        residual: Option<Expr>,
    ) -> Result<Self> {
        let mut pairs = Vec::with_capacity(on.len());
        for (l, r) in on {
            pairs.push((self.plan.col(l)?, right.plan.col(r)?));
        }
        let plan = Plan::Join {
            kind,
            left: Box::new(self.plan),
            right: Box::new(right.plan),
            on: pairs,
            residual,
        };
        Ok(PlanBuilder { plan })
    }

    /// Bag union (appends the branch column).
    pub fn union_all(self, right: PlanBuilder) -> Self {
        PlanBuilder {
            plan: Plan::UnionAll {
                left: Box::new(self.plan),
                right: Box::new(right.plan),
            },
        }
    }

    /// Group by named key columns with `(func, argument column, output
    /// name)` aggregates.
    ///
    /// # Errors
    /// Unknown column.
    pub fn group_by(self, keys: &[&str], aggs: &[(AggFunc, &str, &str)]) -> Result<Self> {
        let mut key_pos = Vec::with_capacity(keys.len());
        for k in keys {
            key_pos.push(self.plan.col(k)?);
        }
        let mut specs = Vec::with_capacity(aggs.len());
        for (f, arg, name) in aggs {
            let arg_expr = if *f == AggFunc::Count && *arg == "*" {
                Expr::lit(1)
            } else {
                Expr::Col(self.plan.col(arg)?)
            };
            specs.push(AggSpec::new(*f, arg_expr, *name));
        }
        Ok(PlanBuilder {
            plan: Plan::GroupBy {
                input: Box::new(self.plan),
                keys: key_pos,
                aggs: specs,
            },
        })
    }

    /// Finish, validating the plan.
    ///
    /// # Errors
    /// Structural plan errors from [`Plan::validate`].
    pub fn build(self) -> Result<Plan> {
        self.plan.validate()?;
        Ok(self.plan)
    }

    /// Peek at the plan under construction.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idivm_types::ColumnType;

    fn catalog() -> HashMap<String, Schema> {
        let mut m = HashMap::new();
        m.insert(
            "parts".to_string(),
            Schema::from_pairs(
                &[("pid", ColumnType::Str), ("price", ColumnType::Int)],
                &["pid"],
            )
            .unwrap(),
        );
        m.insert(
            "devices".to_string(),
            Schema::from_pairs(
                &[("did", ColumnType::Str), ("category", ColumnType::Str)],
                &["did"],
            )
            .unwrap(),
        );
        m.insert(
            "devices_parts".to_string(),
            Schema::from_pairs(
                &[("did", ColumnType::Str), ("pid", ColumnType::Str)],
                &["did", "pid"],
            )
            .unwrap(),
        );
        m
    }

    /// The running-example view V (Figure 1b).
    #[test]
    fn running_example_view_builds() {
        let cat = catalog();
        let v = PlanBuilder::scan(&cat, "parts")
            .unwrap()
            .join(
                PlanBuilder::scan(&cat, "devices_parts").unwrap(),
                &[("parts.pid", "devices_parts.pid")],
            )
            .unwrap()
            .join(
                PlanBuilder::scan(&cat, "devices").unwrap(),
                &[("devices_parts.did", "devices.did")],
            )
            .unwrap()
            .select_eq("devices.category", "phone")
            .unwrap()
            .project_names(&["devices_parts.did", "parts.pid", "parts.price"])
            .unwrap()
            .build()
            .unwrap();
        let names: Vec<String> = v.output_cols().into_iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["devices_parts.did", "parts.pid", "parts.price"]);
    }

    /// The aggregate view V′ (Figure 5b).
    #[test]
    fn aggregate_view_builds() {
        let cat = catalog();
        let v = PlanBuilder::scan(&cat, "parts")
            .unwrap()
            .join(
                PlanBuilder::scan(&cat, "devices_parts").unwrap(),
                &[("parts.pid", "devices_parts.pid")],
            )
            .unwrap()
            .join(
                PlanBuilder::scan(&cat, "devices").unwrap(),
                &[("devices_parts.did", "devices.did")],
            )
            .unwrap()
            .select_eq("devices.category", "phone")
            .unwrap()
            .group_by(
                &["devices_parts.did"],
                &[(AggFunc::Sum, "parts.price", "cost")],
            )
            .unwrap()
            .build()
            .unwrap();
        let names: Vec<String> = v.output_cols().into_iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["devices_parts.did", "cost"]);
        assert_eq!(crate::ids::infer_ids(&v).unwrap(), vec![0]);
    }

    #[test]
    fn self_join_needs_aliases() {
        let cat = catalog();
        let v = PlanBuilder::scan_as(&cat, "parts", "p1")
            .unwrap()
            .join(
                PlanBuilder::scan_as(&cat, "parts", "p2").unwrap(),
                &[("p1.price", "p2.price")],
            )
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(v.arity(), 4);
        assert!(v.col("p2.pid").is_ok());
    }

    #[test]
    fn count_star() {
        let cat = catalog();
        let v = PlanBuilder::scan(&cat, "devices_parts")
            .unwrap()
            .group_by(&["devices_parts.did"], &[(AggFunc::Count, "*", "n_parts")])
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(v.arity(), 2);
    }

    #[test]
    fn anti_join_builds() {
        let cat = catalog();
        let v = PlanBuilder::scan(&cat, "parts")
            .unwrap()
            .anti_join(
                PlanBuilder::scan(&cat, "devices_parts").unwrap(),
                &[("parts.pid", "devices_parts.pid")],
            )
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(v.arity(), 2); // left columns only
    }

    #[test]
    fn unknown_column_fails() {
        let cat = catalog();
        let b = PlanBuilder::scan(&cat, "parts").unwrap();
        assert!(b.col("parts.nope").is_err());
    }
}
