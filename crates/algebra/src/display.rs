//! Human-readable plan rendering, in the style of the paper's Figure 5a
//! (operator tree annotated with output IDs).

use crate::ids::infer_ids;
use crate::plan::{JoinKind, Plan};
use std::fmt::Write as _;

/// Render a plan as an indented operator tree. Each line shows the
/// operator, its parameters, and (when inferable) its output-ID column
/// names in brackets — the annotations Pass 1 computes.
pub fn explain(plan: &Plan) -> String {
    let mut out = String::new();
    render(plan, 0, &mut out);
    out
}

fn render(plan: &Plan, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    let cols = plan.output_cols();
    let ids = infer_ids(plan)
        .map(|ids| {
            let names: Vec<&str> = ids.iter().map(|&i| cols[i].name.as_str()).collect();
            format!(" [ids: {}]", names.join(", "))
        })
        .unwrap_or_else(|_| " [ids: ?]".to_string());
    match plan {
        Plan::Scan { table, alias, .. } => {
            if table == alias {
                let _ = writeln!(out, "{pad}SCAN {table}{ids}");
            } else {
                let _ = writeln!(out, "{pad}SCAN {table} AS {alias}{ids}");
            }
        }
        Plan::Select { pred, .. } => {
            let _ = writeln!(out, "{pad}SELECT σ {pred}{ids}");
        }
        Plan::Project { cols: pcols, .. } => {
            let items: Vec<String> = pcols.iter().map(|(n, e)| format!("{n} := {e}")).collect();
            let _ = writeln!(out, "{pad}PROJECT π {}{ids}", items.join(", "));
        }
        Plan::Join {
            kind, on, residual, ..
        } => {
            let name = match kind {
                JoinKind::Inner => "JOIN ⋈",
                JoinKind::LeftOuter => "LEFT OUTER JOIN ⟕",
                JoinKind::Semi => "SEMIJOIN ⋉",
                JoinKind::Anti => "ANTIJOIN ▷",
            };
            let keys: Vec<String> = on.iter().map(|(l, r)| format!("#{l}=#{r}")).collect();
            let res = residual
                .as_ref()
                .map(|e| format!(" AND {e}"))
                .unwrap_or_default();
            let _ = writeln!(out, "{pad}{name} [{}]{res}{ids}", keys.join(", "));
        }
        Plan::UnionAll { .. } => {
            let _ = writeln!(out, "{pad}UNION ALL ∪{ids}");
        }
        Plan::GroupBy { keys, aggs, .. } => {
            let ks: Vec<String> = keys.iter().map(|k| format!("#{k}")).collect();
            let asz: Vec<String> = aggs
                .iter()
                .map(|a| format!("{}({}) → {}", a.func.name(), a.arg, a.name))
                .collect();
            let _ = writeln!(
                out,
                "{pad}GROUP γ [{}] {}{ids}",
                ks.join(", "),
                asz.join(", ")
            );
        }
    }
    for c in plan.children() {
        render(c, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlanBuilder;
    use crate::expr::Expr;
    use idivm_types::{ColumnType, Schema};
    use std::collections::HashMap;

    #[test]
    fn explain_shows_tree_and_ids() {
        let mut cat = HashMap::new();
        cat.insert(
            "parts".to_string(),
            Schema::from_pairs(
                &[("pid", ColumnType::Str), ("price", ColumnType::Int)],
                &["pid"],
            )
            .unwrap(),
        );
        let plan = PlanBuilder::scan(&cat, "parts")
            .unwrap()
            .select_eq("parts.price", 10)
            .unwrap()
            .build()
            .unwrap();
        let text = explain(&plan);
        assert!(text.contains("SELECT"));
        assert!(text.contains("SCAN parts"));
        assert!(text.contains("[ids: parts.pid]"));
    }

    #[test]
    fn explain_prints_the_residual_of_every_join_kind() {
        let mut cat = HashMap::new();
        for (table, col) in [("l", "a"), ("r", "b")] {
            let cols = [("id", ColumnType::Int), (col, ColumnType::Int)];
            cat.insert(
                table.to_string(),
                Schema::from_pairs(&cols, &["id"]).unwrap(),
            );
        }
        for (kind, name) in [
            (JoinKind::Inner, "JOIN ⋈"),
            (JoinKind::LeftOuter, "LEFT OUTER JOIN ⟕"),
            (JoinKind::Semi, "SEMIJOIN ⋉"),
            (JoinKind::Anti, "ANTIJOIN ▷"),
        ] {
            let residual = Expr::col(1).lt(Expr::col(3));
            let plan = PlanBuilder::scan(&cat, "l")
                .unwrap()
                .join_kind(
                    kind,
                    PlanBuilder::scan(&cat, "r").unwrap(),
                    &[("l.a", "r.b")],
                    Some(residual),
                )
                .unwrap()
                .build()
                .unwrap();
            let text = explain(&plan);
            let top = text.lines().next().unwrap();
            assert!(top.starts_with(&format!("{name} [#1=#1] AND ")), "{top}");
        }
    }
}
