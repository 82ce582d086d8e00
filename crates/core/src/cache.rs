//! Intermediate-cache planning — paper Section 4 (Example 4.6) and its
//! multi-valued-dependency guard (footnote 6).
//!
//! For every aggregate operator idIVM tries to materialize
//!
//! * an **input cache** holding the subview under the aggregate (the
//!   SPJ result the γ rules probe via `Input_pre`/`Input_post`), and
//! * an **output cache** holding the aggregate's own result — reused as
//!   the view itself when the aggregate is the plan root.
//!
//! Input caches are skipped when the subview is a bare scan (the base
//! table already is materialized) or when it is "expected to contain
//! multi-valued dependencies (for instance due to a many-to-many join),
//! since in that case reading the result from the cache would incur more
//! tuple accesses than recomputing it on the fly" (footnote 6). The
//! heuristic here flags joins in which neither side joins on a key.

use crate::access::PathId;
use crate::diff::{DiffKind, DiffSchema};
use crate::rules;
use crate::schema_gen::BaseDiffSchemas;
use idivm_algebra::{infer_ids, Plan};
use idivm_types::Result;
use std::collections::{BTreeSet, HashMap};

/// One cache to materialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheDef {
    /// Plan path of the subview this cache materializes.
    pub path: PathId,
    /// Storage table name.
    pub name: String,
    /// The group keys, which the γ rules probe the cache by (an output
    /// cache's are its key). Set-up indexes them and the Ī′ sets
    /// ([`apply_id_sets`]), which the rules' diff probes use too.
    pub group_keys: Vec<usize>,
}

/// Decide which subviews to cache for `plan` (already ID-extended).
/// `view_name` is used as the output materialization of a root
/// aggregate and to derive cache names. Returns the cache definitions
/// (excluding the view itself) and the full path→table map (including
/// the root mapped to the view).
///
/// # Errors
/// ID-inference failures on malformed plans.
pub fn plan_caches(
    plan: &Plan,
    view_name: &str,
) -> Result<(Vec<CacheDef>, HashMap<PathId, String>)> {
    let mut defs = Vec::new();
    let mut map = HashMap::new();
    // The view itself serves as the materialization of the root.
    map.insert(PathId::new(), view_name.to_string());
    walk(plan, &PathId::new(), view_name, &mut defs, &mut map)?;
    Ok((defs, map))
}

fn walk(
    node: &Plan,
    path: &PathId,
    view_name: &str,
    defs: &mut Vec<CacheDef>,
    map: &mut HashMap<PathId, String>,
) -> Result<()> {
    if let Plan::GroupBy { input, keys, .. } = node {
        // Output cache (unless this node is the root — then the view
        // already materializes it).
        if !path.is_empty() && !map.contains_key(path) {
            let name = format!("{view_name}#out{}", suffix(path));
            map.insert(path.clone(), name.clone());
            defs.push(CacheDef {
                path: path.clone(),
                name,
                group_keys: (0..keys.len()).collect(),
            });
        }
        // Input cache.
        let in_path = child(path, 0);
        let worth = !matches!(**input, Plan::Scan { .. })
            && !has_m2m_join(input)
            && !map.contains_key(&in_path);
        if worth {
            let name = format!("{view_name}#cache{}", suffix(&in_path));
            map.insert(in_path.clone(), name.clone());
            defs.push(CacheDef {
                path: in_path,
                name,
                group_keys: keys.clone(),
            });
        }
    }
    for (i, c) in node.children().into_iter().enumerate() {
        walk(c, &child(path, i), view_name, defs, map)?;
    }
    Ok(())
}

/// The Ī′ column sets by which update and delete i-diffs can reach the
/// subview `node` — what APPLY locates its targets by (paper Section
/// 2), so set-up indexes each of them. Inserts go through the primary
/// key and need none. `base` are the view's base-table i-diff schemas
/// and `minimize` its Pass-4 switch. Sorted, without duplicates.
///
/// # Errors
/// ID-inference failures on malformed plans.
pub fn apply_id_sets(
    node: &Plan,
    base: &BaseDiffSchemas,
    minimize: bool,
) -> Result<Vec<Vec<usize>>> {
    let sets: BTreeSet<Vec<usize>> = reach(node, base, minimize)?
        .into_iter()
        .filter(|s| s.kind != DiffKind::Insert)
        .map(|s| s.id_cols)
        .collect();
    Ok(sets.into_iter().collect())
}

/// Every i-diff schema that can reach `node`'s output: a scan's base
/// schemas, and each rule's output schemas ([`rules::out_schemas`]) for
/// every schema reaching its inputs — Pass 2's instantiation of the
/// rules over the plan, schemas only. Every rule keys its output by IDs
/// its node has, which Pass 1 makes every projection keep, so a rule's
/// refusal here is a malformed plan.
fn reach(node: &Plan, base: &BaseDiffSchemas, minimize: bool) -> Result<BTreeSet<DiffSchema>> {
    let mut out = BTreeSet::new();
    if let Plan::Scan { table, .. } = node {
        if let Some(t) = base.tables.get(table) {
            out.extend([t.insert_schema(), t.delete_schema()]);
            out.extend(t.updates.iter().map(|g| t.update_schema(g)));
        }
    }
    for (side, input) in node.children().into_iter().enumerate() {
        for s in reach(input, base, minimize)? {
            out.extend(rules::out_schemas(node, side, &s, minimize)?);
        }
    }
    Ok(out)
}

/// Does the subtree contain a join in which *neither* side joins on any
/// of its own ID columns? Such joins cross two value-correlated but
/// key-independent row sets — the multi-valued-dependency shape
/// footnote 6 excludes from caching. Joins anchored on at least one
/// side's key (or key component) are hierarchical fan-outs — the shape
/// foreign keys produce, which the paper's FK-based inference admits
/// (it caches, e.g., the friends-of-friends chain of Q*1).
pub fn has_m2m_join(node: &Plan) -> bool {
    let this = match node {
        Plan::Join {
            kind,
            left,
            right,
            on,
            ..
        } if kind.keeps_right() => {
            let lids = infer_ids(left).unwrap_or_default();
            let rids = infer_ids(right).unwrap_or_default();
            let lcols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
            let rcols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
            let left_anchored = lcols.iter().any(|c| lids.contains(c));
            let right_anchored = rcols.iter().any(|c| rids.contains(c));
            !(left_anchored || right_anchored)
        }
        _ => false,
    };
    this || node.children().iter().any(|c| has_m2m_join(c))
}

fn child(path: &[usize], i: usize) -> PathId {
    let mut p = path.to_vec();
    p.push(i);
    p
}

fn suffix(path: &[usize]) -> String {
    if path.is_empty() {
        "_root".to_string()
    } else {
        let parts: Vec<String> = path.iter().map(usize::to_string).collect();
        format!("_{}", parts.join("_"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idivm_algebra::{AggFunc, JoinKind, PlanBuilder};
    use idivm_types::{ColumnType, Schema};

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
            "devices_parts".to_string(),
            Schema::from_pairs(
                &[("did", ColumnType::Str), ("pid", ColumnType::Str)],
                &["did", "pid"],
            )
            .unwrap(),
        );
        m
    }

    #[test]
    fn root_aggregate_gets_input_cache_only() {
        let cat = catalog();
        let plan = PlanBuilder::scan(&cat, "parts")
            .unwrap()
            .join(
                PlanBuilder::scan(&cat, "devices_parts").unwrap(),
                &[("parts.pid", "devices_parts.pid")],
            )
            .unwrap()
            .group_by(
                &["devices_parts.did"],
                &[(AggFunc::Sum, "parts.price", "cost")],
            )
            .unwrap()
            .build()
            .unwrap();
        let (defs, map) = plan_caches(&plan, "v").unwrap();
        assert_eq!(defs.len(), 1);
        assert_eq!(defs[0].path, vec![0]);
        assert_eq!(map[&PathId::new()], "v");
        assert_eq!(map[&vec![0usize]], defs[0].name);
    }

    #[test]
    fn aggregate_over_scan_gets_no_input_cache() {
        let cat = catalog();
        let plan = PlanBuilder::scan(&cat, "devices_parts")
            .unwrap()
            .group_by(&["devices_parts.did"], &[(AggFunc::Count, "*", "n")])
            .unwrap()
            .build()
            .unwrap();
        let (defs, _) = plan_caches(&plan, "v").unwrap();
        assert!(defs.is_empty());
    }

    /// A diff keeps its IDs where a rule passes it through and takes
    /// the node's own where the rule re-derives rows: an inner join
    /// passes deletes and (under Pass 4) condition-free updates
    /// through, a condition-touching update is re-keyed by the join, a
    /// grouping keys everything by its group, and a semijoin's right
    /// side re-derives the left rows it reaches.
    #[test]
    fn id_sets_follow_the_rules_up_to_the_subview() {
        let cat = catalog();
        let sets = |plan: &Plan, minimize| {
            let schemas = crate::schema_gen::generate(plan, &cat).unwrap();
            apply_id_sets(plan, &schemas, minimize).unwrap()
        };
        let join = |kind| {
            PlanBuilder::scan(&cat, "parts")
                .unwrap()
                .join_kind(
                    kind,
                    PlanBuilder::scan(&cat, "devices_parts").unwrap(),
                    &[("parts.pid", "devices_parts.pid")],
                    None,
                )
                .unwrap()
        };
        let inner = join(JoinKind::Inner).build().unwrap();
        // parts.pid; devices_parts (did, pid) at 2, 3; the join's own.
        assert_eq!(sets(&inner, true), vec![vec![0], vec![2, 3]]);
        assert_eq!(
            sets(&inner, false),
            vec![vec![0], vec![0, 2, 3], vec![2, 3]]
        );
        let grouped = join(JoinKind::Inner)
            .group_by(&["devices_parts.did"], &[(AggFunc::Count, "*", "n")])
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(sets(&grouped, true), vec![vec![0]]);
        let semi = join(JoinKind::Semi).build().unwrap();
        assert_eq!(sets(&semi, true), vec![vec![0]]);
        let on_price = PlanBuilder::scan_as(&cat, "parts", "a")
            .unwrap()
            .join(
                PlanBuilder::scan_as(&cat, "parts", "b").unwrap(),
                &[("a.price", "b.price")],
            )
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(sets(&on_price, true), vec![vec![0], vec![0, 2], vec![2]]);
    }

    #[test]
    fn m2m_join_detected() {
        let cat = catalog();
        // Join parts to parts on the non-key price column: m:n.
        let plan = PlanBuilder::scan_as(&cat, "parts", "a")
            .unwrap()
            .join(
                PlanBuilder::scan_as(&cat, "parts", "b").unwrap(),
                &[("a.price", "b.price")],
            )
            .unwrap()
            .build()
            .unwrap();
        assert!(has_m2m_join(&plan));
        // Key-to-key join is not m:n.
        let plan2 = PlanBuilder::scan_as(&cat, "parts", "a")
            .unwrap()
            .join(
                PlanBuilder::scan_as(&cat, "parts", "b").unwrap(),
                &[("a.pid", "b.pid")],
            )
            .unwrap()
            .build()
            .unwrap();
        assert!(!has_m2m_join(&plan2));
    }
}
