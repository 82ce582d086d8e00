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
use idivm_algebra::{infer_ids, Expr, Plan};
use idivm_types::Result;
use std::collections::{BTreeSet, HashMap};

/// One cache to materialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheDef {
    /// Plan path of the subview this cache materializes.
    pub path: PathId,
    /// Storage table name.
    pub name: String,
    /// Column sets to index (probe paths the rules will use).
    pub index_sets: Vec<Vec<usize>>,
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
                index_sets: vec![(0..keys.len()).collect()],
            });
        }
        // Input cache.
        let in_path = child(path, 0);
        let worth = !matches!(**input, Plan::Scan { .. })
            && !has_m2m_join(input)
            && !map.contains_key(&in_path);
        if worth {
            let name = format!("{view_name}#cache{}", suffix(&in_path));
            let mut index_sets = vec![keys.clone()];
            index_sets.extend(diff_probe_sets(input)?);
            map.insert(in_path.clone(), name.clone());
            defs.push(CacheDef {
                path: in_path,
                name,
                index_sets,
            });
        }
    }
    for (i, c) in node.children().into_iter().enumerate() {
        walk(c, &child(path, i), view_name, defs, map)?;
    }
    Ok(())
}

/// ID column sets with which base-table diffs will probe this subview:
/// for every scanned alias, the positions its key columns occupy in the
/// subview output (when they all survive).
fn diff_probe_sets(node: &Plan) -> Result<Vec<Vec<usize>>> {
    let cols = node.output_cols();
    let mut sets = Vec::new();
    for (alias, _) in node.scans() {
        let mut set = Vec::new();
        let mut by_base: Vec<(usize, usize)> = Vec::new(); // (base col, out pos)
        for (pos, c) in cols.iter().enumerate() {
            if let Some(o) = &c.origin {
                if o.alias == alias {
                    by_base.push((o.column, pos));
                }
            }
        }
        // We need the alias's key columns; without the base schema here
        // we approximate with "all surviving columns of the alias that
        // are part of the subview's IDs".
        let ids = infer_ids(node)?;
        for (_, pos) in by_base {
            if ids.contains(&pos) {
                set.push(pos);
            }
        }
        set.sort_unstable();
        set.dedup();
        if !set.is_empty() {
            sets.push(set);
        }
    }
    sets.sort();
    sets.dedup();
    Ok(sets)
}

/// The Ī′ column sets the i-diffs reaching the subview `node` can carry
/// — what APPLY locates its targets by (paper Section 2). They follow
/// Pass 1's ID provenance (Table 1): the output IDs of every node of the
/// subtree, each mapped up through its ancestors to `node`'s output
/// columns the way the rules map a diff's IDs. A node's set is dropped
/// where its IDs stop reaching the output: below a grouping (whose
/// diffs are keyed by the group), a projection that does not copy them,
/// or the right side of a semi- or antijoin (whose diffs come out keyed
/// by the left side). Sorted, without duplicates.
///
/// # Errors
/// ID-inference failures on malformed plans.
pub fn apply_id_sets(node: &Plan) -> Result<Vec<Vec<usize>>> {
    let mut sets = BTreeSet::from([infer_ids(node)?]);
    match node {
        Plan::Scan { .. } | Plan::GroupBy { .. } => {}
        Plan::Select { input, .. } => sets.extend(apply_id_sets(input)?),
        Plan::Project { input, cols } => {
            let to_output = |c: usize| {
                cols.iter()
                    .position(|(_, e)| matches!(e, Expr::Col(i) if *i == c))
            };
            for set in apply_id_sets(input)? {
                if let Some(mapped) = set.into_iter().map(to_output).collect() {
                    sets.insert(mapped);
                }
            }
        }
        Plan::Join {
            kind, left, right, ..
        } => {
            sets.extend(apply_id_sets(left)?);
            if kind.keeps_right() {
                let off = left.arity();
                for set in apply_id_sets(right)? {
                    sets.insert(set.into_iter().map(|c| c + off).collect());
                }
            }
        }
        Plan::UnionAll { left, right } => {
            // A branch's diff gains the branch column after its IDs.
            let branch = node.arity() - 1;
            for mut set in apply_id_sets(left)?
                .into_iter()
                .chain(apply_id_sets(right)?)
            {
                set.push(branch);
                sets.insert(set);
            }
        }
    }
    Ok(sets.into_iter().collect())
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

    /// Each node's IDs reach the subview's columns or drop out: a
    /// join keeps both sides' sets and its own, a grouping only its
    /// keys, a semijoin only the left side's.
    #[test]
    fn id_sets_follow_the_ids_up_to_the_subview() {
        let cat = catalog();
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
        assert_eq!(
            apply_id_sets(&inner).unwrap(),
            vec![vec![0], vec![0, 2, 3], vec![2, 3]]
        );
        let grouped = join(JoinKind::Inner)
            .group_by(&["devices_parts.did"], &[(AggFunc::Count, "*", "n")])
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(apply_id_sets(&grouped).unwrap(), vec![vec![0]]);
        let semi = join(JoinKind::Semi).build().unwrap();
        assert_eq!(apply_id_sets(&semi).unwrap(), vec![vec![0]]);
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
