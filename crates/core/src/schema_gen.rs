//! Base-table i-diff schema generation and instance population — paper
//! Section 5.
//!
//! For every base table `R(Ī, Ā)` in the view:
//!
//! * one **insert** schema `∆⁺_R(Ī, Ā_post)` (all attributes),
//! * one **delete** schema `∆−_R(Ī, Ā_pre)` (pre-state of all non-key
//!   attributes — "pre-state values can lead only to a more efficient
//!   ∆-script"),
//! * one **update** schema per *conditional attribute set* `C_op` (the
//!   non-key attributes of `R` referenced by operator `op`'s condition)
//!   plus one for the *non-conditional* set `NC` — all carrying full
//!   pre-state: `∆u_R(Ī, Ā_pre, Ā′_post)` with `Ā′ = Ā ∩ C_op`.
//!
//! Grouping updates this way avoids the exponential blow-up of one
//! schema per attribute subset while keeping the cheap non-conditional
//! path separate from condition-affecting updates.
//!
//! At maintenance time, [`populate`] converts the folded modification
//! log (effective net changes) into instances: an update lands in
//! *every* update schema that covers at least one modified attribute.

use crate::diff::{DiffInstance, DiffSchema, Layout};
use idivm_algebra::Plan;
use idivm_reldb::{NetChange, TableChanges};
use idivm_types::{Result, Row, Schema};
use std::collections::{BTreeSet, HashMap};

/// Update-diff schema for one attribute group of one base table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateGroup {
    /// Non-key column positions (in the base table schema) whose updates
    /// this schema covers (`Ā′ = Ā ∩ C_op`, or `Ā ∩ NC`).
    pub post_attrs: Vec<usize>,
    /// True for the non-conditional group `NC` — updates here never
    /// affect selections, joins, or grouping, which is the cheap path of
    /// the paper's analysis (Section 6, case (a)).
    pub non_conditional: bool,
}

/// All i-diff schemas of one base table.
#[derive(Debug, Clone)]
pub struct TableDiffSchemas {
    /// Positions of the primary-key columns.
    pub key: Vec<usize>,
    /// Positions of the non-key columns.
    pub non_key: Vec<usize>,
    /// Update groups (conditional sets first, `NC` last when nonempty).
    pub updates: Vec<UpdateGroup>,
    arity: usize,
}

impl TableDiffSchemas {
    /// The single insert schema `∆⁺_R(Ī, Ā_post)`.
    pub fn insert_schema(&self) -> DiffSchema {
        DiffSchema::insert(&self.key, self.arity)
    }

    /// The single delete schema `∆−_R(Ī, Ā_pre)`.
    pub fn delete_schema(&self) -> DiffSchema {
        DiffSchema::delete(&self.key, &self.non_key)
    }

    /// The update schema of group `g`: `∆u_R(Ī, Ā_pre, Ā′_post)`.
    pub fn update_schema(&self, g: &UpdateGroup) -> DiffSchema {
        DiffSchema::update(&self.key, &self.non_key, &g.post_attrs)
    }
}

/// i-diff schemas for every base table of a view, generated at view
/// definition time.
#[derive(Debug, Clone, Default)]
pub struct BaseDiffSchemas {
    /// Table name → its schemas.
    pub tables: HashMap<String, TableDiffSchemas>,
}

/// Generate the base-table i-diff schemas for a view plan (paper
/// Section 5's schema generator). `catalog` maps table name → schema.
///
/// # Errors
/// Malformed plans.
pub fn generate(plan: &Plan, catalog: &HashMap<String, Schema>) -> Result<BaseDiffSchemas> {
    // 1. Collect conditional attribute sets per operator, expressed as
    //    (table, base column) pairs via provenance.
    let mut cond_sets = Vec::new();
    collect_conditions(plan, &mut cond_sets);

    // 2. Per table: conditional groups (deduped) + the NC remainder.
    let mut out = BaseDiffSchemas::default();
    for (_, table) in plan.scans() {
        let schema = match catalog.get(table) {
            Some(s) => s,
            None => continue,
        };
        let key = schema.key().to_vec();
        let non_key = schema.non_key();
        let mut groups: Vec<UpdateGroup> = Vec::new();
        let mut conditional_attrs: BTreeSet<usize> = BTreeSet::new();
        let mut seen_sets: BTreeSet<Vec<usize>> = BTreeSet::new();
        for set in &cond_sets {
            let local: Vec<usize> = set
                .iter()
                .filter(|(t, _)| *t == table)
                .map(|(_, c)| *c)
                .filter(|c| !key.contains(c)) // keys are immutable
                .collect();
            if local.is_empty() || !seen_sets.insert(local.clone()) {
                continue;
            }
            conditional_attrs.extend(local.iter().copied());
            groups.push(UpdateGroup {
                post_attrs: local,
                non_conditional: false,
            });
        }
        let nc: Vec<usize> = non_key
            .iter()
            .copied()
            .filter(|c| !conditional_attrs.contains(c))
            .collect();
        if !nc.is_empty() {
            groups.push(UpdateGroup {
                post_attrs: nc,
                non_conditional: true,
            });
        }
        out.tables.insert(
            table.to_string(),
            TableDiffSchemas {
                key,
                non_key,
                updates: groups,
                arity: schema.arity(),
            },
        );
    }
    Ok(out)
}

/// Collect the conditional attribute set `C_op` of every operator, in
/// preorder, as base-table provenance pairs: the base attributes behind
/// each input's condition columns ([`Plan::cond_cols`]), one set per
/// operator over all its inputs. Selections, join conditions (keys and
/// residuals, semi- and antijoins included) and grouping columns all
/// count — an update touching any of them can change *which* tuples the
/// operator emits, not just their values. Computed columns contribute
/// nothing: they cannot be directly updated.
fn collect_conditions<'p>(node: &'p Plan, out: &mut Vec<BTreeSet<(&'p str, usize)>>) {
    let mut set = BTreeSet::new();
    for (side, input) in node.children().into_iter().enumerate() {
        let base = input.base_cols();
        let cond = node.cond_cols(side);
        set.extend(cond.iter().filter_map(|&c| base[c]).map(|(_, t, c)| (t, c)));
    }
    if !set.is_empty() {
        out.push(set);
    }
    for input in node.children() {
        collect_conditions(input, out);
    }
}

/// Populate i-diff instances from the effective net changes of one
/// table (Section 5's instance generator). Updates are added to every
/// update schema covering at least one modified attribute.
pub fn populate(schemas: &TableDiffSchemas, changes: &TableChanges) -> Vec<DiffInstance> {
    // Each list is sized for the whole change set up front: one
    // allocation per list and one per diff row, none to grow.
    let sized = || Vec::<Row>::with_capacity(changes.len());
    let mut inserts = sized();
    let mut deletes = sized();
    let mut per_group: Vec<Vec<Row>> = schemas.updates.iter().map(|_| sized()).collect();
    // Diff rows lead with the key, then every non-key column.
    let layout = Layout::diff_rows(
        &schemas.key,
        &schemas.non_key,
        schemas.key.len() + schemas.non_key.len(),
    );
    let leading = |image: &Row| layout.apply(image);
    for change in changes.values() {
        match change {
            NetChange::Inserted { post } => {
                inserts.push(leading(post));
            }
            NetChange::Deleted { pre } => {
                deletes.push(leading(pre));
            }
            NetChange::Updated { pre, post } => {
                for (g, rows) in schemas.updates.iter().zip(&mut per_group) {
                    if g.post_attrs.iter().any(|&c| pre[c] != post[c]) {
                        rows.push(
                            schemas
                                .key
                                .iter()
                                .chain(&schemas.non_key)
                                .map(|&c| &pre[c])
                                .chain(g.post_attrs.iter().map(|&c| &post[c]))
                                .cloned()
                                .collect(),
                        );
                    }
                }
            }
        }
    }
    let mut out = Vec::new();
    if !inserts.is_empty() {
        out.push(DiffInstance::new(schemas.insert_schema(), inserts));
    }
    if !deletes.is_empty() {
        out.push(DiffInstance::new(schemas.delete_schema(), deletes));
    }
    for (g, rows) in schemas.updates.iter().zip(per_group) {
        if !rows.is_empty() {
            out.push(DiffInstance::new(schemas.update_schema(g), rows));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use idivm_algebra::PlanBuilder;
    use idivm_types::{row, ColumnType, Key, Value};

    fn catalog() -> HashMap<String, Schema> {
        let mut m = HashMap::new();
        m.insert(
            "parts".to_string(),
            Schema::from_pairs(
                &[
                    ("pid", ColumnType::Str),
                    ("price", ColumnType::Int),
                    ("weight", ColumnType::Int),
                ],
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

    fn running_example_plan(cat: &HashMap<String, Schema>) -> Plan {
        PlanBuilder::scan(cat, "parts")
            .unwrap()
            .join(
                PlanBuilder::scan(cat, "devices_parts").unwrap(),
                &[("parts.pid", "devices_parts.pid")],
            )
            .unwrap()
            .join(
                PlanBuilder::scan(cat, "devices").unwrap(),
                &[("devices_parts.did", "devices.did")],
            )
            .unwrap()
            .select_eq("devices.category", "phone")
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn conditional_vs_nonconditional_split() {
        let cat = catalog();
        let plan = running_example_plan(&cat);
        let gen = generate(&plan, &cat).unwrap();
        // devices.category is conditional (selection); parts.price and
        // parts.weight are non-conditional.
        let devices = &gen.tables["devices"];
        assert_eq!(devices.updates.len(), 1);
        assert!(!devices.updates[0].non_conditional);
        assert_eq!(devices.updates[0].post_attrs, vec![1]); // category

        let parts = &gen.tables["parts"];
        assert_eq!(parts.updates.len(), 1);
        assert!(parts.updates[0].non_conditional);
        assert_eq!(parts.updates[0].post_attrs, vec![1, 2]); // price, weight

        // devices_parts has only key columns: no update schemas at all.
        let dp = &gen.tables["devices_parts"];
        assert!(dp.updates.is_empty());
    }

    #[test]
    fn group_by_keys_are_conditional() {
        let cat = catalog();
        let plan = PlanBuilder::scan(&cat, "parts")
            .unwrap()
            .group_by(
                &["parts.weight"],
                &[(idivm_algebra::AggFunc::Sum, "parts.price", "total")],
            )
            .unwrap()
            .build()
            .unwrap();
        let gen = generate(&plan, &cat).unwrap();
        let parts = &gen.tables["parts"];
        // weight is conditional (grouping), price non-conditional.
        assert_eq!(parts.updates.len(), 2);
        let cond = parts.updates.iter().find(|g| !g.non_conditional).unwrap();
        assert_eq!(cond.post_attrs, vec![2]);
        let nc = parts.updates.iter().find(|g| g.non_conditional).unwrap();
        assert_eq!(nc.post_attrs, vec![1]);
    }

    #[test]
    fn populate_routes_updates_to_covering_groups() {
        let cat = catalog();
        let plan = running_example_plan(&cat);
        let gen = generate(&plan, &cat).unwrap();
        let parts = &gen.tables["parts"];
        let mut changes = TableChanges::new();
        changes.insert(
            Key(vec![Value::str("P1")]),
            NetChange::Updated {
                pre: row!["P1", 10, 100],
                post: row!["P1", 11, 100],
            },
        );
        let diffs = populate(parts, &changes);
        assert_eq!(diffs.len(), 1);
        let d = &diffs[0];
        assert_eq!(d.schema.kind, crate::diff::DiffKind::Update);
        // Layout: [pid, price_pre, weight_pre, price_post, weight_post].
        assert_eq!(d.rows, vec![row!["P1", 10, 100, 11, 100]]);
    }

    #[test]
    fn populate_emits_inserts_and_deletes() {
        let cat = catalog();
        let plan = running_example_plan(&cat);
        let gen = generate(&plan, &cat).unwrap();
        let parts = &gen.tables["parts"];
        let mut changes = TableChanges::new();
        changes.insert(
            Key(vec![Value::str("P9")]),
            NetChange::Inserted {
                post: row!["P9", 90, 900],
            },
        );
        changes.insert(
            Key(vec![Value::str("P1")]),
            NetChange::Deleted {
                pre: row!["P1", 10, 100],
            },
        );
        let diffs = populate(parts, &changes);
        assert_eq!(diffs.len(), 2);
        let kinds: BTreeSet<char> = diffs.iter().map(|d| d.schema.kind.symbol()).collect();
        assert_eq!(kinds, ['+', '-'].into_iter().collect());
    }
}
