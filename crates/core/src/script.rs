//! Human-readable rendering of the generated ∆-script — the engine's
//! equivalent of paper Figure 7.
//!
//! The engine interprets the composed rule DAG directly rather than
//! emitting SQL text; this module renders the same structure as a
//! script: one block per base-table i-diff schema, the instantiated
//! rule per operator on the path to the root, and the APPLY statements
//! at every cache boundary and at the view.

use crate::engine::IdIvm;
use crate::schema_gen::TableDiffSchemas;
use idivm_algebra::{JoinKind, Plan};
use std::fmt::Write as _;

/// Render the ∆-script of a configured engine.
pub fn explain_script(engine: &IdIvm) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "-- ∆-script for view `{}`", engine.view_name());
    let _ = writeln!(
        out,
        "-- minimization: {}",
        on_off(engine.options().minimize)
    );
    if !engine.caches().is_empty() {
        let _ = writeln!(out, "-- intermediate caches:");
        for c in engine.caches() {
            let _ = writeln!(out, "--   {} materializes subplan @{:?}", c.name, c.path);
        }
    }
    let mut tables: Vec<&String> = engine.schemas().tables.keys().collect();
    tables.sort();
    for table in tables {
        let schemas = &engine.schemas().tables[table];
        render_table_block(&mut out, engine, table, schemas);
    }
    let _ = writeln!(out, "APPLY ∆_V  -- UPDATE/INSERT/DELETE on `{}`", engine.view_name());
    out
}

fn render_table_block(
    out: &mut String,
    engine: &IdIvm,
    table: &str,
    schemas: &TableDiffSchemas,
) {
    let _ = writeln!(out, "\n-- base table `{table}`");
    let _ = writeln!(out, "∆+_{table}(Ī, Ā_post)   -- single insert schema");
    let _ = writeln!(out, "∆-_{table}(Ī, Ā_pre)    -- single delete schema");
    for (i, g) in schemas.updates.iter().enumerate() {
        let label = if g.non_conditional {
            "non-conditional NC"
        } else {
            "conditional C_op"
        };
        let _ = writeln!(
            out,
            "∆u_{table}#{i}(Ī, Ā_pre, Ā′_post) with Ā′ = {:?}  -- {label}",
            g.post_attrs
        );
    }
    let _ = writeln!(out, "-- propagation path:");
    render_path(out, engine.plan(), table, 0);
}

fn render_path(out: &mut String, node: &Plan, table: &str, depth: usize) {
    // Print operators bottom-up along every path from a scan of `table`
    // to the root: recurse first, print after.
    let reaches = node.scans().iter().any(|(_, t)| *t == table);
    if !reaches {
        return;
    }
    for c in node.children() {
        render_path(out, c, table, depth + 1);
    }
    let desc = match node {
        Plan::Scan { alias, .. } => format!("SCAN {alias}: emit base i-diffs"),
        Plan::Select { pred, .. } => format!(
            "σ {pred}: filter ∆⁺ by φ(post); ∆−/∆u pass (pre-filtered when minimized); \
             condition-affected updates split into ∆⁺/∆−/∆u"
        ),
        Plan::Project { cols, .. } => format!(
            "π [{} cols]: remap IDs, recompute touched expressions",
            cols.len()
        ),
        Plan::Join { kind, on, .. } => match kind {
            JoinKind::Inner => format!(
                "⋈ [{} keys]: ∆⁺ probes the other side; ∆−/∆u on non-join attrs pass through",
                on.len()
            ),
            JoinKind::LeftOuter => format!(
                "⟕ [{} keys]: inner-join deltas plus padding repair — a first right \
                 match retracts the padded row, a last right removal re-pads",
                on.len()
            ),
            JoinKind::Semi => "⋉: membership re-checked via probes".to_string(),
            JoinKind::Anti => "▷: negated membership re-checked via probes".to_string(),
        },
        Plan::UnionAll { .. } => "∪: append branch attribute to IDs".to_string(),
        Plan::GroupBy { keys, aggs, .. } => format!(
            "γ [{} keys, {} aggs]: blocking delta rules (SUM/COUNT) or group \
             recomputation; convert via Output join",
            keys.len(),
            aggs.len()
        ),
    };
    let _ = writeln!(out, "  {}{desc}", "  ".repeat(depth));
}

fn on_off(b: bool) -> &'static str {
    if b {
        "on"
    } else {
        "off"
    }
}
