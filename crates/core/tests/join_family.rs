//! The join family's delta rules (paper Tables 4, 10 and 13), pinned
//! call by call: every kind (inner, left outer, semi, anti) × input side
//! × diff (insert, delete, condition-free update, condition-touching
//! update) × residual (none, one) × Pass 4 (on, off). Each diff is a
//! multi-row batch with NULL join keys, handed to `rules::propagate`
//! over one round in which both inputs changed. Each call's emitted
//! instances (kind, schema, rows, in order) and counted accesses go to
//! `tests/golden/join_family.txt`, followed by every join node's subview
//! scans and lookups in both states (`access::scan`, `access::lookup`).
//! The file is compared byte for byte; `IDIVM_BLESS=1` rewrites it.

#![allow(clippy::unwrap_used)]

#[path = "../../../tests/common/mod.rs"]
mod common;
#[path = "join_family/inputs.rs"]
mod inputs;

use idivm_algebra::{Expr, JoinKind, Plan, PlanBuilder};
use idivm_core::access::{self, AccessCtx};
use idivm_core::diff::State;
use idivm_core::rules::{self, IncomingDiff, RuleCtx};
use idivm_core::{DiffInstance, DiffSchema};
use idivm_exec::{DbCatalog, ParallelConfig};
use idivm_types::{Row, Value};
use inputs::{before, database, int, row, Input, LEFT, RIGHT};
use std::collections::HashMap;
use std::fmt::Write as _;

/// The round's four diffs on `input`, named.
fn diffs(input: &Input) -> Vec<(&'static str, DiffInstance)> {
    let inserts: Vec<Row> = input.inserts.iter().map(|r| row(r)).collect();
    let deletes = input.deletes.iter().map(|&id| {
        let pre = before(input, id);
        Row::from([pre[0].clone(), pre[1].clone()])
    });
    let free = input.free.iter().map(|&(id, p)| {
        let pre = before(input, id);
        Row::from([pre[0].clone(), pre[3].clone(), int(p)])
    });
    let touch = input.touch.iter().map(|&(id, k, c)| {
        let pre = before(input, id);
        Row::from([
            pre[0].clone(),
            pre[1].clone(),
            pre[2].clone(),
            int(k),
            int(c),
        ])
    });
    vec![
        ("insert", DiffInstance::insert_from_rows(&[0], 4, &inserts)),
        (
            "delete",
            DiffInstance::new(DiffSchema::delete(&[0], &[1]), deletes.collect()),
        ),
        (
            "condition-free update",
            DiffInstance::new(DiffSchema::update(&[0], &[3], &[3]), free.collect()),
        ),
        (
            "condition-touching update",
            DiffInstance::new(DiffSchema::update(&[0], &[1, 2], &[1, 2]), touch.collect()),
        ),
    ]
}

/// One line per row, indented.
fn rows(text: &mut String, rows: &[Row]) {
    for r in rows {
        writeln!(text, "    {r:?}").unwrap();
    }
}

/// The probes of a join node's subview: by a left ID (present, NULL
/// key, inserted this round), by the join key, and — where the output
/// carries the right columns — by a right ID, a NULL right ID and both.
fn probes(kind: JoinKind) -> Vec<(Vec<usize>, Vec<Value>)> {
    let mut out = vec![
        (vec![0], vec![int(2)]),
        (vec![0], vec![int(8)]),
        (vec![0], vec![int(20)]),
        (vec![1], vec![int(3)]),
    ];
    if matches!(kind, JoinKind::Inner | JoinKind::LeftOuter) {
        out.push((vec![4], vec![int(104)]));
        out.push((vec![4], vec![Value::Null]));
        out.push((vec![0, 4], vec![int(5), int(104)]));
    }
    out
}

#[test]
fn join_family_rules_are_pinned() {
    let db = database(&[&LEFT, &RIGHT]);
    let net = db.fold_log();
    let (caches, cache_changes) = (HashMap::new(), HashMap::new());
    let access = AccessCtx {
        db: &db,
        base_changes: &net,
        caches: &caches,
        cache_changes: &cache_changes,
    };
    let cat = DbCatalog(&db);
    let sides = [(0, diffs(&LEFT)), (1, diffs(&RIGHT))];
    let kinds = [
        JoinKind::Inner,
        JoinKind::LeftOuter,
        JoinKind::Semi,
        JoinKind::Anti,
    ];
    let path = Vec::new();
    let mut text = String::new();
    let cost = |text: &mut String, what: String| {
        let s = db.stats().snapshot();
        let (t, i) = (s.tuple_accesses, s.index_lookups);
        writeln!(text, "{what}: {t} tuples + {i} lookups").unwrap();
    };
    for kind in kinds {
        for residual in [None, Some(Expr::col(2).lt(Expr::col(6)))] {
            let has = if residual.is_some() { "v < w" } else { "none" };
            let plan: Plan = PlanBuilder::scan(&cat, "l")
                .unwrap()
                .join_kind(
                    kind,
                    PlanBuilder::scan(&cat, "r").unwrap(),
                    &[("l.a", "r.b")],
                    residual,
                )
                .unwrap()
                .build()
                .unwrap();
            for minimize in [true, false] {
                let ctx = RuleCtx {
                    access: &access,
                    minimize,
                    parallel: ParallelConfig::serial(),
                    faults: None,
                    rescans: None,
                };
                for (side, diffs) in &sides {
                    for (what, diff) in diffs {
                        db.stats().reset();
                        let incoming = vec![IncomingDiff {
                            side: *side,
                            diff: diff.clone(),
                        }];
                        let out = rules::propagate(&ctx, &plan, &path, incoming).unwrap();
                        let at = format!(
                            "{kind:?} residual {has}, minimize {minimize}, side {side}, {what}"
                        );
                        cost(&mut text, at);
                        for d in &out {
                            let s = &d.schema;
                            let (k, ids, pre, post) =
                                (s.kind.symbol(), &s.id_cols, &s.pre_cols, &s.post_cols);
                            writeln!(text, "  {k} ids {ids:?} pre {pre:?} post {post:?}").unwrap();
                            rows(&mut text, &d.rows);
                        }
                    }
                }
            }
            for state in [State::Pre, State::Post] {
                db.stats().reset();
                let all = access::scan(&access, &plan, &path, state).unwrap();
                cost(
                    &mut text,
                    format!("{kind:?} residual {has}, scan {state:?}"),
                );
                rows(&mut text, &all);
                for (cols, probe) in probes(kind) {
                    db.stats().reset();
                    let got = access::lookup(&access, &plan, &path, state, &cols, &probe).unwrap();
                    let at =
                        format!("{kind:?} residual {has}, lookup {state:?} {cols:?} = {probe:?}");
                    cost(&mut text, at);
                    rows(&mut text, &got);
                }
            }
        }
    }
    common::assert_pinned("tests/golden/join_family.txt", &text);
}
