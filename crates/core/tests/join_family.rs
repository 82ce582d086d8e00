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

use idivm_algebra::{Expr, JoinKind, Plan, PlanBuilder};
use idivm_core::access::{self, AccessCtx};
use idivm_core::diff::State;
use idivm_core::rules::{self, IncomingDiff, RuleCtx};
use idivm_core::{DiffInstance, DiffSchema};
use idivm_exec::{DbCatalog, ParallelConfig};
use idivm_reldb::Database;
use idivm_types::{ColumnType, Key, Row, Schema, Value};
use std::collections::HashMap;
use std::fmt::Write as _;

/// NULL in the row literals below.
const N: i64 = i64::MIN;

/// One input, `(id, key, cond, payload)`: `key` is the join column,
/// `cond` the residual's, `payload` read by no condition.
struct Input {
    name: &'static str,
    cols: [&'static str; 4],
    before: &'static [[i64; 4]],
    inserts: &'static [[i64; 4]],
    deletes: &'static [i64],
    /// `(id, payload)`: condition-free updates.
    free: &'static [(i64, i64)],
    /// `(id, key, cond)`: condition-touching updates.
    touch: &'static [(i64, i64, i64)],
}

const LEFT: Input = Input {
    name: "l",
    cols: ["id", "a", "v", "p"],
    before: &[
        [1, 1, 10, 0],
        [2, 1, 50, 0],
        [3, 2, 20, 0],
        [4, N, 30, 0],
        [5, 3, 40, 0],
        [6, 2, 60, 0],
        [7, 4, 5, 0],
        [8, N, 15, 0],
        [9, 5, 25, 0],
        [10, 3, 35, 0],
        [11, 6, 45, 0],
        [12, 6, 55, 0],
        [13, N, 12, 0],
    ],
    inserts: &[[20, 2, 15, 0], [21, N, 5, 0], [22, 9, 1, 0], [23, 1, 99, 0]],
    deletes: &[3, 4, 7],
    free: &[(1, 7), (5, 7), (8, 7)],
    touch: &[(2, 2, 50), (6, N, 60), (9, 3, 25), (10, 3, 1), (13, 6, 12)],
};

const RIGHT: Input = Input {
    name: "r",
    cols: ["id", "b", "w", "q"],
    before: &[
        [100, 1, 30, 0],
        [101, 2, 10, 0],
        [102, 2, 70, 0],
        [103, N, 20, 0],
        [104, 3, 50, 0],
        [105, 4, 1, 0],
        [106, 5, 100, 0],
        [107, N, 40, 0],
        [108, 6, 50, 0],
        [109, 7, 20, 0],
    ],
    inserts: &[
        [110, 2, 90, 0],
        [111, N, 5, 0],
        [112, 5, 1, 0],
        [113, 8, 10, 0],
        [114, 6, 10, 0],
    ],
    deletes: &[100, 103, 106],
    free: &[(101, 7), (107, 7), (108, 7)],
    touch: &[(102, 3, 70), (104, N, 50), (105, 4, 100), (109, 4, 20)],
};

fn row(vals: &[i64]) -> Row {
    vals.iter()
        .map(|&v| if v == N { Value::Null } else { Value::Int(v) })
        .collect()
}

fn int(v: i64) -> Value {
    row(&[v])[0].clone()
}

fn before(input: &Input, id: i64) -> Row {
    row(input.before.iter().find(|r| r[0] == id).unwrap())
}

/// Load both inputs, then run the round's changes with logging on.
fn database() -> Database {
    let mut db = Database::new();
    db.set_logging(false);
    for input in [&LEFT, &RIGHT] {
        let cols: Vec<(&str, ColumnType)> =
            input.cols.iter().map(|&c| (c, ColumnType::Int)).collect();
        db.create_table(input.name, Schema::from_pairs(&cols, &["id"]).unwrap())
            .unwrap();
        db.table_mut(input.name)
            .unwrap()
            .create_index(&[input.cols[1]])
            .unwrap();
        for r in input.before {
            db.insert(input.name, row(r)).unwrap();
        }
    }
    db.set_logging(true);
    for input in [&LEFT, &RIGHT] {
        let [_, key, cond, payload] = input.cols;
        for r in input.inserts {
            db.insert(input.name, row(r)).unwrap();
        }
        for &id in input.deletes {
            db.delete(input.name, &Key(vec![int(id)])).unwrap();
        }
        for &(id, p) in input.free {
            db.update_named(input.name, &Key(vec![int(id)]), &[(payload, int(p))])
                .unwrap();
        }
        for &(id, k, c) in input.touch {
            let set = [(key, int(k)), (cond, int(c))];
            db.update_named(input.name, &Key(vec![int(id)]), &set)
                .unwrap();
        }
    }
    db
}

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
    let db = database();
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
