//! Tuple-IVM's join family, pinned call by call: every kind (inner,
//! left outer, semi, anti) × input side × t-diff (insert, delete,
//! condition-free update, condition-touching update) × residual (none,
//! one) × whether the other input changed in the round. Each t-diff is
//! a multi-row batch of full rows with NULL join keys, built from the
//! inputs core's join-family suite pins its rules on, and handed to
//! `propagate` at one join node. Each call's inserts, deletes and
//! updates (in order) and counted accesses at one thread go to
//! `tests/golden/join_family.txt`; four threads must emit the same rows
//! at the same cost. The file is compared byte for byte;
//! `IDIVM_BLESS=1` rewrites it.

#![allow(clippy::unwrap_used)]

#[path = "../../../tests/common/mod.rs"]
mod common;
#[path = "../../core/tests/join_family/inputs.rs"]
mod inputs;

use idivm_algebra::{Expr, JoinKind, Plan, PlanBuilder};
use idivm_core::access::AccessCtx;
use idivm_core::faults::{FaultPlan, FaultState};
use idivm_exec::{DbCatalog, ParallelConfig};
use idivm_reldb::Database;
use idivm_tuple::propagate::{propagate, TupleCtx};
use idivm_tuple::TDiffs;
use idivm_types::{Key, Row};
use inputs::{before, database, int, row, Input, LEFT, RIGHT};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::AtomicU64;

/// The round's four t-diffs on `input`, named: full rows, each update
/// as its row before the round and after.
fn diffs(input: &Input) -> Vec<(&'static str, TDiffs)> {
    let update = |id: i64, set: &[(usize, i64)]| -> (Row, Row) {
        let pre = before(input, id);
        let value = |c: usize| set.iter().find(|&&(s, _)| s == c).map(|&(_, v)| int(v));
        let post = (pre.iter().enumerate())
            .map(|(c, v)| value(c).unwrap_or_else(|| v.clone()))
            .collect();
        (pre, post)
    };
    let inserts = TDiffs {
        inserts: input.inserts.iter().map(|r| row(r)).collect(),
        ..TDiffs::default()
    };
    let deletes = TDiffs {
        deletes: input.deletes.iter().map(|&id| before(input, id)).collect(),
        ..TDiffs::default()
    };
    let free = TDiffs {
        updates: input
            .free
            .iter()
            .map(|&(id, p)| update(id, &[(3, p)]))
            .collect(),
        ..TDiffs::default()
    };
    let touch = TDiffs {
        updates: (input.touch.iter())
            .map(|&(id, k, c)| update(id, &[(1, k), (2, c)]))
            .collect(),
        ..TDiffs::default()
    };
    vec![
        ("insert", inserts),
        ("delete", deletes),
        ("condition-free update", free),
        ("condition-touching update", touch),
    ]
}

/// A round hook for [`TupleCtx`] (the fault state, the rescan
/// counter), borrowed as its field takes it.
fn hook<'a, T, H: From<&'a T>>(h: &'a T) -> H {
    H::from(h)
}

/// Propagate `diff`, arriving from `side`, through the join `plan` on
/// `threads` threads: the t-diffs out and the counted accesses, as
/// `(tuples, lookups)`.
fn call(
    db: &Database,
    plan: &Plan,
    side: usize,
    diff: &TDiffs,
    threads: usize,
) -> (TDiffs, (u64, u64)) {
    let net = db.fold_log();
    let (caches, cache_changes) = (HashMap::new(), HashMap::new());
    let access = AccessCtx {
        db,
        base_changes: &net,
        caches: &caches,
        cache_changes: &cache_changes,
    };
    let faults = FaultState::new(FaultPlan::disabled());
    let rescans = AtomicU64::new(0);
    let ctx = TupleCtx {
        access: &access,
        view_name: "v",
        parallel: ParallelConfig {
            threads,
            min_shard_rows: 1,
        },
        faults: hook(&faults),
        rescans: hook(&rescans),
    };
    let mut sides = vec![TDiffs::default(), TDiffs::default()];
    sides[side] = diff.clone();
    db.stats().reset();
    let out = propagate(&ctx, plan, &Vec::new(), sides).unwrap();
    let s = db.stats().snapshot();
    (out, (s.tuple_accesses, s.index_lookups))
}

/// The plan `l ⋈ r` (`kind`) on `a = b` with `residual`.
fn join_plan(db: &Database, kind: JoinKind, residual: Option<Expr>) -> Plan {
    let cat = DbCatalog(db);
    PlanBuilder::scan(&cat, "l")
        .unwrap()
        .join_kind(
            kind,
            PlanBuilder::scan(&cat, "r").unwrap(),
            &[("l.a", "r.b")],
            residual,
        )
        .unwrap()
        .build()
        .unwrap()
}

/// Two emission rules the transcript's round cannot tell apart. ⋈,
/// given a condition-free update while the other input changed, pairs
/// the raw key matches by ID and keeps a pair by its post image's
/// residual: `l2` (`v` 50) and `r100`, whose `w` rose 30 → 60, update
/// rather than insert, and `l5` (`v` 40) and `r104`, whose `w` fell
/// 50 → 30, emit nothing. ⟕ drops the output rows a reached left row
/// keeps unchanged: `r121` adds one row to each of `l3` and `l6`, and
/// their rows with `r101` and `r102` are not re-emitted.
#[test]
fn raw_inner_pairs_and_unchanged_outer_pairs() {
    let mut db = database(&[]);
    let key = |id: i64| Key(vec![int(id)]);
    for id in [1, 2, 5] {
        db.update_named("l", &key(id), &[("p", int(7))]).unwrap();
    }
    for (id, w) in [(100, 60), (104, 30)] {
        db.update_named("r", &key(id), &[("w", int(w))]).unwrap();
    }
    db.insert("r", row(&[121, 2, 5, 0])).unwrap();

    let inner = join_plan(&db, JoinKind::Inner, Some(Expr::col(2).lt(Expr::col(6))));
    let free = |id: i64| {
        let pre = before(&LEFT, id);
        let post = (pre.iter().take(3).cloned()).chain([int(7)]).collect();
        (pre, post)
    };
    let updates = TDiffs {
        updates: vec![free(1), free(2), free(5)],
        ..TDiffs::default()
    };
    let (out, _) = call(&db, &inner, 0, &updates, 1);
    let pair = |l: [i64; 4], w: i64| {
        let r = |w: i64| [100, 1, w, 0];
        let pre = row(&[l, r(30)].concat());
        let post = row(&[[l[0], l[1], l[2], 7], r(w)].concat());
        (pre, post)
    };
    let expect = TDiffs {
        updates: vec![pair([1, 1, 10, 0], 60), pair([2, 1, 50, 0], 60)],
        ..TDiffs::default()
    };
    assert_eq!(out, expect);

    let outer = join_plan(&db, JoinKind::LeftOuter, None);
    let insert = TDiffs {
        inserts: vec![row(&[121, 2, 5, 0])],
        ..TDiffs::default()
    };
    let (out, _) = call(&db, &outer, 1, &insert, 1);
    let expect = TDiffs {
        inserts: vec![
            row(&[3, 2, 20, 0, 121, 2, 5, 0]),
            row(&[6, 2, 60, 0, 121, 2, 5, 0]),
        ],
        ..TDiffs::default()
    };
    assert_eq!(out, expect);
}

#[test]
fn join_family_t_diffs_are_pinned() {
    // The round's changes: to the left input, to the right, to both.
    let rounds = [
        database(&[&LEFT]),
        database(&[&RIGHT]),
        database(&[&LEFT, &RIGHT]),
    ];
    let kinds = [
        JoinKind::Inner,
        JoinKind::LeftOuter,
        JoinKind::Semi,
        JoinKind::Anti,
    ];
    let mut text = String::new();
    for kind in kinds {
        for residual in [None, Some(Expr::col(2).lt(Expr::col(6)))] {
            let has = if residual.is_some() { "v < w" } else { "none" };
            let plan = join_plan(&rounds[2], kind, residual);
            for (side, input) in [(0, &LEFT), (1, &RIGHT)] {
                for (other, db) in [("unchanged", &rounds[side]), ("changed", &rounds[2])] {
                    for (what, diff) in diffs(input) {
                        let at =
                            format!("{kind:?} residual {has}, side {side}, {what}, other {other}");
                        let (out, (t, i)) = call(db, &plan, side, &diff, 1);
                        assert_eq!(
                            call(db, &plan, side, &diff, 4),
                            (out.clone(), (t, i)),
                            "{at}: four threads"
                        );
                        writeln!(text, "{at}: {t} tuples + {i} lookups").unwrap();
                        for r in &out.inserts {
                            writeln!(text, "  + {r:?}").unwrap();
                        }
                        for r in &out.deletes {
                            writeln!(text, "  - {r:?}").unwrap();
                        }
                        for (p, q) in &out.updates {
                            writeln!(text, "  u {p:?} -> {q:?}").unwrap();
                        }
                    }
                }
            }
        }
    }
    common::assert_pinned("tests/golden/join_family.txt", &text);
}
