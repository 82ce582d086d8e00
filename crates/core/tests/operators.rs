//! Per-operator end-to-end coverage: each `QSPJADU` operator exercised
//! through the full engine against the recomputation oracle, including
//! the corners the running-example tests don't reach — union branches,
//! semijoin/antisemijoin right-side diffs, generalized projection with
//! functions, MIN/MAX/AVG (general rule) and multi-aggregate views.

use idivm_algebra::{AggFunc, Expr, Plan, PlanBuilder, ScalarFn};
use idivm_core::{IdIvm, IvmOptions};
use idivm_exec::{executor::sorted, recompute_rows, DbCatalog};
use idivm_reldb::Database;
use idivm_types::{row, ColumnType, Key, Schema, Value};

fn db_two_tables() -> Database {
    let mut db = Database::new();
    db.set_logging(false);
    db.create_table(
        "items",
        Schema::from_pairs(
            &[
                ("id", ColumnType::Int),
                ("grp", ColumnType::Int),
                ("val", ColumnType::Int),
            ],
            &["id"],
        )
        .unwrap(),
    )
    .unwrap();
    db.create_table(
        "tags",
        Schema::from_pairs(
            &[("item", ColumnType::Int), ("tag", ColumnType::Str)],
            &["item", "tag"],
        )
        .unwrap(),
    )
    .unwrap();
    for i in 0..20i64 {
        db.insert("items", row![i, i % 4, i * 10]).unwrap();
    }
    for i in 0..20i64 {
        if i % 2 == 0 {
            db.insert("tags", row![i, "even"]).unwrap();
        }
        if i % 3 == 0 {
            db.insert("tags", row![i, "fizz"]).unwrap();
        }
    }
    db.set_logging(true);
    db
}

fn check(db: &Database, ivm: &IdIvm) {
    let expected = sorted(recompute_rows(db, ivm.plan()).unwrap());
    let actual = sorted(db.table(ivm.view_name()).unwrap().rows_uncounted());
    assert_eq!(actual, expected);
}

fn ik(i: i64) -> Key {
    Key(vec![Value::Int(i)])
}

fn mutate_round(db: &mut Database, round: i64) {
    // A little of everything.
    db.update_named("items", &ik(1), &[("val", Value::Int(round * 100))])
        .unwrap();
    db.update_named("items", &ik(2), &[("grp", Value::Int(round % 4))])
        .unwrap();
    let _ = db.insert("items", row![100 + round, round % 4, 7]);
    let _ = db.delete("items", &ik(3 + round));
    let _ = db.insert("tags", row![1, format!("r{round}").as_str()]);
    let _ = db.delete(
        "tags",
        &Key(vec![Value::Int(round * 2), Value::str("even")]),
    );
}

#[test]
fn generalized_projection_with_functions() {
    let mut db = db_two_tables();
    let cat = DbCatalog(&db);
    let plan = PlanBuilder::scan(&cat, "items")
        .unwrap()
        .project(vec![
            ("id".into(), Expr::col(0)),
            (
                "magnitude".into(),
                Expr::Func {
                    f: ScalarFn::Abs,
                    args: vec![Expr::col(2).sub(Expr::lit(50))],
                },
            ),
            ("bucket".into(), Expr::col(2).div(Expr::lit(30))),
        ])
        .build()
        .unwrap();
    let ivm = IdIvm::setup(&mut db, "V", plan, IvmOptions::default()).unwrap();
    for round in 1..4 {
        mutate_round(&mut db, round);
        ivm.maintain(&mut db).unwrap();
        check(&db, &ivm);
    }
}

#[test]
fn semijoin_with_right_side_churn() {
    let mut db = db_two_tables();
    let cat = DbCatalog(&db);
    let plan = PlanBuilder::scan(&cat, "items")
        .unwrap()
        .semi_join(
            PlanBuilder::scan(&cat, "tags")
                .unwrap()
                .select_eq("tags.tag", "even")
                .unwrap(),
            &[("items.id", "tags.item")],
        )
        .unwrap()
        .build()
        .unwrap();
    let ivm = IdIvm::setup(&mut db, "V", plan, IvmOptions::default()).unwrap();
    // Right-side inserts grant membership; deletes revoke it.
    db.insert("tags", row![1, "even"]).unwrap();
    db.insert("tags", row![5, "even"]).unwrap();
    ivm.maintain(&mut db).unwrap();
    check(&db, &ivm);
    db.delete("tags", &Key(vec![Value::Int(0), Value::str("even")]))
        .unwrap();
    db.delete("tags", &Key(vec![Value::Int(1), Value::str("even")]))
        .unwrap();
    ivm.maintain(&mut db).unwrap();
    check(&db, &ivm);
    // Left updates pass through.
    db.update_named("items", &ik(2), &[("val", Value::Int(999))])
        .unwrap();
    ivm.maintain(&mut db).unwrap();
    check(&db, &ivm);
}

#[test]
fn antisemijoin_negation_with_both_sides() {
    let mut db = db_two_tables();
    let cat = DbCatalog(&db);
    // Items with no tag at all.
    let plan = PlanBuilder::scan(&cat, "items")
        .unwrap()
        .anti_join(
            PlanBuilder::scan(&cat, "tags").unwrap(),
            &[("items.id", "tags.item")],
        )
        .unwrap()
        .build()
        .unwrap();
    let ivm = IdIvm::setup(&mut db, "V", plan, IvmOptions::default()).unwrap();
    for round in 1..5 {
        mutate_round(&mut db, round);
        ivm.maintain(&mut db).unwrap();
        check(&db, &ivm);
    }
    // Deleting the last tag of an item brings it (back) into the view.
    db.delete("tags", &Key(vec![Value::Int(9), Value::str("fizz")]))
        .unwrap();
    ivm.maintain(&mut db).unwrap();
    check(&db, &ivm);
}

#[test]
fn union_of_filtered_branches() {
    let mut db = db_two_tables();
    let cat = DbCatalog(&db);
    let low = PlanBuilder::scan(&cat, "items")
        .unwrap()
        .select(Expr::col(2).lt(Expr::lit(60)))
        .build()
        .unwrap();
    let high = PlanBuilder::scan(&cat, "items")
        .unwrap()
        .select(Expr::col(2).ge(Expr::lit(120)))
        .build()
        .unwrap();
    let plan = Plan::UnionAll {
        left: Box::new(low),
        right: Box::new(high),
    };
    let ivm = IdIvm::setup(&mut db, "V", plan, IvmOptions::default()).unwrap();
    for round in 1..5 {
        mutate_round(&mut db, round);
        ivm.maintain(&mut db).unwrap();
        check(&db, &ivm);
    }
    // An update that moves a row from the low branch to the high one
    // (item 9 survives the churn above).
    db.update_named("items", &ik(9), &[("val", Value::Int(500))])
        .unwrap();
    ivm.maintain(&mut db).unwrap();
    check(&db, &ivm);
}

#[test]
fn min_max_aggregates_use_general_rule() {
    let mut db = db_two_tables();
    let cat = DbCatalog(&db);
    let plan = PlanBuilder::scan(&cat, "items")
        .unwrap()
        .group_by(
            &["items.grp"],
            &[
                (AggFunc::Min, "items.val", "lo"),
                (AggFunc::Max, "items.val", "hi"),
            ],
        )
        .unwrap()
        .build()
        .unwrap();
    let ivm = IdIvm::setup(&mut db, "V", plan, IvmOptions::default()).unwrap();
    // Deleting the current max forces a group recomputation.
    db.delete("items", &ik(19)).unwrap();
    ivm.maintain(&mut db).unwrap();
    check(&db, &ivm);
    // Updating a value below the min.
    db.update_named("items", &ik(8), &[("val", Value::Int(-5))])
        .unwrap();
    ivm.maintain(&mut db).unwrap();
    check(&db, &ivm);
}

#[test]
fn avg_aggregate_via_general_rule() {
    let mut db = db_two_tables();
    let cat = DbCatalog(&db);
    let plan = PlanBuilder::scan(&cat, "items")
        .unwrap()
        .group_by(&["items.grp"], &[(AggFunc::Avg, "items.val", "mean")])
        .unwrap()
        .build()
        .unwrap();
    let ivm = IdIvm::setup(&mut db, "V", plan, IvmOptions::default()).unwrap();
    for round in 1..4 {
        mutate_round(&mut db, round);
        ivm.maintain(&mut db).unwrap();
        check(&db, &ivm);
    }
}

#[test]
fn multi_aggregate_sum_and_count() {
    let mut db = db_two_tables();
    let cat = DbCatalog(&db);
    let plan = PlanBuilder::scan(&cat, "items")
        .unwrap()
        .join(
            PlanBuilder::scan(&cat, "tags").unwrap(),
            &[("items.id", "tags.item")],
        )
        .unwrap()
        .group_by(
            &["items.grp"],
            &[
                (AggFunc::Sum, "items.val", "total"),
                (AggFunc::Count, "*", "n"),
            ],
        )
        .unwrap()
        .build()
        .unwrap();
    let ivm = IdIvm::setup(&mut db, "V", plan, IvmOptions::default()).unwrap();
    for round in 1..5 {
        mutate_round(&mut db, round);
        ivm.maintain(&mut db).unwrap();
        check(&db, &ivm);
    }
}

#[test]
fn group_moving_update_on_group_column() {
    let mut db = db_two_tables();
    let cat = DbCatalog(&db);
    let plan = PlanBuilder::scan(&cat, "items")
        .unwrap()
        .group_by(&["items.grp"], &[(AggFunc::Sum, "items.val", "total")])
        .unwrap()
        .build()
        .unwrap();
    let ivm = IdIvm::setup(&mut db, "V", plan, IvmOptions::default()).unwrap();
    // Move a row between groups (the update touches the group column —
    // the blocking rule is inapplicable, the general rule must run).
    db.update_named("items", &ik(5), &[("grp", Value::Int(0))])
        .unwrap();
    ivm.maintain(&mut db).unwrap();
    check(&db, &ivm);
    // Move every row of a group away: the group must disappear.
    for i in [2i64, 6, 10, 14, 18] {
        db.update_named("items", &ik(i), &[("grp", Value::Int(1))])
            .unwrap();
    }
    ivm.maintain(&mut db).unwrap();
    check(&db, &ivm);
    assert!(db
        .table("V")
        .unwrap()
        .get_uncounted(&Key(vec![Value::Int(2)]))
        .is_none());
}

#[test]
fn theta_join_residual_condition() {
    let mut db = db_two_tables();
    let cat = DbCatalog(&db);
    let left = PlanBuilder::scan_as(&cat, "items", "a").unwrap();
    let right = PlanBuilder::scan_as(&cat, "items", "b").unwrap();
    // a.grp = b.grp AND a.val < b.val
    let plan = left
        .join_kind(
            idivm_algebra::JoinKind::Inner,
            right,
            &[("a.grp", "b.grp")],
            Some(Expr::col(2).lt(Expr::col(5))),
        )
        .unwrap()
        .build()
        .unwrap();
    let ivm = IdIvm::setup(&mut db, "V", plan, IvmOptions::default()).unwrap();
    // Updates on the residual column are condition-affected.
    db.update_named("items", &ik(0), &[("val", Value::Int(1_000))])
        .unwrap();
    ivm.maintain(&mut db).unwrap();
    check(&db, &ivm);
    db.delete("items", &ik(12)).unwrap();
    db.insert("items", row![55, 0, 35]).unwrap();
    ivm.maintain(&mut db).unwrap();
    check(&db, &ivm);
}

/// A right-side update that moves one right row off a left row's key
/// and another onto it affects that left row through both images; the
/// semi- and antijoin re-check and emit it once, not once per image.
#[test]
fn semi_and_anti_right_updates_emit_each_affected_left_row_once() {
    for anti in [false, true] {
        let mut db = Database::new();
        db.set_logging(false);
        let int = ColumnType::Int;
        for (name, col) in [("l", "a"), ("r", "b")] {
            let schema = Schema::from_pairs(&[("id", int), (col, int)], &["id"]).unwrap();
            db.create_table(name, schema).unwrap();
        }
        db.insert("l", row![1, 2]).unwrap();
        db.insert("r", row![10, 1]).unwrap();
        db.insert("r", row![20, 2]).unwrap();
        db.set_logging(true);
        let cat = DbCatalog(&db);
        let (l, r) = (
            PlanBuilder::scan(&cat, "l").unwrap(),
            PlanBuilder::scan(&cat, "r").unwrap(),
        );
        let on = [("l.a", "r.b")];
        let plan = if anti {
            l.anti_join(r, &on)
        } else {
            l.semi_join(r, &on)
        };
        let plan = plan.unwrap().build().unwrap();
        let ivm = IdIvm::setup(&mut db, "V", plan, IvmOptions::default()).unwrap();
        db.update_named("r", &ik(10), &[("b", Value::Int(2))])
            .unwrap();
        db.update_named("r", &ik(20), &[("b", Value::Int(3))])
            .unwrap();
        let rep = ivm.maintain(&mut db).unwrap();
        check(&db, &ivm);
        let kind = if anti { "antijoin" } else { "semijoin" };
        assert_eq!(rep.view_diff_tuples, 1, "{kind}: emitted diff rows");
        assert_eq!(rep.view_outcome.dummies, 1, "{kind}: dummies at APPLY");
    }
}

#[test]
fn stacked_aggregates_get_output_cache() {
    let mut db = db_two_tables();
    let cat = DbCatalog(&db);
    // Count how many groups share each total: γ over γ.
    let inner = PlanBuilder::scan(&cat, "items")
        .unwrap()
        .group_by(&["items.grp"], &[(AggFunc::Sum, "items.val", "total")])
        .unwrap();
    let plan = inner
        .group_by(&["total"], &[(AggFunc::Count, "*", "n_groups")])
        .unwrap()
        .build()
        .unwrap();
    let ivm = IdIvm::setup(&mut db, "V", plan, IvmOptions::default()).unwrap();
    // The inner γ's output must have been materialized as a cache.
    assert!(!ivm.caches().is_empty());
    for round in 1..4 {
        db.update_named("items", &ik(round), &[("val", Value::Int(round * 7))])
            .unwrap();
        ivm.maintain(&mut db).unwrap();
        check(&db, &ivm);
    }
}

/// The select, project and join rules called directly on random i-diff
/// instances, each output compared — schema, rows and row order — with
/// a reference that builds every row the straightforward way: assemble
/// the full (or NULL-padded scratch) input row column by column,
/// evaluate, concatenate, then lay the result out as `[ids…, rest…]`.
mod rule_outputs {
    use idivm_algebra::{infer_ids, Expr, Plan, PlanBuilder};
    use idivm_core::access::{self, AccessCtx};
    use idivm_core::diff::State;
    use idivm_core::rules::{self, join, project, select, RuleCtx};
    use idivm_core::{DiffInstance, DiffKind, DiffSchema, FaultPlan, FaultState};
    use idivm_exec::{DbCatalog, ParallelConfig};
    use idivm_reldb::{Database, Net};
    use idivm_types::{row, ColumnType, Key, Row, Schema, Value};
    use std::collections::{BTreeSet, HashMap};
    use std::sync::atomic::AtomicU64;

    /// SplitMix64, one stream per seed.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn chance(&mut self, pct: u64) -> bool {
            self.next() % 100 < pct
        }

        /// A random subset of `cols`, at least `min` long, in random order.
        fn subset(&mut self, cols: &[usize], min: usize) -> Vec<usize> {
            let mut v = cols.to_vec();
            for i in (1..v.len()).rev() {
                let j = self.below(i + 1);
                v.swap(i, j);
            }
            let len = min + self.below(v.len() - min + 1);
            v.truncate(len);
            v
        }

        /// A small integer, NULL one time in ten.
        fn value(&mut self) -> Value {
            if self.chance(10) {
                Value::Null
            } else {
                Value::Int(self.below(6) as i64)
            }
        }
    }

    fn db() -> Database {
        let int = ColumnType::Int;
        let mut db = Database::new();
        db.set_logging(false);
        db.create_table(
            "l",
            Schema::from_pairs(&[("a", int), ("b", int), ("c", int), ("d", int)], &["a"]).unwrap(),
        )
        .unwrap();
        db.create_table(
            "r",
            Schema::from_pairs(&[("x", int), ("y", int), ("z", int)], &["x"]).unwrap(),
        )
        .unwrap();
        for a in 0..10i64 {
            db.insert("l", row![a, a % 5, (a * 3) % 7, a % 4]).unwrap();
        }
        for x in 0..5i64 {
            db.insert("r", row![x, (x * 2) % 7, x + 1]).unwrap();
        }
        db
    }

    /// A random i-diff over an input of `arity` columns keyed by column
    /// 0: any kind, random ID / pre / post sets in random order, rows
    /// taken from `images` or made up.
    fn gen_diff(rng: &mut Mix, arity: usize, images: &[Row]) -> DiffInstance {
        let all: Vec<usize> = (0..arity).collect();
        let mut ids = if rng.chance(50) {
            vec![0]
        } else {
            rng.subset(&all, 1)
        };
        ids.truncate(arity - 1);
        let rest: Vec<usize> = all.iter().copied().filter(|c| !ids.contains(c)).collect();
        let schema = match rng.below(3) {
            0 => DiffSchema {
                kind: DiffKind::Insert,
                id_cols: ids,
                pre_cols: Vec::new(),
                post_cols: if rng.chance(50) {
                    rest.clone()
                } else {
                    rng.subset(&rest, rest.len())
                },
            },
            1 => DiffSchema::delete(&ids, &rng.subset(&rest, 0)),
            _ => DiffSchema::update(&ids, &rng.subset(&rest, 0), &rng.subset(&rest, 1)),
        };
        let rows = (0..rng.below(6))
            .map(|_| {
                let image: Row = if rng.chance(60) {
                    images[rng.below(images.len())].clone()
                } else {
                    (0..arity).map(|_| rng.value()).collect()
                };
                let kept = schema
                    .id_cols
                    .iter()
                    .chain(&schema.pre_cols)
                    .map(|&c| image[c].clone());
                let posts: Vec<Value> = schema
                    .post_cols
                    .iter()
                    .map(|&c| {
                        if schema.kind == DiffKind::Insert || rng.chance(30) {
                            image[c].clone()
                        } else {
                            rng.value()
                        }
                    })
                    .collect();
                kept.chain(posts).collect()
            })
            .collect();
        DiffInstance::new(schema, rows)
    }

    // -- the reference ------------------------------------------------

    fn source(s: &DiffSchema, c: usize, state: State) -> Option<usize> {
        match state {
            State::Pre => s.pre_source(c),
            State::Post => s.post_source(c),
        }
    }

    fn full(s: &DiffSchema, d: &Row, arity: usize, state: State) -> Option<Row> {
        (0..arity)
            .map(|c| source(s, c, state).map(|i| d[i].clone()))
            .collect::<Option<Vec<_>>>()
            .map(Row::new)
    }

    fn scratch(s: &DiffSchema, d: &Row, arity: usize, state: State) -> Row {
        (0..arity)
            .map(|c| source(s, c, state).map_or(Value::Null, |i| d[i].clone()))
            .collect()
    }

    fn evaluable(s: &DiffSchema, e: &Expr, state: State) -> bool {
        e.columns().iter().all(|&c| source(s, c, state).is_some())
    }

    fn layout(row: &Row, ids: &[usize], rest: &[usize]) -> Row {
        ids.iter().chain(rest).map(|&c| row[c].clone()).collect()
    }

    fn non(ids: &[usize], arity: usize) -> Vec<usize> {
        (0..arity).filter(|c| !ids.contains(c)).collect()
    }

    fn untouched(s: &DiffSchema, cols: &BTreeSet<usize>) -> bool {
        s.post_cols
            .iter()
            .all(|c| !cols.contains(c) || s.id_cols.contains(c))
    }

    fn shifted(d: &DiffInstance, off: usize) -> DiffInstance {
        let shift = |v: &[usize]| v.iter().map(|c| c + off).collect::<Vec<_>>();
        let s = &d.schema;
        DiffInstance::new(
            DiffSchema {
                kind: s.kind,
                id_cols: shift(&s.id_cols),
                pre_cols: shift(&s.pre_cols),
                post_cols: shift(&s.post_cols),
            },
            d.rows.clone(),
        )
    }

    fn filtered(d: &DiffInstance, pred: &Expr, arity: usize, state: State) -> DiffInstance {
        let rows = d
            .rows
            .iter()
            .filter(|r| {
                pred.eval(&scratch(&d.schema, r, arity, state)).unwrap() == Value::Bool(true)
            })
            .cloned()
            .collect();
        DiffInstance::new(d.schema.clone(), rows)
    }

    fn lookup(
        ctx: &RuleCtx<'_>,
        plan: &Plan,
        path: usize,
        state: State,
        cols: &[usize],
        probe: &[Value],
    ) -> Vec<Row> {
        access::lookup(ctx.access, plan, &vec![path], state, cols, probe).unwrap()
    }

    /// Pre/post input rows of an update diff: from the diff when it
    /// covers every column, else probed and paired on the input's IDs.
    fn pairs(ctx: &RuleCtx<'_>, input: &Plan, path: usize, d: &DiffInstance) -> Vec<(Row, Row)> {
        let arity = input.arity();
        let input_ids = infer_ids(input).unwrap();
        let s = &d.schema;
        let mut out = Vec::new();
        for r in &d.rows {
            match (
                full(s, r, arity, State::Pre),
                full(s, r, arity, State::Post),
            ) {
                (Some(pre), Some(post)) => out.push((pre, post)),
                _ => {
                    let probe = &r.0[..s.id_cols.len()];
                    let pres = lookup(ctx, input, path, State::Pre, &s.id_cols, probe);
                    for post in lookup(ctx, input, path, State::Post, &s.id_cols, probe) {
                        if let Some(pre) = pres
                            .iter()
                            .find(|p| input_ids.iter().all(|&c| p[c] == post[c]))
                        {
                            out.push((pre.clone(), post));
                        }
                    }
                }
            }
        }
        out
    }

    fn ref_select(
        ctx: &RuleCtx<'_>,
        pred: &Expr,
        input: &Plan,
        d: &DiffInstance,
    ) -> Vec<DiffInstance> {
        let arity = input.arity();
        let pass = |d: &DiffInstance| {
            if ctx.minimize && evaluable(&d.schema, pred, State::Pre) {
                filtered(d, pred, arity, State::Pre)
            } else {
                d.clone()
            }
        };
        match d.schema.kind {
            DiffKind::Insert => vec![filtered(d, pred, arity, State::Post)],
            DiffKind::Delete => vec![pass(d)],
            DiffKind::Update if untouched(&d.schema, &pred.columns()) => vec![pass(d)],
            DiffKind::Update => {
                let (mut entering, mut leaving, mut staying) = (Vec::new(), Vec::new(), Vec::new());
                for (pre, post) in pairs(ctx, input, 0, d) {
                    match (
                        pred.eval_pred(&pre).unwrap(),
                        pred.eval_pred(&post).unwrap(),
                    ) {
                        (false, true) => entering.push(post),
                        (true, false) => leaving.push(pre),
                        (true, true) => staying.push((pre, post)),
                        (false, false) => {}
                    }
                }
                let ids = infer_ids(input).unwrap();
                let rest = non(&ids, arity);
                let mut out = Vec::new();
                if !entering.is_empty() {
                    let rows = entering.iter().map(|r| layout(r, &ids, &rest)).collect();
                    out.push(DiffInstance::new(DiffSchema::insert(&ids, arity), rows));
                }
                if !leaving.is_empty() {
                    let rows = leaving.iter().map(|r| layout(r, &ids, &rest)).collect();
                    out.push(DiffInstance::new(DiffSchema::delete(&ids, &rest), rows));
                }
                if !staying.is_empty() {
                    let s = DiffSchema::update(&ids, &rest, &d.schema.post_cols);
                    let rows = staying
                        .iter()
                        .map(|(pre, post)| {
                            let ids = s.id_cols.iter().map(|&c| &post[c]);
                            let pres = s.pre_cols.iter().map(|&c| &pre[c]);
                            let posts = s.post_cols.iter().map(|&c| &post[c]);
                            ids.chain(pres).chain(posts).cloned().collect()
                        })
                        .collect();
                    out.push(DiffInstance::new(s, rows));
                }
                out
            }
        }
    }

    fn ref_project(
        ctx: &RuleCtx<'_>,
        cols: &[(String, Expr)],
        input: &Plan,
        d: &DiffInstance,
    ) -> Vec<DiffInstance> {
        let (in_arity, out_arity) = (input.arity(), cols.len());
        let s = &d.schema;
        let out_ids: Vec<usize> = s
            .id_cols
            .iter()
            .map(|&c| cols.iter().position(|(_, e)| *e == Expr::Col(c)).unwrap())
            .collect();
        let node_ids = || {
            infer_ids(&Plan::Project {
                input: Box::new(input.clone()),
                cols: cols.to_vec(),
            })
            .unwrap()
        };
        let eval_all = |r: &Row| -> Row { cols.iter().map(|(_, e)| e.eval(r).unwrap()).collect() };
        let id_vals = |r: &Row| {
            s.id_cols
                .iter()
                .map(|&c| r[s.pre_source(c).unwrap()].clone())
                .collect::<Vec<_>>()
        };
        let carried = |state: State| -> Vec<usize> {
            (0..out_arity)
                .filter(|&o| !out_ids.contains(&o) && evaluable(s, &cols[o].1, state))
                .collect()
        };
        match s.kind {
            DiffKind::Insert => {
                let ids = node_ids();
                let rest = non(&ids, out_arity);
                let rows = d
                    .rows
                    .iter()
                    .map(|r| {
                        layout(
                            &eval_all(&full(s, r, in_arity, State::Post).unwrap()),
                            &ids,
                            &rest,
                        )
                    })
                    .collect();
                vec![DiffInstance::new(DiffSchema::insert(&ids, out_arity), rows)]
            }
            DiffKind::Delete => {
                let pre_outs = carried(State::Pre);
                let rows = d
                    .rows
                    .iter()
                    .map(|r| {
                        let pre = scratch(s, r, in_arity, State::Pre);
                        let pres = pre_outs.iter().map(|&o| cols[o].1.eval(&pre).unwrap());
                        id_vals(r).into_iter().chain(pres).collect()
                    })
                    .collect();
                vec![DiffInstance::new(
                    DiffSchema::delete(&out_ids, &pre_outs),
                    rows,
                )]
            }
            DiffKind::Update => {
                let touched: Vec<usize> = (0..out_arity)
                    .filter(|&o| {
                        !out_ids.contains(&o)
                            && cols[o].1.columns().iter().any(|c| s.post_cols.contains(c))
                    })
                    .collect();
                if touched.is_empty() {
                    return vec![];
                }
                if !touched
                    .iter()
                    .all(|&o| evaluable(s, &cols[o].1, State::Post))
                {
                    let fine = DiffSchema::update(&node_ids(), &[], &touched);
                    let mut rows = Vec::new();
                    for r in &d.rows {
                        for post in lookup(
                            ctx,
                            input,
                            0,
                            State::Post,
                            &s.id_cols,
                            &r.0[..s.id_cols.len()],
                        ) {
                            rows.push(layout(&eval_all(&post), &fine.id_cols, &fine.post_cols));
                        }
                    }
                    return vec![DiffInstance::new(fine, rows)];
                }
                let pre_outs = carried(State::Pre);
                let out = DiffSchema::update(&out_ids, &pre_outs, &touched);
                let rows = d
                    .rows
                    .iter()
                    .map(|r| -> Row {
                        let pre = scratch(s, r, in_arity, State::Pre);
                        let post = scratch(s, r, in_arity, State::Post);
                        let pres = pre_outs.iter().map(|&o| cols[o].1.eval(&pre).unwrap());
                        let posts = touched.iter().map(|&o| cols[o].1.eval(&post).unwrap());
                        id_vals(r).into_iter().chain(pres).chain(posts).collect()
                    })
                    .filter(|r| {
                        touched
                            .iter()
                            .any(|&o| match (out.pre_source(o), out.post_source(o)) {
                                (Some(a), Some(b)) => r[a] != r[b],
                                _ => true,
                            })
                    })
                    .collect();
                vec![DiffInstance::new(out, rows)]
            }
        }
    }

    /// The other side's matches of each full row of the diff's side,
    /// concatenated in output order and filtered by the residual.
    #[allow(clippy::too_many_arguments)]
    fn ref_join_rows(
        ctx: &RuleCtx<'_>,
        rows: &[Row],
        side: usize,
        other: &Plan,
        on: &[(usize, usize)],
        residual: Option<&Expr>,
    ) -> Vec<Row> {
        let (this_keys, other_keys): (Vec<usize>, Vec<usize>) = if side == 0 {
            on.iter().copied().unzip()
        } else {
            on.iter().map(|&(l, r)| (r, l)).unzip()
        };
        let mut out = Vec::new();
        for row in rows {
            let vals: Vec<Value> = this_keys.iter().map(|&c| row[c].clone()).collect();
            if vals.iter().any(Value::is_null) {
                continue;
            }
            for m in lookup(ctx, other, 1 - side, State::Post, &other_keys, &vals) {
                let joined = if side == 0 {
                    row.concat(&m)
                } else {
                    m.concat(row)
                };
                if residual.is_none_or(|p| p.eval_pred(&joined).unwrap()) {
                    out.push(joined);
                }
            }
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn ref_join(
        ctx: &RuleCtx<'_>,
        left: &Plan,
        right: &Plan,
        on: &[(usize, usize)],
        residual: Option<&Expr>,
        side: usize,
        d: &DiffInstance,
    ) -> Vec<DiffInstance> {
        let la = left.arity();
        let out_arity = la + right.arity();
        let (this, other, offset) = if side == 0 {
            (left, right, 0)
        } else {
            (right, left, la)
        };
        let mut cond: BTreeSet<usize> = on
            .iter()
            .map(|&(l, r)| if side == 0 { l } else { r })
            .collect();
        for c in residual.map(Expr::columns).unwrap_or_default() {
            match side {
                0 if c < la => cond.insert(c),
                1 if c >= la => cond.insert(c - la),
                _ => false,
            };
        }
        let mut ids = infer_ids(left).unwrap();
        ids.extend(infer_ids(right).unwrap().into_iter().map(|i| i + la));
        let rest = non(&ids, out_arity);
        let join = |rows: &[Row]| ref_join_rows(ctx, rows, side, other, on, residual);
        let s = &d.schema;
        match s.kind {
            DiffKind::Insert => {
                let rows: Vec<Row> = d
                    .rows
                    .iter()
                    .filter_map(|r| full(s, r, this.arity(), State::Post))
                    .collect();
                let out = join(&rows).iter().map(|j| layout(j, &ids, &rest)).collect();
                vec![DiffInstance::new(DiffSchema::insert(&ids, out_arity), out)]
            }
            DiffKind::Delete => vec![shifted(d, offset)],
            DiffKind::Update if untouched(s, &cond) && ctx.minimize => vec![shifted(d, offset)],
            DiffKind::Update if untouched(s, &cond) => {
                let posts: Vec<Row> = pairs(ctx, this, side, d).into_iter().map(|p| p.1).collect();
                let post_cols: Vec<usize> = s.post_cols.iter().map(|c| c + offset).collect();
                let out = DiffSchema::update(&ids, &[], &post_cols);
                let rows = join(&posts)
                    .iter()
                    .map(|j| layout(j, &ids, &post_cols))
                    .collect();
                vec![DiffInstance::new(out, rows)]
            }
            DiffKind::Update => {
                let (pres, posts): (Vec<Row>, Vec<Row>) =
                    pairs(ctx, this, side, d).into_iter().unzip();
                let old = join(&pres);
                let new = join(&posts);
                let new_keys: BTreeSet<Key> = new.iter().map(|r| r.key(&ids)).collect();
                let leaving: Vec<Row> = old
                    .iter()
                    .filter(|r| !new_keys.contains(&r.key(&ids)))
                    .map(|r| layout(r, &ids, &rest))
                    .collect();
                let mut out = Vec::new();
                if !leaving.is_empty() {
                    out.push(DiffInstance::new(DiffSchema::delete(&ids, &rest), leaving));
                }
                if !new.is_empty() {
                    let rows: Vec<Row> = new.iter().map(|j| layout(j, &ids, &rest)).collect();
                    out.push(DiffInstance::new(
                        DiffSchema::update(&ids, &[], &rest),
                        rows.clone(),
                    ));
                    out.push(DiffInstance::new(DiffSchema::insert(&ids, out_arity), rows));
                }
                out
            }
        }
    }

    fn preds() -> Vec<Expr> {
        vec![
            Expr::col(1).gt(Expr::lit(2i64)),
            Expr::col(2).lt(Expr::col(3)),
            Expr::col(0)
                .ge(Expr::lit(3i64))
                .and(Expr::col(3).ne(Expr::lit(1i64))),
            Expr::IsNull(Box::new(Expr::col(3))).or(Expr::col(1).eq(Expr::lit(0i64))),
            Expr::col(1).add(Expr::col(2)).le(Expr::lit(6i64)),
        ]
    }

    /// Every input column passed through plus some computed ones, in a
    /// random order.
    fn project_cols(rng: &mut Mix) -> Vec<(String, Expr)> {
        let mut cols: Vec<(String, Expr)> = ["a", "b", "c", "d"]
            .iter()
            .enumerate()
            .map(|(i, n)| (n.to_string(), Expr::col(i)))
            .collect();
        let computed = [
            ("bc", Expr::col(1).add(Expr::col(2))),
            ("d2", Expr::col(3).mul(Expr::lit(2i64))),
            ("ab", Expr::col(0).sub(Expr::col(1))),
        ];
        for (n, e) in computed {
            if rng.chance(70) {
                cols.push((n.to_string(), e));
            }
        }
        let order = rng.subset(&(0..cols.len()).collect::<Vec<_>>(), cols.len());
        order.into_iter().map(|i| cols[i].clone()).collect()
    }

    /// Every instance a rule emitted for the diff `d` from input `side`
    /// of `node` has a schema `rules::out_schemas` declares for `d`'s —
    /// the statement set-up builds the Ī′ indexes from.
    fn assert_declared(
        node: &Plan,
        side: usize,
        d: &DiffInstance,
        minimize: bool,
        got: &[DiffInstance],
    ) {
        let declared = rules::out_schemas(node, side, &d.schema, minimize).unwrap();
        for out in got {
            assert!(
                declared.contains(&out.schema),
                "{node:?} side {side} emitted {:?} for {:?}, declared {declared:?}",
                out.schema,
                d.schema
            );
        }
    }

    #[test]
    fn rule_outputs_match_a_row_by_row_reference() {
        let db = db();
        let cat = DbCatalog(&db);
        let l = PlanBuilder::scan(&cat, "l").unwrap().build().unwrap();
        let r = PlanBuilder::scan(&cat, "r").unwrap().build().unwrap();
        let l_rows = db.table("l").unwrap().rows_uncounted();
        let r_rows = db.table("r").unwrap().rows_uncounted();
        let (net, caches, cache_changes) = (Net::new(), HashMap::new(), HashMap::new());
        let access = AccessCtx {
            db: &db,
            base_changes: &net,
            caches: &caches,
            cache_changes: &cache_changes,
        };
        let ons: [&[(usize, usize)]; 2] = [&[(1, 0)], &[(1, 0), (3, 2)]];
        let residuals = [
            None,
            Some(Expr::col(2).lt(Expr::col(5))),
            Some(Expr::col(0).add(Expr::col(6)).gt(Expr::lit(4i64))),
        ];
        let path = Vec::new();
        let (faults, rescans) = (FaultState::new(FaultPlan::disabled()), AtomicU64::new(0));
        for seed in 0..600u64 {
            let mut rng = Mix(seed);
            let ctx = RuleCtx {
                access: &access,
                minimize: rng.chance(70),
                parallel: ParallelConfig::serial(),
                faults: &faults,
                rescans: &rescans,
            };

            let pred = preds()[rng.below(5)].clone();
            let d = gen_diff(&mut rng, 4, &l_rows);
            let node = Plan::Select {
                input: Box::new(l.clone()),
                pred: pred.clone(),
            };
            let got = select::propagate(&ctx, &node, &path, d.clone()).unwrap();
            assert_declared(&node, 0, &d, ctx.minimize, &got);
            assert_eq!(
                got,
                ref_select(&ctx, &pred, &l, &d),
                "select, seed {seed}, diff {d:?}"
            );

            let cols = project_cols(&mut rng);
            let d = gen_diff(&mut rng, 4, &l_rows);
            let got = project::propagate(&ctx, &cols, &l, &path, d.clone()).unwrap();
            let node = Plan::Project {
                input: Box::new(l.clone()),
                cols: cols.clone(),
            };
            assert_declared(&node, 0, &d, ctx.minimize, &got);
            assert_eq!(
                got,
                ref_project(&ctx, &cols, &l, &d),
                "project, seed {seed}, diff {d:?}"
            );

            let on = ons[rng.below(2)];
            let residual = residuals[rng.below(3)].clone();
            let join = Plan::Join {
                kind: idivm_algebra::JoinKind::Inner,
                left: Box::new(l.clone()),
                right: Box::new(r.clone()),
                on: on.to_vec(),
                residual: residual.clone(),
            };
            for side in 0..2 {
                let d = if side == 0 {
                    gen_diff(&mut rng, 4, &l_rows)
                } else {
                    gen_diff(&mut rng, 3, &r_rows)
                };
                let got = join::propagate(&ctx, &join, &path, side, d.clone()).unwrap();
                assert_declared(&join, side, &d, ctx.minimize, &got);
                let want = ref_join(&ctx, &l, &r, on, residual.as_ref(), side, &d);
                assert_eq!(got, want, "join side {side}, seed {seed}, diff {d:?}");
            }
        }
    }
}
