//! Property test of the group-delta fold: fold a random batch of member
//! changes (inserts, deletes, updates, NULL arguments, duplicate
//! extremes) over a random member multiset of one group, then resolve
//! against the aggregates of the pre-state members. The result must
//! equal [`aggregate_rows`] over the post-state members, slot by slot,
//! or answer dirty; a new group's `created()` must equal it outright.
//! A NULL-free batch whose SUM lands on a non-zero value must never
//! answer dirty.

use idivm_algebra::aggregate::{aggregate_rows, Event, GroupDelta, Resolved};
use idivm_algebra::{AggFunc, AggSpec, Expr};
use idivm_types::{Row, Value};
use proptest::prelude::*;

/// Members are `[id, qty]`; a tiny qty domain makes duplicate extremes,
/// zero sums and cancelling deltas common.
fn qty(v: i64, null: u8) -> Value {
    if null == 0 {
        Value::Null
    } else {
        Value::Int(v)
    }
}

fn member(id: usize, qty: Value) -> Row {
    Row::new(vec![Value::Int(id as i64), qty])
}

fn spec(func: AggFunc, arg: Expr) -> AggSpec {
    AggSpec::new(func, arg, func.name())
}

fn every_slot() -> Vec<AggSpec> {
    vec![
        spec(AggFunc::Sum, Expr::col(1)),
        spec(AggFunc::Count, Expr::Lit(Value::Int(1))),
        spec(AggFunc::Count, Expr::col(1)),
        spec(AggFunc::Min, Expr::col(1)),
        spec(AggFunc::Max, Expr::col(1)),
    ]
}

fn aggregates(aggs: &[AggSpec], members: &[Row]) -> Vec<Value> {
    aggs.iter()
        .map(|a| aggregate_rows(a, members).unwrap())
        .collect()
}

/// One member change: its pre-image, its post-image or both.
type Change = (Option<Row>, Option<Row>);

/// The batch: per pre-state member keep (0), delete (1) or update (2,
/// to the given qty); then the inserts. Returns the post-state members
/// and the events.
fn apply(pre: &[Row], fates: &[(u8, i64, u8)], inserts: &[(i64, u8)]) -> (Vec<Row>, Vec<Change>) {
    let mut post = Vec::new();
    let mut events = Vec::new();
    for (i, row) in pre.iter().enumerate() {
        match fates.get(i).copied().unwrap_or((0, 0, 1)) {
            (1, _, _) => events.push((Some(row.clone()), None)),
            (2, v, null) => {
                let new = member(i, qty(v, null));
                events.push((Some(row.clone()), Some(new.clone())));
                post.push(new);
            }
            _ => post.push(row.clone()),
        }
    }
    for (j, &(v, null)) in inserts.iter().enumerate() {
        let new = member(pre.len() + j, qty(v, null));
        events.push((None, Some(new.clone())));
        post.push(new);
    }
    (post, events)
}

fn fold(aggs: &[AggSpec], events: &[Change]) -> GroupDelta {
    let mut g = GroupDelta::new(aggs).unwrap();
    for ev in events {
        let ev = match ev {
            (Some(pre), Some(post)) => Event::Upd(pre, post),
            (Some(pre), None) => Event::Del(pre),
            (None, Some(post)) => Event::Ins(post),
            (None, None) => unreachable!("every event has an image"),
        };
        g.fold(aggs, ev).unwrap();
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn resolve_is_exact_or_dirty(
        pre in proptest::collection::vec((-2i64..4, 0u8..4), 0..6),
        fates in proptest::collection::vec((0u8..3, -2i64..4, 0u8..4), 0..6),
        inserts in proptest::collection::vec((-2i64..4, 0u8..4), 0..4),
    ) {
        let every = every_slot();
        // SUM and COUNT alone too: a MIN/MAX beside them goes dirty
        // whenever they could, which would hide a wrong SUM rule.
        let sum_count = &every[..2];
        let pre: Vec<Row> = pre
            .iter()
            .enumerate()
            .map(|(i, &(v, null))| member(i, qty(v, null)))
            .collect();
        let (post, events) = apply(&pre, &fates, &inserts);
        let mut vals = Vec::new();
        for aggs in [&every[..], sum_count] {
            let g = fold(aggs, &events);
            let expected = aggregates(aggs, &post);
            let net = post.len() as i64 - pre.len() as i64;
            prop_assert_eq!(g.net_members(), net);
            if pre.is_empty() {
                prop_assert_eq!(g.created(), expected);
            } else if g.resolve(&aggregates(aggs, &pre), &mut vals) == Resolved::Clean {
                prop_assert_eq!(&vals, &expected);
            }
        }

        // A NULL-free batch whose SUM lands on a non-zero value resolves
        // clean.
        let null_free = pre.iter().chain(&post).all(|r| !r[1].is_null());
        let sum = aggregates(sum_count, &post)[0].clone();
        if null_free && !pre.is_empty() && !post.is_empty() && sum != Value::Int(0) {
            let g = fold(sum_count, &events);
            prop_assert_eq!(
                g.resolve(&aggregates(sum_count, &pre), &mut vals),
                Resolved::Clean
            );
            prop_assert_eq!(vals, aggregates(sum_count, &post));
        }
    }
}
