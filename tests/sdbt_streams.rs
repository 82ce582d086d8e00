//! SDBT-streams on rounds that change several of the view's tables at
//! once. Each table's changes reach the view through that table's
//! partial maps, which hold the *other* tables; when two joined tables
//! change in one round, the view rows that join a changed row of each
//! (the cross term) must be counted once, at their post-round values.
//! Every round is checked against the recompute oracle, on the running
//! example's aggregate and SPJ views.

use idivm_repro::exec::{executor::sorted, recompute_rows};
use idivm_repro::reldb::Database;
use idivm_repro::sdbt::{Sdbt, SdbtVariant};
use idivm_repro::types::{Key, Row, Value};
use idivm_repro::workloads::RunningExample;

const ROUNDS: u64 = 6;

fn example() -> RunningExample {
    RunningExample {
        n_parts: 120,
        n_devices: 40,
        fanout: 3,
        selectivity_pct: 50,
        joins: 2,
        seed: 7,
    }
}

/// Delete `n` seeded `devices_parts` links, chosen from the links in key
/// order.
fn delete_links(db: &mut Database, n: u64, round: u64) {
    for i in 0..n {
        let links = sorted(db.table("devices_parts").unwrap().rows_uncounted());
        let at = (round * 31 + i * 17) % links.len() as u64;
        let link = &links[at as usize];
        db.delete("devices_parts", &link.key(&[0, 1])).unwrap();
    }
}

/// Flip the category of `n` seeded devices.
fn recategorize(db: &mut Database, n: u64, round: u64) {
    for i in 0..n {
        let did = ((round * 7 + i * 13) % 40) as i64;
        let pk = Key(vec![Value::Int(did)]);
        let now: Row = db
            .table("devices")
            .unwrap()
            .get_uncounted(&pk)
            .unwrap()
            .clone();
        let flipped = if now[1] == Value::str("phone") {
            "tablet"
        } else {
            "phone"
        };
        db.update_named("devices", &pk, &[("category", Value::str(flipped))])
            .unwrap();
    }
}

/// Run `ROUNDS` rounds of `batch` under SDBT-streams on the view `sql`,
/// each checked against the oracle.
fn streams_stay_exact(sql: &str, batch: impl Fn(&mut Database, u64)) {
    let re = example();
    let mut db = re.build().unwrap();
    let plan = idivm_repro::sql::plan_sql(&db, sql).unwrap();
    let partials = re.sdbt_all_partials(&db).unwrap();
    let engine = Sdbt::setup(&mut db, "V", plan, partials, SdbtVariant::Streams).unwrap();
    for round in 1..=ROUNDS {
        batch(&mut db, round);
        engine.maintain(&mut db).unwrap();
        assert_eq!(
            sorted(engine.visible_rows(&db).unwrap()),
            sorted(recompute_rows(&db, engine.plan()).unwrap()),
            "{sql}: round {round} diverged from the oracle"
        );
    }
}

/// Price updates on `parts` and link inserts and deletes on
/// `devices_parts`, in one round.
fn prices_and_links(db: &mut Database, round: u64) {
    let re = example();
    re.price_update_batch(db, 12, round).unwrap();
    re.link_insert_batch(db, 6, round).unwrap();
    delete_links(db, 4, round);
}

#[test]
fn two_changed_tables_keep_the_aggregate_view_exact() {
    streams_stay_exact(&example().agg_sql(), prices_and_links);
}

#[test]
fn two_changed_tables_keep_the_spj_view_exact() {
    streams_stay_exact(&example().spj_sql(), prices_and_links);
}

#[test]
fn three_changed_tables_keep_the_aggregate_view_exact() {
    streams_stay_exact(&example().agg_sql(), |db, round| {
        prices_and_links(db, round);
        recategorize(db, 3, round);
    });
}

#[test]
fn three_changed_tables_keep_the_spj_view_exact() {
    streams_stay_exact(&example().spj_sql(), |db, round| {
        prices_and_links(db, round);
        recategorize(db, 3, round);
    });
}
