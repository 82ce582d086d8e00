//! Aggregate-maintenance transcript: every engine on every aggregate
//! view the workloads define, over seeded NULL-free rounds, one line per
//! round with the total accesses, the dirty-group rescans and the view
//! outcome (inserted / updated / deleted / dummies).
//!
//! The views are the running example's `agg_sql`, the multi-view suite's
//! `mention_favor` and `mention_topic_counts`, TPC-H's `extremes_sql` and
//! BSMA's Q*1–Q*3. SDBT runs where a partial exists for the plan (the
//! running example and TPC-H). Every round is also checked against the
//! recompute oracle.
//!
//! The transcript is compared byte for byte with
//! `tests/golden/aggregate_transcript.txt`: a change to how any engine
//! folds group deltas, resolves dirty groups or emits group diffs moves
//! a line. Regenerate the golden with
//! `IDIVM_BLESS=1 cargo test --test aggregate_transcript` only for a
//! change that is meant to move it.

mod common;

use idivm_repro::core::{Engine, IdIvm, IvmOptions, MaintenanceReport};
use idivm_repro::exec::{executor::sorted, recompute_rows};
use idivm_repro::reldb::Database;
use idivm_repro::sdbt::{Partial, Sdbt, SdbtVariant};
use idivm_repro::tuple::TupleIvm;
use idivm_repro::types::Row;
use idivm_repro::workloads::bsma::{Bsma, BsmaQuery};
use idivm_repro::workloads::{MultiView, RunningExample, Tpch};
use std::fmt::Write;

const ROUNDS: u64 = 6;
const GOLDEN: &str = "tests/golden/aggregate_transcript.txt";

/// Which engine maintains the view.
#[derive(Clone, Copy)]
enum Kind {
    Id,
    Tuple,
    SdbtFixed(&'static str),
    SdbtStreams,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Id => "id-ivm",
            Kind::Tuple => "tuple-ivm",
            Kind::SdbtFixed(_) => "sdbt-fixed",
            Kind::SdbtStreams => "sdbt-streams",
        }
    }
}

/// One view on one workload: how to build its database, its plan text,
/// its SDBT partials and one round of changes.
struct Case<'a> {
    name: &'a str,
    build: &'a dyn Fn() -> Database,
    sql: &'a dyn Fn() -> String,
    partials: &'a dyn Fn(&Database) -> Vec<Partial>,
    batch: &'a dyn Fn(&mut Database, u64),
    engines: &'a [Kind],
}

fn setup(case: &Case<'_>, kind: Kind, db: &mut Database) -> Box<dyn Engine> {
    let plan = idivm_repro::sql::plan_sql(db, &(case.sql)()).unwrap();
    match kind {
        Kind::Id => Box::new(IdIvm::setup(db, "V", plan, IvmOptions::default()).unwrap()),
        Kind::Tuple => Box::new(TupleIvm::setup(db, "V", plan).unwrap()),
        Kind::SdbtFixed(table) => {
            let partials = (case.partials)(db);
            let variant = SdbtVariant::Fixed(table.into());
            Box::new(Sdbt::setup(db, "V", plan, partials, variant).unwrap())
        }
        Kind::SdbtStreams => {
            let partials = (case.partials)(db);
            Box::new(Sdbt::setup(db, "V", plan, partials, SdbtVariant::Streams).unwrap())
        }
    }
}

fn line(out: &mut String, case: &str, engine: &str, round: u64, r: &MaintenanceReport) {
    let o = &r.view_outcome;
    writeln!(
        out,
        "{case} {engine} r{round} accesses={} rescans={} ins={} upd={} del={} dummies={}",
        r.total_accesses(),
        r.rescans,
        o.inserted,
        o.updated,
        o.deleted,
        o.dummies
    )
    .unwrap();
}

fn run(case: &Case<'_>, out: &mut String) {
    for &kind in case.engines {
        let mut db = (case.build)();
        let engine = setup(case, kind, &mut db);
        for round in 1..=ROUNDS {
            (case.batch)(&mut db, round);
            let report = engine.maintain(&mut db).unwrap();
            line(out, case.name, kind.label(), round, &report);
            assert_eq!(
                sorted(engine.visible_rows(&db).unwrap()),
                sorted(recompute_rows(&db, engine.plan()).unwrap()),
                "{} {} round {round}: view diverged from the oracle",
                case.name,
                kind.label()
            );
        }
    }
}

/// Splitmix64: seeded choices that depend on nothing but the seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Delete every link of one seeded device in the view (its group
/// empties), then `n` more seeded `devices_parts` links. Victims are
/// chosen from rows in key order, so every database with the same
/// history makes the same choice.
fn delete_links(db: &mut Database, n: usize, round: u64) {
    let mut state = round.wrapping_mul(0x51ED_2701);
    let mut pick = |rows: &[Row]| rows[(splitmix(&mut state) % rows.len() as u64) as usize].clone();
    let links = || sorted(db.table("devices_parts").unwrap().rows_uncounted());
    let device = pick(&sorted(db.table("V").unwrap().rows_uncounted()))[0].clone();
    let mut doomed: Vec<Row> = links().into_iter().filter(|l| l[0] == device).collect();
    for _ in 0..n {
        doomed.push(pick(&links()));
    }
    for link in doomed {
        let _ = db.delete("devices_parts", &link.key(&[0, 1]));
    }
}

fn running() -> RunningExample {
    RunningExample {
        n_parts: 120,
        n_devices: 40,
        fanout: 3,
        selectivity_pct: 50,
        joins: 2,
        seed: 7,
    }
}

fn transcript() -> String {
    let mut out = String::new();
    let re = running();
    run(
        &Case {
            name: "running/agg_sql/prices",
            build: &|| re.build().unwrap(),
            sql: &|| re.agg_sql(),
            partials: &|db| vec![re.sdbt_parts_partial(db).unwrap()],
            batch: &|db, r| re.price_update_batch(db, 12, r).unwrap(),
            engines: &[Kind::Id, Kind::Tuple, Kind::SdbtFixed("parts")],
        },
        &mut out,
    );
    run(
        &Case {
            name: "running/agg_sql/links",
            build: &|| re.build().unwrap(),
            sql: &|| re.agg_sql(),
            partials: &|db| re.sdbt_all_partials(db).unwrap(),
            // One table per round: SDBT composes each table's changes
            // against the pre-round maps, which holds for one table.
            batch: &|db, r| {
                if r % 2 == 0 {
                    re.price_update_batch(db, 6, r).unwrap();
                } else {
                    re.link_insert_batch(db, 6, r).unwrap();
                    delete_links(db, 8, r);
                }
            },
            engines: &[Kind::Id, Kind::Tuple, Kind::SdbtStreams],
        },
        &mut out,
    );

    let mv = MultiView {
        bsma: Bsma {
            scale: 0.05,
            seed: 9,
        },
    };
    for view in ["mention_favor", "mention_topic_counts"] {
        run(
            &Case {
                name: &format!("multiview/{view}"),
                build: &|| mv.build().unwrap(),
                sql: &|| mv.sql(view).unwrap(),
                partials: &|_| Vec::new(),
                batch: &|db, r| mv.tweet_batch(db, 16, r).unwrap(),
                engines: &[Kind::Id, Kind::Tuple],
            },
            &mut out,
        );
    }

    let tpch = Tpch {
        n_customers: 30,
        orders_per_customer: 2,
        lineitems_per_order: 3,
        extremum_pct: 40,
        seed: 21,
    };
    run(
        &Case {
            name: "tpch/extremes_sql",
            build: &|| tpch.build().unwrap(),
            sql: &|| tpch.extremes_sql(),
            partials: &|db| vec![tpch.sdbt_lineitem_partial(db).unwrap()],
            batch: &|db, r| tpch.lineitem_churn_batch(db, 6, r).unwrap(),
            engines: &[Kind::Id, Kind::Tuple, Kind::SdbtFixed("lineitem")],
        },
        &mut out,
    );

    let bsma = Bsma {
        scale: 0.003,
        seed: 5,
    };
    for q in [BsmaQuery::QStar1, BsmaQuery::QStar2, BsmaQuery::QStar3] {
        run(
            &Case {
                name: &format!("bsma/{}", q.label()),
                build: &|| bsma.build().unwrap(),
                sql: &|| bsma.sql(q),
                partials: &|_| Vec::new(),
                batch: &|db, r| bsma.user_update_batch(db, 6, r).unwrap(),
                engines: &[Kind::Id, Kind::Tuple],
            },
            &mut out,
        );
    }
    out
}

#[test]
fn aggregate_transcript_is_pinned() {
    common::assert_pinned(GOLDEN, &transcript());
}
