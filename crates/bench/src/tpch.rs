//! TPC-H-flavored MIN/MAX + LEFT OUTER JOIN benchmark.
//!
//! Usage:
//! ```text
//! cargo run --release -p idivm-bench -- tpch [--customers N --rounds R --diffs D --skew PCT --smoke]
//! ```
//!
//! Two standing views over `customer`/`orders`/`lineitem`
//! (`idivm_workloads::tpch`):
//!
//! * **extremes** — `γ_{custkey; MIN(price), MAX(price), SUM(price)}
//!   (orders ⋈ lineitem)`, maintained by all three engines (ID-based,
//!   tuple-based, SDBT-fixed on the lineitem stream) under a churn mix
//!   in which `--skew` percent of modifications remove the group's
//!   *current minimum* — the case where delta maintenance must fall
//!   back to a counted per-group rescan.
//! * **order_pad** — `customer ⟕ orders`, maintained by the ID-based
//!   and tuple-based engines (SDBT rejects outer joins by construction)
//!   under order churn that creates and destroys first/last orders.
//!
//! Every round, every engine is checked row-for-row against the
//! recompute oracle, and the oracle's own counted accesses are
//! bracketed so the maintained-vs-recompute comparison is apples to
//! apples. Guards:
//!
//! * all engines bit-identical to recomputation, every round,
//! * P = 4 runs byte-identical to serial (rows **and** rescan counts —
//!   extremum emission is deliberately deterministic),
//! * the skewed mix actually fires rescans (`rescans > 0` on every
//!   extremes engine),
//! * maintained MIN/MAX still beats recomputation on counted accesses
//!   for the skewed-but-not-pathological default mix,
//! * the LOJ view ends with at least one NULL-padded row.
//!
//! Writes `BENCH_tpch.json` — schema in `EXPERIMENTS.md`.

use idivm_bench::{fmt_row, Args, EngineKind, Lane};
use idivm_core::IvmOptions;
use idivm_exec::{executor::sorted, recompute_rows, ParallelConfig};
use idivm_reldb::Database;
use idivm_types::{Json, Result, Row, Value};
use idivm_workloads::Tpch;

/// One engine on one view: its lane and what its rounds added up to.
struct Track {
    /// Its name on the console and in guard messages.
    name: &'static str,
    json_name: &'static str,
    lane: Lane,
    accesses: u64,
    rescans: u64,
    /// Rescans of the latest round.
    last_rescans: u64,
}

impl Track {
    fn json(&self) -> Json {
        Json::inline([
            ("name", self.json_name.into()),
            ("accesses", self.accesses.into()),
            ("rescans", self.rescans.into()),
        ])
    }
}

/// Set up the engines of the extremes view or of the outer join:
/// ID-based, tuple-based, SDBT-fixed where the view admits it (SDBT
/// rejects outer joins), and ID-based at P = 4 last.
fn tracks(cfg: &Tpch, view: &str, extremes: bool) -> Result<Vec<Track>> {
    // Console name, JSON name, system, threads.
    let mut specs = vec![
        ("id-ivm", "id-ivm", EngineKind::IdIvm, 1),
        ("tuple-ivm", "tuple-ivm", EngineKind::Tuple, 1),
        ("sdbt-fixed", "sdbt-fixed", EngineKind::SdbtFixed, 1),
        ("id-ivm (P=4)", "id-ivm-p4", EngineKind::IdIvm, 4),
    ];
    if !extremes {
        specs.remove(2);
    }
    let build = |(name, json_name, kind, threads)| {
        let db = cfg.build()?;
        let plan = if extremes {
            cfg.extremes_plan(&db)?
        } else {
            cfg.loj_plan(&db)?
        };
        let partials = match kind {
            EngineKind::SdbtFixed => vec![cfg.sdbt_lineitem_partial(&db)?],
            _ => Vec::new(),
        };
        let parallel = ParallelConfig {
            threads,
            min_shard_rows: 1,
        };
        let options = IvmOptions {
            parallel,
            ..IvmOptions::default()
        };
        let lane = Lane::new(kind, options, db, view, plan, partials)?;
        Ok(Track {
            name,
            json_name,
            lane,
            accesses: 0,
            rescans: 0,
            last_rescans: 0,
        })
    };
    specs.into_iter().map(build).collect()
}

/// One churn round on every track; returns the recompute oracle of the
/// first track's database and what computing it cost.
fn round(
    tracks: &mut [Track],
    churn: impl Fn(&mut Database) -> Result<()>,
) -> Result<(Vec<Row>, u64)> {
    for t in tracks.iter_mut() {
        churn(&mut t.lane.db)?;
    }
    for t in tracks.iter_mut() {
        let report = t.lane.engine.maintain(&mut t.lane.db)?;
        t.accesses += report.total_accesses();
        t.rescans += report.rescans;
        t.last_rescans = report.rescans;
    }
    // The oracle, with its own cost bracketed for comparison.
    let id = &tracks[0].lane;
    let before = id.db.stats().snapshot();
    let oracle = sorted(recompute_rows(&id.db, id.engine.plan())?);
    Ok((oracle, id.db.stats().snapshot().since(&before).total()))
}

fn view_rows(t: &Track) -> Result<Vec<Row>> {
    Ok(sorted(t.lane.engine.visible_rows(&t.lane.db)?))
}

pub fn run(args: &Args) -> Result<()> {
    let customers = args.or(args.customers, 60, 200);
    let rounds = args.or(args.rounds, 4, 8);
    let diffs = args.or(args.diffs, 10, 24);
    let skew = args.skew.unwrap_or(30);
    let cfg = Tpch {
        n_customers: customers,
        extremum_pct: skew,
        ..Tpch::default()
    };
    println!(
        "TPC-H extremes + outer-join padding — {customers} customers, \
         {rounds} rounds x {diffs} modifications, {skew}% extremum-deleting"
    );

    // --- extremes view: MIN/MAX/SUM under extremum deletion ------------
    let mut ext = tracks(&cfg, "V", true)?;
    let mut ext_recompute: u64 = 0;
    let mut p4_identical = true;
    for r in 0..rounds {
        let (oracle, cost) = round(&mut ext, |db| cfg.lineitem_churn_batch(db, diffs, r))?;
        ext_recompute += cost;
        let (serial, p4) = ext.split_at(3);
        for t in serial {
            let engine = t.name;
            assert_eq!(
                view_rows(t)?,
                oracle,
                "{engine} engine diverged from recompute in round {r}"
            );
        }
        p4_identical &=
            view_rows(&p4[0])? == oracle && p4[0].last_rescans == serial[0].last_rescans;
    }

    // --- order_pad view: customer ⟕ orders under padding churn ---------
    let mut loj = tracks(&cfg, "P", false)?;
    let mut loj_recompute: u64 = 0;
    let mut loj_p4_identical = true;
    let mut padded_final: usize = 0;
    for r in 0..rounds {
        let (oracle, cost) = round(&mut loj, |db| cfg.order_churn_batch(db, diffs, r))?;
        loj_recompute += cost;
        for t in &loj[..2] {
            let engine = t.name;
            assert_eq!(
                view_rows(t)?,
                oracle,
                "{engine} engine diverged on the outer join in round {r}"
            );
        }
        loj_p4_identical &= view_rows(&loj[2])? == oracle;
        padded_final = oracle
            .iter()
            .filter(|row| row.iter().any(Value::is_null))
            .count();
    }

    // --- Report --------------------------------------------------------
    let widths = &[26usize, 12, 12, 12];
    let header = ["extremes engine", "accesses", "rescans", "vs recompute"];
    println!("\n{}", fmt_row(&header.map(String::from), widths));
    for t in &ext {
        let ratio = format!("{:.2}x", ext_recompute as f64 / t.accesses.max(1) as f64);
        let cells = [
            t.name.into(),
            t.accesses.to_string(),
            t.rescans.to_string(),
            ratio,
        ];
        println!("{}", fmt_row(&cells, widths));
    }
    let cells = [
        "recompute".into(),
        ext_recompute.to_string(),
        "-".into(),
        "1.00x".into(),
    ];
    println!("{}", fmt_row(&cells, widths));
    let [ext_id, loj_id] = [ext[0].accesses, loj[0].accesses];
    println!(
        "\norder_pad: id-ivm {loj_id} accesses, tuple-ivm {} accesses, recompute {loj_recompute}, \
         {padded_final} NULL-padded rows at the end",
        loj[1].accesses
    );

    // --- Guards --------------------------------------------------------
    assert!(
        p4_identical,
        "P=4 extremes run diverged from serial (rows or rescan counts)"
    );
    assert!(loj_p4_identical, "P=4 outer-join run diverged from serial");
    println!("signatures: cross-engine ok, P=4 ok (incl. rescan counts)");
    for t in &ext[..3] {
        assert!(
            t.rescans > 0,
            "{}: the skewed mix fired no extremum rescans — the benchmark \
             is not exercising the fallback",
            t.name
        );
    }
    assert!(
        ext_id < ext_recompute,
        "maintained MIN/MAX (id: {ext_id}) must beat per-round recomputation ({ext_recompute}) \
         on the skewed mix"
    );
    assert!(
        padded_final > 0,
        "order churn left no NULL-padded customers — the LOJ is not being exercised"
    );
    println!("guards: rescans fired on every engine, id-ivm {ext_id} < recompute {ext_recompute} accesses");

    // --- Machine-readable record ---------------------------------------
    Json::block([
        ("bench", "tpch".into()),
        ("customers", customers.into()),
        ("rounds", rounds.into()),
        ("diffs", diffs.into()),
        ("extremum_pct", skew.into()),
        (
            "extremes",
            Json::block([
                ("engines", Json::rows(ext.iter().map(Track::json))),
                ("recompute_accesses", ext_recompute.into()),
                (
                    "id_vs_recompute_ratio",
                    Json::Fixed(ext_recompute as f64 / ext_id.max(1) as f64, 4),
                ),
            ]),
        ),
        (
            "order_pad",
            Json::block([
                ("engines", Json::rows(loj[..2].iter().map(Track::json))),
                ("recompute_accesses", loj_recompute.into()),
                ("padded_rows_final", padded_final.into()),
            ]),
        ),
        (
            "signatures_match",
            Json::inline([
                ("cross_engine", true.into()),
                ("parallel_p4", (p4_identical && loj_p4_identical).into()),
            ]),
        ),
    ])
    .write("BENCH_tpch.json")?;
    println!("wrote BENCH_tpch.json");
    Ok(())
}
