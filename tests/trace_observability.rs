//! Acceptance tests for the maintenance-round observability layer.
//!
//! The per-operator trace is an *accounting identity*, not a sampling
//! profile: for every phase, the per-operator access deltas must sum
//! exactly to the round report's phase totals ([`MaintenanceReport`]'s
//! `diff_compute` / `cache_update` / `view_update`), and the whole
//! trace must be bit-identical for any `ParallelConfig` thread count —
//! attribution happens on the serial plan walk, after the sharded
//! workers have joined.
//!
//! Also covered here: dummy-diff (overestimation) surfacing, the
//! zero-cost-when-off default, and the panic-free error contract of
//! `maintain()` on malformed predicates.

use idivm_repro::algebra::{Expr, PlanBuilder};
use idivm_repro::core::{
    EngineConfig, FaultPlan, FaultSite, IdIvm, IngestTrace, IvmOptions, MaintenanceSupervisor,
    OpTrace, PhaseTimings, RoundTrace, SupervisorConfig, TraceConfig, TracePhase,
};
use idivm_repro::exec::{DbCatalog, ParallelConfig};
use idivm_repro::reldb::{Database, StatsSnapshot};
use idivm_repro::sdbt::{Sdbt, SdbtVariant};
use idivm_repro::tuple::TupleIvm;
use idivm_repro::types::{row, ColumnType, Error, Schema};
use idivm_repro::workloads::RunningExample;
use std::time::Duration;

fn four_threads() -> ParallelConfig {
    ParallelConfig {
        threads: 4,
        min_shard_rows: 2,
    }
}

fn example() -> RunningExample {
    RunningExample {
        n_parts: 120,
        n_devices: 90,
        fanout: 3,
        selectivity_pct: 30,
        joins: 2,
        seed: 7,
    }
}

/// Assert the accounting identity between a trace and its report's
/// phase totals, exactly (no tolerance: these are counters).
fn assert_reconciles(
    trace: &RoundTrace,
    diff_compute: StatsSnapshot,
    cache_update: StatsSnapshot,
    view_update: StatsSnapshot,
) {
    assert_eq!(
        trace.sum_phase(TracePhase::Propagate),
        diff_compute,
        "propagate-phase operator accesses must sum to diff_compute"
    );
    assert_eq!(
        trace.sum_phase(TracePhase::CacheApply),
        cache_update,
        "cache-apply operator accesses must sum to cache_update"
    );
    assert_eq!(
        trace.sum_phase(TracePhase::ViewApply),
        view_update,
        "view-apply operator accesses must sum to view_update"
    );
}

#[test]
fn id_ivm_trace_reconciles_and_is_thread_invariant() {
    let cfg = example();
    let mut traces: Vec<RoundTrace> = Vec::new();
    for parallel in [ParallelConfig::serial(), four_threads()] {
        let mut db = cfg.build().unwrap();
        let plan = cfg.agg_plan(&db).unwrap();
        let opts = IvmOptions {
            parallel,
            trace: TraceConfig::enabled(),
            ..IvmOptions::default()
        };
        let ivm = IdIvm::setup(&mut db, "V", plan, opts).unwrap();
        // Two rounds: the second runs against warm caches, exercising
        // the cache-apply attribution as well.
        cfg.price_update_batch(&mut db, 30, 0).unwrap();
        let _ = ivm.maintain(&mut db).unwrap();
        cfg.price_update_batch(&mut db, 30, 1).unwrap();
        let report = ivm.maintain(&mut db).unwrap();
        let trace = report.trace.clone().expect("trace enabled but absent");
        assert!(
            !trace.operators.is_empty(),
            "instrumented round produced no operator entries"
        );
        assert_reconciles(
            &trace,
            report.diff_compute,
            report.cache_update,
            report.view_update,
        );
        traces.push(trace);
    }
    // Bit-identical attribution for P=1 vs P=4 (timings are wall-clock
    // and legitimately differ; the operator entries must not).
    assert_eq!(
        traces[0].operators, traces[1].operators,
        "per-operator traces diverged between thread counts"
    );
}

#[test]
fn tuple_ivm_trace_reconciles_and_is_thread_invariant() {
    let cfg = example();
    let mut traces: Vec<RoundTrace> = Vec::new();
    for parallel in [ParallelConfig::serial(), four_threads()] {
        let mut db = cfg.build().unwrap();
        let plan = cfg.agg_plan(&db).unwrap();
        let mut ivm = TupleIvm::setup(&mut db, "V", plan).unwrap();
        ivm.set_parallel(parallel).unwrap();
        ivm.set_trace(TraceConfig::enabled());
        cfg.price_update_batch(&mut db, 30, 0).unwrap();
        let report = ivm.maintain(&mut db).unwrap();
        let trace = report.trace.clone().expect("trace enabled but absent");
        assert!(!trace.operators.is_empty());
        assert_reconciles(
            &trace,
            report.diff_compute,
            report.cache_update,
            report.view_update,
        );
        traces.push(trace);
    }
    assert_eq!(traces[0].operators, traces[1].operators);
}

#[test]
fn sdbt_trace_reconciles() {
    let cfg = example();
    let mut db = cfg.build().unwrap();
    let plan = cfg.agg_plan(&db).unwrap();
    let partials = cfg.sdbt_all_partials(&db).unwrap();
    let mut sdbt = Sdbt::setup(&mut db, "V", plan, partials, SdbtVariant::Streams).unwrap();
    sdbt.set_trace(TraceConfig::enabled());
    cfg.price_update_batch(&mut db, 30, 0).unwrap();
    let report = sdbt.maintain(&mut db).unwrap();
    let trace = report.trace.clone().expect("trace enabled but absent");
    // SDBT emits one pseudo operator per phase.
    assert_eq!(trace.operators.len(), 3);
    assert_reconciles(
        &trace,
        report.diff_compute,
        report.cache_update,
        report.view_update,
    );
}

#[test]
fn trace_is_absent_when_disabled() {
    let cfg = example();
    let mut db = cfg.build().unwrap();
    let plan = cfg.agg_plan(&db).unwrap();
    let ivm = IdIvm::setup(&mut db, "V", plan, IvmOptions::default()).unwrap();
    cfg.price_update_batch(&mut db, 10, 0).unwrap();
    let report = ivm.maintain(&mut db).unwrap();
    assert!(report.trace.is_none(), "default options must not record");
}

/// Semijoin membership re-assertion is the paper's overestimation in
/// miniature: a second link to an already-member part makes the rule
/// re-insert the member (pre-membership is not probed), and the apply
/// step counts the duplicate as a dummy diff the trace must surface.
#[test]
fn dummy_diffs_surface_in_trace_with_nonzero_overestimation() {
    let mut db = Database::new();
    db.set_logging(false);
    db.create_table(
        "parts",
        Schema::from_pairs(
            &[("pid", ColumnType::Str), ("price", ColumnType::Int)],
            &["pid"],
        )
        .unwrap(),
    )
    .unwrap();
    db.create_table(
        "links",
        Schema::from_pairs(
            &[("did", ColumnType::Str), ("pid", ColumnType::Str)],
            &["did", "pid"],
        )
        .unwrap(),
    )
    .unwrap();
    db.insert("parts", row!["P1", 10]).unwrap();
    db.insert("parts", row!["P2", 90]).unwrap();
    db.insert("links", row!["D1", "P1"]).unwrap();
    db.set_logging(true);

    let plan = {
        let cat = DbCatalog(&db);
        PlanBuilder::scan(&cat, "parts")
            .unwrap()
            .semi_join(
                PlanBuilder::scan(&cat, "links").unwrap(),
                &[("parts.pid", "links.pid")],
            )
            .unwrap()
            .build()
            .unwrap()
    };
    let opts = IvmOptions {
        trace: TraceConfig::enabled(),
        ..IvmOptions::default()
    };
    let ivm = IdIvm::setup(&mut db, "V", plan, opts).unwrap();
    assert_eq!(db.table("V").unwrap().len(), 1);

    // A second link to P1: membership is unchanged, but the rule
    // re-asserts it.
    db.insert("links", row!["D2", "P1"]).unwrap();
    let report = ivm.maintain(&mut db).unwrap();
    let trace = report.trace.expect("trace enabled but absent");
    assert!(
        report.view_outcome.dummies > 0,
        "expected the re-asserted membership insert to be a dummy"
    );
    assert_eq!(trace.dummy_diffs(), report.view_outcome.dummies);
    let ratio = trace
        .overestimation_ratio()
        .expect("applied diffs were recorded");
    assert!(ratio > 0.0, "overestimation ratio must be positive");

    // The view itself is unchanged (P1 was already a member).
    assert_eq!(db.table("V").unwrap().len(), 1);
}

/// A type-confused predicate (boolean AND over an Int column) passes
/// structural validation but must surface as `Err(Error::Type)` from
/// `maintain()` — never a panic.
#[test]
fn malformed_predicate_yields_err_not_panic() {
    let mut db = Database::new();
    db.create_table(
        "parts",
        Schema::from_pairs(
            &[("pid", ColumnType::Str), ("price", ColumnType::Int)],
            &["pid"],
        )
        .unwrap(),
    )
    .unwrap();
    // Setup over the empty table succeeds: nothing to evaluate yet.
    let plan = {
        let cat = DbCatalog(&db);
        PlanBuilder::scan(&cat, "parts")
            .unwrap()
            .select(Expr::And(vec![Expr::col(1), Expr::col(1)]))
            .build()
            .unwrap()
    };
    let ivm = IdIvm::setup(&mut db, "V", plan, IvmOptions::default()).unwrap();
    db.insert("parts", row!["P1", 10]).unwrap();
    let err = ivm.maintain(&mut db).unwrap_err();
    assert!(
        matches!(err, Error::Type(_)),
        "expected a typed error, got {err:?}"
    );
}

/// Walk `json` the way a parser would: strings may hold anything but
/// raw control characters (escapes skipped), everything outside a
/// string must be JSON structure, a number or a bare literal.
fn assert_json_scans(json: &str) {
    let (mut in_string, mut escaped, mut depth) = (false, false, 0i64);
    for c in json.chars() {
        if in_string {
            assert!(
                c >= ' ',
                "raw control character {c:?} inside a string:\n{json}"
            );
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            _ => assert!(
                c.is_ascii_whitespace() || c.is_ascii_digit() || ":,-+.eEtrufalsn".contains(c),
                "stray {c:?} outside any string:\n{json}"
            ),
        }
        assert!(depth >= 0, "unbalanced close:\n{json}");
    }
    assert!(!in_string && depth == 0, "unterminated JSON:\n{json}");
}

/// View names are caller-chosen and reach the trace through the
/// recovery entry's label (`` recompute `<view>` ``): a hostile name
/// must be escaped, not spliced into the document.
#[test]
fn recovered_trace_of_hostile_view_name_is_well_formed_json() {
    let cfg = example();
    let mut db = cfg.build().unwrap();
    let plan = cfg.agg_plan(&db).unwrap();
    let options = IvmOptions {
        trace: TraceConfig::enabled(),
        faults: FaultPlan::at(FaultSite::Operator, 1, 7),
        ..IvmOptions::default()
    };
    let mut ivm = IdIvm::setup(&mut db, "we\"ird\n", plan, options).unwrap();
    cfg.price_update_batch(&mut db, 10, 0).unwrap();
    let straight_to_recompute = SupervisorConfig {
        max_retries: 0,
        bisect: false,
        ..SupervisorConfig::default()
    };
    let supervised = MaintenanceSupervisor::new(&mut ivm, straight_to_recompute).run(&mut db);
    let report = supervised.last_round.expect("the recompute round");
    assert!(report.recovered);
    let json = report.trace.expect("traced recovery").to_json().render();
    assert_json_scans(&json);
    assert!(
        json.contains(r#""op": "recompute `we\"ird\n`""#),
        "view name not carried (escaped) into the trace:\n{json}"
    );
}

/// A hand-built trace: every field is public, so the rendered bytes
/// (timings included) are fixed.
fn pinned_trace(operators: Vec<OpTrace>, ingest: Option<IngestTrace>) -> RoundTrace {
    RoundTrace {
        operators,
        timings: PhaseTimings {
            fold: Duration::from_micros(3),
            populate: Duration::from_micros(14),
            propagate: Duration::from_micros(159),
            apply: Duration::from_micros(26),
        },
        ingest,
    }
}

/// The trace document's bytes: an escaped operator label, the ingest
/// pseudo-phase and a ratio rendered to six decimals.
#[test]
fn trace_json_bytes_are_pinned() {
    let op = |path: Vec<usize>, op: &str, phase, diffs: [u64; 3], ta, il| OpTrace {
        path,
        op: op.into(),
        phase,
        diffs_in: diffs[0],
        diffs_out: diffs[1],
        dummies: diffs[2],
        accesses: StatsSnapshot {
            tuple_accesses: ta,
            index_lookups: il,
        },
    };
    let trace = pinned_trace(
        vec![
            op(vec![0, 1], "join", TracePhase::Propagate, [4, 3, 0], 12, 5),
            op(
                vec![],
                "recompute `we\"ird\n\t`",
                TracePhase::ViewApply,
                [3, 0, 1],
                2,
                3,
            ),
        ],
        Some(IngestTrace {
            admitted: 7,
            shed: 1,
            dead_lettered: 2,
            cut_cause: "age",
            queue_depth_at_cut: 9,
        }),
    );
    let want = r#"{
  "timings_us": {"fold": 3, "populate": 14, "propagate": 159, "apply": 26},
  "ingest": {"admitted": 7, "shed": 1, "dead_lettered": 2, "cut_cause": "age", "queue_depth_at_cut": 9},
  "dummy_diffs": 1,
  "overestimation_ratio": 0.333333,
  "operators": [
    {"path": [0, 1], "op": "join", "phase": "propagate", "diffs_in": 4, "diffs_out": 3, "dummies": 0, "tuple_accesses": 12, "index_lookups": 5},
    {"path": [], "op": "recompute `we\"ird\n\t`", "phase": "view_apply", "diffs_in": 3, "diffs_out": 0, "dummies": 1, "tuple_accesses": 2, "index_lookups": 3}
  ]
}"#;
    assert_eq!(trace.to_json().render(), want);
}

/// An empty round: no operators, no ingest, a `null` ratio.
#[test]
fn empty_trace_json_bytes_are_pinned() {
    let trace = pinned_trace(Vec::new(), None);
    let want = r#"{
  "timings_us": {"fold": 3, "populate": 14, "propagate": 159, "apply": 26},
  "dummy_diffs": 0,
  "overestimation_ratio": null,
  "operators": [

  ]
}"#;
    assert_eq!(trace.to_json().render(), want);
}
