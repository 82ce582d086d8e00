//! The engine knob block's failure behaviour, pinned as one transcript
//! (written green before the knob block was reduced to one site table
//! and one recompute entry; hashed as length + FNV-1a like the
//! round-summary transcript in `tests/promotion.rs`):
//!
//! * **Fault hooks** — for every [`FaultSite`], k ∈ {0, 1, 2} and each
//!   of transient, permanent and `healing_after(1)`, every hook is
//!   driven in one fixed interleaving; the transcript records which call
//!   fired, the error variant and its exact text. A call that fires a
//!   second time shows up as a second line.
//! * **Supervisor escalation** — a permanent operator fault on every
//!   engine, traced and untraced, under a ladder that goes straight to
//!   the recompute step: the verdict, the report JSON and the recovered
//!   round's report.

use idivm_repro::core::{
    Engine, EngineConfig, FaultPlan, FaultSite, FaultState, IdIvm, IvmOptions,
    MaintenanceSupervisor, SupervisorConfig, TraceConfig,
};
use idivm_repro::exec::{executor::sorted, recompute_rows};
use idivm_repro::reldb::{Database, Net, NetChange, TableChanges};
use idivm_repro::sdbt::{Sdbt, SdbtVariant};
use idivm_repro::tuple::TupleIvm;
use idivm_repro::types::{Error, Key, Result, Row, Value};
use idivm_repro::workloads::RunningExample;
use std::fmt::Write;

/// Fixed (not `IDIVM_FAULT_SEED`): the seed is part of every fired text.
const SEED: u64 = 0x5eed_2015;

const SITES: [FaultSite; 10] = [
    FaultSite::Access,
    FaultSite::Operator,
    FaultSite::Apply,
    FaultSite::Diff,
    FaultSite::Enqueue,
    FaultSite::BatchCut,
    FaultSite::Decode,
    FaultSite::WalAppend,
    FaultSite::WalFsync,
    FaultSite::Checkpoint,
];

/// The one plan constructor the transcript needs.
fn arm(site: FaultSite, k: u64, seed: u64) -> FaultPlan {
    FaultPlan::at(site, k, seed)
}

/// The counted hook of `site`, with `step` standing for whatever the
/// call site passes (an operator label, an APPLY target, the events
/// pending at a cut, an LSN).
fn hook(s: &FaultState, site: FaultSite, step: u64) -> Result<()> {
    match site {
        FaultSite::Operator => s.hit(site, format_args!("`op{step}`")),
        FaultSite::Apply => s.hit(site, format_args!("target `t{step}`")),
        FaultSite::BatchCut => s.hit(site, format_args!("{step} events pending")),
        FaultSite::WalAppend => s.hit(site, format_args!("lsn {step}")),
        FaultSite::Checkpoint => s.hit(site, format_args!("last lsn {step}")),
        FaultSite::Enqueue | FaultSite::Decode | FaultSite::WalFsync => s.hit(site, ""),
        FaultSite::Access | FaultSite::Diff => Ok(()),
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn batch(keys: std::ops::Range<i64>) -> Net {
    let mut tc = TableChanges::new();
    for k in keys {
        tc.insert(
            Key(vec![Value::Int(k)]),
            NetChange::Inserted {
                post: Row::new(vec![Value::Int(k)]),
            },
        );
    }
    Net::from([("parts".to_string(), tc.into())])
}

fn outcome(res: Result<()>) -> Option<String> {
    match res {
        Ok(()) => None,
        Err(Error::Injected(m)) => Some(format!("injected {m}")),
        Err(Error::Poison(m)) => Some(format!("poison {m}")),
        Err(Error::Budget(m)) => Some(format!("budget {m}")),
        Err(other) => Some(format!("other {other}")),
    }
}

/// Every hook, four passes in one fixed order.
fn hook_transcript(out: &mut String) {
    for site in SITES {
        for k in 0..3 {
            for (variant, plan) in [
                ("transient", arm(site, k, SEED)),
                ("permanent", arm(site, k, SEED).permanent()),
                ("healing", arm(site, k, SEED).healing_after(1)),
            ] {
                let s = FaultState::new(plan);
                writeln!(
                    out,
                    "{} k={k} {variant}: {plan:?} enabled={} wants_access={} attempt1={}",
                    site.label(),
                    s.enabled(),
                    s.wants_access(),
                    plan.for_attempt(1).enabled()
                )
                .unwrap();
                let mut call = 0;
                for pass in 0..4u64 {
                    let mut note = |what: &str, res: Result<()>| {
                        if let Some(fired) = outcome(res) {
                            writeln!(out, "  call {call} {what}: {fired}").unwrap();
                        }
                        call += 1;
                    };
                    note(
                        "batch",
                        s.on_batch(&batch(pass as i64 * 3..pass as i64 * 3 + 3)),
                    );
                    note("access", s.on_access(pass));
                    for hooked in SITES {
                        if !matches!(hooked, FaultSite::Access | FaultSite::Diff) {
                            note(hooked.label(), hook(&s, hooked, 10 * pass + 5));
                        }
                    }
                }
            }
        }
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

type BoxedEngine = Box<dyn Engine>;

fn build(label: &str, db: &mut Database) -> BoxedEngine {
    let cfg = example();
    let plan = cfg.agg_plan(db).unwrap();
    match label {
        "id-ivm" => Box::new(IdIvm::setup(db, "V", plan, IvmOptions::default()).unwrap()),
        "tuple-ivm" => Box::new(TupleIvm::setup(db, "V", plan).unwrap()),
        "sdbt-fixed" => {
            let partial = cfg.sdbt_parts_partial(db).unwrap();
            let fixed = SdbtVariant::Fixed("parts".to_string());
            Box::new(Sdbt::setup(db, "V", plan, vec![partial], fixed).unwrap())
        }
        _ => {
            let partials = cfg.sdbt_all_partials(db).unwrap();
            Box::new(Sdbt::setup(db, "V", plan, partials, SdbtVariant::Streams).unwrap())
        }
    }
}

/// Straight to the recompute step: no retry, no bisection.
fn escalation_transcript(out: &mut String) {
    let config = SupervisorConfig {
        max_retries: 0,
        bisect: false,
        recompute_fallback: true,
        ..SupervisorConfig::seeded(SEED)
    };
    for label in ["id-ivm", "tuple-ivm", "sdbt-fixed", "sdbt-streams"] {
        for traced in [false, true] {
            let cfg = example();
            let mut db = cfg.build().unwrap();
            let mut ivm = build(label, &mut db);
            cfg.price_update_batch(&mut db, 25, 0).unwrap();
            ivm.maintain(&mut db).unwrap();
            cfg.price_update_batch(&mut db, 25, 1).unwrap();
            ivm.set_trace(TraceConfig { enabled: traced });
            ivm.set_faults(arm(FaultSite::Operator, 0, SEED).permanent());
            let report = MaintenanceSupervisor::new(&mut ivm, config).run(&mut db);
            writeln!(out, "{label} traced={traced}: {}", report.verdict.label()).unwrap();
            writeln!(out, "  {}", report.to_json()).unwrap();
            let last = report.last_round.as_ref().expect("the recompute round");
            writeln!(
                out,
                "  recovered={} recovery={:?} cause={:?}",
                last.recovered, last.recovery, last.recovery_cause
            )
            .unwrap();
            writeln!(
                out,
                "  trace={:?}",
                last.trace.as_ref().map(|t| &t.operators)
            )
            .unwrap();
            assert!(db.log().is_empty(), "{label}: log not consumed");
            assert_eq!(
                sorted(ivm.visible_rows(&db).unwrap()),
                sorted(recompute_rows(&db, ivm.plan()).unwrap()),
                "{label}: recompute repair diverged from the oracle"
            );
        }
    }
}

#[test]
fn fault_hooks_and_supervisor_escalation_are_pinned() {
    let mut out = String::new();
    hook_transcript(&mut out);
    escalation_transcript(&mut out);
    for needle in [
        "operator entry 2 (`op25`)",
        "apply call 0 (target `t5`)",
        "batch cut 1 (15 events pending)",
        "wal append 2 (lsn 25)",
        "checkpoint 0 (last lsn 5)",
        "poison key",
        "access checkpoint (cumulative 2)",
        "tuple-ivm traced=true: recomputed",
    ] {
        assert!(
            out.contains(needle),
            "transcript never shows `{needle}`:\n{out}"
        );
    }
    assert_eq!(
        (out.len(), fnv1a(out.as_bytes())),
        (55925, 0x6931_de49_d164_a600),
        "engine-knob transcript moved:\n{out}"
    );
}
