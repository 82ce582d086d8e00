//! Adaptive intermediate-materialization suite: promotion of hot
//! shared prefixes to hidden backing tables, their O(Δ) maintenance,
//! and the cost-model crossover loop.
//!
//! The contract under test:
//!
//! * **Lifecycle convergence** — promote → fault → supervised recovery
//!   → demote → re-promote, driven by the scheduler, converges every
//!   view to the recompute oracle over its *original* (source) plan —
//!   serial and at P = 4, with bit-identical database signatures.
//! * **Promotion transparency** — with the cost model enabled the
//!   deep `join[mentions,microblog,users]` prefix is promoted after
//!   the hysteresis window, total accesses drop versus the
//!   sharing-only run, and every view's contents are unchanged.
//! * **No wasted publishes** — every prefix the shared cache publishes
//!   is reused at least once (`saved_accesses > 0`): designation
//!   suppresses groups fully covered by an enclosing designated group.
//! * **Decision determinism** — two runs of the same stream produce
//!   byte-identical promotion decision logs (and so do serial vs
//!   P = 4 runs).

use idivm_repro::catalog::{MaintenanceScheduler, RefreshPolicy, SchedulerConfig};
use idivm_repro::core::{EngineConfig, FaultPlan, FaultSite, IvmOptions};
use idivm_repro::cost::PromotionConfig;
use idivm_repro::exec::{executor::sorted, recompute_rows, ParallelConfig};
use idivm_repro::workloads::bsma::Bsma;
use idivm_repro::workloads::multiview::VIEW_NAMES;
use idivm_repro::workloads::MultiView;
use idivm_repro::types::row;

const DIFFS: usize = 24;
const DEEP: &str = "join[mentions,microblog,users]";
const DEEP_CONSUMERS: [&str; 3] = ["mention_favor", "mention_reach", "mention_users"];

fn suite() -> MultiView {
    MultiView {
        bsma: Bsma {
            scale: 0.02,
            seed: 424242,
        },
    }
}

fn four_threads() -> ParallelConfig {
    ParallelConfig {
        threads: 4,
        min_shard_rows: 2,
    }
}

fn scheduler(cfg: &MultiView, config: SchedulerConfig) -> MaintenanceScheduler {
    let db = cfg.build().unwrap();
    let mut sched = MaintenanceScheduler::new(db, config);
    for name in VIEW_NAMES {
        let plan = cfg.plan(sched.db(), name).unwrap();
        sched
            .register(name, plan, RefreshPolicy::Eager, IvmOptions::default())
            .unwrap();
    }
    sched
}

/// Assert `name`'s materialized rows equal the recompute oracle over
/// its *source* plan — the plan as registered, before any promotion
/// rewired it. This keeps the oracle independent of backing tables.
fn assert_matches_source_oracle(sched: &MaintenanceScheduler, name: &str, context: &str) {
    let view = sched.catalog().view(name).unwrap();
    // The engines materialize the ID-extended plan; extend the source
    // plan the same way so the oracle has identical output columns.
    let plan = idivm_repro::algebra::ensure_ids(view.source_plan().clone()).unwrap();
    let oracle = recompute_rows(sched.db(), &plan).unwrap();
    assert_eq!(
        sorted(sched.catalog().rows(name).unwrap()),
        sorted(oracle),
        "{context}: `{name}` diverged from the source-plan recompute oracle"
    );
}

#[test]
fn forced_promotion_lifecycle_converges_serial_and_parallel() {
    let cfg = suite();
    let mut final_sigs = Vec::new();
    for (parallel, label) in [
        (ParallelConfig::serial(), "serial"),
        (four_threads(), "P=4"),
    ] {
        let mut sched = scheduler(&cfg, SchedulerConfig::default());
        sched.set_parallel_all(parallel).unwrap();

        // Warm round, then promote the deep prefix.
        cfg.tweet_batch(sched.db_mut(), DIFFS, 1).unwrap();
        sched.tick().unwrap();
        let backing = sched.force_promote(DEEP).unwrap();
        let iv = sched.catalog().intermediate(&backing).unwrap();
        assert_eq!(
            iv.consumers().iter().map(String::as_str).collect::<Vec<_>>(),
            DEEP_CONSUMERS.to_vec(),
            "{label}: unexpected consumer set"
        );
        for name in DEEP_CONSUMERS {
            let tables: Vec<String> = sched
                .catalog()
                .view(name)
                .unwrap()
                .tables()
                .to_vec();
            assert!(
                tables.contains(&backing),
                "{label}: `{name}` was not rewired to scan `{backing}`"
            );
        }

        // Maintained rounds through the backing: O(Δ) fan-out.
        for round in 2..=3u64 {
            cfg.tweet_batch(sched.db_mut(), DIFFS, round).unwrap();
            let summary = sched.tick().unwrap();
            assert!(summary.verdicts.is_empty(), "{label} round {round}");
            assert_eq!(
                summary.intermediates.len(),
                1,
                "{label} round {round}: intermediate was not maintained"
            );
            for name in VIEW_NAMES {
                assert_matches_source_oracle(&sched, name, &format!("{label} round {round}"));
            }
        }

        // Fault the intermediate's next round (transient, healing
        // after one supervised attempt): the scheduler routes it
        // through the supervisor, whose retry commits the full delta —
        // consumers still see exact changes.
        sched
            .catalog_mut()
            .intermediate_mut(&backing)
            .unwrap()
            .engine_mut()
            .set_faults(FaultPlan::at(FaultSite::Operator, 1, 0x5eed_2015).healing_after(1));
        cfg.tweet_batch(sched.db_mut(), DIFFS, 4).unwrap();
        let summary = sched.tick().unwrap();
        let verdict = summary
            .verdicts
            .iter()
            .find(|(n, _)| n == &backing)
            .unwrap_or_else(|| panic!("{label}: faulted intermediate round was not supervised"))
            .1;
        assert!(verdict.healthy(), "{label}: supervisor did not converge");
        assert!(
            sched.intermediate_stats(&backing).unwrap().supervised_rounds >= 1,
            "{label}: supervised round not accounted"
        );
        for name in VIEW_NAMES {
            assert_matches_source_oracle(&sched, name, &format!("{label} post-fault"));
        }

        // Demote: consumers return to their inline plans.
        sched.force_demote(&backing).unwrap();
        assert!(sched.intermediates().is_empty(), "{label}: demote left state");
        for name in DEEP_CONSUMERS {
            let tables: Vec<String> = sched
                .catalog()
                .view(name)
                .unwrap()
                .tables()
                .to_vec();
            assert!(
                !tables.contains(&backing),
                "{label}: `{name}` still scans the dropped backing"
            );
        }
        cfg.tweet_batch(sched.db_mut(), DIFFS, 5).unwrap();
        sched.tick().unwrap();
        for name in VIEW_NAMES {
            assert_matches_source_oracle(&sched, name, &format!("{label} post-demote"));
        }

        // Re-promote: the lifecycle is repeatable.
        let backing2 = sched.force_promote(DEEP).unwrap();
        assert_ne!(backing, backing2, "{label}: backing names must not be reused");
        cfg.tweet_batch(sched.db_mut(), DIFFS, 6).unwrap();
        let summary = sched.tick().unwrap();
        assert!(summary.verdicts.is_empty(), "{label} post-re-promotion");
        sched.drain().unwrap();
        for name in VIEW_NAMES {
            assert_matches_source_oracle(&sched, name, &format!("{label} re-promoted"));
        }
        // Drop the backing again so the final signature covers only
        // the views (backing names differ between runs only if the
        // lifecycles diverged — they must not).
        sched.force_demote(&backing2).unwrap();
        final_sigs.push(sched.db().signature());
    }
    assert_eq!(
        final_sigs[0], final_sigs[1],
        "serial and P=4 lifecycles diverged"
    );
}

#[test]
fn every_published_prefix_saves_accesses() {
    // Satellite regression: PR5 published `join[mentions,microblog]`
    // every round with hits = 0 for the views whose occurrence lies
    // inside the deeper `⋈ users` prefix. Designation now suppresses
    // fully covered groups, so every published prefix must be reused.
    let cfg = suite();
    let mut sched = scheduler(&cfg, SchedulerConfig::default());
    for round in 1..=3u64 {
        cfg.tweet_batch(sched.db_mut(), DIFFS, round).unwrap();
        let summary = sched.tick().unwrap();
        assert!(
            !summary.prefix_stats.is_empty(),
            "round {round}: no shared prefixes published"
        );
        for stat in &summary.prefix_stats {
            assert!(
                stat.hits > 0,
                "round {round}: prefix `{}` was published but never reused",
                stat.label
            );
            assert!(
                stat.saved_accesses() > 0,
                "round {round}: prefix `{}` saved nothing (hits {}, compute {})",
                stat.label,
                stat.hits,
                stat.compute_accesses.total()
            );
        }
    }
}

/// Run `rounds` ticks with the cost model on, returning the scheduler
/// and the concatenated decision log (one line per cost entry).
fn run_with_promotion(
    cfg: &MultiView,
    parallel: ParallelConfig,
    rounds: u64,
) -> (MaintenanceScheduler, Vec<String>, u64) {
    let mut sched = scheduler(
        cfg,
        SchedulerConfig {
            promotion: Some(PromotionConfig::default()),
            ..SchedulerConfig::default()
        },
    );
    sched.set_parallel_all(parallel).unwrap();
    let mut decisions = Vec::new();
    let mut total_accesses = 0;
    for round in 1..=rounds {
        cfg.tweet_batch(sched.db_mut(), DIFFS, round).unwrap();
        let summary = sched.tick().unwrap();
        assert!(summary.verdicts.is_empty(), "round {round}");
        total_accesses += summary.total_accesses();
        for entry in &summary.cost {
            decisions.push(format!(
                "{}:{}:{}:{}:{}:{}:{}:{}",
                summary.round,
                entry.label,
                entry.promoted,
                entry.consumers,
                entry.observed_compute,
                entry.observed_diff_tuples,
                entry.predicted_maintain_milli,
                entry.decision.label()
            ));
        }
        for event in &summary.promotions {
            decisions.push(format!(
                "{}:{}:{}:{}",
                summary.round, event.action, event.backing, event.label
            ));
        }
    }
    (sched, decisions, total_accesses)
}

#[test]
fn cost_model_promotes_the_deep_prefix_and_stays_transparent() {
    let cfg = suite();
    const ROUNDS: u64 = 6;
    let (sched, decisions, promoted_total) =
        run_with_promotion(&cfg, ParallelConfig::serial(), ROUNDS);

    // The deep prefix crossed over and is materialized.
    assert!(
        decisions.iter().any(|d| d.contains(":promote:") && d.contains(DEEP)),
        "no promotion fired in {ROUNDS} rounds: {decisions:#?}"
    );
    let backings = sched.intermediates();
    assert!(!backings.is_empty(), "promotion did not persist");
    let deep_backing = backings
        .iter()
        .find(|b| sched.catalog().intermediate(b).unwrap().label() == DEEP)
        .expect("deep prefix not among the promoted intermediates");
    assert!(
        sched.catalog().intermediate(deep_backing).unwrap().consumers().len() >= 3,
        "deep intermediate must serve >= 3 consumers"
    );

    // Contents are unchanged versus a sharing-only run of the same
    // stream.
    let mut baseline = scheduler(&cfg, SchedulerConfig::default());
    let mut baseline_total = 0;
    for round in 1..=ROUNDS {
        cfg.tweet_batch(baseline.db_mut(), DIFFS, round).unwrap();
        baseline_total += baseline.tick().unwrap().total_accesses();
    }
    for name in VIEW_NAMES {
        assert_eq!(
            sorted(sched.catalog().rows(name).unwrap()),
            sorted(baseline.catalog().rows(name).unwrap()),
            "promotion changed `{name}`'s contents"
        );
    }

    // And it pays: the adaptive run must not lose to sharing alone.
    assert!(
        promoted_total <= baseline_total,
        "promotion regressed total accesses: {promoted_total} > {baseline_total}"
    );
}

#[test]
fn promotion_decisions_are_deterministic_across_runs_and_thread_counts() {
    let cfg = suite();
    let (_, first, _) = run_with_promotion(&cfg, ParallelConfig::serial(), 5);
    let (_, second, _) = run_with_promotion(&cfg, ParallelConfig::serial(), 5);
    assert_eq!(first, second, "same-config reruns diverged");
    let (_, parallel, _) = run_with_promotion(&cfg, four_threads(), 5);
    assert_eq!(first, parallel, "serial and P=4 decision logs diverged");
    assert!(!first.is_empty(), "cost model produced no decisions");
}

/// A promoted intermediate lives in the catalog and is scheduled, but
/// it is not a view: every by-name entry point a user reaches views
/// through refuses its `__ivm{n}` name with `Error::Config`, and the
/// intermediate accessors refuse a view's name.
#[test]
fn a_backing_is_not_addressable_as_a_view() {
    use idivm_repro::types::Error;
    let cfg = suite();
    let mut sched = scheduler(&cfg, SchedulerConfig::default());
    cfg.tweet_batch(sched.db_mut(), DIFFS, 1).unwrap();
    sched.tick().unwrap();
    let backing = sched.force_promote(DEEP).unwrap();
    let b = backing.as_str();
    // Leave the backing and its consumers with something pending.
    cfg.tweet_batch(sched.db_mut(), DIFFS, 2).unwrap();

    fn refused<T>(what: &str, result: Result<T, Error>) {
        match result {
            Err(Error::Config(_)) => {}
            Err(e) => panic!("{what}: expected Error::Config, got {e}"),
            Ok(_) => panic!("{what}: a backing name was accepted as a view"),
        }
    }
    refused("read_view", sched.read_view(b));
    refused("stats", sched.stats(b).map(|_| ()));
    refused("policy", sched.policy(b));
    refused("set_policy", sched.set_policy(b, RefreshPolicy::OnRead));
    refused("staleness", sched.staleness(b));
    refused("pending", sched.pending(b).map(|_| ()));
    refused("unregister", sched.unregister(b));
    let plan = cfg.plan(sched.db(), "mention_users").unwrap();
    refused(
        "register",
        sched.register(b, plan, RefreshPolicy::Eager, IvmOptions::default()),
    );
    refused("catalog.view", sched.catalog().view(b).map(|_| ()));
    refused(
        "catalog.intermediate(view)",
        sched.catalog().intermediate("mention_users").map(|_| ()),
    );
    refused(
        "intermediate_stats(view)",
        sched.intermediate_stats("mention_users").map(|_| ()),
    );
    assert_eq!(sched.catalog().names(), VIEW_NAMES.to_vec());
    assert_eq!(sched.catalog().len(), VIEW_NAMES.len());
    assert_eq!(sched.intermediates(), vec![backing.clone()]);

    // None of the refusals touched anything: the round still runs the
    // backing first, then every view, and all of them reach the oracle.
    let summary = sched.tick().unwrap();
    assert_eq!(summary.intermediates.len(), 1);
    assert_eq!(summary.intermediates[0].0, backing);
    assert_eq!(summary.maintained.len(), VIEW_NAMES.len());
    assert!(sched.catalog().intermediate(b).is_ok());
    assert!(sched.intermediate_stats(b).unwrap().rounds >= 1);
    for name in VIEW_NAMES {
        assert_matches_source_oracle(&sched, name, "after refusals");
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every field of a `RoundSummary` a caller can observe, as text.
fn render_summary(what: &str, s: &idivm_repro::catalog::RoundSummary, out: &mut String) {
    use std::fmt::Write;
    let nodes = |v: &[(String, idivm_repro::reldb::StatsSnapshot)]| {
        v.iter()
            .map(|(n, a)| format!("{n}={}+{}", a.tuple_accesses, a.index_lookups))
            .collect::<Vec<_>>()
            .join(",")
    };
    writeln!(out, "{what} round={}", s.round).unwrap();
    writeln!(out, "  intermediates [{}]", nodes(&s.intermediates)).unwrap();
    writeln!(out, "  maintained [{}]", nodes(&s.maintained)).unwrap();
    writeln!(out, "  deferred {:?}", s.deferred).unwrap();
    let verdicts: Vec<String> = s
        .verdicts
        .iter()
        .map(|(n, v)| format!("{n}:{}", v.label()))
        .collect();
    writeln!(out, "  verdicts [{}]", verdicts.join(",")).unwrap();
    for e in &s.promotions {
        writeln!(out, "  {} {} {} {:?}", e.action, e.backing, e.label, e.consumers).unwrap();
    }
    for c in &s.cost {
        writeln!(
            out,
            "  cost {} promoted={} n={} C={} D={} maintain={} recompute={} {}",
            c.label,
            c.promoted,
            c.consumers,
            c.observed_compute,
            c.observed_diff_tuples,
            c.predicted_maintain_milli,
            c.predicted_recompute_milli,
            c.decision.label()
        )
        .unwrap();
    }
    writeln!(
        out,
        "  shared hits={} saved={}",
        s.shared_hits, s.shared_saved_accesses
    )
    .unwrap();
}

/// One seeded run through every path a scheduler round can take — the
/// cost model promoting, a backing whose round heals under its
/// supervisor, one that quarantines, one that degrades and blocks its
/// consumers, a `Deferred` and an `OnRead` consumer, read barriers
/// mid-stream, a final drain — with every
/// `RoundSummary` rendered to text. The length and FNV-1a hash below
/// were recorded before the scheduler was rebuilt around one node type
/// (PR 21): the rounds a caller observes, the order nodes run in, what
/// is deferred, every counted access and every cost-model entry must
/// not move.
#[test]
fn round_summary_transcript_is_pinned() {
    use std::fmt::Write;
    let cfg = suite();
    let mut sched = MaintenanceScheduler::new(
        cfg.build().unwrap(),
        SchedulerConfig {
            promotion: Some(PromotionConfig::default()),
            ..SchedulerConfig::default()
        },
    );
    for name in VIEW_NAMES {
        let policy = match name {
            "mention_reach" => RefreshPolicy::Deferred {
                max_staleness_rounds: 2,
            },
            "mention_topic_counts" => RefreshPolicy::OnRead,
            _ => RefreshPolicy::Eager,
        };
        let plan = cfg.plan(sched.db(), name).unwrap();
        sched
            .register(name, plan, policy, IvmOptions::default())
            .unwrap();
    }

    let mut out = String::new();
    let mut faulted = 0;
    for round in 1..=14u64 {
        // Round 12 takes `users` away under the deep backing: its round,
        // every bisected sub-round and the recompute all fail on the
        // missing table, so it degrades, keeps its pending net and its
        // consumers sit the round out. (The batch is hand-made: folding
        // a logged `users` change without the table would panic.)
        let users = (round == 12).then(|| {
            let db = sched.db_mut();
            for i in 0..6i64 {
                let mid = 9_000_000 + i;
                db.insert("microblog", row![mid, i, 500_000 + i, 7]).unwrap();
                db.insert("mentions", row![mid, i + 1]).unwrap();
            }
            db.drop_table("users").unwrap()
        });
        if users.is_none() {
            cfg.tweet_batch(sched.db_mut(), DIFFS, round).unwrap();
        }
        // The first backing also faults once and heals on the
        // supervisor's retry (round 4), and faults at one operator on
        // every attempt, so its round is bisected down to a quarantine
        // (round 7).
        if let Some(backing) = sched.intermediates().first().cloned() {
            faulted += 1;
            let plan = match faulted {
                2 => FaultPlan::at(FaultSite::Operator, 1, 0x5eed_2015).healing_after(1),
                5 => FaultPlan::at(FaultSite::Operator, 1, 0x5eed_2015).permanent(),
                _ => FaultPlan::disabled(),
            };
            sched
                .catalog_mut()
                .intermediate_mut(&backing)
                .unwrap()
                .engine_mut()
                .set_faults(plan);
        }
        let summary = sched.tick().unwrap();
        render_summary("tick", &summary, &mut out);
        if round % 4 == 0 {
            for name in ["mention_topic_counts", "mention_reach"] {
                match sched.read_view(name) {
                    Ok(rows) => writeln!(out, "read {name} rows={}", rows.len()).unwrap(),
                    Err(e) => writeln!(out, "read {name} refused: {e}").unwrap(),
                }
            }
        }
        if let Some(users) = users {
            let db = sched.db_mut();
            db.create_table("users", users.schema().clone()).unwrap();
            let table = db.table_mut("users").unwrap();
            for row in users.rows_uncounted() {
                table.load(row).unwrap();
            }
            for columns in users.index_positions() {
                table.create_index_positions(columns);
            }
        }
    }
    let summary = sched.drain().unwrap();
    render_summary("drain", &summary, &mut out);
    for name in VIEW_NAMES {
        let s = sched.stats(name).unwrap();
        writeln!(
            out,
            "{name} rounds={} accesses={} diffs={} supervised={} quarantined={} reads={} hits={} rebuilds={} merged={} staleness={} sig={:016x}",
            s.rounds,
            s.accesses.total(),
            s.view_diff_tuples,
            s.supervised_rounds,
            s.quarantined_changes,
            s.reads,
            s.snapshot_hits,
            s.snapshot_rebuilds,
            s.rows_merged,
            sched.staleness(name).unwrap(),
            fnv1a(format!("{:?}", sched.catalog().signature(name).unwrap()).as_bytes())
        )
        .unwrap();
        // The quarantined changes stay dropped (supervisor contract),
        // so only the views off the faulted backing equal the oracle.
        if !DEEP_CONSUMERS.contains(&name) {
            assert_matches_source_oracle(&sched, name, "transcript end");
        }
    }
    for backing in sched.intermediates() {
        let s = sched.intermediate_stats(&backing).unwrap();
        writeln!(
            out,
            "{backing} rounds={} accesses={} diffs={} supervised={} quarantined={}",
            s.rounds,
            s.accesses.total(),
            s.view_diff_tuples,
            s.supervised_rounds,
            s.quarantined_changes
        )
        .unwrap();
    }

    // The transcript must actually have gone where the doc comment says.
    for needle in [
        "promote __ivm0",
        "__ivm0:converged]",
        "__ivm0:converged_quarantined]",
        "__ivm0:degraded]",
        "deferred [(\"mention_reach\"",
        "read mention_reach refused",
    ] {
        assert!(out.contains(needle), "transcript never shows `{needle}`:\n{out}");
    }
    assert_eq!(
        (out.len(), fnv1a(out.as_bytes())),
        (7551, 0x2562_e81e_f413_2a6b),
        "round-summary transcript moved:\n{out}"
    );
}
