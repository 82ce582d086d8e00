//! Multi-view differential oracle suite: the view catalog + scheduler
//! over the overlapping Q7-family BSMA views, driven by the tweet
//! stream.
//!
//! The contract under test:
//!
//! * **Oracle equivalence** — after any interleaving of Eager /
//!   Deferred / OnRead rounds (with mid-stream `read_view` barriers)
//!   followed by a drain, every cataloged view is bit-identical to the
//!   full recompute oracle over the current base state — serial and at
//!   P = 4.
//! * **Policy convergence** — all-Eager, all-Deferred, and all-OnRead
//!   runs of the same tweet stream converge to identical table
//!   signatures once drained: composing pending nets across ticks is
//!   exact ([`compose_changes`] associativity).
//! * **Shared-prefix transparency** — shared-prefix maintenance spends
//!   strictly fewer counted accesses than independent maintenance and
//!   changes nothing about the per-view contents.
//! * **Failure isolation** — a poisoned diff stream for one view is
//!   quarantined by that view's supervisor without corrupting or
//!   blocking its siblings: the same tick still maintains every other
//!   view, and the siblings match the full oracle.

use idivm_repro::catalog::{MaintenanceScheduler, RefreshPolicy, SchedulerConfig};
use idivm_repro::core::{EngineConfig, FaultPlan, IvmOptions, SupervisorVerdict};
use idivm_repro::exec::{executor::sorted, recompute_rows, ParallelConfig};
use idivm_repro::workloads::bsma::Bsma;
use idivm_repro::workloads::multiview::VIEW_NAMES;
use idivm_repro::workloads::MultiView;

const DIFFS: usize = 24;
const ROUNDS: u64 = 5;

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

/// Fresh scheduler over a freshly built database, all four views
/// registered under `policy`.
fn scheduler(
    cfg: &MultiView,
    share_prefixes: bool,
    policy: impl Fn(&str) -> RefreshPolicy,
) -> MaintenanceScheduler {
    let db = cfg.build().unwrap();
    let mut sched = MaintenanceScheduler::new(
        db,
        SchedulerConfig {
            share_prefixes,
            ..SchedulerConfig::default()
        },
    );
    for name in VIEW_NAMES {
        let plan = cfg.plan(sched.db(), name).unwrap();
        sched
            .register(name, plan, policy(name), IvmOptions::default())
            .unwrap();
    }
    sched
}

/// Assert `name`'s materialized rows equal the recompute oracle over
/// the scheduler's current base state.
fn assert_matches_oracle(sched: &MaintenanceScheduler, name: &str, context: &str) {
    let view = sched.catalog().view(name).unwrap();
    let oracle = recompute_rows(sched.db(), view.engine().plan()).unwrap();
    assert_eq!(
        sorted(sched.catalog().rows(name).unwrap()),
        sorted(oracle),
        "{context}: `{name}` diverged from the recompute oracle"
    );
}

/// Interleaved policies: one view per policy flavor, plus a second
/// Deferred with a different staleness bound.
fn mixed_policy(name: &str) -> RefreshPolicy {
    match name {
        "mention_favor" => RefreshPolicy::Eager,
        "mention_timeline" => RefreshPolicy::Deferred {
            max_staleness_rounds: 2,
        },
        "mention_topic_counts" => RefreshPolicy::OnRead,
        _ => RefreshPolicy::Deferred {
            max_staleness_rounds: 3,
        },
    }
}

#[test]
fn mixed_policy_rounds_match_recompute_oracle_serial_and_parallel() {
    let cfg = suite();
    for (parallel, label) in [
        (ParallelConfig::serial(), "serial"),
        (four_threads(), "P=4"),
    ] {
        let mut sched = scheduler(&cfg, true, mixed_policy);
        sched.set_parallel_all(parallel).unwrap();
        for round in 1..=ROUNDS {
            cfg.tweet_batch(sched.db_mut(), DIFFS, round).unwrap();
            let summary = sched.tick().unwrap();
            assert!(
                summary.verdicts.is_empty(),
                "{label} round {round}: clean run went through the supervisor"
            );
            // The Eager view keeps up every tick regardless of what its
            // siblings defer.
            assert_eq!(sched.staleness("mention_favor").unwrap(), 0, "{label}");
            assert_matches_oracle(&sched, "mention_favor", label);
            if round == 3 {
                // Mid-stream read barrier on the OnRead view: drains
                // just that view, up to date as of *this* tick.
                let rows = sched.read_view("mention_topic_counts").unwrap();
                assert!(!rows.is_empty(), "{label}: read barrier returned no rows");
                assert_matches_oracle(&sched, "mention_topic_counts", label);
                assert_eq!(sched.staleness("mention_topic_counts").unwrap(), 0);
            }
        }
        // Deferred/OnRead views may be stale here; a drain brings
        // everything to the oracle state.
        sched.drain().unwrap();
        for name in VIEW_NAMES {
            assert_eq!(sched.staleness(name).unwrap(), 0, "{label}");
            assert!(sched.pending(name).unwrap().is_empty(), "{label}");
            assert_matches_oracle(&sched, name, label);
        }
    }
}

#[test]
fn deferred_views_fold_rounds_and_onread_defers_indefinitely() {
    let cfg = suite();
    let mut sched = scheduler(&cfg, true, mixed_policy);
    let mut timeline_rounds = Vec::new();
    for round in 1..=6u64 {
        cfg.tweet_batch(sched.db_mut(), DIFFS, round).unwrap();
        let summary = sched.tick().unwrap();
        if summary
            .maintained
            .iter()
            .any(|(n, _)| n == "mention_timeline")
        {
            timeline_rounds.push(round);
        }
        // OnRead never refreshes on a tick.
        assert!(
            summary
                .maintained
                .iter()
                .all(|(n, _)| n != "mention_topic_counts"),
            "round {round}: OnRead view refreshed without a read barrier"
        );
    }
    // Deferred(2): refreshes every second tick, folding two ticks of
    // changes into one round.
    assert_eq!(timeline_rounds, vec![2, 4, 6]);
    assert_eq!(sched.staleness("mention_topic_counts").unwrap(), 6);
    assert_eq!(sched.stats("mention_topic_counts").unwrap().rounds, 0);
    assert_eq!(sched.stats("mention_favor").unwrap().rounds, 6);
    assert_eq!(sched.stats("mention_timeline").unwrap().rounds, 3);
}

#[test]
fn policy_variants_converge_to_identical_signatures() {
    let cfg = suite();
    type PolicyFn = Box<dyn Fn(&str) -> RefreshPolicy>;
    let variants: Vec<(&str, PolicyFn)> = vec![
        ("eager", Box::new(|_: &str| RefreshPolicy::Eager)),
        (
            "deferred(2)",
            Box::new(|_: &str| RefreshPolicy::Deferred {
                max_staleness_rounds: 2,
            }),
        ),
        ("on_read", Box::new(|_: &str| RefreshPolicy::OnRead)),
        ("mixed", Box::new(mixed_policy)),
    ];
    let mut baseline = None;
    for (label, policy) in variants {
        let mut sched = scheduler(&cfg, true, policy);
        for round in 1..=ROUNDS {
            cfg.tweet_batch(sched.db_mut(), DIFFS, round).unwrap();
            sched.tick().unwrap();
        }
        sched.drain().unwrap();
        let sigs: Vec<_> = VIEW_NAMES
            .iter()
            .map(|n| sched.catalog().signature(n).unwrap())
            .collect();
        match &baseline {
            None => baseline = Some(sigs),
            Some(expected) => assert_eq!(
                &sigs, expected,
                "{label}: drained state differs from the eager run"
            ),
        }
    }
}

#[test]
fn shared_prefixes_save_accesses_without_changing_contents() {
    let cfg = suite();
    let mut totals = Vec::new();
    let mut sigs = Vec::new();
    for share in [true, false] {
        let mut sched = scheduler(&cfg, share, |_| RefreshPolicy::Eager);
        let mut hits = 0;
        for round in 1..=ROUNDS {
            cfg.tweet_batch(sched.db_mut(), DIFFS, round).unwrap();
            hits += sched.tick().unwrap().shared_hits;
        }
        let total: u64 = VIEW_NAMES
            .iter()
            .map(|n| sched.stats(n).unwrap().accesses.total())
            .collect::<Vec<_>>()
            .iter()
            .sum();
        if share {
            assert!(hits > 0, "shared run produced no reuse hits");
        } else {
            assert_eq!(hits, 0, "independent run must not touch the shared cache");
        }
        totals.push(total);
        sigs.push(
            VIEW_NAMES
                .iter()
                .map(|n| sched.catalog().signature(n).unwrap())
                .collect::<Vec<_>>(),
        );
    }
    assert!(
        totals[0] < totals[1],
        "shared maintenance ({}) must cost less than independent ({})",
        totals[0],
        totals[1]
    );
    assert_eq!(sigs[0], sigs[1], "sharing changed view contents");
}

#[test]
fn poisoned_view_is_quarantined_without_corrupting_or_blocking_siblings() {
    let cfg = suite();
    let mut sched = scheduler(&cfg, true, |_| RefreshPolicy::Eager);
    let poisoned = "mention_timeline";
    let siblings: Vec<&str> = VIEW_NAMES.iter().copied().filter(|n| *n != poisoned).collect();

    // Warm round: everything healthy.
    cfg.tweet_batch(sched.db_mut(), DIFFS, 1).unwrap();
    let summary = sched.tick().unwrap();
    assert!(summary.verdicts.is_empty());

    // Poison the diff stream of one view only.
    sched
        .catalog_mut()
        .view_mut(poisoned)
        .unwrap()
        .engine_mut()
        .set_faults(FaultPlan::at_diff(3, 2015).permanent());
    cfg.tweet_batch(sched.db_mut(), DIFFS, 2).unwrap();
    let summary = sched.tick().unwrap();

    // The poisoned view went through its supervisor and was minimally
    // quarantined — and the *same tick* still maintained every sibling.
    assert_eq!(summary.maintained.len(), 5, "a view was blocked");
    let verdicts: Vec<&(String, SupervisorVerdict)> = summary.verdicts.iter().collect();
    assert_eq!(verdicts.len(), 1, "only the poisoned view may be supervised");
    assert_eq!(verdicts[0].0, poisoned);
    assert_eq!(verdicts[0].1, SupervisorVerdict::ConvergedQuarantined);
    let stats = sched.stats(poisoned).unwrap();
    assert_eq!(stats.supervised_rounds, 1);
    assert!(stats.quarantined_changes > 0, "nothing was quarantined");
    assert!(
        sched.pending(poisoned).unwrap().is_empty(),
        "healthy quarantined round must clear the pending net"
    );

    // Siblings are bit-exact against the full oracle; the poisoned
    // view is missing exactly its quarantined changes, so it is *not*
    // compared against the full oracle here.
    for name in &siblings {
        assert_matches_oracle(&sched, name, "post-quarantine tick");
    }

    // Heal the view; later rounds propagate cleanly for everyone again
    // (the quarantined changes stay dropped — supervisor contract).
    sched
        .catalog_mut()
        .view_mut(poisoned)
        .unwrap()
        .engine_mut()
        .set_faults(FaultPlan::disabled());
    cfg.tweet_batch(sched.db_mut(), DIFFS, 3).unwrap();
    let summary = sched.tick().unwrap();
    assert!(summary.verdicts.is_empty(), "healed view still supervised");
    for name in &siblings {
        assert_matches_oracle(&sched, name, "post-heal tick");
    }
}

/// A view whose round cannot converge — not incrementally, not bisected,
/// not by recompute — keeps its pending net exactly as it was: the
/// scheduler runs the round on the net itself (no copy), so a failed
/// round has to hand it back whole.
#[test]
fn degraded_view_keeps_its_pending_net_exactly() {
    let cfg = suite();
    let stuck = "mention_users";
    let mut sched = scheduler(&cfg, true, |name| match name {
        "mention_users" => RefreshPolicy::OnRead,
        _ => RefreshPolicy::Eager,
    });
    for round in 1..=2 {
        cfg.tweet_batch(sched.db_mut(), DIFFS, round).unwrap();
        sched.tick().unwrap();
    }
    let pending = sched.pending(stuck).unwrap().clone();
    assert!(!pending.is_empty(), "OnRead view accumulated nothing");

    // Take away the view's own table: the round, every bisected
    // sub-round and the recompute escalation all fail on it.
    sched.db_mut().drop_table(stuck);
    let err = sched.read_view(stuck).unwrap_err();
    assert!(
        err.to_string().contains("degraded"),
        "unexpected error: {err}"
    );
    assert_eq!(
        sched.stats(stuck).unwrap().last_verdict,
        Some(SupervisorVerdict::Degraded)
    );
    assert_eq!(
        sched.pending(stuck).unwrap(),
        &pending,
        "read barrier lost pending changes"
    );

    let summary = sched.drain().unwrap();
    assert_eq!(
        summary.verdicts,
        vec![(stuck.to_string(), SupervisorVerdict::Degraded)]
    );
    assert_eq!(
        sched.pending(stuck).unwrap(),
        &pending,
        "drain lost pending changes"
    );
}
