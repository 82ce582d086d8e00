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
use idivm_repro::core::{EngineConfig, FaultPlan, FaultSite, IvmOptions, SupervisorVerdict};
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
        .set_faults(FaultPlan::at(FaultSite::Diff, 3, 2015).permanent());
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

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Differential pin of the pending nets, written before the round's net
/// became a shared value (PR 24). One seeded run over the five views
/// plus a `Deferred{2}` twin of `mention_reach`, with an `OnRead` view,
/// a forced promotion (whose Δ fans out to an eager and two deferred
/// consumers), read barriers mid-stream and one round in which `users`
/// is gone, so the backing and every view that scans it degrade and get
/// their nets handed back. After **every** call each node's pending net
/// must equal a reference kept here the way the scheduler kept it then:
/// a deep copy of the node's slice of the fold, composed key by key
/// ([`compose_changes`]) onto what the node has not consumed yet. The
/// sharing outcomes of every summary are pinned as a transcript: a
/// copy-on-write that leaks into a sibling, a stale digest or a lost
/// horizon group shows up in one or the other.
#[test]
fn pending_nets_match_the_deep_copy_reference() {
    use idivm_repro::reldb::{compose_changes, table_delta};
    use idivm_repro::types::row;
    use std::collections::{BTreeMap, HashMap};
    use std::fmt::Write;

    const TWIN: &str = "mention_reach_twin";
    let deferred2 = RefreshPolicy::Deferred {
        max_staleness_rounds: 2,
    };
    let cfg = suite();
    let mut sched = scheduler(&cfg, true, |name| match name {
        "mention_reach" => deferred2,
        "mention_topic_counts" => RefreshPolicy::OnRead,
        _ => RefreshPolicy::Eager,
    });
    let plan = cfg.plan(sched.db(), "mention_reach").unwrap();
    sched
        .register(TWIN, plan, deferred2, IvmOptions::default())
        .unwrap();

    // Node name → the net it has been handed and not yet consumed.
    let mut reference = BTreeMap::new();
    let mut out = String::new();

    // (rounds, supervised rounds) of a node, either role.
    fn rounds(sched: &MaintenanceScheduler, node: &str) -> (u64, u64) {
        let stats = sched
            .stats(node)
            .or_else(|_| sched.intermediate_stats(node))
            .unwrap();
        (stats.rounds, stats.supervised_rounds)
    }
    // A round ran in between and consumed the node's net.
    fn consumed(sched: &MaintenanceScheduler, node: &str, before: (u64, u64)) -> bool {
        let after = rounds(sched, node);
        let verdict = sched
            .stats(node)
            .or_else(|_| sched.intermediate_stats(node))
            .unwrap()
            .last_verdict;
        after.0 > before.0
            && (after.1 == before.1
                || verdict.is_some_and(|v| v.healthy() && v != SupervisorVerdict::Idle))
    }
    fn nodes(sched: &MaintenanceScheduler) -> Vec<String> {
        let mut nodes = sched.intermediates();
        nodes.extend(sched.catalog().names().into_iter().map(str::to_string));
        nodes
    }
    fn backing_rows(sched: &MaintenanceScheduler, backing: &str) -> Vec<idivm_repro::types::Row> {
        sorted(sched.db().table(backing).unwrap().rows_uncounted())
    }

    // Run `$call` between the reference's two halves: before it, every
    // node's slice of the fold is deep-copied and composed in; after
    // it, a backing's Δ goes to its consumers, whoever ran a converging
    // round starts from nothing again, and every node is compared.
    macro_rules! pinned {
        ($what:expr, $call:expr) => {{
            let net = sched.db().fold_log();
            let mut before = BTreeMap::new();
            let mut pre_rows = BTreeMap::new();
            for node in nodes(&sched) {
                let catalog = sched.catalog();
                let tables = catalog
                    .view(&node)
                    .or_else(|_| catalog.intermediate(&node))
                    .unwrap()
                    .tables();
                let slice: HashMap<_, _> = net
                    .iter()
                    .filter(|(t, _)| tables.contains(t))
                    .map(|(t, c)| (t.clone(), c.clone()))
                    .collect();
                if !slice.is_empty() {
                    compose_changes(reference.entry(node.clone()).or_default(), slice);
                }
                if catalog.intermediate(&node).is_ok() {
                    pre_rows.insert(node.clone(), backing_rows(&sched, &node));
                }
                before.insert(node.clone(), rounds(&sched, &node));
            }
            let result = $call;
            for (backing, pre) in &pre_rows {
                let key = sched.db().table(backing).unwrap().schema().key().to_vec();
                let delta = table_delta(pre, &backing_rows(&sched, backing), &key);
                if delta.is_empty() {
                    continue;
                }
                let node = sched.catalog().intermediate(backing).unwrap();
                for consumer in node.consumers() {
                    let slice = HashMap::from([(backing.clone(), delta.clone().into())]);
                    compose_changes(reference.entry(consumer.clone()).or_default(), slice);
                }
            }
            for (node, before) in &before {
                if consumed(&sched, node, *before) {
                    reference.remove(node);
                }
            }
            for node in nodes(&sched) {
                let pending = match sched.pending(&node) {
                    Ok(pending) => pending.clone(),
                    Err(_) => sched.intermediate_pending(&node).unwrap(),
                };
                let expected = reference.get(&node).cloned().unwrap_or_default();
                assert_eq!(pending, expected, "{}: pending net of `{node}`", $what);
            }
            result
        }};
    }
    let render = |what: &str, s: &idivm_repro::catalog::RoundSummary, out: &mut String| {
        writeln!(
            out,
            "{what} round={} hits={} saved={}",
            s.round, s.shared_hits, s.shared_saved_accesses
        )
        .unwrap();
        // One stat per horizon: equal labels come in map order.
        let mut stats: Vec<String> = s
            .prefix_stats
            .iter()
            .map(|p| {
                let compute = p.compute_accesses.total();
                format!("  {} compute={compute} diffs={} hits={}\n", p.label, p.diff_tuples, p.hits)
            })
            .collect();
        stats.sort();
        out.push_str(&stats.concat());
    };

    let mut backing = None;
    for round in 1..=12u64 {
        // Round 8 takes `users` away (the batch is hand-made: folding a
        // logged `users` change without the table would panic).
        let users = (round == 8).then(|| {
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
        let summary = pinned!(format!("tick {round}"), sched.tick().unwrap());
        render("tick", &summary, &mut out);
        if round == 3 {
            let label = "join[mentions,microblog,users]";
            backing = Some(pinned!("promote", sched.force_promote(label).unwrap()));
        }
        // The twins are read together (and stay on one horizon) until
        // round 10 reads one of them alone.
        let reads: &[&str] = match round {
            4 => &["mention_topic_counts", "mention_reach", TWIN],
            8 => &["mention_topic_counts", "mention_reach"],
            10 => &[TWIN],
            12 => &["mention_reach"],
            _ => &[],
        };
        for name in reads {
            match pinned!(format!("read {name} @{round}"), sched.read_view(name)) {
                Ok(rows) => writeln!(out, "read {name} rows={}", rows.len()).unwrap(),
                Err(_) => writeln!(out, "read {name} refused").unwrap(),
            }
        }
        if let Some(users) = users {
            // The degraded backing got its net back, and so did every
            // view that sat the round out behind it.
            let b = backing.as_deref().unwrap();
            assert!(!sched.intermediate_pending(b).unwrap().is_empty());
            let sat_out = |view: &str| summary.deferred.iter().any(|(n, _)| n == view);
            assert!(sat_out("mention_reach") && sat_out(TWIN));
            assert!(!sched.pending(TWIN).unwrap().is_empty());
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
    let summary = pinned!("drain", sched.drain().unwrap());
    render("drain", &summary, &mut out);
    assert!(reference.is_empty(), "the drain left a net behind");
    for name in VIEW_NAMES.iter().copied().chain([TWIN]) {
        assert_matches_oracle(&sched, name, "after the pinned run");
    }

    // The run must have gone where the doc comment says.
    for needle in [
        "read mention_reach refused",
        "project[mentions,microblog,users] compute=473 diffs=37 hits=1",
        "project[__ivm0] compute=0 diffs=75 hits=1",
        "project[__ivm0] compute=0 diffs=77 hits=0",
    ] {
        assert!(out.contains(needle), "transcript never shows `{needle}`:\n{out}");
    }
    assert_eq!(
        (out.len(), fnv1a(out.as_bytes())),
        (1885, 0xbb91_1753_f1bd_48de),
        "sharing transcript moved:\n{out}"
    );
}
