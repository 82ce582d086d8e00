//! Multi-view catalog benchmark — adaptive intermediate
//! materialization vs shared-prefix maintenance vs independent
//! per-view maintenance on the overlapping Q7-family BSMA suite,
//! driven by the tweet stream.
//!
//! Usage:
//! ```text
//! cargo run --release -p idivm-bench -- multiview [--scale N --rounds R --diffs D --smoke]
//! ```
//!
//! Five standing views share the σ_ts(mentions ⋈ microblog) operator
//! subtree; three of them additionally share the deep `⋈ users` prefix
//! (one view — `mention_topic_counts` — is a deliberate negative
//! control whose diff schemas forbid sharing; see
//! `idivm_workloads::multiview`). The benchmark runs the identical
//! deterministic tweet stream through the [`MaintenanceScheduler`]
//! three ways — independent, shared prefixes, shared + cost-model
//! promotion — and reports per-view and total counted accesses
//! (bracketed around the scheduler calls, so backing population and
//! promotion surgery are charged to the run that incurs them),
//! per-prefix sharing outcomes, promotion events, and the access
//! ratios. Guards:
//!
//! * independent / shared ≥ 1.3× (the PR5 sharing guard),
//! * independent / promoted ≥ 2.0× (the adaptive-materialization
//!   guard; relaxed to 1.4× under `--smoke`),
//! * promoted ≤ shared total accesses (in-process ratchet — promotion
//!   never loses to sharing alone),
//! * per-view signatures bit-identical across independent / shared /
//!   promoted / P = 4 / mixed-policy runs (the P = 4 check includes
//!   the per-view *access attribution*, not just the rows),
//! * the promotion decision log is byte-identical across repeated
//!   runs.
//!
//! Writes `BENCH_multiview.json` (promotion run) and
//! `BENCH_multiview_nopromotion.json` (sharing only) — schema in
//! `EXPERIMENTS.md`.

use idivm_bench::{fmt_row, multiview_scheduler, speedup, view_state, Args, Json};
use idivm_cost::PromotionConfig;
use idivm_exec::ParallelConfig;
use idivm_reldb::TableSignature;
use idivm_sched::{CostEntry, PromotionEvent, RefreshPolicy, RoundSummary, SchedulerConfig};
use idivm_types::Result;
use idivm_workloads::bsma::Bsma;
use idivm_workloads::multiview::VIEW_NAMES;
use idivm_workloads::MultiView;
use std::collections::BTreeMap;

/// Minimum independent/shared access ratio the run must demonstrate.
const MIN_RATIO: f64 = 1.3;
/// Minimum independent/promoted access ratio (full-size run).
const MIN_PROMOTED_RATIO: f64 = 2.0;
/// Promoted guard under `--smoke` (fewer rounds amortize the backing
/// population less).
const MIN_PROMOTED_RATIO_SMOKE: f64 = 1.4;

/// Cumulative per-prefix sharing outcome across all rounds.
#[derive(Debug, Clone, Default)]
struct PrefixTotals {
    computes: u64,
    compute_accesses: u64,
    diff_tuples: u64,
    hits: u64,
    saved_accesses: u64,
}

/// One full run of the tweet stream through the scheduler.
#[derive(Debug, Default)]
struct Outcome {
    per_view_accesses: BTreeMap<String, u64>,
    /// Counted accesses across every scheduler call (ticks, barriers,
    /// drain) — includes intermediate maintenance, backing population,
    /// and promotion surgery.
    total_accesses: u64,
    shared_hits: u64,
    shared_saved_accesses: u64,
    prefixes: BTreeMap<String, PrefixTotals>,
    signatures: BTreeMap<String, TableSignature>,
    /// Every cost-model comparison, with its round, in order.
    cost_log: Vec<(u64, CostEntry)>,
    /// Every promotion/demotion, with its round, in order.
    events: Vec<(u64, PromotionEvent)>,
    /// Backings still promoted at the end of the run.
    intermediates: Vec<String>,
}

impl Outcome {
    fn absorb(&mut self, summary: &RoundSummary) {
        self.shared_hits += summary.shared_hits;
        self.shared_saved_accesses += summary.shared_saved_accesses;
        for stat in &summary.prefix_stats {
            let entry = self.prefixes.entry(stat.label.clone()).or_default();
            entry.computes += 1;
            entry.compute_accesses += stat.compute_accesses.total();
            entry.diff_tuples += stat.diff_tuples as u64;
            entry.hits += stat.hits;
            entry.saved_accesses += stat.saved_accesses();
        }
        self.cost_log
            .extend(summary.cost.iter().map(|c| (summary.round, c.clone())));
        self.events.extend(
            summary
                .promotions
                .iter()
                .map(|e| (summary.round, e.clone())),
        );
    }
}

/// `round:action:backing:label`, the decision log's line for an event.
fn event_line((round, e): &(u64, PromotionEvent)) -> String {
    format!("{round}:{}:{}:{}", e.action, e.backing, e.label)
}

/// Stream shape shared by every run in one invocation.
#[derive(Clone, Copy)]
struct RunShape {
    scale: f64,
    rounds: u64,
    diffs: usize,
}

fn run_stream(
    shape: RunShape,
    config: SchedulerConfig,
    parallel: ParallelConfig,
    policy: impl Fn(&str) -> RefreshPolicy,
) -> Result<Outcome> {
    let RunShape {
        scale,
        rounds,
        diffs,
    } = shape;
    let cfg = MultiView {
        bsma: Bsma { scale, seed: 2015 },
    };
    let mut sched = multiview_scheduler(&cfg, config, parallel, policy)?;
    let mut out = Outcome::default();
    for round in 1..=rounds {
        cfg.tweet_batch(sched.db_mut(), diffs, round)?;
        let before = sched.db().stats().snapshot();
        let summary = sched.tick()?;
        out.total_accesses += sched.db().stats().snapshot().since(&before).total();
        out.absorb(&summary);
        // Exercise the OnRead barrier mid-stream: any view can be read
        // at any time, draining just that view.
        if round == rounds / 2 {
            for name in VIEW_NAMES {
                if sched.policy(name)? == RefreshPolicy::OnRead {
                    let before = sched.db().stats().snapshot();
                    let rows = sched.read_view(name)?;
                    out.total_accesses += sched.db().stats().snapshot().since(&before).total();
                    assert!(!rows.is_empty(), "{name}: read barrier returned no rows");
                }
            }
        }
    }
    // Drain whatever Deferred/OnRead left pending so every policy mix
    // converges to the same final state.
    let before = sched.db().stats().snapshot();
    let summary = sched.drain()?;
    out.total_accesses += sched.db().stats().snapshot().since(&before).total();
    out.absorb(&summary);
    (out.signatures, out.per_view_accesses) = view_state(&sched)?;
    out.intermediates = sched.intermediates();
    Ok(out)
}

fn write_artifact(
    path: &str,
    shape: RunShape,
    outcome: &Outcome,
    independent: &Outcome,
    promotion_enabled: bool,
    guard_ratio: f64,
    sig_checks: &Json,
) -> Result<()> {
    let views = VIEW_NAMES.iter().map(|name| {
        Json::inline([
            ("name", (*name).into()),
            ("accesses", outcome.per_view_accesses[*name].into()),
            (
                "independent_accesses",
                independent.per_view_accesses[*name].into(),
            ),
        ])
    });
    let prefixes = outcome.prefixes.iter().map(|(label, p)| {
        Json::inline([
            ("label", label.as_str().into()),
            ("computes", p.computes.into()),
            ("compute_accesses", p.compute_accesses.into()),
            ("diff_tuples", p.diff_tuples.into()),
            ("hits", p.hits.into()),
            ("saved_accesses", p.saved_accesses.into()),
        ])
    });
    let events = outcome.events.iter().map(|(round, e)| {
        Json::inline([
            ("round", (*round).into()),
            ("action", e.action.into()),
            ("backing", e.backing.as_str().into()),
            ("label", e.label.as_str().into()),
        ])
    });
    let cost = outcome.cost_log.iter().map(|(round, c)| {
        Json::inline([
            ("round", (*round).into()),
            ("label", c.label.as_str().into()),
            ("promoted", c.promoted.into()),
            ("consumers", c.consumers.into()),
            ("observed_compute", c.observed_compute.into()),
            ("observed_diff_tuples", c.observed_diff_tuples.into()),
            (
                "predicted_maintain_milli",
                Json::Int(c.predicted_maintain_milli as i128),
            ),
            (
                "predicted_recompute_milli",
                Json::Int(c.predicted_recompute_milli as i128),
            ),
            ("decision", c.decision.label().into()),
        ])
    });
    let intermediates = outcome.intermediates.iter().map(|b| b.as_str().into());
    Json::block([
        ("bench", "multiview".into()),
        ("scale", Json::Num(shape.scale)),
        ("rounds", shape.rounds.into()),
        ("diffs", shape.diffs.into()),
        ("views", Json::rows(views)),
        ("prefixes", Json::rows(prefixes)),
        ("total_accesses", outcome.total_accesses.into()),
        (
            "independent_total_accesses",
            independent.total_accesses.into(),
        ),
        ("shared_hits", outcome.shared_hits.into()),
        (
            "shared_saved_accesses",
            outcome.shared_saved_accesses.into(),
        ),
        (
            "ratio",
            Json::Fixed(
                independent.total_accesses as f64 / outcome.total_accesses as f64,
                4,
            ),
        ),
        ("guard_min_ratio", Json::Num(guard_ratio)),
        ("signatures_match", sig_checks.clone()),
        (
            "promotion",
            Json::block([
                ("enabled", promotion_enabled.into()),
                ("intermediates", Json::list(intermediates)),
                ("events", Json::rows(events)),
                ("cost", Json::rows(cost)),
            ]),
        ),
    ])
    .write(path)?;
    println!("wrote {path}");
    Ok(())
}

pub fn run(args: &Args) -> Result<()> {
    let smoke = args.smoke;
    // Enough rounds past the promotion point (fires after round 2) to
    // amortize the one-time backing population — the maintain-vs-
    // recompute crossover the cost model is built around.
    let shape = RunShape {
        scale: args.or(args.scale, 0.02, 0.05),
        rounds: args.or(args.rounds, 10, 12),
        diffs: args.or(args.diffs, 24, 64),
    };
    let RunShape {
        scale,
        rounds,
        diffs,
    } = shape;
    println!("Multi-view catalog — Q7 family, {rounds} tweet-stream rounds x {diffs} tweets, scale {scale}");
    println!("views: {}\n", VIEW_NAMES.join(", "));

    let eager = |_: &str| RefreshPolicy::Eager;
    let serial = ParallelConfig::serial();
    let four_threads = ParallelConfig {
        threads: 4,
        min_shard_rows: 1,
    };
    let shared_cfg = SchedulerConfig::default();
    let independent_cfg = SchedulerConfig {
        share_prefixes: false,
        ..SchedulerConfig::default()
    };
    let promoted_cfg = SchedulerConfig {
        promotion: Some(PromotionConfig::default()),
        ..SchedulerConfig::default()
    };
    let mixed_policy = |name: &str| match name {
        "mention_favor" => RefreshPolicy::Eager,
        "mention_timeline" => RefreshPolicy::Deferred {
            max_staleness_rounds: 2,
        },
        "mention_topic_counts" => RefreshPolicy::OnRead,
        _ => RefreshPolicy::Deferred {
            max_staleness_rounds: 3,
        },
    };

    let independent = run_stream(shape, independent_cfg, serial, eager)?;
    let shared = run_stream(shape, shared_cfg, serial, eager)?;
    let promoted = run_stream(shape, promoted_cfg, serial, eager)?;
    let promoted_again = run_stream(shape, promoted_cfg, serial, eager)?;
    let promoted_p4 = run_stream(shape, promoted_cfg, four_threads, eager)?;
    let mixed = run_stream(shape, promoted_cfg, serial, mixed_policy)?;

    let widths = &[22usize, 13, 13, 13, 9];
    let header = ["view", "promoted", "shared", "indep.", "ratio"];
    println!("{}", fmt_row(&header.map(String::from), widths));
    let table_row = |name: &str, p: u64, s: u64, i: u64| {
        let ratio = format!("{:.2}x", speedup(p, i));
        let cells = [
            name.into(),
            p.to_string(),
            s.to_string(),
            i.to_string(),
            ratio,
        ];
        println!("{}", fmt_row(&cells, widths));
    };
    for name in VIEW_NAMES {
        table_row(
            name,
            promoted.per_view_accesses[name],
            shared.per_view_accesses[name],
            independent.per_view_accesses[name],
        );
    }
    let shared_ratio = independent.total_accesses as f64 / shared.total_accesses as f64;
    let promoted_ratio = independent.total_accesses as f64 / promoted.total_accesses as f64;
    table_row(
        "TOTAL",
        promoted.total_accesses,
        shared.total_accesses,
        independent.total_accesses,
    );
    println!(
        "\nshared-prefix reuse (promoted run): {} hits, {} accesses avoided",
        promoted.shared_hits, promoted.shared_saved_accesses
    );
    for (label, p) in &promoted.prefixes {
        println!(
            "  {label:<40} {:>3} computes ({} acc., {} diff tuples)  {:>3} hits  {:>8} saved",
            p.computes, p.compute_accesses, p.diff_tuples, p.hits, p.saved_accesses
        );
    }
    println!("\npromotion events:");
    for e in &promoted.events {
        println!("  {}", event_line(e));
    }

    // --- Correctness gates ---------------------------------------------
    let sig_independent = shared.signatures == independent.signatures;
    let sig_promoted = promoted.signatures == shared.signatures;
    let sig_p4 = promoted.signatures == promoted_p4.signatures
        && promoted.per_view_accesses == promoted_p4.per_view_accesses;
    let sig_mixed = promoted.signatures == mixed.signatures;
    assert!(
        sig_independent,
        "shared-prefix maintenance changed view contents vs independent"
    );
    assert!(
        sig_promoted,
        "promotion changed view contents vs sharing alone"
    );
    assert!(
        sig_p4,
        "P=4 diverged from serial (contents or access attribution)"
    );
    assert!(
        sig_mixed,
        "mixed Eager/Deferred/OnRead run did not converge to the Eager state"
    );
    println!(
        "\nsignatures: independent ok, promoted ok, P=4 ok (incl. attribution), policy mix ok"
    );

    assert!(
        promoted.cost_log == promoted_again.cost_log && promoted.events == promoted_again.events,
        "promotion decisions are not byte-identical across identical runs"
    );
    println!("promotion decisions: byte-identical across repeated runs");

    assert!(
        !promoted.events.is_empty(),
        "the cost model never promoted anything"
    );
    assert!(
        promoted.total_accesses <= shared.total_accesses,
        "ratchet: promotion ({}) lost to sharing alone ({})",
        promoted.total_accesses,
        shared.total_accesses
    );
    assert!(
        shared.shared_hits > 0,
        "shared run produced no prefix reuse hits"
    );
    assert!(
        shared_ratio >= MIN_RATIO,
        "catalog sharing must save >= {MIN_RATIO}x accesses, got {shared_ratio:.3}x \
         (shared {} vs independent {})",
        shared.total_accesses,
        independent.total_accesses
    );
    let min_promoted = if smoke {
        MIN_PROMOTED_RATIO_SMOKE
    } else {
        MIN_PROMOTED_RATIO
    };
    assert!(
        promoted_ratio >= min_promoted,
        "adaptive materialization must save >= {min_promoted}x accesses, got {promoted_ratio:.3}x \
         (promoted {} vs independent {})",
        promoted.total_accesses,
        independent.total_accesses
    );
    println!(
        "access-ratio guards: shared {shared_ratio:.2}x >= {MIN_RATIO}x, \
         promoted {promoted_ratio:.2}x >= {min_promoted}x  OK"
    );

    // --- Machine-readable records --------------------------------------
    let sig_checks = Json::inline([
        ("independent", sig_independent.into()),
        ("promoted", sig_promoted.into()),
        ("parallel_p4", sig_p4.into()),
        ("policy_mix", sig_mixed.into()),
    ]);
    write_artifact(
        "BENCH_multiview.json",
        shape,
        &promoted,
        &independent,
        true,
        min_promoted,
        &sig_checks,
    )?;
    write_artifact(
        "BENCH_multiview_nopromotion.json",
        shape,
        &shared,
        &independent,
        false,
        MIN_RATIO,
        &sig_checks,
    )
}
