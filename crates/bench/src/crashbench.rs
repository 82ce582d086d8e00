//! Crash-recovery bench — the durable maintenance stack (WAL +
//! checkpoints) under seeded kill injection on the running-example
//! workload.
//!
//! Usage:
//! ```text
//! cargo run --release -p idivm-bench -- crashbench [--smoke] [--scale N]
//! ```
//!
//! Three in-process guards run before the sweep is reported:
//!
//! 1. **WAL overhead** — the same maintenance round sequence under
//!    [`DurabilityPolicy::Always`] (journal + fsync every round) vs
//!    [`DurabilityPolicy::Off`] must converge to bit-identical
//!    signatures. The extra wall-clock is printed and recorded, not
//!    asserted: a single-shot timing trips on host noise, and the gated
//!    statement of durability cost is the `durable-multiview` workload
//!    of `benchmark/` measured in alternated pairs.
//! 2. **Recovery determinism** — the same seeded kill recovers to a
//!    bit-identical signature across repeat runs and across
//!    `ParallelConfig` thread counts (P=1 vs P=4).
//! 3. **Crash sweep** — a kill at *every* WAL append, WAL fsync, and
//!    checkpoint attempt of the lifecycle recovers to an acknowledged
//!    state (the last acknowledged signature for append/fsync kills,
//!    the at-failure signature for checkpoint kills) and the recovered
//!    store keeps accepting rounds. Automatic checkpoints are published
//!    by a worker and joined later, so a checkpoint kill surfaces at
//!    the next due round or when the lifecycle closes the store — with
//!    every round journaled in between still in the log.
//!
//! Kill offsets are seeded (`IDIVM_FAULT_SEED` overrides the default)
//! so CI explores different torn-prefix lengths deterministically.
//!
//! A fourth section, the **size sweep**, takes no guard's place: the
//! BSMA multi-view store at three state sizes, what an incremental
//! automatic checkpoint costs the round's thread (stall) and the worker
//! (publish), and what `Checkpoint::load` and `Durable::open` cost
//! against table rows and WAL records. Counts must repeat across two
//! passes; timings are printed, not asserted.
//!
//! Output: one row per swept kill site and per state size, plus
//! `BENCH_crash.json` (schema in `EXPERIMENTS.md`).

use idivm_bench::{fmt_row, overhead_pct, Args, CRASH_SEED};
use idivm_core::{FaultPlan, FaultSite, FaultState, IvmOptions};
use idivm_durability::{
    Checkpoint, CheckpointStats, DurabilityConfig, DurabilityPolicy, Durable, Wal, WAL_FILE,
};
use idivm_exec::ParallelConfig;
use idivm_reldb::TableSignature;
use idivm_sched::{RefreshPolicy, SchedulerConfig};
use idivm_types::{Error, Fnv1a, Json, Result};
use idivm_workloads::bsma::Bsma;
use idivm_workloads::multiview::{MultiView, VIEW_NAMES};
use idivm_workloads::RunningExample;
use std::collections::HashMap;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

type Sig = HashMap<String, TableSignature>;

/// A file-system failure under the store directory, as this crate's error.
fn io<T>(what: &str, result: std::io::Result<T>) -> Result<T> {
    result.map_err(|e| Error::Config(format!("{what}: {e}")))
}

fn fresh_dir(tag: &str) -> Result<PathBuf> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("idivm_crashbench_{tag}_{}_{n}", std::process::id()));
    if dir.exists() {
        io("clear stale dir", std::fs::remove_dir_all(&dir))?;
    }
    io("create store dir", std::fs::create_dir_all(&dir))?;
    Ok(dir)
}

fn cleanup(dir: &Path) -> Result<()> {
    io("cleanup", std::fs::remove_dir_all(dir))
}

fn no_faults() -> Arc<FaultState> {
    Arc::new(FaultState::new(FaultPlan::disabled()))
}

/// A stable 64-bit digest of a full-store signature (sorted by table).
fn sig_digest(sig: &Sig) -> u64 {
    let mut tables: Vec<&String> = sig.keys().collect();
    tables.sort();
    let mut h = Fnv1a::default();
    for t in tables {
        h.write(format!("{t}={:?};", sig[t]).as_bytes());
    }
    h.finish()
}

fn options(threads: usize) -> IvmOptions {
    IvmOptions {
        parallel: ParallelConfig {
            threads,
            min_shard_rows: 2,
        },
        ..IvmOptions::default()
    }
}

/// Create a durable store over the running example (no view yet).
fn create_store(
    dir: &Path,
    cfg: &RunningExample,
    dcfg: DurabilityConfig,
    faults: Arc<FaultState>,
    threads: usize,
) -> Result<Durable> {
    Durable::create(
        dir,
        cfg.build()?,
        SchedulerConfig::default(),
        options(threads),
        dcfg,
        faults,
    )
}

/// One lifecycle run's observable history: the signature after every
/// acknowledged operation, plus the in-memory signature at the moment
/// an injected crash surfaced.
struct Run {
    acks: Vec<Sig>,
    at_failure: Option<Sig>,
    completed: bool,
}

/// The lifecycle ended at `step` with `err`: it must be the armed kill.
fn killed(mut run: Run, step: &str, err: &Error, at_failure: Option<Sig>) -> Result<Run> {
    assert!(matches!(err, Error::Injected(_)), "{step}: got {err:?}");
    run.at_failure = at_failure;
    Ok(run)
}

/// Drive `rounds` price-update rounds plus a final drain until the
/// lifecycle completes or the armed fault kills it.
fn run_lifecycle(
    dir: &Path,
    cfg: &RunningExample,
    d: usize,
    rounds: u64,
    dcfg: DurabilityConfig,
    faults: Arc<FaultState>,
    threads: usize,
) -> Result<Run> {
    let mut run = Run {
        acks: Vec::new(),
        at_failure: None,
        completed: false,
    };
    let mut store = match create_store(dir, cfg, dcfg, faults, threads) {
        Ok(store) => store,
        Err(err) => return killed(run, "create", &err, None),
    };
    run.acks.push(store.signature());
    let plan = cfg.agg_plan(store.db())?;
    if let Err(err) = store.register("V", plan, RefreshPolicy::Eager) {
        return killed(run, "register", &err, Some(store.signature()));
    }
    run.acks.push(store.signature());
    for round in 1..=rounds {
        cfg.price_update_batch(store.db_mut(), d, round)?;
        if let Err(err) = store.tick() {
            return killed(run, &format!("tick {round}"), &err, Some(store.signature()));
        }
        run.acks.push(store.signature());
    }
    if let Err(err) = store.drain() {
        return killed(run, "drain", &err, Some(store.signature()));
    }
    run.acks.push(store.signature());
    // An automatic checkpoint may still be in flight; closing the
    // store is where its kill, if any, comes out.
    let at_close = store.signature();
    if let Err(err) = store.close() {
        return killed(run, "close", &err, Some(at_close));
    }
    run.completed = true;
    Ok(run)
}

fn reopen(dir: &Path, dcfg: DurabilityConfig, options: IvmOptions) -> Result<Durable> {
    Durable::open(
        dir,
        SchedulerConfig::default(),
        options,
        dcfg,
        no_faults(),
        None,
    )
}

/// One state size of the size sweep. Everything but the four timings
/// is a count that must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SizeCounts {
    table_rows: usize,
    wal_records: usize,
    checkpoint_bytes: u64,
    /// Of the incremental checkpoint alone (the second automatic one).
    tables_reused: u64,
    tables_encoded: u64,
    bytes_reused: u64,
    bytes_encoded: u64,
    cut_bytes: u64,
}

struct SizeRow {
    counts: SizeCounts,
    stall_ms: f64,
    publish_ms: f64,
    load_ms: f64,
    open_ms: f64,
}

/// Rounds between automatic checkpoints in the size sweep.
const SIZE_EVERY: u32 = 16;

/// One pass at one state size: five eager views over BSMA at `scale`,
/// 3.5 checkpoint intervals of 64-tweet rounds. The third due round
/// joins the second automatic checkpoint — the first whose static
/// tables come from the section cache — so the stats read afterwards
/// are that checkpoint's; the half interval on top leaves the log with
/// records for `open` to replay.
fn size_pass(scale: f64) -> Result<SizeRow> {
    let cfg = MultiView {
        bsma: Bsma { scale, seed: 7 },
    };
    let dcfg = DurabilityConfig {
        policy: DurabilityPolicy::EveryNRounds(8),
        checkpoint_every_rounds: SIZE_EVERY,
    };
    let dir = fresh_dir("size")?;
    let mut store = Durable::create(
        &dir,
        cfg.build()?,
        SchedulerConfig::default(),
        IvmOptions::default(),
        dcfg,
        no_faults(),
    )?;
    for name in VIEW_NAMES {
        let plan = cfg.plan(store.db(), name)?;
        store.register(name, plan, RefreshPolicy::Eager)?;
    }
    let mut before_second = CheckpointStats::default();
    for round in 1..=u64::from(SIZE_EVERY) * 7 / 2 {
        cfg.tweet_batch(store.db_mut(), 64, round)?;
        store.tick()?;
        if round == u64::from(SIZE_EVERY) * 2 {
            // The first automatic checkpoint was joined just now.
            before_second = store.checkpoint_stats();
        }
    }
    let stats = store.checkpoint_stats();
    assert_eq!(
        stats.taken,
        before_second.taken + 1,
        "the second automatic checkpoint"
    );
    let mut table_rows = 0;
    for t in store.db().table_names() {
        table_rows += store.db().table(t)?.len();
    }
    let live = store.signature();
    store.close()?;

    let started = Instant::now();
    let last_lsn = Checkpoint::load(&dir)?.last_lsn;
    let load_ms = started.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(last_lsn);
    let started = Instant::now();
    let reopened = reopen(&dir, dcfg, IvmOptions::default())?;
    let open_ms = started.elapsed().as_secs_f64() * 1e3;
    assert!(
        reopened.signature() == live,
        "scale {scale}: recovery diverged"
    );
    drop(reopened);
    let checkpoint_file = dir.join(idivm_durability::CHECKPOINT_FILE);
    let counts = SizeCounts {
        table_rows,
        wal_records: Wal::scan(&dir.join(WAL_FILE))?.records.len(),
        checkpoint_bytes: io("checkpoint file", std::fs::metadata(checkpoint_file))?.len(),
        tables_reused: stats.tables_reused - before_second.tables_reused,
        tables_encoded: stats.tables_encoded - before_second.tables_encoded,
        bytes_reused: stats.bytes_reused - before_second.bytes_reused,
        bytes_encoded: stats.bytes_encoded - before_second.bytes_encoded,
        cut_bytes: stats.last_cut_bytes,
    };
    cleanup(&dir)?;
    Ok(SizeRow {
        counts,
        stall_ms: stats.last_stall_us as f64 / 1e3,
        publish_ms: stats.last_publish_us as f64 / 1e3,
        load_ms,
        open_ms,
    })
}

pub fn run(args: &Args) -> Result<()> {
    let smoke = args.smoke;
    let scale = args.or(args.scale, 0.2, 1.0);
    let seed = args.fault_seed.unwrap_or(CRASH_SEED);

    let cfg = RunningExample {
        n_parts: (600.0 * scale) as usize,
        n_devices: (450.0 * scale) as usize,
        fanout: 3,
        selectivity_pct: 30,
        joins: 2,
        seed: 7,
    };
    let d = (60.0 * scale).max(10.0) as usize;
    let rounds: u64 = if smoke { 4 } else { 6 };
    println!(
        "crash-recovery sweep — WAL + checkpoint kill injection (seed {seed}, parts {}, d {d}, \
         rounds {rounds}{})",
        cfg.n_parts,
        if smoke { ", smoke" } else { "" }
    );

    // ── Guard 1: WAL overhead vs DurabilityPolicy::Off. ────────────
    // Checkpoints disabled so the guard isolates the journal+fsync
    // cost; best-of-N de-noises the wall clock. The fsync is a fixed
    // per-round cost, so this guard always runs at paper-like round
    // weight (fig12 defaults, scaled down) — shrinking it with
    // `--smoke` would measure the disk, not the journal.
    let tcfg = RunningExample {
        n_parts: 5_000,
        n_devices: 5_000,
        fanout: 10,
        selectivity_pct: 20,
        joins: 3,
        seed: 7,
    };
    let td = 400;
    let timing_rounds = 12u64;
    let reps = if smoke { 3 } else { 5 };
    // One rep: the wall-clock of each tick alone (batch generation is
    // identical under both policies and only adds noise) and the
    // final signature digest.
    let one_rep = |policy: DurabilityPolicy| -> Result<(Vec<f64>, u64)> {
        let dir = fresh_dir("overhead")?;
        let dcfg = DurabilityConfig {
            policy,
            checkpoint_every_rounds: 0,
        };
        let mut store = create_store(&dir, &tcfg, dcfg, no_faults(), 1)?;
        let plan = tcfg.agg_plan(store.db())?;
        store.register("V", plan, RefreshPolicy::Eager)?;
        let mut ticks = Vec::with_capacity(timing_rounds as usize);
        for round in 1..=timing_rounds {
            tcfg.price_update_batch(store.db_mut(), td, round)?;
            let start = Instant::now();
            store.tick()?;
            ticks.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let digest = sig_digest(&store.signature());
        drop(store);
        cleanup(&dir)?;
        Ok((ticks, digest))
    };
    // Interleave the two policies so machine drift hits both equally,
    // then keep each *round's* fastest sample across reps: transient
    // IO spikes are stripped, while the journal's real per-round cost
    // (encode + write + fsync) is in every sample and cannot be. One
    // discarded warm-up rep absorbs cold caches and any write-back
    // storm left by whatever ran before the bench.
    one_rep(DurabilityPolicy::Off)?;
    one_rep(DurabilityPolicy::Always)?;
    let mut off_rounds = vec![f64::INFINITY; timing_rounds as usize];
    let mut wal_rounds = vec![f64::INFINITY; timing_rounds as usize];
    let (mut off_digest, mut wal_digest) = (0u64, 0u64);
    for _ in 0..reps {
        for (policy, best_rounds, digest) in [
            (DurabilityPolicy::Off, &mut off_rounds, &mut off_digest),
            (DurabilityPolicy::Always, &mut wal_rounds, &mut wal_digest),
        ] {
            let (ticks, dg) = one_rep(policy)?;
            for (best, t) in best_rounds.iter_mut().zip(&ticks) {
                *best = best.min(*t);
            }
            *digest = dg;
        }
    }
    let off_ms: f64 = off_rounds.iter().sum();
    let wal_ms: f64 = wal_rounds.iter().sum();
    let overhead = overhead_pct(wal_ms, off_ms);
    println!(
        "\nWAL overhead guard ({timing_rounds} rounds, parts {}, d {td}, best of {reps}):\n  \
         policy Off    {off_ms:>8.2} ms\n  \
         policy Always {wal_ms:>8.2} ms   overhead {overhead:+.2}%",
        tcfg.n_parts
    );
    assert_eq!(
        off_digest, wal_digest,
        "journaling changed the maintenance result"
    );

    // ── Guard 2: recovery determinism across runs and P=1/P=4. ─────
    // Kill the same mid-lifecycle WAL append (create ckpt + register
    // = appends 0; ticks are appends 1..; k=3 kills round 3) and
    // recover; every (threads, rep) cell must land on one signature.
    let kill = FaultPlan::at(FaultSite::WalAppend, 3, seed);
    let sweep_cfg = DurabilityConfig {
        policy: DurabilityPolicy::Always,
        checkpoint_every_rounds: 3,
    };
    println!("\nrecovery-determinism guard (kill at WAL append 3, two runs × P=1/P=4):");
    let mut determinism_rows = Vec::new();
    let mut digests: Vec<u64> = Vec::new();
    // Recovery-time-objective samples: wall-clock of every `reopen`
    // after a kill, across the determinism guard and the site sweep.
    let mut rto_samples_ms: Vec<f64> = Vec::new();
    for threads in [1usize, 4] {
        for rep in 0..2u32 {
            let dir = fresh_dir("determinism")?;
            let faults = Arc::new(FaultState::new(kill));
            let run = run_lifecycle(&dir, &cfg, d, rounds, sweep_cfg, faults, threads)?;
            assert!(
                !run.completed,
                "P={threads} rep {rep}: the kill never fired"
            );
            let rto_start = Instant::now();
            let recovered = reopen(&dir, sweep_cfg, options(threads))?;
            rto_samples_ms.push(rto_start.elapsed().as_secs_f64() * 1e3);
            let digest = sig_digest(&recovered.signature());
            println!("  P={threads} rep {rep}: recovered digest {digest:#018x}");
            determinism_rows.push(Json::inline([
                ("threads", threads.into()),
                ("rep", rep.into()),
                ("digest", format!("{digest:#018x}").into()),
            ]));
            digests.push(digest);
            cleanup(&dir)?;
        }
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "recovered signatures differ across runs/thread counts: {digests:x?}"
    );

    // ── Guard 3 + sweep: kill every WAL append/fsync/checkpoint. ───
    println!("\ncrash-point sweep (every occurrence of each durability site):");
    let header = ["site", "k", "recovered to", "recovery"];
    println!("{}", fmt_row(&header.map(String::from), WIDTHS));
    let sites = [
        (FaultSite::WalAppend, 0),
        (FaultSite::WalFsync, 0),
        // k = 0 is the store-creation checkpoint: nothing was ever
        // acknowledged, so there is no state to recover to (open
        // refuses with a typed error — covered by the test suite).
        (FaultSite::Checkpoint, 1),
    ];
    // (site, k, outcome, recovery note) per swept kill.
    let mut sweep_rows: Vec<(&str, u64, &str, String)> = Vec::new();
    for (fault_site, start_k) in sites {
        let site = fault_site.label();
        let mut k = start_k;
        loop {
            let dir = fresh_dir(site)?;
            let faults = Arc::new(FaultState::new(FaultPlan::at(fault_site, k, seed)));
            let run = run_lifecycle(&dir, &cfg, d, rounds, sweep_cfg, faults, 1)?;
            if run.completed {
                assert!(k > start_k, "site {site}: the armed fault never fired");
                cleanup(&dir)?;
                break;
            }
            let rto_start = Instant::now();
            let mut recovered = reopen(&dir, sweep_cfg, options(1))
                .unwrap_or_else(|e| panic!("site {site} k={k}: recovery failed: {e:?}"));
            rto_samples_ms.push(rto_start.elapsed().as_secs_f64() * 1e3);
            let sig = recovered.signature();
            let last_ack = run
                .acks
                .last()
                .expect("at least the created store was acknowledged");
            // A checkpoint kill that comes out when the store is closed
            // finds the two states equal; it is the at-failure one that
            // the site's contract names.
            let at_failure = run.at_failure.as_ref() == Some(&sig);
            let outcome = if site == "checkpoint" && at_failure {
                "at_failure"
            } else if sig == *last_ack {
                "last_ack"
            } else if at_failure {
                "at_failure"
            } else {
                panic!(
                    "site {site} k={k}: recovered to a signature that is neither the last \
                     acknowledged nor the at-failure state"
                );
            };
            let note = recovered
                .recovered_from()
                .expect("recovery note")
                .to_string();
            // Liveness: the recovered store still accepts rounds.
            cfg.price_update_batch(recovered.db_mut(), d, 999)?;
            recovered.tick()?;
            println!(
                "{}",
                fmt_row(
                    &[site.into(), k.to_string(), outcome.into(), note.clone()],
                    WIDTHS
                )
            );
            sweep_rows.push((site, k, outcome, note));
            cleanup(&dir)?;
            k += 1;
            assert!(k < 64, "site {site}: sweep ran away");
        }
    }
    // Under Always, append/fsync kills must roll back to the last
    // acknowledged state — at_failure would mean an unacknowledged
    // round leaked to disk.
    assert!(
        sweep_rows
            .iter()
            .filter(|(site, ..)| *site != "checkpoint")
            .all(|(_, _, outcome, _)| *outcome == "last_ack"),
        "an append/fsync kill recovered an unacknowledged round"
    );
    // A checkpoint kill strikes *after* the round journaled: the
    // at-failure state is already durable.
    assert!(
        sweep_rows
            .iter()
            .filter(|(site, ..)| *site == "checkpoint")
            .all(|(_, _, outcome, _)| *outcome == "at_failure"),
        "a checkpoint kill lost a journaled round"
    );

    // ── Recovery time objective ────────────────────────────────────
    // Every post-kill reopen above was timed; report the distribution
    // and guard against pathological regressions. The guard is
    // deliberately generous (shared CI machines): recovery of these
    // small stores takes milliseconds, the guard allows 30 s.
    const RTO_GUARD_MS: f64 = 30_000.0;
    assert!(!rto_samples_ms.is_empty(), "no recovery was timed");
    let rto_max_ms = rto_samples_ms.iter().copied().fold(0.0f64, f64::max);
    let rto_mean_ms = rto_samples_ms.iter().sum::<f64>() / rto_samples_ms.len() as f64;
    println!(
        "\nrecovery time objective: {} recoveries, mean {rto_mean_ms:.3} ms, \
         max {rto_max_ms:.3} ms (guard {RTO_GUARD_MS:.0} ms)",
        rto_samples_ms.len()
    );
    assert!(
        rto_max_ms < RTO_GUARD_MS,
        "recovery took {rto_max_ms:.1} ms, above the {RTO_GUARD_MS:.0} ms guard"
    );

    // ── Size sweep: checkpoint and recovery cost against state size. ─
    let size_scales: [f64; 3] = if smoke {
        [0.025, 0.1, 0.4]
    } else {
        [0.25, 1.0, 4.0]
    };
    println!(
        "\nsize sweep (BSMA multi-view, checkpoint every {SIZE_EVERY} rounds; the second \
         automatic checkpoint; two passes, counts equal, second pass's timings):"
    );
    let header = [
        "scale",
        "rows",
        "wal recs",
        "ckpt bytes",
        "reused",
        "encoded",
        "stall ms",
        "publish ms",
        "load ms",
        "open ms",
    ];
    println!("{}", fmt_row(&header.map(String::from), SIZE_WIDTHS));
    let mut size_rows = Vec::new();
    for scale in size_scales {
        let first = size_pass(scale)?;
        let row = size_pass(scale)?;
        assert_eq!(
            first.counts, row.counts,
            "scale {scale}: counts differ between two passes"
        );
        let c = row.counts;
        println!(
            "{}",
            fmt_row(
                &[
                    format!("{scale}"),
                    c.table_rows.to_string(),
                    c.wal_records.to_string(),
                    c.checkpoint_bytes.to_string(),
                    format!("{} / {} B", c.tables_reused, c.bytes_reused),
                    format!("{} / {} B", c.tables_encoded, c.bytes_encoded),
                    format!("{:.2}", row.stall_ms),
                    format!("{:.2}", row.publish_ms),
                    format!("{:.2}", row.load_ms),
                    format!("{:.2}", row.open_ms),
                ],
                SIZE_WIDTHS
            )
        );
        size_rows.push(Json::inline([
            ("scale", Json::Num(scale)),
            ("table_rows", c.table_rows.into()),
            ("wal_records", c.wal_records.into()),
            ("checkpoint_bytes", c.checkpoint_bytes.into()),
            ("tables_reused", c.tables_reused.into()),
            ("tables_encoded", c.tables_encoded.into()),
            ("bytes_reused", c.bytes_reused.into()),
            ("bytes_encoded", c.bytes_encoded.into()),
            ("cut_bytes", c.cut_bytes.into()),
            ("stall_ms", Json::Fixed(row.stall_ms, 3)),
            ("publish_ms", Json::Fixed(row.publish_ms, 3)),
            ("load_ms", Json::Fixed(row.load_ms, 3)),
            ("open_ms", Json::Fixed(row.open_ms, 3)),
        ]));
    }

    // ── BENCH_crash.json ───────────────────────────────────────────
    let swept = sweep_rows.len();
    let sweep_json = sweep_rows.into_iter().map(|(site, k, outcome, note)| {
        Json::inline([
            ("site", site.into()),
            ("k", k.into()),
            ("outcome", outcome.into()),
            ("recovery", note.into()),
        ])
    });
    Json::block([
        ("bench", "crash".into()),
        ("seed", seed.into()),
        ("smoke", smoke.into()),
        (
            "overhead",
            Json::inline([
                ("rounds", timing_rounds.into()),
                ("diff", td.into()),
                ("off_ms", Json::Fixed(off_ms, 3)),
                ("always_ms", Json::Fixed(wal_ms, 3)),
                ("overhead_pct", Json::Fixed(overhead, 3)),
            ]),
        ),
        (
            "rto",
            Json::inline([
                ("samples", rto_samples_ms.len().into()),
                ("mean_ms", Json::Fixed(rto_mean_ms, 3)),
                ("max_ms", Json::Fixed(rto_max_ms, 3)),
                ("guard_ms", Json::Fixed(RTO_GUARD_MS, 0)),
            ]),
        ),
        ("determinism", Json::rows(determinism_rows)),
        ("sweep", Json::rows(sweep_json)),
        ("size_sweep", Json::rows(size_rows)),
    ])
    .write("BENCH_crash.json")?;
    println!("\nwrote BENCH_crash.json ({swept} kill sites swept)");
    Ok(())
}

const WIDTHS: &[usize] = &[12, 4, 13, 44];
const SIZE_WIDTHS: &[usize] = &[6, 8, 9, 11, 14, 14, 9, 11, 8, 8];
