//! Crash-recovery bench — the durable maintenance stack (WAL +
//! checkpoints) under seeded kill injection on the running-example
//! workload.
//!
//! Usage:
//! ```text
//! cargo run --release -p idivm-bench --bin crashbench [-- --smoke] [--scale N]
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

use idivm_bench::fmt_row;
use idivm_core::{FaultPlan, FaultState, IvmOptions};
use idivm_durability::{
    Checkpoint, CheckpointStats, Durable, DurabilityConfig, DurabilityPolicy, Wal, WAL_FILE,
};
use idivm_exec::ParallelConfig;
use idivm_reldb::TableSignature;
use idivm_sched::{RefreshPolicy, SchedulerConfig};
use idivm_types::Error;
use idivm_workloads::bsma::Bsma;
use idivm_workloads::multiview::{MultiView, VIEW_NAMES};
use idivm_workloads::RunningExample;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

type Sig = HashMap<String, TableSignature>;

fn fault_seed() -> u64 {
    std::env::var("IDIVM_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2015)
}

fn fresh_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("idivm_crashbench_{tag}_{}_{n}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale dir");
    }
    std::fs::create_dir_all(&dir).expect("create store dir");
    dir
}

fn no_faults() -> Arc<FaultState> {
    Arc::new(FaultState::new(FaultPlan::disabled()))
}

/// A stable 64-bit digest of a full-store signature (sorted by table).
fn sig_digest(sig: &Sig) -> u64 {
    let mut tables: Vec<&String> = sig.keys().collect();
    tables.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in tables {
        for b in format!("{t}={:?};", sig[t]).bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
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

/// Create a durable store over the running example with the aggregate
/// view registered eagerly.
fn create_store(
    dir: &Path,
    cfg: &RunningExample,
    dcfg: DurabilityConfig,
    faults: Arc<FaultState>,
    threads: usize,
) -> Result<Durable, Error> {
    let db = cfg.build()?;
    let mut store = Durable::create(
        dir,
        db,
        SchedulerConfig::default(),
        options(threads),
        dcfg,
        faults,
    )?;
    let plan = cfg.agg_plan(store.db())?;
    store.register("V", plan, RefreshPolicy::Eager)?;
    Ok(store)
}

/// One lifecycle run's observable history: the signature after every
/// acknowledged operation, plus the in-memory signature at the moment
/// an injected crash surfaced.
struct Run {
    acks: Vec<Sig>,
    at_failure: Option<Sig>,
    completed: bool,
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
) -> Run {
    let mut acks: Vec<Sig> = Vec::new();
    let db = cfg.build().expect("build");
    let mut store = match Durable::create(
        dir,
        db,
        SchedulerConfig::default(),
        options(threads),
        dcfg,
        faults,
    ) {
        Ok(s) => s,
        Err(err) => {
            assert!(matches!(err, Error::Injected(_)), "create: got {err:?}");
            return Run {
                acks,
                at_failure: None,
                completed: false,
            };
        }
    };
    acks.push(store.signature());
    let plan = cfg.agg_plan(store.db()).expect("plan");
    match store.register("V", plan, RefreshPolicy::Eager) {
        Ok(_) => acks.push(store.signature()),
        Err(err) => {
            assert!(matches!(err, Error::Injected(_)), "register: got {err:?}");
            return Run {
                acks,
                at_failure: Some(store.signature()),
                completed: false,
            };
        }
    }
    for round in 1..=rounds {
        cfg.price_update_batch(store.db_mut(), d, round).expect("batch");
        match store.tick() {
            Ok(_) => acks.push(store.signature()),
            Err(err) => {
                assert!(matches!(err, Error::Injected(_)), "tick {round}: got {err:?}");
                return Run {
                    acks,
                    at_failure: Some(store.signature()),
                    completed: false,
                };
            }
        }
    }
    match store.drain() {
        Ok(_) => acks.push(store.signature()),
        Err(err) => {
            assert!(matches!(err, Error::Injected(_)), "drain: got {err:?}");
            return Run {
                acks,
                at_failure: Some(store.signature()),
                completed: false,
            };
        }
    }
    // An automatic checkpoint may still be in flight; closing the
    // store is where its kill, if any, comes out.
    let at_close = store.signature();
    if let Err(err) = store.close() {
        assert!(matches!(err, Error::Injected(_)), "close: got {err:?}");
        return Run {
            acks,
            at_failure: Some(at_close),
            completed: false,
        };
    }
    Run {
        acks,
        at_failure: None,
        completed: true,
    }
}

fn reopen(dir: &Path, dcfg: DurabilityConfig, threads: usize) -> Result<Durable, Error> {
    Durable::open(
        dir,
        SchedulerConfig::default(),
        options(threads),
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
    scale: f64,
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
fn size_pass(scale: f64) -> SizeRow {
    let cfg = MultiView {
        bsma: Bsma { scale, seed: 7 },
    };
    let dcfg = DurabilityConfig {
        policy: DurabilityPolicy::EveryNRounds(8),
        checkpoint_every_rounds: SIZE_EVERY,
    };
    let dir = fresh_dir("size");
    let mut store = Durable::create(
        &dir,
        cfg.build().expect("build"),
        SchedulerConfig::default(),
        IvmOptions::default(),
        dcfg,
        no_faults(),
    )
    .expect("store");
    for name in VIEW_NAMES {
        let plan = cfg.plan(store.db(), name).expect("plan");
        store.register(name, plan, RefreshPolicy::Eager).expect("register");
    }
    let mut before_second = CheckpointStats::default();
    for round in 1..=u64::from(SIZE_EVERY) * 7 / 2 {
        cfg.tweet_batch(store.db_mut(), 64, round).expect("batch");
        store.tick().expect("tick");
        if round == u64::from(SIZE_EVERY) * 2 {
            // The first automatic checkpoint was joined just now.
            before_second = store.checkpoint_stats();
        }
    }
    let stats = store.checkpoint_stats();
    assert_eq!(stats.taken, before_second.taken + 1, "the second automatic checkpoint");
    let table_rows = store
        .db()
        .table_names()
        .iter()
        .map(|t| store.db().table(t).expect("table").len())
        .sum();
    let live = store.signature();
    store.close().expect("close");

    let started = Instant::now();
    let last_lsn = Checkpoint::load(&dir).expect("load").last_lsn;
    let load_ms = started.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(last_lsn);
    let started = Instant::now();
    let reopened = Durable::open(
        &dir,
        SchedulerConfig::default(),
        IvmOptions::default(),
        dcfg,
        no_faults(),
        None,
    )
    .expect("open");
    let open_ms = started.elapsed().as_secs_f64() * 1e3;
    assert!(reopened.signature() == live, "scale {scale}: recovery diverged");
    drop(reopened);
    let counts = SizeCounts {
        table_rows,
        wal_records: Wal::scan(&dir.join(WAL_FILE)).expect("scan").records.len(),
        checkpoint_bytes: std::fs::metadata(dir.join(idivm_durability::CHECKPOINT_FILE))
            .expect("checkpoint file")
            .len(),
        tables_reused: stats.tables_reused - before_second.tables_reused,
        tables_encoded: stats.tables_encoded - before_second.tables_encoded,
        bytes_reused: stats.bytes_reused - before_second.bytes_reused,
        bytes_encoded: stats.bytes_encoded - before_second.bytes_encoded,
        cut_bytes: stats.last_cut_bytes,
    };
    std::fs::remove_dir_all(&dir).expect("cleanup");
    SizeRow {
        scale,
        counts,
        stall_ms: stats.last_stall_us as f64 / 1e3,
        publish_ms: stats.last_publish_us as f64 / 1e3,
        load_ms,
        open_ms,
    }
}

/// One swept kill's record for the JSON document.
struct SweepRow {
    site: &'static str,
    k: u64,
    outcome: &'static str,
    note: String,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale: f64 = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 0.2 } else { 1.0 });
    let seed = fault_seed();

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
    let one_rep = |policy: DurabilityPolicy| -> (Vec<f64>, u64) {
        let dir = fresh_dir("overhead");
        let dcfg = DurabilityConfig {
            policy,
            checkpoint_every_rounds: 0,
        };
        let mut store = create_store(&dir, &tcfg, dcfg, no_faults(), 1).expect("store");
        let mut ticks = Vec::with_capacity(timing_rounds as usize);
        for round in 1..=timing_rounds {
            tcfg.price_update_batch(store.db_mut(), td, round).expect("batch");
            let start = Instant::now();
            store.tick().expect("tick");
            ticks.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let digest = sig_digest(&store.signature());
        drop(store);
        std::fs::remove_dir_all(&dir).expect("cleanup");
        (ticks, digest)
    };
    // Interleave the two policies so machine drift hits both equally,
    // then keep each *round's* fastest sample across reps: transient
    // IO spikes are stripped, while the journal's real per-round cost
    // (encode + write + fsync) is in every sample and cannot be. One
    // discarded warm-up rep absorbs cold caches and any write-back
    // storm left by whatever ran before the bench.
    let _ = one_rep(DurabilityPolicy::Off);
    let _ = one_rep(DurabilityPolicy::Always);
    let mut off_rounds = vec![f64::INFINITY; timing_rounds as usize];
    let mut wal_rounds = vec![f64::INFINITY; timing_rounds as usize];
    let (mut off_digest, mut wal_digest) = (0u64, 0u64);
    for _ in 0..reps {
        let (ticks, dg) = one_rep(DurabilityPolicy::Off);
        for (best, t) in off_rounds.iter_mut().zip(&ticks) {
            *best = best.min(*t);
        }
        off_digest = dg;
        let (ticks, dg) = one_rep(DurabilityPolicy::Always);
        for (best, t) in wal_rounds.iter_mut().zip(&ticks) {
            *best = best.min(*t);
        }
        wal_digest = dg;
    }
    let off_ms: f64 = off_rounds.iter().sum();
    let wal_ms: f64 = wal_rounds.iter().sum();
    let overhead_pct = (wal_ms / off_ms - 1.0) * 100.0;
    println!(
        "\nWAL overhead guard ({timing_rounds} rounds, parts {}, d {td}, best of {reps}):\n  \
         policy Off    {off_ms:>8.2} ms\n  \
         policy Always {wal_ms:>8.2} ms   overhead {overhead_pct:+.2}%",
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
    let kill = FaultPlan::at_wal_append(3, seed);
    let sweep_cfg = DurabilityConfig {
        policy: DurabilityPolicy::Always,
        checkpoint_every_rounds: 3,
    };
    println!("\nrecovery-determinism guard (kill at WAL append 3, two runs × P=1/P=4):");
    let mut determinism_rows: Vec<String> = Vec::new();
    let mut digests: Vec<u64> = Vec::new();
    // Recovery-time-objective samples: wall-clock of every `reopen`
    // after a kill, across the determinism guard and the site sweep.
    let mut rto_samples_ms: Vec<f64> = Vec::new();
    for threads in [1usize, 4] {
        for rep in 0..2u32 {
            let dir = fresh_dir("determinism");
            let run = run_lifecycle(
                &dir,
                &cfg,
                d,
                rounds,
                sweep_cfg,
                Arc::new(FaultState::new(kill)),
                threads,
            );
            assert!(!run.completed, "P={threads} rep {rep}: the kill never fired");
            let rto_start = Instant::now();
            let recovered = reopen(&dir, sweep_cfg, threads).expect("recovery");
            rto_samples_ms.push(rto_start.elapsed().as_secs_f64() * 1e3);
            let digest = sig_digest(&recovered.signature());
            println!("  P={threads} rep {rep}: recovered digest {digest:#018x}");
            determinism_rows.push(format!(
                "    {{\"threads\": {threads}, \"rep\": {rep}, \"digest\": \"{digest:#018x}\"}}"
            ));
            digests.push(digest);
            std::fs::remove_dir_all(&dir).expect("cleanup");
        }
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "recovered signatures differ across runs/thread counts: {digests:x?}"
    );

    // ── Guard 3 + sweep: kill every WAL append/fsync/checkpoint. ───
    println!("\ncrash-point sweep (every occurrence of each durability site):");
    println!(
        "{}",
        fmt_row(
            &[
                "site".into(),
                "k".into(),
                "recovered to".into(),
                "recovery".into(),
            ],
            WIDTHS
        )
    );
    type SiteSpec = (&'static str, fn(u64, u64) -> FaultPlan, u64);
    let sites: [SiteSpec; 3] = [
        ("wal_append", FaultPlan::at_wal_append, 0),
        ("wal_fsync", FaultPlan::at_wal_fsync, 0),
        // k = 0 is the store-creation checkpoint: nothing was ever
        // acknowledged, so there is no state to recover to (open
        // refuses with a typed error — covered by the test suite).
        ("checkpoint", FaultPlan::at_checkpoint, 1),
    ];
    let mut sweep_rows: Vec<SweepRow> = Vec::new();
    for (site, plan_for, start_k) in sites {
        let mut k = start_k;
        loop {
            let dir = fresh_dir(site);
            let run = run_lifecycle(
                &dir,
                &cfg,
                d,
                rounds,
                sweep_cfg,
                Arc::new(FaultState::new(plan_for(k, seed))),
                1,
            );
            if run.completed {
                assert!(k > start_k, "site {site}: the armed fault never fired");
                std::fs::remove_dir_all(&dir).expect("cleanup");
                break;
            }
            let rto_start = Instant::now();
            let mut recovered = reopen(&dir, sweep_cfg, 1)
                .unwrap_or_else(|e| panic!("site {site} k={k}: recovery failed: {e:?}"));
            rto_samples_ms.push(rto_start.elapsed().as_secs_f64() * 1e3);
            let sig = recovered.signature();
            let last_ack = run.acks.last().expect("at least the created store was acknowledged");
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
            cfg.price_update_batch(recovered.db_mut(), d, 999).expect("batch");
            recovered.tick().expect("post-recovery tick");
            println!(
                "{}",
                fmt_row(
                    &[site.into(), k.to_string(), outcome.into(), note.clone()],
                    WIDTHS
                )
            );
            sweep_rows.push(SweepRow {
                site,
                k,
                outcome,
                note,
            });
            std::fs::remove_dir_all(&dir).expect("cleanup");
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
            .filter(|r| r.site != "checkpoint")
            .all(|r| r.outcome == "last_ack"),
        "an append/fsync kill recovered an unacknowledged round"
    );
    // A checkpoint kill strikes *after* the round journaled: the
    // at-failure state is already durable.
    assert!(
        sweep_rows
            .iter()
            .filter(|r| r.site == "checkpoint")
            .all(|r| r.outcome == "at_failure"),
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
    let size_scales: [f64; 3] = if smoke { [0.025, 0.1, 0.4] } else { [0.25, 1.0, 4.0] };
    println!(
        "\nsize sweep (BSMA multi-view, checkpoint every {SIZE_EVERY} rounds; the second \
         automatic checkpoint; two passes, counts equal, second pass's timings):"
    );
    println!(
        "{}",
        fmt_row(
            &[
                "scale", "rows", "wal recs", "ckpt bytes", "reused", "encoded", "stall ms",
                "publish ms", "load ms", "open ms",
            ]
            .map(String::from),
            SIZE_WIDTHS
        )
    );
    let mut size_json: Vec<String> = Vec::new();
    for scale in size_scales {
        let first = size_pass(scale);
        let row = size_pass(scale);
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
        size_json.push(format!(
            "    {{\"scale\": {}, \"table_rows\": {}, \"wal_records\": {}, \
             \"checkpoint_bytes\": {}, \"tables_reused\": {}, \"tables_encoded\": {}, \
             \"bytes_reused\": {}, \"bytes_encoded\": {}, \"cut_bytes\": {}, \
             \"stall_ms\": {:.3}, \"publish_ms\": {:.3}, \"load_ms\": {:.3}, \
             \"open_ms\": {:.3}}}",
            row.scale,
            c.table_rows,
            c.wal_records,
            c.checkpoint_bytes,
            c.tables_reused,
            c.tables_encoded,
            c.bytes_reused,
            c.bytes_encoded,
            c.cut_bytes,
            row.stall_ms,
            row.publish_ms,
            row.load_ms,
            row.open_ms
        ));
    }

    // ── BENCH_crash.json ───────────────────────────────────────────
    let sweep_json: Vec<String> = sweep_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"site\": \"{}\", \"k\": {}, \"outcome\": \"{}\", \"recovery\": \"{}\"}}",
                r.site, r.k, r.outcome, r.note
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"crash\",\n  \"seed\": {seed},\n  \"smoke\": {smoke},\n  \
         \"overhead\": {{\"rounds\": {timing_rounds}, \"diff\": {td}, \"off_ms\": {off_ms:.3}, \
         \"always_ms\": {wal_ms:.3}, \"overhead_pct\": {overhead_pct:.3}}},\n  \
         \"rto\": {{\"samples\": {}, \"mean_ms\": {rto_mean_ms:.3}, \
         \"max_ms\": {rto_max_ms:.3}, \"guard_ms\": {RTO_GUARD_MS:.0}}},\n  \
         \"determinism\": [\n{}\n  ],\n  \"sweep\": [\n{}\n  ],\n  \
         \"size_sweep\": [\n{}\n  ]\n}}\n",
        rto_samples_ms.len(),
        determinism_rows.join(",\n"),
        sweep_json.join(",\n"),
        size_json.join(",\n")
    );
    std::fs::write("BENCH_crash.json", &json).expect("write BENCH_crash.json");
    println!("\nwrote BENCH_crash.json ({} kill sites swept)", sweep_rows.len());
}

const WIDTHS: &[usize] = &[12, 4, 13, 44];
const SIZE_WIDTHS: &[usize] = &[6, 8, 9, 11, 14, 14, 9, 11, 8, 8];
