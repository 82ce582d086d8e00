//! The benchmark's contract: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root states the same thing for the driver; the self-test
//! fails when the two disagree.

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; per-layer metrics carry none.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// `(name, why)` of each workload.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "engine-fig12",
        "bare id-IVM engine on the paper's running example; sql, ingest, sched and durability are bypassed, so only core/reldb/exec can move it",
    ),
    (
        "firehose-multiview",
        "wire events through ingest into five eager SQL views sharing a join prefix; ingest, sched fan-out and core joins do the work, durability none",
    ),
    (
        "durable-multiview",
        "the same stream and views through the durable store (fsync every 8 rounds, checkpoint every 256); it differs from firehose only by the durability layer",
    ),
    (
        "mixed-tpch-reads",
        "8-DML rounds on the direct path, three refresh policies, MIN/MAX rescans and read barriers; per-round fixed cost dominates what big cuts amortise",
    ),
];

/// Gated metrics: reported by the untraced run of every workload.
/// Bounds follow the spread of ten seeds on the host the benchmark was
/// sized on (README, "Spread and bounds"); the contract caps them at
/// 25 %.
pub const END_TO_END: [Metric; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("events_per_s", "events/s", Higher, 0.25),
    e2e("visible_us_p50", "us", Lower, 0.25),
    e2e("read_us_p50", "us", Lower, 0.25),
    e2e("recovery_ms", "ms", Lower, 0.25),
    e2e("accesses_per_event", "count", Lower, 0.15),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// Ungated metrics of single layers: reported by the traced run. A
/// workload that bypasses a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [Metric; 69] = [
    layer("visible_us_p99", "us", Lower),
    layer("sql.parse_lower_us_per_view", "us", Lower),
    layer("sql.register_ms_per_view", "ms", Lower),
    layer("ingest.decode_us_per_event", "us", Lower),
    layer("ingest.offer_us_per_event", "us", Lower),
    layer("ingest.cut_us_p50", "us", Lower),
    layer("ingest.cut_us_p99", "us", Lower),
    layer("ingest.self_us_per_event", "us", Lower),
    layer("ingest.batch_events_mean", "count", Higher),
    layer("ingest.queue_depth_max", "count", Lower),
    layer("ingest.dead_lettered", "count", Lower),
    layer("ingest.shed", "count", Lower),
    layer("reldb.dml_us_per_event", "us", Lower),
    layer("reldb.fold_us_per_round", "us", Lower),
    layer("reldb.load_ms", "ms", Lower),
    layer("reldb.rows_live_drift_pct", "%", Lower),
    layer("sched.tick_us_p50", "us", Lower),
    layer("sched.tick_us_p99", "us", Lower),
    layer("sched.self_us_per_round", "us", Lower),
    layer("sched.read_us_p99", "us", Lower),
    layer("sched.read_barrier_us_p50", "us", Lower),
    layer("sched.shared_hits_per_round", "count", Higher),
    layer("sched.shared_saved_accesses_per_round", "count", Higher),
    layer("sched.deferred_views_per_round", "count", Lower),
    layer("sched.supervised_rounds", "count", Lower),
    layer("cost-model.promotions", "count", Higher),
    layer("cost-model.promoted_accesses_ratio", "ratio", Lower),
    layer("cost-model.promoted_events_per_s_ratio", "ratio", Higher),
    layer("core.maintain_us_per_diff", "us", Lower),
    layer("core.fold_us_per_diff", "us", Lower),
    layer("core.populate_us_per_diff", "us", Lower),
    layer("core.propagate_us_per_diff", "us", Lower),
    layer("core.apply_us_per_diff", "us", Lower),
    layer("core.accesses_per_diff", "count", Lower),
    layer("core.dummy_diff_ratio", "ratio", Lower),
    layer("core.rescans_per_kevent", "count", Lower),
    layer("core.engine_share", "ratio", Lower),
    layer("core.trace_overhead_pct", "%", Lower),
    layer("core.speedup_vs_tuple", "ratio", Higher),
    layer("tuple-ivm.maintain_us_per_diff", "us", Lower),
    layer("tuple-ivm.accesses_per_diff", "count", Lower),
    layer("sdbt.maintain_us_per_diff", "us", Lower),
    layer("sdbt.accesses_per_diff", "count", Lower),
    layer("exec.recompute_ms", "ms", Lower),
    layer("exec.speedup_vs_recompute", "ratio", Higher),
    layer("exec.initial_materialize_ms", "ms", Lower),
    layer("exec.parallel_p2_ratio", "ratio", Higher),
    layer("durability.append_us_per_round", "us", Lower),
    layer("durability.wal_bytes_per_event", "bytes", Lower),
    layer("durability.fsync_us_p50", "us", Lower),
    layer("durability.fsync_us_p99", "us", Lower),
    layer("durability.fsyncs_per_kevent", "count", Lower),
    layer("durability.off_events_per_s", "events/s", Higher),
    layer("durability.always_events_per_s", "events/s", Higher),
    layer("durability.checkpoint_ms_p50", "ms", Lower),
    layer("durability.checkpoint_bytes", "bytes", Lower),
    layer("durability.checkpoint_stall_share", "ratio", Lower),
    layer("durability.checkpoint_load_ms", "ms", Lower),
    layer("durability.replayed_records", "count", Lower),
    layer("durability.replay_us_per_record", "us", Lower),
    layer("trace.total_us_per_event", "us", Lower),
    layer("trace.ingest_us_per_event", "us", Lower),
    layer("trace.reldb_us_per_event", "us", Lower),
    layer("trace.sched_us_per_event", "us", Lower),
    layer("trace.core_us_per_event", "us", Lower),
    layer("trace.durability_us_per_event", "us", Lower),
    layer("trace.unattributed_us_per_event", "us", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("harness.speed_factor", "ratio", Higher),
];

/// How long one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// Look a metric up by name in either list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}
