//! Structured per-operator observability for maintenance rounds.
//!
//! A [`RoundTrace`] records, for every operator node of the propagated
//! plan, the incoming/outgoing diff cardinalities, the accesses the
//! node's rule spent (in the paper's tuple-accesses + index-lookups
//! unit), and — at Apply boundaries — the *dummy* diff tuples that
//! matched no stored tuple: the paper's overestimation metric
//! (Section 1, Example 4.8).
//!
//! Tracing is **off by default** ([`TraceConfig::disabled`]) and costs
//! nothing when off: the engines consult a single bool and skip all
//! recording. When on, attribution piggybacks on the per-node
//! [`StatsSnapshot`](idivm_reldb::StatsSnapshot) deltas the engine
//! already takes for its phase totals, so no per-tuple atomics are
//! added and the recorded counts **reconcile exactly**: the sum of
//! [`OpTrace::accesses`] over a phase equals the corresponding
//! [`MaintenanceReport`](crate::report::MaintenanceReport) phase total,
//! bit-identical for any `ParallelConfig` thread count (the bottom-up
//! walk is serial; worker threads join inside each rule and add into
//! the same two `AccessStats` counters — see
//! `idivm_exec::ParallelConfig::fan_out`).

use crate::access::PathId;
use idivm_algebra::Plan;
use idivm_reldb::StatsSnapshot;
use idivm_types::Json;
use std::time::Duration;

/// Whether to record a [`RoundTrace`] during maintenance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record per-operator traces. Off by default.
    pub enabled: bool,
}

impl TraceConfig {
    /// Tracing off (the default) — zero recording cost.
    pub fn disabled() -> Self {
        TraceConfig { enabled: false }
    }

    /// Tracing on.
    pub fn enabled() -> Self {
        TraceConfig { enabled: true }
    }
}

/// Which maintenance phase an [`OpTrace`] entry belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// Rule evaluation at an operator node (reconciles against
    /// `MaintenanceReport::diff_compute`).
    Propagate,
    /// Diff application to an intermediate cache (reconciles against
    /// `MaintenanceReport::cache_update`).
    CacheApply,
    /// Diff application to the view (reconciles against
    /// `MaintenanceReport::view_update`).
    ViewApply,
    /// Recompute repair after a rolled-back round (reconciles against
    /// `MaintenanceReport::recovery`; entries carry `diffs_in = 0` —
    /// a recompute consumes no diffs).
    Recovery,
}

impl TracePhase {
    /// Stable lowercase label used in the JSON emission.
    pub fn label(self) -> &'static str {
        match self {
            TracePhase::Propagate => "propagate",
            TracePhase::CacheApply => "cache_apply",
            TracePhase::ViewApply => "view_apply",
            TracePhase::Recovery => "recovery",
        }
    }
}

/// One operator node's contribution to a maintenance round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTrace {
    /// Plan-node address (root = empty; child indexes below).
    pub path: PathId,
    /// Operator label (`"join"`, `"select"`, …) or apply-target label.
    pub op: String,
    /// Phase this entry reconciles against.
    pub phase: TracePhase,
    /// Diff tuples entering the node (summed over incoming instances).
    pub diffs_in: u64,
    /// Diff tuples leaving the node (0 for apply entries).
    pub diffs_out: u64,
    /// Diff tuples that matched nothing at an Apply (overestimation);
    /// always 0 for `Propagate` entries.
    pub dummies: u64,
    /// Accesses attributed to this node (exact `since` delta).
    pub accesses: StatsSnapshot,
}

/// Wall-clock timings of the round's phases. The propagate phase
/// includes cache applies (they happen mid-walk at cache boundaries).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Folding the modification log into net changes.
    pub fold: Duration,
    /// Populating base-table i-diff instances.
    pub populate: Duration,
    /// Bottom-up rule propagation (including mid-walk cache applies).
    pub propagate: Duration,
    /// Applying the final diffs to the view.
    pub apply: Duration,
}

/// The **ingest pseudo-phase** of a firehose round: what the CDC
/// front-end did to assemble the micro-batch this round maintained.
/// Engines never populate it — the ingest pipeline stamps it onto the
/// round's trace (and the scheduler's `RoundSummary`) so streamed
/// rounds are attributable in the same trace JSON as everything else.
/// All counters are deterministic on the virtual tick clock.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestTrace {
    /// Events admitted into this batch (validated + applied as DML).
    pub admitted: u64,
    /// Events shed by the overloaded queue since the previous cut
    /// (counted, never silent).
    pub shed: u64,
    /// Events dead-lettered by admission since the previous cut.
    pub dead_lettered: u64,
    /// Why the batcher cut this batch (`"count"`, `"age"`,
    /// `"staleness"`, or `"flush"`).
    pub cut_cause: &'static str,
    /// Queue depth observed at the cut decision.
    pub queue_depth_at_cut: u64,
}

impl IngestTrace {
    /// The pseudo-phase as one inline JSON object.
    pub fn to_json(&self) -> Json {
        Json::inline([
            ("admitted", self.admitted.into()),
            ("shed", self.shed.into()),
            ("dead_lettered", self.dead_lettered.into()),
            ("cut_cause", self.cut_cause.into()),
            ("queue_depth_at_cut", self.queue_depth_at_cut.into()),
        ])
    }
}

/// Full structured trace of one maintenance round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundTrace {
    /// Per-operator entries in walk (bottom-up) order, apply entries
    /// appended where they occur.
    pub operators: Vec<OpTrace>,
    /// Per-phase wall timings.
    pub timings: PhaseTimings,
    /// Ingest pseudo-phase (streamed rounds only — `None` for rounds
    /// fed by a hand-folded `ChangeLog`).
    pub ingest: Option<IngestTrace>,
}

impl RoundTrace {
    /// Sum of the access deltas recorded for one phase. Reconciles
    /// exactly against the matching `MaintenanceReport` phase total.
    pub fn sum_phase(&self, phase: TracePhase) -> StatsSnapshot {
        self.operators
            .iter()
            .filter(|o| o.phase == phase)
            .fold(StatsSnapshot::default(), |acc, o| acc.merge(o.accesses))
    }

    /// Total dummy diff tuples observed at Apply boundaries.
    pub fn dummy_diffs(&self) -> u64 {
        self.operators.iter().map(|o| o.dummies).sum()
    }

    /// Diff tuples that reached an Apply boundary.
    pub fn applied_diffs(&self) -> u64 {
        self.operators
            .iter()
            .filter(|o| o.phase != TracePhase::Propagate)
            .map(|o| o.diffs_in)
            .sum()
    }

    /// Overestimation ratio: dummy diff tuples per diff tuple applied.
    /// `None` when nothing reached an Apply.
    pub fn overestimation_ratio(&self) -> Option<f64> {
        let applied = self.applied_diffs();
        if applied == 0 {
            return None;
        }
        Some(self.dummy_diffs() as f64 / applied as f64)
    }

    /// The trace as a JSON document: one member per line, one operator
    /// per line. `op` can embed a caller-chosen view name; like every
    /// string it is escaped by [`Json`].
    pub fn to_json(&self) -> Json {
        let t = &self.timings;
        let timings = Json::inline([
            ("fold", t.fold.as_micros().into()),
            ("populate", t.populate.as_micros().into()),
            ("propagate", t.propagate.as_micros().into()),
            ("apply", t.apply.as_micros().into()),
        ]);
        let operators = self.operators.iter().map(|o| {
            Json::inline([
                ("path", Json::list(o.path.iter().map(|&i| i.into()))),
                ("op", o.op.as_str().into()),
                ("phase", o.phase.label().into()),
                ("diffs_in", o.diffs_in.into()),
                ("diffs_out", o.diffs_out.into()),
                ("dummies", o.dummies.into()),
                ("tuple_accesses", o.accesses.tuple_accesses.into()),
                ("index_lookups", o.accesses.index_lookups.into()),
            ])
        });
        let mut fields = vec![("timings_us", timings)];
        fields.extend(self.ingest.as_ref().map(|i| ("ingest", i.to_json())));
        fields.extend([
            ("dummy_diffs", self.dummy_diffs().into()),
            (
                "overestimation_ratio",
                self.overestimation_ratio()
                    .map_or(Json::Null, |r| Json::Fixed(r, 6)),
            ),
            ("operators", Json::rows(operators)),
        ]);
        Json::block(fields)
    }
}

/// Stable label for a plan node, used in trace entries.
pub fn op_label(node: &Plan) -> &'static str {
    match node {
        Plan::Scan { .. } => "scan",
        Plan::Select { .. } => "select",
        Plan::Project { .. } => "project",
        Plan::Join { .. } => "join",
        Plan::LeftOuterJoin { .. } => "left_outer_join",
        Plan::SemiJoin { .. } => "semijoin",
        Plan::AntiJoin { .. } => "antijoin",
        Plan::UnionAll { .. } => "union_all",
        Plan::GroupBy { .. } => "group_by",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(phase: TracePhase, diffs_in: u64, dummies: u64, ta: u64, il: u64) -> OpTrace {
        OpTrace {
            path: vec![0],
            op: "select".into(),
            phase,
            diffs_in,
            diffs_out: diffs_in,
            dummies,
            accesses: StatsSnapshot {
                tuple_accesses: ta,
                index_lookups: il,
            },
        }
    }

    #[test]
    fn phase_sums_and_ratio() {
        let t = RoundTrace {
            operators: vec![
                entry(TracePhase::Propagate, 4, 0, 10, 3),
                entry(TracePhase::Propagate, 2, 0, 5, 1),
                entry(TracePhase::ViewApply, 6, 3, 2, 6),
            ],
            timings: PhaseTimings::default(),
            ingest: None,
        };
        let prop = t.sum_phase(TracePhase::Propagate);
        assert_eq!((prop.tuple_accesses, prop.index_lookups), (15, 4));
        assert_eq!(t.dummy_diffs(), 3);
        assert_eq!(t.applied_diffs(), 6);
        assert_eq!(t.overestimation_ratio(), Some(0.5));
    }

    #[test]
    fn ratio_none_without_applies() {
        let t = RoundTrace {
            operators: vec![entry(TracePhase::Propagate, 4, 0, 1, 1)],
            timings: PhaseTimings::default(),
            ingest: None,
        };
        assert!(t.overestimation_ratio().is_none());
    }

    #[test]
    fn json_is_well_formed() {
        let t = RoundTrace {
            operators: vec![
                entry(TracePhase::Propagate, 4, 0, 10, 3),
                entry(TracePhase::ViewApply, 4, 1, 2, 4),
            ],
            timings: PhaseTimings::default(),
            ingest: None,
        };
        let j = t.to_json().render();
        assert!(j.contains("\"operators\""));
        assert!(j.contains("\"phase\": \"view_apply\""));
        assert!(j.contains("\"overestimation_ratio\": 0.25"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
        );
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
