//! Maintenance-round reporting, broken down into the phases the paper's
//! Figure 12 stacks: diff computation, cache update, and view update.

use crate::apply::ApplyOutcome;
use crate::trace::RoundTrace;
use idivm_reldb::{SharedChanges, StatsSnapshot};
use std::fmt;
use std::time::Duration;

/// Cost and outcome of one maintenance round.
#[derive(Debug, Clone, Default)]
pub struct MaintenanceReport {
    /// Accesses spent computing diffs (rule evaluation / probes).
    pub diff_compute: StatsSnapshot,
    /// Accesses spent applying diffs to intermediate caches.
    pub cache_update: StatsSnapshot,
    /// Accesses spent applying diffs to the view.
    pub view_update: StatsSnapshot,
    /// What happened to the view.
    pub view_outcome: ApplyOutcome,
    /// What happened to the caches (summed).
    pub cache_outcome: ApplyOutcome,
    /// Base-table diff tuples consumed.
    pub base_diff_tuples: usize,
    /// View-level diff tuples produced (before application).
    pub view_diff_tuples: usize,
    /// Dirty-group rescans: groups whose stored row could not settle
    /// their new aggregates (a MIN/MAX lost its extremum, or a SUM may
    /// have lost its last non-NULL argument) and had to be re-read
    /// from the input. The member lookups themselves are
    /// counted in the access phases; this counts how often the fallback
    /// fired.
    pub rescans: u64,
    /// Wall-clock time of the round.
    pub wall: Duration,
    /// Per-operator trace (recorded only when
    /// [`TraceConfig::enabled`](crate::trace::TraceConfig) is set).
    pub trace: Option<RoundTrace>,
    /// True iff the incremental round failed, was rolled back, and the
    /// view was repaired by full recompute (the supervisor's escalation,
    /// [`SupervisedEngine::maintain_or_recompute`](crate::supervisor::SupervisedEngine::maintain_or_recompute)).
    /// The phase counters above then describe the (empty) recovered
    /// round, not the aborted incremental attempt.
    pub recovered: bool,
    /// Accesses spent on the recompute repair (separate from the
    /// incremental phase counters; zero unless `recovered`).
    pub recovery: StatsSnapshot,
    /// Display form of the error the recovery repaired (`None` unless
    /// `recovered`).
    pub recovery_cause: Option<String>,
    /// Net changes the round applied to the view table, keyed by view
    /// key. When the view serves as the backing table of a promoted
    /// intermediate, these are exactly the Δ its consumers must see as
    /// pending base-table changes — surfacing them here is what makes
    /// intermediate maintenance O(Δ) for the whole consumer set (no
    /// recompute, no table diff). Empty after a recompute recovery (the
    /// repair rewrites the table wholesale; callers must fall back to a
    /// table-level diff in that case). Shared, so whoever keeps a
    /// round's Δ (the catalog's read snapshots) holds a reference, not
    /// a copy of every row image.
    pub view_changes: SharedChanges,
}

impl MaintenanceReport {
    /// Combined access cost (the paper's unit) across all phases.
    pub fn total_accesses(&self) -> u64 {
        self.diff_compute.total() + self.cache_update.total() + self.view_update.total()
    }

    /// i-diff compression factor observed at the view:
    /// `p = |D_V| / |∆_V|` — view tuples actually modified per view diff
    /// tuple (Section 6's `p`). `None` when no view diffs were produced.
    pub fn compression_factor(&self) -> Option<f64> {
        if self.view_diff_tuples == 0 {
            return None;
        }
        let modified = self.view_outcome.inserted
            + self.view_outcome.deleted
            + self.view_outcome.updated;
        Some(modified as f64 / self.view_diff_tuples as f64)
    }
}

impl fmt::Display for MaintenanceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "maintenance: {} base diff tuples -> {} view diff tuples",
            self.base_diff_tuples, self.view_diff_tuples
        )?;
        writeln!(f, "  diff computation: {}", self.diff_compute)?;
        writeln!(f, "  cache update:     {}", self.cache_update)?;
        writeln!(f, "  view update:      {}", self.view_update)?;
        writeln!(
            f,
            "  view outcome: +{} -{} ~{} (dummies {})",
            self.view_outcome.inserted,
            self.view_outcome.deleted,
            self.view_outcome.updated,
            self.view_outcome.dummies
        )?;
        if self.rescans > 0 {
            writeln!(f, "  extremum rescans: {}", self.rescans)?;
        }
        if self.recovered {
            writeln!(
                f,
                "  recovered by recompute ({}) after: {}",
                self.recovery,
                self.recovery_cause.as_deref().unwrap_or("unknown error")
            )?;
        }
        write!(f, "  total accesses: {}", self.total_accesses())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_compression() {
        let mut r = MaintenanceReport {
            diff_compute: StatsSnapshot {
                tuple_accesses: 5,
                index_lookups: 2,
            },
            view_update: StatsSnapshot {
                tuple_accesses: 3,
                index_lookups: 1,
            },
            view_diff_tuples: 2,
            ..Default::default()
        };
        r.view_outcome.updated = 4;
        assert_eq!(r.total_accesses(), 11);
        assert_eq!(r.compression_factor(), Some(2.0));
        let text = r.to_string();
        assert!(text.contains("total accesses: 11"));
    }

    #[test]
    fn compression_none_without_diffs() {
        let r = MaintenanceReport::default();
        assert!(r.compression_factor().is_none());
    }
}
