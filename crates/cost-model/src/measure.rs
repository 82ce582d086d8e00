//! Parameter extraction: confront the analytic model with measured
//! maintenance rounds.

use crate::SpjModel;

/// Counters of one measured round per engine, in the paper's cost unit.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObservedParams {
    /// Base diff tuples consumed (`|D_R|`).
    pub base_diff_tuples: u64,
    /// View diff tuples the ID-based engine produced (`|∆_V|`).
    pub id_view_diff_tuples: u64,
    /// View tuples the ID-based engine actually modified (`|D_V|`).
    pub id_view_modified: u64,
    /// Tuple-based diff-computation accesses.
    pub tuple_diff_compute: u64,
    /// Total accesses per engine.
    pub id_total: u64,
    pub tuple_total: u64,
}

impl ObservedParams {
    /// Observed compression factor `p = |D_V| / |∆_V|`.
    pub fn p(&self) -> f64 {
        if self.id_view_diff_tuples == 0 {
            return 0.0;
        }
        self.id_view_modified as f64 / self.id_view_diff_tuples as f64
    }

    /// Observed per-diff-tuple tuple-based computation cost `a`.
    pub fn a(&self) -> f64 {
        if self.base_diff_tuples == 0 {
            return 0.0;
        }
        self.tuple_diff_compute as f64 / self.base_diff_tuples as f64
    }

    /// Observed speedup (tuple cost / ID cost).
    pub fn observed_speedup(&self) -> f64 {
        if self.id_total == 0 {
            return 1.0;
        }
        self.tuple_total as f64 / self.id_total as f64
    }

    /// The SPJ model instantiated from the observation.
    pub fn spj_model(&self) -> SpjModel {
        SpjModel {
            a: self.a(),
            p: self.p(),
        }
    }

    /// Relative error between the model's predicted speedup and the
    /// observed one (SPJ, non-conditional updates).
    pub fn spj_prediction_error(&self) -> f64 {
        let predicted = self.spj_model().speedup_nonconditional_update();
        let observed = self.observed_speedup();
        ((predicted - observed) / observed).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameters_extracted() {
        let o = ObservedParams {
            base_diff_tuples: 100,
            id_view_diff_tuples: 100,
            id_view_modified: 200, // p = 2
            tuple_diff_compute: 400, // a = 4
            id_total: 300,          // 100 (1 + p)
            tuple_total: 800,       // 100 (a + 2p)
        };
        assert!((o.p() - 2.0).abs() < 1e-12);
        assert!((o.a() - 4.0).abs() < 1e-12);
        // Perfectly model-shaped observation ⇒ zero prediction error.
        assert!(o.spj_prediction_error() < 1e-12);
    }

    #[test]
    fn degenerate_rounds_are_safe() {
        let o = ObservedParams::default();
        assert_eq!(o.p(), 0.0);
        assert_eq!(o.a(), 0.0);
        assert_eq!(o.observed_speedup(), 1.0);
    }
}
