//! The shared engine tuning-knob block.
//!
//! Every maintenance engine in this workspace (`IdIvm`, `TupleIvm`,
//! `Sdbt`) carries the same four runtime knobs: partitioned-propagation
//! configuration, per-operator tracing, deterministic fault injection,
//! and a per-round access budget. (What happens after a failed round is
//! not a knob: the round rolls back and reports the error, and only the
//! supervisor's escalation ladder repairs by recompute.)
//! PR 4 left three near-identical blocks of getter/setter plumbing —
//! this module replaces them with one [`EngineKnobs`] struct and one
//! [`EngineConfig`] trait whose *default methods* provide the whole
//! accessor surface; an engine implements only [`EngineConfig::knobs`]
//! and [`EngineConfig::knobs_mut`].

use crate::faults::{FaultPlan, RoundBudget};
use crate::trace::TraceConfig;
use idivm_exec::ParallelConfig;
use idivm_types::Result;

/// The runtime knobs shared by every engine. Setup-time options that
/// differ per engine (e.g. `IdIvm`'s `minimize`)
/// stay on the engine's own options type.
#[derive(Debug, Clone, Copy)]
pub struct EngineKnobs {
    /// Partitioned delta propagation (serial by default); access counts
    /// are bit-identical for any thread count.
    pub parallel: ParallelConfig,
    /// Per-operator trace recording (off by default; zero cost when
    /// off). See [`crate::trace`].
    pub trace: TraceConfig,
    /// Deterministic fault injection (disabled by default; zero cost
    /// when off). See [`crate::faults`].
    pub faults: FaultPlan,
    /// Opt-in per-round access budget (unlimited by default).
    pub budget: RoundBudget,
}

impl Default for EngineKnobs {
    fn default() -> Self {
        EngineKnobs {
            parallel: ParallelConfig::serial(),
            trace: TraceConfig::disabled(),
            faults: FaultPlan::disabled(),
            budget: RoundBudget::unlimited(),
        }
    }
}

/// Access to an engine's [`EngineKnobs`], with the full getter/setter
/// surface as default methods. Implementors provide the two accessors;
/// everything else comes for free (and stays consistent across
/// engines).
pub trait EngineConfig {
    /// The engine's knob block.
    fn knobs(&self) -> &EngineKnobs;
    /// Mutable access to the engine's knob block.
    fn knobs_mut(&mut self) -> &mut EngineKnobs;

    /// The partitioned-propagation configuration.
    fn parallel(&self) -> ParallelConfig {
        self.knobs().parallel
    }

    /// Set the partitioned-propagation configuration (serial by
    /// default). Access counts are bit-identical for any thread count.
    ///
    /// # Errors
    /// [`Error::Config`](idivm_types::Error::Config) for an invalid
    /// thread count (see [`ParallelConfig::validate`]).
    fn set_parallel(&mut self, parallel: ParallelConfig) -> Result<()> {
        parallel.validate()?;
        self.knobs_mut().parallel = parallel;
        Ok(())
    }

    /// The per-operator trace configuration.
    fn trace(&self) -> TraceConfig {
        self.knobs().trace
    }

    /// Enable or disable per-operator trace recording (off by default).
    fn set_trace(&mut self, trace: TraceConfig) {
        self.knobs_mut().trace = trace;
    }

    /// The armed fault-injection plan.
    fn faults(&self) -> FaultPlan {
        self.knobs().faults
    }

    /// Arm a deterministic fault-injection plan (disabled by default;
    /// zero cost when off). See [`crate::faults`].
    fn set_faults(&mut self, faults: FaultPlan) {
        self.knobs_mut().faults = faults;
    }

    /// The current per-round access budget.
    fn budget(&self) -> RoundBudget {
        self.knobs().budget
    }

    /// Set the per-round access budget (unlimited by default; zero
    /// cost when off). See [`RoundBudget`].
    fn set_budget(&mut self, budget: RoundBudget) {
        self.knobs_mut().budget = budget;
    }
}

impl<E: EngineConfig + ?Sized> EngineConfig for Box<E> {
    fn knobs(&self) -> &EngineKnobs {
        (**self).knobs()
    }
    fn knobs_mut(&mut self) -> &mut EngineKnobs {
        (**self).knobs_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        knobs: EngineKnobs,
    }

    impl EngineConfig for Fake {
        fn knobs(&self) -> &EngineKnobs {
            &self.knobs
        }
        fn knobs_mut(&mut self) -> &mut EngineKnobs {
            &mut self.knobs
        }
    }

    #[test]
    fn default_methods_round_trip() {
        let mut e = Fake {
            knobs: EngineKnobs::default(),
        };
        assert!(!e.trace().enabled);
        e.set_trace(TraceConfig::enabled());
        assert!(e.trace().enabled);
        e.set_budget(RoundBudget::capped(7));
        assert_eq!(e.budget().max_accesses, Some(7));
        e.set_faults(FaultPlan::at(crate::FaultSite::Operator, 1, 9));
        assert!(e.faults().enabled());
        assert!(e.set_parallel(ParallelConfig::with_threads(4)).is_ok());
        assert_eq!(e.parallel().threads, 4);
        assert!(e.set_parallel(ParallelConfig::with_threads(0)).is_err());
    }
}
