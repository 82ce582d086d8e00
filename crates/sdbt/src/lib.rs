//! `idivm-sdbt`: the **Simulated DBToaster** comparator of paper
//! Section 7.3.
//!
//! DBToaster maintains a view through *higher-order deltas*: for each
//! base table `R` it materializes the view's partial derivative
//! `M_R = ∂V/∂R` — the join of all the *other* relations — so that a
//! diff on `R` turns into a single probe `∆R ⋈ M_R` instead of a chain
//! of base-table joins. The paper could not compare against the
//! DBToaster binary directly (in-memory, compiled, different diff
//! model), so it built *SDBT*: the same intermediate-view strategy
//! executed on the shared DBMS substrate, in two flavours:
//!
//! * **SDBT-fixed** — only one designated table ever changes, so only
//!   its partial is materialized and the partial never needs
//!   maintenance. Slightly *faster* than idIVM on that scenario
//!   (Figure 12, column C).
//! * **SDBT-streams** — every table may change, so one partial per
//!   table is materialized and *all of them* must be maintained on
//!   every round. Much slower (Figure 12, column D).
//!
//! Like DBToaster's compiler, the partial-view definitions are supplied
//! at setup time (our workload generators produce them alongside the
//! view); the engine maintains the partials with the tuple-based
//! machinery and turns base diffs into view deltas via partial probes.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod engine;
pub mod partial;

pub use engine::{Sdbt, SdbtVariant};
pub use partial::{Partial, ProbeStep};
