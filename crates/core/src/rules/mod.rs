//! i-diff propagation rules — paper Tables 4–13, one module per
//! operator family.
//!
//! Each operator transforms (effective) i-diffs over its input schema
//! into (effective) i-diffs over its output schema (paper Section 4).
//! The rules may consult the data under the operator through the counted
//! access paths of [`crate::access`] (`Input_pre`, `Input_post`,
//! `Output`).
//!
//! Two forms per rule, following the paper's Pass 4 (semantic
//! minimization, Figure 8): a **general** form that probes the input
//! subview, and — where Figure 8 licenses it — a **minimized** form that
//! answers from the diff alone. [`RuleCtx::minimize`] selects between
//! them; results are identical, access counts are not (the paper reports
//! >50 % improvements from minimization).

pub mod agg;
pub mod common;
pub mod join;
pub mod project;
pub mod select;
pub mod union;

use crate::access::{AccessCtx, PathId};
use crate::diff::DiffInstance;
use crate::faults::{FaultSite, FaultState};
use idivm_algebra::{JoinKind, Plan};
use idivm_exec::partition::ParallelConfig;
use idivm_types::{Error, Result};
use std::sync::atomic::{AtomicU64, Ordering};

/// Context handed to every rule invocation.
pub struct RuleCtx<'a> {
    /// Access paths to subviews/caches.
    pub access: &'a AccessCtx<'a>,
    /// Pass-4 semantic minimization on/off.
    pub minimize: bool,
    /// Partitioned propagation configuration (serial by default).
    pub parallel: ParallelConfig,
    /// The round's fault hooks, for failpoints *inside* a rule — today
    /// only the mid-rescan failpoint of the aggregate delta strategy.
    /// `None` in contexts without fault machinery.
    pub faults: Option<&'a FaultState>,
    /// Dirty-group rescans performed this round (reported as
    /// `MaintenanceReport::rescans`). `None` when nobody is counting.
    pub rescans: Option<&'a AtomicU64>,
}

impl RuleCtx<'_> {
    /// Announce one dirty-group rescan: fires the `rescan` operator
    /// failpoint (so fault sweeps can land mid-rescan and prove the
    /// rollback) and bumps the round's rescan counter. Called before
    /// the recompute it prices (see `GroupDelta::settle` for where
    /// that falls against the member lookup) — the failpoint has to
    /// abort the round with the rescan not yet performed. Rescans run
    /// on the serial spine, so the counter and failpoint order are
    /// thread-stable.
    ///
    /// # Errors
    /// The armed fault, when the sweep lands on this rescan.
    pub fn on_rescan(&self) -> Result<()> {
        if let Some(f) = self.faults {
            f.hit(FaultSite::Operator, "`rescan`")?;
        }
        if let Some(c) = self.rescans {
            c.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }
}

/// A diff arriving at an operator, tagged with the child it came from
/// (0 = only/left input, 1 = right input).
#[derive(Debug, Clone)]
pub struct IncomingDiff {
    pub side: usize,
    pub diff: DiffInstance,
}

/// Propagate all diffs arriving at `node` (located at `path` in the
/// root plan) to diffs over the node's output schema.
///
/// Non-blocking operators map each incoming diff independently; the
/// blocking aggregate rules (SUM/COUNT/AVG, Tables 9/11/12) inspect the
/// whole batch (paper's blocking-operator distinction, Example 4.4).
///
/// The **per-row** rules (select, project, and the join family except
/// on the right of a left outer, semi- or antijoin) map every diff row
/// to output rows and probes independently, with no cross-row state, so
/// they run through the parallel fan-out ([`ParallelConfig::fan_out`]):
/// contiguous row chunks, outputs in row order. The cross-row rules
/// (those right-side joins' dedup of the left rows they reach, union
/// tagging, aggregate delta folding) run on the whole diff.
///
/// # Errors
/// Propagates access errors; scans reaching this function are a planner
/// bug ([`Error::Internal`]).
pub fn propagate(
    ctx: &RuleCtx<'_>,
    node: &Plan,
    path: &PathId,
    incoming: Vec<IncomingDiff>,
) -> Result<Vec<DiffInstance>> {
    if incoming.iter().all(|d| d.diff.is_empty()) {
        return Ok(Vec::new());
    }
    match node {
        Plan::Scan { .. } => Err(Error::Internal(
            "scan nodes receive base diffs directly; nothing to propagate".into(),
        )),
        Plan::Select { input, pred } => {
            let mut out = Vec::new();
            for inc in incoming {
                out.extend(
                    ctx.parallel
                        .fan_out(inc.diff, |d| select::propagate(ctx, pred, input, path, d))?,
                );
            }
            Ok(out)
        }
        Plan::Project { input, cols } => {
            let mut out = Vec::new();
            for inc in incoming {
                out.extend(
                    ctx.parallel
                        .fan_out(inc.diff, |d| project::propagate(ctx, cols, input, path, d))?,
                );
            }
            Ok(out)
        }
        Plan::Join {
            kind,
            left,
            right,
            on,
            residual,
        } => {
            let mut out = Vec::new();
            for inc in incoming {
                let side = inc.side;
                let rule = |d| {
                    join::propagate(
                        ctx,
                        *kind,
                        left,
                        right,
                        on,
                        residual.as_ref(),
                        path,
                        side,
                        d,
                    )
                };
                if side == 0 || *kind == JoinKind::Inner {
                    out.extend(ctx.parallel.fan_out(inc.diff, rule)?);
                } else {
                    // Right-side diffs of the other kinds dedupe the left
                    // rows they reach across the whole diff: cross-row
                    // state, so this path stays serial.
                    out.extend(rule(inc.diff)?);
                }
            }
            Ok(out)
        }
        Plan::UnionAll { left, right } => {
            let mut out = Vec::new();
            let arity = node.arity();
            for inc in incoming {
                let side_plan = if inc.side == 0 { left } else { right };
                out.push(union::propagate(side_plan, arity, inc.side, inc.diff)?);
            }
            Ok(out)
        }
        Plan::GroupBy { input, keys, aggs } => {
            agg::propagate(ctx, input, keys, aggs, path, incoming)
        }
    }
}
