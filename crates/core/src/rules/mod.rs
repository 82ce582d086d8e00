//! i-diff propagation rules — paper Tables 4–13, one module per
//! operator family.
//!
//! Each operator transforms (effective) i-diffs over its input schema
//! into (effective) i-diffs over its output schema (paper Section 4).
//! The rules may consult the data under the operator through the counted
//! access paths of [`crate::access`] (`Input_pre`, `Input_post`,
//! `Output`).
//!
//! Each rule states once which i-diff schemas a diff of a given schema
//! leaves its operator with ([`out_schemas`] dispatches), and emits
//! every instance in one of them: set-up follows those schemas up the
//! plan to index each view and cache by the IDs its updates and deletes
//! arrive with (`cache::apply_id_sets`).
//!
//! Two forms per rule, following the paper's Pass 4 (semantic
//! minimization, Figure 8): a **general** form that probes the input
//! subview, and — where Figure 8 licenses it — a **minimized** form that
//! answers from the diff alone. [`RuleCtx::minimize`] selects between
//! them; results are identical, access counts are not (the paper reports
//! >50 % improvements from minimization).
//!
//! Figure 8's rewrites, justified by the effectiveness constraints
//! `C1: ∆⁺_R ⊆ R`, `C2: π_Ī∆−_R ∩ π_ĪR = ∅` and
//! `C3: π_{Ī,Ā″}∆u_R ⋉_Ī R ⊆ π_{Ī,Ā″}R`:
//!
//! | composed query              | minimized form     |
//! |-----------------------------|--------------------|
//! | `∆⁺ ⋉_Ī σφ R`               | `σφ(X̄_post) ∆⁺`    |
//! | `∆u ⋉_Ī σφ R` (X̄ ⊆ Ā″)     | `σφ(X̄_post) ∆u`    |
//! | `∆− ⋉_Ī σφ R`               | `∅`                |
//! | `∆⁺ ▷_Ī σφ R`               | `σ¬φ(X̄_post) ∆⁺`   |
//! | `∆− ▷_Ī σφ R`               | `∆−`               |
//! | `∆⁺ ⋈_Ī R` / `∆u ⋈_Ī R`     | `∆⁺` / `∆u`        |
//! | `∆− ⋈_Ī R`                  | `∅`                |

pub mod agg;
pub mod common;
pub mod join;
pub mod project;
pub mod select;
pub mod union;

use crate::access::{AccessCtx, PathId};
use crate::diff::{DiffInstance, DiffSchema};
use crate::faults::{FaultSite, FaultState};
use idivm_algebra::{infer_ids, project_ids, JoinKind, Plan};
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
    pub faults: &'a FaultState,
    /// Dirty-group rescans performed this round (reported as
    /// `MaintenanceReport::rescans`).
    pub rescans: &'a AtomicU64,
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
        self.faults.hit(FaultSite::Operator, "`rescan`")?;
        self.rescans.fetch_add(1, Ordering::Relaxed);
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
        Plan::Select { .. } => {
            let mut out = Vec::new();
            for inc in incoming {
                out.extend(
                    ctx.parallel
                        .fan_out(inc.diff, |d| select::propagate(ctx, node, path, d))?,
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
        Plan::Join { kind, .. } => {
            let mut out = Vec::new();
            for inc in incoming {
                let side = inc.side;
                let rule = |d| join::propagate(ctx, node, path, side, d);
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
        Plan::UnionAll { .. } => {
            let arity = node.arity();
            let each = |inc: IncomingDiff| union::propagate(arity, inc.side, inc.diff);
            Ok(incoming.into_iter().map(each).collect())
        }
        Plan::GroupBy { input, keys, aggs } => {
            agg::propagate(ctx, input, keys, aggs, path, incoming)
        }
    }
}

/// The schemas a diff of schema `diff` arriving at `node` from input
/// `side` can leave it with (Pass 4 on or off by `minimize`): each rule's
/// own statement, [`select::out_schemas`], [`project::out_schema`],
/// [`join::out_schemas`], [`union::out_schema`] and
/// [`agg::out_schemas`], which its `propagate` emits by. A scan passes
/// base diffs on as they are.
///
/// # Errors
/// ID-inference failures, and a diff whose IDs a projection drops.
pub fn out_schemas(
    node: &Plan,
    side: usize,
    diff: &DiffSchema,
    minimize: bool,
) -> Result<Vec<DiffSchema>> {
    Ok(match node {
        Plan::Scan { .. } => vec![diff.clone()],
        Plan::Select { .. } => {
            select::out_schemas(node, diff)?.map_or_else(|| vec![diff.clone()], Vec::from)
        }
        Plan::Project { input, cols } => {
            let node_ids = || project_ids(&infer_ids(input)?, cols);
            let out = project::out_schema(cols, diff, node_ids)?;
            out.into_iter().map(|(s, _)| s).collect()
        }
        Plan::Join { .. } => join::out_schemas(node, side, diff, minimize)?.0,
        Plan::UnionAll { .. } => vec![union::out_schema(node.arity(), diff)],
        Plan::GroupBy { keys, .. } => agg::out_schemas(keys.len(), node.arity()).into(),
    })
}
