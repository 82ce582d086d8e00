//! Rules for grouping/aggregation γ_Ḡ,f(X̄)→c — paper Tables 7, 9 and 11.
//!
//! Two strategies, chosen per maintenance round:
//!
//! * **Incremental (blocking)** — Tables 9 (SUM) and 11 (COUNT): all
//!   incoming diffs are folded into per-input-row *delta* contributions
//!   (`x∆`), grouped by `Ḡ`, then converted to output update i-diffs by
//!   joining with `Output` (the node's materialization):
//!   `∆u_V = π_{Ḡ, c→c_pre, c+c∆→c_post}(Output ⋈ γ_{Ḡ,sum(x∆)}(∆₁∪∆₂∪∆₃))`.
//!   Applicable when every aggregate is SUM/COUNT and no update touches
//!   the group columns (the operator is *blocking*: it needs the whole
//!   diff batch — paper Example 4.4).
//! * **General (non-blocking)** — Table 7: recompute every affected
//!   group from `Input_post` (`γ(∆ ⋉_Ḡ Input_post)`). Works for any
//!   aggregate (MIN/MAX/AVG included) at the price of re-reading the
//!   affected groups.
//!
//! Both strategies extend the paper's rules with **group creation and
//! deletion** (the tables say "do not handle group creation/deletion"):
//! groups absent from `Output` are emitted as insert i-diffs, groups
//! whose member set became empty as delete i-diffs. Without this the
//! rules are only correct for workloads that never create or empty a
//! group — the restriction under which the paper evaluates.

use crate::access::{self, PathId};
use crate::diff::{DiffInstance, DiffKind, DiffSchema, State};
use crate::rules::common::{child_path, delete_rows, insert_rows, untouched, update_row_pairs};
use crate::rules::{IncomingDiff, RuleCtx};
use idivm_algebra::aggregate::{aggregate_rows, ExtremumDelta, ExtremumOutcome};
use idivm_algebra::{AggFunc, AggSpec, Plan};
use idivm_reldb::{NetChange, Table};
use idivm_types::{Error, Key, Result, Row, Value};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Propagate a batch of diffs through a group-by.
///
/// # Errors
/// Fails when the node has no materialization to serve `Output`
/// (the engine always provides one), or on access failures.
pub fn propagate(
    ctx: &RuleCtx<'_>,
    input: &Plan,
    keys: &[usize],
    aggs: &[AggSpec],
    path: &PathId,
    incoming: Vec<IncomingDiff>,
) -> Result<Vec<DiffInstance>> {
    if !ctx.access.caches.contains_key(path) {
        return Err(Error::Unsupported(
            "aggregate operators require their output to be materialized \
             (as the view or an intermediate cache) so rules can consult \
             `Output`"
                .into(),
        ));
    }
    let group_cols: BTreeSet<usize> = keys.iter().copied().collect();
    let groups_stable = incoming.iter().all(|inc| {
        inc.diff.schema.kind != DiffKind::Update || untouched(&inc.diff.schema, &group_cols)
    });
    let incremental_ok = aggs
        .iter()
        .all(|a| a.func.is_incremental() && a.func != AggFunc::Avg)
        && groups_stable;
    // The extremum strategy covers MIN/MAX (mixed with SUM/COUNT):
    // inserts and non-extremum removals fold like deltas; only a
    // removal of the stored extremum marks the group dirty and forces
    // one member rescan. AVG stays on the general path (its finish is
    // a division, not a delta), as do group-column updates.
    let extremum_ok = aggs.iter().all(|a| {
        a.func.is_invertible() && a.func != AggFunc::Avg
            || matches!(a.func, AggFunc::Min | AggFunc::Max)
    }) && aggs
        .iter()
        .any(|a| matches!(a.func, AggFunc::Min | AggFunc::Max))
        && groups_stable;
    if incremental_ok {
        incremental(ctx, input, keys, aggs, path, &incoming)
    } else if extremum_ok {
        extremum(ctx, input, keys, aggs, path, &incoming)
    } else {
        general(ctx, input, keys, aggs, path, &incoming)
    }
}

// ---------------------------------------------------------------------
// Shared by the delta strategies: the batch as per-input-row events
// ---------------------------------------------------------------------

/// One net change of an input row, in fold form.
enum Ev<'a> {
    Ins(&'a Row),
    Del(&'a Row),
    Upd(&'a Row, &'a Row),
}

impl Ev<'_> {
    /// The row whose group columns say which group the event folds into.
    fn grouped_by(&self) -> &Row {
        match self {
            Ev::Ins(row) | Ev::Del(row) | Ev::Upd(_, row) => row,
        }
    }

    /// The event's delta contribution to one SUM/COUNT aggregate.
    fn delta(&self, a: &AggSpec) -> Result<Value> {
        match self {
            Ev::Ins(post) => delta_insert(a, post),
            Ev::Del(pre) => delta_delete(a, pre),
            Ev::Upd(pre, post) => delta_update(a, pre, post),
        }
    }
}

/// Feed `on` every net change of the group-by's input this round.
fn for_each_input_change(
    ctx: &RuleCtx<'_>,
    input: &Plan,
    keys: &[usize],
    ipath: &PathId,
    incoming: &[IncomingDiff],
    mut on: impl FnMut(Ev<'_>) -> Result<()>,
) -> Result<()> {
    if let Some(cache) = ctx.access.caches.get(ipath) {
        // Cached input: the engine has already applied the child diffs
        // to the cache, and the apply recorded the actual per-row net
        // changes — the paper's UPDATE-RETURNING optimization ("∆u_Vspj
        // is obtained without additional accesses over cache
        // modification costs", Appendix A.2). Folding the recorded
        // changes costs zero accesses and is immune to dummy diff tuples
        // (dummies modified nothing).
        let Some(changes) = ctx.access.cache_changes.get(cache.as_str()) else {
            return Ok(());
        };
        for change in changes.values() {
            match change {
                NetChange::Updated { pre, post } => {
                    if keys.iter().all(|&k| pre[k] == post[k]) {
                        on(Ev::Upd(pre, post))?;
                    } else {
                        // The row moved between groups: −x at the old
                        // group, +x at the new one.
                        on(Ev::Del(pre))?;
                        on(Ev::Ins(post))?;
                    }
                }
                NetChange::Deleted { pre } => on(Ev::Del(pre))?,
                NetChange::Inserted { post } => on(Ev::Ins(post))?,
            }
        }
        return Ok(());
    }
    // No cache: materialize the affected input rows by probing the
    // input subview — "without cache both approaches would perform
    // identically" (Section 6.2). Dedupe by input ID within each diff
    // kind (effective diffs agree on final values).
    let input_ids = idivm_algebra::infer_ids(input)?;
    let in_arity = input.arity();
    let mut seen: HashSet<(u8, Key)> = HashSet::new();
    for inc in incoming {
        let diff = &inc.diff;
        match diff.schema.kind {
            DiffKind::Update => {
                // ∆₁ = π_{Ī, x_post − x_pre → x∆}(∆u ⋈ Input_pre)
                for p in update_row_pairs(ctx.access, input, ipath, &input_ids, diff)? {
                    if seen.insert((b'u', p.post.key(&input_ids))) {
                        on(Ev::Upd(&p.pre, &p.post))?;
                    }
                }
            }
            DiffKind::Delete => {
                // ∆₂ = π_{Ī, 0 − x_pre → x∆}(∆− ⋈ Input_pre)
                for pre in delete_rows(ctx.access, input, ipath, diff)? {
                    if seen.insert((b'-', pre.key(&input_ids))) {
                        on(Ev::Del(&pre))?;
                    }
                }
            }
            DiffKind::Insert => {
                // ∆₃ = π_{Ī, x → x∆}(∆⁺ ▷ Input_pre): skip rows that
                // already existed identically in the pre-state
                // (repeated assertions of the same insert).
                for post in insert_rows(diff, in_arity) {
                    let id = post.key(&input_ids);
                    if !seen.insert((b'+', id.clone())) {
                        continue;
                    }
                    let pre_hit =
                        access::lookup(ctx.access, input, ipath, State::Pre, &input_ids, &id.0)?;
                    if !pre_hit.contains(&post) {
                        on(Ev::Ins(&post))?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Run `fold` on the state of the group `row` belongs to, creating it
/// with `fresh` on the group's first sight. The probe goes through the
/// reused `scratch` projection, so a `Key` is built once per group, not
/// once per folded row.
fn fold_into<G>(
    groups: &mut HashMap<Key, G>,
    scratch: &mut Vec<Value>,
    row: &Row,
    keys: &[usize],
    fresh: impl FnOnce() -> G,
    fold: impl FnOnce(&mut G) -> Result<()>,
) -> Result<()> {
    scratch.clear();
    scratch.extend(keys.iter().map(|&k| row[k].clone()));
    match groups.get_mut(scratch.as_slice()) {
        Some(g) => fold(g),
        None => fold(groups.entry(Key(scratch.clone())).or_insert_with(fresh)),
    }
}

/// The groups in a canonical order: `HashMap` iteration order varies
/// per process, and the parallel fan-out needs a serial order to be
/// compared against.
fn sorted_groups<G>(groups: HashMap<Key, G>) -> Vec<(Key, G)> {
    let mut entries: Vec<(Key, G)> = groups.into_iter().collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries
}

/// `Output`'s table: the node's own materialization, which `propagate`
/// has checked exists. Resolved once per operator call.
fn output_table<'a>(ctx: &RuleCtx<'a>, path: &PathId) -> Result<&'a Table> {
    let name = ctx
        .access
        .caches
        .get(path)
        .ok_or_else(|| Error::Internal(format!("no materialization at plan path {path:?}")))?;
    ctx.access.db.table(name)
}

/// `Output`'s stored row of group `gk`. `Output` is always provided in
/// pre-state (Section 4); the node's materialization has not been
/// touched this round, so its physical content *is* the pre-state.
/// Counted as the point read it is: 1 index lookup, plus 1 tuple access
/// on a hit.
fn output_row(out: &Table, key_cols: &[usize], gk: &[Value]) -> Option<Row> {
    if key_cols == out.schema().key() {
        out.get(gk).cloned()
    } else {
        out.lookup(key_cols, gk).into_iter().next()
    }
}

/// The diffs a group-by emits, in APPLY order.
fn group_diffs(
    keys: &[usize],
    aggs: &[AggSpec],
    del_rows: Vec<Row>,
    upd_rows: Vec<Row>,
    ins_rows: Vec<Row>,
) -> Vec<DiffInstance> {
    let out_arity = keys.len() + aggs.len();
    let out_ids: Vec<usize> = (0..keys.len()).collect();
    let agg_cols: Vec<usize> = (keys.len()..out_arity).collect();
    let mut out = Vec::new();
    if !del_rows.is_empty() {
        out.push(DiffInstance::new(
            DiffSchema::delete(&out_ids, &[]),
            del_rows,
        ));
    }
    if !upd_rows.is_empty() {
        out.push(DiffInstance::new(
            DiffSchema::update(&out_ids, &agg_cols, &agg_cols),
            upd_rows,
        ));
    }
    if !ins_rows.is_empty() {
        out.push(DiffInstance::insert_from_rows(&out_ids, out_arity, &ins_rows));
    }
    out
}

/// An update diff row `[group…, stored aggregates…, new aggregates…]`.
fn update_row(gk: &Key, old: &Row, vals: impl Iterator<Item = Value>) -> Row {
    gk.0.iter()
        .chain(&old.0[gk.0.len()..])
        .cloned()
        .chain(vals)
        .collect()
}

// ---------------------------------------------------------------------
// Incremental strategy (Tables 9 and 11)
// ---------------------------------------------------------------------

fn incremental(
    ctx: &RuleCtx<'_>,
    input: &Plan,
    keys: &[usize],
    aggs: &[AggSpec],
    path: &PathId,
    incoming: &[IncomingDiff],
) -> Result<Vec<DiffInstance>> {
    let ipath = child_path(path, 0);
    // γ_{Ḡ,sum(x∆)}: fold every input change's delta contribution (`x∆`)
    // straight into its group. Folding is cross-row and stays serial;
    // the per-group emission below is the parallelizable part.
    let mut groups: HashMap<Key, GroupDelta> = HashMap::new();
    let mut scratch = Vec::with_capacity(keys.len());
    for_each_input_change(ctx, input, keys, &ipath, incoming, |ev| {
        fold_into(
            &mut groups,
            &mut scratch,
            ev.grouped_by(),
            keys,
            || GroupDelta {
                per_agg: vec![Value::Int(0); aggs.len()],
                had_delete: false,
            },
            |g| {
                for (slot, a) in g.per_agg.iter_mut().zip(aggs) {
                    *slot = slot.add(&ev.delta(a)?);
                }
                g.had_delete |= matches!(ev, Ev::Del(_));
                Ok(())
            },
        )
    })?;
    emit_group_diffs(ctx, input, keys, aggs, path, sorted_groups(groups))
}

/// Net delta of one group across all contributions.
struct GroupDelta {
    per_agg: Vec<Value>,
    /// Some contribution removed a member: the group may have emptied.
    had_delete: bool,
}

fn delta_update(a: &AggSpec, pre: &Row, post: &Row) -> Result<Value> {
    Ok(match a.func {
        AggFunc::Sum => {
            let xp = nz(a.arg.eval(post)?);
            let xq = nz(a.arg.eval(pre)?);
            xp.sub(&xq)
        }
        AggFunc::Count => {
            let p = i64::from(!a.arg.eval(post)?.is_null());
            let q = i64::from(!a.arg.eval(pre)?.is_null());
            Value::Int(p - q)
        }
        _ => Value::Int(0),
    })
}

fn delta_delete(a: &AggSpec, pre: &Row) -> Result<Value> {
    Ok(match a.func {
        AggFunc::Sum => Value::Int(0).sub(&nz(a.arg.eval(pre)?)),
        AggFunc::Count => Value::Int(-i64::from(!a.arg.eval(pre)?.is_null())),
        _ => Value::Int(0),
    })
}

fn delta_insert(a: &AggSpec, post: &Row) -> Result<Value> {
    Ok(match a.func {
        AggFunc::Sum => nz(a.arg.eval(post)?),
        AggFunc::Count => Value::Int(i64::from(!a.arg.eval(post)?.is_null())),
        _ => Value::Int(0),
    })
}

/// SUM treats NULL contributions as 0 in delta space.
fn nz(v: Value) -> Value {
    if v.is_null() {
        Value::Int(0)
    } else {
        v
    }
}

// ---------------------------------------------------------------------
// Extremum strategy (MIN/MAX with dirty-group rescan fallback)
// ---------------------------------------------------------------------

/// Per-group state folded by the extremum strategy: numeric deltas for
/// the SUM/COUNT slots, [`ExtremumDelta`] trackers for the MIN/MAX
/// slots.
struct ExtGroup {
    nums: Vec<Value>,
    exts: Vec<ExtremumDelta>,
    had_delete: bool,
}

fn ext_fold(g: &mut ExtGroup, aggs: &[AggSpec], ev: &Ev<'_>) -> Result<()> {
    for (i, a) in aggs.iter().enumerate() {
        if matches!(a.func, AggFunc::Min | AggFunc::Max) {
            match ev {
                Ev::Ins(post) => g.exts[i].insert(a.func, &a.arg.eval(post)?),
                Ev::Del(pre) => g.exts[i].remove(a.func, &a.arg.eval(pre)?),
                Ev::Upd(pre, post) => {
                    g.exts[i].remove(a.func, &a.arg.eval(pre)?);
                    g.exts[i].insert(a.func, &a.arg.eval(post)?);
                }
            }
        } else {
            g.nums[i] = g.nums[i].add(&ev.delta(a)?);
        }
    }
    if matches!(ev, Ev::Del(_)) {
        g.had_delete = true;
    }
    Ok(())
}

/// MIN/MAX (mixed with SUM/COUNT) without giving up delta maintenance:
/// inserts and removals of non-extremum members resolve from the stored
/// group row alone; only a removal (or worsening update) of the stored
/// extremum marks the group **dirty** and triggers one counted member
/// rescan from `Input_post`. SUM/COUNT slots ride along as deltas and
/// reuse the rescan's members when the group is dirty anyway.
fn extremum(
    ctx: &RuleCtx<'_>,
    input: &Plan,
    keys: &[usize],
    aggs: &[AggSpec],
    path: &PathId,
    incoming: &[IncomingDiff],
) -> Result<Vec<DiffInstance>> {
    let ipath = child_path(path, 0);
    let mut groups: HashMap<Key, ExtGroup> = HashMap::new();
    let mut scratch = Vec::with_capacity(keys.len());
    for_each_input_change(ctx, input, keys, &ipath, incoming, |ev| {
        fold_into(
            &mut groups,
            &mut scratch,
            ev.grouped_by(),
            keys,
            || ExtGroup {
                nums: vec![Value::Int(0); aggs.len()],
                exts: vec![ExtremumDelta::default(); aggs.len()],
                had_delete: false,
            },
            |g| ext_fold(g, aggs, &ev),
        )
    })?;

    // Per-group conversion. Deliberately **serial** (unlike the other
    // strategies): each dirty group fires the mid-rescan failpoint and
    // bumps the rescan counter through `RuleCtx::on_rescan`, and those
    // must happen in a canonical order for any thread count.
    let out_table = output_table(ctx, path)?;
    let out_key_cols: Vec<usize> = (0..keys.len()).collect();
    let is_ext = |a: &AggSpec| matches!(a.func, AggFunc::Min | AggFunc::Max);
    let mut del_rows = Vec::new();
    let mut upd_rows = Vec::new();
    let mut ins_rows = Vec::new();
    for (gk, g) in sorted_groups(groups) {
        match output_row(out_table, &out_key_cols, &gk.0) {
            None => {
                // Group creation: the deltas start from empty, so every
                // slot resolves without the stored row.
                let created = aggs.iter().enumerate().map(|(i, a)| {
                    if is_ext(a) {
                        g.exts[i].created()
                    } else {
                        g.nums[i].clone()
                    }
                });
                ins_rows.push(gk.0.iter().cloned().chain(created).collect());
            }
            Some(old) => {
                let mut dirty = false;
                let mut vals: Vec<Value> = Vec::with_capacity(aggs.len());
                for (i, a) in aggs.iter().enumerate() {
                    if is_ext(a) {
                        match g.exts[i].resolve(a.func, &old[keys.len() + i]) {
                            ExtremumOutcome::Clean(v) => vals.push(v),
                            ExtremumOutcome::Rescan => {
                                dirty = true;
                                vals.push(Value::Null); // overwritten below
                            }
                        }
                    } else {
                        vals.push(old[keys.len() + i].add(&g.nums[i]));
                    }
                }
                if dirty || g.had_delete {
                    // One member lookup serves both the emptiness check
                    // and the dirty recompute. The failpoint fires
                    // *before* the lookup: an aborted round must roll
                    // back with the rescan unperformed.
                    if dirty {
                        ctx.on_rescan()?;
                    }
                    let members =
                        access::lookup(ctx.access, input, &ipath, State::Post, keys, &gk.0)?;
                    if members.is_empty() {
                        del_rows.push(gk.into_row());
                        continue;
                    }
                    if dirty {
                        vals = aggs
                            .iter()
                            .map(|a| aggregate_rows(a, &members))
                            .collect::<Result<_>>()?;
                    }
                }
                // σ_isupd: skip groups whose aggregates did not change.
                if vals.iter().ne(&old.0[keys.len()..]) {
                    upd_rows.push(update_row(&gk, &old, vals.into_iter()));
                }
            }
        }
    }
    Ok(group_diffs(keys, aggs, del_rows, upd_rows, ins_rows))
}

// ---------------------------------------------------------------------
// General strategy (Table 7)
// ---------------------------------------------------------------------

fn general(
    ctx: &RuleCtx<'_>,
    input: &Plan,
    keys: &[usize],
    aggs: &[AggSpec],
    path: &PathId,
    incoming: &[IncomingDiff],
) -> Result<Vec<DiffInstance>> {
    let ipath = child_path(path, 0);
    let input_ids = idivm_algebra::infer_ids(input)?;
    let in_arity = input.arity();
    // Collect affected group keys (pre and post images).
    let mut affected: BTreeSet<Key> = BTreeSet::new();
    for inc in incoming {
        let diff = &inc.diff;
        // The group key's slots in a diff row, when the diff carries
        // every key column in `state`.
        let key_slots = |state: State| -> Option<Vec<usize>> {
            keys.iter().map(|&k| diff.schema.source(k, state)).collect()
        };
        let key_at = |d: &Row, slots: &[usize]| Key(slots.iter().map(|&s| d[s].clone()).collect());
        match diff.schema.kind {
            DiffKind::Insert => {
                // Insert diffs carry every column; one that does not
                // stands for no rows (as in `insert_rows`).
                if let Some(full) = diff.schema.full_sources(in_arity, State::Post) {
                    let slots: Vec<usize> = keys.iter().map(|&k| full.slot(k)).collect();
                    affected.extend(diff.rows.iter().map(|d| key_at(d, &slots)));
                }
            }
            DiffKind::Delete => match key_slots(State::Pre) {
                Some(slots) => affected.extend(diff.rows.iter().map(|d| key_at(d, &slots))),
                None => {
                    for r in delete_rows(ctx.access, input, &ipath, diff)? {
                        affected.insert(r.key(keys));
                    }
                }
            },
            DiffKind::Update => match (key_slots(State::Pre), key_slots(State::Post)) {
                (Some(pre), Some(post)) => {
                    for d in &diff.rows {
                        affected.insert(key_at(d, &pre));
                        affected.insert(key_at(d, &post));
                    }
                }
                _ => {
                    for p in update_row_pairs(ctx.access, input, &ipath, &input_ids, diff)? {
                        affected.insert(p.pre.key(keys));
                        affected.insert(p.post.key(keys));
                    }
                }
            },
        }
    }
    // Recompute each affected group from Input_post (γ(∆ ⋉_Ḡ Input_post)).
    // Groups are independent (one member probe + in-memory aggregation
    // each), so the recompute loop fans out over the group keys, in
    // their sorted order for any `P`.
    let in_key_cols: Vec<usize> = keys.to_vec();
    let affected: Vec<Key> = affected.into_iter().collect();
    let groups = ctx.parallel.fan_out(affected, |chunk| {
        let mut out = Vec::with_capacity(chunk.len());
        for gk in chunk {
            let members = access::lookup(
                ctx.access,
                input,
                &ipath,
                State::Post,
                &in_key_cols,
                &gk.0,
            )?;
            out.push((
                gk,
                Recomputed {
                    values: if members.is_empty() {
                        None
                    } else {
                        Some(
                            aggs.iter()
                                .map(|a| aggregate_rows(a, &members))
                                .collect::<Result<_>>()?,
                        )
                    },
                },
            ));
        }
        Ok(out)
    })?;
    emit_recomputed(ctx, keys, aggs, path, groups)
}

struct Recomputed {
    /// `None` ⇒ the group has no members any more.
    values: Option<Vec<Value>>,
}

fn emit_recomputed(
    ctx: &RuleCtx<'_>,
    keys: &[usize],
    aggs: &[AggSpec],
    path: &PathId,
    groups: Vec<(Key, Recomputed)>,
) -> Result<Vec<DiffInstance>> {
    let out_table = output_table(ctx, path)?;
    let out_key_cols: Vec<usize> = (0..keys.len()).collect();
    // Per-group emission (one `Output` probe each) fans out over the
    // groups; chunk outputs merge in group order.
    let mut upd_rows = Vec::new();
    let mut ins_rows = Vec::new();
    let mut del_rows = Vec::new();
    for (del, upd, ins) in ctx.parallel.fan_out(groups, |entries: Vec<(Key, Recomputed)>| {
        let mut del = Vec::new();
        let mut upd = Vec::new();
        let mut ins = Vec::new();
        for (gk, rec) in entries {
            match (rec.values, output_row(out_table, &out_key_cols, &gk.0)) {
                (None, Some(_)) => del.push(gk.into_row()),
                (None, None) => {}
                (Some(vals), None) => ins.push(gk.0.into_iter().chain(vals).collect()),
                (Some(vals), Some(old)) => {
                    // σ_isupd: skip groups whose aggregates did not
                    // change.
                    if vals.iter().ne(&old.0[keys.len()..]) {
                        upd.push(update_row(&gk, &old, vals.into_iter()));
                    }
                }
            }
        }
        Ok(vec![(del, upd, ins)])
    })? {
        del_rows.extend(del);
        upd_rows.extend(upd);
        ins_rows.extend(ins);
    }
    Ok(group_diffs(keys, aggs, del_rows, upd_rows, ins_rows))
}

/// Emission for the incremental path: join group deltas with `Output`,
/// detect creation (missing group) and deletion (group with delete
/// contributions whose members vanished). The conversion step of Tables
/// 9/11: `c_post = c_pre + c∆`.
fn emit_group_diffs(
    ctx: &RuleCtx<'_>,
    input: &Plan,
    keys: &[usize],
    aggs: &[AggSpec],
    path: &PathId,
    groups: Vec<(Key, GroupDelta)>,
) -> Result<Vec<DiffInstance>> {
    let ipath = child_path(path, 0);
    let out_table = output_table(ctx, path)?;
    let out_key_cols: Vec<usize> = (0..keys.len()).collect();
    // Per-group conversion (one or two probes each, no cross-group
    // state) fans out over the groups; chunk outputs merge in group
    // order.
    let mut upd_rows = Vec::new();
    let mut ins_rows = Vec::new();
    let mut del_rows = Vec::new();
    for (del, upd, ins) in ctx.parallel.fan_out(groups, |entries: Vec<(Key, GroupDelta)>| {
        let mut del = Vec::new();
        let mut upd = Vec::new();
        let mut ins = Vec::new();
        for (gk, gd) in entries {
            match output_row(out_table, &out_key_cols, &gk.0) {
                Some(old) => {
                    if gd.had_delete {
                        // The group may have emptied: probe Input_post.
                        let still = access::lookup(
                            ctx.access,
                            input,
                            &ipath,
                            State::Post,
                            keys,
                            &gk.0,
                        )?;
                        if still.is_empty() {
                            del.push(gk.into_row());
                            continue;
                        }
                    }
                    if gd.per_agg.iter().all(is_zero) {
                        continue; // σ_isupd
                    }
                    // c_post = c_pre + c∆ per aggregate.
                    let posts = gd
                        .per_agg
                        .iter()
                        .enumerate()
                        .map(|(i, d)| old[keys.len() + i].add(d));
                    upd.push(update_row(&gk, &old, posts));
                }
                // Group creation: the deltas start from empty.
                None => ins.push(gk.0.into_iter().chain(gd.per_agg).collect()),
            }
        }
        Ok(vec![(del, upd, ins)])
    })? {
        del_rows.extend(del);
        upd_rows.extend(upd);
        ins_rows.extend(ins);
    }
    Ok(group_diffs(keys, aggs, del_rows, upd_rows, ins_rows))
}

fn is_zero(v: &Value) -> bool {
    matches!(v, Value::Int(0)) || matches!(v, Value::Float(f) if *f == 0.0)
}
