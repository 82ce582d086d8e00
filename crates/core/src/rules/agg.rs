//! Rules for grouping/aggregation γ_Ḡ,f(X̄)→c — paper Tables 7, 9 and 11.
//!
//! Two strategies, chosen per maintenance round:
//!
//! * **Delta** — Tables 9 (SUM) and 11 (COUNT), extended to MIN/MAX:
//!   every input change is folded into its group's
//!   [`GroupDelta`] (`x∆`, grouped by `Ḡ`), which is then resolved
//!   against the group's stored row in `Output` (the node's
//!   materialization): `c_post = c_pre + c∆`. A group whose stored row
//!   does not settle it — a MIN/MAX lost its extremum, or a SUM may have
//!   lost its last non-NULL argument — is *dirty* and re-read from
//!   `Input_post` by one counted rescan. Applicable when every aggregate
//!   is SUM/COUNT/MIN/MAX and no update touches the group columns (the
//!   operator is *blocking*: it needs the whole diff batch — paper
//!   Example 4.4).
//! * **General (non-blocking)** — Table 7: recompute every affected
//!   group from `Input_post` (`γ(∆ ⋉_Ḡ Input_post)`). Works for any
//!   aggregate (AVG included) and for updates that move a row between
//!   groups, at the price of re-reading the affected groups.
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
use idivm_algebra::aggregate::{aggregate_rows, Event, GroupDelta};
use idivm_algebra::{AggSpec, Plan};
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
    match GroupDelta::new(aggs) {
        Some(fresh) if groups_stable => delta(ctx, input, keys, aggs, path, &incoming, fresh),
        _ => general(ctx, input, keys, aggs, path, &incoming),
    }
}

// ---------------------------------------------------------------------
// Delta strategy (Tables 9 and 11, extended to MIN/MAX)
// ---------------------------------------------------------------------

/// Feed `on` every net change of the group-by's input this round.
fn for_each_input_change(
    ctx: &RuleCtx<'_>,
    input: &Plan,
    keys: &[usize],
    ipath: &PathId,
    incoming: &[IncomingDiff],
    mut on: impl FnMut(Event<'_>) -> Result<()>,
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
                        on(Event::Upd(pre, post))?;
                    } else {
                        // The row moved between groups: −x at the old
                        // group, +x at the new one.
                        on(Event::Del(pre))?;
                        on(Event::Ins(post))?;
                    }
                }
                NetChange::Deleted { pre } => on(Event::Del(pre))?,
                NetChange::Inserted { post } => on(Event::Ins(post))?,
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
                        on(Event::Upd(&p.pre, &p.post))?;
                    }
                }
            }
            DiffKind::Delete => {
                // ∆₂ = π_{Ī, 0 − x_pre → x∆}(∆− ⋈ Input_pre)
                for pre in delete_rows(ctx.access, input, ipath, diff)? {
                    if seen.insert((b'-', pre.key(&input_ids))) {
                        on(Event::Del(&pre))?;
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
                        on(Event::Ins(&post))?;
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
/// per process, and rescans must fire in the same order for any thread
/// count.
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

/// The delta strategy: fold every input change into its group's
/// [`GroupDelta`] (γ_{Ḡ,sum(x∆)}), then settle each group against its
/// stored row in `Output`. Inserts, deletes and updates resolve from the
/// stored row alone; a group that had a delete is probed for emptiness
/// in `Input_post`, and a dirty group is re-read there by one counted
/// rescan. Deliberately **serial**: each dirty group fires the
/// mid-rescan failpoint and bumps the rescan counter through
/// `RuleCtx::on_rescan`, and those must happen in a canonical order for
/// any thread count.
fn delta(
    ctx: &RuleCtx<'_>,
    input: &Plan,
    keys: &[usize],
    aggs: &[AggSpec],
    path: &PathId,
    incoming: &[IncomingDiff],
    fresh: GroupDelta,
) -> Result<Vec<DiffInstance>> {
    let ipath = child_path(path, 0);
    let mut groups: HashMap<Key, GroupDelta> = HashMap::new();
    let mut scratch = Vec::with_capacity(keys.len());
    for_each_input_change(ctx, input, keys, &ipath, incoming, |ev| {
        fold_into(
            &mut groups,
            &mut scratch,
            ev.row(),
            keys,
            || fresh.clone(),
            |g| g.fold(aggs, ev),
        )
    })?;

    let out_table = output_table(ctx, path)?;
    let out_key_cols: Vec<usize> = (0..keys.len()).collect();
    let mut del_rows = Vec::new();
    let mut upd_rows = Vec::new();
    let mut ins_rows = Vec::new();
    let mut vals = Vec::with_capacity(aggs.len());
    for (gk, g) in sorted_groups(groups) {
        let Some(old) = output_row(out_table, &out_key_cols, &gk.0) else {
            // Group creation: the deltas start from empty.
            ins_rows.push(gk.0.iter().cloned().chain(g.created()).collect());
            continue;
        };
        let members = || access::lookup(ctx.access, input, &ipath, State::Post, keys, &gk.0);
        let old_aggs = &old.0[keys.len()..];
        if !g.settle(aggs, old_aggs, &mut vals, || ctx.on_rescan(), members)? {
            del_rows.push(gk.into_row());
        } else if vals.iter().ne(old_aggs) {
            // σ_isupd: only groups whose aggregates changed.
            upd_rows.push(update_row(&gk, &old, vals.drain(..)));
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
