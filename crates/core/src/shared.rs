//! Cross-view **shared-prefix i-diff reuse** — the engine hook under
//! the multi-view catalog (`idivm-sched`).
//!
//! The paper's idIVM is a multi-view maintainer: i-diffs are computed
//! once per base-table modification and pushed through every dependent
//! view. When several registered views contain the *same operator
//! subtree* over the same base tables (e.g. the BSMA Q7 family all
//! starting from `σ_ts(mentions ⋈ microblog)`), the i-diffs at that
//! subtree's root are a pure function of
//!
//! * the subtree structure (ID-extended plan + the `minimize` knob),
//! * the base-table i-diff schemas of the tables it scans, and
//! * the pending net changes restricted to those tables
//!
//! — base tables are never mutated during a maintenance round, so the
//! value is identical for every view maintained against the same
//! pending net in the same round. [`detect_shared_prefixes`] finds such
//! subtrees across a set of registered engines; the engine's shared
//! walk ([`crate::IdIvm::maintain_with_changes_shared`]) then computes
//! each prefix **once** per round and serves every other dependent view
//! from the round-scoped [`SharedDiffCache`] at zero counted accesses.
//!
//! Soundness invariants (enforced by the designation rules here):
//!
//! 1. **No cache strictly inside a prefix.** Skipping the subtree walk
//!    skips its interior cache-boundary applies, which would let a
//!    reusing view's private caches rot. A cache *at* the prefix root
//!    is fine — the shared walk still applies the (reused) diffs there.
//! 2. **Keys bind structure + schemas + pending net.** The round lookup
//!    key ([`RoundKey`]) ties the structural fingerprint — interned to
//!    a small id when the designations are computed — to a *content*
//!    digest of the net changes of the subtree's base tables, so views
//!    with different pending horizons (deferred vs eager) can never
//!    alias, and views handed content-equal nets by different routes
//!    (recovery, a supervisor's rebuilt batch) still share. The digest
//!    is computed once per shared table net
//!    ([`idivm_reldb::SharedChanges::digest`]), not once per view, and
//!    never for a table no designated prefix reads.
//! 3. **Per-round lifetime.** A [`SharedDiffCache`] must be created
//!    fresh for each scheduler round (and horizon group) and dropped
//!    afterwards; entries are never carried across rounds.

use crate::access::PathId;
use crate::diff::DiffInstance;
use crate::engine::IdIvm;
use crate::trace::op_label;
use idivm_algebra::Plan;
use idivm_reldb::{net_digest, Net, StatsSnapshot};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One designated shared-prefix boundary inside a view's plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixSpec {
    /// `structural`, interned by [`detect_shared_prefixes`]: equal ids
    /// ⇔ equal fingerprints among the designations of one call.
    pub id: u32,
    /// Structural fingerprint: subtree debug form + `minimize` knob +
    /// the i-diff schema fingerprints of the subtree's base tables.
    /// Views sharing this string compute identical i-diffs at the
    /// boundary for identical pending nets.
    pub structural: String,
    /// Structure-only fingerprint ([`structure_key`]): the subtree
    /// debug form + `minimize` knob, *without* the per-view diff-schema
    /// splits. This is the promotion-matching key — consumers of a
    /// materialized intermediate regenerate their own diff schemas from
    /// the backing table, so schema-split compatibility (required for
    /// round-sharing) is not required for promotion.
    pub structure: String,
    /// Base tables scanned by the subtree, sorted and deduplicated —
    /// the net-digest domain.
    pub tables: Vec<String>,
    /// Human-readable label for reports (`op` + scan list).
    pub label: String,
}

/// A view's designated shared-prefix boundaries: plan path → spec.
/// Computed by [`detect_shared_prefixes`]; consumed by
/// [`crate::IdIvm::maintain_with_changes_shared`]. Empty means the view
/// shares nothing (the shared walk degrades to the plain walk).
#[derive(Debug, Clone, Default)]
pub struct SharedPrefixes {
    /// Designated boundaries.
    pub map: HashMap<PathId, PrefixSpec>,
}

impl SharedPrefixes {
    /// No designated prefixes.
    pub fn none() -> Self {
        SharedPrefixes::default()
    }

    /// Number of designated boundaries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True iff no boundary is designated.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The per-round lookup key for the boundary at `path` under the
    /// pending net `net`, or `None` if `path` is not designated.
    pub fn round_key(&self, path: &PathId, net: &Net) -> Option<RoundKey> {
        let spec = self.map.get(path)?;
        Some((spec.id, net_digest(net, &spec.tables)))
    }
}

/// A designated prefix under one pending net: ([`PrefixSpec::id`],
/// digest of the net over [`PrefixSpec::tables`]).
pub type RoundKey = (u32, u64);

/// What happened at one shared prefix over a cache's lifetime (one
/// scheduler round / horizon group).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedPrefixStat {
    /// Report label (see [`PrefixSpec::label`]).
    pub label: String,
    /// Structure-only fingerprint of the boundary subtree (see
    /// [`PrefixSpec::structure`]) — the key the adaptive promotion
    /// trackers accumulate per-round observations under.
    pub structure: String,
    /// Counted accesses the one computation spent (subtree walk).
    pub compute_accesses: StatsSnapshot,
    /// Diff tuples published at the boundary.
    pub diff_tuples: usize,
    /// Reuses served from the cache after the computation.
    pub hits: u64,
}

impl SharedPrefixStat {
    /// Counted accesses the reuses avoided: every hit would have spent
    /// the compute cost again.
    pub fn saved_accesses(&self) -> u64 {
        self.compute_accesses.total() * self.hits
    }
}

#[derive(Debug)]
struct SharedEntry {
    diffs: Vec<DiffInstance>,
    stat: SharedPrefixStat,
}

/// Round-scoped cache of shared-prefix i-diffs: the first view to walk
/// a designated subtree publishes its boundary diffs (plus compute
/// cost); every later view with the same round key clones them at zero
/// counted accesses. Create one per scheduler round (per horizon
/// group), drop it when the round ends — entries must never outlive
/// the base-table state they were computed against.
#[derive(Debug, Default)]
pub struct SharedDiffCache {
    entries: HashMap<RoundKey, SharedEntry>,
}

impl SharedDiffCache {
    /// An empty round cache.
    pub fn new() -> Self {
        SharedDiffCache::default()
    }

    /// Serve a reuse: clone the published diffs for `key` and count the
    /// hit. `None` means this round key has not been computed yet.
    pub fn reuse(&mut self, key: RoundKey) -> Option<Vec<DiffInstance>> {
        let e = self.entries.get_mut(&key)?;
        e.stat.hits += 1;
        Some(e.diffs.clone())
    }

    /// Publish the diffs computed at a boundary (first walk of the
    /// round). Later `reuse` calls with the same key are served from
    /// this entry.
    pub fn publish(
        &mut self,
        key: RoundKey,
        label: &str,
        structure: &str,
        diffs: &[DiffInstance],
        compute_accesses: StatsSnapshot,
    ) {
        let diff_tuples = diffs.iter().map(DiffInstance::len).sum();
        self.entries.insert(
            key,
            SharedEntry {
                diffs: diffs.to_vec(),
                stat: SharedPrefixStat {
                    label: label.to_string(),
                    structure: structure.to_string(),
                    compute_accesses,
                    diff_tuples,
                    hits: 0,
                },
            },
        );
    }

    /// Number of published boundaries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff nothing was published.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Reuses served across all boundaries.
    pub fn total_hits(&self) -> u64 {
        self.entries.values().map(|e| e.stat.hits).sum()
    }

    /// Counted accesses avoided across all boundaries.
    pub fn total_saved_accesses(&self) -> u64 {
        self.entries.values().map(|e| e.stat.saved_accesses()).sum()
    }

    /// Per-prefix statistics, sorted by label (deterministic report
    /// order for any `HashMap` iteration order).
    pub fn stats(&self) -> Vec<SharedPrefixStat> {
        let mut out: Vec<SharedPrefixStat> =
            self.entries.values().map(|e| e.stat.clone()).collect();
        out.sort_by(|a, b| a.label.cmp(&b.label));
        out
    }
}

/// Detect shared operator-tree prefixes across registered engines.
/// Returns one [`SharedPrefixes`] per input engine (same order). A
/// subtree is designated for a view when
///
/// * it is not a bare `Scan` (base tables are already shared storage),
/// * its structural fingerprint occurs at least twice across all
///   `(view, path)` pairs (so one computation has at least one
///   consumer),
/// * the view materializes no cache *strictly inside* the subtree
///   (invariant 1 of the module docs; a cache at the subtree root is
///   allowed), and
/// * the subtree contains no **non-invertible aggregate** (MIN/MAX).
///   The round key binds structure + base-table nets only; that pins
///   the boundary diffs exactly when every rule is a pure function of
///   base state and the pending net. The dirty-group extremum rule is
///   not: it reads the operator's *own materialized output* (the stored
///   extremum) to choose between delta and rescan, and that output is
///   per-view state — a cache at the boundary root is allowed, and one
///   view's copy can lag after an aborted round recovered by recompute
///   while another's did not. Reusing the first walker's diffs would
///   then corrupt every other consumer, so such subtrees refuse
///   designation outright.
///
/// Nested designations compose: an outer reuse short-circuits the inner
/// boundary, while the outer *computation* publishes the inner boundary
/// on its way up — **unless** every occurrence of the inner group lies
/// strictly inside an occurrence of a single designated outer group. In
/// that case any walk that could reach the inner boundary hits the
/// outer boundary first: the first walk of a round computes (and would
/// publish) both, and every later walk with the same pending horizon
/// short-circuits at the outer boundary, so the inner publish can never
/// be consumed. Such fully covered groups are suppressed — publishing
/// them is pure overhead (a clone of every boundary diff per round with
/// a structurally guaranteed `hits: 0`; the `join[mentions,microblog]`
/// entry of `BENCH_multiview.json` burned 1708 diff-tuple clones per
/// run this way). Coverage is transitive over strict path containment,
/// so one pass against the full designated set is exact.
pub fn detect_shared_prefixes(views: &[&IdIvm]) -> Vec<SharedPrefixes> {
    let mut occurrences: HashMap<String, Vec<(usize, PathId, PrefixSpec)>> = HashMap::new();
    for (vi, view) in views.iter().enumerate() {
        let mut candidates = Vec::new();
        collect_candidates(view, view.plan(), &PathId::new(), &mut candidates);
        for (path, spec) in candidates {
            occurrences
                .entry(spec.structural.clone())
                .or_default()
                .push((vi, path, spec));
        }
    }
    let designated: Vec<Vec<(usize, PathId, PrefixSpec)>> = occurrences
        .into_values()
        .filter(|occs| occs.len() >= 2)
        .collect();
    let mut out: Vec<SharedPrefixes> = views.iter().map(|_| SharedPrefixes::none()).collect();
    for (gi, occs) in designated.iter().enumerate() {
        let covered = designated
            .iter()
            .enumerate()
            .any(|(gj, outer)| gj != gi && covers(outer, occs));
        if covered {
            continue;
        }
        for (vi, path, spec) in occs {
            let id = gi as u32;
            out[*vi].map.insert(path.clone(), PrefixSpec { id, ..spec.clone() });
        }
    }
    out
}

/// Does every occurrence of `inner` lie strictly inside an occurrence
/// of `outer` in the same view?
fn covers(outer: &[(usize, PathId, PrefixSpec)], inner: &[(usize, PathId, PrefixSpec)]) -> bool {
    inner.iter().all(|(vi, p, _)| {
        outer
            .iter()
            .any(|(vj, q, _)| vj == vi && q.len() < p.len() && p[..q.len()] == q[..])
    })
}

fn collect_candidates(
    view: &IdIvm,
    node: &Plan,
    path: &PathId,
    out: &mut Vec<(PathId, PrefixSpec)>,
) {
    if !matches!(node, Plan::Scan { .. })
        && !has_cache_strictly_inside(view, path)
        && !contains_noninvertible_agg(node)
    {
        out.push((path.clone(), prefix_spec(view, node)));
    }
    for (i, c) in node.children().into_iter().enumerate() {
        let mut p = path.clone();
        p.push(i);
        collect_candidates(view, c, &p, out);
    }
}

/// Does the subtree contain a `GroupBy` with any non-invertible
/// aggregate (MIN/MAX)? Such subtrees refuse shared-prefix designation
/// — see [`detect_shared_prefixes`].
fn contains_noninvertible_agg(node: &Plan) -> bool {
    if let Plan::GroupBy { aggs, .. } = node {
        if aggs.iter().any(|a| !a.func.is_invertible()) {
            return true;
        }
    }
    node.children()
        .into_iter()
        .any(contains_noninvertible_agg)
}

/// Does `view` materialize a cache at a *proper descendant* of `path`?
/// (The root mapping `[] → view` is at depth 0 and never strictly
/// inside a candidate.)
fn has_cache_strictly_inside(view: &IdIvm, path: &PathId) -> bool {
    view.cache_map()
        .keys()
        .any(|cp| cp.len() > path.len() && cp[..path.len()] == path[..])
}

/// The structural fingerprint + metadata of one candidate subtree.
fn prefix_spec(view: &IdIvm, node: &Plan) -> PrefixSpec {
    let mut tables: Vec<String> = node
        .scans()
        .into_iter()
        .map(|(_, t)| t.to_string())
        .collect();
    tables.sort();
    tables.dedup();
    // Exact structural identity: the subtree's debug form is a faithful
    // rendering of operators, predicates, and column indices (`Plan`
    // has no `Hash`), and the per-table diff-schema debug pins the
    // update-schema split the populate step will use.
    let structure = structure_key(view.options().minimize, node);
    let mut structural = structure.clone();
    for t in &tables {
        if let Some(s) = view.schemas().tables.get(t) {
            structural.push_str(&format!(";{t}={s:?}"));
        }
    }
    let label = format!("{}[{}]", op_label(node), tables.join(","));
    PrefixSpec {
        id: 0,
        structural,
        structure,
        tables,
        label,
    }
}

/// Structure-only fingerprint of a subtree: debug form + `minimize`
/// knob, *without* the per-view i-diff schema splits that
/// [`PrefixSpec::structural`] appends. Two plans with equal structure
/// keys compute identical boundary *contents* from identical base
/// state — which is all materialized-intermediate promotion needs,
/// since each consumer regenerates its own diff schemas from the
/// backing table.
pub fn structure_key(minimize: bool, node: &Plan) -> String {
    format!("minimize={minimize};{node:?}")
}

/// One promotable subtree: an operator structure that occurs in at
/// least two *distinct* registered views. Promotion materializes the
/// subtree once as a hidden backing table maintained by its own i-diff
/// script and rewrites every consumer to scan the backing instead —
/// turning per-consumer prefix recomputation into a single O(Δ)
/// maintenance round (see `idivm-sched`'s `ViewCatalog::promote`).
#[derive(Debug, Clone, PartialEq)]
pub struct PromotionCandidate {
    /// Structure-only fingerprint ([`structure_key`]) — the identity
    /// promotion trackers and rewrites match on.
    pub structure: String,
    /// Human-readable label (`op[tables…]`), same shape as
    /// [`PrefixSpec::label`].
    pub label: String,
    /// Base tables the subtree scans, sorted and deduplicated.
    pub tables: Vec<String>,
    /// The subtree itself (taken from the first consumer in name
    /// order; all consumers' copies are structurally identical by
    /// construction of the fingerprint).
    pub subtree: Plan,
    /// Names of the distinct views containing the structure.
    pub consumers: BTreeSet<String>,
}

/// Detect promotable subtrees across named view plans. `views` is
/// `(name, current plan, minimize knob)` per view. A subtree is a
/// candidate when it
///
/// * contains at least two base-table scans (single-table subtrees are
///   cheap enough that materializing them just moves work around), and
/// * occurs in at least two distinct views (an intermediate with one
///   consumer saves nothing over that consumer's own caches).
///
/// Results are sorted by structure key — deterministic for any input
/// order, which is what makes downstream promotion decisions
/// byte-identical across runs and thread counts.
pub fn promotion_candidates(views: &[(&str, &Plan, bool)]) -> Vec<PromotionCandidate> {
    let mut by_structure: BTreeMap<String, PromotionCandidate> = BTreeMap::new();
    for (name, plan, minimize) in views {
        let mut nodes = Vec::new();
        collect_subtrees(plan, &mut nodes);
        for node in nodes {
            if node.scans().len() < 2 {
                continue;
            }
            let structure = structure_key(*minimize, node);
            let entry = by_structure.entry(structure.clone()).or_insert_with(|| {
                let mut tables: Vec<String> =
                    node.scans().into_iter().map(|(_, t)| t.to_string()).collect();
                tables.sort();
                tables.dedup();
                let label = format!("{}[{}]", op_label(node), tables.join(","));
                PromotionCandidate {
                    structure,
                    label,
                    tables,
                    subtree: node.clone(),
                    consumers: BTreeSet::new(),
                }
            });
            entry.consumers.insert((*name).to_string());
        }
    }
    by_structure
        .into_values()
        .filter(|c| c.consumers.len() >= 2)
        .collect()
}

fn collect_subtrees<'a>(node: &'a Plan, out: &mut Vec<&'a Plan>) {
    if !matches!(node, Plan::Scan { .. }) {
        out.push(node);
    }
    for c in node.children() {
        collect_subtrees(c, out);
    }
}

/// Rebuild `plan`, replacing every subtree whose [`structure_key`]
/// appears in `map` with the mapped replacement (a backing-table scan).
/// Substitution is **top-down**: the outermost matching boundary wins
/// and its interior is not revisited — nested promoted structures
/// inside an already-replaced subtree are the intermediate's own
/// business, not the consumer's.
pub fn substitute_structures(
    plan: &Plan,
    minimize: bool,
    map: &BTreeMap<String, Plan>,
) -> Plan {
    if !matches!(plan, Plan::Scan { .. }) {
        if let Some(replacement) = map.get(&structure_key(minimize, plan)) {
            return replacement.clone();
        }
    }
    rebuild(plan, |child| substitute_structures(child, minimize, map))
}

/// Rebuild `plan`, replacing every `Scan` of `table` with a clone of
/// `subtree` — the inverse of [`substitute_structures`], used at
/// demotion to restore a consumer's original plan before the backing
/// table is dropped.
pub fn substitute_scan(plan: &Plan, table: &str, subtree: &Plan) -> Plan {
    if let Plan::Scan { table: t, .. } = plan {
        if t == table {
            return subtree.clone();
        }
    }
    rebuild(plan, |child| substitute_scan(child, table, subtree))
}

/// Clone `plan` with each child passed through `f` (scans are returned
/// verbatim).
fn rebuild(plan: &Plan, mut f: impl FnMut(&Plan) -> Plan) -> Plan {
    match plan {
        Plan::Scan { .. } => plan.clone(),
        Plan::Select { input, pred } => Plan::Select {
            input: Box::new(f(input)),
            pred: pred.clone(),
        },
        Plan::Project { input, cols } => Plan::Project {
            input: Box::new(f(input)),
            cols: cols.clone(),
        },
        Plan::Join {
            kind,
            left,
            right,
            on,
            residual,
        } => Plan::Join {
            kind: *kind,
            left: Box::new(f(left)),
            right: Box::new(f(right)),
            on: on.clone(),
            residual: residual.clone(),
        },
        Plan::UnionAll { left, right } => Plan::UnionAll {
            left: Box::new(f(left)),
            right: Box::new(f(right)),
        },
        Plan::GroupBy { input, keys, aggs } => Plan::GroupBy {
            input: Box::new(f(input)),
            keys: keys.clone(),
            aggs: aggs.clone(),
        },
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn cache_reuse_counts_hits_and_savings() {
        let mut cache = SharedDiffCache::new();
        let k: RoundKey = (3, 0xfeed);
        assert!(cache.reuse(k).is_none());
        cache.publish(
            k,
            "join[m,b]",
            "minimize=false;…",
            &[],
            StatsSnapshot {
                tuple_accesses: 10,
                index_lookups: 5,
            },
        );
        assert!(cache.reuse(k).is_some());
        assert!(cache.reuse(k).is_some());
        assert!(cache.reuse((3, 0xbeef)).is_none(), "another net aliased");
        assert!(cache.reuse((4, 0xfeed)).is_none(), "another prefix aliased");
        assert_eq!(cache.total_hits(), 2);
        assert_eq!(cache.total_saved_accesses(), 30);
        let stats = cache.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].label, "join[m,b]");
        assert_eq!(stats[0].structure, "minimize=false;…");
        assert_eq!(stats[0].saved_accesses(), 30);
    }

    use idivm_types::{ColumnType, Schema};

    fn scan(table: &str) -> Plan {
        Plan::Scan {
            table: table.into(),
            alias: table.into(),
            schema: Schema::from_pairs(
                &[("id", ColumnType::Int), ("v", ColumnType::Int)],
                &["id"],
            )
            .unwrap(),
        }
    }

    fn join(left: Plan, right: Plan) -> Plan {
        Plan::Join {
            kind: idivm_algebra::JoinKind::Inner,
            left: Box::new(left),
            right: Box::new(right),
            on: vec![(0, 0)],
            residual: None,
        }
    }

    #[test]
    fn promotion_candidates_filtering() {
        let shared = join(scan("m"), scan("b"));
        let a = Plan::Select {
            input: Box::new(shared.clone()),
            pred: idivm_algebra::Expr::col(0).eq(idivm_algebra::Expr::lit(1)),
        };
        let b = Plan::Project {
            input: Box::new(shared.clone()),
            cols: vec![("id".into(), idivm_algebra::Expr::col(0))],
        };
        // `c` shares nothing: single-scan subtrees are never candidates.
        let c = Plan::Select {
            input: Box::new(scan("users")),
            pred: idivm_algebra::Expr::col(1).eq(idivm_algebra::Expr::lit(2)),
        };
        let out = promotion_candidates(&[
            ("va", &a, false),
            ("vb", &b, false),
            ("vc", &c, false),
        ]);
        assert_eq!(out.len(), 1, "only the shared two-scan join qualifies");
        assert_eq!(out[0].subtree, shared);
        assert_eq!(out[0].tables, vec!["b".to_string(), "m".to_string()]);
        assert_eq!(
            out[0].consumers.iter().collect::<Vec<_>>(),
            vec!["va", "vb"]
        );
        assert_eq!(out[0].structure, structure_key(false, &shared));

        // Two occurrences inside the *same* view do not qualify.
        let twice = join(shared.clone(), shared.clone());
        let out = promotion_candidates(&[("va", &twice, false), ("vc", &c, false)]);
        assert!(
            out.iter().all(|cand| cand.subtree != shared),
            "single-view repetition must not promote"
        );
    }

    #[test]
    fn substitution_round_trips_through_backing_scan() {
        let shared = join(scan("m"), scan("b"));
        let view = Plan::GroupBy {
            input: Box::new(Plan::Select {
                input: Box::new(shared.clone()),
                pred: idivm_algebra::Expr::col(0).eq(idivm_algebra::Expr::lit(1)),
            }),
            keys: vec![0],
            aggs: vec![],
        };
        let backing = scan("__ivm_backing");
        let mut map = BTreeMap::new();
        map.insert(structure_key(false, &shared), backing.clone());
        let rewritten = substitute_structures(&view, false, &map);
        assert_ne!(rewritten, view);
        let mut found = Vec::new();
        collect_subtrees(&rewritten, &mut found);
        assert!(
            found.iter().all(|n| **n != shared),
            "shared subtree must be gone after substitution"
        );
        assert!(rewritten
            .scans()
            .iter()
            .any(|(_, t)| *t == "__ivm_backing"));
        // Demotion restores the original plan exactly.
        let restored = substitute_scan(&rewritten, "__ivm_backing", &shared);
        assert_eq!(restored, view);
    }

    #[test]
    fn substitution_is_top_down_outermost_wins() {
        let inner = join(scan("m"), scan("b"));
        let outer = join(inner.clone(), scan("users"));
        let mut map = BTreeMap::new();
        map.insert(structure_key(false, &inner), scan("__bk_inner"));
        map.insert(structure_key(false, &outer), scan("__bk_outer"));
        let rewritten = substitute_structures(&outer, false, &map);
        assert_eq!(rewritten, scan("__bk_outer"), "outer boundary must win");
    }

    #[test]
    fn noninvertible_aggregates_refuse_designation() {
        use idivm_algebra::{AggFunc, AggSpec, Expr};
        let group = |func: AggFunc| Plan::GroupBy {
            input: Box::new(join(scan("m"), scan("b"))),
            keys: vec![0],
            aggs: vec![AggSpec {
                func,
                arg: Expr::col(1),
                name: "a".into(),
            }],
        };
        assert!(contains_noninvertible_agg(&group(AggFunc::Min)));
        assert!(contains_noninvertible_agg(&group(AggFunc::Max)));
        assert!(!contains_noninvertible_agg(&group(AggFunc::Sum)));
        // The guard sees through wrapping operators.
        let wrapped = Plan::Select {
            input: Box::new(group(AggFunc::Max)),
            pred: idivm_algebra::Expr::col(0).eq(idivm_algebra::Expr::lit(1)),
        };
        assert!(contains_noninvertible_agg(&wrapped));
        assert!(!contains_noninvertible_agg(&join(scan("m"), scan("b"))));
    }

    #[test]
    fn covered_groups_are_suppressed() {
        // Group `inner` occurs only strictly inside `outer` occurrences
        // (same views, deeper paths) → covered.
        let spec = |s: &str| PrefixSpec {
            id: 0,
            structural: s.into(),
            structure: s.into(),
            tables: vec![],
            label: s.into(),
        };
        let outer = vec![
            (0usize, vec![0usize], spec("o")),
            (1, vec![], spec("o")),
        ];
        let inner = vec![
            (0usize, vec![0usize, 1], spec("i")),
            (1, vec![0], spec("i")),
        ];
        assert!(covers(&outer, &inner));
        // One occurrence outside any outer occurrence → not covered.
        let escaped = vec![
            (0usize, vec![0usize, 1], spec("i")),
            (2, vec![0], spec("i")),
        ];
        assert!(!covers(&outer, &escaped));
        // Same path (not *strictly* inside) → not covered.
        let same = vec![(0usize, vec![0usize], spec("i"))];
        assert!(!covers(&outer, &same));
    }
}
