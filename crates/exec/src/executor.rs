//! The plan evaluator: counted scans, hash joins, hash aggregation.
//!
//! [`evaluate`] computes the rows of a plan node against the current
//! state of the database, bottom up. A [`PathHook`] sees every node on
//! the way, by its path from the root: it may *claim* a node, and the
//! evaluator reads the rows the hook hands it instead of evaluating
//! that subtree (a cache table, a pre-state overlay); and it may *want*
//! a node, and the evaluator hands that node's rows to the hook as well
//! (the caches a view registers with, filled in the view's own pass).
//!
//! One chained hash table serves all four join kinds: the right rows are
//! chained per join key in input order, and keys are hashed and
//! compared in place, so no row builds a key and no key owns a vector.
//! NULL keys never match. Output is left-major, each left row's matches
//! in right input order. A `Project` of plain columns directly over an
//! inner join builds its rows straight from the matching pairs, and a
//! `Select` directly over an inner join whose predicate reads one side
//! tests that side's row of each pair and joins only the pairs that
//! pass — unless the hook claims or wants the join. Grouping probes the
//! same way and emits its groups in first-seen order.

use idivm_algebra::aggregate::Accumulator;
use idivm_algebra::{AggSpec, Expr, JoinKind, Plan};
use idivm_reldb::Database;
use idivm_types::{key_digest, Result, Row, Value};
use std::borrow::Cow;
use std::collections::hash_map::RandomState;

/// What a caller of [`evaluate`] says about each plan node, addressed
/// by its path (child indices from the root, `evaluate`'s `at` first).
/// The defaults claim and want nothing; `()` is that hook.
pub trait PathHook {
    /// Rows to read for the node at `path` instead of evaluating it, or
    /// `None`. Nothing under a claimed node is evaluated.
    ///
    /// # Errors
    /// Whatever reading the claimed rows fails with.
    fn claim(&mut self, _path: &[usize], _node: &Plan) -> Result<Option<Vec<Row>>> {
        Ok(None)
    }

    /// Should the evaluated rows of the node at `path` go to
    /// [`PathHook::keep`]?
    fn wants(&self, _path: &[usize]) -> bool {
        false
    }

    /// The rows of a wanted node.
    fn keep(&mut self, _path: &[usize], _rows: &[Row]) {}
}

impl PathHook for () {}

/// Evaluate `plan` against `db`, returning the full result.
///
/// Base-table scans are counted in the database's
/// [`AccessStats`](idivm_reldb::AccessStats); in-memory processing is
/// not (matching the paper's data-access cost model).
///
/// # Errors
/// Unknown tables or malformed plans.
pub fn execute(db: &Database, plan: &Plan) -> Result<Vec<Row>> {
    evaluate(db, plan, &[], &mut ())
}

/// Evaluate `plan`, the node at path `at` of a larger plan, under
/// `hook`.
///
/// # Errors
/// Unknown tables, malformed plans, or a failed claim.
pub fn evaluate(
    db: &Database,
    plan: &Plan,
    at: &[usize],
    hook: &mut impl PathHook,
) -> Result<Vec<Row>> {
    Eval {
        db,
        hook,
        path: at.to_vec(),
    }
    .node(plan, Ask::All)
}

struct Eval<'a, H> {
    db: &'a Database,
    hook: &'a mut H,
    /// Path of the node being evaluated.
    path: Vec<usize>,
}

/// What the operator above asks of an inner join's rows. Done pair by
/// pair when the join is evaluated; done on the finished rows when the
/// hook claims or wants it.
#[derive(Clone, Copy)]
enum Ask<'p> {
    /// Every joined row.
    All,
    /// The joined rows' columns `picks` (a plain `Project` above).
    Picks(&'p [usize]),
    /// The joined rows that pass `pred` (a `Select` above, no residual
    /// on the join): `local` is `pred` over the right row alone if
    /// `right`, else over the left one.
    Where {
        pred: &'p Expr,
        local: &'p Expr,
        right: bool,
    },
}

impl<H: PathHook> Eval<'_, H> {
    /// The rows of `plan` at the current path — claimed, or evaluated
    /// (and kept, if wanted) — narrowed as `ask` says.
    fn node(&mut self, plan: &Plan, ask: Ask<'_>) -> Result<Vec<Row>> {
        let rows = if let Some(rows) = self.hook.claim(&self.path, plan)? {
            rows
        } else if self.hook.wants(&self.path) {
            let rows = self.compute(plan, Ask::All)?;
            self.hook.keep(&self.path, &rows);
            rows
        } else {
            return self.compute(plan, ask);
        };
        match ask {
            Ask::All => Ok(rows),
            Ask::Picks(cols) => Ok(rows.iter().map(|r| r.project(cols)).collect()),
            Ask::Where { pred, .. } => filter(rows, pred),
        }
    }

    fn child(&mut self, idx: usize, plan: &Plan, ask: Ask<'_>) -> Result<Vec<Row>> {
        self.path.push(idx);
        let rows = self.node(plan, ask);
        self.path.pop();
        rows
    }

    /// Evaluate `plan`; an `ask` other than [`Ask::All`] is only ever
    /// passed for an inner join.
    fn compute(&mut self, plan: &Plan, ask: Ask<'_>) -> Result<Vec<Row>> {
        match plan {
            Plan::Scan { table, .. } => Ok(self.db.table(table)?.scan()),
            Plan::Select { input, pred } => match one_side(input, pred) {
                Some((local, right)) => {
                    let ask = Ask::Where {
                        pred,
                        local: &local,
                        right,
                    };
                    self.child(0, input, ask)
                }
                None => filter(self.child(0, input, Ask::All)?, pred),
            },
            Plan::Project { input, cols } => {
                let picks = match **input {
                    Plan::Join {
                        kind: JoinKind::Inner,
                        ..
                    } => plain_cols(cols),
                    _ => None,
                };
                if let Some(picks) = picks {
                    return self.child(0, input, Ask::Picks(&picks));
                }
                let rows = self.child(0, input, Ask::All)?;
                rows.iter().map(|r| project_row(r, cols)).collect()
            }
            Plan::Join {
                kind,
                left,
                right,
                on,
                residual,
            } => self.join(*kind, ask, left, right, on, residual.as_ref()),
            Plan::UnionAll { left, right } => {
                let mut out = Vec::new();
                for (branch, side) in [left, right].into_iter().enumerate() {
                    let tag = Value::Int(branch as i64);
                    for r in self.child(branch, side, Ask::All)? {
                        out.push(r.extended(tag.clone()));
                    }
                }
                Ok(out)
            }
            Plan::GroupBy { input, keys, aggs } => {
                let rows = self.child(0, input, Ask::All)?;
                hash_aggregate(&rows, keys, aggs)
            }
        }
    }

    /// `ask` narrows an inner join's rows; every other kind is asked for
    /// all of them.
    fn join(
        &mut self,
        kind: JoinKind,
        ask: Ask<'_>,
        left: &Plan,
        right: &Plan,
        on: &[(usize, usize)],
        residual: Option<&Expr>,
    ) -> Result<Vec<Row>> {
        let lrows = self.child(0, left, Ask::All)?;
        let table = JoinTable::new(self.child(1, right, Ask::All)?, on);
        let mut out = Vec::new();
        match (kind, ask) {
            (JoinKind::Inner, Ask::Where { local, right, .. }) => {
                for l in &lrows {
                    for r in table.matches(l) {
                        if local.eval_pred(if right { r } else { l })? {
                            out.push(l.concat(r));
                        }
                    }
                }
            }
            (JoinKind::Inner, ask) => {
                let picks = match ask {
                    Ask::Picks(cols) => Some(cols),
                    _ => None,
                };
                for l in &lrows {
                    for r in table.matches(l) {
                        let Some(pred) = residual else {
                            out.push(pair(l, r, picks));
                            continue;
                        };
                        let joined = l.concat(r);
                        if pred.eval_pred(&joined)? {
                            out.push(match picks {
                                Some(cols) => joined.project(cols),
                                None => joined,
                            });
                        }
                    }
                }
            }
            (JoinKind::LeftOuter, _) => {
                let pad: Row = std::iter::repeat_n(Value::Null, right.arity()).collect();
                for l in &lrows {
                    let matched = out.len();
                    for r in table.matches(l) {
                        let joined = l.concat(r);
                        if idivm_algebra::opt_pred(residual, &joined)? {
                            out.push(joined);
                        }
                    }
                    if out.len() == matched {
                        out.push(l.concat(&pad));
                    }
                }
            }
            (JoinKind::Semi | JoinKind::Anti, _) => {
                let keep_matched = kind == JoinKind::Semi;
                // Without a residual, the first key match decides.
                let passes =
                    |l: &Row, r: &Row| residual.map_or(Ok(true), |p| p.eval_pred(&l.concat(r)));
                for l in lrows {
                    let mut hit = false;
                    for r in table.matches(&l) {
                        if passes(&l, r)? {
                            hit = true;
                            break;
                        }
                    }
                    if hit == keep_matched {
                        out.push(l);
                    }
                }
            }
        }
        Ok(out)
    }
}

/// The rows that pass `pred`, in order.
fn filter(rows: Vec<Row>, pred: &Expr) -> Result<Vec<Row>> {
    let mut out = Vec::with_capacity(rows.len());
    for r in rows {
        if pred.eval_pred(&r)? {
            out.push(r);
        }
    }
    Ok(out)
}

/// A selection's `pred` over one side of the inner join `input` (no
/// residual) it reads alone — re-expressed over that side's row — and
/// whether that is the right side; `None` when it reads both sides or
/// `input` is no such join. A predicate that reads no column is taken
/// as the left side's.
fn one_side<'p>(input: &Plan, pred: &'p Expr) -> Option<(Cow<'p, Expr>, bool)> {
    let Plan::Join {
        kind: JoinKind::Inner,
        left,
        residual: None,
        ..
    } = input
    else {
        return None;
    };
    let la = left.arity();
    let cols = pred.columns();
    if cols.iter().all(|&c| c < la) {
        Some((Cow::Borrowed(pred), false))
    } else if cols.iter().all(|&c| c >= la) {
        Some((Cow::Owned(pred.remap(&|c| c - la)), true))
    } else {
        None
    }
}

/// The columns of a projection that only copies columns.
fn plain_cols(cols: &[(String, Expr)]) -> Option<Vec<usize>> {
    cols.iter()
        .map(|(_, e)| match e {
            Expr::Col(i) => Some(*i),
            _ => None,
        })
        .collect()
}

/// The joined row of `l` and `r`, or its `picks` columns built straight
/// from the pair.
fn pair(l: &Row, r: &Row, picks: Option<&[usize]>) -> Row {
    let Some(cols) = picks else {
        return l.concat(r);
    };
    let la = l.arity();
    cols.iter()
        .map(|&c| {
            if c < la {
                l[c].clone()
            } else {
                r[c - la].clone()
            }
        })
        .collect()
}

/// Apply a generalized projection to one row.
///
/// # Errors
/// Expression evaluation failures.
pub fn project_row(row: &Row, cols: &[(String, Expr)]) -> Result<Row> {
    Row::try_collect(cols.iter().map(|(_, e)| e.eval(row)))
}

/// Hash aggregation; groups come out in the order their first row came
/// in.
///
/// # Errors
/// Aggregate-argument evaluation failures.
pub fn hash_aggregate(rows: &[Row], keys: &[usize], aggs: &[AggSpec]) -> Result<Vec<Row>> {
    let mut chains = Chains::with_capacity(rows.len());
    // Each group's first row and accumulators, entry `g` of `chains`.
    let mut groups: Vec<(&Row, Vec<Accumulator>)> = Vec::new();
    for r in rows {
        let hash = chains.hash(r, keys);
        let found = chains
            .find(hash)
            .find(|&g| keys.iter().all(|&k| groups[g].0[k] == r[k]));
        let g = found.unwrap_or_else(|| {
            chains.push(hash);
            groups.push((r, aggs.iter().map(|a| Accumulator::new(a.func)).collect()));
            groups.len() - 1
        });
        for (acc, spec) in groups[g].1.iter_mut().zip(aggs) {
            acc.update(&spec.arg.eval(r)?);
        }
    }
    Ok(groups
        .iter()
        .map(|(first, accs)| {
            keys.iter()
                .map(|&k| first[k].clone())
                .chain(accs.iter().map(Accumulator::finish))
                .collect()
        })
        .collect())
}

/// Sort rows for deterministic comparisons (tests, diffing). Unstable:
/// the rows of a keyed table are distinct, and rows of a bag that tie
/// compare equal in whichever order they come out.
pub fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_unstable();
    rows
}

/// End of a chain.
const END: u32 = u32::MAX;

/// A chained hash table of entry numbers `0, 1, …` in push order. Each
/// entry is appended to its hash's bucket; a lookup walks the bucket
/// and the caller compares keys in place. Hashing is SipHash: keys come
/// off the wire.
struct Chains {
    state: RandomState,
    mask: u64,
    heads: Vec<u32>,
    tails: Vec<u32>,
    next: Vec<u32>,
    hashes: Vec<u64>,
}

impl Chains {
    /// Room for `n` entries at a load factor of at most ½.
    fn with_capacity(n: usize) -> Self {
        let buckets = (2 * n).next_power_of_two();
        Chains {
            state: RandomState::new(),
            mask: buckets as u64 - 1,
            heads: vec![END; buckets],
            tails: vec![END; buckets],
            next: Vec::with_capacity(n),
            hashes: Vec::with_capacity(n),
        }
    }

    /// The hash of `row`'s `cols`, in place.
    fn hash(&self, row: &Row, cols: &[usize]) -> u64 {
        key_digest(&self.state, cols.iter().map(|&c| &row[c]))
    }

    /// Append the next entry under `hash`.
    fn push(&mut self, hash: u64) {
        let e = self.next.len() as u32;
        let b = (hash & self.mask) as usize;
        match self.tails[b] {
            END => self.heads[b] = e,
            t => self.next[t as usize] = e,
        }
        self.tails[b] = e;
        self.next.push(END);
        self.hashes.push(hash);
    }

    /// The entries pushed under `hash`, in push order.
    fn find(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let head = self.heads[(hash & self.mask) as usize];
        let live = |e: u32| (e != END).then_some(e as usize);
        std::iter::successors(live(head), move |&e| live(self.next[e]))
            .filter(move |&e| self.hashes[e] == hash)
    }
}

/// A join's right input, chained by its join key.
struct JoinTable {
    rows: Vec<Row>,
    lcols: Vec<usize>,
    rcols: Vec<usize>,
    chains: Chains,
}

impl JoinTable {
    fn new(rows: Vec<Row>, on: &[(usize, usize)]) -> Self {
        let (lcols, rcols): (Vec<usize>, Vec<usize>) = on.iter().copied().unzip();
        let mut chains = Chains::with_capacity(rows.len());
        for r in &rows {
            // A NULL key is chained too: it equals no probe, since a
            // probe with a NULL key never looks.
            chains.push(chains.hash(r, &rcols));
        }
        JoinTable {
            rows,
            lcols,
            rcols,
            chains,
        }
    }

    /// The right rows whose key equals `l`'s, in input order; none when
    /// `l`'s key has a NULL.
    fn matches<'t>(&'t self, l: &'t Row) -> impl Iterator<Item = &'t Row> + 't {
        let null = self.lcols.iter().any(|&c| l[c].is_null());
        self.chains
            .find(self.chains.hash(l, &self.lcols))
            .take_while(move |_| !null)
            .map(|e| &self.rows[e])
            .filter(move |r| {
                self.lcols
                    .iter()
                    .zip(&self.rcols)
                    .all(|(&lc, &rc)| l[lc] == r[rc])
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idivm_algebra::{AggFunc, PlanBuilder};
    use idivm_reldb::Database;
    use idivm_types::{row, ColumnType, Schema};

    fn setup() -> Database {
        let mut db = Database::new();
        db.set_logging(false);
        db.create_table(
            "parts",
            Schema::from_pairs(
                &[("pid", ColumnType::Str), ("price", ColumnType::Int)],
                &["pid"],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            "devices",
            Schema::from_pairs(
                &[("did", ColumnType::Str), ("category", ColumnType::Str)],
                &["did"],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            "devices_parts",
            Schema::from_pairs(
                &[("did", ColumnType::Str), ("pid", ColumnType::Str)],
                &["did", "pid"],
            )
            .unwrap(),
        )
        .unwrap();
        // Figure 2's initial instance.
        db.insert("parts", row!["P1", 10]).unwrap();
        db.insert("parts", row!["P2", 20]).unwrap();
        db.insert("devices", row!["D1", "phone"]).unwrap();
        db.insert("devices", row!["D2", "phone"]).unwrap();
        db.insert("devices", row!["D3", "tablet"]).unwrap();
        db.insert("devices_parts", row!["D1", "P1"]).unwrap();
        db.insert("devices_parts", row!["D2", "P1"]).unwrap();
        db.insert("devices_parts", row!["D1", "P2"]).unwrap();
        db
    }

    fn running_example_plan(db: &Database) -> idivm_algebra::Plan {
        let cat = crate::DbCatalog(db);
        PlanBuilder::scan(&cat, "parts")
            .unwrap()
            .join(
                PlanBuilder::scan(&cat, "devices_parts").unwrap(),
                &[("parts.pid", "devices_parts.pid")],
            )
            .unwrap()
            .join(
                PlanBuilder::scan(&cat, "devices").unwrap(),
                &[("devices_parts.did", "devices.did")],
            )
            .unwrap()
            .select_eq("devices.category", "phone")
            .unwrap()
            .project_names(&["devices_parts.did", "parts.pid", "parts.price"])
            .unwrap()
            .build()
            .unwrap()
    }

    /// Figure 2: the initial view instance V(DB).
    #[test]
    fn running_example_view_matches_paper() {
        let db = setup();
        let plan = running_example_plan(&db);
        let rows = sorted(execute(&db, &plan).unwrap());
        assert_eq!(
            rows,
            vec![
                row!["D1", "P1", 10],
                row!["D1", "P2", 20],
                row!["D2", "P1", 10],
            ]
        );
    }

    /// Figure 5: the aggregate view V′ (total part cost per device).
    #[test]
    fn aggregate_view_matches_paper() {
        let db = setup();
        let cat = crate::DbCatalog(&db);
        let plan = PlanBuilder::scan(&cat, "parts")
            .unwrap()
            .join(
                PlanBuilder::scan(&cat, "devices_parts").unwrap(),
                &[("parts.pid", "devices_parts.pid")],
            )
            .unwrap()
            .join(
                PlanBuilder::scan(&cat, "devices").unwrap(),
                &[("devices_parts.did", "devices.did")],
            )
            .unwrap()
            .select_eq("devices.category", "phone")
            .unwrap()
            .group_by(
                &["devices_parts.did"],
                &[(AggFunc::Sum, "parts.price", "cost")],
            )
            .unwrap()
            .build()
            .unwrap();
        let rows = sorted(execute(&db, &plan).unwrap());
        assert_eq!(rows, vec![row!["D1", 30], row!["D2", 10]]);
    }

    #[test]
    fn semijoin_and_antijoin() {
        let db = setup();
        let cat = crate::DbCatalog(&db);
        // Parts used in some device.
        let used = PlanBuilder::scan(&cat, "parts")
            .unwrap()
            .semi_join(
                PlanBuilder::scan(&cat, "devices_parts").unwrap(),
                &[("parts.pid", "devices_parts.pid")],
            )
            .unwrap()
            .build()
            .unwrap();
        let rows = sorted(execute(&db, &used).unwrap());
        assert_eq!(rows.len(), 2);

        // Parts used in no device: none in this instance.
        let unused = PlanBuilder::scan(&cat, "parts")
            .unwrap()
            .anti_join(
                PlanBuilder::scan(&cat, "devices_parts").unwrap(),
                &[("parts.pid", "devices_parts.pid")],
            )
            .unwrap()
            .build()
            .unwrap();
        assert!(execute(&db, &unused).unwrap().is_empty());
    }

    #[test]
    fn union_all_tags_branches() {
        let db = setup();
        let cat = crate::DbCatalog(&db);
        let u = PlanBuilder::scan(&cat, "parts")
            .unwrap()
            .union_all(PlanBuilder::scan(&cat, "parts").unwrap())
            .build()
            .unwrap();
        let rows = execute(&db, &u).unwrap();
        assert_eq!(rows.len(), 4);
        let left = rows.iter().filter(|r| r[2] == Value::Int(0)).count();
        assert_eq!(left, 2);
    }

    #[test]
    fn null_join_keys_never_match() {
        let mut db = Database::new();
        db.set_logging(false);
        db.create_table(
            "a",
            Schema::from_pairs(&[("id", ColumnType::Int), ("x", ColumnType::Int)], &["id"])
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            "b",
            Schema::from_pairs(&[("id", ColumnType::Int), ("x", ColumnType::Int)], &["id"])
                .unwrap(),
        )
        .unwrap();
        db.insert("a", Row::new(vec![Value::Int(1), Value::Null]))
            .unwrap();
        db.insert("b", Row::new(vec![Value::Int(2), Value::Null]))
            .unwrap();
        let cat = crate::DbCatalog(&db);
        let j = PlanBuilder::scan(&cat, "a")
            .unwrap()
            .join(PlanBuilder::scan(&cat, "b").unwrap(), &[("a.x", "b.x")])
            .unwrap()
            .build()
            .unwrap();
        assert!(execute(&db, &j).unwrap().is_empty());
    }

    #[test]
    fn scan_cost_is_counted() {
        let db = setup();
        let plan = running_example_plan(&db);
        db.stats().reset();
        execute(&db, &plan).unwrap();
        let snap = db.stats().snapshot();
        // 2 parts + 3 devices + 3 device_parts = 8 tuple accesses.
        assert_eq!(snap.tuple_accesses, 8);
        assert_eq!(snap.index_lookups, 0);
    }

    #[test]
    fn theta_join_via_residual() {
        let db = setup();
        let cat = crate::DbCatalog(&db);
        let left = PlanBuilder::scan_as(&cat, "parts", "p1").unwrap();
        let right = PlanBuilder::scan_as(&cat, "parts", "p2").unwrap();
        // p1.price < p2.price (positions 1 and 3 after concat)
        let j = left
            .join_kind(
                JoinKind::Inner,
                right,
                &[],
                Some(Expr::col(1).lt(Expr::col(3))),
            )
            .unwrap()
            .build()
            .unwrap();
        let rows = execute(&db, &j).unwrap();
        assert_eq!(rows.len(), 1); // (P1,10,P2,20)
        assert_eq!(rows[0], row!["P1", 10, "P2", 20]);
    }

    /// A hook that wants the node at one path, which evaluates it
    /// unfused.
    struct Want(Vec<usize>);

    impl PathHook for Want {
        fn wants(&self, path: &[usize]) -> bool {
            path == self.0
        }
    }

    /// A selection over an inner join that reads one side tests that
    /// side's row of each pair before joining it: the rows and their
    /// order are the unfused evaluation's, NULLs included, on random
    /// tables — and a predicate over both sides is left unfused.
    #[test]
    fn a_selection_over_one_side_of_a_join_matches_the_unfused_evaluation() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for round in 0..20 {
            let mut db = Database::new();
            db.set_logging(false);
            for t in ["a", "b"] {
                let schema = Schema::from_pairs(
                    &[
                        ("id", ColumnType::Int),
                        ("k", ColumnType::Int),
                        ("x", ColumnType::Int),
                    ],
                    &["id"],
                )
                .unwrap();
                db.create_table(t, schema).unwrap();
                for id in 0..40 {
                    let mut value = |range| match next(5) {
                        0 => Value::Null,
                        _ => Value::Int(next(range) as i64),
                    };
                    let row = Row::new(vec![Value::Int(id), value(6), value(10)]);
                    db.insert(t, row).unwrap();
                }
            }
            let cat = crate::DbCatalog(&db);
            let join = || {
                PlanBuilder::scan(&cat, "a")
                    .unwrap()
                    .join(PlanBuilder::scan(&cat, "b").unwrap(), &[("a.k", "b.k")])
                    .unwrap()
            };
            let bound = next(10) as i64;
            // a.x, b.x, both, and none of the columns.
            let preds = [
                Expr::col(2).lt(Expr::lit(bound)),
                Expr::col(5)
                    .ge(Expr::lit(bound))
                    .and(Expr::col(3).ne(Expr::lit(7))),
                Expr::col(2).lt(Expr::col(5)),
                Expr::lit(round % 2 == 0),
            ];
            for pred in preds {
                let plan = join().select(pred).build().unwrap();
                let fused = execute(&db, &plan).unwrap();
                let unfused = evaluate(&db, &plan, &[], &mut Want(vec![0])).unwrap();
                assert_eq!(fused, unfused, "round {round}");
            }
        }
    }
}
