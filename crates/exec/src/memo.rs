//! The subplan memo: the rows of join subtrees that one materialization
//! evaluated, read back by a later one whose plan holds an equal
//! subtree over the same table versions.
//!
//! Several views registered over one database often share a subtree —
//! the same selection over the same join. [`materialize_nodes`] given a
//! memo *claims* such a subtree's rows from it instead of evaluating the
//! subtree again, and *keeps* the rows of a subtree that a plan
//! materialized through the memo earlier also holds, for the next view.
//!
//! An entry is exact, not a guess: it is keyed by the subtree (plan
//! equality) and by the [`Table::id`](idivm_reldb::Table::id) and
//! [`Table::version`](idivm_reldb::Table::version) of every table the
//! subtree scans, and while those hold, the evaluator would produce the
//! same rows in the same order. A claim books the accesses the
//! evaluation would have booked — one full-scan charge per `Scan` under
//! the subtree — so access counts do not depend on the memo.
//!
//! A materialization keeps nothing that no earlier plan shares, and
//! keeps no input of a `Select` or `Project` it keeps: a plan that
//! shares nothing copies and retains no more than without a memo.
//!
//! [`materialize_nodes`]: crate::materialize_nodes

use idivm_algebra::Plan;
use idivm_reldb::Database;
use idivm_types::{Result, Row};

/// Rows of evaluated join subtrees, and the plans materialized through
/// the memo since it was last emptied. Whoever owns the memo empties it
/// once its tables start changing: an entry whose stamps went stale is
/// never claimed, but its rows stay held until [`SubplanMemo::clear`].
#[derive(Default)]
pub struct SubplanMemo {
    entries: Vec<Entry>,
    /// The plans materialized through the memo: a subtree one of them
    /// holds is worth keeping.
    seen: Vec<Plan>,
    /// Subtrees read from the memo since it was made.
    claims: usize,
}

/// `(id, version)` of the table of each `Scan` in a subtree, in
/// preorder.
type Stamps = Vec<(u64, u64)>;

/// One kept subtree.
pub(crate) struct Entry {
    plan: Plan,
    stamps: Stamps,
    rows: Vec<Row>,
}

/// What a materialization does with the memo at one node.
pub(crate) enum Use<'m> {
    /// Read this entry's rows instead of evaluating the node.
    Claim(&'m Entry),
    /// Evaluate the node and keep its rows, stamped so.
    Keep(Stamps),
}

/// The rows a materialization kept at `path`, stamped as
/// [`SubplanMemo::uses`] said.
pub(crate) struct Kept {
    pub(crate) path: Vec<usize>,
    pub(crate) stamps: Stamps,
    pub(crate) rows: Vec<Row>,
}

impl SubplanMemo {
    /// Forget every entry and every plan seen.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.seen.clear();
    }

    /// `(entries, claims)`: the subtrees kept now, and the subtrees
    /// read from the memo since it was made. For tests.
    #[doc(hidden)]
    pub fn counts(&self) -> (usize, usize) {
        (self.entries.len(), self.claims)
    }

    /// The memo's use of each node of `plan` (the ID-extended plan about
    /// to be materialized against `db`, whose nodes at the paths
    /// `listed` become tables), by path: the outermost join subtrees an
    /// entry holds rows of are claimed, unless a listed node lies
    /// strictly below one — its rows come from evaluating it; below a
    /// claimed node nothing is looked at. Of the join subtrees no entry
    /// holds, those some plan seen earlier holds are kept — except the
    /// input of a kept `Select` or `Project`.
    ///
    /// # Errors
    /// A scan of an unknown table.
    pub(crate) fn uses(
        &self,
        db: &Database,
        plan: &Plan,
        listed: &[&[usize]],
    ) -> Result<Vec<(Vec<usize>, Use<'_>)>> {
        let mut out = Vec::new();
        if !self.seen.is_empty() {
            self.walk(db, plan, listed, &mut Vec::new(), false, &mut out)?;
        }
        Ok(out)
    }

    fn walk<'m>(
        &'m self,
        db: &Database,
        node: &Plan,
        listed: &[&[usize]],
        path: &mut Vec<usize>,
        under_kept_filter: bool,
        out: &mut Vec<(Vec<usize>, Use<'m>)>,
    ) -> Result<()> {
        if !has_join(node) {
            return Ok(());
        }
        let stamps = stamps(db, node)?;
        let held = self
            .entries
            .iter()
            .find(|e| e.stamps == stamps && e.plan == *node);
        if let Some(entry) = held {
            let lists_below = listed
                .iter()
                .any(|l| l.len() > path.len() && l.starts_with(path));
            if !lists_below {
                out.push((path.clone(), Use::Claim(entry)));
                return Ok(());
            }
        }
        let keep =
            held.is_none() && !under_kept_filter && self.seen.iter().any(|p| holds(p, node));
        let filter = keep && matches!(node, Plan::Select { .. } | Plan::Project { .. });
        if keep {
            out.push((path.clone(), Use::Keep(stamps)));
        }
        for (i, child) in node.children().into_iter().enumerate() {
            path.push(i);
            self.walk(db, child, listed, path, filter, out)?;
            path.pop();
        }
        Ok(())
    }

    /// Record a materialization of `plan`, the rows it kept and the
    /// number of subtrees it claimed.
    pub(crate) fn record(&mut self, plan: &Plan, kept: Vec<Kept>, claims: usize) {
        self.claims += claims;
        for Kept { path, stamps, rows } in kept {
            if let Some(node) = plan.node(&path) {
                self.entries.push(Entry {
                    plan: node.clone(),
                    stamps,
                    rows,
                });
            }
        }
        self.seen.push(plan.clone());
    }
}

impl Entry {
    /// The entry's rows, booking against `db` the full scans evaluating
    /// its subtree would have made.
    ///
    /// # Errors
    /// A scan of an unknown table.
    pub(crate) fn claim(&self, db: &Database) -> Result<Vec<Row>> {
        for (_, table) in self.plan.scans() {
            db.stats().tuples(db.table(table)?.len() as u64);
        }
        Ok(self.rows.clone())
    }
}

/// `(id, version)` of the table of each `Scan` under `node`, in preorder.
fn stamps(db: &Database, node: &Plan) -> Result<Stamps> {
    node.scans()
        .into_iter()
        .map(|(_, table)| db.table(table).map(|t| (t.id(), t.version())))
        .collect()
}

/// Whether `node` is or holds a join of any kind.
fn has_join(node: &Plan) -> bool {
    matches!(node, Plan::Join { .. }) || node.children().into_iter().any(has_join)
}

/// Whether `plan` is or holds a subtree equal to `node`.
fn holds(plan: &Plan, node: &Plan) -> bool {
    plan == node || plan.children().into_iter().any(|c| holds(c, node))
}
