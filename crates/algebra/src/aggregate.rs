//! Aggregation functions for the γ operator.
//!
//! The paper's `QSPJADU` supports grouping with the associative
//! functions SUM, COUNT and AVG (Tables 9, 11, 12 give specialized i-diff
//! propagation rules for them); MIN/MAX are also provided for the
//! *general* γ rule of Table 7, which recomputes affected groups and so
//! works for any function. [`Accumulator`] is the streaming evaluation
//! used by the executor. [`GroupDelta`] is the one delta fold every
//! engine maintains SUM/COUNT/MIN/MAX groups with: it folds a group's
//! member changes and resolves the stored aggregates, or answers that
//! only the group's members can tell (a *dirty* group, re-read by a
//! counted rescan).

use crate::expr::Expr;
use idivm_types::{Result, Row, Value};

/// Aggregate function kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Sum,
    Count,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    /// True for functions whose old value plus a delta determines the
    /// new value under *any* mix of inserts and deletes. SUM/COUNT/AVG
    /// are invertible; MIN/MAX are not — removing the current extremum
    /// cannot be repaired from the diff alone and forces a group rescan
    /// (the canonical non-invertible-aggregate hazard; see DBToaster and
    /// the IVM surveys in PAPERS.md).
    pub fn is_invertible(self) -> bool {
        matches!(self, AggFunc::Sum | AggFunc::Count | AggFunc::Avg)
    }

    /// Human-readable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Sum => "sum",
            AggFunc::Count => "count",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

/// One aggregate output of a γ operator: `func(arg) AS name`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    pub func: AggFunc,
    /// Argument expression over the operator's input schema. For COUNT
    /// this is evaluated only for NULL-ness (COUNT(*) uses a literal).
    pub arg: Expr,
    /// Output column name.
    pub name: String,
}

impl AggSpec {
    pub fn new(func: AggFunc, arg: Expr, name: impl Into<String>) -> Self {
        AggSpec {
            func,
            arg,
            name: name.into(),
        }
    }
}

/// Streaming accumulator for one aggregate over one group.
#[derive(Debug, Clone)]
pub enum Accumulator {
    Sum { total: Value, seen: bool },
    Count { n: i64 },
    Avg { total: Value, n: i64 },
    Min { best: Option<Value> },
    Max { best: Option<Value> },
}

impl Accumulator {
    /// Fresh accumulator for `func`.
    pub fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Sum => Accumulator::Sum {
                total: Value::Int(0),
                seen: false,
            },
            AggFunc::Count => Accumulator::Count { n: 0 },
            AggFunc::Avg => Accumulator::Avg {
                total: Value::Int(0),
                n: 0,
            },
            AggFunc::Min => Accumulator::Min { best: None },
            AggFunc::Max => Accumulator::Max { best: None },
        }
    }

    /// Fold one input value (NULLs are ignored, per SQL).
    pub fn update(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        match self {
            Accumulator::Sum { total, seen } => {
                *total = total.add(v);
                *seen = true;
            }
            Accumulator::Count { n } => *n += 1,
            Accumulator::Avg { total, n } => {
                *total = total.add(v);
                *n += 1;
            }
            Accumulator::Min { best } => {
                if best.as_ref().is_none_or(|b| v < b) {
                    *best = Some(v.clone());
                }
            }
            Accumulator::Max { best } => {
                if best.as_ref().is_none_or(|b| v > b) {
                    *best = Some(v.clone());
                }
            }
        }
    }

    /// Final aggregate value. SUM/MIN/MAX of an all-NULL (or empty)
    /// group is NULL; COUNT is 0; AVG of an empty group is NULL.
    pub fn finish(&self) -> Value {
        match self {
            Accumulator::Sum { total, seen } => {
                if *seen {
                    total.clone()
                } else {
                    Value::Null
                }
            }
            Accumulator::Count { n } => Value::Int(*n),
            Accumulator::Avg { total, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    total.div(&Value::Int(*n))
                }
            }
            Accumulator::Min { best } | Accumulator::Max { best } => {
                best.clone().unwrap_or(Value::Null)
            }
        }
    }
}

/// Outcome of folding one round's diffs into a MIN/MAX group.
#[derive(Debug, Clone, PartialEq)]
enum ExtremumOutcome {
    /// The new extremum is fully determined by the old value and the
    /// inserted values — no data access needed.
    Clean(Value),
    /// A removal touched (or tied) the current extremum: the new value
    /// can only be recovered by rescanning the group's members.
    Rescan,
}

/// Per-(group, MIN/MAX aggregate) delta summary for one maintenance
/// round: the best inserted and best removed argument values, in the
/// aggregate's own direction. This is the *rescan trigger* — a group
/// goes dirty exactly when the best removed value ties or beats the
/// stored extremum (removing a non-extremal member can never change
/// MIN/MAX; NULL arguments never participate, per SQL).
#[derive(Debug, Clone, Default)]
struct ExtremumDelta {
    /// Best non-NULL value inserted into the group this round.
    ins_best: Option<Value>,
    /// Best non-NULL value removed from the group this round.
    rem_best: Option<Value>,
}

/// Is `a` strictly better than `b` in `func`'s direction?
/// (MIN: smaller wins; MAX: larger wins.)
fn extremum_better(func: AggFunc, a: &Value, b: &Value) -> bool {
    match func {
        AggFunc::Min => a < b,
        AggFunc::Max => a > b,
        _ => false,
    }
}

impl ExtremumDelta {
    /// Fold an inserted argument value (update post-images included).
    fn insert(&mut self, func: AggFunc, v: &Value) {
        if v.is_null() {
            return;
        }
        if self
            .ins_best
            .as_ref()
            .is_none_or(|b| extremum_better(func, v, b))
        {
            self.ins_best = Some(v.clone());
        }
    }

    /// Fold a removed argument value (update pre-images included).
    fn remove(&mut self, func: AggFunc, v: &Value) {
        if v.is_null() {
            return;
        }
        if self
            .rem_best
            .as_ref()
            .is_none_or(|b| extremum_better(func, v, b))
        {
            self.rem_best = Some(v.clone());
        }
    }

    /// Decide the group's fate given its stored pre-round extremum
    /// `old`. Ties force a rescan: a duplicate of the extremum may
    /// remain in the group, so equality is not proof of change.
    fn resolve(&self, func: AggFunc, old: &Value) -> ExtremumOutcome {
        if let Some(r) = &self.rem_best {
            // A non-NULL value was removed while the stored extremum is
            // NULL: inconsistent state, recover by rescanning.
            if old.is_null() || !extremum_better(func, old, r) {
                return ExtremumOutcome::Rescan;
            }
        }
        // Clean: merge the old extremum with the best insertion.
        let v = match &self.ins_best {
            Some(i) if old.is_null() || extremum_better(func, i, old) => i.clone(),
            _ => old.clone(),
        };
        ExtremumOutcome::Clean(v)
    }

    /// Extremum of a freshly created group (insertions only).
    fn created(&self) -> Value {
        self.ins_best.clone().unwrap_or(Value::Null)
    }
}

/// One net change of a group member, as the group-by's input row(s).
#[derive(Debug, Clone, Copy)]
pub enum Event<'a> {
    Ins(&'a Row),
    Del(&'a Row),
    /// Pre- and post-image of a member that stays in its group.
    Upd(&'a Row, &'a Row),
}

impl Event<'_> {
    /// The row whose group columns say which group the event folds into.
    pub fn row(&self) -> &Row {
        match self {
            Event::Ins(row) | Event::Del(row) | Event::Upd(_, row) => row,
        }
    }
}

/// One aggregate's share of a [`GroupDelta`].
#[derive(Debug, Clone)]
enum Slot {
    /// COUNT: the net change of the count.
    Count(Value),
    /// SUM: the net change of the sum (NULL arguments add nothing), and
    /// whether a non-NULL argument arrived in / left the group.
    Sum {
        delta: Value,
        arrived: bool,
        left: bool,
    },
    /// MIN/MAX: the best arrival and the best departure.
    Extremum(AggFunc, ExtremumDelta),
}

/// A non-NULL SUM argument, or nothing.
fn summand(v: &Value) -> Option<&Value> {
    (!v.is_null()).then_some(v)
}

impl Slot {
    fn fold(&mut self, ev: Event<'_>, arg: &Expr) -> Result<()> {
        match self {
            Slot::Count(delta) => {
                let counted = |r: &Row| -> Result<i64> { Ok(i64::from(!arg.eval(r)?.is_null())) };
                let d = match ev {
                    Event::Ins(post) => counted(post)?,
                    Event::Del(pre) => -counted(pre)?,
                    Event::Upd(pre, post) => counted(post)? - counted(pre)?,
                };
                *delta = delta.add(&Value::Int(d));
            }
            Slot::Sum {
                delta,
                arrived,
                left,
            } => {
                let (pre, post) = match ev {
                    Event::Ins(post) => (Value::Null, arg.eval(post)?),
                    Event::Del(pre) => (arg.eval(pre)?, Value::Null),
                    Event::Upd(pre, post) => (arg.eval(pre)?, arg.eval(post)?),
                };
                *arrived |= !post.is_null();
                *left |= !pre.is_null();
                let d = match (summand(&pre), summand(&post)) {
                    (None, None) => return Ok(()),
                    (None, Some(x)) => x.clone(),
                    (Some(x), None) => Value::Int(0).sub(x),
                    (Some(p), Some(q)) => q.sub(p),
                };
                *delta = delta.add(&d);
            }
            Slot::Extremum(func, ext) => match ev {
                Event::Ins(post) => ext.insert(*func, &arg.eval(post)?),
                Event::Del(pre) => ext.remove(*func, &arg.eval(pre)?),
                Event::Upd(pre, post) => {
                    ext.remove(*func, &arg.eval(pre)?);
                    ext.insert(*func, &arg.eval(post)?);
                }
            },
        }
        Ok(())
    }
}

/// What a stored group's aggregates become under a [`GroupDelta`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Resolved {
    /// The stored aggregates and the fold alone give the new ones.
    Clean,
    /// Only the group's members can tell the new aggregates. With
    /// `lost_extremum` a MIN/MAX lost its stored extremum; otherwise a
    /// SUM may have lost its last non-NULL argument, which matters only
    /// if the group still has members.
    Dirty { lost_extremum: bool },
}

/// One group's fold over a batch of member changes, for an aggregate
/// list of SUM, COUNT, MIN and MAX — the delta rule of the paper's
/// Tables 9 (SUM) and 11 (COUNT), extended to MIN/MAX with a dirty-group
/// fallback. Every engine folds its groups with it; each keeps only what
/// is its own (where the member changes come from, how it reads the
/// stored row, how it emits the result).
///
/// The SUM rule: when a non-NULL argument arrived, the new SUM is the
/// stored one (NULL read as 0) plus the delta. When one left, none
/// arrived and the result is exactly 0, the group may have lost its
/// last non-NULL argument, so it is dirty; so is a group whose stored
/// SUM is NULL although a non-NULL argument left (inconsistent state).
/// Otherwise the new SUM is the stored one plus the delta. A new group
/// whose arguments were all NULL has a NULL SUM.
#[derive(Debug, Clone)]
pub struct GroupDelta {
    slots: Vec<Slot>,
    /// Some member left the group: it may have emptied.
    had_delete: bool,
    net_members: i64,
}

impl GroupDelta {
    /// An empty fold for `aggs`; `None` when an aggregate has no delta
    /// rule (AVG: its finish is a division).
    pub fn new(aggs: &[AggSpec]) -> Option<Self> {
        let slots = aggs
            .iter()
            .map(|a| match a.func {
                AggFunc::Count => Some(Slot::Count(Value::Int(0))),
                AggFunc::Sum => Some(Slot::Sum {
                    delta: Value::Int(0),
                    arrived: false,
                    left: false,
                }),
                AggFunc::Min | AggFunc::Max => {
                    Some(Slot::Extremum(a.func, ExtremumDelta::default()))
                }
                AggFunc::Avg => None,
            })
            .collect::<Option<_>>()?;
        Some(GroupDelta {
            slots,
            had_delete: false,
            net_members: 0,
        })
    }

    /// Fold one member change. `aggs` is the list the fold was made for.
    ///
    /// # Errors
    /// Argument-expression evaluation failures.
    pub fn fold(&mut self, aggs: &[AggSpec], ev: Event<'_>) -> Result<()> {
        for (slot, a) in self.slots.iter_mut().zip(aggs) {
            slot.fold(ev, &a.arg)?;
        }
        match ev {
            Event::Ins(_) => self.net_members += 1,
            Event::Del(_) => {
                self.had_delete = true;
                self.net_members -= 1;
            }
            Event::Upd(..) => {}
        }
        Ok(())
    }

    /// Members that arrived minus members that left.
    pub fn net_members(&self) -> i64 {
        self.net_members
    }

    /// The aggregates of a group that did not exist before the batch.
    pub fn created(&self) -> Vec<Value> {
        self.slots
            .iter()
            .map(|slot| match slot {
                Slot::Count(delta) => delta.clone(),
                Slot::Sum { delta, arrived, .. } => {
                    if *arrived {
                        delta.clone()
                    } else {
                        Value::Null
                    }
                }
                Slot::Extremum(_, ext) => ext.created(),
            })
            .collect()
    }

    /// The new aggregates from the stored ones, `old` (one per slot),
    /// written to `vals` (cleared first; a buffer the caller reuses
    /// across groups). Meaningful only when the answer is `Clean`.
    pub fn resolve(&self, old: &[Value], vals: &mut Vec<Value>) -> Resolved {
        vals.clear();
        let mut dirty = false;
        let mut lost_extremum = false;
        for (slot, old) in self.slots.iter().zip(old) {
            match slot {
                Slot::Count(delta) => vals.push(old.add(delta)),
                Slot::Sum {
                    delta,
                    arrived,
                    left,
                } => {
                    if *arrived {
                        let old = if old.is_null() { &Value::Int(0) } else { old };
                        vals.push(old.add(delta));
                    } else {
                        let new = old.add(delta);
                        if *left && (old.is_null() || is_zero(&new)) {
                            dirty = true;
                        }
                        vals.push(new);
                    }
                }
                Slot::Extremum(func, ext) => match ext.resolve(*func, old) {
                    ExtremumOutcome::Clean(v) => vals.push(v),
                    ExtremumOutcome::Rescan => lost_extremum = true,
                },
            }
        }
        if dirty || lost_extremum {
            Resolved::Dirty { lost_extremum }
        } else {
            Resolved::Clean
        }
    }

    /// Settle a stored group whose emptiness only its members can tell:
    /// `false` when it has no members left, else `true` with its new
    /// aggregates in `vals` (as in [`GroupDelta::resolve`]). `members`
    /// re-reads the group (called at most once, and only when the group
    /// had a delete or is dirty); `rescan` announces a counted rescan,
    /// before the re-read when an extremum was lost (the rescan is due
    /// whatever the members are), after it when only a SUM is dirty and
    /// the group survived its deletes.
    ///
    /// # Errors
    /// Whatever `rescan` or `members` return, and argument-expression
    /// evaluation failures.
    pub fn settle(
        &self,
        aggs: &[AggSpec],
        old: &[Value],
        vals: &mut Vec<Value>,
        rescan: impl FnOnce() -> Result<()>,
        members: impl FnOnce() -> Result<Vec<Row>>,
    ) -> Result<bool> {
        let mut rescan = Some(rescan);
        let mut announce = || rescan.take().map_or(Ok(()), |f| f());
        let dirty = match self.resolve(old, vals) {
            Resolved::Clean if !self.had_delete => return Ok(true),
            Resolved::Clean => false,
            Resolved::Dirty { lost_extremum } => {
                if lost_extremum || !self.had_delete {
                    announce()?;
                }
                true
            }
        };
        let members = members()?;
        if members.is_empty() {
            return Ok(false);
        }
        if dirty {
            announce()?;
            vals.clear();
            for a in aggs {
                vals.push(aggregate_rows(a, &members)?);
            }
        }
        Ok(true)
    }
}

/// An exact numeric zero.
fn is_zero(v: &Value) -> bool {
    matches!(v, Value::Int(0)) || matches!(v, Value::Float(f) if *f == 0.0)
}

/// Evaluate `spec` over a full group of input rows (non-streaming
/// convenience used by group recomputation rules).
///
/// # Errors
/// Argument-expression evaluation failures ([`idivm_types::Error::Type`]).
pub fn aggregate_rows(spec: &AggSpec, rows: &[Row]) -> Result<Value> {
    let mut acc = Accumulator::new(spec.func);
    for r in rows {
        acc.update(&spec.arg.eval(r)?);
    }
    Ok(acc.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use idivm_types::row;

    fn spec(f: AggFunc) -> AggSpec {
        AggSpec::new(f, Expr::col(0), "agg")
    }

    #[test]
    fn sum_count_avg() {
        let rows = vec![row![10], row![20], row![30]];
        assert_eq!(
            aggregate_rows(&spec(AggFunc::Sum), &rows).unwrap(),
            Value::Int(60)
        );
        assert_eq!(
            aggregate_rows(&spec(AggFunc::Count), &rows).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            aggregate_rows(&spec(AggFunc::Avg), &rows).unwrap(),
            Value::Int(20)
        );
    }

    #[test]
    fn min_max() {
        let rows = vec![row![7], row![2], row![5]];
        assert_eq!(
            aggregate_rows(&spec(AggFunc::Min), &rows).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            aggregate_rows(&spec(AggFunc::Max), &rows).unwrap(),
            Value::Int(7)
        );
    }

    #[test]
    fn nulls_ignored() {
        let rows = vec![
            idivm_types::Row::new(vec![Value::Null]),
            row![4],
            idivm_types::Row::new(vec![Value::Null]),
        ];
        assert_eq!(
            aggregate_rows(&spec(AggFunc::Sum), &rows).unwrap(),
            Value::Int(4)
        );
        assert_eq!(
            aggregate_rows(&spec(AggFunc::Count), &rows).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            aggregate_rows(&spec(AggFunc::Avg), &rows).unwrap(),
            Value::Int(4)
        );
    }

    #[test]
    fn empty_group_semantics() {
        assert!(aggregate_rows(&spec(AggFunc::Sum), &[]).unwrap().is_null());
        assert_eq!(
            aggregate_rows(&spec(AggFunc::Count), &[]).unwrap(),
            Value::Int(0)
        );
        assert!(aggregate_rows(&spec(AggFunc::Avg), &[]).unwrap().is_null());
        assert!(aggregate_rows(&spec(AggFunc::Min), &[]).unwrap().is_null());
    }

    #[test]
    fn avg_divides_floats() {
        let rows = vec![row![1.0], row![2.0]];
        assert_eq!(
            aggregate_rows(&spec(AggFunc::Avg), &rows).unwrap(),
            Value::Float(1.5)
        );
    }

    #[test]
    fn invertible_classification() {
        assert!(AggFunc::Sum.is_invertible());
        assert!(AggFunc::Count.is_invertible());
        assert!(AggFunc::Avg.is_invertible());
        assert!(!AggFunc::Min.is_invertible());
        assert!(!AggFunc::Max.is_invertible());
    }

    #[test]
    fn extremum_clean_insert_improves() {
        let mut d = ExtremumDelta::default();
        d.insert(AggFunc::Min, &Value::Int(3));
        d.insert(AggFunc::Min, &Value::Int(7));
        assert_eq!(
            d.resolve(AggFunc::Min, &Value::Int(5)),
            ExtremumOutcome::Clean(Value::Int(3))
        );
        assert_eq!(
            d.resolve(AggFunc::Max, &Value::Int(5)),
            // Max direction keeps its own ins_best semantics: the same
            // delta folded for Max would have tracked 7, but this
            // tracker was folded Min-wards, so resolve(Max) simply
            // keeps whichever side wins.
            ExtremumOutcome::Clean(Value::Int(5))
        );
    }

    #[test]
    fn extremum_removal_of_non_extremum_is_clean() {
        let mut d = ExtremumDelta::default();
        d.remove(AggFunc::Min, &Value::Int(9));
        assert_eq!(
            d.resolve(AggFunc::Min, &Value::Int(5)),
            ExtremumOutcome::Clean(Value::Int(5))
        );
    }

    #[test]
    fn extremum_removal_of_extremum_forces_rescan() {
        let mut d = ExtremumDelta::default();
        d.remove(AggFunc::Min, &Value::Int(5));
        assert_eq!(d.resolve(AggFunc::Min, &Value::Int(5)), ExtremumOutcome::Rescan);
        // Removing something better than the stored extremum (stale
        // state) also rescans.
        let mut d2 = ExtremumDelta::default();
        d2.remove(AggFunc::Max, &Value::Int(10));
        assert_eq!(d2.resolve(AggFunc::Max, &Value::Int(8)), ExtremumOutcome::Rescan);
    }

    #[test]
    fn extremum_nulls_never_participate() {
        let mut d = ExtremumDelta::default();
        d.insert(AggFunc::Min, &Value::Null);
        d.remove(AggFunc::Min, &Value::Null);
        assert!(d.ins_best.is_none());
        assert!(d.rem_best.is_none());
        assert_eq!(
            d.resolve(AggFunc::Min, &Value::Int(2)),
            ExtremumOutcome::Clean(Value::Int(2))
        );
        assert_eq!(d.created(), Value::Null);
    }

    #[test]
    fn extremum_null_old_with_removal_rescans() {
        let mut d = ExtremumDelta::default();
        d.remove(AggFunc::Min, &Value::Int(1));
        assert_eq!(d.resolve(AggFunc::Min, &Value::Null), ExtremumOutcome::Rescan);
        // NULL old with only insertions resolves to the insertion.
        let mut d2 = ExtremumDelta::default();
        d2.insert(AggFunc::Max, &Value::Int(4));
        assert_eq!(
            d2.resolve(AggFunc::Max, &Value::Null),
            ExtremumOutcome::Clean(Value::Int(4))
        );
    }
}
