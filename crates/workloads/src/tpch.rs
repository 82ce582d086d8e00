//! A TPC-H-flavored workload for the non-invertible-aggregate and
//! outer-join paths: `customer`, `orders`, `lineitem`, with **skewed
//! extremum-deleting updates**.
//!
//! Two standing views:
//!
//! * [`Tpch::extremes_plan`] — per-customer price extremes over
//!   `orders ⋈ lineitem`: `MIN/MAX(extendedprice)` riding next to
//!   `SUM(extendedprice)`. The churn batch deliberately targets each
//!   group's *current minimum* (delete it, or price it above the
//!   group's maximum), which is exactly the case delta maintenance
//!   cannot resolve locally — the engines must fire their dirty-group
//!   rescan fallback, and the benchmark counts how often.
//! * [`Tpch::loj_plan`] — `customer ⟕ orders`: customers without
//!   orders appear NULL-padded. The order churn batch creates and
//!   destroys first/last orders, exercising the padded↔joined
//!   transitions in both directions.
//!
//! The skew knob ([`Tpch::extremum_pct`]) is the fraction of lineitem
//! churn aimed at a group extremum. At 0 the workload degenerates to
//! benign interior churn (MIN/MAX maintenance is pure delta); at 100
//! every modification forces a rescan (the pathological case where
//! maintained MIN/MAX approaches recompute cost).

use idivm_algebra::{Plan, PlanBuilder};
use idivm_exec::DbCatalog;
use idivm_reldb::Database;
use idivm_sdbt::{Partial, ProbeStep};
use idivm_sql::plan_sql;
use idivm_types::{row, ColumnType, Result, Row, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Workload configuration.
#[derive(Debug, Clone)]
pub struct Tpch {
    /// Number of customers. Roughly one in five has no orders at all
    /// (the LOJ's padded population).
    pub n_customers: usize,
    /// Average orders per ordering customer.
    pub orders_per_customer: usize,
    /// Average lineitems per order.
    pub lineitems_per_order: usize,
    /// Percentage of lineitem churn aimed at a group's current
    /// extremum (delete it or price it past the maximum) — the skew
    /// that makes MIN/MAX maintenance earn its rescans.
    pub extremum_pct: u32,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Default for Tpch {
    fn default() -> Self {
        Tpch {
            n_customers: 200,
            orders_per_customer: 3,
            lineitems_per_order: 4,
            extremum_pct: 30,
            seed: 1992,
        }
    }
}

impl Tpch {
    /// Build and populate the database (bulk load, unlogged).
    ///
    /// # Errors
    /// Schema construction failures (a bug).
    pub fn build(&self) -> Result<Database> {
        let mut db = Database::new();
        db.set_logging(false);
        db.create_table(
            "customer",
            Schema::from_pairs(
                &[
                    ("custkey", ColumnType::Int),
                    ("nationkey", ColumnType::Int),
                    ("segment", ColumnType::Str),
                ],
                &["custkey"],
            )?,
        )?;
        db.create_table(
            "orders",
            Schema::from_pairs(
                &[
                    ("orderkey", ColumnType::Int),
                    ("custkey", ColumnType::Int),
                    ("status", ColumnType::Str),
                ],
                &["orderkey"],
            )?,
        )?;
        db.create_table(
            "lineitem",
            Schema::from_pairs(
                &[
                    ("orderkey", ColumnType::Int),
                    ("linenumber", ColumnType::Int),
                    ("extendedprice", ColumnType::Int),
                    ("quantity", ColumnType::Int),
                ],
                &["orderkey", "linenumber"],
            )?,
        )?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut orderkey: i64 = 0;
        for custkey in 0..self.n_customers {
            let nation: i64 = rng.gen_range(0..25);
            let segment = ["BUILDING", "MACHINERY", "AUTOMOBILE"]
                [rng.gen_range(0..3usize)];
            db.table_mut("customer")?
                .load(row![custkey as i64, nation, segment])?;
            // ~20 % of customers order nothing: the padded LOJ rows.
            if rng.gen_range(0..100) < 20 {
                continue;
            }
            let n_orders = rng.gen_range(1..self.orders_per_customer.max(1) * 2 + 1);
            for _ in 0..n_orders {
                db.table_mut("orders")?
                    .load(row![orderkey, custkey as i64, "O"])?;
                let n_items = rng.gen_range(1..self.lineitems_per_order.max(1) * 2 + 1);
                for linenumber in 0..n_items {
                    let price: i64 = rng.gen_range(100..10_000);
                    let qty: i64 = rng.gen_range(1..50);
                    db.table_mut("lineitem")?
                        .load(row![orderkey, linenumber as i64, price, qty])?;
                }
                orderkey += 1;
            }
        }
        db.set_logging(true);
        Ok(db)
    }

    /// Per-customer price extremes:
    /// `γ_{custkey; MIN(price), MAX(price), SUM(price)}(orders ⋈ lineitem)`,
    /// i.e. [`Self::extremes_sql`] lowered against `db`.
    ///
    /// # Errors
    /// Lowering failures.
    pub fn extremes_plan(&self, db: &Database) -> Result<Plan> {
        plan_sql(db, &self.extremes_sql())
    }

    /// `customer ⟕ orders` — customers without orders NULL-padded:
    /// [`Self::loj_sql`] lowered against `db`.
    ///
    /// # Errors
    /// Lowering failures.
    pub fn loj_plan(&self, db: &Database) -> Result<Plan> {
        plan_sql(db, &self.loj_sql())
    }

    /// The MIN/MAX/SUM view's definition.
    pub fn extremes_sql(&self) -> String {
        "SELECT orders.custkey, \
         MIN(lineitem.extendedprice) AS min_price, \
         MAX(lineitem.extendedprice) AS max_price, \
         SUM(lineitem.extendedprice) AS revenue \
         FROM orders JOIN lineitem ON orders.orderkey = lineitem.orderkey \
         GROUP BY orders.custkey"
            .to_string()
    }

    /// The outer-join view's definition.
    pub fn loj_sql(&self) -> String {
        "SELECT * FROM customer LEFT OUTER JOIN orders \
         ON customer.custkey = orders.custkey"
            .to_string()
    }

    /// SDBT partial for lineitem diffs against [`Tpch::extremes_plan`]:
    /// one map `M = orders`, probed by `orderkey`, composing view-input
    /// rows in plan-column order (`orders.* ++ lineitem.*`).
    ///
    /// # Errors
    /// Plan-construction failures.
    pub fn sdbt_lineitem_partial(&self, db: &Database) -> Result<Partial> {
        let cat = DbCatalog(db);
        let m_orders = PlanBuilder::scan(&cat, "orders")?.build()?;
        // Accumulated row = lineitem(4 cols) ++ orders(3 cols); the view
        // input is orders ++ lineitem.
        Ok(Partial {
            table: "lineitem".to_string(),
            steps: vec![ProbeStep {
                plan: m_orders,
                join: vec![(0, 0)], // lineitem.orderkey ↔ orders.orderkey
            }],
            compose: vec![4, 5, 6, 0, 1, 2, 3],
            filter: None,
        })
    }

    /// Current lineitem rows grouped per customer, via the
    /// orders→customer mapping (uncounted bookkeeping reads; the
    /// batches use this to *aim*, not to maintain). Members are sorted
    /// by primary key: table iteration order is per-instance, and the
    /// batch generators must make identical choices on every database
    /// fed the same modification history.
    fn group_snapshot(db: &Database) -> Result<Vec<(i64, Vec<Row>)>> {
        let orders = db.table("orders")?.rows_uncounted();
        let mut order_cust: std::collections::HashMap<i64, i64> =
            std::collections::HashMap::new();
        for o in &orders {
            if let (Value::Int(ok), Value::Int(ck)) = (&o[0], &o[1]) {
                order_cust.insert(*ok, *ck);
            }
        }
        let mut groups: std::collections::BTreeMap<i64, Vec<Row>> =
            std::collections::BTreeMap::new();
        for l in db.table("lineitem")?.rows_uncounted() {
            if let Value::Int(ok) = &l[0] {
                if let Some(ck) = order_cust.get(ok) {
                    groups.entry(*ck).or_default().push(l);
                }
            }
        }
        let mut groups: Vec<(i64, Vec<Row>)> = groups.into_iter().collect();
        for (_, members) in &mut groups {
            members.sort_by_key(|r| r.key(&[0, 1]));
        }
        Ok(groups)
    }

    /// Apply `d` logged lineitem modifications: [`Tpch::extremum_pct`] %
    /// of them remove a random group's current **minimum** (half by
    /// deleting the row, half by pricing it above the group's maximum —
    /// both force a MIN rescan, the latter moves MAX too); the rest are
    /// benign interior churn (price nudges that stay strictly inside
    /// the group's range, plus occasional inserts).
    ///
    /// # Errors
    /// Unknown rows (a bug).
    pub fn lineitem_churn_batch(&self, db: &mut Database, d: usize, round: u64) -> Result<()> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ (round.wrapping_mul(0x9E37_79B9)));
        for _ in 0..d {
            let groups = Self::group_snapshot(db)?;
            if groups.is_empty() {
                break;
            }
            let (_, members) = &groups[rng.gen_range(0..groups.len())];
            let price_of = |r: &Row| match r[2] {
                Value::Int(p) => p,
                _ => 0,
            };
            let min_row = members
                .iter()
                .min_by_key(|r| (price_of(r), r.key(&[0, 1])))
                .cloned();
            let max_price = members.iter().map(&price_of).max().unwrap_or(0);
            let Some(min_row) = min_row else { continue };
            let pk = min_row.key(&[0, 1]);
            if rng.gen_range(0..100) < self.extremum_pct {
                // Extremum-deleting: the stored MIN vanishes.
                if rng.gen_range(0..2) == 0 && members.len() > 1 {
                    db.delete("lineitem", &pk)?;
                } else {
                    db.update_named(
                        "lineitem",
                        &pk,
                        &[("extendedprice", Value::Int(max_price + rng.gen_range(1..100)))],
                    )?;
                }
            } else if rng.gen_range(0..10) == 0 {
                // Occasional insert: a new lineitem strictly inside the
                // group's price range (never a new extremum).
                if let (Value::Int(ok), Value::Int(_)) = (&min_row[0], &min_row[1]) {
                    let next_ln = members
                        .iter()
                        .filter(|r| r[0] == min_row[0])
                        .map(|r| match r[1] {
                            Value::Int(n) => n,
                            _ => 0,
                        })
                        .max()
                        .unwrap_or(0)
                        + 1;
                    let lo = price_of(&min_row);
                    let price = if max_price > lo + 1 {
                        rng.gen_range(lo + 1..max_price)
                    } else {
                        lo
                    };
                    db.insert(
                        "lineitem",
                        row![*ok, next_ln, price, rng.gen_range(1..50)],
                    )?;
                }
            } else {
                // Benign interior price nudge on a random member.
                let victim = &members[rng.gen_range(0..members.len())];
                let lo = members.iter().map(&price_of).min().unwrap_or(0);
                let price = if max_price > lo + 1 {
                    rng.gen_range(lo + 1..max_price)
                } else {
                    max_price
                };
                db.update_named(
                    "lineitem",
                    &victim.key(&[0, 1]),
                    &[("extendedprice", Value::Int(price))],
                )?;
            }
        }
        Ok(())
    }

    /// Apply `d` logged order modifications for the LOJ view: a mix of
    /// first orders for so-far-orderless customers (retracting their
    /// padded rows), deletions of a customer's *last* order (restoring
    /// the padding), fresh customers (new padded rows), and status
    /// updates on surviving orders.
    ///
    /// # Errors
    /// Unknown rows (a bug).
    pub fn order_churn_batch(&self, db: &mut Database, d: usize, round: u64) -> Result<()> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ (round.wrapping_mul(0xDEAD_BEEF)));
        for _ in 0..d {
            // Sorted snapshots: table iteration order is per-instance,
            // and identical histories must yield identical batches.
            let mut customers = db.table("customer")?.rows_uncounted();
            customers.sort_by_key(|r| r.key(&[0]));
            let mut orders = db.table("orders")?.rows_uncounted();
            orders.sort_by_key(|r| r.key(&[0]));
            let mut per_customer: std::collections::HashMap<i64, Vec<&Row>> =
                std::collections::HashMap::new();
            for o in &orders {
                if let Value::Int(ck) = &o[1] {
                    per_customer.entry(*ck).or_default().push(o);
                }
            }
            let next_orderkey = orders
                .iter()
                .map(|o| match o[0] {
                    Value::Int(k) => k,
                    _ => 0,
                })
                .max()
                .unwrap_or(-1)
                + 1;
            let next_custkey = customers
                .iter()
                .map(|c| match c[0] {
                    Value::Int(k) => k,
                    _ => 0,
                })
                .max()
                .unwrap_or(-1)
                + 1;
            match rng.gen_range(0..4) {
                0 => {
                    // First order for an orderless customer, if any:
                    // padded → joined.
                    let orderless: Vec<i64> = customers
                        .iter()
                        .filter_map(|c| match c[0] {
                            Value::Int(k) if !per_customer.contains_key(&k) => Some(k),
                            _ => None,
                        })
                        .collect();
                    let ck = if orderless.is_empty() {
                        rng.gen_range(0..customers.len().max(1)) as i64
                    } else {
                        orderless[rng.gen_range(0..orderless.len())]
                    };
                    db.insert("orders", row![next_orderkey, ck, "O"])?;
                }
                1 => {
                    // Delete a last order where possible: joined → padded.
                    let mut singles: Vec<&Row> = per_customer
                        .values()
                        .filter(|v| v.len() == 1)
                        .map(|v| v[0])
                        .collect();
                    singles.sort_by_key(|r| r.key(&[0]));
                    let victim = if singles.is_empty() {
                        if orders.is_empty() {
                            continue;
                        }
                        orders[rng.gen_range(0..orders.len())].clone()
                    } else {
                        singles[rng.gen_range(0..singles.len())].clone()
                    };
                    // Drop its lineitems first so the extremes view's
                    // input never dangles.
                    if let Value::Int(ok) = &victim[0] {
                        let mut items: Vec<Row> = db
                            .table("lineitem")?
                            .rows_uncounted()
                            .into_iter()
                            .filter(|l| l[0] == Value::Int(*ok))
                            .collect();
                        items.sort_by_key(|r| r.key(&[0, 1]));
                        for l in items {
                            db.delete("lineitem", &l.key(&[0, 1]))?;
                        }
                    }
                    db.delete("orders", &victim.key(&[0]))?;
                }
                2 => {
                    // Fresh customer: a brand-new padded row.
                    db.insert(
                        "customer",
                        row![next_custkey, rng.gen_range(0..25i64), "FURNITURE"],
                    )?;
                }
                _ => {
                    // Status flip on a surviving order.
                    if orders.is_empty() {
                        continue;
                    }
                    let o = &orders[rng.gen_range(0..orders.len())];
                    let status = if o[2] == Value::Str("O".into()) { "F" } else { "O" };
                    db.update_named(
                        "orders",
                        &o.key(&[0]),
                        &[("status", Value::Str(status.into()))],
                    )?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idivm_exec::execute;

    fn tiny() -> Tpch {
        Tpch {
            n_customers: 40,
            orders_per_customer: 2,
            lineitems_per_order: 3,
            extremum_pct: 40,
            seed: 3,
        }
    }

    #[test]
    fn build_populates_all_three_tables() {
        let db = tiny().build().unwrap();
        assert_eq!(db.table("customer").unwrap().len(), 40);
        assert!(db.table("orders").unwrap().len() > 20);
        assert!(db.table("lineitem").unwrap().len() > 40);
        assert!(db.log().is_empty());
    }

    #[test]
    fn some_customers_are_orderless() {
        let db = tiny().build().unwrap();
        let n_with_orders: std::collections::BTreeSet<Value> = db
            .table("orders")
            .unwrap()
            .rows_uncounted()
            .iter()
            .map(|o| o[1].clone())
            .collect();
        assert!(
            n_with_orders.len() < db.table("customer").unwrap().len(),
            "every customer has orders — the LOJ has nothing to pad"
        );
    }

    #[test]
    fn plans_execute_and_loj_pads() {
        let cfg = tiny();
        let db = cfg.build().unwrap();
        let extremes = cfg.extremes_plan(&db).unwrap();
        let groups = execute(&db, &extremes).unwrap();
        assert!(!groups.is_empty());
        let loj = cfg.loj_plan(&db).unwrap();
        let rows = execute(&db, &loj).unwrap();
        assert_eq!(
            rows.len(),
            db.table("orders").unwrap().len()
                + rows.iter().filter(|r| r[3].is_null()).count(),
            "LOJ output = joined orders + padded customers"
        );
        assert!(
            rows.iter().any(|r| r[3].is_null()),
            "no padded rows despite orderless customers"
        );
    }

    #[test]
    fn churn_batches_are_logged() {
        let cfg = tiny();
        let mut db = cfg.build().unwrap();
        cfg.lineitem_churn_batch(&mut db, 8, 0).unwrap();
        assert!(!db.log().is_empty());
        db.clear_log();
        cfg.order_churn_batch(&mut db, 8, 0).unwrap();
        assert!(!db.log().is_empty());
    }
}
