//! The running-example workload (paper Figures 1, 5, 11 and 12).
//!
//! Schema: `parts(pid, price)`, `devices(did, category)`,
//! `devices_parts(did, pid)`, plus `j − 2` vertically-decomposed
//! 1-to-1 extension tables `r1..rk(did, pid, x)` for the
//! varying-number-of-joins experiment (Figure 12b).
//!
//! Parameters (Figure 11b): diff size `d`, joins `j`, selectivity `s`
//! (% of devices that are phones), fanout `f` (parts per device).

use idivm_algebra::{Expr, Plan, PlanBuilder};
use idivm_exec::DbCatalog;
use idivm_reldb::Database;
use idivm_sdbt::{Partial, ProbeStep};
use idivm_sql::plan_sql;
use idivm_types::{row, ColumnType, Key, Result, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Workload configuration. Defaults mirror Figure 11 scaled down
/// 1000× (paper: 5M parts, 5M devices, 50M links).
#[derive(Debug, Clone)]
pub struct RunningExample {
    /// Number of parts.
    pub n_parts: usize,
    /// Number of devices.
    pub n_devices: usize,
    /// Parts per device (`f`; the devices_parts table has
    /// `n_devices · f` rows).
    pub fanout: usize,
    /// Percentage of devices with category "phone" (`s`).
    pub selectivity_pct: u32,
    /// Total joins `j ≥ 2`: 2 base joins plus `j − 2` extension tables.
    /// When `j > 2` the selection is disabled (Figure 12b's setup).
    pub joins: usize,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Default for RunningExample {
    fn default() -> Self {
        RunningExample {
            n_parts: 5_000,
            n_devices: 5_000,
            fanout: 10,
            selectivity_pct: 20,
            joins: 2,
            seed: 42,
        }
    }
}

impl RunningExample {
    /// Names of the extension tables `r1..rk` for `j` joins.
    pub fn extension_tables(&self) -> Vec<String> {
        (1..=self.joins.saturating_sub(2))
            .map(|i| format!("r{i}"))
            .collect()
    }

    /// Is the selection enabled? (Disabled for the joins sweep.)
    pub fn selection_enabled(&self) -> bool {
        self.joins <= 2
    }

    /// Build and populate the database (bulk load, unlogged).
    ///
    /// # Errors
    /// Schema construction failures (a bug).
    pub fn build(&self) -> Result<Database> {
        let mut db = Database::new();
        db.set_logging(false);
        db.create_table(
            "parts",
            Schema::from_pairs(
                &[("pid", ColumnType::Int), ("price", ColumnType::Int)],
                &["pid"],
            )?,
        )?;
        db.create_table(
            "devices",
            Schema::from_pairs(
                &[("did", ColumnType::Int), ("category", ColumnType::Str)],
                &["did"],
            )?,
        )?;
        db.create_table(
            "devices_parts",
            Schema::from_pairs(
                &[("did", ColumnType::Int), ("pid", ColumnType::Int)],
                &["did", "pid"],
            )?,
        )?;
        for t in self.extension_tables() {
            db.create_table(
                &t,
                Schema::from_pairs(
                    &[
                        ("did", ColumnType::Int),
                        ("pid", ColumnType::Int),
                        ("x", ColumnType::Int),
                    ],
                    &["did", "pid"],
                )?,
            )?;
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        for pid in 0..self.n_parts {
            let price: i64 = rng.gen_range(1..1_000);
            db.table_mut("parts")?.load(row![pid as i64, price])?;
        }
        for did in 0..self.n_devices {
            let cat = if rng.gen_range(0..100) < self.selectivity_pct {
                "phone"
            } else {
                "tablet"
            };
            db.table_mut("devices")?.load(row![did as i64, cat])?;
        }
        let ext = self.extension_tables();
        for did in 0..self.n_devices {
            for _ in 0..self.fanout {
                let pid = rng.gen_range(0..self.n_parts) as i64;
                // Composite-keyed: duplicates silently skipped.
                let link = row![did as i64, pid];
                if db.table_mut("devices_parts")?.load(link).is_ok() {
                    for t in &ext {
                        let x: i64 = rng.gen_range(0..10);
                        db.table_mut(t)?.load(row![did as i64, pid, x])?;
                    }
                }
            }
        }
        db.set_logging(true);
        Ok(db)
    }

    /// The SPJ view V (Figure 1b), extended per the joins parameter:
    /// [`Self::spj_sql`] lowered against `db`.
    ///
    /// # Errors
    /// Lowering failures.
    pub fn spj_plan(&self, db: &Database) -> Result<Plan> {
        plan_sql(db, &self.spj_sql())
    }

    /// The aggregate view V′ (Figure 5b), total part cost per device:
    /// [`Self::agg_sql`] lowered against `db`.
    ///
    /// # Errors
    /// Lowering failures.
    pub fn agg_plan(&self, db: &Database) -> Result<Plan> {
        plan_sql(db, &self.agg_sql())
    }

    /// The SPJ view's definition.
    pub fn spj_sql(&self) -> String {
        format!("SELECT * {}", self.sql_tail())
    }

    /// The aggregate view's definition.
    pub fn agg_sql(&self) -> String {
        format!(
            "SELECT devices_parts.did, SUM(parts.price) AS cost {} GROUP BY devices_parts.did",
            self.sql_tail()
        )
    }

    /// The shared `FROM … [WHERE …]` tail of both views: parts ⋈
    /// devices_parts ⋈ devices, one more join per extension table, and
    /// the phone selection when it is enabled.
    fn sql_tail(&self) -> String {
        let mut s = String::from(
            "FROM parts \
             JOIN devices_parts ON parts.pid = devices_parts.pid \
             JOIN devices ON devices_parts.did = devices.did",
        );
        for t in self.extension_tables() {
            s.push_str(&format!(
                " JOIN {t} ON devices_parts.did = {t}.did AND devices_parts.pid = {t}.pid"
            ));
        }
        if self.selection_enabled() {
            s.push_str(" WHERE devices.category = 'phone'");
        }
        s
    }

    /// Apply `d` random price updates (the Figure 11c base-table diff
    /// `∆u_parts(pid, price_pre, price_post)`), logged.
    ///
    /// # Errors
    /// Unknown rows (a bug).
    pub fn price_update_batch(&self, db: &mut Database, d: usize, round: u64) -> Result<()> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ (round.wrapping_mul(0x9E37_79B9)));
        for _ in 0..d {
            let pid = rng.gen_range(0..self.n_parts) as i64;
            let price: i64 = rng.gen_range(1..1_000);
            db.update_named(
                "parts",
                &Key(vec![Value::Int(pid)]),
                &[("price", Value::Int(price))],
            )?;
        }
        Ok(())
    }

    /// Apply `d` random link inserts (insert-heavy workload).
    ///
    /// # Errors
    /// Unknown tables (a bug).
    pub fn link_insert_batch(&self, db: &mut Database, d: usize, round: u64) -> Result<usize> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ (round.wrapping_mul(0xDEAD_BEEF)));
        let ext = self.extension_tables();
        let mut inserted = 0;
        while inserted < d {
            let did = rng.gen_range(0..self.n_devices) as i64;
            let pid = rng.gen_range(0..self.n_parts) as i64;
            if db.insert("devices_parts", row![did, pid]).is_ok() {
                for t in &ext {
                    db.insert(t, row![did, pid, rng.gen_range(0..10)])?;
                }
                inserted += 1;
            }
        }
        Ok(inserted)
    }

    /// SDBT partial for diffs on `parts`: one map
    /// `M = devices_parts ⋈ devices [⋈ r1..rk] [σ phone]`, probed by
    /// `pid`, composing the view-input rows in plan-column order.
    ///
    /// # Errors
    /// Plan-construction failures.
    pub fn sdbt_parts_partial(&self, db: &Database) -> Result<Partial> {
        let cat = DbCatalog(db);
        let mut m = PlanBuilder::scan(&cat, "devices_parts")?.join(
            PlanBuilder::scan(&cat, "devices")?,
            &[("devices_parts.did", "devices.did")],
        )?;
        for t in self.extension_tables() {
            let did = format!("{t}.did");
            let pid = format!("{t}.pid");
            m = m.join(
                PlanBuilder::scan(&cat, &t)?,
                &[
                    ("devices_parts.did", did.as_str()),
                    ("devices_parts.pid", pid.as_str()),
                ],
            )?;
        }
        if self.selection_enabled() {
            m = m.select_eq("devices.category", "phone")?;
        }
        let map_plan = m.build()?;
        let map_arity = map_plan.arity();
        // Accumulated row = [pid, price] ++ map columns. The view input
        // is [parts.*, devices_parts.*, devices.*, exts...] = the same
        // column multiset, in that order.
        let mut compose: Vec<usize> = vec![0, 1];
        compose.extend(2..2 + map_arity);
        Ok(Partial {
            table: "parts".to_string(),
            steps: vec![ProbeStep {
                plan: map_plan,
                join: vec![(0, 1)], // parts.pid ↔ devices_parts.pid
            }],
            compose,
            filter: None,
        })
    }

    /// SDBT partials for the Streams variant: one per base table. The
    /// `devices` and `devices_parts` triggers use hierarchical maps
    /// (DBToaster-style) because removing them cuts the join graph.
    ///
    /// # Errors
    /// Plan-construction failures.
    pub fn sdbt_all_partials(&self, db: &Database) -> Result<Vec<Partial>> {
        let cat = DbCatalog(db);
        let mut out = vec![self.sdbt_parts_partial(db)?];
        // devices diffs: map = parts ⋈ devices_parts (probed by did),
        // then filter on the device's own category.
        let m_dev = PlanBuilder::scan(&cat, "parts")?
            .join(
                PlanBuilder::scan(&cat, "devices_parts")?,
                &[("parts.pid", "devices_parts.pid")],
            )?
            .build()?;
        // Accumulated: [did, category] ++ [pid, price, dp.did, dp.pid].
        // View input order: parts, dp, devices.
        let compose = vec![2, 3, 4, 5, 0, 1];
        let filter = if self.selection_enabled() {
            // Composed column 5 is devices.category.
            Some(Expr::col(5).eq(Expr::lit("phone")))
        } else {
            None
        };
        out.push(Partial {
            table: "devices".to_string(),
            steps: vec![ProbeStep {
                plan: m_dev,
                join: vec![(0, 2)], // devices.did ↔ dp.did
            }],
            compose,
            filter,
        });
        // devices_parts diffs: hierarchical — probe the parts map by
        // pid, then the (filtered) devices map by did.
        let m_parts = PlanBuilder::scan(&cat, "parts")?.build()?;
        let mut dev_side = PlanBuilder::scan(&cat, "devices")?;
        if self.selection_enabled() {
            dev_side = dev_side.select_eq("devices.category", "phone")?;
        }
        let m_devices_only = dev_side.build()?;
        // Accumulated: [dp.did, dp.pid] ++ [pid, price] ++ [did, category].
        let compose = vec![2, 3, 0, 1, 4, 5];
        out.push(Partial {
            table: "devices_parts".to_string(),
            steps: vec![
                ProbeStep {
                    plan: m_parts,
                    join: vec![(1, 0)], // dp.pid ↔ parts.pid
                },
                ProbeStep {
                    plan: m_devices_only,
                    join: vec![(0, 0)], // dp.did ↔ devices.did
                },
            ],
            compose,
            filter: None,
        });
        // Extension tables (joins sweep): probe parts, dp is implied by
        // the key equality — extension diffs are not exercised by the
        // experiments, so Streams only carries their maintenance cost
        // via the other partials' maps.
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idivm_exec::execute;

    fn tiny() -> RunningExample {
        RunningExample {
            n_parts: 50,
            n_devices: 40,
            fanout: 3,
            selectivity_pct: 50,
            joins: 2,
            seed: 7,
        }
    }

    #[test]
    fn build_populates_expected_sizes() {
        let cfg = tiny();
        let db = cfg.build().unwrap();
        assert_eq!(db.table("parts").unwrap().len(), 50);
        assert_eq!(db.table("devices").unwrap().len(), 40);
        let links = db.table("devices_parts").unwrap().len();
        assert!(links > 40 && links <= 120, "links = {links}");
        assert!(db.log().is_empty());
    }

    #[test]
    fn plans_execute() {
        let cfg = tiny();
        let db = cfg.build().unwrap();
        let spj = cfg.spj_plan(&db).unwrap();
        let rows = execute(&db, &spj).unwrap();
        assert!(!rows.is_empty());
        let agg = cfg.agg_plan(&db).unwrap();
        let groups = execute(&db, &agg).unwrap();
        assert!(!groups.is_empty());
        assert!(groups.len() <= 40);
    }

    #[test]
    fn joins_parameter_adds_tables_and_disables_selection() {
        let cfg = RunningExample {
            joins: 4,
            ..tiny()
        };
        assert_eq!(cfg.extension_tables(), vec!["r1", "r2"]);
        assert!(!cfg.selection_enabled());
        let db = cfg.build().unwrap();
        assert_eq!(
            db.table("r1").unwrap().len(),
            db.table("devices_parts").unwrap().len()
        );
        let spj = cfg.spj_plan(&db).unwrap();
        // Extension rows are 1:1 with links, and with the selection
        // disabled every link joins exactly one part, one device, and
        // one row per extension: |V| = |devices_parts|.
        assert_eq!(
            execute(&db, &spj).unwrap().len(),
            db.table("devices_parts").unwrap().len()
        );
    }

    #[test]
    fn update_batches_are_logged() {
        let cfg = tiny();
        let mut db = cfg.build().unwrap();
        cfg.price_update_batch(&mut db, 10, 0).unwrap();
        assert_eq!(db.log().len(), 10);
    }
}
