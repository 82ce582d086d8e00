//! What every workload shares: loading generated rows, lowering the
//! workloads' SQL, applying logged DML on the direct path, the
//! correctness gate, and the accounting read from the scheduler's
//! per-view reports.

use crate::gen::TableRows;
use crate::manifest;
use crate::reference::Reference;
use crate::span::Tracer;
use idivm_algebra::{ensure_ids, Plan};
use idivm_exec::{executor::sorted, materialize_view, recompute_rows, DbCatalog};
use idivm_reldb::{Database, LogEntry};
use idivm_sched::MaintenanceScheduler;
use idivm_sql::{lower_query, parse, Statement};
use idivm_types::{Error, Result, Value};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// What one repetition on a freshly built system measured.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub window_s: f64,
    pub events: u64,
    /// Per event: handed over -> return of the call that committed its
    /// round, in microseconds.
    pub visible_us: Vec<f64>,
    pub read_us: Vec<f64>,
    /// One sample per timed recovery (several on a durable store).
    pub recovery_ms: Vec<f64>,
    /// Counted tuple accesses + index lookups of all maintenance.
    pub accesses: u64,
    /// Events dead-lettered, shed or rejected by a DML call.
    pub failed: u64,
    /// Every view equalled the recompute oracle (and the other gates of
    /// the workload held).
    pub correct: bool,
    /// Every time above is stated at reference speed (see
    /// `reference`); this is the window at reference speed over the raw
    /// window.
    pub speed: f64,
}

impl Rep {
    /// Fold in the gates of a traced run's other passes: the run is
    /// correct only if every pass was, and their failures count.
    pub fn with_gates_of(mut self, others: &[&Rep]) -> Rep {
        for other in others {
            self.correct &= other.correct;
            self.failed += other.failed;
        }
        self
    }
}

/// Per-layer metric values of one traced run, by manifest name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Set a per-layer metric.
    ///
    /// # Panics
    /// On a name the manifest does not list (a bug in the benchmark).
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            manifest::PER_LAYER.iter().any(|m| m.name == name),
            "`{name}` is not a per-layer metric of the manifest"
        );
        self.0.insert(name, value);
    }

    /// The value of a metric; 0 for one this workload's layers bypass.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Bulk-load generated rows into a fresh database (unlogged), as the
/// shipped `build` functions do.
///
/// # Errors
/// Schema or duplicate-key failures (a generator bug).
pub fn load(tables: &[TableRows]) -> Result<Database> {
    let mut db = Database::new();
    db.set_logging(false);
    for t in tables {
        db.create_table(&t.name, t.schema.clone())?;
        let table = db.table_mut(&t.name)?;
        for row in &t.rows {
            table.load(row.clone())?;
        }
    }
    db.set_logging(true);
    Ok(db)
}

/// Parse `CREATE MATERIALIZED VIEW name AS sql` and lower it against
/// the database's schema.
///
/// # Errors
/// SQL outside the supported subset.
pub fn lower(db: &Database, name: &str, sql: &str) -> Result<Plan> {
    let text = format!("CREATE MATERIALIZED VIEW {name} AS {sql}");
    match parse(&text)?.pop() {
        Some(Statement::CreateView { query, .. }) => {
            lower_query(&text, &query, &DbCatalog(db), &HashMap::new())
        }
        _ => Err(Error::Internal(format!("`{text}` is not one CREATE VIEW"))),
    }
}

/// Apply logged DML through the database's logged methods (the direct
/// path). Pushes the instant each call starts onto `stamps` and returns
/// how many calls the database rejected.
pub fn apply(db: &mut Database, entries: &[LogEntry], stamps: &mut Vec<Instant>) -> u64 {
    let mut failed = 0;
    for entry in entries {
        stamps.push(Instant::now());
        let ok = match entry {
            LogEntry::Insert { table, row } => db.insert(table, row.clone()).is_ok(),
            LogEntry::Delete { table, key, .. } => matches!(db.delete(table, key), Ok(Some(_))),
            LogEntry::Update {
                table,
                key,
                pre,
                post,
            } => {
                let assignments: Vec<(usize, Value)> = pre
                    .0
                    .iter()
                    .zip(post.0.iter())
                    .enumerate()
                    .filter(|(_, (a, b))| a != b)
                    .map(|(i, (_, b))| (i, b.clone()))
                    .collect();
                assignments.is_empty() || db.update(table, key, &assignments).is_ok()
            }
        };
        failed += u64::from(!ok);
    }
    failed
}

/// The generated tables' current rows, sorted: what a rebuild after
/// losing the process starts from.
///
/// # Errors
/// A generated table is missing (a bug).
pub fn base_rows(db: &Database, tables: &[TableRows]) -> Result<Vec<TableRows>> {
    tables
        .iter()
        .map(|t| {
            let mut rows = db.table(&t.name)?.rows_uncounted();
            rows.sort();
            Ok(TableRows {
                name: t.name.clone(),
                schema: t.schema.clone(),
                rows,
            })
        })
        .collect()
}

/// Live rows across the generated tables.
///
/// # Errors
/// A generated table is missing (a bug).
pub fn live_rows(db: &Database, tables: &[TableRows]) -> Result<usize> {
    tables.iter().map(|t| Ok(db.table(&t.name)?.len())).sum()
}

/// `|end - start| / start` in percent.
pub fn drift_pct(start: usize, end: usize) -> f64 {
    (end as f64 - start as f64).abs() / (start.max(1) as f64) * 100.0
}

/// The correctness gate: does materialized table `view` hold exactly
/// what recomputing `plan` over the current base tables gives? Also
/// returns the recompute's wall time in milliseconds.
///
/// # Errors
/// Unknown tables (a bug).
pub fn matches_oracle(db: &Database, view: &str, plan: &Plan) -> Result<(bool, f64)> {
    let started = Instant::now();
    let oracle = recompute_rows(db, plan)?;
    let ms = started.elapsed().as_secs_f64() * 1e3;
    Ok((
        sorted(oracle) == sorted(db.table(view)?.rows_uncounted()),
        ms,
    ))
}

/// The gate over every view of a scheduler. Returns (all equal, summed
/// recompute ms).
///
/// # Errors
/// Catalog inconsistencies (a bug).
pub fn views_match_oracle(sched: &MaintenanceScheduler, views: &[&str]) -> Result<(bool, f64)> {
    let mut all = true;
    let mut ms = 0.0;
    for name in views {
        let plan = ensure_ids(sched.catalog().view(name)?.source_plan().clone())?;
        let (ok, t) = matches_oracle(sched.db(), name, &plan)?;
        if !ok {
            eprintln!("oracle mismatch: view `{name}` differs from its recomputation");
        }
        all &= ok;
        ms += t;
    }
    Ok((all, ms))
}

/// Wall time in milliseconds of materializing every view's plan from
/// scratch at the current state (`exec::materialize_view` called
/// directly into a scratch table that is dropped again).
///
/// # Errors
/// Catalog inconsistencies (a bug).
pub fn materialize_ms(sched: &mut MaintenanceScheduler, views: &[&str]) -> Result<f64> {
    let mut ms = 0.0;
    for name in views {
        let plan = ensure_ids(sched.catalog().view(name)?.source_plan().clone())?;
        let started = Instant::now();
        materialize_view(sched.db_mut(), "__bench_scratch", &plan)?;
        ms += started.elapsed().as_secs_f64() * 1e3;
        sched.db_mut().drop_table("__bench_scratch");
    }
    Ok(ms)
}

/// Counted accesses of all maintenance a scheduler has run: every
/// view's and every promoted intermediate's cumulative total (ticks and
/// read barriers alike).
///
/// # Errors
/// Catalog inconsistencies (a bug).
pub fn total_accesses(sched: &MaintenanceScheduler, views: &[&str]) -> Result<u64> {
    let mut total = 0;
    for name in views {
        total += sched.stats(name)?.accesses.total();
    }
    for backing in sched.intermediates() {
        total += sched.intermediate_stats(&backing)?.accesses.total();
    }
    Ok(total)
}

/// Engine work read from outside: after each scheduler call, the
/// `last_report` of every view whose round counter advanced.
#[derive(Debug, Default)]
pub struct CoreAccount {
    seen: BTreeMap<String, (u64, u64)>,
    pub wall_us: f64,
    pub diffs: u64,
    pub accesses: u64,
    pub rescans: u64,
    pub supervised: u64,
}

impl CoreAccount {
    /// State the absorbed wall time at reference speed.
    pub fn scale(&mut self, factor: f64) {
        self.wall_us *= factor;
    }

    /// Absorb the reports of the views the last call maintained, and
    /// record each report's `wall` as a `core.maintain` span inside
    /// span `parent`. Returns whether any view was maintained.
    ///
    /// # Errors
    /// Unknown view name (a bug).
    pub fn absorb(
        &mut self,
        sched: &MaintenanceScheduler,
        views: &[&str],
        tracer: &mut Tracer,
        parent: Option<u32>,
    ) -> Result<bool> {
        let mut offset = 0;
        let mut any = false;
        for name in views {
            let stats = sched.stats(name)?;
            let seen = self.seen.entry((*name).to_string()).or_default();
            let now = (stats.rounds, stats.supervised_rounds);
            if now.0 == seen.0 {
                continue;
            }
            any = true;
            // A supervised round leaves `last_report` at the previous
            // clean round; count it, do not re-read it.
            let clean = now.1 == seen.1;
            self.supervised += now.1 - seen.1;
            *seen = now;
            if let (true, Some(report)) = (clean, stats.last_report.as_ref()) {
                self.wall_us += report.wall.as_secs_f64() * 1e6;
                self.diffs += report.base_diff_tuples as u64;
                self.accesses += report.total_accesses();
                self.rescans += report.rescans;
                offset = tracer.record_within(
                    parent,
                    "core.maintain",
                    offset,
                    report.wall.as_nanos() as u64,
                );
            }
        }
        Ok(any)
    }
}

/// Between two steps of a set-up: time the reference kernel, and let the
/// spans that follow carry the segment it opened.
pub fn between_steps(reference: &mut Reference, tracer: &mut Tracer) {
    reference.slice();
    tracer.set_round(0, reference.segment());
}

/// Microseconds between two instants.
pub fn us_between(start: Instant, end: Instant) -> f64 {
    end.duration_since(start).as_secs_f64() * 1e6
}
