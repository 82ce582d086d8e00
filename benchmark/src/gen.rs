//! Seeded input generators. Everything the program sees is made here
//! from `--seed`, before any timed window: the base tables as rows in
//! memory, and the whole change stream as logged DML with exact
//! pre-images (captured from a shadow replica the generator applies
//! its own operations to, as `MultiView::tweet_stream` does).
//!
//! The shipped generators only insert, so state grows with the run and
//! a faster commit would measure a different state. These hold table
//! sizes steady instead: every insert is paired, in expectation or
//! exactly, with a delete of the oldest generated row, taken from a
//! window of generated rows that is loaded before the stream starts.

use idivm_ingest::{ChangeEvent, ChangeOp, RawEvent};
use idivm_reldb::{Database, LogEntry};
use idivm_types::{row, Key, Result, Row, Schema, Value};
use idivm_workloads::bsma::Bsma;
use idivm_workloads::{MultiView, RunningExample, Tpch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// One base table as generated rows in memory.
#[derive(Debug, Clone)]
pub struct TableRows {
    pub name: String,
    pub schema: Schema,
    pub rows: Vec<Row>,
}

/// A workload's inputs: the initial base tables and the change stream.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub tables: Vec<TableRows>,
    /// The stream as logged DML, in order (the direct path's input).
    pub entries: Vec<LogEntry>,
}

impl Inputs {
    /// The stream on the wire: one producer, sequence numbers from 0.
    pub fn wire(&self) -> Vec<RawEvent> {
        self.entries
            .iter()
            .enumerate()
            .map(|(seq, e)| {
                let (table, op) = match e {
                    LogEntry::Insert { table, row } => {
                        (table, ChangeOp::Insert { row: row.clone() })
                    }
                    LogEntry::Delete { table, pre, .. } => {
                        (table, ChangeOp::Delete { pre: pre.clone() })
                    }
                    LogEntry::Update {
                        table, pre, post, ..
                    } => (
                        table,
                        ChangeOp::Update {
                            pre: pre.clone(),
                            post: post.clone(),
                        },
                    ),
                };
                RawEvent::encode(&ChangeEvent {
                    producer: 0,
                    seq: seq as u64,
                    table: table.clone(),
                    op,
                })
            })
            .collect()
    }
}

/// Every table of `db` as sorted rows (table iteration order differs
/// between processes; the inputs must not).
pub fn snapshot(db: &Database) -> Result<Vec<TableRows>> {
    db.table_names()
        .into_iter()
        .map(|name| {
            let t = db.table(name)?;
            let mut rows = t.rows_uncounted();
            rows.sort();
            Ok(TableRows {
                name: name.to_string(),
                schema: t.schema().clone(),
                rows,
            })
        })
        .collect()
}

/// Take the first `events` logged entries of the shadow as the stream.
fn take_stream(shadow: &Database, events: usize) -> Vec<LogEntry> {
    shadow.log().entries()[..events].to_vec()
}

fn int(v: &Value) -> i64 {
    v.as_int().unwrap_or(0)
}

/// Tweets the multiview window holds before the stream starts. Deletes
/// take the oldest; with as many delete as insert operations the depth
/// does a random walk far narrower than this.
const TWEET_WINDOW: usize = 2_000;

/// `firehose-multiview` / `durable-multiview`: BSMA at `scale`, then
/// `events` events, by count 40 % tweet+mention inserts, 40 % deletes of
/// the oldest generated tweets (mentions first), 20 % `microblog` /
/// `users` updates.
///
/// # Errors
/// Generator bugs only (the shadow rejects an operation).
pub fn multiview(seed: u64, scale: f64, events: usize) -> Result<Inputs> {
    let mut shadow = MultiView {
        bsma: Bsma { scale, seed },
    }
    .build()?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d75_6c74_6976_6965);
    let n_users = shadow.table("users")?.len() as i64;
    let n_seed_tweets = shadow.table("microblog")?.len() as i64;
    let mut next_mid: i64 = 1_000_000;
    let mut window: VecDeque<(i64, [i64; 2])> = VecDeque::new();

    let mut insert_tweet = |db: &mut Database, rng: &mut StdRng| -> Result<(i64, [i64; 2])> {
        let mid = next_mid;
        next_mid += 1;
        let author = rng.gen_range(0..n_users);
        let ts: i64 = rng.gen_range(0..1_000_000);
        let topic: i64 = rng.gen_range(0..50);
        db.insert("microblog", row![mid, author, ts, topic])?;
        let first = rng.gen_range(0..n_users);
        let second = (first + rng.gen_range(1..n_users)) % n_users;
        for uid in [first, second] {
            db.insert("mentions", row![mid, uid])?;
        }
        Ok((mid, [first, second]))
    };

    shadow.set_logging(false);
    for _ in 0..((TWEET_WINDOW as f64 * scale) as usize).max(8) {
        window.push_back(insert_tweet(&mut shadow, &mut rng)?);
    }
    shadow.set_logging(true);
    let tables = snapshot(&shadow)?;

    // By operation 2 : 2 : 3 — inserts and deletes are three events
    // each, updates one — which is 40 : 40 : 20 by event.
    while shadow.log().len() < events {
        match rng.gen_range(0..7) {
            0 | 1 => window.push_back(insert_tweet(&mut shadow, &mut rng)?),
            2 | 3 if !window.is_empty() => {
                if let Some((mid, mentioned)) = window.pop_front() {
                    for uid in mentioned {
                        shadow.delete("mentions", &Key(vec![Value::Int(mid), Value::Int(uid)]))?;
                    }
                    shadow.delete("microblog", &Key(vec![Value::Int(mid)]))?;
                }
            }
            4 => {
                let mid = rng.gen_range(0..n_seed_tweets);
                let ts: i64 = rng.gen_range(0..1_000_000);
                let topic: i64 = rng.gen_range(0..50);
                shadow.update_named(
                    "microblog",
                    &Key(vec![Value::Int(mid)]),
                    &[("ts", Value::Int(ts)), ("topic", Value::Int(topic))],
                )?;
            }
            _ => {
                let uid = rng.gen_range(0..n_users);
                let tweets: i64 = rng.gen_range(0..500);
                let favor: i64 = rng.gen_range(0..2_000);
                shadow.update_named(
                    "users",
                    &Key(vec![Value::Int(uid)]),
                    &[
                        ("tweetsnum", Value::Int(tweets)),
                        ("favornum", Value::Int(favor)),
                    ],
                )?;
            }
        }
    }
    Ok(Inputs {
        tables,
        entries: take_stream(&shadow, events),
    })
}

/// Links the fig12 window holds before the stream starts.
const LINK_WINDOW: usize = 1_000;
/// Diffs per engine round (the paper's default `d`).
pub const FIG12_ROUND: usize = 200;

/// `engine-fig12`: the running example under `cfg`, then `rounds`
/// rounds of 200 diffs: 150 price updates on `parts`, 25 link inserts
/// and 25 deletes of the oldest generated links.
///
/// # Errors
/// Generator bugs only.
pub fn fig12(seed: u64, cfg: &RunningExample, rounds: usize) -> Result<Inputs> {
    let cfg = RunningExample {
        seed,
        ..cfg.clone()
    };
    let mut shadow = cfg.build()?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6669_6731_325f_6765);
    let mut window: VecDeque<(i64, i64)> = VecDeque::new();
    let insert_link = |db: &mut Database, rng: &mut StdRng| -> (i64, i64) {
        loop {
            let did = rng.gen_range(0..cfg.n_devices) as i64;
            let pid = rng.gen_range(0..cfg.n_parts) as i64;
            if db.insert("devices_parts", row![did, pid]).is_ok() {
                return (did, pid);
            }
        }
    };
    shadow.set_logging(false);
    for _ in 0..(LINK_WINDOW * cfg.n_devices / 5_000).max(FIG12_ROUND) {
        window.push_back(insert_link(&mut shadow, &mut rng));
    }
    shadow.set_logging(true);
    let tables = snapshot(&shadow)?;
    for _ in 0..rounds {
        for _ in 0..FIG12_ROUND * 3 / 4 {
            let pid = rng.gen_range(0..cfg.n_parts) as i64;
            let price: i64 = rng.gen_range(1..1_000);
            shadow.update_named(
                "parts",
                &Key(vec![Value::Int(pid)]),
                &[("price", Value::Int(price))],
            )?;
        }
        for _ in 0..FIG12_ROUND / 8 {
            window.push_back(insert_link(&mut shadow, &mut rng));
        }
        for _ in 0..FIG12_ROUND / 8 {
            if let Some((did, pid)) = window.pop_front() {
                shadow.delete(
                    "devices_parts",
                    &Key(vec![Value::Int(did), Value::Int(pid)]),
                )?;
            }
        }
    }
    Ok(Inputs {
        tables,
        entries: take_stream(&shadow, rounds * FIG12_ROUND),
    })
}

/// `mixed-tpch-reads`: TPC-H-flavoured tables for `n_customers`, then
/// `events` DML calls: four in five operations churn one lineitem of a
/// random customer's group (30 % aimed at the group's current MIN:
/// delete it, or price it past the MAX; the rest interior nudges and as
/// many inserts as the extremum deletes remove), one in five inserts a
/// first order for an orderless customer or deletes a customer's last
/// order, flipping the outer join's padding either way.
///
/// # Errors
/// Generator bugs only.
pub fn tpch(seed: u64, n_customers: usize, events: usize) -> Result<Inputs> {
    let cfg = Tpch {
        n_customers,
        seed,
        ..Tpch::default()
    };
    let mut shadow = cfg.build()?;
    let tables = snapshot(&shadow)?;
    // The generator aims through these; the program never sees them.
    shadow.table_mut("orders")?.create_index(&["custkey"])?;
    shadow.table_mut("lineitem")?.create_index(&["orderkey"])?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7470_6368_5f67_656e);
    let mut next_orderkey = shadow.table("orders")?.len() as i64;
    let mut insert_order_next = true;

    let orders_of = |db: &Database, custkey: i64| -> Result<Vec<Row>> {
        let mut rows = db
            .table("orders")?
            .lookup(&[1], &Key(vec![Value::Int(custkey)]));
        rows.sort();
        Ok(rows)
    };
    let items_of = |db: &Database, orderkey: i64| -> Result<Vec<Row>> {
        let mut rows = db
            .table("lineitem")?
            .lookup(&[0], &Key(vec![Value::Int(orderkey)]));
        rows.sort();
        Ok(rows)
    };
    // A random customer whose order count satisfies `want`, by
    // rejection; `None` after 64 misses.
    let pick = |db: &Database,
                rng: &mut StdRng,
                want: &dyn Fn(usize) -> bool|
     -> Result<Option<(i64, Vec<Row>)>> {
        for _ in 0..64 {
            let custkey = rng.gen_range(0..n_customers) as i64;
            let orders = orders_of(db, custkey)?;
            if want(orders.len()) {
                return Ok(Some((custkey, orders)));
            }
        }
        Ok(None)
    };

    while shadow.log().len() < events {
        if rng.gen_range(0..5) == 0 {
            if insert_order_next {
                if let Some((custkey, _)) = pick(&shadow, &mut rng, &|n| n == 0)? {
                    shadow.insert("orders", row![next_orderkey, custkey, "O"])?;
                    for line in 0..4i64 {
                        let price: i64 = rng.gen_range(100..10_000);
                        let qty: i64 = rng.gen_range(1..50);
                        shadow.insert("lineitem", row![next_orderkey, line, price, qty])?;
                    }
                    next_orderkey += 1;
                }
            } else if let Some((_, orders)) = pick(&shadow, &mut rng, &|n| n == 1)? {
                let orderkey = int(&orders[0][0]);
                for item in items_of(&shadow, orderkey)? {
                    shadow.delete("lineitem", &item.key(&[0, 1]))?;
                }
                shadow.delete("orders", &Key(vec![Value::Int(orderkey)]))?;
            }
            insert_order_next = !insert_order_next;
            continue;
        }
        let Some((_, orders)) = pick(&shadow, &mut rng, &|n| n > 0)? else {
            continue;
        };
        let mut members = Vec::new();
        for o in &orders {
            members.extend(items_of(&shadow, int(&o[0]))?);
        }
        let Some(min_row) = members.iter().min_by_key(|r| (int(&r[2]), r.key(&[0, 1]))) else {
            continue;
        };
        let lo = int(&min_row[2]);
        let hi = members.iter().map(|r| int(&r[2])).max().unwrap_or(lo);
        let inside = |rng: &mut StdRng| {
            if hi > lo + 1 {
                rng.gen_range(lo + 1..hi)
            } else {
                lo
            }
        };
        let roll = rng.gen_range(0..100);
        if roll < 30 {
            if roll < 15 && members.len() > 1 {
                shadow.delete("lineitem", &min_row.key(&[0, 1]))?;
            } else {
                let price = hi + rng.gen_range(1..100i64);
                shadow.update_named(
                    "lineitem",
                    &min_row.key(&[0, 1]),
                    &[("extendedprice", Value::Int(price))],
                )?;
            }
        } else if roll < 45 {
            let orderkey = int(&orders[rng.gen_range(0..orders.len())][0]);
            let line = items_of(&shadow, orderkey)?
                .iter()
                .map(|r| int(&r[1]))
                .max()
                .map_or(0, |n| n + 1);
            let price = inside(&mut rng);
            let qty: i64 = rng.gen_range(1..50);
            shadow.insert("lineitem", row![orderkey, line, price, qty])?;
        } else {
            let victim = members[rng.gen_range(0..members.len())].key(&[0, 1]);
            let price = inside(&mut rng);
            shadow.update_named("lineitem", &victim, &[("extendedprice", Value::Int(price))])?;
        }
    }
    Ok(Inputs {
        tables,
        entries: take_stream(&shadow, events),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(inputs: &Inputs) -> String {
        let wire: Vec<String> = inputs.wire().into_iter().map(|e| e.wire).collect();
        format!("{:?}\n{}", inputs.tables, wire.join("\n"))
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        let small = RunningExample {
            n_parts: 200,
            n_devices: 200,
            ..RunningExample::default()
        };
        assert_eq!(
            bytes(&multiview(7, 0.05, 600).unwrap()),
            bytes(&multiview(7, 0.05, 600).unwrap())
        );
        assert_eq!(
            bytes(&fig12(7, &small, 3).unwrap()),
            bytes(&fig12(7, &small, 3).unwrap())
        );
        assert_eq!(
            bytes(&tpch(7, 60, 400).unwrap()),
            bytes(&tpch(7, 60, 400).unwrap())
        );
        assert_ne!(
            bytes(&multiview(7, 0.05, 600).unwrap()),
            bytes(&multiview(8, 0.05, 600).unwrap())
        );
    }

    #[test]
    fn streams_hold_the_asked_size_and_mix() {
        let m = multiview(3, 0.05, 3_000).unwrap();
        assert_eq!(m.entries.len(), 3_000);
        let count = |f: &dyn Fn(&LogEntry) -> bool| m.entries.iter().filter(|e| f(e)).count();
        let inserts = count(&|e| matches!(e, LogEntry::Insert { .. }));
        let deletes = count(&|e| matches!(e, LogEntry::Delete { .. }));
        let updates = count(&|e| matches!(e, LogEntry::Update { .. }));
        assert!((1_000..1_400).contains(&inserts), "inserts {inserts}");
        assert!((1_000..1_400).contains(&deletes), "deletes {deletes}");
        assert!((450..750).contains(&updates), "updates {updates}");
        assert_eq!(
            fig12(3, &RunningExample::default(), 2)
                .unwrap()
                .entries
                .len(),
            400
        );
        assert_eq!(tpch(3, 60, 500).unwrap().entries.len(), 500);
    }
}
