//! Log ↔ event-stream conversion: turn logged DML into partitioned
//! producer streams, and replay logs directly (the one-shot baseline
//! the firehose's bit-identity guard compares against).
//!
//! **Partitioning contract (single writer per key).** Events are
//! routed to producers by a stable hash of `(table, key)`, so every
//! change to one tuple rides the same producer stream. Producer
//! streams are FIFO and the drivers merge them round-robin — which
//! preserves each stream's internal order — so the *per-key* order of
//! the original log survives end to end. Per-key order is exactly
//! what admission's pre-image checks and the fold's net-change
//! semantics need; cross-key interleaving is free to differ, and the
//! folded `ChangeLog` (hence the maintained views, hence the database
//! signature) still converges bit-identically to the one-shot run.

use crate::event::{ChangeEvent, ChangeOp, RawEvent};
use idivm_reldb::{Database, LogEntry};
use idivm_types::{Fnv1a, Key, Result, Value};
use std::hash::Hasher;

/// FNV-1a over the table name and canonical key rendering — stable
/// across runs, processes, and thread counts.
fn route_hash(table: &str, key: &Key) -> u64 {
    let mut h = Fnv1a::default();
    h.write(table.as_bytes());
    h.write(&[0]);
    h.write(format!("{key:?}").as_bytes());
    h.finish()
}

/// Split logged DML into `producers` wire streams by stable key hash,
/// stamping per-producer monotone sequence numbers from 0. The
/// database supplies each table's key columns (inserts carry no key).
///
/// # Errors
/// A log entry naming a table the database doesn't have.
pub fn partition_log(
    db: &Database,
    entries: &[LogEntry],
    producers: u32,
) -> Result<Vec<Vec<RawEvent>>> {
    let producers = producers.max(1);
    let mut streams: Vec<Vec<RawEvent>> = vec![Vec::new(); producers as usize];
    let mut next_seq: Vec<u64> = vec![0; producers as usize];
    for entry in entries {
        let (table, key, op) = match entry {
            LogEntry::Insert { table, row } => {
                let key_cols = db.table(table)?.schema().key().to_vec();
                (table, row.key(&key_cols), ChangeOp::Insert { row: row.clone() })
            }
            LogEntry::Delete { table, key, pre } => {
                (table, key.clone(), ChangeOp::Delete { pre: pre.clone() })
            }
            LogEntry::Update {
                table, key, pre, post,
            } => (
                table,
                key.clone(),
                ChangeOp::Update {
                    pre: pre.clone(),
                    post: post.clone(),
                },
            ),
        };
        let p = (route_hash(table, &key) % u64::from(producers)) as usize;
        let ev = ChangeEvent {
            producer: p as u32,
            seq: next_seq[p],
            table: table.clone(),
            op,
        };
        next_seq[p] += 1;
        streams[p].push(RawEvent::encode(&ev));
    }
    Ok(streams)
}

/// Replay logged DML directly against a database — the one-shot
/// baseline run (no queue, no batching, no admission).
///
/// # Errors
/// Storage errors (unknown table, duplicate key…) — the log must be
/// replayable against this database's state.
pub fn apply_log(db: &mut Database, entries: &[LogEntry]) -> Result<()> {
    for entry in entries {
        match entry {
            LogEntry::Insert { table, row } => db.insert(table, row.clone())?,
            LogEntry::Delete { table, key, .. } => {
                db.delete(table, key)?;
            }
            LogEntry::Update {
                table, key, pre, post,
            } => {
                let assignments: Vec<(usize, Value)> = pre
                    .0
                    .iter()
                    .zip(post.0.iter())
                    .enumerate()
                    .filter(|(_, (a, b))| a != b)
                    .map(|(i, (_, b))| (i, b.clone()))
                    .collect();
                if !assignments.is_empty() {
                    db.update(table, key, &assignments)?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use idivm_types::{row, ColumnType, Row, Schema};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "t",
            Schema::from_pairs(&[("id", ColumnType::Int), ("v", ColumnType::Int)], &["id"])
                .unwrap(),
        )
        .unwrap();
        db
    }

    fn ins(id: i64, v: i64) -> LogEntry {
        LogEntry::Insert {
            table: "t".into(),
            row: row![id, v],
        }
    }

    #[test]
    fn same_key_always_same_producer_with_monotone_seqs() {
        let db = db();
        let entries: Vec<LogEntry> = (0..40).map(|i| ins(i % 5, i)).collect();
        let streams = partition_log(&db, &entries, 4).unwrap();
        assert_eq!(streams.iter().map(Vec::len).sum::<usize>(), 40);
        // Each stream's seqs are 0..n and each key lives on one stream.
        let mut key_home: std::collections::HashMap<String, usize> = Default::default();
        for (p, stream) in streams.iter().enumerate() {
            for (i, raw) in stream.iter().enumerate() {
                let ev = raw.decode().unwrap();
                assert_eq!(ev.seq, i as u64);
                let ChangeOp::Insert { row } = &ev.op else {
                    panic!("insert expected")
                };
                let key = format!("{:?}", row.0[0]);
                assert_eq!(*key_home.entry(key).or_insert(p), p);
            }
        }
    }

    #[test]
    fn partitioning_is_deterministic() {
        let db = db();
        let entries: Vec<LogEntry> = (0..20).map(|i| ins(i, i * 10)).collect();
        let a = partition_log(&db, &entries, 3).unwrap();
        let b = partition_log(&db, &entries, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn apply_log_replays_all_dml() {
        let mut d = db();
        let entries = vec![
            ins(1, 10),
            ins(2, 20),
            LogEntry::Update {
                table: "t".into(),
                key: row![1].key(&[0]),
                pre: row![1, 10],
                post: row![1, 11],
            },
            LogEntry::Delete {
                table: "t".into(),
                key: row![2].key(&[0]),
                pre: row![2, 20],
            },
        ];
        apply_log(&mut d, &entries).unwrap();
        let t = d.table("t").unwrap();
        assert_eq!(t.get_uncounted(&row![1].key(&[0])), Some(&Row::new(vec![
            idivm_types::Value::Int(1),
            idivm_types::Value::Int(11)
        ])));
        assert_eq!(t.get_uncounted(&row![2].key(&[0])), None);
    }
}
