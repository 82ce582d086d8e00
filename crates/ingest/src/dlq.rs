//! The dead-letter queue: deterministic quarantine for events that
//! fail admission.
//!
//! Every event the pipeline refuses lands here with its full context:
//! who sent it, its sequence number, the target table, the **cause**,
//! the claimed pre/post images, and the original wire line. Nothing is
//! ever dropped silently — an event either folds into a batch, is
//! counted as shed by the queue, or appears here.
//!
//! **Determinism contract.** Dead letters are appended in admission
//! order, which is queue order, which the deterministic drivers fix
//! independently of any engine parallelism (`ParallelConfig` threads
//! join *inside* maintenance; admission is serial). Two runs over the
//! same event stream therefore produce **byte-identical** DLQ JSON —
//! the ingest tests pin this across runs and across P=1/P=4, mirroring
//! the quarantine-log determinism of the maintenance supervisor.

use crate::event::{ChangeEvent, ChangeOp};
use idivm_types::{Json, Row};

/// Why an event was dead-lettered. Labels are stable; details carry
/// only values derived deterministically from the event and the
/// database state at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeadLetterCause {
    /// The wire line did not decode (structural garbage).
    Decode(String),
    /// The target table does not exist.
    UnknownTable,
    /// A carried row's arity does not match the table schema.
    WrongArity {
        /// Schema arity.
        expected: usize,
        /// Row arity observed.
        got: usize,
    },
    /// A value's type contradicts the schema column type (NULL is
    /// admissible in any column).
    TypeMismatch {
        /// Zero-based column index.
        column: usize,
        /// Schema column type label.
        expected: &'static str,
    },
    /// The producer's sequence jumped forward; admission resyncs its
    /// baseline to just past the gap so the stream keeps flowing.
    SequenceGap {
        /// The sequence number admission expected.
        expected: u64,
    },
    /// The producer's sequence ran backward (duplicate or replay);
    /// the baseline is left unchanged.
    SequenceRegression {
        /// The sequence number admission expected.
        expected: u64,
    },
    /// An insert targeted a key that is already live.
    DuplicateKey,
    /// A delete/update targeted a key with no stored row.
    MissingRow,
    /// The claimed pre-image does not match the stored row (the
    /// producer's view of the table is stale).
    StalePreImage {
        /// The row actually stored at admission time.
        actual: Row,
    },
    /// An update attempted to change key columns (CDC models that as
    /// delete + insert, never as update).
    KeyChanged,
    /// Post-validation storage rejection (defensive; validation should
    /// make this unreachable).
    Storage(String),
}

impl DeadLetterCause {
    /// Stable lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            DeadLetterCause::Decode(_) => "decode",
            DeadLetterCause::UnknownTable => "unknown_table",
            DeadLetterCause::WrongArity { .. } => "wrong_arity",
            DeadLetterCause::TypeMismatch { .. } => "type_mismatch",
            DeadLetterCause::SequenceGap { .. } => "sequence_gap",
            DeadLetterCause::SequenceRegression { .. } => "sequence_regression",
            DeadLetterCause::DuplicateKey => "duplicate_key",
            DeadLetterCause::MissingRow => "missing_row",
            DeadLetterCause::StalePreImage { .. } => "stale_pre_image",
            DeadLetterCause::KeyChanged => "key_changed",
            DeadLetterCause::Storage(_) => "storage",
        }
    }

    /// Deterministic human-readable detail.
    pub fn detail(&self) -> String {
        match self {
            DeadLetterCause::Decode(m) | DeadLetterCause::Storage(m) => m.clone(),
            DeadLetterCause::UnknownTable => "no such table".into(),
            DeadLetterCause::WrongArity { expected, got } => {
                format!("schema arity {expected}, row arity {got}")
            }
            DeadLetterCause::TypeMismatch { column, expected } => {
                format!("column {column} expects {expected}")
            }
            DeadLetterCause::SequenceGap { expected } => {
                format!("expected seq {expected}; baseline resynced past the gap")
            }
            DeadLetterCause::SequenceRegression { expected } => {
                format!("expected seq {expected}; baseline unchanged")
            }
            DeadLetterCause::DuplicateKey => "insert over a live key".into(),
            DeadLetterCause::MissingRow => "no stored row under the key".into(),
            DeadLetterCause::StalePreImage { actual } => {
                format!("stored row is {actual:?}")
            }
            DeadLetterCause::KeyChanged => "update may not move key columns".into(),
        }
    }
}

/// One quarantined event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter {
    /// Producer id (0 when the line didn't decode far enough to know).
    pub producer: u32,
    /// Claimed sequence number (0 when unknown).
    pub seq: u64,
    /// Target table ("" when unknown).
    pub table: String,
    /// Why admission refused the event.
    pub cause: DeadLetterCause,
    /// Claimed pre-image, when the op carried one.
    pub pre: Option<Row>,
    /// Claimed post-image, when the op carried one.
    pub post: Option<Row>,
    /// The original wire line, verbatim — the event is replayable
    /// after repair.
    pub wire: String,
}

impl DeadLetter {
    /// Build a dead letter from a decoded event (images pulled from
    /// the op).
    pub fn from_event(ev: &ChangeEvent, cause: DeadLetterCause, wire: String) -> Self {
        let (pre, post) = match &ev.op {
            ChangeOp::Insert { row } => (None, Some(row.clone())),
            ChangeOp::Delete { pre } => (Some(pre.clone()), None),
            ChangeOp::Update { pre, post } => (Some(pre.clone()), Some(post.clone())),
        };
        DeadLetter {
            producer: ev.producer,
            seq: ev.seq,
            table: ev.table.clone(),
            cause,
            pre,
            post,
            wire,
        }
    }

    /// Build a dead letter for a line that never decoded.
    pub fn from_wire(cause: DeadLetterCause, wire: String) -> Self {
        DeadLetter {
            producer: 0,
            seq: 0,
            table: String::new(),
            cause,
            pre: None,
            post: None,
            wire,
        }
    }

    /// The letter as one inline JSON object (deterministic field order).
    pub fn to_json(&self) -> Json {
        let row = |r: &Option<Row>| -> Json { r.as_ref().map(|r| format!("{r:?}")).into() };
        Json::inline([
            ("producer", self.producer.into()),
            ("seq", self.seq.into()),
            ("table", self.table.as_str().into()),
            ("cause", self.cause.label().into()),
            ("detail", self.cause.detail().into()),
            ("pre", row(&self.pre)),
            ("post", row(&self.post)),
            ("wire", self.wire.as_str().into()),
        ])
    }
}

/// Append-only dead-letter store for one pipeline.
#[derive(Debug, Clone, Default)]
pub struct DeadLetterQueue {
    entries: Vec<DeadLetter>,
}

impl DeadLetterQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Quarantine one event.
    pub fn push(&mut self, letter: DeadLetter) {
        self.entries.push(letter);
    }

    /// All entries in admission order.
    pub fn entries(&self) -> &[DeadLetter] {
        &self.entries
    }

    /// Number of quarantined events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff nothing has been quarantined.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Roll back to an earlier length (mid-batch fault rollback: the
    /// events become pending again, so their dead letters must not
    /// survive the aborted attempt).
    pub fn truncate(&mut self, len: usize) {
        self.entries.truncate(len);
    }

    /// The whole queue as one inline JSON array — what the determinism
    /// tests compare, rendered, across runs and thread counts.
    pub fn to_json(&self) -> Json {
        Json::list(self.entries.iter().map(DeadLetter::to_json))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idivm_types::row;

    fn letter(seq: u64, cause: DeadLetterCause) -> DeadLetter {
        DeadLetter {
            producer: 1,
            seq,
            table: "t".into(),
            cause,
            pre: Some(row![1, "x"]),
            post: None,
            wire: format!("1|{seq}|t|del|i:1,s:x"),
        }
    }

    #[test]
    fn json_is_deterministic_and_tracks_the_entries() {
        let mut a = DeadLetterQueue::new();
        let mut b = DeadLetterQueue::new();
        for q in [&mut a, &mut b] {
            q.push(letter(4, DeadLetterCause::MissingRow));
            q.push(letter(
                9,
                DeadLetterCause::StalePreImage {
                    actual: row![1, "y"],
                },
            ));
        }
        assert_eq!(a.to_json().render(), b.to_json().render());
        b.push(letter(12, DeadLetterCause::DuplicateKey));
        assert_ne!(a.to_json().render(), b.to_json().render());
    }

    #[test]
    fn truncate_rolls_back_the_tail() {
        let mut q = DeadLetterQueue::new();
        q.push(letter(1, DeadLetterCause::UnknownTable));
        let mark = q.len();
        q.push(letter(2, DeadLetterCause::KeyChanged));
        q.truncate(mark);
        assert_eq!(q.len(), 1);
        assert_eq!(q.entries()[0].seq, 1);
    }

    #[test]
    fn json_escapes_hostile_strings() {
        let mut q = DeadLetterQueue::new();
        q.push(DeadLetter::from_wire(
            DeadLetterCause::Decode("bad \"quote\" and \\slash".into()),
            "wire\nline".into(),
        ));
        let j = q.to_json().render();
        assert!(j.contains("bad \\\"quote\\\" and \\\\slash"));
        assert!(j.contains("wire\\nline"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn cause_labels_are_stable() {
        for (cause, label) in [
            (DeadLetterCause::UnknownTable, "unknown_table"),
            (
                DeadLetterCause::WrongArity {
                    expected: 4,
                    got: 3,
                },
                "wrong_arity",
            ),
            (DeadLetterCause::SequenceGap { expected: 7 }, "sequence_gap"),
            (DeadLetterCause::DuplicateKey, "duplicate_key"),
            (DeadLetterCause::KeyChanged, "key_changed"),
        ] {
            assert_eq!(cause.label(), label);
            assert!(!cause.detail().is_empty());
        }
    }
}
