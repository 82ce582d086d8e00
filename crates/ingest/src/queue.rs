//! Bounded multi-producer admission queue with real backpressure.
//!
//! The queue holds wire-encoded [`RawEvent`]s between producers and
//! the micro-batcher. It is bounded by `capacity`; what happens at the
//! bound is the [`OverflowPolicy`]:
//!
//! * **Block** — the producer waits (or, on the non-blocking path,
//!   gets [`SendOutcome::WouldBlock`] and keeps the event). Nothing is
//!   ever lost; producers slow to the consumer's pace.
//! * **Shed** — the event is dropped *and counted*. Sheds are never
//!   silent: the running total feeds every cut's
//!   [`IngestTrace`](idivm_core::IngestTrace) and the firehose report.
//!
//! Watermarks give the system hysteresis and an overload signal:
//! producers blocked at the full mark are only woken once the drain
//! brings the depth back to `low_watermark` (so they don't thrash one
//! slot at a time), and the batcher treats `depth >= high_watermark`
//! as overload (see
//! [`MicroBatcher::decide`](crate::batcher::MicroBatcher::decide)).
//!
//! The armed [`FaultState`]'s [`FaultSite::Enqueue`] hook fires
//! **before** the event is buffered, so on `Err` the producer still
//! owns the event and can retry it — the CI fault sweep relies on that.

use crate::event::RawEvent;
use idivm_core::{FaultSite, FaultState};
use idivm_types::{Error, Result};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// What to do with a new event when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Apply backpressure: block (or report `WouldBlock`) until the
    /// drain frees space. The default.
    #[default]
    Block,
    /// Drop the new event and count the shed.
    Shed,
}

impl OverflowPolicy {
    /// Stable lowercase label (reports and JSON).
    pub fn label(self) -> &'static str {
        match self {
            OverflowPolicy::Block => "block",
            OverflowPolicy::Shed => "shed",
        }
    }
}

/// Queue sizing and overflow behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Hard bound on buffered events.
    pub capacity: usize,
    /// Depth at or above which the batcher treats the system as
    /// overloaded (stretching batch age toward the staleness SLO).
    pub high_watermark: usize,
    /// Depth at or below which blocked producers are woken after a
    /// drain (hysteresis: no one-slot thrashing at the full mark).
    pub low_watermark: usize,
    /// What happens to a new event when the queue is full.
    pub policy: OverflowPolicy,
}

impl QueueConfig {
    /// A config with conventional watermarks: high at 3/4 capacity,
    /// low at 1/4.
    pub fn with_capacity(capacity: usize, policy: OverflowPolicy) -> Self {
        QueueConfig {
            capacity,
            high_watermark: capacity.saturating_mul(3) / 4,
            low_watermark: capacity / 4,
            policy,
        }
    }

    /// Check `low <= high <= capacity` and a non-zero capacity.
    ///
    /// # Errors
    /// [`Error::Config`] describing the violated constraint.
    pub fn validate(&self) -> Result<()> {
        if self.capacity == 0 {
            return Err(Error::Config("queue capacity must be > 0".into()));
        }
        if self.low_watermark > self.high_watermark || self.high_watermark > self.capacity {
            return Err(Error::Config(format!(
                "watermarks must satisfy low <= high <= capacity, got {} <= {} <= {}",
                self.low_watermark, self.high_watermark, self.capacity
            )));
        }
        Ok(())
    }
}

/// Counters accumulated over the queue's lifetime. Reads are
/// monotone; the pipeline diffs `shed` between cuts to attribute sheds
/// to batches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events successfully buffered.
    pub enqueued: u64,
    /// Events dropped under [`OverflowPolicy::Shed`] (counted, never
    /// silent).
    pub shed: u64,
    /// Maximum depth ever observed.
    pub max_depth: u64,
}

/// Outcome of a non-blocking send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The event is buffered.
    Enqueued,
    /// The queue was full under [`OverflowPolicy::Shed`]; the event
    /// was dropped and the shed counted.
    Shed,
    /// The queue was full under [`OverflowPolicy::Block`]; the caller
    /// keeps the event and should retry later.
    WouldBlock,
}

struct Inner {
    buf: Mutex<VecDeque<RawEvent>>,
    not_full: Condvar,
    enqueued: AtomicU64,
    shed: AtomicU64,
    max_depth: AtomicU64,
}

/// The bounded MPSC event queue. Cloning shares the same buffer —
/// hand clones to producer threads.
#[derive(Clone)]
pub struct EventQueue {
    inner: Arc<Inner>,
    config: QueueConfig,
    faults: Arc<FaultState>,
}

impl EventQueue {
    /// Build a queue over a validated config, sharing the ingest
    /// fault state (the enqueue failpoint lives here).
    ///
    /// # Errors
    /// [`Error::Config`] from [`QueueConfig::validate`].
    pub fn new(config: QueueConfig, faults: Arc<FaultState>) -> Result<Self> {
        config.validate()?;
        Ok(EventQueue {
            inner: Arc::new(Inner {
                buf: Mutex::new(VecDeque::with_capacity(config.capacity)),
                not_full: Condvar::new(),
                enqueued: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                max_depth: AtomicU64::new(0),
            }),
            config,
            faults,
        })
    }

    /// The active config.
    pub fn config(&self) -> QueueConfig {
        self.config
    }

    /// Current buffered depth.
    pub fn depth(&self) -> usize {
        match self.inner.buf.lock() {
            Ok(buf) => buf.len(),
            Err(poisoned) => poisoned.into_inner().len(),
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            enqueued: self.inner.enqueued.load(Ordering::Relaxed),
            shed: self.inner.shed.load(Ordering::Relaxed),
            max_depth: self.inner.max_depth.load(Ordering::Relaxed),
        }
    }

    fn note_depth(&self, depth: usize) {
        self.inner.max_depth.fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Non-blocking send — the virtual-tick driver's path. The enqueue
    /// failpoint fires before buffering.
    ///
    /// # Errors
    /// An armed [`FaultSite::Enqueue`](idivm_core::FaultSite) fault;
    /// the caller still owns the event and may retry it.
    pub fn try_send(&self, ev: &RawEvent) -> Result<SendOutcome> {
        self.faults.hit(FaultSite::Enqueue, "")?;
        let mut buf = match self.inner.buf.lock() {
            Ok(b) => b,
            Err(poisoned) => poisoned.into_inner(),
        };
        if buf.len() >= self.config.capacity {
            return Ok(match self.config.policy {
                OverflowPolicy::Block => SendOutcome::WouldBlock,
                OverflowPolicy::Shed => {
                    self.inner.shed.fetch_add(1, Ordering::Relaxed);
                    SendOutcome::Shed
                }
            });
        }
        buf.push_back(ev.clone());
        self.inner.enqueued.fetch_add(1, Ordering::Relaxed);
        let depth = buf.len();
        drop(buf);
        self.note_depth(depth);
        Ok(SendOutcome::Enqueued)
    }

    /// Blocking send — the real-thread producer path. Under
    /// [`OverflowPolicy::Block`] this waits (bounded by `patience` per
    /// wait round) until the drain frees space; under
    /// [`OverflowPolicy::Shed`] it never blocks.
    ///
    /// # Errors
    /// An armed enqueue fault (the caller still owns the event), or
    /// [`Error::Config`] if the queue stayed full past `patience`
    /// (deadlock guard — the consumer is gone).
    pub fn send(&self, ev: &RawEvent, patience: Duration) -> Result<SendOutcome> {
        self.faults.hit(FaultSite::Enqueue, "")?;
        let mut buf = match self.inner.buf.lock() {
            Ok(b) => b,
            Err(poisoned) => poisoned.into_inner(),
        };
        while buf.len() >= self.config.capacity {
            match self.config.policy {
                OverflowPolicy::Shed => {
                    self.inner.shed.fetch_add(1, Ordering::Relaxed);
                    return Ok(SendOutcome::Shed);
                }
                OverflowPolicy::Block => {
                    let (b, timed_out) = match self.inner.not_full.wait_timeout(buf, patience) {
                        Ok((b, t)) => (b, t.timed_out()),
                        Err(poisoned) => {
                            let (b, t) = poisoned.into_inner();
                            (b, t.timed_out())
                        }
                    };
                    buf = b;
                    if timed_out && buf.len() >= self.config.capacity {
                        return Err(Error::Config(format!(
                            "producer blocked past {patience:?} on a full queue (depth {})",
                            buf.len()
                        )));
                    }
                }
            }
        }
        buf.push_back(ev.clone());
        self.inner.enqueued.fetch_add(1, Ordering::Relaxed);
        let depth = buf.len();
        drop(buf);
        self.note_depth(depth);
        Ok(SendOutcome::Enqueued)
    }

    /// Drain every buffered event (a batch cut). Blocked producers are
    /// woken only if the post-drain depth is at or below the low
    /// watermark — which after a full drain it always is.
    pub fn drain_all(&self) -> Vec<RawEvent> {
        let mut buf = match self.inner.buf.lock() {
            Ok(b) => b,
            Err(poisoned) => poisoned.into_inner(),
        };
        let out: Vec<RawEvent> = buf.drain(..).collect();
        let depth = buf.len();
        drop(buf);
        if depth <= self.config.low_watermark {
            self.inner.not_full.notify_all();
        }
        out
    }

    /// Put events back at the *front* in their original order — the
    /// rollback path after a mid-batch fault. The events become
    /// pending again exactly as they were; depth may transiently
    /// exceed nothing (they came from this queue).
    pub fn requeue_front(&self, events: Vec<RawEvent>) {
        let mut buf = match self.inner.buf.lock() {
            Ok(b) => b,
            Err(poisoned) => poisoned.into_inner(),
        };
        for ev in events.into_iter().rev() {
            buf.push_front(ev);
        }
        let depth = buf.len();
        drop(buf);
        self.note_depth(depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idivm_core::FaultPlan;

    fn raw(n: u64) -> RawEvent {
        RawEvent {
            wire: format!("0|{n}|t|ins|i:{n}"),
        }
    }

    fn queue(capacity: usize, policy: OverflowPolicy) -> EventQueue {
        EventQueue::new(
            QueueConfig::with_capacity(capacity, policy),
            Arc::new(FaultState::new(FaultPlan::disabled())),
        )
        .unwrap()
    }

    #[test]
    fn bounded_with_shed_counts_drops() {
        let q = queue(2, OverflowPolicy::Shed);
        assert_eq!(q.try_send(&raw(0)).unwrap(), SendOutcome::Enqueued);
        assert_eq!(q.try_send(&raw(1)).unwrap(), SendOutcome::Enqueued);
        assert_eq!(q.try_send(&raw(2)).unwrap(), SendOutcome::Shed);
        assert_eq!(q.stats().shed, 1);
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn bounded_with_block_reports_would_block() {
        let q = queue(1, OverflowPolicy::Block);
        assert_eq!(q.try_send(&raw(0)).unwrap(), SendOutcome::Enqueued);
        assert_eq!(q.try_send(&raw(1)).unwrap(), SendOutcome::WouldBlock);
        assert_eq!(q.stats().shed, 0, "blocked events are not sheds");
    }

    #[test]
    fn drain_preserves_fifo_and_requeue_restores_order() {
        let q = queue(8, OverflowPolicy::Block);
        for n in 0..4 {
            q.try_send(&raw(n)).unwrap();
        }
        let drained = q.drain_all();
        assert_eq!(
            drained.iter().map(|e| e.wire.clone()).collect::<Vec<_>>(),
            (0..4).map(|n| raw(n).wire).collect::<Vec<_>>()
        );
        q.requeue_front(drained);
        let again = q.drain_all();
        assert_eq!(
            again.iter().map(|e| e.wire.clone()).collect::<Vec<_>>(),
            (0..4).map(|n| raw(n).wire).collect::<Vec<_>>()
        );
    }

    #[test]
    fn enqueue_fault_fires_before_buffering() {
        let faults = Arc::new(FaultState::new(FaultPlan::at(FaultSite::Enqueue, 1, 7)));
        let q = EventQueue::new(
            QueueConfig::with_capacity(8, OverflowPolicy::Block),
            faults,
        )
        .unwrap();
        q.try_send(&raw(0)).unwrap();
        let err = q.try_send(&raw(1)).unwrap_err();
        assert!(err.retryable(), "enqueue fault defaults transient: {err}");
        assert_eq!(q.depth(), 1, "faulted event was never buffered");
        // Single-shot: the retry goes through.
        assert_eq!(q.try_send(&raw(1)).unwrap(), SendOutcome::Enqueued);
    }

    #[test]
    fn invalid_watermarks_rejected() {
        let cfg = QueueConfig {
            capacity: 4,
            high_watermark: 2,
            low_watermark: 3,
            policy: OverflowPolicy::Block,
        };
        assert!(cfg.validate().is_err());
        assert!(QueueConfig::with_capacity(0, OverflowPolicy::Block)
            .validate()
            .is_err());
    }

    #[test]
    fn blocking_send_wakes_on_drain() {
        let q = queue(2, OverflowPolicy::Block);
        q.try_send(&raw(0)).unwrap();
        q.try_send(&raw(1)).unwrap();
        let q2 = q.clone();
        let producer = std::thread::spawn(move || q2.send(&raw(2), Duration::from_secs(5)));
        // Give the producer a moment to block, then drain.
        std::thread::sleep(Duration::from_millis(20));
        let drained = q.drain_all();
        assert_eq!(drained.len(), 2);
        let outcome = producer.join().expect("producer thread").unwrap();
        assert_eq!(outcome, SendOutcome::Enqueued);
        assert_eq!(q.depth(), 1);
    }
}
