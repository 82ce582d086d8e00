//! Access-count instrumentation — the paper's cost unit.
//!
//! Section 6 of the paper measures IVM cost as "the combined number of
//! tuple accesses and index lookups", with the convention that retrieving
//! the `m` tuples matching an index probe costs `1 + m` (one index lookup
//! plus `m` tuple accesses). [`AccessStats`] counts exactly those two
//! quantities; the executor and DML layer report every data touch here.
//!
//! The two counters are relaxed atomics behind one `Arc` (statistics,
//! not synchronization), so `AccessStats` — and therefore `Database` —
//! is `Send + Sync` and the parallel fan-out's workers can probe tables
//! from scoped threads. Totals stay *exact*: every increment lands in
//! the one counter, whichever thread makes it.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Default)]
struct Counters {
    tuple_accesses: AtomicU64,
    index_lookups: AtomicU64,
}

/// Shared access counters. Cloning shares the underlying counters
/// (`Arc`-based; increments from any thread are summed exactly).
#[derive(Clone, Default)]
pub struct AccessStats {
    inner: Arc<Counters>,
}

/// A point-in-time copy of the counters, used to compute deltas around a
/// measured region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    pub tuple_accesses: u64,
    pub index_lookups: u64,
}

impl StatsSnapshot {
    /// Combined cost in the paper's unit: tuple accesses + index lookups.
    pub fn total(&self) -> u64 {
        self.tuple_accesses + self.index_lookups
    }

    /// Counter-wise difference (`self` must be the later snapshot).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            tuple_accesses: self.tuple_accesses - earlier.tuple_accesses,
            index_lookups: self.index_lookups - earlier.index_lookups,
        }
    }

    /// Counter-wise sum (accumulating phase costs).
    pub fn merge(self, other: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            tuple_accesses: self.tuple_accesses + other.tuple_accesses,
            index_lookups: self.index_lookups + other.index_lookups,
        }
    }
}

impl AccessStats {
    /// Fresh counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` tuple accesses.
    #[inline]
    pub fn tuples(&self, n: u64) {
        self.inner.tuple_accesses.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one index lookup.
    #[inline]
    pub fn index_lookup(&self) {
        self.inner.index_lookups.fetch_add(1, Ordering::Relaxed);
    }

    /// Current counter values. Exact when no other thread is
    /// concurrently incrementing — which holds at every point the
    /// engine snapshots: worker threads are always joined before phase
    /// boundaries.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            tuple_accesses: self.inner.tuple_accesses.load(Ordering::Relaxed),
            index_lookups: self.inner.index_lookups.load(Ordering::Relaxed),
        }
    }

    /// Reset both counters to zero.
    pub fn reset(&self) {
        self.inner.tuple_accesses.store(0, Ordering::Relaxed);
        self.inner.index_lookups.store(0, Ordering::Relaxed);
    }
}

impl fmt::Debug for AccessStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.snapshot();
        write!(
            f,
            "AccessStats {{ tuples: {}, index_lookups: {} }}",
            s.tuple_accesses, s.index_lookups
        )
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} tuple accesses + {} index lookups = {}",
            self.tuple_accesses,
            self.index_lookups,
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate_and_share() {
        let s = AccessStats::new();
        let s2 = s.clone();
        s.tuples(3);
        s2.index_lookup();
        let snap = s.snapshot();
        assert_eq!(snap.tuple_accesses, 3);
        assert_eq!(snap.index_lookups, 1);
        assert_eq!(snap.total(), 4);
    }

    #[test]
    fn reset_zeroes() {
        let s = AccessStats::new();
        s.tuples(5);
        s.reset();
        assert_eq!(s.snapshot().total(), 0);
    }

    #[test]
    fn since_subtracts() {
        let a = StatsSnapshot {
            tuple_accesses: 10,
            index_lookups: 4,
        };
        let b = StatsSnapshot {
            tuple_accesses: 3,
            index_lookups: 1,
        };
        let d = a.since(&b);
        assert_eq!(d.tuple_accesses, 7);
        assert_eq!(d.index_lookups, 3);
    }

    #[test]
    fn stats_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AccessStats>();
    }

    #[test]
    fn cross_thread_increments_sum_exactly() {
        let s = AccessStats::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..1_000 {
                        s.tuples(1);
                        s.index_lookup();
                    }
                });
            }
        });
        let snap = s.snapshot();
        assert_eq!(snap.tuple_accesses, 8_000);
        assert_eq!(snap.index_lookups, 8_000);
    }
}
