//! Parallel fan-out for the maintenance executor.
//!
//! The propagation phase of a maintenance round is read-only over the
//! database: every per-row rule consumes diff rows and *probes* base
//! tables and caches, mutating nothing until the serial Apply step. So
//! a batch can be cut into `P` contiguous chunks, the unchanged rule run
//! on each chunk on a scoped worker thread, and the chunk outputs
//! concatenated in input order — the serial output, in the serial
//! order ([`ParallelConfig::fan_out`]). A batch is anything that can be
//! cut that way ([`Batch`]): a `Vec`, an i-diff instance, a t-diff set.
//!
//! Access counts are preserved *bit-identically* for any `P`: each item
//! triggers exactly the probes it would trigger serially, and the
//! workers add into the same two counters
//! ([`AccessStats`](idivm_reldb::AccessStats)).

use idivm_types::{Error, Result};

/// Upper bound on [`ParallelConfig::threads`]: beyond this a config is
/// a typo or an attack, not a machine — `std::thread::scope` would try
/// to spawn them all and die on resource exhaustion.
pub const MAX_THREADS: usize = 4096;

/// A batch [`ParallelConfig::fan_out`] can cut into contiguous chunks.
pub trait Batch: Sized {
    /// Number of items in the batch.
    fn items(&self) -> usize;
    /// Split the batch in two at `at`, keeping `[0, at)` and returning
    /// the rest, like [`Vec::split_off`].
    fn split_off(&mut self, at: usize) -> Self;
}

impl<T> Batch for Vec<T> {
    fn items(&self) -> usize {
        self.len()
    }

    fn split_off(&mut self, at: usize) -> Self {
        Vec::split_off(self, at)
    }
}

/// Configuration for partitioned (multi-threaded) delta propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads to fan diff batches out to. `1` means serial
    /// execution (no threads spawned). Must be in `1..=MAX_THREADS` —
    /// engines reject other values with [`Error::Config`] at
    /// construction time (see [`ParallelConfig::validate`]).
    pub threads: usize,
    /// Batches smaller than this stay serial: spawning threads for a
    /// handful of diff rows costs more than it saves.
    pub min_shard_rows: usize,
}

impl ParallelConfig {
    /// Serial execution (the engine's historical behavior).
    pub fn serial() -> Self {
        ParallelConfig {
            threads: 1,
            min_shard_rows: 16,
        }
    }

    /// Fan out to `threads` workers (per-batch threshold at the
    /// default `min_shard_rows`). The value is taken verbatim;
    /// engines validate it at construction ([`ParallelConfig::validate`]).
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig {
            threads,
            min_shard_rows: 16,
        }
    }

    /// Reject nonsensical configurations with a typed error instead of
    /// silently coercing (`threads == 0`) or letting
    /// `std::thread::scope` blow up (`threads > MAX_THREADS`).
    ///
    /// # Errors
    /// [`Error::Config`] unless `1 <= threads <= MAX_THREADS`.
    pub fn validate(&self) -> Result<()> {
        if self.threads == 0 {
            return Err(Error::Config(
                "ParallelConfig.threads must be >= 1 (0 would mean no workers at all; \
                 use threads = 1 for serial execution)"
                    .into(),
            ));
        }
        if self.threads > MAX_THREADS {
            return Err(Error::Config(format!(
                "ParallelConfig.threads = {} exceeds the maximum of {MAX_THREADS}",
                self.threads
            )));
        }
        Ok(())
    }

    /// Run `f` over `batch` and return its outputs in input order.
    ///
    /// Inline on the caller's thread when `threads == 1` or the batch
    /// is below `min_shard_rows`. Otherwise the batch is cut into at
    /// most `threads` contiguous chunks, each runs on a scoped worker,
    /// and the chunk outputs are concatenated in chunk order. The scope
    /// joins every worker before this returns, so an
    /// [`AccessStats`](idivm_reldb::AccessStats) snapshot taken after
    /// the call is exact — the per-operator trace, which snapshots
    /// around each rule on the serial plan walk, relies on that.
    ///
    /// # Errors
    /// The first error in input order.
    pub fn fan_out<B, O, F>(&self, batch: B, f: F) -> Result<Vec<O>>
    where
        B: Batch + Send,
        O: Send,
        F: Fn(B) -> Result<Vec<O>> + Sync,
    {
        let n = batch.items();
        if self.threads <= 1 || n < self.min_shard_rows.max(2) {
            return f(batch);
        }
        // Cut from the back, so each item moves once.
        let size = n.div_ceil(self.threads);
        let mut rest = batch;
        let mut chunks = Vec::with_capacity(self.threads);
        for at in (size..n).step_by(size).rev() {
            chunks.push(rest.split_off(at));
        }
        chunks.push(rest);
        let f = &f;
        std::thread::scope(|scope| {
            let workers: Vec<_> = chunks
                .into_iter()
                .rev()
                .map(|chunk| scope.spawn(move || f(chunk)))
                .collect();
            let mut out = Vec::new();
            for worker in workers {
                // A worker panic is not an `Err` we can type: re-raise
                // it on the coordinating thread instead of unwrapping.
                out.extend(worker.join().unwrap_or_else(|p| std::panic::resume_unwind(p))?);
            }
            Ok(out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(threads: usize, min_shard_rows: usize) -> ParallelConfig {
        ParallelConfig {
            threads,
            min_shard_rows,
        }
    }

    /// Two outputs per item, so a chunk boundary that lost or reordered
    /// an item shows in the concatenation.
    fn twice(chunk: Vec<u64>) -> Result<Vec<u64>> {
        Ok(chunk.into_iter().flat_map(|x| [x, 10 * x]).collect())
    }

    #[test]
    fn fan_out_equals_the_serial_output_in_order() {
        for p in [1, 2, 3, 4, 8] {
            for n in [0, 1, p - 1, p, p + 1, 17, 1000] {
                let items: Vec<u64> = (0..n as u64).collect();
                let serial = twice(items.clone()).unwrap();
                for min in [1, 2, 16] {
                    let got = config(p, min).fan_out(items.clone(), twice).unwrap();
                    assert_eq!(got, serial, "P={p} n={n} min_shard_rows={min}");
                }
            }
        }
    }

    #[test]
    fn fan_out_returns_the_first_error_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for p in [1, 2, 4, 8] {
            let err = config(p, 1)
                .fan_out(items.clone(), |chunk| match chunk.iter().find(|&&x| x % 30 == 29) {
                    Some(x) => Err(Error::Internal(format!("bad {x}"))),
                    None => twice(chunk),
                })
                .unwrap_err();
            assert_eq!(err.to_string(), Error::Internal("bad 29".into()).to_string());
        }
    }

    #[test]
    fn below_the_threshold_f_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let on_caller = |chunk: Vec<u64>| Ok(vec![(chunk.len(), std::thread::current().id())]);
        for (p, min, n) in [(1, 1, 100), (4, 16, 15), (4, 1, 1), (4, 2, 0)] {
            let ran = config(p, min).fan_out((0..n).collect(), on_caller).unwrap();
            assert_eq!(ran, vec![(n as usize, caller)], "P={p} min={min} n={n}");
        }
        let ran = config(4, 16).fan_out((0..16).collect(), on_caller).unwrap();
        assert_eq!(ran.len(), 4);
        assert!(ran.iter().all(|&(len, id)| len == 4 && id != caller));
    }

    #[test]
    fn validate_rejects_zero_and_absurd_thread_counts() {
        assert!(matches!(
            ParallelConfig::with_threads(0).validate(),
            Err(Error::Config(_))
        ));
        assert!(matches!(
            ParallelConfig::with_threads(MAX_THREADS + 1).validate(),
            Err(Error::Config(_))
        ));
        assert!(ParallelConfig::with_threads(1).validate().is_ok());
        assert!(ParallelConfig::with_threads(MAX_THREADS).validate().is_ok());
        assert!(ParallelConfig::serial().validate().is_ok());
    }
}
