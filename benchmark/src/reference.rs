//! A reference kernel that measures how fast the host is right now.
//!
//! This sandbox's speed wanders by up to a factor of two in phases that
//! last from a fraction of a second to minutes (neighbours on the same
//! cores), which is longer than a run, so no statistic over one run's
//! repetitions removes it: ten plain runs of one workload spread by
//! ~50 %. The kernel below does a fixed amount of work of the same kind
//! the program does — ordered-map lookups, inserts and removes of small
//! heap-allocated keys and rows — in slices of ~3 ms interleaved with
//! the measured work: one about every 40 ms, between rounds, outside
//! every timed call. Each stretch of measured work between two slices
//! (a segment) is multiplied by the nominal slice time over the mean of
//! the two slices around it, so every time is stated at reference
//! speed. The overall factor is printed with every run so the raw times
//! can be had back. Of the kernels tried (this one, the same over a
//! 30 MB map, random reads over 64 MB) this one tracked the workloads'
//! own slow-downs best; see the README for what it leaves.
//!
//! The kernel uses only `std`, so no change to the program moves it.

use crate::stats::{mean, median};
use std::collections::BTreeMap;
use std::time::Instant;

/// Map operations per slice.
const SLICE_OPS: usize = 4_000;
/// Keys the kernel's map ranges over (about half are present).
const KEYS: u64 = 50_000;
/// What one slice takes at reference speed, in microseconds: the median
/// seen on the host the benchmark was sized on.
const NOMINAL_SLICE_US: f64 = 3_400.0;
/// Least microseconds of measured work between two interleaved slices.
const EVERY_US: f64 = 40_000.0;
/// Slices run back to back on each side of a call too long to interleave
/// (see [`Reference::bracket`]); the first `BRACKET_COLD` of each side
/// run on cold caches and are left out.
const BRACKET_SLICES: usize = 8;
const BRACKET_COLD: usize = 2;
/// What a back-to-back (warm) slice takes at reference speed: an
/// interleaved slice always follows other work and starts cold, a warm
/// one took 0.495 of it (median of 336 brackets on the sizing host).
const NOMINAL_WARM_SLICE_US: f64 = 1_700.0;

/// A duration in microseconds and the segment it was measured in.
pub type Sample = (f64, u32);

/// The reference kernel's state and what it has timed: slice `k` took
/// `slices_us[k]` and closed segment `k`, the `segments_us[k]` of other
/// work since slice `k - 1` ended.
pub struct Reference {
    map: BTreeMap<Vec<i64>, Vec<i64>>,
    rng: u64,
    slices_us: Vec<f64>,
    segments_us: Vec<f64>,
    last: Instant,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Build the kernel's map (untimed).
    pub fn new() -> Self {
        let map = (0..KEYS as i64 / 2)
            .map(|k| (vec![k * 2], vec![k, k, k, k]))
            .collect();
        Reference {
            map,
            rng: 0x2545_f491_4f6c_dd1d,
            slices_us: Vec::new(),
            segments_us: Vec::new(),
            last: Instant::now(),
        }
    }

    /// The kernel: a fixed number of map operations. Returns when it
    /// started and ended.
    fn kernel(&mut self) -> (Instant, Instant) {
        let started = Instant::now();
        let mut sum = 0i64;
        for _ in 0..SLICE_OPS {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            let k = (self.rng % KEYS) as i64;
            let key = vec![k];
            if let Some(row) = self.map.get(&key) {
                sum += row.clone()[1];
                self.map.remove(&key);
            } else {
                self.map.insert(key, vec![k, k + 1, k + 2, k + 3]);
            }
        }
        std::hint::black_box(sum);
        (started, Instant::now())
    }

    /// Run one slice: close the current segment and time the kernel.
    pub fn slice(&mut self) {
        let (started, ended) = self.kernel();
        self.segments_us
            .push(started.duration_since(self.last).as_secs_f64() * 1e6);
        self.slices_us
            .push(ended.duration_since(started).as_secs_f64() * 1e6);
        self.last = ended;
    }

    /// Time one call that no slice can run inside (`Durable::open`) and
    /// return what it made with its length in seconds at reference
    /// speed. Eight slices run back to back before it and eight after.
    /// The first two of each side find the caches cold after other work
    /// and take about twice as long as the rest, so mixing them in makes
    /// the factor jump; the median of the twelve warm ones is compared
    /// with the nominal warm slice. They belong to no window and are not
    /// kept as segments.
    pub fn bracket<T>(&mut self, call: impl FnOnce() -> T) -> (T, f64) {
        let mut warm = Vec::with_capacity(2 * (BRACKET_SLICES - BRACKET_COLD));
        let mut side = |r: &mut Reference| {
            for k in 0..BRACKET_SLICES {
                let (started, ended) = r.kernel();
                if k >= BRACKET_COLD {
                    warm.push(ended.duration_since(started).as_secs_f64() * 1e6);
                }
            }
        };
        side(self);
        let started = Instant::now();
        let made = call();
        let raw_s = started.elapsed().as_secs_f64();
        side(self);
        self.last = Instant::now();
        (made, raw_s * NOMINAL_WARM_SLICE_US / median(&warm))
    }

    /// Run a slice if 40 ms of work have passed since the last one.
    /// Call between rounds, when no event is in flight.
    pub fn tick(&mut self) {
        if self.last.elapsed().as_secs_f64() * 1e6 >= EVERY_US {
            self.slice();
        }
    }

    /// The segment now open; a sample measured now carries it.
    pub fn segment(&self) -> u32 {
        self.slices_us.len() as u32
    }

    /// Reference speed over the speed seen while segment `k` ran: the
    /// nominal slice time over the mean of the slices around it.
    fn factor(&self, k: usize) -> f64 {
        let around = &self.slices_us[k.saturating_sub(1)..(k + 1).min(self.slices_us.len())];
        if around.is_empty() {
            1.0
        } else {
            NOMINAL_SLICE_US / mean(around)
        }
    }

    /// Open a timed window: a slice runs, and the window is every
    /// segment after it. Returns the first such segment.
    pub fn open_window(&mut self) -> usize {
        self.slice();
        self.slices_us.len()
    }

    /// Close the window opened at segment `first`: a slice runs, and the
    /// window's length comes back in seconds, raw and at reference
    /// speed. Time spent inside slices is in neither.
    pub fn close_window(&mut self, first: usize) -> (f64, f64) {
        self.slice();
        let mut raw = 0.0;
        let mut at_reference = 0.0;
        for k in first..self.segments_us.len() {
            raw += self.segments_us[k];
            at_reference += self.segments_us[k] * self.factor(k);
        }
        (raw / 1e6, at_reference / 1e6)
    }

    /// The speed factor of every segment so far, by segment.
    pub fn factors(&self) -> Vec<f64> {
        (0..=self.slices_us.len()).map(|k| self.factor(k)).collect()
    }

    /// Run `work` as a window of its own and return what it made with
    /// the window's length in seconds at reference speed. `work` should
    /// call [`Reference::slice`] between its steps.
    pub fn window<T>(&mut self, work: impl FnOnce(&mut Reference) -> T) -> (T, f64) {
        let first = self.open_window();
        let made = work(self);
        (made, self.close_window(first).1)
    }

    /// Samples at reference speed, each by its own segment's factor.
    pub fn at_reference(&self, samples: &[Sample]) -> Vec<f64> {
        samples
            .iter()
            .map(|(us, k)| us * self.factor(*k as usize))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_the_segments_between_slices() {
        let mut r = Reference::new();
        for _ in 0..3 {
            r.slice();
        }
        let first = r.open_window();
        assert_eq!((first, r.segment()), (4, 4));
        std::thread::sleep(std::time::Duration::from_millis(5));
        r.tick();
        let (raw, at_reference) = r.close_window(first);
        assert!((0.005..0.5).contains(&raw), "raw {raw}");
        assert!(at_reference > 0.0 && at_reference.is_finite());
        let scaled = r.at_reference(&[(100.0, 4), (100.0, 0)]);
        assert!(scaled.iter().all(|us| *us > 0.0 && us.is_finite()));
        // The map stays about half full: the work per slice is steady.
        assert!((20_000..30_000).contains(&r.map.len()));
    }

    #[test]
    fn a_bracketed_call_is_in_no_segment() {
        let mut r = Reference::new();
        r.slice();
        let (made, s) = r.bracket(|| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            7
        });
        assert_eq!(made, 7);
        assert!(s > 0.0005 && s.is_finite(), "{s}");
        assert_eq!(r.segment(), 1);
        r.slice();
        // The segment after the bracket starts when the bracket ended.
        assert!(r.segments_us[1] < 5_000.0, "{}", r.segments_us[1]);
    }
}
