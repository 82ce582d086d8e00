//! Deterministic virtual-tick firehose driver.
//!
//! Replays pre-generated per-producer event streams against an
//! [`IngestPipeline`] on a **virtual tick clock** — no wall time, no
//! OS scheduling, so every run with the same inputs is bit-identical
//! (queue order, batch boundaries, DLQ bytes, everything). The model:
//!
//! * Each tick, up to `offers_per_tick` events arrive, taken
//!   round-robin across producers. A producer whose event got
//!   [`SendOutcome::WouldBlock`] keeps it at the front of its stream
//!   and re-offers next tick (backpressure slows arrival consumption;
//!   with a shedding queue the event is dropped and counted instead).
//! * The maintainer is busy for a while after each cut:
//!   `1 + admitted / service_rate` ticks, during which arrivals
//!   continue but no cut happens. This is what makes overload *real* —
//!   at high offered rates the queue fills while the maintainer works,
//!   backpressure or shedding kicks in, and the adaptive batcher
//!   stretches batches toward the staleness SLO.
//! * Ingest faults don't stop the stream: the error is recorded, the
//!   event/batch stays pending (see the pipeline's rollback contract),
//!   and the next tick retries.
//!
//! The driver records everything the firehose grid reports: per-event
//! latency samples, queue-depth time series, cut causes, shed/DLQ
//! counts, and injected-fault sightings.

use crate::event::RawEvent;
use crate::pipeline::{IngestOutcome, IngestPipeline};
use crate::queue::SendOutcome;
use idivm_sched::MaintenanceScheduler;
use idivm_types::Result;
use std::collections::VecDeque;

/// Arrival/service shape of one simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriveConfig {
    /// Events offered per tick across all producers (round-robin).
    pub offers_per_tick: usize,
    /// Admitted events the maintainer folds per busy tick after a cut
    /// (the service rate; higher = faster consumer).
    pub service_rate: u64,
    /// Hard stop: give up if the stream hasn't drained by this many
    /// ticks (guards against a mis-configured policy never cutting).
    pub max_ticks: u64,
}

impl Default for DriveConfig {
    fn default() -> Self {
        DriveConfig {
            offers_per_tick: 8,
            service_rate: 32,
            max_ticks: 1_000_000,
        }
    }
}

/// Everything one simulated run observed.
#[derive(Debug, Clone, Default)]
pub struct DriveStats {
    /// Virtual ticks the run took.
    pub ticks: u64,
    /// Events consumed from the streams (enqueued or shed). A
    /// `WouldBlock` re-offer does not recount the event.
    pub offered: u64,
    /// Events admitted across all cuts.
    pub admitted: u64,
    /// Events dead-lettered across all cuts.
    pub dead_lettered: u64,
    /// Events shed by the queue.
    pub shed: u64,
    /// Batches cut, with causes, batch sizes, and queue depth at cut,
    /// in cut order.
    pub cuts: Vec<(String, usize, u64)>,
    /// Per-event queue→cut latency samples, in ticks.
    pub latencies_ticks: Vec<u64>,
    /// Queue depth sampled at the end of every tick.
    pub depth_series: Vec<u64>,
    /// Injected-fault errors observed (and retried past), in order.
    pub fault_sightings: Vec<String>,
}

impl DriveStats {
    /// Percentile over the latency samples (nearest-rank). `None`
    /// when no events completed.
    pub fn latency_percentile(&self, p: f64) -> Option<u64> {
        if self.latencies_ticks.is_empty() {
            return None;
        }
        let mut sorted = self.latencies_ticks.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.clamp(1, sorted.len()) - 1])
    }

    /// Maximum depth in the sampled series.
    pub fn max_depth(&self) -> u64 {
        self.depth_series.iter().copied().max().unwrap_or(0)
    }

    /// Sustained throughput: admitted events per tick.
    pub fn events_per_tick(&self) -> f64 {
        if self.ticks == 0 {
            return 0.0;
        }
        self.admitted as f64 / self.ticks as f64
    }
}

/// Drive pre-generated producer streams through the pipeline until
/// everything is consumed (admitted, dead-lettered, or shed), then
/// flush. Returns the observation record; the pipeline retains the
/// DLQ and totals for inspection.
///
/// # Errors
/// Scheduler/catalog errors only — ingest faults are recorded in
/// [`DriveStats::fault_sightings`] and retried, never fatal.
pub fn drive(
    pipeline: &mut IngestPipeline,
    sched: &mut MaintenanceScheduler,
    streams: Vec<Vec<RawEvent>>,
    config: DriveConfig,
) -> Result<DriveStats> {
    let mut stats = DriveStats::default();
    let mut streams: Vec<VecDeque<RawEvent>> =
        streams.into_iter().map(VecDeque::from).collect();
    let mut now: u64 = 0;
    let mut busy_until: u64 = 0;
    let mut next_producer = 0usize;
    while streams.iter().any(|s| !s.is_empty()) || pipeline.queue().depth() > 0 {
        now += 1;
        if now > config.max_ticks {
            break;
        }
        // Arrivals: round-robin across producers with a per-tick cap.
        let mut offers_left = config.offers_per_tick;
        let mut stalled = 0usize;
        while offers_left > 0 && stalled < streams.len() {
            let idx = next_producer % streams.len().max(1);
            next_producer += 1;
            let Some(ev) = streams[idx].front().cloned() else {
                stalled += 1;
                continue;
            };
            match pipeline.offer(now, &ev) {
                Ok(SendOutcome::Enqueued) => {
                    streams[idx].pop_front();
                    stats.offered += 1;
                    offers_left -= 1;
                    stalled = 0;
                }
                Ok(SendOutcome::Shed) => {
                    // Dropped and counted by the queue; the producer
                    // moves on.
                    streams[idx].pop_front();
                    stats.offered += 1;
                    offers_left -= 1;
                    stalled = 0;
                }
                Ok(SendOutcome::WouldBlock) => {
                    // Backpressure: the producer keeps the event and
                    // stops offering this tick.
                    stalled += 1;
                }
                Err(e) => {
                    // Enqueue fault: producer retains the event,
                    // retries next tick (the failpoint is single-shot).
                    stats.fault_sightings.push(e.to_string());
                    stalled += 1;
                }
            }
        }
        // Service: cut when free and the batcher says so.
        if now >= busy_until {
            match pipeline.poll(now, sched) {
                Ok(Some(outcome)) => {
                    record_cut(&mut stats, &outcome);
                    busy_until = now + 1 + outcome.trace.admitted / config.service_rate.max(1);
                }
                Ok(None) => {}
                Err(e) if e.retryable() || matches!(e, idivm_types::Error::Poison(_)) => {
                    stats.fault_sightings.push(e.to_string());
                }
                Err(e) => return Err(e),
            }
        }
        stats.depth_series.push(pipeline.queue().depth() as u64);
    }
    // End of stream: drain the tail.
    loop {
        now += 1;
        match pipeline.flush(now, sched) {
            Ok(Some(outcome)) => record_cut(&mut stats, &outcome),
            Ok(None) => break,
            Err(e) if e.retryable() || matches!(e, idivm_types::Error::Poison(_)) => {
                stats.fault_sightings.push(e.to_string());
            }
            Err(e) => return Err(e),
        }
    }
    stats.ticks = now;
    let totals = pipeline.totals();
    stats.admitted = totals.admitted;
    stats.dead_lettered = totals.dead_lettered;
    stats.shed = totals.shed;
    Ok(stats)
}

fn record_cut(stats: &mut DriveStats, outcome: &IngestOutcome) {
    stats.cuts.push((
        outcome.trace.cut_cause.to_string(),
        outcome.batch_events,
        outcome.trace.queue_depth_at_cut,
    ));
    stats.latencies_ticks.extend(&outcome.latencies_ticks);
}
