//! In-memory spans around the calls the benchmark makes into each
//! layer's public functions. Nothing inside the program is
//! instrumented: a span opens before a call and closes when it returns.
//! Spans are kept in memory and written out once, when the run ends.

use crate::json::escape;
use std::time::Instant;

/// One recorded call. `parent` is the call inside which the program
/// reported doing this work (see [`Tracer::record_within`]); `round` is
/// the cut / tick / engine round it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub round: u64,
    /// The reference kernel's segment the call ran in (see
    /// `reference`): which speed factor applies to it.
    pub segment: u32,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Span recorder of one pass over the stream. A disabled tracer reads
/// no clock and allocates nothing, so the untraced run pays one branch
/// per call site.
pub struct Tracer {
    pass: &'static str,
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    round: u64,
    segment: u32,
    /// Speed factor by segment (see `reference`): summaries state
    /// durations at reference speed; the raw nanoseconds are kept.
    /// Empty until the pass ends.
    factors: Vec<f64>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            pass: "",
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            round: 0,
            segment: 0,
            factors: Vec::new(),
        }
    }

    /// A recording tracer for the pass named `pass`.
    pub fn on(pass: &'static str) -> Self {
        Tracer {
            pass,
            enabled: true,
            ..Tracer::off()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// State every summarised duration at reference speed: `factors[k]`
    /// is the speed factor of segment `k`.
    pub fn set_factors(&mut self, factors: Vec<f64>) {
        self.factors = factors;
    }

    /// Spans recorded from now on belong to round `round` and run in
    /// the reference kernel's segment `segment`.
    pub fn set_round(&mut self, round: u64, segment: u32) {
        self.round = round;
        self.segment = segment;
    }

    fn factor(&self, span: &Span) -> f64 {
        self.factors
            .get(span.segment as usize)
            .copied()
            .unwrap_or(1.0)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Record a call timed by the caller. Returns the span's id.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: None,
            round: self.round,
            segment: self.segment,
        });
        Some(id)
    }

    /// Time `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now());
        out
    }

    /// Record work the program reported having done inside span
    /// `parent` (an engine report's `wall`), laid out from `offset_ns`
    /// after the parent's start. Returns the offset after it.
    pub fn record_within(
        &mut self,
        parent: Option<u32>,
        name: &'static str,
        offset_ns: u64,
        dur_ns: u64,
    ) -> u64 {
        if let Some(p) = parent {
            let (start, round, segment) = {
                let s = &self.spans[p as usize];
                (s.start_ns + offset_ns, s.round, s.segment)
            };
            self.spans.push(Span {
                name,
                start_ns: start,
                end_ns: start + dur_ns,
                parent: Some(p),
                round,
                segment,
            });
        }
        offset_ns + dur_ns
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.us() * self.factor(s))
            .collect()
    }

    /// Summed duration in microseconds of every span named `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum()
    }

    /// Summed self time in microseconds of the spans named `name`: each
    /// span's duration minus the durations of its direct children.
    pub fn self_us(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c) as f64 / 1e3 * self.factor(s))
            .sum()
    }

    /// This pass as a JSON object
    /// `{"pass": .., "segment_factors": [..], "spans": [..]}`; span times
    /// are raw nanoseconds, and a span's time at reference speed is its
    /// raw time multiplied by its segment's factor.
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"round\":{},\"segment\":{}}}",
                    escape(s.name),
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.round,
                    s.segment
                )
            })
            .collect();
        let factors: Vec<String> = self.factors.iter().map(f64::to_string).collect();
        format!(
            "{{\"pass\":\"{}\",\"segment_factors\":[{}],\"spans\":[\n{}\n]}}",
            escape(self.pass),
            factors.join(","),
            spans.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::on("test");
        let t0 = Instant::now();
        t.set_round(7, 1);
        t.set_factors(vec![1.0, 1.0]);
        let tick = t.record("tick", t0, t0 + Duration::from_micros(100));
        let next = t.record_within(tick, "maintain", 0, 30_000);
        t.record_within(tick, "maintain", next, 20_000);
        assert_eq!(t.total_us("tick"), 100.0);
        assert_eq!(t.self_us("tick"), 50.0);
        assert_eq!(t.total_us("maintain"), 50.0);
        assert!(t
            .spans()
            .iter()
            .all(|s| s.round == 7 && s.start_ns <= s.end_ns));
        assert!(crate::json::parse(&t.to_json()).is_ok());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.time("b", || 3), 3);
        assert_eq!(t.record("c", Instant::now(), Instant::now()), None);
        assert!(t.spans().is_empty());
    }
}
