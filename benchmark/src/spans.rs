//! The benchmark's own spans: one around every call into the emulator.
//!
//! The tracer always times (the workloads need the durations either
//! way); it keeps the spans only in a traced run, in memory, and the
//! caller writes them out once the run is over. Every call the benchmark
//! can wrap goes into `crystalnet` (`core`), so the records are flat:
//! there is no layer below to subtract until spans exist inside
//! `routing` and `dataplane`.

use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called (`fork`, `apply`, `advance`, …).
    pub name: &'static str,
    /// The operation the call is part of: one id per mockup, rehearsal,
    /// virtual second or sweep.
    pub op: u32,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
}

/// Times calls and, in a traced run, records them.
pub struct Tracer {
    record: bool,
    epoch: Instant,
    spans: Vec<Span>,
    op: u32,
    called: Duration,
}

impl Tracer {
    /// A tracer that records spans only when `record` is set.
    #[must_use]
    pub fn new(record: bool) -> Self {
        Tracer {
            record,
            epoch: Instant::now(),
            spans: Vec::new(),
            op: 0,
            called: Duration::ZERO,
        }
    }

    /// Starts the next operation; calls timed from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Times one call into the emulator.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let at = Instant::now();
        let out = f();
        let took = at.elapsed();
        self.called += took;
        if self.record {
            let start_ns = at.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                op: self.op,
                start_ns,
                end_ns: start_ns + took.as_nanos() as u64,
            });
        }
        (out, took)
    }

    /// The recorded spans, in call order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Share of `pass_wall_s`, the wall of the timed passes, spent
    /// outside every timed call: the benchmark's own loops and checks.
    #[must_use]
    pub fn unattributed_share(&self, pass_wall_s: f64) -> f64 {
        if pass_wall_s <= 0.0 {
            return 0.0;
        }
        (1.0 - self.called.as_secs_f64() / pass_wall_s).max(0.0)
    }
}

/// The spans as a Chrome trace-event document (`chrome://tracing`,
/// Perfetto): complete events, microsecond timestamps.
#[must_use]
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":1,\"args\":{{\"op\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.op,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_tags_operations_and_sums_the_calls() {
        let mut t = Tracer::new(true);
        t.next_op();
        let pass = Instant::now();
        let (v, first) = t.time("fork", || 7);
        t.next_op();
        let ((), second) = t.time("apply", || std::thread::sleep(Duration::from_millis(2)));
        std::thread::sleep(Duration::from_millis(2));
        let wall = pass.elapsed().as_secs_f64();
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(
            spans.iter().map(|s| (s.name, s.op)).collect::<Vec<_>>(),
            [("fork", 1), ("apply", 2)]
        );
        assert!(spans[0].end_ns <= spans[1].start_ns);
        assert_eq!(t.called, first + second);
        // At least the 2 ms slept outside `time` is unattributed.
        let share = t.unattributed_share(wall);
        assert!(share >= 0.002 / wall * 0.99 && share < 1.0, "{share}");
    }

    #[test]
    fn untraced_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let (v, took) = t.time("fork", || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.called, took);
        assert_eq!(t.unattributed_share(0.0), 0.0);
    }

    #[test]
    fn chrome_trace_is_one_event_per_span() {
        let json = chrome_trace_json(&[Span {
            name: "fork",
            op: 3,
            start_ns: 1_000,
            end_ns: 3_000,
        }]);
        assert!(json.contains("\"ts\":1.000,\"dur\":2.000"));
        assert!(json.contains("\"args\":{\"op\":3}"));
    }
}
