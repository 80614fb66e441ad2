//! The one recorder instrumented code emits through.

use crate::{EventRecord, FieldValue, Profile, RunReport, SpanRecord, TraceRecord, TraceSink};
use crystalnet_sim::SimTime;
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// The recorder: instrumented code emits through it and readers read it.
///
/// It keeps only what nothing else keeps: spans, events, the causal
/// trace and the wall-clock profile. Counts live in the state that makes
/// them (the routing world, the emulation), and the report builders read
/// them from there.
///
/// A recorder is on or off. An on recorder stores every emission in
/// emission order, which the single-threaded engine makes a function of
/// the seed. An off recorder ([`MemRecorder::disabled`]) stores nothing:
/// every emitting method returns at its first branch, and
/// [`enabled`](Self::enabled), [`trace_enabled`](Self::trace_enabled) and
/// [`profiling_enabled`](Self::profiling_enabled) all report `false`, so
/// hot paths can skip preparing emission arguments behind one of them.
///
/// Spans and events must describe the emulated world; wall-clock time
/// goes through `profile_add` and never reaches the canonical report.
#[derive(Debug, Clone, Default)]
pub struct MemRecorder {
    /// Off: nothing is stored. Only [`MemRecorder::disabled`] sets it, and
    /// it builds no trace sink, so an off recorder never traces.
    disabled: bool,
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    trace: Option<TraceSink>,
    profiling: bool,
    profile: BTreeMap<&'static str, (u64, u64)>,
}

impl MemRecorder {
    /// An empty recorder that is on, with causal tracing off.
    #[must_use]
    pub fn new() -> Self {
        MemRecorder::default()
    }

    /// The recorder that is off: it stores nothing and reports nothing
    /// enabled. Clones of it are off too.
    #[must_use]
    pub fn disabled() -> Self {
        MemRecorder {
            disabled: true,
            ..MemRecorder::default()
        }
    }

    /// An empty recorder that is on, with a bounded causal-trace sink.
    /// `capacity == 0` leaves tracing off.
    #[must_use]
    pub fn with_trace_capacity(capacity: usize) -> Self {
        MemRecorder {
            trace: (capacity > 0).then(|| TraceSink::new(capacity)),
            ..MemRecorder::default()
        }
    }

    /// Turns wall-clock profiling on (builder-style) for a recorder that
    /// is on. Profiled runs emit a [`Profile`] section in the full export.
    #[must_use]
    pub fn with_profiling(mut self) -> Self {
        self.profiling = true;
        self
    }

    /// `Some` of the recorder when it is on, `None` when it is off. Takes
    /// the recorder or the box `ControlPlaneWorld::recorder` holds it in.
    #[must_use]
    pub fn from_recorder<R: Borrow<MemRecorder> + ?Sized>(r: &R) -> Option<&MemRecorder> {
        let r = r.borrow();
        r.enabled().then_some(r)
    }

    /// Whether emissions are stored. Callers may skip preparing emission
    /// arguments when this is `false`.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        !self.disabled
    }

    /// Whether causal trace records are stored. Like [`Self::enabled`]
    /// this gates argument preparation: emitting a trace record means
    /// formatting fields, so hot paths must check first.
    #[inline]
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Whether wall-clock profiling is on. Instrumentation sites gate
    /// every `Instant::now()` pair behind this so a profiling-off run
    /// pays nothing but the branch.
    #[inline]
    #[must_use]
    pub fn profiling_enabled(&self) -> bool {
        self.profiling && !self.disabled
    }

    /// The causal-trace sink, if tracing is on.
    #[must_use]
    pub fn trace_sink(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// Adds `wall_ns` of wall-clock time under a
    /// [`profile::keys`](crate::profile::keys) key. Only meaningful when
    /// [`Self::profiling_enabled`] is true.
    pub fn profile_add(&mut self, key: &'static str, wall_ns: u64) {
        if self.disabled {
            return;
        }
        let e = self.profile.entry(key).or_insert((0, 0));
        e.0 += wall_ns;
        e.1 += 1;
    }

    /// Records a completed span. Only call from serial orchestrator code.
    pub fn span(&mut self, name: &'static str, device: Option<u32>, start: SimTime, end: SimTime) {
        if self.disabled {
            return;
        }
        self.spans.push(SpanRecord {
            name: name.to_string(),
            device,
            start,
            end,
        });
    }

    /// Records a typed event. Only call from serial orchestrator code.
    pub fn event(
        &mut self,
        at: SimTime,
        name: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        if self.disabled {
            return;
        }
        self.events.push(EventRecord::new(at, name, fields));
    }

    /// Appends one causal trace record to the bounded sink, if tracing
    /// is on.
    pub fn trace(&mut self, rec: TraceRecord) {
        if let Some(sink) = &mut self.trace {
            sink.push(rec);
        }
    }

    /// Builds the report skeleton from everything recorded so far. The
    /// callers (`ControlPlaneSim::report`, then the Emulation API) add
    /// the series their own state holds, metadata and the journal
    /// section. An off recorder's report is [`RunReport::disabled`].
    #[must_use]
    pub fn report(&self) -> RunReport {
        let mut counters = BTreeMap::new();
        if let Some(sink) = &self.trace {
            // Emit/retain/drop counts are world facts (each record is
            // emitted exactly once), so they belong in the canonical
            // section.
            counters.insert("telemetry.trace_emitted".to_string(), sink.emitted());
            counters.insert("telemetry.trace_retained".to_string(), sink.len() as u64);
            counters.insert("telemetry.trace_dropped".to_string(), sink.dropped());
        }
        RunReport {
            enabled: self.enabled(),
            spans: self.spans.clone(),
            counters,
            events: self.events.clone(),
            profile: self
                .profiling_enabled()
                .then(|| Profile::from_recorded(&self.profile)),
            ..RunReport::default()
        }
    }
}
