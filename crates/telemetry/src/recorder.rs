//! The one recorder instrumented code emits through.

use crate::{
    EventRecord, FieldValue, HistogramSummary, Profile, RunReport, SpanRecord, TraceRecord,
    TraceSink,
};
use crystalnet_sim::SimTime;
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// The recorder: instrumented code emits through it and readers read it.
///
/// A recorder is on or off. An on recorder stores everything, in
/// `BTreeMap`s so export order is a function of the keys alone, never of
/// insertion order. An off recorder ([`MemRecorder::disabled`]) stores
/// nothing: every emitting method returns at its first branch, and
/// [`enabled`](Self::enabled), [`trace_enabled`](Self::trace_enabled) and
/// [`profiling_enabled`](Self::profiling_enabled) all report `false`, so
/// hot paths can skip preparing emission arguments behind one of them.
///
/// Emissions (`counter_add`, `gauge_max`, the per-device variants,
/// `histogram_record`) must describe the emulated world; wall-clock time
/// goes through `profile_add` and never reaches the canonical report.
#[derive(Debug, Clone, Default)]
pub struct MemRecorder {
    /// Off: nothing is stored. Only [`MemRecorder::disabled`] sets it, and
    /// it builds no trace sink, so an off recorder never traces.
    disabled: bool,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    dev_counters: BTreeMap<&'static str, BTreeMap<u32, u64>>,
    dev_gauges: BTreeMap<&'static str, BTreeMap<u32, u64>>,
    histograms: BTreeMap<&'static str, Vec<f64>>,
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
    /// enabled. Clones and shard forks of it are off too.
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

    /// Adds `v` to the named canonical counter.
    pub fn counter_add(&mut self, name: &'static str, v: u64) {
        if self.disabled {
            return;
        }
        *self.counters.entry(name).or_insert(0) += v;
    }

    /// Raises the named canonical gauge to at least `v`.
    pub fn gauge_max(&mut self, name: &'static str, v: u64) {
        if self.disabled {
            return;
        }
        let g = self.gauges.entry(name).or_insert(0);
        *g = (*g).max(v);
    }

    /// Adds `v` to a per-device canonical counter.
    pub fn device_counter_add(&mut self, name: &'static str, device: u32, v: u64) {
        if self.disabled {
            return;
        }
        *self
            .dev_counters
            .entry(name)
            .or_default()
            .entry(device)
            .or_insert(0) += v;
    }

    /// Raises a per-device canonical gauge to at least `v`.
    pub fn device_gauge_max(&mut self, name: &'static str, device: u32, v: u64) {
        if self.disabled {
            return;
        }
        let g = self
            .dev_gauges
            .entry(name)
            .or_default()
            .entry(device)
            .or_insert(0);
        *g = (*g).max(v);
    }

    /// Records one sample into the named histogram.
    pub fn histogram_record(&mut self, name: &'static str, v: f64) {
        if self.disabled {
            return;
        }
        self.histograms.entry(name).or_default().push(v);
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

    /// An empty recorder for a shard of `routing`'s sharded settle, on or
    /// off like this one: counters, gauges, histograms and profile keys,
    /// never a trace sink (that settle runs without one). Goes with the
    /// sharded executor.
    #[must_use]
    pub fn fork(&self) -> MemRecorder {
        MemRecorder {
            disabled: self.disabled,
            profiling: self.profiling,
            ..MemRecorder::default()
        }
    }

    /// Merges a shard's [`Self::fork`] back: counters add, gauges max,
    /// histograms append, profile keys add — all order-independent, so
    /// the merged counters equal a serial run's. Goes with the sharded
    /// executor.
    pub fn absorb(&mut self, child: MemRecorder) {
        for (name, v) in child.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, v) in child.gauges {
            let g = self.gauges.entry(name).or_insert(0);
            *g = (*g).max(v);
        }
        for (name, devs) in child.dev_counters {
            let mine = self.dev_counters.entry(name).or_default();
            for (dev, v) in devs {
                *mine.entry(dev).or_insert(0) += v;
            }
        }
        for (name, devs) in child.dev_gauges {
            let mine = self.dev_gauges.entry(name).or_default();
            for (dev, v) in devs {
                let g = mine.entry(dev).or_insert(0);
                *g = (*g).max(v);
            }
        }
        for (name, samples) in child.histograms {
            self.histograms.entry(name).or_default().extend(samples);
        }
        for (key, (wall, count)) in child.profile {
            let e = self.profile.entry(key).or_insert((0, 0));
            e.0 += wall;
            e.1 += count;
        }
        self.spans.extend(child.spans);
        self.events.extend(child.events);
    }

    /// Current value of a canonical counter (0 if never written).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a canonical gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Per-device values of a canonical gauge, keyed by device id.
    #[must_use]
    pub fn device_gauge(&self, name: &str) -> Option<&BTreeMap<u32, u64>> {
        self.dev_gauges.get(name)
    }

    /// Builds the report skeleton from everything recorded so far. The
    /// caller (the Emulation API) adds metadata and the journal section.
    /// An off recorder's report is [`RunReport::disabled`].
    #[must_use]
    pub fn report(&self) -> RunReport {
        let mut per_device = BTreeMap::new();
        for (name, devs) in &self.dev_counters {
            per_device.insert((*name).to_string(), devs.clone());
        }
        for (name, devs) in &self.dev_gauges {
            per_device.insert((*name).to_string(), devs.clone());
        }
        let mut histograms = BTreeMap::new();
        for (name, samples) in &self.histograms {
            if let Some(summary) = HistogramSummary::from_samples(samples) {
                histograms.insert((*name).to_string(), summary);
            }
        }
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        for (name, v) in &self.counters {
            counters.insert((*name).to_string(), *v);
        }
        for (name, v) in &self.gauges {
            counters.insert((*name).to_string(), *v);
        }
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
            per_device,
            histograms,
            events: self.events.clone(),
            profile: self
                .profiling_enabled()
                .then(|| Profile::from_recorded(&self.profile)),
            ..RunReport::default()
        }
    }
}
