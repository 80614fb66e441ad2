//! Deterministic, virtual-time observability for CrystalNet runs.
//!
//! CrystalNet's value proposition is *visibility*: operators must be able to
//! ask "what did the engine and each BGP speaker actually do during this
//! run?" without perturbing the run itself. This crate provides the three
//! pieces the Emulation API builds `pull_report()` on:
//!
//! 1. a [`Recorder`] trait instrumented code emits through — spans and
//!    events stamped with [`SimTime`], plus named counters, gauges, and
//!    histograms. The default [`NoopRecorder`] makes every emission a
//!    no-op behind a single `enabled()` branch, so hot paths pay nothing
//!    when observability is off;
//! 2. an in-memory [`MemRecorder`] that stores everything in `BTreeMap`s
//!    so export order never depends on insertion order;
//! 3. a [`RunReport`] exporter: canonical JSON plus a human-readable table.
//!
//! # Determinism contract
//!
//! The canonical report ([`RunReport::to_json`]) must be **byte-identical**
//! across repetitions for the same seed. The engine runs every event on
//! one thread in `(time, key)` order, so emission order is already a
//! function of the seed; two rules keep the export one too:
//!
//! - *canonical* metrics record facts about the emulated world (frames
//!   sent, BGP updates received, faults injected, per-device route churn)
//!   and live in `BTreeMap`s, so their export order depends on the keys
//!   alone; histograms are sorted before summarizing;
//! - *diagnostic* metrics record facts about the execution itself
//!   (events executed, queue high-water, interner hit rate). The report's
//!   caller fills [`RunReport::diagnostics`]; they are excluded from the
//!   canonical export and only appear in [`RunReport::to_json_full`],
//!   beside the wall-clock [`Profile`].

use crystalnet_sim::metrics::percentile_f64;
use crystalnet_sim::{EventId, SimDuration, SimTime};
use serde::{Serialize, Value};
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};

pub mod profile;
pub mod testutil;

pub use profile::{
    CowStats, DeviceMem, DeviceMemTotals, InternerMem, MemorySection, Profile, ProfileEntry,
    QueueMem,
};
pub use testutil::{assert_same_key_structure, json_deep_structure, json_key_structure};

/// A typed field value attached to an event or report metadata.
///
/// Events carry structured key/value pairs instead of preformatted strings
/// so reports can be diffed, filtered, and asserted on.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (must not be NaN; reports compare bytes).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Short text (labels, kinds — not log prose).
    Str(String),
    /// A virtual-time instant; serializes as nanoseconds.
    Time(SimTime),
    /// A virtual-time duration; serializes as nanoseconds.
    Dur(SimDuration),
}

impl Serialize for FieldValue {
    fn to_value(&self) -> Value {
        match self {
            FieldValue::U64(v) => Value::Uint(*v),
            FieldValue::I64(v) => Value::Int(*v),
            FieldValue::F64(v) => Value::Float(*v),
            FieldValue::Bool(v) => Value::Bool(*v),
            FieldValue::Str(v) => Value::Str(v.clone()),
            FieldValue::Time(t) => Value::Uint(t.as_nanos()),
            FieldValue::Dur(d) => Value::Uint(d.as_nanos()),
        }
    }
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
            FieldValue::Time(t) => write!(f, "{t}"),
            FieldValue::Dur(d) => write!(f, "{d}"),
        }
    }
}

/// A completed span: a named phase of the run over a virtual-time interval,
/// optionally scoped to one device (`convergence` spans).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (`mockup`, `boot`, `settle`, `recovery`, `convergence`).
    pub name: String,
    /// Device scope for per-device spans; `None` for run-wide phases.
    pub device: Option<u32>,
    /// Virtual start time.
    pub start: SimTime,
    /// Virtual end time.
    pub end: SimTime,
}

impl SpanRecord {
    /// The span's virtual duration.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

impl Serialize for SpanRecord {
    fn to_value(&self) -> Value {
        let mut obj = vec![("name".to_string(), Value::Str(self.name.clone()))];
        if let Some(dev) = self.device {
            obj.push(("device".to_string(), Value::Uint(u64::from(dev))));
        }
        obj.push(("start_ns".to_string(), Value::Uint(self.start.as_nanos())));
        obj.push(("end_ns".to_string(), Value::Uint(self.end.as_nanos())));
        obj.push((
            "duration_ns".to_string(),
            Value::Uint(self.duration().as_nanos()),
        ));
        Value::Object(obj)
    }
}

/// A point event with typed fields, stamped with virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// When the event happened, in virtual time.
    pub at: SimTime,
    /// Event name (e.g. `fault_injected`, `reboot_attempt`).
    pub name: String,
    /// Typed key/value payload, in emission order.
    pub fields: Vec<(String, FieldValue)>,
}

impl EventRecord {
    /// Builds an event from static field names.
    #[must_use]
    pub fn new(at: SimTime, name: &str, fields: Vec<(&str, FieldValue)>) -> Self {
        EventRecord {
            at,
            name: name.to_string(),
            fields: fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }

    /// Looks up a field by name.
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

impl Serialize for EventRecord {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("at_ns".to_string(), Value::Uint(self.at.as_nanos())),
            ("name".to_string(), Value::Str(self.name.clone())),
            (
                "fields".to_string(),
                Value::Object(
                    self.fields
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_value()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Order-independent summary of a histogram's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (linear interpolation).
    pub p50: f64,
    /// 99th percentile (linear interpolation).
    pub p99: f64,
}

impl HistogramSummary {
    /// Summarizes `samples`; sorts internally so the result is independent
    /// of recording/merge order. Returns `None` if empty.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("histogram samples must not be NaN"));
        let sum: f64 = sorted.iter().sum();
        Some(HistogramSummary {
            count: sorted.len(),
            min: sorted[0],
            max: *sorted.last().expect("non-empty"),
            mean: sum / sorted.len() as f64,
            p50: percentile_f64(&sorted, 50.0).expect("non-empty"),
            p99: percentile_f64(&sorted, 99.0).expect("non-empty"),
        })
    }
}

impl Serialize for HistogramSummary {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("count".to_string(), Value::Uint(self.count as u64)),
            ("min".to_string(), Value::Float(self.min)),
            ("max".to_string(), Value::Float(self.max)),
            ("mean".to_string(), Value::Float(self.mean)),
            ("p50".to_string(), Value::Float(self.p50)),
            ("p99".to_string(), Value::Float(self.p99)),
        ])
    }
}

/// One causal trace record: something the emulated world did, stamped
/// with the stable id of the event that did it and a link to the event
/// that caused that one.
///
/// Records are device-scoped world facts (a frame delivered, a FIB entry
/// installed, a link transition observed by an endpoint).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Virtual time of the record.
    pub at: SimTime,
    /// Stable id of the event this record was emitted under.
    pub id: EventId,
    /// Ordinal among records emitted under the same `(event id, device)`
    /// pair. Assigned by the sink at push time (one device's records for
    /// one event are pushed consecutively); used only as a sort tiebreak
    /// and never exported.
    pub sub: u32,
    /// Id of the causal parent event, if known.
    pub cause: Option<EventId>,
    /// Record kind (`bgp_rx`, `fib_install`, `link_state`, ...).
    pub name: &'static str,
    /// Device scope, if the record belongs to one device.
    pub device: Option<u32>,
    /// Typed payload, in emission order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl TraceRecord {
    /// Builds a record; `sub` starts at 0 and is reassigned by the sink.
    #[must_use]
    pub fn new(
        at: SimTime,
        id: EventId,
        cause: Option<EventId>,
        name: &'static str,
        device: Option<u32>,
        fields: Vec<(&'static str, FieldValue)>,
    ) -> Self {
        TraceRecord {
            at,
            id,
            sub: 0,
            cause,
            name,
            device,
            fields,
        }
    }

    /// The deterministic global sort rank: `(time, event key, device,
    /// ordinal)`. Device-less records sort before device-scoped ones
    /// within the same event.
    #[must_use]
    pub fn rank(&self) -> (u64, u64, u64, u32) {
        (
            self.id.time_ns,
            self.id.key,
            self.device.map_or(0, |d| u64::from(d) + 1),
            self.sub,
        )
    }

    fn jsonl_value(&self) -> Value {
        let mut obj = vec![
            ("at_ns".to_string(), Value::Uint(self.at.as_nanos())),
            ("id".to_string(), event_id_value(self.id)),
            (
                "cause".to_string(),
                match self.cause {
                    Some(c) => event_id_value(c),
                    None => Value::Null,
                },
            ),
            ("name".to_string(), Value::Str(self.name.to_string())),
        ];
        if let Some(dev) = self.device {
            obj.push(("device".to_string(), Value::Uint(u64::from(dev))));
        }
        obj.push((
            "fields".to_string(),
            Value::Object(
                self.fields
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), v.to_value()))
                    .collect(),
            ),
        ));
        Value::Object(obj)
    }

    fn chrome_value(&self) -> Value {
        // Chrome trace-event format: an instant event ("ph": "i") with
        // thread scope. `ts` is in microseconds; the exact nanosecond
        // timestamp and the causal ids ride in `args` so nothing is lost
        // to the unit conversion.
        let mut args = vec![
            ("time_ns".to_string(), Value::Uint(self.at.as_nanos())),
            ("id_key".to_string(), Value::Uint(self.id.key)),
        ];
        if let Some(c) = self.cause {
            args.push(("cause_time_ns".to_string(), Value::Uint(c.time_ns)));
            args.push(("cause_key".to_string(), Value::Uint(c.key)));
        }
        for (k, v) in &self.fields {
            args.push(((*k).to_string(), v.to_value()));
        }
        Value::Object(vec![
            ("name".to_string(), Value::Str(self.name.to_string())),
            ("ph".to_string(), Value::Str("i".to_string())),
            ("s".to_string(), Value::Str("t".to_string())),
            ("pid".to_string(), Value::Uint(1)),
            (
                "tid".to_string(),
                Value::Uint(self.device.map_or(0, u64::from)),
            ),
            ("ts".to_string(), Value::Uint(self.at.as_nanos() / 1_000)),
            ("args".to_string(), Value::Object(args)),
        ])
    }
}

fn event_id_value(id: EventId) -> Value {
    Value::Object(vec![
        ("time_ns".to_string(), Value::Uint(id.time_ns)),
        ("key".to_string(), Value::Uint(id.key)),
    ])
}

/// Renders records as stream-friendly JSONL: one object per line, in
/// rank order if the caller sorted them (the sink does).
#[must_use]
pub fn trace_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&serde_json::to_string(&r.jsonl_value()).expect("trace serialization"));
        out.push('\n');
    }
    out
}

/// Renders records as Chrome trace-event JSON (the `traceEvents` object
/// form), loadable in Perfetto / `chrome://tracing`.
#[must_use]
pub fn trace_chrome_json(records: &[TraceRecord]) -> String {
    let value = Value::Object(vec![
        (
            "traceEvents".to_string(),
            Value::Array(records.iter().map(TraceRecord::chrome_value).collect()),
        ),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
    ]);
    let mut s = serde_json::to_string_pretty(&value).expect("trace serialization");
    s.push('\n');
    s
}

/// A bounded ring buffer of [`TraceRecord`]s.
///
/// Keeps the **newest** `capacity` records; older records are dropped and
/// counted (`emitted − retained`). Exports sort the retained records by
/// [`TraceRecord::rank`].
#[derive(Debug, Clone)]
pub struct TraceSink {
    capacity: usize,
    records: VecDeque<TraceRecord>,
    emitted: u64,
    last_id: EventId,
    last_dev: Option<u32>,
    last_sub: u32,
}

impl TraceSink {
    /// An empty sink bounded to `capacity` records.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        TraceSink {
            capacity,
            records: VecDeque::new(),
            emitted: 0,
            last_id: EventId::ZERO,
            last_dev: None,
            last_sub: 0,
        }
    }

    /// The configured bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total records ever pushed (including dropped ones).
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Records dropped to stay within the bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.emitted - self.records.len() as u64
    }

    /// Appends a record, assigning its `sub` ordinal and evicting the
    /// oldest record if the sink is full.
    pub fn push(&mut self, mut rec: TraceRecord) {
        if rec.id == self.last_id && rec.device == self.last_dev {
            self.last_sub += 1;
        } else {
            self.last_id = rec.id;
            self.last_dev = rec.device;
            self.last_sub = 0;
        }
        rec.sub = self.last_sub;
        self.emitted += 1;
        if self.capacity == 0 {
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(rec);
    }

    /// Retained records in [`TraceRecord::rank`] order.
    #[must_use]
    pub fn records(&self) -> Vec<TraceRecord> {
        let mut out: Vec<TraceRecord> = self.records.iter().cloned().collect();
        out.sort_by_key(TraceRecord::rank);
        out
    }

    /// JSONL export of the retained records.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        trace_jsonl(&self.records())
    }

    /// Chrome trace-event JSON export of the retained records.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        trace_chrome_json(&self.records())
    }
}

/// The sink instrumented code emits through.
///
/// Every method has a no-op default body, so [`NoopRecorder`] is an empty
/// impl and hot paths can guard bulk work with a single
/// `if recorder.enabled()` branch. Emissions (`counter_add`, `gauge_max`,
/// the per-device variants, `histogram_record`) must describe the
/// emulated world; wall-clock time goes through `profile_add` and never
/// reaches the canonical report.
pub trait Recorder: Send {
    /// Whether emissions are stored. Callers may skip preparing emission
    /// arguments when this is `false`.
    fn enabled(&self) -> bool {
        false
    }

    /// Adds `v` to the named canonical counter.
    fn counter_add(&mut self, _name: &'static str, _v: u64) {}

    /// Raises the named canonical gauge to at least `v`.
    fn gauge_max(&mut self, _name: &'static str, _v: u64) {}

    /// Adds `v` to a per-device canonical counter.
    fn device_counter_add(&mut self, _name: &'static str, _device: u32, _v: u64) {}

    /// Raises a per-device canonical gauge to at least `v`.
    fn device_gauge_max(&mut self, _name: &'static str, _device: u32, _v: u64) {}

    /// Records one sample into the named histogram.
    fn histogram_record(&mut self, _name: &'static str, _v: f64) {}

    /// Whether wall-clock profiling is on. Instrumentation sites gate
    /// every `Instant::now()` pair behind this so a profiling-off run
    /// pays nothing but the branch.
    fn profiling_enabled(&self) -> bool {
        false
    }

    /// Adds `wall_ns` of wall-clock time under a [`profile::keys`] key.
    /// Only meaningful when [`Recorder::profiling_enabled`] is true.
    fn profile_add(&mut self, _key: &'static str, _wall_ns: u64) {}

    /// Records a completed span. Only call from serial orchestrator code.
    fn span(&mut self, _name: &'static str, _device: Option<u32>, _start: SimTime, _end: SimTime) {}

    /// Records a typed event. Only call from serial orchestrator code.
    fn event(
        &mut self,
        _at: SimTime,
        _name: &'static str,
        _fields: Vec<(&'static str, FieldValue)>,
    ) {
    }

    /// Whether causal trace records are stored. Like [`Recorder::enabled`]
    /// this gates argument preparation: emitting a trace record means
    /// formatting fields, so hot paths must check first.
    fn trace_enabled(&self) -> bool {
        false
    }

    /// Appends one causal trace record to the bounded sink.
    fn trace(&mut self, _rec: TraceRecord) {}

    /// Creates an empty recorder of the same kind for a shard of
    /// `routing`'s sharded settle: counters, gauges, histograms and
    /// profile keys, never a trace sink (that settle runs without one).
    fn fork(&self) -> Box<dyn Recorder>;

    /// Deep-copies this recorder, history included — the telemetry fork
    /// point of an emulation fork. Unlike [`Recorder::fork`] (which
    /// starts a shard's recorder *empty* so the join can `absorb` it
    /// additively), a snapshot carries everything recorded so far: a
    /// forked emulation's report reads as "baseline plus the fork's own
    /// activity", byte-identical to a run that had performed the fork's
    /// steps directly.
    fn snapshot(&self) -> Box<dyn Recorder>;

    /// Merges a forked recorder back: counters add, gauges max, histograms
    /// append, profile keys add — all order-independent, so the merged
    /// counters equal a serial run's.
    fn absorb(&mut self, _child: Box<dyn Recorder>) {}

    /// Downcast support for readers ([`MemRecorder::from_recorder`]).
    fn as_any(&self) -> &dyn Any;

    /// Downcast support for [`Recorder::absorb`].
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// The zero-cost default: every emission is a no-op and `enabled()` is
/// `false`, so instrumented hot paths skip argument preparation entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn fork(&self) -> Box<dyn Recorder> {
        Box::new(NoopRecorder)
    }

    fn snapshot(&self) -> Box<dyn Recorder> {
        Box::new(NoopRecorder)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// In-memory recorder. All keyed storage is `BTreeMap`-backed so export
/// order is a function of the keys alone, never of insertion order.
#[derive(Debug, Clone, Default)]
pub struct MemRecorder {
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
    /// An empty enabled recorder, with causal tracing off.
    #[must_use]
    pub fn new() -> Self {
        MemRecorder::default()
    }

    /// An empty enabled recorder with a bounded causal-trace sink.
    /// `capacity == 0` leaves tracing off.
    #[must_use]
    pub fn with_trace_capacity(capacity: usize) -> Self {
        MemRecorder {
            trace: (capacity > 0).then(|| TraceSink::new(capacity)),
            ..MemRecorder::default()
        }
    }

    /// Turns wall-clock profiling on (builder-style). Profiled runs emit
    /// a [`Profile`] section in the full export.
    #[must_use]
    pub fn with_profiling(mut self) -> Self {
        self.profiling = true;
        self
    }

    /// The causal-trace sink, if tracing is on.
    #[must_use]
    pub fn trace_sink(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// Downcasts a `dyn Recorder` to `MemRecorder` for reading; `None` for
    /// the no-op (or any foreign) recorder.
    #[must_use]
    pub fn from_recorder(r: &dyn Recorder) -> Option<&MemRecorder> {
        r.as_any().downcast_ref::<MemRecorder>()
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

    /// Per-device values of a canonical counter, keyed by device id.
    #[must_use]
    pub fn device_counter(&self, name: &str) -> Option<&BTreeMap<u32, u64>> {
        self.dev_counters.get(name)
    }

    /// Per-device values of a canonical gauge, keyed by device id.
    #[must_use]
    pub fn device_gauge(&self, name: &str) -> Option<&BTreeMap<u32, u64>> {
        self.dev_gauges.get(name)
    }

    /// All spans in emission order.
    #[must_use]
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// All events in emission order.
    #[must_use]
    pub fn events(&self) -> &[EventRecord] {
        &self.events
    }

    /// Builds the report skeleton from everything recorded so far. The
    /// caller (the Emulation API) adds metadata and the journal section.
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
            enabled: true,
            spans: self.spans.clone(),
            counters,
            per_device,
            histograms,
            events: self.events.clone(),
            profile: self
                .profiling
                .then(|| Profile::from_recorded(&self.profile)),
            ..RunReport::default()
        }
    }
}

impl Recorder for MemRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn counter_add(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name).or_insert(0) += v;
    }

    fn gauge_max(&mut self, name: &'static str, v: u64) {
        let g = self.gauges.entry(name).or_insert(0);
        *g = (*g).max(v);
    }

    fn device_counter_add(&mut self, name: &'static str, device: u32, v: u64) {
        *self
            .dev_counters
            .entry(name)
            .or_default()
            .entry(device)
            .or_insert(0) += v;
    }

    fn device_gauge_max(&mut self, name: &'static str, device: u32, v: u64) {
        let g = self
            .dev_gauges
            .entry(name)
            .or_default()
            .entry(device)
            .or_insert(0);
        *g = (*g).max(v);
    }

    fn histogram_record(&mut self, name: &'static str, v: f64) {
        self.histograms.entry(name).or_default().push(v);
    }

    fn profiling_enabled(&self) -> bool {
        self.profiling
    }

    fn profile_add(&mut self, key: &'static str, wall_ns: u64) {
        let e = self.profile.entry(key).or_insert((0, 0));
        e.0 += wall_ns;
        e.1 += 1;
    }

    fn span(&mut self, name: &'static str, device: Option<u32>, start: SimTime, end: SimTime) {
        self.spans.push(SpanRecord {
            name: name.to_string(),
            device,
            start,
            end,
        });
    }

    fn event(&mut self, at: SimTime, name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
        self.events.push(EventRecord::new(at, name, fields));
    }

    fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    fn trace(&mut self, rec: TraceRecord) {
        if let Some(sink) = &mut self.trace {
            sink.push(rec);
        }
    }

    fn fork(&self) -> Box<dyn Recorder> {
        Box::new(MemRecorder {
            profiling: self.profiling,
            ..MemRecorder::default()
        })
    }

    fn snapshot(&self) -> Box<dyn Recorder> {
        Box::new(self.clone())
    }

    fn absorb(&mut self, child: Box<dyn Recorder>) {
        let child = child
            .into_any()
            .downcast::<MemRecorder>()
            .expect("absorb requires a recorder forked from MemRecorder");
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

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// The exportable snapshot of everything observed during a run.
///
/// Returned by the Emulation API's `pull_report()`. The canonical export
/// ([`RunReport::to_json`]) is bit-identical across repetitions for the
/// same seed; [`RunReport::to_json_full`] appends the
/// execution-dependent sections on top.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Whether telemetry was enabled for this run. Disabled runs export an
    /// empty (but schema-complete) report.
    pub enabled: bool,
    /// Run metadata (seed, device/VM counts, convergence parameters), in
    /// insertion order. Must not contain execution-dependent values such
    /// as worker counts or wall-clock times.
    pub meta: Vec<(String, FieldValue)>,
    /// Completed spans in emission order.
    pub spans: Vec<SpanRecord>,
    /// Canonical counters and gauges, merged and key-sorted.
    pub counters: BTreeMap<String, u64>,
    /// Per-device canonical metrics, keyed by metric name then device id.
    pub per_device: BTreeMap<String, BTreeMap<u32, u64>>,
    /// Histogram summaries, key-sorted.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Typed events in emission order.
    pub events: Vec<EventRecord>,
    /// The recovery journal rendered as typed events, time-sorted.
    pub journal: Vec<EventRecord>,
    /// Execution-dependent metrics — excluded from the canonical export.
    pub diagnostics: BTreeMap<String, u64>,
    /// Wall-clock profile; `Some` when the run had profiling enabled.
    /// Exported only by [`RunReport::to_json_full`].
    pub profile: Option<Profile>,
    /// Memory accounting; `Some` when profiling was enabled. Exported
    /// only by [`RunReport::to_json_full`].
    pub memory: Option<MemorySection>,
}

impl RunReport {
    /// The empty report a telemetry-disabled run returns.
    #[must_use]
    pub fn disabled() -> Self {
        RunReport::default()
    }

    /// Whether anything was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.per_device.is_empty()
            && self.histograms.is_empty()
            && self.events.is_empty()
            && self.journal.is_empty()
    }

    /// Appends one metadata entry (builder-style).
    #[must_use]
    pub fn with_meta(mut self, key: &str, value: FieldValue) -> Self {
        self.meta.push((key.to_string(), value));
        self
    }

    fn canonical_value(&self) -> Value {
        Value::Object(vec![
            ("enabled".to_string(), Value::Bool(self.enabled)),
            (
                "meta".to_string(),
                Value::Object(
                    self.meta
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_value()))
                        .collect(),
                ),
            ),
            (
                "spans".to_string(),
                Value::Array(self.spans.iter().map(Serialize::to_value).collect()),
            ),
            (
                "counters".to_string(),
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Uint(*v)))
                        .collect(),
                ),
            ),
            (
                "per_device".to_string(),
                Value::Object(
                    self.per_device
                        .iter()
                        .map(|(k, devs)| {
                            (
                                k.clone(),
                                Value::Object(
                                    devs.iter()
                                        .map(|(dev, v)| (dev.to_string(), Value::Uint(*v)))
                                        .collect(),
                                ),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "histograms".to_string(),
                Value::Object(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_value()))
                        .collect(),
                ),
            ),
            (
                "events".to_string(),
                Value::Array(self.events.iter().map(Serialize::to_value).collect()),
            ),
            (
                "journal".to_string(),
                Value::Array(self.journal.iter().map(Serialize::to_value).collect()),
            ),
        ])
    }

    /// Canonical JSON export: bit-identical across reps for the same
    /// seed. Ends with a newline (artifact-friendly).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(&self.canonical_value())
            .expect("report serialization is infallible");
        s.push('\n');
        s
    }

    /// Full JSON export: the canonical sections plus the
    /// execution-dependent `diagnostics` section and — when profiling was
    /// on — the `profile` and `memory` sections. Not stable run to run —
    /// for humans and perf investigations, never for diffing.
    #[must_use]
    pub fn to_json_full(&self) -> String {
        let Value::Object(mut obj) = self.canonical_value() else {
            unreachable!("canonical report is always an object");
        };
        obj.push(("diagnostics".to_string(), self.diagnostics.to_value()));
        if let Some(profile) = &self.profile {
            obj.push(("profile".to_string(), profile.to_value()));
        }
        if let Some(memory) = &self.memory {
            obj.push(("memory".to_string(), memory.to_value()));
        }
        let mut s = serde_json::to_string_pretty(&Value::Object(obj))
            .expect("report serialization is infallible");
        s.push('\n');
        s
    }

    /// Human-readable table summary for terminals.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if !self.enabled {
            out.push_str("run report: telemetry disabled\n");
            return out;
        }
        out.push_str("run report\n");
        if !self.meta.is_empty() {
            let line = self
                .meta
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join("  ");
            let _ = writeln!(out, "  {line}");
        }
        if !self.spans.is_empty() {
            out.push_str("  spans:\n");
            for s in &self.spans {
                let scope = match s.device {
                    Some(dev) => format!("{}[{dev}]", s.name),
                    None => s.name.clone(),
                };
                let _ = writeln!(
                    out,
                    "    {scope:<24} {start} .. {end}  ({dur})",
                    start = s.start,
                    end = s.end,
                    dur = s.duration()
                );
            }
        }
        if !self.counters.is_empty() {
            out.push_str("  counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "    {name:<40} {v}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("  histograms:\n");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "    {name:<40} n={} p50={:.0} p99={:.0} max={:.0}",
                    h.count, h.p50, h.p99, h.max
                );
            }
        }
        let _ = writeln!(out, "  journal: {} event(s)", self.journal.len());
        if !self.diagnostics.is_empty() {
            out.push_str("  diagnostics (execution-dependent, non-canonical):\n");
            for (name, v) in &self.diagnostics {
                let _ = writeln!(out, "    {name:<40} {v}");
            }
        }
        if let Some(profile) = &self.profile {
            out.push_str("  profile (wall-clock, non-canonical):\n");
            for (name, e) in &profile.entries {
                if e.count > 0 {
                    let _ = writeln!(
                        out,
                        "    {name:<40} {:>10.3}ms self {:>10.3}ms  n={}",
                        e.wall_ns as f64 / 1e6,
                        e.self_ns as f64 / 1e6,
                        e.count
                    );
                }
            }
        }
        if let Some(memory) = &self.memory {
            let d = &memory.devices;
            let _ = writeln!(
                out,
                "  memory: {} device(s), rib {:.1} KiB ({} entries), \
                 fib {:.1} KiB ({} prefixes), interner {:.1} KiB, \
                 queue residue {:.1} KiB ({} events)",
                d.devices,
                d.rib_bytes as f64 / 1024.0,
                d.rib_entries,
                d.fib_bytes as f64 / 1024.0,
                d.fib_prefixes,
                memory.interner.table_bytes as f64 / 1024.0,
                memory.event_queue.residue_bytes as f64 / 1024.0,
                memory.event_queue.pending_events,
            );
            if let Some(cow) = &memory.fork_cow {
                let _ = writeln!(
                    out,
                    "  fork_cow: shared {:.1} KiB / copied {:.1} KiB \
                     ({:.0}% shared)",
                    cow.shared_bytes as f64 / 1024.0,
                    cow.copied_bytes as f64 / 1024.0,
                    cow.sharing_ratio() * 100.0,
                );
            }
        }
        out
    }
}

impl Serialize for RunReport {
    fn to_value(&self) -> Value {
        self.canonical_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_disabled_and_silent() {
        let mut r = NoopRecorder;
        assert!(!r.enabled());
        r.counter_add("x", 5);
        r.span("mockup", None, SimTime(0), SimTime(10));
        let forked = r.fork();
        assert!(!forked.enabled());
        r.absorb(forked);
        assert!(MemRecorder::from_recorder(&r).is_none());
    }

    #[test]
    fn mem_recorder_accumulates() {
        let mut r = MemRecorder::new();
        assert!(r.enabled());
        r.counter_add("a", 2);
        r.counter_add("a", 3);
        r.gauge_max("g", 7);
        r.gauge_max("g", 4);
        r.device_counter_add("dc", 1, 10);
        r.device_counter_add("dc", 1, 1);
        r.device_gauge_max("dg", 2, 5);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("g"), Some(7));
        assert_eq!(r.device_counter("dc").unwrap()[&1], 11);
        assert_eq!(r.device_gauge("dg").unwrap()[&2], 5);
    }

    #[test]
    fn absorb_merges_order_independently() {
        // Two shard recorders merged in either order give the same report.
        let build = |order: [usize; 2]| {
            let mut root = MemRecorder::new();
            root.counter_add("frames", 1);
            let mut shards: Vec<MemRecorder> = Vec::new();
            for base in [10u64, 20u64] {
                let mut s = MemRecorder::new();
                s.counter_add("frames", base);
                s.gauge_max("high", base * 2);
                s.device_counter_add("churn", base as u32, base);
                s.histogram_record("lat", base as f64);
                shards.push(s);
            }
            let mut shards: Vec<Option<MemRecorder>> = shards.into_iter().map(Some).collect();
            for i in order {
                root.absorb(Box::new(shards[i].take().unwrap()));
            }
            root.report()
        };
        let a = build([0, 1]);
        let b = build([1, 0]);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.counters["frames"], 31);
        assert_eq!(a.counters["high"], 40);
    }

    #[test]
    fn histogram_summary_sorts() {
        let h = HistogramSummary::from_samples(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 3.0);
        assert_eq!(h.p50, 2.0);
        assert_eq!(h.mean, 2.0);
        assert!(HistogramSummary::from_samples(&[]).is_none());
        let fwd = HistogramSummary::from_samples(&[1.0, 2.0, 9.0]).unwrap();
        let rev = HistogramSummary::from_samples(&[9.0, 2.0, 1.0]).unwrap();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn report_json_has_schema_sections_even_when_empty() {
        let json = RunReport::disabled().to_json();
        for key in ["\"spans\"", "\"counters\"", "\"journal\"", "\"meta\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let parsed = serde_json::from_str(&json).expect("valid JSON");
        let Value::Object(obj) = parsed else {
            panic!("report must be an object")
        };
        assert!(obj.iter().any(|(k, _)| k == "events"));
    }

    #[test]
    fn diagnostics_excluded_from_canonical_json() {
        let mut r = MemRecorder::new();
        r.counter_add("visible", 1);
        let mut report = r.report();
        report
            .diagnostics
            .insert("sim.engine.events_executed".to_string(), 9);
        assert!(!report.to_json().contains("sim.engine.events_executed"));
        assert!(report
            .to_json_full()
            .contains("\"sim.engine.events_executed\": 9"));
        assert!(report.to_json().contains("visible"));
    }

    #[test]
    fn profile_and_scaling_excluded_from_canonical_json() {
        let mut r = MemRecorder::new().with_profiling();
        assert!(r.profiling_enabled());
        r.counter_add("visible", 1);
        r.profile_add(profile::keys::MOCKUP, 1234);
        let report = r.report();
        assert!(!report.to_json().contains("profile"));
        let full = report.to_json_full();
        assert!(full.contains("\"profile\""));
        assert!(full.contains(profile::keys::MOCKUP));
        // A one-thread run has no scaling to describe, in either export.
        assert!(!full.contains("scaling"));
        assert_eq!(
            report.profile.as_ref().unwrap().wall_ns("core.mockup"),
            1234
        );
    }

    #[test]
    fn profiling_off_recorder_reports_no_profile_sections() {
        let mut r = MemRecorder::new();
        assert!(!r.profiling_enabled());
        r.counter_add("visible", 1);
        let report = r.report();
        assert!(report.profile.is_none() && report.memory.is_none());
        assert!(!report.to_json_full().contains("\"profile\""));
    }

    #[test]
    fn shard_fork_inherits_profiling_and_absorb_merges_profile() {
        let mut root = MemRecorder::with_trace_capacity(8).with_profiling();
        let mut shard = root.fork();
        assert!(shard.profiling_enabled());
        assert!(!shard.trace_enabled(), "a shard never carries a trace sink");
        shard.profile_add(profile::keys::PARALLEL_COMPUTE, 40);
        root.profile_add(profile::keys::PARALLEL_COMPUTE, 2);
        root.absorb(shard);
        let report = root.report();
        let p = report.profile.as_ref().unwrap();
        assert_eq!(p.entries["sim.parallel.compute"].wall_ns, 42);
        assert_eq!(p.entries["sim.parallel.compute"].count, 2);
    }

    #[test]
    fn events_serialize_typed_fields() {
        let mut r = MemRecorder::new();
        r.event(
            SimTime(5),
            "fault_injected",
            vec![
                ("kind", FieldValue::Str("VmCrash".to_string())),
                ("vm", FieldValue::U64(3)),
                ("latency", FieldValue::Dur(SimDuration::from_secs(2))),
            ],
        );
        let report = r.report();
        assert_eq!(report.events.len(), 1);
        let ev = &report.events[0];
        assert_eq!(ev.field("vm"), Some(&FieldValue::U64(3)));
        let json = report.to_json();
        assert!(json.contains("\"at_ns\": 5"));
        assert!(json.contains("\"latency\": 2000000000"));
    }

    fn rec(t: u64, key: u64, name: &'static str) -> TraceRecord {
        TraceRecord::new(
            SimTime(t),
            EventId { time_ns: t, key },
            None,
            name,
            Some(1),
            vec![("n", FieldValue::U64(key))],
        )
    }

    #[test]
    fn trace_sink_assigns_sub_ordinals_and_bounds_memory() {
        let mut sink = TraceSink::new(3);
        sink.push(rec(10, 1, "a"));
        sink.push(rec(10, 1, "b")); // same event → sub 1
        sink.push(rec(20, 2, "c"));
        sink.push(rec(30, 3, "d")); // evicts the oldest ("a")
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.emitted(), 4);
        assert_eq!(sink.dropped(), 1);
        let records = sink.records();
        assert_eq!(
            records.iter().map(|r| r.name).collect::<Vec<_>>(),
            vec!["b", "c", "d"]
        );
        assert_eq!(records[0].sub, 1);
        assert_eq!(records[1].sub, 0);
    }

    #[test]
    fn trace_exports_are_valid_json() {
        let mut sink = TraceSink::new(16);
        sink.push(TraceRecord::new(
            SimTime(5),
            EventId { time_ns: 5, key: 9 },
            Some(EventId { time_ns: 1, key: 3 }),
            "fib_install",
            Some(7),
            vec![("prefix", FieldValue::Str("10.0.0.0/24".to_string()))],
        ));
        let jsonl = sink.to_jsonl();
        for line in jsonl.lines() {
            let _: Value = serde_json::from_str(line).expect("each JSONL line parses");
        }
        assert!(jsonl.contains("\"cause\""));
        assert!(!jsonl.contains("\"sub\""), "sub ordinal must not export");
        let chrome = sink.to_chrome_json();
        let parsed = serde_json::from_str(&chrome).expect("chrome trace parses");
        let Value::Object(obj) = parsed else {
            panic!("chrome trace must be an object")
        };
        assert!(obj.iter().any(|(k, _)| k == "traceEvents"));
    }

    #[test]
    fn summary_mentions_core_sections() {
        let mut r = MemRecorder::new();
        r.counter_add("routing.bgp_updates_sent", 12);
        r.span("mockup", None, SimTime(0), SimTime(1_000_000_000));
        let report = r.report().with_meta("seed", FieldValue::U64(42));
        let s = report.summary();
        assert!(s.contains("seed=42"));
        assert!(s.contains("routing.bgp_updates_sent"));
        assert!(s.contains("mockup"));
        assert!(RunReport::disabled().summary().contains("disabled"));
    }

    #[test]
    fn summary_surfaces_memory_and_fork_cow() {
        let mut r = MemRecorder::new();
        r.counter_add("routing.bgp_updates_sent", 12);
        let mut report = r.report();
        report.memory = Some(MemorySection {
            devices: DeviceMemTotals {
                devices: 3,
                rib_entries: 20,
                rib_bytes: 2048,
                fib_prefixes: 10,
                fib_route_entries: 12,
                fib_bytes: 1024,
            },
            top_devices: Vec::new(),
            interner: InternerMem {
                entries: 4,
                table_bytes: 512,
                hits: 9,
                hit_bytes_saved: 99,
            },
            event_queue: QueueMem {
                pending_events: 7,
                residue_bytes: 3584,
            },
            fork_cow: Some(CowStats {
                shared_bytes: 3072,
                copied_bytes: 1024,
            }),
        });
        // Snapshot of the two lines the memory section renders to: the
        // format is part of the operator-facing contract.
        let s = report.summary();
        assert!(
            s.contains(
                "  memory: 3 device(s), rib 2.0 KiB (20 entries), \
                 fib 1.0 KiB (10 prefixes), interner 0.5 KiB, \
                 queue residue 3.5 KiB (7 events)"
            ),
            "memory line changed:\n{s}"
        );
        assert!(
            s.contains("  fork_cow: shared 3.0 KiB / copied 1.0 KiB (75% shared)"),
            "fork_cow line changed:\n{s}"
        );
        // A root emulation (no fork) omits only the fork_cow line.
        report.memory.as_mut().unwrap().fork_cow = None;
        let s = report.summary();
        assert!(s.contains("  memory: 3 device(s)"));
        assert!(!s.contains("fork_cow"));
    }
}
