//! Deterministic, virtual-time observability for CrystalNet runs.
//!
//! CrystalNet's value proposition is *visibility*: operators must be able to
//! ask "what did the engine and each BGP speaker actually do during this
//! run?" without perturbing the run itself. This crate provides the three
//! pieces the Emulation API builds `pull_report()` and `pull_trace()` on:
//!
//! 1. [`MemRecorder`], the one recorder: instrumented code emits through
//!    it — spans and events stamped with [`SimTime`], wall-clock profile
//!    keys, causal trace records — and readers read it directly. It is
//!    either on or off. An off recorder ([`MemRecorder::disabled`])
//!    stores nothing, and its `enabled()` is the one branch a hot path
//!    takes before preparing emission arguments. Counters, gauges and
//!    histograms are not the recorder's: the report builders read them
//!    from the state that holds them;
//! 2. a bounded [`TraceSink`] of [`TraceRecord`]s with JSONL and Chrome
//!    trace-event exporters;
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
//!   and are exported from `BTreeMap`s, so their export order depends on
//!   the keys alone; histograms are sorted before summarizing;
//! - *diagnostic* metrics record facts about the execution itself
//!   (events executed, queue high-water, interner hit rate). The report's
//!   caller fills [`RunReport::diagnostics`]; they are excluded from the
//!   canonical export and only appear in [`RunReport::to_json_full`],
//!   beside the wall-clock [`Profile`].

use crystalnet_sim::{SimDuration, SimTime};
use serde::{Serialize, Value};

pub mod profile;
mod recorder;
mod report;
pub mod testutil;
mod trace;

pub use profile::{
    CowStats, DeviceMem, DeviceMemTotals, InternerMem, MemorySection, Profile, ProfileEntry,
    QueueMem,
};
pub use recorder::MemRecorder;
pub use report::{HistogramSummary, RunReport};
pub use testutil::{assert_same_key_structure, json_deep_structure, json_key_structure};
pub use trace::{trace_chrome_json, trace_jsonl, TraceRecord, TraceSink};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crystalnet_sim::EventId;

    #[test]
    fn off_recorder_is_disabled_and_silent() {
        let mut r = MemRecorder::disabled().with_profiling();
        assert!(!r.enabled() && !r.trace_enabled() && !r.profiling_enabled());
        r.profile_add(profile::keys::MOCKUP, 10);
        r.span("mockup", None, SimTime(0), SimTime(10));
        r.event(SimTime(5), "e", vec![("n", FieldValue::U64(1))]);
        r.trace(rec(5, 1, "t"));
        assert!(r.trace_sink().is_none());
        assert_eq!(r.report(), RunReport::disabled());
        assert!(MemRecorder::from_recorder(&r).is_none());
        // A clone (an emulation fork's recorder) is off.
        let copy = r.clone();
        assert!(!copy.enabled() && !copy.profiling_enabled());
        assert!(MemRecorder::from_recorder(&copy).is_none());
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
        let mut report = MemRecorder::new().report();
        report.counters.insert("visible".to_string(), 1);
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
        r.profile_add(profile::keys::MOCKUP, 1234);
        let mut report = r.report();
        report.counters.insert("visible".to_string(), 1);
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
        let r = MemRecorder::new();
        assert!(!r.profiling_enabled());
        let mut report = r.report();
        report.counters.insert("visible".to_string(), 1);
        assert!(report.profile.is_none() && report.memory.is_none());
        assert!(!report.to_json_full().contains("\"profile\""));
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
        let jsonl = trace_jsonl(&sink.records());
        for line in jsonl.lines() {
            let _: Value = serde_json::from_str(line).expect("each JSONL line parses");
        }
        assert!(jsonl.contains("\"cause\""));
        assert!(!jsonl.contains("\"sub\""), "sub ordinal must not export");
        let chrome = trace_chrome_json(&sink.records());
        let parsed = serde_json::from_str(&chrome).expect("chrome trace parses");
        let Value::Object(obj) = parsed else {
            panic!("chrome trace must be an object")
        };
        assert!(obj.iter().any(|(k, _)| k == "traceEvents"));
    }

    #[test]
    fn summary_mentions_core_sections() {
        let mut r = MemRecorder::new();
        r.span("mockup", None, SimTime(0), SimTime(1_000_000_000));
        let mut report = r.report().with_meta("seed", FieldValue::U64(42));
        let name = "routing.bgp_updates_sent".to_string();
        report.counters.insert(name, 12);
        let s = report.summary();
        assert!(s.contains("seed=42"));
        assert!(s.contains("routing.bgp_updates_sent"));
        assert!(s.contains("mockup"));
        assert!(RunReport::disabled().summary().contains("disabled"));
    }

    #[test]
    fn summary_surfaces_memory_and_fork_cow() {
        let mut report = MemRecorder::new().report();
        let name = "routing.bgp_updates_sent".to_string();
        report.counters.insert(name, 12);
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
