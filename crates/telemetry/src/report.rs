//! The run report: histogram summaries and the canonical / full JSON
//! and table exports of everything a run recorded.

use crate::{EventRecord, FieldValue, MemorySection, Profile, SpanRecord};
use crystalnet_sim::metrics::percentile_f64;
use serde::{Serialize, Value};
use std::collections::BTreeMap;

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
                (memory.interner.table_bytes + memory.interner.provenance_bytes) as f64 / 1024.0,
                memory.event_queue.residue_bytes as f64 / 1024.0,
                memory.event_queue.pending_events,
            );
            let _ = writeln!(
                out,
                "  memory by table: loc-rib {:.1} KiB, adj-rib-in {:.1} KiB, \
                 adj-rib-out {:.1} KiB, mrai {:.1} KiB, config {:.1} KiB, \
                 sessions {:.1} KiB, attrs {:.1} KiB, provenance {:.1} KiB",
                d.loc_rib_bytes as f64 / 1024.0,
                d.adj_rib_in_bytes as f64 / 1024.0,
                d.adj_rib_out_bytes as f64 / 1024.0,
                d.mrai_bytes as f64 / 1024.0,
                d.config_bytes as f64 / 1024.0,
                d.session_bytes as f64 / 1024.0,
                memory.interner.table_bytes as f64 / 1024.0,
                memory.interner.provenance_bytes as f64 / 1024.0,
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
