//! Causal trace records, the bounded sink that keeps them, and the
//! JSONL and Chrome trace-event exporters.

use crate::FieldValue;
use crystalnet_sim::{EventId, SimTime};
use serde::{Serialize, Value};
use std::collections::VecDeque;

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
}
