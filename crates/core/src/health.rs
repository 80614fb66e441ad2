//! User-facing view of the continuous health plane: the probe-mesh
//! gauges as a canonical [`HealthReport`], and the incident timeline
//! with cause correlation.
//!
//! The runtime half — probe scheduling, watchdogs, shard fork/absorb —
//! lives in `crystalnet_routing::health` because it runs inside the
//! harness. This module renders what that runtime accumulated and adds
//! the one piece only the orchestrator can: *correlation*. An incident
//! by itself says "probe 4711 died at hop 2"; correlated against the
//! recovery journal and the change log it says "…200ms after fault
//! `link-flap #17` fired", which is what an operator acts on.

use crate::metrics::{JournalKind, RecoveryJournal};
use crystalnet_net::DeviceId;
use crystalnet_routing::health::{HealthState, Incident, IncidentKind, PairStats};
use crystalnet_sim::{SimDuration, SimTime};
use serde::{Serialize, Value};
use std::collections::BTreeMap;

/// One `(src, dst)` pair's gauges as either packet-walk plane keeps
/// them — probes for the health report, flows for the traffic report:
/// reachability, latency, and the rolling SLO window. All fields are
/// integers so the canonical export is byte-stable across platforms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairGauges {
    /// Launching device.
    pub src: DeviceId,
    /// Launching device's hostname.
    pub src_host: String,
    /// Target device.
    pub dst: DeviceId,
    /// Target device's hostname.
    pub dst_host: String,
    /// Walks completed (delivered + lost).
    pub sent: u64,
    /// Walks that reached `dst`.
    pub delivered: u64,
    /// Walks that died en route.
    pub lost: u64,
    /// Sum of delivered walks' one-way latencies (ns).
    pub latency_ns_sum: u64,
    /// Worst delivered one-way latency (ns).
    pub latency_ns_max: u64,
    /// Losses inside the current SLO window.
    pub window_lost: u64,
    /// Walks inside the current SLO window.
    pub window_len: u64,
    /// Whether the pair is currently in SLO breach.
    pub breached: bool,
}

impl PairGauges {
    /// Renders a plane's pair gauges, sorted by `(src, dst)`; `resolve`
    /// maps device ids to hostnames.
    #[must_use]
    pub fn from_pairs(
        pairs: &BTreeMap<(DeviceId, DeviceId), PairStats>,
        resolve: impl Fn(DeviceId) -> String,
    ) -> Vec<Self> {
        pairs
            .iter()
            .map(|(&(src, dst), p)| PairGauges {
                src,
                src_host: resolve(src),
                dst,
                dst_host: resolve(dst),
                sent: p.sent,
                delivered: p.delivered,
                lost: p.lost,
                latency_ns_sum: p.latency_ns_sum,
                latency_ns_max: p.latency_ns_max,
                window_lost: p.window_lost(),
                window_len: p.window.len() as u64,
                breached: p.breached,
            })
            .collect()
    }
}

impl Serialize for PairGauges {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("src".to_string(), Value::Uint(u64::from(self.src.0))),
            ("src_host".to_string(), Value::Str(self.src_host.clone())),
            ("dst".to_string(), Value::Uint(u64::from(self.dst.0))),
            ("dst_host".to_string(), Value::Str(self.dst_host.clone())),
            ("sent".to_string(), Value::Uint(self.sent)),
            ("delivered".to_string(), Value::Uint(self.delivered)),
            ("lost".to_string(), Value::Uint(self.lost)),
            (
                "latency_ns_sum".to_string(),
                Value::Uint(self.latency_ns_sum),
            ),
            (
                "latency_ns_max".to_string(),
                Value::Uint(self.latency_ns_max),
            ),
            ("window_lost".to_string(), Value::Uint(self.window_lost)),
            ("window_len".to_string(), Value::Uint(self.window_len)),
            ("breached".to_string(), Value::Bool(self.breached)),
        ])
    }
}

/// The probe mesh's state, rendered for export. Canonical: byte-stable
/// across reps and `profiling(true)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Whether the health plane was enabled for this run.
    pub enabled: bool,
    /// Probe period (zero when disabled).
    pub period: SimDuration,
    /// Probes launched (may exceed `delivered + lost` — in-flight probes
    /// at pull time are counted here only).
    pub probes_sent: u64,
    /// Probes that reached their target.
    pub probes_delivered: u64,
    /// Probes that died en route (any cause).
    pub probes_lost: u64,
    /// Incidents on the timeline.
    pub incident_count: u64,
    /// Per-pair gauges, sorted by `(src, dst)`.
    pub pairs: Vec<PairGauges>,
}

impl HealthReport {
    /// A disabled report (health plane off).
    #[must_use]
    pub fn disabled() -> Self {
        HealthReport {
            enabled: false,
            period: SimDuration::ZERO,
            probes_sent: 0,
            probes_delivered: 0,
            probes_lost: 0,
            incident_count: 0,
            pairs: Vec::new(),
        }
    }

    /// Renders the runtime state; `resolve` maps device ids to
    /// hostnames.
    #[must_use]
    pub fn from_state(state: &HealthState, resolve: impl Fn(DeviceId) -> String) -> Self {
        HealthReport {
            enabled: true,
            period: state.cfg.period,
            probes_sent: state.probes_sent,
            probes_delivered: state.probes_delivered,
            probes_lost: state.probes_lost,
            incident_count: state.incidents.len() as u64,
            pairs: PairGauges::from_pairs(&state.pairs, resolve),
        }
    }

    /// Canonical JSON export: bit-identical across reps for the same
    /// seed. Ends with a newline.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(&self.to_value())
            .expect("health report serialization is infallible");
        s.push('\n');
        s
    }
}

impl Serialize for HealthReport {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("enabled".to_string(), Value::Bool(self.enabled)),
            ("period_ns".to_string(), Value::Uint(self.period.as_nanos())),
            ("probes_sent".to_string(), Value::Uint(self.probes_sent)),
            (
                "probes_delivered".to_string(),
                Value::Uint(self.probes_delivered),
            ),
            ("probes_lost".to_string(), Value::Uint(self.probes_lost)),
            (
                "incident_count".to_string(),
                Value::Uint(self.incident_count),
            ),
            (
                "pairs".to_string(),
                Value::Array(self.pairs.iter().map(Serialize::to_value).collect()),
            ),
        ])
    }
}

/// The plausible cause an incident was correlated against: the nearest
/// preceding journal or change-log entry within
/// [`CORRELATION_WINDOW`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncidentCause {
    /// A planned fault fired (or the health monitor detected one).
    Fault {
        /// When the fault fired.
        at: SimTime,
        /// Human-readable fault description.
        description: String,
    },
    /// A recovery action ran (reboot, quarantine, speaker restart…).
    Recovery {
        /// When the action ran.
        at: SimTime,
        /// Human-readable action description.
        description: String,
    },
    /// A `ChangeSet` was applied.
    ChangeApplied {
        /// When the change applied.
        at: SimTime,
        /// The change's summary.
        description: String,
    },
}

impl IncidentCause {
    /// When the candidate cause happened.
    #[must_use]
    pub fn at(&self) -> SimTime {
        match self {
            IncidentCause::Fault { at, .. }
            | IncidentCause::Recovery { at, .. }
            | IncidentCause::ChangeApplied { at, .. } => *at,
        }
    }

    /// Stable label (`fault`, `recovery`, `change`).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            IncidentCause::Fault { .. } => "fault",
            IncidentCause::Recovery { .. } => "recovery",
            IncidentCause::ChangeApplied { .. } => "change",
        }
    }

    /// The human-readable description.
    #[must_use]
    pub fn description(&self) -> &str {
        match self {
            IncidentCause::Fault { description, .. }
            | IncidentCause::Recovery { description, .. }
            | IncidentCause::ChangeApplied { description, .. } => description,
        }
    }
}

/// An incident with hostnames resolved and its plausible cause
/// attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrelatedIncident {
    /// The raw watchdog firing.
    pub incident: Incident,
    /// Hostname of the probing device.
    pub src_host: String,
    /// Hostname of the probed device.
    pub dst_host: String,
    /// Nearest preceding plausible cause within
    /// [`CORRELATION_WINDOW`], if any.
    pub cause: Option<IncidentCause>,
}

/// How far back correlation looks for a plausible cause. Fault
/// propagation through BGP withdrawal cascades takes tens of seconds of
/// virtual time on large fabrics; two minutes bounds the search without
/// blaming ancient history.
pub const CORRELATION_WINDOW: SimDuration = SimDuration::from_secs(120);

/// Renders one journal entry as a candidate cause.
fn journal_cause(at: SimTime, kind: &JournalKind) -> IncidentCause {
    match kind {
        JournalKind::FaultInjected { fault } => IncidentCause::Fault {
            at,
            description: fault.clone(),
        },
        JournalKind::HeartbeatMissed { vm, consecutive } => IncidentCause::Fault {
            at,
            description: format!("heartbeat miss #{consecutive} on vm {vm}"),
        },
        JournalKind::VmDeclaredDead { vm } => IncidentCause::Fault {
            at,
            description: format!("vm {vm} declared dead"),
        },
        JournalKind::RebootAttempt { vm, attempt, .. } => IncidentCause::Recovery {
            at,
            description: format!("reboot attempt #{attempt} on vm {vm}"),
        },
        JournalKind::VmQuarantined { vm, spare } => IncidentCause::Recovery {
            at,
            description: format!("vm {vm} quarantined to spare {spare}"),
        },
        JournalKind::SpeakerRestarted { device, epoch } => IncidentCause::Recovery {
            at,
            description: format!("speaker {device} restarted (epoch {epoch})"),
        },
        JournalKind::LinkFlap { link, up } => IncidentCause::Fault {
            at,
            description: format!("link #{link} {}", if *up { "up" } else { "down" }),
        },
        JournalKind::RecoveryComplete { vm, devices, .. } => IncidentCause::Recovery {
            at,
            description: format!("recovery complete on vm {vm} ({devices} device(s))"),
        },
    }
}

/// The last element of time-ordered `items` stamped at or before `at`.
fn last_at_or_before<T>(items: &[T], at: SimTime, stamp: impl Fn(&T) -> SimTime) -> Option<&T> {
    items[..items.partition_point(|i| stamp(i) <= at)].last()
}

/// Correlates each incident against the nearest preceding plausible
/// cause — a journal entry or an applied change — within
/// [`CORRELATION_WINDOW`]. Ties at the same instant prefer the change
/// log (an operator action is the more specific explanation than the
/// monitor noise around it), then the later entry.
///
/// `change_log` must be in time order, as an emulation's is. The winner
/// is picked by time alone and only the winner is rendered, so the cost
/// per incident is two binary searches and at most one description.
#[must_use]
pub fn correlate<'a>(
    incidents: impl IntoIterator<Item = &'a Incident>,
    journal: &RecoveryJournal,
    change_log: &[(SimTime, String)],
    resolve: impl Fn(DeviceId) -> String,
) -> Vec<CorrelatedIncident> {
    let journal = journal.sorted();
    incidents
        .into_iter()
        .map(|inc| {
            let in_window = |at: SimTime| inc.at.since(at) <= CORRELATION_WINDOW;
            let change = last_at_or_before(change_log, inc.at, |c| c.0);
            let event = last_at_or_before(&journal.events, inc.at, |e| e.at)
                .filter(|e| change.is_none_or(|c| e.at > c.0));
            let cause = match (event, change) {
                (Some(e), _) => in_window(e.at).then(|| journal_cause(e.at, &e.kind)),
                (None, Some((at, description))) => {
                    in_window(*at).then(|| IncidentCause::ChangeApplied {
                        at: *at,
                        description: description.clone(),
                    })
                }
                (None, None) => None,
            };
            CorrelatedIncident {
                incident: inc.clone(),
                src_host: resolve(inc.src),
                dst_host: resolve(inc.dst),
                cause,
            }
        })
        .collect()
}

impl CorrelatedIncident {
    /// The incident as one canonical JSON object (one JSONL line).
    #[must_use]
    pub fn to_value(&self) -> Value {
        let inc = &self.incident;
        let mut obj = vec![
            ("at_ns".to_string(), Value::Uint(inc.at.as_nanos())),
            ("kind".to_string(), Value::Str(inc.kind.label().to_string())),
            ("src".to_string(), Value::Uint(u64::from(inc.src.0))),
            ("src_host".to_string(), Value::Str(self.src_host.clone())),
            ("dst".to_string(), Value::Uint(u64::from(inc.dst.0))),
            ("dst_host".to_string(), Value::Str(self.dst_host.clone())),
            ("seq".to_string(), Value::Uint(inc.seq)),
        ];
        match &inc.kind {
            IncidentKind::Blackhole(w) => {
                obj.push(("device".to_string(), Value::Uint(u64::from(w.device.0))));
                obj.push(("hop".to_string(), Value::Uint(u64::from(w.hop))));
                obj.push((
                    "prefix".to_string(),
                    match w.prefix {
                        Some(p) => Value::Str(p.to_string()),
                        None => Value::Null,
                    },
                ));
                obj.push((
                    "prov_digest".to_string(),
                    match w.prov_digest {
                        Some(d) => Value::Uint(d),
                        None => Value::Null,
                    },
                ));
            }
            IncidentKind::ForwardingLoop { device, hop } => {
                obj.push(("device".to_string(), Value::Uint(u64::from(device.0))));
                obj.push(("hop".to_string(), Value::Uint(u64::from(*hop))));
            }
            IncidentKind::SloBreach {
                window_lost,
                window,
            } => {
                obj.push(("window_lost".to_string(), Value::Uint(*window_lost)));
                obj.push(("window".to_string(), Value::Uint(*window)));
            }
            IncidentKind::FibChurnAnomaly {
                device,
                ops,
                threshold,
            } => {
                obj.push(("device".to_string(), Value::Uint(u64::from(device.0))));
                obj.push(("ops".to_string(), Value::Uint(*ops)));
                obj.push(("threshold".to_string(), Value::Uint(*threshold)));
            }
            IncidentKind::LinkOversubscribed {
                link,
                device,
                bytes,
                capacity_bytes,
            } => {
                obj.push(("link".to_string(), Value::Uint(u64::from(link.0))));
                obj.push(("device".to_string(), Value::Uint(u64::from(device.0))));
                obj.push(("bytes".to_string(), Value::Uint(*bytes)));
                obj.push(("capacity_bytes".to_string(), Value::Uint(*capacity_bytes)));
            }
            IncidentKind::EcmpPolarisation {
                device,
                iface,
                share_pct,
                members,
            } => {
                obj.push(("device".to_string(), Value::Uint(u64::from(device.0))));
                obj.push(("iface".to_string(), Value::Uint(u64::from(*iface))));
                obj.push(("share_pct".to_string(), Value::Uint(*share_pct)));
                obj.push(("members".to_string(), Value::Uint(*members)));
            }
            IncidentKind::FlowSloBreach {
                window_lost,
                window,
            } => {
                obj.push(("window_lost".to_string(), Value::Uint(*window_lost)));
                obj.push(("window".to_string(), Value::Uint(*window)));
            }
        }
        obj.push((
            "cause".to_string(),
            match &self.cause {
                None => Value::Null,
                Some(c) => Value::Object(vec![
                    ("kind".to_string(), Value::Str(c.label().to_string())),
                    ("at_ns".to_string(), Value::Uint(c.at().as_nanos())),
                    (
                        "description".to_string(),
                        Value::Str(c.description().to_string()),
                    ),
                ]),
            },
        ));
        Value::Object(obj)
    }
}

/// Renders correlated incidents as JSONL: one compact object per line,
/// in timeline order, trailing newline when nonempty.
#[must_use]
pub fn incidents_jsonl(incidents: &[CorrelatedIncident]) -> String {
    let mut out = String::new();
    for inc in incidents {
        out.push_str(
            &serde_json::to_string(&inc.to_value()).expect("incident serialization is infallible"),
        );
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crystalnet_routing::health::GrayFailureWitness;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    fn incident_at(s: u64) -> Incident {
        Incident {
            at: t(s),
            src: DeviceId(1),
            dst: DeviceId(2),
            seq: 7,
            kind: IncidentKind::Blackhole(GrayFailureWitness {
                device: DeviceId(3),
                hop: 2,
                prefix: None,
                prov_digest: Some(0xdead),
            }),
        }
    }

    #[test]
    fn correlation_picks_nearest_preceding_cause_within_window() {
        let mut journal = RecoveryJournal::default();
        journal.record(
            t(10),
            JournalKind::FaultInjected {
                fault: "link flap".to_string(),
            },
        );
        journal.record(t(40), JournalKind::VmDeclaredDead { vm: 0 });
        // A tie at t=20 goes to the change log.
        journal.record(t(20), JournalKind::LinkFlap { link: 3, up: false });
        let changes = vec![(t(20), "config replace".to_string())];
        let out = correlate(&[incident_at(25)], &journal, &changes, |d| {
            format!("dev{}", d.0)
        });
        assert_eq!(out.len(), 1);
        // t=20 change is nearer than the t=10 fault; t=40 is in the future.
        match &out[0].cause {
            Some(IncidentCause::ChangeApplied { at, description }) => {
                assert_eq!(*at, t(20));
                assert_eq!(description, "config replace");
            }
            other => panic!("wrong cause: {other:?}"),
        }
        assert_eq!(out[0].src_host, "dev1");
    }

    #[test]
    fn correlation_respects_the_window_and_handles_no_cause() {
        let mut journal = RecoveryJournal::default();
        journal.record(
            t(10),
            JournalKind::FaultInjected {
                fault: "ancient".to_string(),
            },
        );
        // 200s later: outside the 120s window.
        let out = correlate(&[incident_at(210)], &journal, &[], |_| String::new());
        assert_eq!(out[0].cause, None);
    }

    #[test]
    fn jsonl_lines_carry_the_witness_and_cause() {
        let mut journal = RecoveryJournal::default();
        journal.record(
            t(24),
            JournalKind::FaultInjected {
                fault: "silent blackhole".to_string(),
            },
        );
        let out = correlate(&[incident_at(25)], &journal, &[], |d| format!("d{}", d.0));
        let jsonl = incidents_jsonl(&out);
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.contains("\"kind\":\"blackhole\""), "{jsonl}");
        assert!(jsonl.contains("\"prov_digest\":57005"), "{jsonl}");
        assert!(jsonl.contains("silent blackhole"), "{jsonl}");
        assert!(incidents_jsonl(&[]).is_empty());
    }

    #[test]
    fn disabled_report_is_stable() {
        let r = HealthReport::disabled();
        assert!(!r.enabled);
        assert!(r.to_json().contains("\"enabled\": false"));
    }
}
