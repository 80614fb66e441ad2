//! User-facing view of the traffic plane: per-link utilisation and
//! per-pair flow gauges as a canonical [`TrafficReport`].
//!
//! The runtime half — flow sampling, ECMP spreading, congestion
//! watchdogs — lives in `crystalnet_routing::traffic` because it runs
//! inside the harness. This module renders what that
//! runtime accumulated: offered vs delivered load, which links ran hot
//! (and how hot, against the configured capacity per period), and which
//! source/destination pairs breached their flow SLO. Congestion
//! *incidents* are not here — they land on the one timeline
//! `Emulation::incidents()` returns, beside the probe mesh's, so
//! operators read one ordered story, not two.

use crate::health::PairGauges;
use crystalnet_net::{DeviceId, LinkId};
use crystalnet_routing::health::Incident;
use crystalnet_routing::traffic::TrafficState;
use crystalnet_sim::SimDuration;
use serde::{Serialize, Value};

/// One directed link's utilisation gauges, as observed from the
/// transmitting device. Both directions of a physical link appear as
/// separate rows (they are charged independently — a link can be hot
/// one way and idle the other).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LinkUtilisation {
    /// Transmitting device.
    pub device: DeviceId,
    /// Transmitting device's hostname.
    pub host: String,
    /// The link carrying the bytes.
    pub link: LinkId,
    /// Total bytes transmitted over the whole run.
    pub bytes: u64,
    /// Hottest single traffic period, in bytes.
    pub peak_bytes: u64,
    /// Capacity of one traffic period, in bytes (from
    /// `link_capacity_bps` × period).
    pub capacity_bytes: u64,
    /// Peak-period utilisation in percent (integer, truncating —
    /// byte-stable across platforms). May exceed 100 when the link was
    /// over-subscribed.
    pub peak_util_pct: u64,
}

/// The traffic plane's state, rendered for export. Canonical:
/// byte-stable across reps and `profiling(true)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficReport {
    /// Whether the traffic plane was enabled for this run.
    pub enabled: bool,
    /// Flow-generation period (zero when disabled).
    pub period: SimDuration,
    /// Flows launched (may exceed `delivered + lost` — in-flight flows
    /// at pull time are counted here only).
    pub flows_sent: u64,
    /// Flows that reached their destination.
    pub flows_delivered: u64,
    /// Flows that died en route (any cause).
    pub flows_lost: u64,
    /// Delivered flows that crossed a device whose route for the flow's
    /// destination had changed since first observed — traffic that rode
    /// through a transient.
    pub flows_rerouted: u64,
    /// Bytes offered to the network (all launched flows).
    pub bytes_offered: u64,
    /// Bytes that arrived.
    pub bytes_delivered: u64,
    /// Bytes lost with their flows.
    pub bytes_lost: u64,
    /// Congestion incidents on the timeline.
    pub incident_count: u64,
    /// Per-directed-link utilisation, sorted by `(device, link)`.
    pub links: Vec<LinkUtilisation>,
    /// Per-pair gauges, sorted by `(src, dst)`.
    pub pairs: Vec<PairGauges>,
}

impl TrafficReport {
    /// A disabled report (traffic plane off).
    #[must_use]
    pub fn disabled() -> Self {
        TrafficReport {
            enabled: false,
            period: SimDuration::ZERO,
            flows_sent: 0,
            flows_delivered: 0,
            flows_lost: 0,
            flows_rerouted: 0,
            bytes_offered: 0,
            bytes_delivered: 0,
            bytes_lost: 0,
            incident_count: 0,
            links: Vec::new(),
            pairs: Vec::new(),
        }
    }

    /// Renders the runtime state, counting the traffic plane's firings on
    /// the `incidents` timeline; `resolve` maps device ids to hostnames.
    #[must_use]
    pub fn from_state(
        state: &TrafficState,
        incidents: &[Incident],
        resolve: impl Fn(DeviceId) -> String,
    ) -> Self {
        let capacity_bytes = state.cfg.capacity_bytes_per_period();
        let mut link_bytes: Vec<_> = state.link_bytes.iter().collect();
        link_bytes.sort_unstable_by_key(|&(k, _)| k);
        let links = link_bytes
            .into_iter()
            .map(|(&(device, link), &bytes)| {
                let peak_bytes = state.link_peak.get(&(device, link)).copied().unwrap_or(0);
                LinkUtilisation {
                    device,
                    host: resolve(device),
                    link,
                    bytes,
                    peak_bytes,
                    capacity_bytes,
                    peak_util_pct: peak_bytes
                        .saturating_mul(100)
                        .checked_div(capacity_bytes)
                        .unwrap_or(0),
                }
            })
            .collect();
        TrafficReport {
            enabled: true,
            period: state.cfg.period,
            flows_sent: state.flows_sent,
            flows_delivered: state.flows_delivered,
            flows_lost: state.flows_lost,
            flows_rerouted: state.flows_rerouted,
            bytes_offered: state.bytes_offered,
            bytes_delivered: state.bytes_delivered,
            bytes_lost: state.bytes_lost,
            incident_count: incidents.iter().filter(|i| i.kind.is_traffic()).count() as u64,
            links,
            pairs: PairGauges::from_pairs(&state.pairs, resolve),
        }
    }

    /// Canonical JSON export: bit-identical across reps for the same
    /// seed. Ends with a newline.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(&self.to_value())
            .expect("traffic report serialization is infallible");
        s.push('\n');
        s
    }
}

impl Serialize for TrafficReport {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("enabled".to_string(), Value::Bool(self.enabled)),
            ("period_ns".to_string(), Value::Uint(self.period.as_nanos())),
            ("flows_sent".to_string(), Value::Uint(self.flows_sent)),
            (
                "flows_delivered".to_string(),
                Value::Uint(self.flows_delivered),
            ),
            ("flows_lost".to_string(), Value::Uint(self.flows_lost)),
            (
                "flows_rerouted".to_string(),
                Value::Uint(self.flows_rerouted),
            ),
            ("bytes_offered".to_string(), Value::Uint(self.bytes_offered)),
            (
                "bytes_delivered".to_string(),
                Value::Uint(self.bytes_delivered),
            ),
            ("bytes_lost".to_string(), Value::Uint(self.bytes_lost)),
            (
                "incident_count".to_string(),
                Value::Uint(self.incident_count),
            ),
            (
                "links".to_string(),
                Value::Array(self.links.iter().map(Serialize::to_value).collect()),
            ),
            (
                "pairs".to_string(),
                Value::Array(self.pairs.iter().map(Serialize::to_value).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_report_is_stable() {
        let r = TrafficReport::disabled();
        assert!(!r.enabled);
        assert!(r.to_json().contains("\"enabled\": false"));
        assert!(r.to_json().contains("\"flows_sent\": 0"));
    }
}
