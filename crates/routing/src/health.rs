//! The deterministic in-run health plane: a Pingmesh-style probe mesh
//! walked through the live FIBs, per-pair SLO gauges with rolling
//! windows, and streaming gray-failure watchdogs.
//!
//! The tick / hop / report machinery — non-causal events, key ranges —
//! is [`crate::plane`]'s, shared with the traffic plane. What is the
//! probe mesh's own:
//!
//! **Sampling.** Each round probes [`ProbeConfig::pairs_per_round`]
//! ordered pairs drawn with replacement over the device population, a
//! pure function of `(seed, round)` ([`HealthState::sample_pairs`]).
//! Probes are UDP, so ECMP hashes them independently of the flows.
//!
//! **Watchdogs** (each firing lands an [`Incident`]):
//!
//! * **Blackhole** — the device's FIB holds a route for the probe's
//!   destination, but the probe dies there anyway (forwarding silently
//!   disabled, or the chosen next hop points at a dead link). Emits a
//!   [`GrayFailureWitness`] carrying the stale FIB entry's provenance
//!   digest and the hop where the packet vanished — the evidence a
//!   final-FIB differential cannot produce, because the FIB is
//!   *correct*.
//! * **ForwardingLoop** — TTL exhausted before delivery.
//! * **SloBreach** — a pair's rolling loss window crossed the
//!   configured threshold (fires on the transition, re-arms when the
//!   window recovers).
//! * **FibChurnAnomaly** — a device performed more route operations
//!   between two probe ticks than the configured threshold.
//!
//! The traffic plane (`crate::traffic`) extends the catalogue with
//! congestion kinds — **LinkOversubscribed**, **EcmpPolarisation**,
//! **FlowSloBreach** — that land on the same [`Incident`] timeline.

#![warn(missing_docs)]

use crate::plane::WalkCore;
use crystalnet_net::{DeviceId, IdMap, Ipv4Addr, Ipv4Prefix, LinkId};
use crystalnet_sim::rng::SimRng;
use crystalnet_sim::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::ops::Deref;

/// Probe-mesh configuration (the `MockupOptions::builder().health(...)`
/// knob lands here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeConfig {
    /// Interval between probe rounds (must be positive).
    pub period: SimDuration,
    /// Ordered pairs sampled per round (sampling is with replacement
    /// over the device population, seeded per round).
    pub pairs_per_round: usize,
    /// Rolling SLO window length, in probes per pair.
    pub slo_window: usize,
    /// Loss percentage over a full window at which the pair breaches.
    pub slo_loss_pct: u8,
    /// Probe TTL (loop detection fires on exhaustion).
    pub ttl: u8,
    /// Route operations per device per round above which the churn
    /// watchdog fires.
    pub churn_threshold: u64,
    /// Probe-stream seed. `0` means "derive from the run seed" (the
    /// orchestrator substitutes its seed before enabling).
    pub seed: u64,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            period: SimDuration::from_secs(5),
            pairs_per_round: 8,
            slo_window: 12,
            slo_loss_pct: 25,
            ttl: 64,
            churn_threshold: 10_000,
            seed: 0,
        }
    }
}

impl ProbeConfig {
    /// A config probing every `period` with the other knobs at their
    /// defaults.
    #[must_use]
    pub fn with_period(period: SimDuration) -> Self {
        ProbeConfig {
            period,
            ..ProbeConfig::default()
        }
    }
}

/// Reachability/latency/loss gauges for one ordered `(src, dst)` pair,
/// plus the rolling SLO window.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PairStats {
    /// Probes launched from `src` toward `dst`.
    pub sent: u64,
    /// Probes that reached `dst`.
    pub delivered: u64,
    /// Probes that died en route (any cause).
    pub lost: u64,
    /// Sum of delivered probes' one-way latencies (ns).
    pub latency_ns_sum: u64,
    /// Worst delivered one-way latency (ns).
    pub latency_ns_max: u64,
    /// Outcomes of the last [`ProbeConfig::slo_window`] probes
    /// (`true` = delivered), newest at the back.
    pub window: VecDeque<bool>,
    /// Whether the pair is currently in SLO breach (set on the firing
    /// transition, cleared when the window recovers).
    pub breached: bool,
}

impl PairStats {
    /// Losses inside the current window.
    #[must_use]
    pub fn window_lost(&self) -> u64 {
        self.window.iter().filter(|d| !**d).count() as u64
    }

    /// Records one walk's outcome and reports whether the pair just
    /// *transitioned* into SLO breach (the watchdog fires exactly once
    /// per excursion). The window parameters are the recording plane's.
    pub fn record(
        &mut self,
        delivered: bool,
        latency_ns: u64,
        slo_window: usize,
        slo_loss_pct: u8,
    ) -> bool {
        self.sent += 1;
        if delivered {
            self.delivered += 1;
            self.latency_ns_sum += latency_ns;
            self.latency_ns_max = self.latency_ns_max.max(latency_ns);
        } else {
            self.lost += 1;
        }
        self.window.push_back(delivered);
        while self.window.len() > slo_window {
            self.window.pop_front();
        }
        if self.window.len() < slo_window {
            return false;
        }
        let breach = self.window_lost() * 100 > u64::from(slo_loss_pct) * (slo_window as u64);
        let fired = breach && !self.breached;
        self.breached = breach;
        fired
    }
}

/// Why a probe stopped where it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// Reached its destination.
    Delivered,
    /// Died at a device whose FIB *had* a route (gray failure).
    Blackhole,
    /// TTL exhausted before delivery.
    TtlExpired,
    /// A device on the path had no route for the destination.
    NoRoute,
    /// A device on the path was down or not yet booted.
    DeviceDown,
    /// Dropped by an ACL.
    AclDrop,
}

impl ProbeOutcome {
    /// Stable export label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ProbeOutcome::Delivered => "delivered",
            ProbeOutcome::Blackhole => "blackhole",
            ProbeOutcome::TtlExpired => "ttl_expired",
            ProbeOutcome::NoRoute => "no_route",
            ProbeOutcome::DeviceDown => "device_down",
            ProbeOutcome::AclDrop => "acl_drop",
        }
    }

    /// Whether the probe reached its destination.
    #[must_use]
    pub fn delivered(self) -> bool {
        matches!(self, ProbeOutcome::Delivered)
    }
}

/// The evidence behind a blackhole incident: where the packet vanished
/// and the provenance digest of the FIB entry that *should* have carried
/// it — the stale state a final-FIB differential cannot flag, because
/// the entry is present and well-formed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrayFailureWitness {
    /// The device where the probe died.
    pub device: DeviceId,
    /// Hop index at which it died (0 = the source itself).
    pub hop: u32,
    /// The FIB prefix the device matched for the destination.
    pub prefix: Option<Ipv4Prefix>,
    /// Provenance digest of the matched FIB entry (PR 4's causal-chain
    /// digest), when the OS keeps provenance.
    pub prov_digest: Option<u64>,
}

/// What kind of watchdog fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncidentKind {
    /// A probe died at a device whose FIB had a route.
    Blackhole(GrayFailureWitness),
    /// A probe's TTL expired at `device`.
    ForwardingLoop {
        /// Where the TTL ran out.
        device: DeviceId,
        /// Hop index at exhaustion.
        hop: u32,
    },
    /// A pair's rolling loss window crossed the threshold.
    SloBreach {
        /// Losses inside the window when the breach fired.
        window_lost: u64,
        /// Window length (probes).
        window: u64,
    },
    /// A device churned more routes between ticks than the threshold.
    FibChurnAnomaly {
        /// The churning device.
        device: DeviceId,
        /// Route operations observed since the previous tick.
        ops: u64,
        /// The configured threshold.
        threshold: u64,
    },
    /// A directional link carried more bytes between two traffic ticks
    /// than the configured fraction of its capacity-per-period
    /// (traffic-plane watchdog).
    LinkOversubscribed {
        /// The over-subscribed link.
        link: LinkId,
        /// The transmitting endpoint (link accounting is directional).
        device: DeviceId,
        /// Bytes carried in the period.
        bytes: u64,
        /// The link's modelled capacity for one period, in bytes.
        capacity_bytes: u64,
    },
    /// A device's ECMP traffic concentrated past the threshold on one
    /// member of a multi-member group (traffic-plane watchdog).
    EcmpPolarisation {
        /// The polarised device.
        device: DeviceId,
        /// The egress interface absorbing the traffic.
        iface: u32,
        /// Integer percentage of the device's ECMP bytes on that member.
        share_pct: u64,
        /// Largest ECMP group size observed in the period.
        members: u64,
    },
    /// A `(src, dst)` pair's rolling *flow*-loss window crossed the
    /// threshold (traffic-plane watchdog).
    FlowSloBreach {
        /// Losses inside the window when the breach fired.
        window_lost: u64,
        /// Window length (flows).
        window: u64,
    },
}

impl IncidentKind {
    /// Stable export label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            IncidentKind::Blackhole(_) => "blackhole",
            IncidentKind::ForwardingLoop { .. } => "forwarding_loop",
            IncidentKind::SloBreach { .. } => "slo_breach",
            IncidentKind::FibChurnAnomaly { .. } => "fib_churn_anomaly",
            IncidentKind::LinkOversubscribed { .. } => "link_oversubscribed",
            IncidentKind::EcmpPolarisation { .. } => "ecmp_polarisation",
            IncidentKind::FlowSloBreach { .. } => "flow_slo_breach",
        }
    }

    /// Whether the traffic plane raises this kind (its congestion
    /// watchdogs); the probe mesh raises every other kind. A plane's
    /// incidents are therefore a filter of the one timeline.
    #[must_use]
    pub fn is_traffic(&self) -> bool {
        matches!(
            self,
            IncidentKind::LinkOversubscribed { .. }
                | IncidentKind::EcmpPolarisation { .. }
                | IncidentKind::FlowSloBreach { .. }
        )
    }

    /// Rank for the deterministic incident sort (ties broken by kind).
    fn rank(&self) -> u8 {
        match self {
            IncidentKind::Blackhole(_) => 0,
            IncidentKind::ForwardingLoop { .. } => 1,
            IncidentKind::SloBreach { .. } => 2,
            IncidentKind::FibChurnAnomaly { .. } => 3,
            IncidentKind::LinkOversubscribed { .. } => 4,
            IncidentKind::EcmpPolarisation { .. } => 5,
            IncidentKind::FlowSloBreach { .. } => 6,
        }
    }
}

/// One watchdog firing on the incident timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incident {
    /// Virtual time of the firing.
    pub at: SimTime,
    /// Probe source (for churn incidents, the churning device).
    pub src: DeviceId,
    /// Probe destination (for churn incidents, the churning device).
    pub dst: DeviceId,
    /// Ordinal that total-orders same-instant incidents of one kind:
    /// the probe sequence for probe-derived incidents, a `(1 << 63)`-
    /// tagged `(round, device)` composite for churn incidents, a
    /// `(1 << 61)`-tagged flow sequence for flow SLO breaches, and
    /// high-bit-tagged `(device, link/iface)` composites for the
    /// tick-time congestion watchdogs (`crate::traffic`). Same-instant
    /// incidents of *different* kinds are ordered by kind rank.
    pub seq: u64,
    /// What fired.
    pub kind: IncidentKind,
}

impl Incident {
    /// A firing at `at`; a device-scoped watchdog names its device as
    /// both `src` and `dst`.
    pub(crate) fn new(
        at: SimTime,
        src: DeviceId,
        dst: DeviceId,
        seq: u64,
        kind: IncidentKind,
    ) -> Self {
        Incident {
            at,
            src,
            dst,
            seq,
            kind,
        }
    }

    /// The deterministic timeline sort key.
    #[must_use]
    pub fn sort_key(&self) -> (u64, u64, u8) {
        (self.at.as_nanos(), self.seq, self.kind.rank())
    }
}

/// Live probe-mesh state inside a
/// [`ControlPlaneWorld`](crate::harness::ControlPlaneWorld): the shared walk state
/// (population, pair gauges — reached through `Deref`), the probe
/// totals, and the churn-watchdog accounting. Its incidents land on the
/// world's one timeline. Cloned wholesale on fork.
#[derive(Debug, Clone, Default)]
pub struct HealthState {
    /// The active configuration (seed already resolved).
    pub cfg: ProbeConfig,
    /// What every packet-walk plane keeps.
    pub core: WalkCore,
    /// Total probes launched.
    pub probes_sent: u64,
    /// Total probes delivered.
    pub probes_delivered: u64,
    /// Total probes lost.
    pub probes_lost: u64,
    /// Route operations per device since the last probe tick (the churn
    /// watchdog's accounting; reset every tick).
    pub ops_since_tick: IdMap<DeviceId, u64>,
    /// Whether a tick has fired yet: the first tick only primes the
    /// churn baseline (boot-time convergence churn is not an anomaly).
    pub churn_primed: bool,
}

impl Deref for HealthState {
    type Target = WalkCore;

    fn deref(&self) -> &WalkCore {
        &self.core
    }
}

impl HealthState {
    /// Fresh state over `population` (sorted by device id internally).
    #[must_use]
    pub fn new(cfg: ProbeConfig, population: Vec<(DeviceId, Ipv4Addr)>) -> Self {
        let derived_seed = SimRng::for_component(cfg.seed, "health-probe").next_u64();
        HealthState {
            core: WalkCore::new(
                population,
                derived_seed,
                cfg.period,
                cfg.ttl,
                cfg.slo_window,
                cfg.slo_loss_pct,
            ),
            cfg,
            ..HealthState::default()
        }
    }

    /// The pairs round `round` probes, as population indices: a pure
    /// function of `(derived_seed, round)`. Self-pairs are skipped by
    /// construction.
    #[must_use]
    pub fn sample_pairs(&self, round: u64) -> Vec<(usize, usize)> {
        let n = self.population.len();
        if n < 2 {
            return Vec::new();
        }
        let mut rng = self.round_rng(round);
        (0..self.cfg.pairs_per_round)
            .map(|_| {
                let src = rng.below(n as u64) as usize;
                let mut dst = rng.below(n as u64 - 1) as usize;
                if dst >= src {
                    dst += 1;
                }
                (src, dst)
            })
            .collect()
    }

    /// The churn watchdog, run at every probe tick: route operations per
    /// device since the previous tick against the threshold. The first
    /// tick only primes the baseline — boot-time convergence churn is
    /// expected, not an anomaly.
    pub(crate) fn churn_watchdog(&mut self, now: SimTime, round: u64) -> Vec<Incident> {
        let residue = self.ops_since_tick.drain();
        if !std::mem::replace(&mut self.churn_primed, true) {
            return Vec::new();
        }
        let threshold = self.cfg.churn_threshold;
        // The residue is hashed; firings go in device order, which numbers
        // their trace records.
        let mut over: Vec<_> = residue.filter(|&(_, ops)| ops > threshold).collect();
        over.sort_unstable_by_key(|&(device, _)| device);
        over.into_iter()
            .map(|(device, ops)| {
                let seq = (1 << 63) | (round << 22) | u64::from(device.0);
                let kind = IncidentKind::FibChurnAnomaly {
                    device,
                    ops,
                    threshold,
                };
                Incident::new(now, device, device, seq, kind)
            })
            .collect()
    }

    /// Counts one launched probe.
    pub(crate) fn count_sent(&mut self) {
        self.probes_sent += 1;
    }

    /// Counts one probe's fate.
    pub(crate) fn count_report(&mut self, delivered: bool) {
        if delivered {
            self.probes_delivered += 1;
        } else {
            self.probes_lost += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop(n: u32) -> Vec<(DeviceId, Ipv4Addr)> {
        (0..n)
            .map(|i| (DeviceId(i), Ipv4Addr(0x0a00_0000 + i)))
            .collect()
    }

    #[test]
    fn sampling_is_deterministic_and_skips_self_pairs() {
        let h = HealthState::new(
            ProbeConfig {
                pairs_per_round: 64,
                seed: 7,
                ..ProbeConfig::default()
            },
            pop(9),
        );
        let a = h.sample_pairs(3);
        let b = h.sample_pairs(3);
        assert_eq!(a, b, "same round must sample the same pairs");
        assert!(a.iter().all(|(s, d)| s != d), "no self-probes");
        assert!(a.iter().all(|(s, d)| *s < 9 && *d < 9));
        assert_ne!(h.sample_pairs(4), a, "rounds sample independently");
    }

    #[test]
    fn sampling_handles_degenerate_populations() {
        let h = HealthState::new(ProbeConfig::default(), pop(1));
        assert!(h.sample_pairs(0).is_empty());
        let h = HealthState::new(ProbeConfig::default(), pop(0));
        assert!(h.sample_pairs(0).is_empty());
    }

    #[test]
    fn window_breach_fires_on_transition_and_rearms() {
        let mut p = PairStats::default();
        // Fill the window with deliveries: no breach.
        for _ in 0..4 {
            assert!(!p.record(true, 1_000, 4, 25));
        }
        // Two losses in a window of 4 = 50% > 25%: fires exactly once.
        assert!(!p.record(false, 0, 4, 25), "1/4 lost is 25%, not > 25%");
        assert!(p.record(false, 0, 4, 25), "2/4 lost crosses the threshold");
        assert!(!p.record(false, 0, 4, 25), "still breached: no re-fire");
        // Recover the window, then breach again: re-fires.
        for _ in 0..4 {
            assert!(!p.record(true, 1_000, 4, 25));
        }
        assert!(!p.breached, "window recovered");
        p.record(false, 0, 4, 25);
        assert!(p.record(false, 0, 4, 25), "a fresh excursion re-fires");
        assert_eq!(p.sent, 13);
        assert_eq!(p.lost, 5);
        assert_eq!(p.latency_ns_max, 1_000);
    }
}
