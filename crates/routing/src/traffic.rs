//! The deterministic flow-level traffic plane: seeded per-device
//! server/user profiles generating flow arrivals, ECMP hash-spread over
//! the dataplane's [`decide`](crystalnet_dataplane::decide) path,
//! per-link utilisation gauges accumulated in virtual time, and
//! streaming congestion watchdogs.
//!
//! The tick / hop / report machinery — non-causal events, key ranges,
//! shard fork and absorb — is [`crate::plane`]'s, shared with the probe
//! mesh. What is the flow load's own:
//!
//! **Sampling.** The population is split once, by seed, into *servers*
//! and *users*; each round launches [`TrafficConfig::flows_per_round`]
//! flows, even-indexed ones user→server requests and odd-indexed ones
//! server→user responses ([`TrafficState::sample_flows`]). One walk
//! stands in for the whole flow: its bytes are charged to every
//! traversed link. Flows are TCP, with the flow sequence number as the
//! packet `identification`, so ECMP spreads concurrent flows over group
//! members.
//!
//! **Charging.** Link accounting is directional on purpose — keyed by
//! the *transmitting* device, so a cut link's two directions are charged
//! on different shards and each shard's tick-time watchdog evaluation is
//! complete for the keys it owns.
//!
//! **Watchdogs** (each firing lands an [`Incident`] on the shared
//! timeline, alongside the health plane's):
//!
//! * **LinkOversubscribed** — a directional link carried more bytes
//!   between two traffic ticks than the configured fraction of its
//!   capacity-per-period.
//! * **EcmpPolarisation** — a device's ECMP traffic concentrated past
//!   the configured share on one member of a multi-member group (the
//!   classic hash-polarisation pathology).
//! * **FlowSloBreach** — a `(src, dst)` pair's rolling flow-loss
//!   window crossed the threshold (fires on the transition, re-arms
//!   when the window recovers). A lost flow is never double-reported as
//!   a blackhole: the *witness*-producing gray-failure watchdogs stay
//!   the probe mesh's job.

#![warn(missing_docs)]

use crate::health::{Incident, IncidentKind};
use crate::plane::{split_owned, Walk, WalkCore};
use crystalnet_dataplane::FibEntry;
use crystalnet_net::{DeviceId, Ipv4Addr, Ipv4Prefix, LinkId};
use crystalnet_sim::rng::SimRng;
use crystalnet_sim::{SimDuration, SimTime};
use crystalnet_telemetry::Recorder;
use std::collections::BTreeMap;
use std::ops::Deref;

/// Traffic-plane configuration (the `MockupOptions::builder()
/// .traffic(...)` knob lands here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficConfig {
    /// Interval between flow-arrival rounds (must be positive).
    pub period: SimDuration,
    /// Flows launched per round (sampled over the server/user profile
    /// split, seeded per round).
    pub flows_per_round: usize,
    /// Size of a user→server request flow, in bytes.
    pub request_bytes: u64,
    /// Size of a server→user response flow, in bytes.
    pub response_bytes: u64,
    /// Percentage of devices assigned the *server* profile at enable
    /// time (the rest are *users*; the split is seeded and at least one
    /// of each is forced when the population allows).
    pub server_share_pct: u8,
    /// Modelled per-direction link capacity in bits per second.
    pub link_capacity_bps: u64,
    /// Percentage of a link's capacity-per-period above which the
    /// over-subscription watchdog fires.
    pub oversub_pct: u8,
    /// Percentage of a device's ECMP bytes on a single member (of a
    /// group with ≥ 2 members) above which the polarisation watchdog
    /// fires.
    pub polarisation_pct: u8,
    /// Minimum ECMP bytes per device per round before the polarisation
    /// watchdog is consulted (suppresses verdicts on trivial samples).
    pub polarisation_min_bytes: u64,
    /// Rolling SLO window length, in flows per pair.
    pub slo_window: usize,
    /// Loss percentage over a full window at which a pair breaches.
    pub slo_loss_pct: u8,
    /// Flow TTL (loops surface as lost flows; the loop *witness* is the
    /// probe mesh's job).
    pub ttl: u8,
    /// Flow-stream seed. `0` means "derive from the run seed" (the
    /// orchestrator substitutes its seed before enabling).
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            period: SimDuration::from_secs(5),
            flows_per_round: 8,
            request_bytes: 2_000,
            response_bytes: 100_000,
            server_share_pct: 25,
            link_capacity_bps: 10_000_000_000,
            oversub_pct: 80,
            polarisation_pct: 90,
            polarisation_min_bytes: 64_000,
            slo_window: 12,
            slo_loss_pct: 25,
            ttl: 64,
            seed: 0,
        }
    }
}

impl TrafficConfig {
    /// A config launching flows every `period` with the other knobs at
    /// their defaults.
    #[must_use]
    pub fn with_period(period: SimDuration) -> Self {
        TrafficConfig {
            period,
            ..TrafficConfig::default()
        }
    }

    /// How many bytes one direction of a link can carry in one period
    /// at the modelled capacity.
    #[must_use]
    pub fn capacity_bytes_per_period(&self) -> u64 {
        let bits = u128::from(self.link_capacity_bps) * u128::from(self.period.as_nanos());
        u64::try_from(bits / (8 * 1_000_000_000)).unwrap_or(u64::MAX)
    }
}

/// One flow the sampler planned for a round: population indices plus
/// the flow size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Source index into [`WalkCore::population`].
    pub src: usize,
    /// Destination index into [`WalkCore::population`].
    pub dst: usize,
    /// Flow size in bytes.
    pub bytes: u64,
}

/// Per-device ECMP spread residue between two traffic ticks: bytes per
/// chosen egress member, counted only for forwards through groups with
/// at least two members.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EcmpResidue {
    /// Bytes per chosen egress interface since the last tick.
    pub by_iface: BTreeMap<u32, u64>,
    /// Largest ECMP group size observed since the last tick.
    pub members_max: u64,
}

/// A content digest of a FIB entry's next-hop set, used to detect that
/// a device's route for a prefix *changed* between two packets of the
/// same transient (the "rerouted" signal in rehearsal deltas). Pure
/// function of the entry, so every shard computes the same digest.
#[must_use]
pub fn entry_sig(entry: &FibEntry) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for hop in &entry.next_hops {
        h ^= (u64::from(hop.iface) << 32) | u64::from(hop.via.0);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h ^ entry.next_hops.len() as u64
}

/// Live traffic-plane state inside a `ControlPlaneWorld`
/// (`crate::harness::ControlPlaneWorld`): the shared walk state
/// (population, per-pair flow gauges, congestion incident log — reached
/// through `Deref`), utilisation gauges, flow totals, and the per-tick
/// residues the watchdogs evaluate. Cloned wholesale on fork; split and
/// re-merged around a parallel run (every keyed entry travels with the
/// shard owning its device, so gauges stay continuous and
/// byte-identical).
#[derive(Debug, Clone, Default)]
pub struct TrafficState {
    /// The active configuration (seed already resolved).
    pub cfg: TrafficConfig,
    /// What every packet-walk plane keeps.
    pub core: WalkCore,
    /// Seeded profile split, parallel to `population`: `true` = server.
    pub servers: Vec<bool>,
    /// Bytes transmitted per directional link since the last tick,
    /// keyed `(transmitting device, link)` — the over-subscription
    /// watchdog's residue, reset every tick.
    pub tx_since_tick: BTreeMap<(DeviceId, LinkId), u64>,
    /// Cumulative bytes transmitted per directional link.
    pub link_bytes: BTreeMap<(DeviceId, LinkId), u64>,
    /// Worst per-period byte count seen per directional link (the peak
    /// the utilisation report renders against capacity-per-period).
    pub link_peak: BTreeMap<(DeviceId, LinkId), u64>,
    /// Per-device ECMP spread residue, reset every tick.
    pub ecmp_since_tick: BTreeMap<DeviceId, EcmpResidue>,
    /// Last observed next-hop-set digest per `(device, prefix)` — the
    /// reroute detector's memory.
    pub route_sig: BTreeMap<(DeviceId, Ipv4Prefix), u64>,
    /// Total flows launched.
    pub flows_sent: u64,
    /// Total flows whose last byte reached the destination.
    pub flows_delivered: u64,
    /// Total flows lost en route (any cause).
    pub flows_lost: u64,
    /// Total flows that crossed a device whose route for the flow's
    /// destination had changed since last observed.
    pub flows_rerouted: u64,
    /// Bytes offered by launched flows.
    pub bytes_offered: u64,
    /// Bytes of delivered flows.
    pub bytes_delivered: u64,
    /// Bytes of lost flows.
    pub bytes_lost: u64,
}

impl Deref for TrafficState {
    type Target = WalkCore;

    fn deref(&self) -> &WalkCore {
        &self.core
    }
}

impl TrafficState {
    /// Fresh state over `population` (sorted by device id internally),
    /// with the server/user profile split drawn from the seed. When the
    /// population has at least two devices, at least one server and one
    /// user are forced so every round can sample flows.
    #[must_use]
    pub fn new(cfg: TrafficConfig, population: Vec<(DeviceId, Ipv4Addr)>) -> Self {
        let derived_seed = SimRng::for_component(cfg.seed, "traffic-flow").next_u64();
        let mut profile_rng = SimRng::for_component(cfg.seed, "traffic-profile");
        let mut servers: Vec<bool> = population
            .iter()
            .map(|_| profile_rng.below(100) < u64::from(cfg.server_share_pct))
            .collect();
        if servers.len() >= 2 {
            if !servers.iter().any(|s| *s) {
                servers[0] = true;
            }
            if servers.iter().all(|s| *s) {
                let last = servers.len() - 1;
                servers[last] = false;
            }
        }
        TrafficState {
            core: WalkCore::new(
                population,
                derived_seed,
                cfg.period,
                cfg.ttl,
                cfg.slo_window,
                cfg.slo_loss_pct,
            ),
            cfg,
            servers,
            ..TrafficState::default()
        }
    }

    /// The flows round `round` launches: a pure function of
    /// `(derived_seed, round)`, independent of shard layout and of every
    /// other round. Even-indexed flows are user→server requests,
    /// odd-indexed flows server→user responses (Elvis-style paired
    /// request/response traffic at flow granularity).
    #[must_use]
    pub fn sample_flows(&self, round: u64) -> Vec<FlowSpec> {
        let servers: Vec<usize> = (0..self.population.len())
            .filter(|i| self.servers[*i])
            .collect();
        let users: Vec<usize> = (0..self.population.len())
            .filter(|i| !self.servers[*i])
            .collect();
        if servers.is_empty() || users.is_empty() {
            return Vec::new();
        }
        let mut rng = self.round_rng(round);
        (0..self.cfg.flows_per_round)
            .map(|i| {
                let s = servers[rng.below(servers.len() as u64) as usize];
                let u = users[rng.below(users.len() as u64) as usize];
                if i % 2 == 0 {
                    FlowSpec {
                        src: u,
                        dst: s,
                        bytes: self.cfg.request_bytes,
                    }
                } else {
                    FlowSpec {
                        src: s,
                        dst: u,
                        bytes: self.cfg.response_bytes,
                    }
                }
            })
            .collect()
    }

    /// Records that `dev` observed next-hop digest `sig` for `prefix`
    /// and reports whether that *differs* from the previous observation
    /// (first observations prime silently). Drives the "rerouted during
    /// the transient" counter.
    pub fn note_route(&mut self, dev: DeviceId, prefix: Ipv4Prefix, sig: u64) -> bool {
        match self.route_sig.insert((dev, prefix), sig) {
            Some(prev) => prev != sig,
            None => false,
        }
    }

    /// Charges `bytes` transmitted by `dev` out `iface` over `link` to
    /// the utilisation gauges and, when the route was an ECMP group of
    /// `members` ≥ 2, to the device's spread residue.
    pub(crate) fn charge_tx(
        &mut self,
        dev: DeviceId,
        link: LinkId,
        iface: u32,
        members: usize,
        bytes: u64,
    ) {
        *self.tx_since_tick.entry((dev, link)).or_insert(0) += bytes;
        *self.link_bytes.entry((dev, link)).or_insert(0) += bytes;
        if members >= 2 {
            let res = self.ecmp_since_tick.entry(dev).or_default();
            *res.by_iface.entry(iface).or_insert(0) += bytes;
            res.members_max = res.members_max.max(members as u64);
        }
    }

    /// The congestion watchdogs, run at every traffic tick over the
    /// residues accumulated since the previous one (which they reset).
    /// The residue maps hold only locally owned transmitting devices, so
    /// every verdict is computed on exactly one world.
    pub(crate) fn congestion_watchdogs(&mut self, now: SimTime) -> Vec<Incident> {
        let capacity_bytes = self.cfg.capacity_bytes_per_period();
        let mut fired = Vec::new();
        // Over-subscription: bytes per directional link against the
        // capacity threshold.
        for ((dev, link), bytes) in std::mem::take(&mut self.tx_since_tick) {
            let peak = self.link_peak.entry((dev, link)).or_insert(0);
            *peak = (*peak).max(bytes);
            if bytes * 100 > u64::from(self.cfg.oversub_pct) * capacity_bytes {
                let seq = (0b101 << 61) | (u64::from(dev.0) << 24) | u64::from(link.0 & 0xff_ffff);
                let kind = IncidentKind::LinkOversubscribed {
                    link,
                    device: dev,
                    bytes,
                    capacity_bytes,
                };
                fired.push(Incident::new(now, dev, dev, seq, kind));
            }
        }
        // Polarisation: one member of a ≥2-member ECMP group absorbing
        // more than the threshold share of the device's hashed bytes
        // over a non-trivial sample.
        for (dev, res) in std::mem::take(&mut self.ecmp_since_tick) {
            let total: u64 = res.by_iface.values().sum();
            if res.members_max < 2 || total < self.cfg.polarisation_min_bytes {
                continue;
            }
            let (hot_iface, hot_bytes) = res
                .by_iface
                .iter()
                .map(|(i, b)| (*i, *b))
                .max_by_key(|&(i, b)| (b, std::cmp::Reverse(i)))
                .expect("residue entries are non-empty");
            if hot_bytes * 100 > u64::from(self.cfg.polarisation_pct) * total {
                let seq = (0b110 << 61) | (u64::from(dev.0) << 8) | u64::from(hot_iface & 0xff);
                let kind = IncidentKind::EcmpPolarisation {
                    device: dev,
                    iface: hot_iface,
                    share_pct: hot_bytes * 100 / total,
                    members: res.members_max,
                };
                fired.push(Incident::new(now, dev, dev, seq, kind));
            }
        }
        fired
    }

    /// Counts one launched flow.
    pub(crate) fn count_sent(&mut self, bytes: u64, rec: &mut dyn Recorder) {
        self.flows_sent += 1;
        self.bytes_offered += bytes;
        if rec.enabled() {
            rec.counter_add("traffic.flows_sent", 1);
            rec.counter_add("traffic.bytes_offered", bytes);
        }
    }

    /// Counts one flow's fate: flow and byte totals, and the
    /// rerouted-during-transient counter.
    pub(crate) fn count_report(&mut self, delivered: bool, walk: &Walk, rec: &mut dyn Recorder) {
        let (flows, bytes, counters) = if delivered {
            let counters = ["traffic.flows_delivered", "traffic.bytes_delivered"];
            (
                &mut self.flows_delivered,
                &mut self.bytes_delivered,
                counters,
            )
        } else {
            let counters = ["traffic.flows_lost", "traffic.bytes_lost"];
            (&mut self.flows_lost, &mut self.bytes_lost, counters)
        };
        *flows += 1;
        *bytes += walk.bytes;
        self.flows_rerouted += u64::from(walk.rerouted);
        if rec.enabled() {
            rec.counter_add(counters[0], 1);
            rec.counter_add(counters[1], walk.bytes);
            if walk.rerouted {
                rec.counter_add("traffic.flows_rerouted", 1);
            }
        }
    }

    /// Splits off the state a parallel shard carries: the shared walk
    /// state ([`WalkCore::fork_for_shard`]), the replicated profile
    /// split, every device-keyed gauge and residue of owned devices
    /// (moved), and zeroed totals (merged back additively at the join).
    #[must_use]
    pub fn fork_for_shard(&mut self, owns: impl Fn(DeviceId) -> bool) -> TrafficState {
        TrafficState {
            cfg: self.cfg.clone(),
            core: self.core.fork_for_shard(&owns),
            servers: self.servers.clone(),
            tx_since_tick: split_owned(&mut self.tx_since_tick, |(d, _)| owns(*d)),
            link_bytes: split_owned(&mut self.link_bytes, |(d, _)| owns(*d)),
            link_peak: split_owned(&mut self.link_peak, |(d, _)| owns(*d)),
            ecmp_since_tick: split_owned(&mut self.ecmp_since_tick, |d| owns(*d)),
            route_sig: split_owned(&mut self.route_sig, |(d, _)| owns(*d)),
            ..TrafficState::default()
        }
    }

    /// Folds a shard's state back in after a parallel run: keyed
    /// entries return to the maps they left (each key is exclusively
    /// owned by one shard, which carried the live continuation), totals
    /// add.
    pub fn absorb_shard(&mut self, shard: TrafficState) {
        self.core.absorb_shard(shard.core);
        self.tx_since_tick.extend(shard.tx_since_tick);
        self.link_bytes.extend(shard.link_bytes);
        self.link_peak.extend(shard.link_peak);
        self.ecmp_since_tick.extend(shard.ecmp_since_tick);
        self.route_sig.extend(shard.route_sig);
        self.flows_sent += shard.flows_sent;
        self.flows_delivered += shard.flows_delivered;
        self.flows_lost += shard.flows_lost;
        self.flows_rerouted += shard.flows_rerouted;
        self.bytes_offered += shard.bytes_offered;
        self.bytes_delivered += shard.bytes_delivered;
        self.bytes_lost += shard.bytes_lost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crystalnet_dataplane::NextHop;

    fn pop(n: u32) -> Vec<(DeviceId, Ipv4Addr)> {
        (0..n)
            .map(|i| (DeviceId(i), Ipv4Addr(0x0a00_0000 + i)))
            .collect()
    }

    #[test]
    fn flow_sampling_is_deterministic_and_respects_profiles() {
        let t = TrafficState::new(
            TrafficConfig {
                flows_per_round: 64,
                seed: 7,
                ..TrafficConfig::default()
            },
            pop(9),
        );
        let a = t.sample_flows(3);
        assert_eq!(a, t.sample_flows(3), "same round samples the same flows");
        assert_ne!(t.sample_flows(4), a, "rounds sample independently");
        for (i, f) in a.iter().enumerate() {
            assert_ne!(f.src, f.dst, "profiles are disjoint: no self-flows");
            let (from_user, size) = if i % 2 == 0 {
                (true, t.cfg.request_bytes)
            } else {
                (false, t.cfg.response_bytes)
            };
            assert_eq!(f.bytes, size);
            assert_eq!(t.servers[f.src], !from_user, "src profile matches parity");
            assert_eq!(t.servers[f.dst], from_user, "dst profile matches parity");
        }
    }

    #[test]
    fn profile_split_always_has_both_roles_when_possible() {
        for share in [0u8, 100] {
            let t = TrafficState::new(
                TrafficConfig {
                    server_share_pct: share,
                    ..TrafficConfig::default()
                },
                pop(5),
            );
            assert!(
                t.servers.iter().any(|s| *s),
                "share {share}: a server exists"
            );
            assert!(
                t.servers.iter().any(|s| !*s),
                "share {share}: a user exists"
            );
            assert!(!t.sample_flows(0).is_empty());
        }
        let t = TrafficState::new(TrafficConfig::default(), pop(1));
        assert!(t.sample_flows(0).is_empty(), "one device cannot flow");
    }

    #[test]
    fn capacity_per_period_scales_with_period() {
        let cfg = TrafficConfig {
            link_capacity_bps: 8_000_000_000,
            period: SimDuration::from_secs(2),
            ..TrafficConfig::default()
        };
        assert_eq!(cfg.capacity_bytes_per_period(), 2_000_000_000);
    }

    #[test]
    fn entry_sig_tracks_next_hop_set_content() {
        let mk = |hops: &[(u32, u32)]| FibEntry {
            next_hops: hops
                .iter()
                .map(|&(iface, via)| NextHop {
                    iface,
                    via: Ipv4Addr(via),
                })
                .collect(),
        };
        let a = mk(&[(1, 10), (2, 20)]);
        assert_eq!(entry_sig(&a), entry_sig(&a.clone()));
        assert_ne!(entry_sig(&a), entry_sig(&mk(&[(1, 10)])));
        assert_ne!(entry_sig(&a), entry_sig(&mk(&[(1, 10), (3, 20)])));
    }

    #[test]
    fn shard_split_travels_device_keyed_state_and_merges_totals() {
        let mut t = TrafficState::new(TrafficConfig::default(), pop(4));
        let l = LinkId(9);
        t.tx_since_tick.insert((DeviceId(1), l), 500);
        t.tx_since_tick.insert((DeviceId(3), l), 700);
        t.link_peak.insert((DeviceId(1), l), 500);
        t.route_sig
            .insert((DeviceId(1), Ipv4Prefix::new(Ipv4Addr(0), 0)), 42);
        t.core
            .pairs
            .entry((DeviceId(1), DeviceId(2)))
            .or_default()
            .sent = 3;

        let mut shard = t.fork_for_shard(|d| d.0 < 2);
        assert_eq!(shard.tx_since_tick.get(&(DeviceId(1), l)), Some(&500));
        assert_eq!(shard.tx_since_tick.get(&(DeviceId(3), l)), None);
        assert_eq!(shard.pairs.len(), 1, "pair travels with its source");
        assert_eq!(shard.route_sig.len(), 1);
        assert_eq!(t.tx_since_tick.len(), 1, "owned residue moves out");

        // A tick on the shard consumes the residue it was handed; what
        // it accumulates afterwards is all that comes back.
        shard.congestion_watchdogs(SimTime::ZERO);
        assert_eq!(shard.link_peak[&(DeviceId(1), l)], 500);
        shard.flows_sent = 2;
        shard.tx_since_tick.insert((DeviceId(1), l), 900);
        t.absorb_shard(shard);
        assert_eq!(t.flows_sent, 2);
        assert_eq!(
            t.tx_since_tick.get(&(DeviceId(1), l)),
            Some(&900),
            "owned keys return"
        );
        assert_eq!(
            t.tx_since_tick.get(&(DeviceId(3), l)),
            Some(&700),
            "unowned keys survive"
        );
    }

    #[test]
    fn note_route_primes_then_flags_changes() {
        let mut t = TrafficState::new(TrafficConfig::default(), pop(2));
        let p = Ipv4Prefix::new(Ipv4Addr(0x0a00_0000), 24);
        assert!(!t.note_route(DeviceId(0), p, 1), "first observation primes");
        assert!(!t.note_route(DeviceId(0), p, 1), "unchanged route is quiet");
        assert!(t.note_route(DeviceId(0), p, 2), "changed digest flags");
        assert!(!t.note_route(DeviceId(0), p, 2), "and re-primes");
    }
}
