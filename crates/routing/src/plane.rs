//! The packet-walk planes: one tick / hop / report path in virtual time,
//! shared by the probe mesh ([`crate::health`]) and the flow load
//! ([`crate::traffic`]).
//!
//! Both planes are the paper's packet-level primitive (Table 2's
//! `InjectPackets`/`PullPackets`: signature packets walked through the
//! live FIBs) run continuously. A seeded **tick** launches the round's
//! walks; each **hop** asks the world what one device does with the
//! packet right now (`ControlPlaneWorld::hop`, the ladder the
//! synchronous `trace_packet` climbs too), so a walk experiences
//! transient state (a link that is down *right now*, a FIB entry not yet
//! withdrawn) where it is; the terminal hop sends a **report** back to
//! the source's pair gauges.
//! What a plane samples, charges and watches is in its own module.
//!
//! **Non-causal.** Plane events never count against route quiescence
//! (like timers): observing a network does not change when it is declared
//! converged, and a planes-off run is byte-identical to a build without
//! them.
//!
//! **Keys.** Plane event keys live in ranges no other event can reach:
//! device keys are `(dev + 1) << 32 | seq` (far below `2^61` at any real
//! device count), control keys are a small counter, and the synthetic
//! packet-hop ids of `pull_trace` set bit 63. Flow ticks take
//! `[1 << 61, 3 << 60)`, flow walks `[3 << 60, 1 << 62)`, probe walks
//! `[1 << 62, 3 << 61)` and probe ticks `[3 << 61, 4 << 61)` — at one
//! instant, in that order. All are content-derived, so `(time, key)`
//! stays a total order with no coordination between shards. A walk owns
//! 9 bits of slot under its sequence number: TTLs are 8-bit, plus one
//! slot for the report.
//!
//! **Sharding.** A tick is a broadcast: every shard replays the identical
//! event over the replicated population and launches exactly the walks
//! whose source it owns — the union is the serial behaviour. Each shard
//! schedules its own copy of the next tick (same time, same key); the
//! join keeps shard 0's, like link-state broadcasts. All mutable
//! accounting is keyed by one owning device (pair gauges by the walk's
//! *source*, link/ECMP/reroute state by the *transmitting* device, churn
//! residue by the device itself): it moves to the owner's shard at the
//! fork and back at the join, while totals and incidents start at zero
//! on a shard and merge back additively.

use crate::harness::{trace_here, ControlPlaneEngine, HarnessEvent, HarnessEventKind, HopStep};
use crate::health::{
    GrayFailureWitness, HealthState, Incident, IncidentKind, PairStats, ProbeOutcome,
};
use crate::traffic::{entry_sig, TrafficState};
use crystalnet_dataplane::{ipproto, Ipv4Packet};
use crystalnet_net::{DeviceId, Ipv4Addr};
use crystalnet_sim::rng::SimRng;
use crystalnet_sim::{SimDuration, SimTime};
use crystalnet_telemetry::FieldValue;
use std::collections::BTreeMap;

/// Which packet-walk plane an event, gauge or incident belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Plane {
    /// The health plane's probe mesh.
    Probe,
    /// The traffic plane's flow load.
    Flow,
}

/// One walk in flight: the payload every hop and the report carry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Walk {
    /// The launching device — the one whose gauges the report lands on.
    pub(crate) src: DeviceId,
    src_addr: Ipv4Addr,
    dst: DeviceId,
    dst_addr: Ipv4Addr,
    /// The device the packet is at, how many hops it took to get there,
    /// the interface it arrived on (`None` at the source), and the TTL it
    /// arrived with.
    pub(crate) at: DeviceId,
    hop: u32,
    ingress: Option<u32>,
    ttl: u8,
    /// Sequence number within the plane: `round × walks-per-round + i`.
    seq: u64,
    /// Bytes charged per traversed link (`0` for probes).
    pub(crate) bytes: u64,
    /// Whether any device on the path so far had *changed* its route for
    /// the destination since last observed (flows only).
    pub(crate) rerouted: bool,
    /// Accumulated forward-path latency (ns) — also the conservative
    /// return-trip bound the report is scheduled under.
    path_ns: u64,
}

/// The state both planes keep the same way: who can be sampled, the
/// per-pair gauges, the incident log, and the walk parameters. The
/// plane states ([`HealthState`], [`TrafficState`]) deref to it.
#[derive(Debug, Clone, Default)]
pub struct WalkCore {
    /// Walk endpoints: every device with an OS at enable time, with its
    /// loopback address, sorted by device id. Replicated on every shard
    /// so sampling is a shard-independent pure function.
    pub population: Vec<(DeviceId, Ipv4Addr)>,
    /// Per-pair gauges with their rolling SLO windows, keyed
    /// `(src, dst)`.
    pub pairs: BTreeMap<(DeviceId, DeviceId), PairStats>,
    /// The plane's incident timeline, kept in [`Incident::sort_key`]
    /// order.
    pub incidents: Vec<Incident>,
    /// Per-round sampling seed base, derived once from the plane
    /// config's seed at enable time.
    pub derived_seed: u64,
    /// Interval between rounds.
    pub period: SimDuration,
    /// TTL a walk starts with.
    pub ttl: u8,
    /// Rolling SLO window length, in walks per pair.
    pub slo_window: usize,
    /// Loss percentage over a full window at which a pair breaches.
    pub slo_loss_pct: u8,
}

impl WalkCore {
    /// Fresh state over `population` (sorted by device id internally).
    #[must_use]
    pub fn new(
        mut population: Vec<(DeviceId, Ipv4Addr)>,
        derived_seed: u64,
        period: SimDuration,
        ttl: u8,
        slo_window: usize,
        slo_loss_pct: u8,
    ) -> Self {
        population.sort_by_key(|(d, _)| d.0);
        WalkCore {
            population,
            derived_seed,
            period,
            ttl,
            slo_window,
            slo_loss_pct,
            ..WalkCore::default()
        }
    }

    /// The sampling stream of round `round`: a pure function of
    /// `(derived_seed, round)`, independent of shard layout and of every
    /// other round.
    #[must_use]
    pub fn round_rng(&self, round: u64) -> SimRng {
        SimRng::from_seed(self.derived_seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Resolves a round's sampled `(src index, dst index, bytes)` plan
    /// into walks at their sources, numbered `round × per_round + i`.
    fn walks(
        &self,
        round: u64,
        per_round: usize,
        plan: impl Iterator<Item = (usize, usize, u64)>,
    ) -> Vec<Walk> {
        plan.enumerate()
            .map(|(i, (si, di, bytes))| {
                let (src, src_addr) = self.population[si];
                let (dst, dst_addr) = self.population[di];
                Walk {
                    src,
                    src_addr,
                    dst,
                    dst_addr,
                    at: src,
                    hop: 0,
                    ingress: None,
                    ttl: self.ttl,
                    seq: round * per_round as u64 + i as u64,
                    bytes,
                    rerouted: false,
                    path_ns: 0,
                }
            })
            .collect()
    }

    /// Splits off what a parallel shard carries: the replicated
    /// population and parameters, the live pair gauges whose *source*
    /// the shard owns (moved, so rolling windows continue across the
    /// fork), and an empty incident log.
    #[must_use]
    pub fn fork_for_shard(&mut self, owns: impl Fn(DeviceId) -> bool) -> WalkCore {
        WalkCore {
            population: self.population.clone(),
            pairs: split_owned(&mut self.pairs, |(src, _)| owns(*src)),
            incidents: Vec::new(),
            ..*self
        }
    }

    /// Folds a shard's state back in after a parallel run: the pair
    /// gauges return, and the shard's incidents merge into the timeline
    /// (shard streams interleave; the stable sort restores the
    /// `(time, seq, kind)` order the serial run produces).
    pub fn absorb_shard(&mut self, shard: WalkCore) {
        self.pairs.extend(shard.pairs);
        self.incidents.extend(shard.incidents);
        self.incidents.sort_by_key(Incident::sort_key);
    }

    /// Lands `inc` at its place in the timeline. Firing order is almost
    /// timeline order; the exception is a tick-time watchdog verdict,
    /// which fires before — but sorts after — the same instant's walks.
    fn push_incident(&mut self, inc: Incident) {
        let key = inc.sort_key();
        let at = self.incidents.partition_point(|i| i.sort_key() <= key);
        self.incidents.insert(at, inc);
    }
}

/// Moves the entries of `map` whose key `owned` claims into a new map —
/// how device-keyed plane state travels to its owner's shard. The shard
/// hands everything back through `extend` at the join.
pub(crate) fn split_owned<K: Ord, V>(
    map: &mut BTreeMap<K, V>,
    owned: impl Fn(&K) -> bool,
) -> BTreeMap<K, V> {
    let (mine, rest) = std::mem::take(map).into_iter().partition(|(k, _)| owned(k));
    *map = rest;
    mine
}

/// The two planes of one world; `None` keeps every code path of that
/// plane dormant at zero cost.
#[derive(Debug, Clone, Default)]
pub(crate) struct Planes {
    pub(crate) health: Option<HealthState>,
    pub(crate) traffic: Option<TrafficState>,
}

impl Planes {
    fn core_mut(&mut self, plane: Plane) -> Option<&mut WalkCore> {
        match plane {
            Plane::Probe => self.health.as_mut().map(|h| &mut h.core),
            Plane::Flow => self.traffic.as_mut().map(|t| &mut t.core),
        }
    }

    /// The state shard `owns` carries through a parallel run.
    pub(crate) fn fork_for_shard(&mut self, owns: impl Fn(DeviceId) -> bool) -> Planes {
        Planes {
            health: self.health.as_mut().map(|h| h.fork_for_shard(&owns)),
            traffic: self.traffic.as_mut().map(|t| t.fork_for_shard(&owns)),
        }
    }

    /// Folds one shard's planes back in at the join.
    pub(crate) fn absorb_shard(&mut self, shard: Planes) {
        if let (Some(h), Some(sh)) = (self.health.as_mut(), shard.health) {
            h.absorb_shard(sh);
        }
        if let (Some(t), Some(st)) = (self.traffic.as_mut(), shard.traffic) {
            t.absorb_shard(st);
        }
    }
}

const PROBE_TICK_KEY: u64 = 0b11 << 61;
const PROBE_FLOW_KEY: u64 = 1 << 62;
const TRAFFIC_TICK_KEY: u64 = 1 << 61;
const TRAFFIC_FLOW_KEY: u64 = 0b11 << 60;

/// What a plane event key names.
enum KeySlot {
    /// The tick of round `.0`.
    Tick(u64),
    /// Hop `.1` of walk `.0`.
    Hop(u64, u32),
    /// The report of walk `.0` (the 257th slot of its range).
    Report(u64),
}

/// The tie-break key of a plane event (module docs: **Keys**).
fn plane_key(plane: Plane, slot: KeySlot) -> u64 {
    let (tick, walk) = match plane {
        Plane::Probe => (PROBE_TICK_KEY, PROBE_FLOW_KEY),
        Plane::Flow => (TRAFFIC_TICK_KEY, TRAFFIC_FLOW_KEY),
    };
    match slot {
        KeySlot::Tick(round) => tick | round,
        KeySlot::Hop(seq, hop) => walk | (seq << 9) | u64::from(hop & 0xff),
        KeySlot::Report(seq) => walk | (seq << 9) | 256,
    }
}

/// The tick event of `plane`'s round `round` (`enable_health` and
/// `enable_traffic` schedule round 0; every tick schedules its successor).
pub(crate) fn tick_event(plane: Plane, round: u64) -> HarnessEvent {
    HarnessEvent {
        key: plane_key(plane, KeySlot::Tick(round)),
        cause: None,
        kind: HarnessEventKind::PlaneTick { plane, round },
    }
}

/// Schedules a plane event onto the shard that owns `target`, using the
/// same outbox mechanism as cross-shard frame deliveries. Plane events
/// are non-causal, so no `causal_pending` accounting is needed on either
/// side.
fn schedule_walk(e: &mut ControlPlaneEngine, at: SimTime, target: DeviceId, ev: HarnessEvent) {
    if let Some(route) = &mut e.world.shard_route {
        let dest = route.shard_of[target.index()];
        if dest != route.self_shard {
            route.outbox.push((dest, at, ev));
            return;
        }
    }
    e.schedule_event_at(at, ev);
}

/// One round of `plane`: run its tick-time watchdogs over the residue
/// accumulated since the previous tick, launch this round's sampled
/// walks from locally owned sources, and schedule the next tick.
pub(crate) fn plane_tick(e: &mut ControlPlaneEngine, plane: Plane, round: u64) {
    let now = e.now();
    let planes = &mut e.world.planes;
    let (fired, walks) = match (plane, &mut planes.health, &mut planes.traffic) {
        (Plane::Probe, Some(h), _) => {
            let plan = h.sample_pairs(round).into_iter().map(|(s, d)| (s, d, 0));
            let walks = h.core.walks(round, h.cfg.pairs_per_round, plan);
            (h.churn_watchdog(now, round), walks)
        }
        (Plane::Flow, _, Some(t)) => {
            let plan = t.sample_flows(round);
            let plan = plan.iter().map(|f| (f.src, f.dst, f.bytes));
            let walks = t.core.walks(round, t.cfg.flows_per_round, plan);
            (t.congestion_watchdogs(now), walks)
        }
        _ => return,
    };
    for inc in fired {
        record_incident(e, plane, inc);
    }

    let period = e
        .world
        .planes
        .core_mut(plane)
        .expect("checked above")
        .period;
    let cause = e.current_event();
    for walk in walks {
        // Only the world holding the source's OS launches: in a shard
        // world that is the owner, serially it is everyone. Removed or
        // never-emulated sources simply do not walk.
        if e.world.oses[walk.src.index()].is_none() {
            continue;
        }
        let (planes, rec) = (&mut e.world.planes, &mut *e.world.recorder);
        match (plane, &mut planes.health, &mut planes.traffic) {
            (Plane::Probe, Some(h), _) => h.count_sent(rec),
            (Plane::Flow, _, Some(t)) => t.count_sent(walk.bytes, rec),
            _ => unreachable!("checked above"),
        }
        e.schedule_event_at(
            now,
            HarnessEvent {
                key: plane_key(plane, KeySlot::Hop(walk.seq, 0)),
                cause,
                kind: HarnessEventKind::WalkHop { plane, walk },
            },
        );
    }

    e.schedule_event_at(now + period, tick_event(plane, round + 1));
}

/// One walk at one device. The planes differ in the synthetic packet
/// (UDP probes, TCP flows, the walk's sequence number as `identification`
/// so ECMP spreads concurrent walks), in what a loss witnesses (only a
/// probe raises a [`GrayFailureWitness`] or a `ForwardingLoop`; a flow
/// loss is never double-reported), and in what the hop charges (only a
/// flow: the reroute detector per decision, link/ECMP residues per
/// transmission — all keyed by `dev`, whose shard runs this hop).
pub(crate) fn walk_hop(e: &mut ControlPlaneEngine, plane: Plane, mut walk: Walk) {
    let (now, dev) = (e.now(), walk.at);
    let pkt = Ipv4Packet {
        src: walk.src_addr,
        dst: walk.dst_addr,
        protocol: match plane {
            Plane::Probe => ipproto::UDP,
            Plane::Flow => ipproto::TCP,
        },
        ttl: walk.ttl,
        identification: walk.seq as u16,
        payload: bytes::Bytes::new(),
    };

    let (step, witness, charge) = {
        let hop = e.world.hop(dev, walk.ingress, &pkt, true);
        let witness = match (plane, hop.step, hop.os, hop.matched) {
            (Plane::Probe, HopStep::End(ProbeOutcome::Blackhole), Some(os), Some((prefix, _))) => {
                // The FIB entry the device *would have used*, with its
                // provenance digest.
                Some(IncidentKind::Blackhole(GrayFailureWitness {
                    device: dev,
                    hop: walk.hop,
                    prefix: Some(prefix),
                    prov_digest: os.route_detail(prefix).map(|d| d.prov.digest()),
                }))
            }
            (Plane::Probe, HopStep::End(ProbeOutcome::TtlExpired), ..) => {
                Some(IncidentKind::ForwardingLoop {
                    device: dev,
                    hop: walk.hop,
                })
            }
            _ => None,
        };
        let charged = hop.matched.filter(|_| plane == Plane::Flow && hop.decided);
        let charge = charged.map(|(p, entry)| (p, entry_sig(entry), entry.next_hops.len()));
        (hop.step, witness, charge)
    };
    if let Some((prefix, sig, members)) = charge {
        let t = e.world.planes.traffic.as_mut().expect("flows have a plane");
        walk.rerouted |= t.note_route(dev, prefix, sig);
        if let HopStep::Forward(adj, next) = step {
            t.charge_tx(dev, adj.link, next.iface, members, walk.bytes);
        }
    }

    let cause = e.current_event();
    let outcome = match step {
        HopStep::Forward(adj, _) => {
            let delay = e.world.work.link_delay(adj.link, now);
            walk.path_ns += delay.as_nanos();
            (walk.at, walk.ingress) = (adj.remote_dev, Some(adj.remote_iface));
            (walk.hop, walk.ttl) = (walk.hop + 1, walk.ttl - 1);
            let ev = HarnessEvent {
                key: plane_key(plane, KeySlot::Hop(walk.seq, walk.hop)),
                cause,
                kind: HarnessEventKind::WalkHop { plane, walk },
            };
            schedule_walk(e, now + delay, walk.at, ev);
            return;
        }
        HopStep::End(outcome) => outcome,
    };
    if let Some(kind) = witness {
        let inc = Incident::new(now, walk.src, walk.dst, walk.seq, kind);
        record_incident(e, plane, inc);
    }
    // The report returns to the source's shard. Scheduling it `path_ns`
    // out is lookahead-honest: the forward path's accumulated link
    // delays bound the shard-pair distance the matrix derived from the
    // same (time-invariant) link delays.
    let ev = HarnessEvent {
        key: plane_key(plane, KeySlot::Report(walk.seq)),
        cause,
        kind: HarnessEventKind::WalkReport {
            plane,
            walk,
            outcome,
        },
    };
    schedule_walk(e, now + SimDuration::from_nanos(walk.path_ns), walk.src, ev);
}

/// A walk's fate lands on its source's gauges: the per-pair counts and
/// rolling SLO window (with the breach watchdog on the transition), and
/// the plane's own totals.
pub(crate) fn walk_report(
    e: &mut ControlPlaneEngine,
    plane: Plane,
    walk: Walk,
    outcome: ProbeOutcome,
) {
    let Some(core) = e.world.planes.core_mut(plane) else {
        return;
    };
    let delivered = outcome.delivered();
    let window = core.slo_window;
    let stats = core.pairs.entry((walk.src, walk.dst)).or_default();
    let breach = stats
        .record(delivered, walk.path_ns, window, core.slo_loss_pct)
        .then(|| stats.window_lost());
    let (planes, rec) = (&mut e.world.planes, &mut *e.world.recorder);
    match (plane, &mut planes.health, &mut planes.traffic) {
        (Plane::Probe, Some(h), _) => h.count_report(delivered, rec),
        (Plane::Flow, _, Some(t)) => t.count_report(delivered, &walk, rec),
        _ => unreachable!("checked above"),
    }
    if let Some(window_lost) = breach {
        let window = window as u64;
        let (seq, kind) = match plane {
            Plane::Probe => (
                walk.seq,
                IncidentKind::SloBreach {
                    window_lost,
                    window,
                },
            ),
            Plane::Flow => (
                (1 << 61) | walk.seq,
                IncidentKind::FlowSloBreach {
                    window_lost,
                    window,
                },
            ),
        };
        let inc = Incident::new(e.now(), walk.src, walk.dst, seq, kind);
        record_incident(e, plane, inc);
    }
}

/// Lands one watchdog firing: onto the plane's incident timeline, its
/// `*.incidents` counter, and the trace sink.
fn record_incident(e: &mut ControlPlaneEngine, plane: Plane, inc: Incident) {
    if e.world.recorder.enabled() {
        let counter = match plane {
            Plane::Probe => "health.incidents",
            Plane::Flow => "traffic.incidents",
        };
        e.world.recorder.counter_add(counter, 1);
    }
    if e.world.recorder.trace_enabled() {
        trace_incident(e, &inc);
    }
    e.world
        .planes
        .core_mut(plane)
        .expect("incidents only fire with their plane enabled")
        .push_incident(inc);
}

/// Emits the trace record for one watchdog firing — this is what carries
/// incidents into the JSONL/Chrome exports for free.
fn trace_incident(e: &mut ControlPlaneEngine, inc: &Incident) {
    // Device-scoped watchdogs name their device as `src`; a walk's
    // witness names the device where the walk died.
    let site = match &inc.kind {
        IncidentKind::Blackhole(w) => w.device,
        IncidentKind::ForwardingLoop { device, .. } => *device,
        _ => inc.src,
    };
    let mut fields = vec![
        ("kind", FieldValue::Str(inc.kind.label().to_string())),
        ("src", FieldValue::U64(u64::from(inc.src.0))),
        ("dst", FieldValue::U64(u64::from(inc.dst.0))),
        ("seq", FieldValue::U64(inc.seq)),
    ];
    match &inc.kind {
        IncidentKind::Blackhole(w) => {
            fields.push(("hop", FieldValue::U64(u64::from(w.hop))));
            if let Some(p) = w.prefix {
                fields.push(("prefix", FieldValue::Str(p.to_string())));
            }
            if let Some(d) = w.prov_digest {
                fields.push(("prov", FieldValue::U64(d)));
            }
        }
        IncidentKind::ForwardingLoop { hop, .. } => {
            fields.push(("hop", FieldValue::U64(u64::from(*hop))));
        }
        IncidentKind::SloBreach {
            window_lost,
            window,
        }
        | IncidentKind::FlowSloBreach {
            window_lost,
            window,
        } => {
            fields.push(("window_lost", FieldValue::U64(*window_lost)));
            fields.push(("window", FieldValue::U64(*window)));
        }
        IncidentKind::FibChurnAnomaly { ops, threshold, .. } => {
            fields.push(("ops", FieldValue::U64(*ops)));
            fields.push(("threshold", FieldValue::U64(*threshold)));
        }
        IncidentKind::LinkOversubscribed {
            link,
            bytes,
            capacity_bytes,
            ..
        } => {
            fields.push(("link", FieldValue::U64(u64::from(link.0))));
            fields.push(("bytes", FieldValue::U64(*bytes)));
            fields.push(("capacity_bytes", FieldValue::U64(*capacity_bytes)));
        }
        IncidentKind::EcmpPolarisation {
            iface,
            share_pct,
            members,
            ..
        } => {
            fields.push(("iface", FieldValue::U64(u64::from(*iface))));
            fields.push(("share_pct", FieldValue::U64(*share_pct)));
            fields.push(("members", FieldValue::U64(*members)));
        }
    }
    trace_here(e, "incident", Some(site), fields);
}
