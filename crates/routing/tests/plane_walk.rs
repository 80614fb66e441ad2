//! The packet-walk planes agree with each other and with `trace_packet`.
//!
//! A probe, a flow and a synchronous trace between the same two ToRs
//! all climb the same forwarding ladder, so at one instant they must
//! land the same delivered-or-lost verdict — for every terminal class
//! the ladder has. The table places each fault where the path is forced
//! (a one-leaf, one-spine fabric: `A – leaf – spine – leaf – B`), so
//! the planes' different ECMP hash inputs (probes are UDP, flows TCP)
//! cannot send the walks different ways.
//!
//! The fabric converges under real BGP firmware and is then *frozen*:
//! every device keeps its converged FIB but goes deaf to events, so a
//! fault stays exactly where the table put it (a downed link is not
//! routed around, a forced loop is not withdrawn).

use crystalnet_dataplane::{ipproto, Fib, FibEntry, ForwardDecision, Ipv4Packet, NextHop};
use crystalnet_net::{ClosParams, DeviceId, IdMap, Ipv4Addr, Topology};
use crystalnet_routing::harness::build_full_bgp_sim;
use crystalnet_routing::{
    ControlPlaneSim, DeviceOs, IncidentKind, OsActions, OsEvent, PairStats, ProbeConfig,
    TrafficConfig, UniformWorkModel,
};
use crystalnet_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A device frozen at its converged state.
#[derive(Clone)]
struct Frozen {
    fib: Fib,
    locals: Vec<Ipv4Addr>,
    host: String,
    /// One `(src, dst)` the inbound filter drops.
    deny: Option<(Ipv4Addr, Ipv4Addr)>,
}

impl DeviceOs for Frozen {
    fn handle(&mut self, _now: SimTime, _event: OsEvent) -> OsActions {
        OsActions::default()
    }
    fn fib(&self) -> &Fib {
        &self.fib
    }
    fn rib_size(&self) -> usize {
        0
    }
    fn is_down(&self) -> bool {
        false
    }
    fn hostname(&self) -> &str {
        &self.host
    }
    fn local_addrs(&self) -> &[Ipv4Addr] {
        &self.locals
    }
    fn filter_permits(&self, _ingress: Option<u32>, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        self.deny != Some((src, dst))
    }
    fn clone_shared(&self) -> Arc<dyn DeviceOs> {
        Arc::new(self.clone())
    }

    fn clone_boxed(&self) -> Box<dyn DeviceOs> {
        Box::new(self.clone())
    }
}

/// The frozen fabric a case injects its fault into.
struct Net {
    topo: Topology,
    sim: ControlPlaneSim,
    frozen: BTreeMap<DeviceId, Frozen>,
    /// Source ToR, its leaf, the spine, and the destination ToR.
    a: DeviceId,
    leaf_a: DeviceId,
    spine: DeviceId,
    b: DeviceId,
    /// The address walks toward `b` aim at (its loopback unless a case
    /// re-aims them).
    b_addr: Ipv4Addr,
    /// The instant both planes tick.
    tick: SimTime,
}

/// Boots `devs` and waits the boot out: a replaced OS starts powered
/// off, and walks only cross devices that are up.
fn reboot(sim: &mut ControlPlaneSim, devs: impl IntoIterator<Item = DeviceId>) {
    let now = sim.engine.now();
    for dev in devs {
        sim.boot_device(dev, now);
    }
    sim.run_until(now + SimDuration::from_secs(2));
}

/// An address no FIB in the fabric covers.
const UNROUTED: Ipv4Addr = Ipv4Addr(0xcb00_7109);
const TTL: u8 = 16;

impl Net {
    fn converged_and_frozen() -> Net {
        let clos = ClosParams {
            name: "walk".into(),
            borders: 1,
            spine_groups: 1,
            spines_per_group: 1,
            pods: 2,
            leaves_per_pod: 1,
            tors_per_pod: 1,
            groups_per_pod: 1,
            // No WAN peers: they would originate a default route, and the
            // table needs an address nothing routes.
            ext_peers_per_border: 0,
            ext_prefixes_per_peer: 0,
        }
        .build();
        let mut sim = build_full_bgp_sim(
            &clos.topo,
            Box::new(UniformWorkModel {
                boot: SimDuration::from_secs(1),
                ..UniformWorkModel::default()
            }),
        );
        sim.boot_all(SimTime::ZERO);
        sim.run_until_quiet(
            SimDuration::from_secs(5),
            SimTime::ZERO + SimDuration::from_mins(60),
        )
        .expect("the fabric converges");

        let mut frozen = BTreeMap::new();
        for (dev, d) in clos.topo.devices() {
            let os = sim.os(dev).expect("every device runs firmware");
            let ice = Frozen {
                fib: os.fib().clone(),
                locals: os.local_addrs().to_vec(),
                host: d.name.clone(),
                deny: None,
            };
            sim.replace_os(dev, Box::new(ice.clone()));
            frozen.insert(dev, ice);
        }
        reboot(&mut sim, clos.topo.devices().map(|(dev, _)| dev));
        let (a, b) = (clos.pods[0].tors[0], clos.pods[1].tors[0]);
        Net {
            b_addr: clos.topo.device(b).loopback,
            tick: sim.engine.now() + SimDuration::from_secs(1),
            a,
            leaf_a: clos.pods[0].leaves[0],
            spine: clos.spine_groups[0][0],
            b,
            frozen,
            sim,
            topo: clos.topo,
        }
    }

    fn a_addr(&self) -> Ipv4Addr {
        self.topo.device(self.a).loopback
    }

    /// Re-freezes `dev` with `edit` applied to its frozen state.
    fn refreeze(&mut self, dev: DeviceId, edit: impl FnOnce(&mut Frozen)) {
        let ice = self.frozen.get_mut(&dev).expect("a fabric device");
        edit(ice);
        self.sim.replace_os(dev, Box::new(ice.clone()));
        reboot(&mut self.sim, [dev]);
        self.tick = self.sim.engine.now() + SimDuration::from_secs(1);
    }

    /// Runs one round of both planes at `self.tick` between `a` and `b`.
    fn walk_both_planes(&mut self) {
        let population = vec![(self.a, self.a_addr()), (self.b, self.b_addr)];
        let period = SimDuration::from_secs(3_600);
        self.sim.enable_health(
            ProbeConfig {
                pairs_per_round: 16,
                ttl: TTL,
                seed: 7,
                ..ProbeConfig::with_period(period)
            },
            population.clone(),
            self.tick,
        );
        self.sim.enable_traffic(
            TrafficConfig {
                flows_per_round: 4,
                ttl: TTL,
                seed: 7,
                ..TrafficConfig::with_period(period)
            },
            population,
            self.tick,
        );
        self.sim.run_until(self.tick + SimDuration::from_secs(1));
    }

    /// What `trace_packet` says about a packet from `src` to `dst_addr`.
    fn trace(&self, src: DeviceId, src_addr: Ipv4Addr, dst_addr: Ipv4Addr) -> ForwardDecision {
        let pkt = Ipv4Packet {
            src: src_addr,
            dst: dst_addr,
            protocol: ipproto::UDP,
            ttl: TTL,
            identification: 0,
            payload: bytes::Bytes::new(),
        };
        self.sim.trace_packet(src, &pkt).1
    }
}

/// A pair's verdict: `Some(delivered)` when every walk agreed, `None`
/// when the pair was not sampled.
fn verdict(
    pairs: &IdMap<(DeviceId, DeviceId), PairStats>,
    pair: (DeviceId, DeviceId),
) -> Option<bool> {
    let p = pairs.get(&pair)?;
    assert!(p.sent > 0);
    assert!(
        p.delivered == p.sent || p.lost == p.sent,
        "walks of one pair at one instant cannot disagree: {p:?}"
    );
    Some(p.delivered == p.sent)
}

struct Case {
    name: &'static str,
    fault: fn(&mut Net),
    /// Whether walks from `a` to `b` arrive.
    delivered: bool,
    /// What `trace_packet` answers for the same packet.
    trace: ForwardDecision,
    /// The hop-time incident the probe (and only the probe) raises.
    witness: Option<&'static str>,
    /// Whether the fault is one only a live walk can see — silently
    /// disabled forwarding, which `trace_packet` ignores by contract.
    gray: bool,
}

const CASES: &[Case] = &[
    Case {
        name: "delivered",
        fault: |_| {},
        delivered: true,
        trace: ForwardDecision::Deliver,
        witness: None,
        gray: false,
    },
    Case {
        name: "device down (the only spine)",
        fault: |n| n.sim.power_off(n.spine),
        delivered: false,
        trace: ForwardDecision::DropNoRoute,
        witness: None,
        gray: false,
    },
    Case {
        name: "forwarding disabled, FIB holds a route (the only spine)",
        fault: |n| n.sim.set_forwarding(n.spine, false),
        delivered: false,
        trace: ForwardDecision::Deliver,
        witness: Some("blackhole"),
        gray: true,
    },
    Case {
        name: "forwarding disabled, FIB holds no route (source ToR)",
        fault: |n| {
            n.sim.set_forwarding(n.a, false);
            n.b_addr = UNROUTED;
        },
        delivered: false,
        trace: ForwardDecision::DropNoRoute,
        witness: None,
        gray: true,
    },
    Case {
        name: "FIB points at a downed link (source ToR's only uplink)",
        fault: |n| {
            let (uplink, _, _) = n.topo.neighbors(n.a).next().expect("a ToR has an uplink");
            let ends = ControlPlaneSim::link_endpoints(&n.topo, uplink);
            n.sim.link_down(ends, n.tick);
        },
        delivered: false,
        trace: ForwardDecision::DropNoRoute,
        witness: Some("blackhole"),
        gray: false,
    },
    Case {
        name: "no route (source ToR)",
        fault: |n| n.b_addr = UNROUTED,
        delivered: false,
        trace: ForwardDecision::DropNoRoute,
        witness: None,
        gray: false,
    },
    Case {
        name: "ACL drop (destination ToR)",
        fault: |n| {
            let deny = Some((n.a_addr(), n.b_addr));
            n.refreeze(n.b, |os| os.deny = deny);
        },
        delivered: false,
        trace: ForwardDecision::DropAcl,
        witness: None,
        gray: false,
    },
    Case {
        name: "TTL expiry in a forced loop (source leaf hands the packet back)",
        fault: |n| {
            let (_, down, _) = (n.topo.neighbors(n.leaf_a))
                .find(|(_, _, remote)| remote.device == n.a)
                .expect("the leaf faces its ToR");
            let (b_addr, via) = (n.b_addr, n.a_addr());
            n.refreeze(n.leaf_a, |os| {
                let (prefix, _) = os.fib.lookup(b_addr).expect("the leaf routes to b");
                let back = NextHop {
                    iface: down.iface,
                    via,
                };
                os.fib.install(prefix, FibEntry::new(vec![back]));
            });
        },
        delivered: false,
        trace: ForwardDecision::DropTtlExpired,
        witness: Some("forwarding_loop"),
        gray: false,
    },
];

#[test]
fn probe_flow_and_trace_agree_on_every_terminal_class() {
    for case in CASES {
        let mut n = Net::converged_and_frozen();
        (case.fault)(&mut n);
        n.walk_both_planes();
        let (health, traffic) = (n.sim.health().unwrap(), n.sim.traffic().unwrap());
        let name = case.name;

        // a → b: the direction the fault was placed for.
        let ab = (n.a, n.b);
        assert_eq!(
            verdict(&health.pairs, ab),
            Some(case.delivered),
            "{name}: probes"
        );
        assert_eq!(
            verdict(&traffic.pairs, ab),
            Some(case.delivered),
            "{name}: flows"
        );
        let trace = n.trace(n.a, n.a_addr(), n.b_addr);
        assert_eq!(trace, case.trace, "{name}: trace_packet");
        if !case.gray {
            assert_eq!(trace == ForwardDecision::Deliver, case.delivered, "{name}");
        }

        // b → a rides along: whatever happened to it, the three agree.
        let ba = (n.b, n.a);
        let probes = verdict(&health.pairs, ba).expect("16 probes over 2 devices go both ways");
        assert_eq!(verdict(&traffic.pairs, ba), Some(probes), "{name}: reverse");
        if !case.gray {
            let trace = n.trace(n.b, n.b_addr, n.a_addr());
            assert_eq!(
                trace == ForwardDecision::Deliver,
                probes,
                "{name}: reverse trace"
            );
        }

        // Hop-time witnesses are the probe mesh's alone.
        let hop_time = |k: &IncidentKind| {
            matches!(
                k,
                IncidentKind::Blackhole(_) | IncidentKind::ForwardingLoop { .. }
            )
        };
        let incidents = n.sim.incidents();
        let witnessed: Vec<&str> = (incidents.iter())
            .filter(|i| (i.src, i.dst) == ab && hop_time(&i.kind))
            .map(|i| i.kind.label())
            .collect();
        match case.witness {
            Some(label) => assert!(
                !witnessed.is_empty() && witnessed.iter().all(|l| *l == label),
                "{name}: expected {label} witnesses, got {witnessed:?}"
            ),
            None => assert!(witnessed.is_empty(), "{name}: unexpected {witnessed:?}"),
        }
        // Both planes land on one timeline, so a flow's witness would be
        // one more than the probes lost.
        for pair in [ab, ba] {
            let witnesses = (incidents.iter())
                .filter(|i| (i.src, i.dst) == pair && hop_time(&i.kind))
                .count() as u64;
            let probes_lost = health.pairs.get(&pair).map_or(0, |p| p.lost);
            assert!(
                witnesses <= probes_lost,
                "{name}: a flow loss must not be double-reported"
            );
        }
    }
}

/// The slice-invariance fabric: live BGP firmware (not frozen), ECMP at
/// every tier, both planes on over every device, a causal-trace sink, one
/// leaf–spine link whose flap reroutes flows, and one spine to fail
/// silently.
struct Live {
    topo: Topology,
    sim: ControlPlaneSim,
    flap: (DeviceId, u32, DeviceId, u32, crystalnet_net::LinkId),
    gray: DeviceId,
    /// When the planes start ticking.
    t0: SimTime,
}

/// The fixture's one link delay; a slice shorter than this makes every
/// hop an event of its own.
const LINK_DELAY: SimDuration = SimDuration::from_micros(50);

impl Live {
    fn converged() -> Live {
        let clos = ClosParams {
            name: "slice".into(),
            borders: 1,
            spine_groups: 2,
            spines_per_group: 2,
            pods: 3,
            leaves_per_pod: 2,
            tors_per_pod: 2,
            groups_per_pod: 2,
            ext_peers_per_border: 0,
            ext_prefixes_per_peer: 0,
        }
        .build();
        let mut sim = build_full_bgp_sim(
            &clos.topo,
            Box::new(UniformWorkModel {
                boot: SimDuration::from_secs(1),
                latency: LINK_DELAY,
                ..UniformWorkModel::default()
            }),
        );
        sim.engine.world.recorder = Box::new(
            crystalnet_telemetry::MemRecorder::with_trace_capacity(1 << 20),
        );
        sim.boot_all(SimTime::ZERO);
        sim.run_until_quiet(
            SimDuration::from_secs(5),
            SimTime::ZERO + SimDuration::from_mins(60),
        )
        .expect("the fabric converges");
        let t0 = sim.engine.now() + SimDuration::from_millis(10);
        let population: Vec<_> = (clos.topo.devices())
            .map(|(dev, d)| (dev, d.loopback))
            .collect();
        // Thresholds low enough that every watchdog fires: same-AS
        // siblings breach their SLO, the flap churns FIBs, and the
        // modelled links are thin.
        let period = SimDuration::from_millis(50);
        sim.enable_health(
            ProbeConfig {
                pairs_per_round: 256,
                slo_window: 3,
                churn_threshold: 2,
                seed: 11,
                ..ProbeConfig::with_period(period)
            },
            population.clone(),
            // Out of phase with the flows, so a round's first hops are
            // not pinned behind the other plane's same-instant tick.
            t0 + period / 2,
        );
        sim.enable_traffic(
            TrafficConfig {
                flows_per_round: 256,
                slo_window: 3,
                link_capacity_bps: 100_000_000,
                server_share_pct: 50,
                polarisation_min_bytes: 1,
                seed: 11,
                ..TrafficConfig::with_period(period)
            },
            population,
            t0,
        );
        let leaf = clos.pods[0].leaves[0];
        let spines: Vec<DeviceId> = clos.spine_groups.iter().flatten().copied().collect();
        let (lid, _, _) = (clos.topo.neighbors(leaf))
            .find(|(_, _, remote)| spines.contains(&remote.device))
            .expect("a leaf has spine uplinks");
        Live {
            flap: ControlPlaneSim::link_endpoints(&clos.topo, lid),
            gray: *spines.last().expect("the fabric has spines"),
            topo: clos.topo,
            sim,
            t0,
        }
    }

    /// Reaches `until` in slices shorter than any link delay.
    fn slice_to(&mut self, until: SimTime) {
        let slice = SimDuration::from_nanos(LINK_DELAY.as_nanos() * 4 / 5);
        while self.sim.engine.now() < until {
            let next = (self.sim.engine.now() + slice).min(until);
            self.sim.run_until(next);
        }
    }

    fn seen(&self) -> Seen {
        let (h, t) = (self.sim.health().unwrap(), self.sim.traffic().unwrap());
        Seen {
            probes: (h.probes_sent, h.probes_delivered, h.probes_lost),
            flows: (t.flows_sent, t.flows_delivered, t.flows_lost),
            bytes: (t.bytes_offered, t.bytes_delivered, t.bytes_lost),
            flows_rerouted: t.flows_rerouted,
            probe_pairs: h.pairs.clone(),
            flow_pairs: t.pairs.clone(),
            incidents: self.sim.incidents().to_vec(),
            link_bytes: t.link_bytes.clone(),
            fibs: (self.topo.devices())
                .map(|(dev, _)| self.sim.fib(dev).cloned())
                .collect(),
            trace: crystalnet_telemetry::MemRecorder::from_recorder(
                &*self.sim.engine.world.recorder,
            )
            .and_then(|rec| rec.trace_sink())
            .expect("the fixture traces")
            .records(),
        }
    }
}

/// Everything the way a run is sliced must not change.
#[derive(Debug, PartialEq)]
struct Seen {
    probes: (u64, u64, u64),
    flows: (u64, u64, u64),
    bytes: (u64, u64, u64),
    flows_rerouted: u64,
    probe_pairs: IdMap<(DeviceId, DeviceId), PairStats>,
    flow_pairs: IdMap<(DeviceId, DeviceId), PairStats>,
    incidents: Vec<crystalnet_routing::Incident>,
    link_bytes: IdMap<(DeviceId, crystalnet_net::LinkId), u64>,
    fibs: Vec<Option<Fib>>,
    /// Every trace record, with its event id and cause.
    trace: Vec<crystalnet_telemetry::TraceRecord>,
}

/// Inline hops are exact: a run that reaches each checkpoint in one
/// `run_until` (hops inline) and one sliced finer than any link delay
/// (every hop its own event) agree on every plane gauge, incident, FIB
/// and trace record at every checkpoint, across a link flap that
/// reroutes flows and a spine that silently stops forwarding.
#[test]
fn planes_are_invariant_under_run_slicing() {
    let (mut a, mut b) = (Live::converged(), Live::converged());
    let at = |t0: SimTime, ms: u64| t0 + SimDuration::from_millis(ms);
    for live in [&mut a, &mut b] {
        let (t0, flap) = (live.t0, live.flap);
        // Each change lands while a round is mid-flight: a flow round's
        // going down, a probe round's coming back.
        let mid = SimDuration::from_micros(75);
        live.sim.link_down(flap, at(t0, 250) + mid);
        live.sim.link_up(flap, at(t0, 525) + mid);
    }
    // Coarse checkpoints, and fine ones while each round's reports land:
    // a reroute credited to the wrong walk shows there.
    let mut checkpoints: Vec<SimDuration> =
        [150, 300, 560, 800].map(SimDuration::from_millis).to_vec();
    for round in 0..16 {
        checkpoints.extend(
            [150, 250, 350]
                .map(|us| SimDuration::from_millis(50 * round) + SimDuration::from_micros(us)),
        );
    }
    checkpoints.sort_unstable();
    for since in checkpoints {
        a.sim.run_until(a.t0 + since);
        b.slice_to(b.t0 + since);
        assert_eq!(a.seen(), b.seen(), "diverged by checkpoint +{since:?}");
        // Probes die at the gray spine mid-path: witnesses at hops the
        // inline run would otherwise have taken inside one event.
        let toggle = [(300, false), (560, true)]
            .into_iter()
            .find(|&(ms, _)| since == SimDuration::from_millis(ms));
        if let Some((_, forwarding)) = toggle {
            for live in [&mut a, &mut b] {
                live.sim.set_forwarding(live.gray, forwarding);
            }
        }
    }
    let seen = a.seen();
    assert!(seen.flows_rerouted > 0, "the flap must reroute flows");
    assert!(
        seen.incidents.iter().any(|i| !i.kind.is_traffic())
            && seen.incidents.iter().any(|i| i.kind.is_traffic()),
        "both planes' watchdogs must fire"
    );
    assert!(
        (seen.incidents.iter()).any(|i| matches!(&i.kind, IncidentKind::Blackhole(w) if w.hop > 0)),
        "the gray spine must witness blackholes mid-path"
    );
    let (ea, eb) = (
        a.sim.engine.events_executed(),
        b.sim.engine.events_executed(),
    );
    assert!(ea < eb, "hops must run inline: {ea} events vs {eb} sliced");

    // Settling after a link change ends with the clock where an
    // event-per-hop run's would stand: slicing up to it sees the same. A
    // first settle finds the route-ready instant; the second one's quiet
    // window then ends while a flow round is mid-flight, where a horizon
    // or clock mistake shows.
    let mut lives = [Live::converged(), Live::converged(), Live::converged()];
    for live in &mut lives {
        live.slice_to(at(live.t0, 120));
        let now = live.sim.engine.now();
        live.sim.link_down(live.flap, now);
    }
    let [mut first, mut a, mut b] = lives;
    let deadline = at(a.t0, 60_000);
    let ready = (first.sim)
        .run_until_quiet(SimDuration::from_millis(300), deadline)
        .expect("the fabric re-converges");
    // 170 µs into the first flow round at least 100 ms after route-ready:
    // a round's third hops are inlined, its first reports have landed.
    let round = SimDuration::from_millis(50);
    let rounds = (ready + SimDuration::from_millis(100))
        .since(a.t0)
        .as_nanos()
        / round.as_nanos();
    let mid_flight = a.t0 + round * (rounds + 1) + SimDuration::from_micros(170);
    let settled = (a.sim).run_until_quiet(mid_flight.since(ready), deadline);
    assert_eq!(settled, Some(ready));
    b.slice_to(a.sim.engine.now());
    assert_eq!(a.sim.engine.now(), b.sim.engine.now());
    assert_eq!(a.seen(), b.seen(), "diverged by the end of the settle");
}
