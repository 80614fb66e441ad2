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
use crystalnet_net::{ClosParams, DeviceId, Ipv4Addr, Topology};
use crystalnet_routing::harness::build_full_bgp_sim;
use crystalnet_routing::{
    ControlPlaneSim, DeviceOs, IncidentKind, OsActions, OsEvent, PairStats, ProbeConfig,
    TrafficConfig, UniformWorkModel,
};
use crystalnet_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

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
    pairs: &BTreeMap<(DeviceId, DeviceId), PairStats>,
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
        let witnessed: Vec<&str> = (health.incidents.iter())
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
        assert!(
            !traffic.incidents.iter().any(|i| hop_time(&i.kind)),
            "{name}: a flow loss must not be double-reported"
        );
    }
}
