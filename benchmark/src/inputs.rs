//! Workload inputs, generated here from the seed.
//!
//! The emulator never sees the seed's stream: it receives a topology, a
//! run seed, change sets, plane configurations and query lists. Every
//! function is pure in `(topology, seed)`, so a seed names one workload
//! exactly.

use crystalnet_config::{Acl, AclEntry, Action, ChangeSet, DeviceConfig};
use crystalnet_net::{ClosTopology, DeviceId, Ipv4Addr, Ipv4Prefix, LinkId, Role};
use crystalnet_routing::{ProbeConfig, TrafficConfig};
use crystalnet_sim::SimDuration;

/// SplitMix64: small, fast, and good enough to pick targets.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of one seed, so adding a
    /// stream never shifts another.
    #[must_use]
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// One element of a non-empty slice.
    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

/// Every ToR of the fabric, in pod then rack order.
#[must_use]
pub fn tors(clos: &ClosTopology) -> Vec<DeviceId> {
    clos.pods.iter().flat_map(|p| p.tors.clone()).collect()
}

/// The server subnet a ToR originates (its second prefix; the first is
/// the loopback).
#[must_use]
pub fn server_subnet(clos: &ClosTopology, tor: DeviceId) -> Ipv4Prefix {
    clos.topo.device(tor).originated[1]
}

/// One packet to walk through the live FIBs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Walk {
    /// Where the packet is injected.
    pub from: DeviceId,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address, a server behind `to`.
    pub dst: Ipv4Addr,
    /// The ToR that must deliver it.
    pub to: DeviceId,
    /// The prefix `from` is expected to route `dst` by.
    pub prefix: Ipv4Prefix,
}

/// `n` server-to-server walks between distinct seeded ToRs.
#[must_use]
pub fn tor_walks(clos: &ClosTopology, seed: u64, n: usize) -> Vec<Walk> {
    let tors = tors(clos);
    let mut rng = Rng::new(seed, "tor-walks");
    (0..n)
        .map(|_| {
            let from = rng.pick(&tors);
            let to = loop {
                let t = rng.pick(&tors);
                if t != from {
                    break t;
                }
            };
            let prefix = server_subnet(clos, to);
            Walk {
                from,
                src: server_subnet(clos, from).nth(1 + rng.below(200) as u32),
                dst: prefix.nth(1 + rng.below(200) as u32),
                to,
                prefix,
            }
        })
        .collect()
}

/// The four kinds of change an operator rehearses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeKind {
    /// A new /24 announced on a ToR: floods the band.
    ConfigUpdate,
    /// A leaf uplink drained: pod-local ripple.
    LinkDown,
    /// A ToR decommissioned.
    DeviceRemove,
    /// An ACL-only edit on a ToR: neighbours only, no route moves.
    ConfigAcl,
}

impl ChangeKind {
    /// All kinds, in the order a pass rehearses them.
    pub const ALL: [ChangeKind; 4] = [
        ChangeKind::ConfigUpdate,
        ChangeKind::LinkDown,
        ChangeKind::DeviceRemove,
        ChangeKind::ConfigAcl,
    ];

    /// The name used in metric names.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ChangeKind::ConfigUpdate => "config_update",
            ChangeKind::LinkDown => "link_down",
            ChangeKind::DeviceRemove => "device_remove",
            ChangeKind::ConfigAcl => "config_acl",
        }
    }
}

/// One change set to rehearse on a fork.
#[derive(Debug, Clone, PartialEq)]
pub struct Rehearsal {
    /// What kind of change it is.
    pub kind: ChangeKind,
    /// The change set handed to `EmulationFork::apply`: one change.
    pub changes: ChangeSet,
}

/// `targets` seeded rehearsals of every kind, kinds interleaved.
///
/// # Panics
///
/// Panics if `configs` lacks a ToR's configuration — `prepare` makes
/// one for every emulated device.
#[must_use]
pub fn rehearsals(
    clos: &ClosTopology,
    configs: &[(DeviceId, DeviceConfig)],
    seed: u64,
    targets: usize,
) -> Vec<Rehearsal> {
    let tors = tors(clos);
    let leaves: Vec<DeviceId> = clos.pods.iter().flat_map(|p| p.leaves.clone()).collect();
    let config_of = |dev: DeviceId| {
        configs
            .iter()
            .find(|(d, _)| *d == dev)
            .map(|(_, c)| c.clone())
            .expect("every emulated device has a prepared config")
    };
    let mut rng = Rng::new(seed, "rehearsals");
    let mut out = Vec::new();
    for _ in 0..targets {
        for kind in ChangeKind::ALL {
            let octet = rng.below(256) as u8;
            let changes = match kind {
                ChangeKind::ConfigUpdate => {
                    let tor = rng.pick(&tors);
                    let mut cfg = config_of(tor);
                    cfg.bgp
                        .as_mut()
                        .expect("generated configs run BGP")
                        .networks
                        .push(Ipv4Prefix::new(Ipv4Addr::new(10, 200, octet, 0), 24));
                    ChangeSet::new().config_update(tor, cfg)
                }
                ChangeKind::ConfigAcl => {
                    let tor = rng.pick(&tors);
                    let mut cfg = config_of(tor);
                    cfg.acls.insert(
                        "ACL-BENCH".into(),
                        Acl {
                            entries: vec![AclEntry {
                                seq: 10,
                                action: Action::Deny,
                                src: Ipv4Prefix::new(Ipv4Addr::new(10, 66, octet, 0), 24),
                                dst: Ipv4Prefix::DEFAULT,
                            }],
                        },
                    );
                    ChangeSet::new().config_update(tor, cfg)
                }
                ChangeKind::LinkDown => {
                    let leaf = rng.pick(&leaves);
                    let uplinks: Vec<LinkId> = clos
                        .topo
                        .neighbors(leaf)
                        .filter(|(_, _, peer)| clos.topo.device(peer.device).role == Role::Spine)
                        .map(|(lid, _, _)| lid)
                        .collect();
                    ChangeSet::new().link_down(rng.pick(&uplinks))
                }
                ChangeKind::DeviceRemove => ChangeSet::new().device_remove(rng.pick(&tors)),
            };
            out.push(Rehearsal { kind, changes });
        }
    }
    out
}

/// What the watched network is loaded with, and which uplinks flap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchPlan {
    /// The probe mesh: 1 s rounds, 256 pairs a round.
    pub probes: ProbeConfig,
    /// The flow load: 1 s rounds, 256 flows a round, default capacity.
    pub traffic: TrafficConfig,
    /// ToR uplinks to flap, one per injected fault, in order.
    pub flaps: Vec<LinkId>,
}

/// The watch workload's plane configurations and `flaps` seeded ToR
/// uplinks. The planes' own sampling seeds stay 0, which makes the
/// orchestrator derive them from the run seed.
#[must_use]
pub fn watch_plan(clos: &ClosTopology, seed: u64, flaps: usize) -> WatchPlan {
    let period = SimDuration::from_secs(1);
    let tors = tors(clos);
    let mut rng = Rng::new(seed, "watch-flaps");
    let flaps = (0..flaps)
        .map(|_| {
            let tor = rng.pick(&tors);
            let uplinks: Vec<LinkId> = clos.topo.neighbors(tor).map(|(lid, _, _)| lid).collect();
            rng.pick(&uplinks)
        })
        .collect();
    WatchPlan {
        probes: ProbeConfig {
            pairs_per_round: 256,
            ..ProbeConfig::with_period(period)
        },
        traffic: TrafficConfig {
            flows_per_round: 256,
            ..TrafficConfig::with_period(period)
        },
        flaps,
    }
}

/// What one sweep asks of one device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceQueries {
    /// The device.
    pub dev: DeviceId,
    /// Its hostname (the key `explain_route` takes).
    pub host: String,
    /// Routes to explain, each with the packet that must follow it.
    pub walks: Vec<Walk>,
}

/// The query list of the inspect workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InspectPlan {
    /// Per emulated device, in id order.
    pub devices: Vec<DeviceQueries>,
    /// Devices whose configuration and route table are pulled too.
    pub config_devices: Vec<(DeviceId, String)>,
}

/// Seeded queries: `per_device` explain/walk pairs on every device of
/// the fabric (externals excluded), and `configs` devices to pull.
#[must_use]
pub fn inspect_plan(
    clos: &ClosTopology,
    seed: u64,
    per_device: usize,
    configs: usize,
) -> InspectPlan {
    let tors = tors(clos);
    let mut rng = Rng::new(seed, "inspect");
    let fabric: Vec<DeviceId> = clos
        .topo
        .devices()
        .filter(|(_, d)| d.role != Role::External)
        .map(|(id, _)| id)
        .collect();
    let devices = fabric
        .iter()
        .map(|&dev| {
            let d = clos.topo.device(dev);
            let walks = (0..per_device)
                .map(|_| {
                    let to = loop {
                        let t = rng.pick(&tors);
                        if t != dev {
                            break t;
                        }
                    };
                    let prefix = server_subnet(clos, to);
                    Walk {
                        from: dev,
                        src: d.loopback,
                        dst: prefix.nth(1 + rng.below(200) as u32),
                        to,
                        prefix,
                    }
                })
                .collect();
            DeviceQueries {
                dev,
                host: d.name.clone(),
                walks,
            }
        })
        .collect();
    let config_devices = (0..configs)
        .map(|_| {
            let dev = rng.pick(&fabric);
            (dev, clos.topo.device(dev).name.clone())
        })
        .collect();
    InspectPlan {
        devices,
        config_devices,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crystalnet_net::ClosParams;

    fn s_dc() -> (ClosTopology, Vec<(DeviceId, DeviceConfig)>) {
        let clos = ClosParams::s_dc().build();
        let configs = crystalnet_config::generate_all(&clos.topo);
        (clos, configs)
    }

    #[test]
    fn inputs_are_pure_in_the_seed() {
        let (clos, configs) = s_dc();
        assert_eq!(tor_walks(&clos, 42, 16), tor_walks(&clos, 42, 16));
        assert_eq!(
            rehearsals(&clos, &configs, 42, 2),
            rehearsals(&clos, &configs, 42, 2)
        );
        assert_eq!(watch_plan(&clos, 42, 8), watch_plan(&clos, 42, 8));
        assert_eq!(inspect_plan(&clos, 42, 4, 8), inspect_plan(&clos, 42, 4, 8));
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        let (clos, configs) = s_dc();
        assert_ne!(tor_walks(&clos, 42, 16), tor_walks(&clos, 1337, 16));
        assert_ne!(
            rehearsals(&clos, &configs, 42, 2),
            rehearsals(&clos, &configs, 1337, 2)
        );
        assert_ne!(
            watch_plan(&clos, 42, 8).flaps,
            watch_plan(&clos, 1337, 8).flaps
        );
        assert_ne!(
            inspect_plan(&clos, 42, 4, 8),
            inspect_plan(&clos, 1337, 4, 8)
        );
    }

    #[test]
    fn rehearsals_cover_every_kind_per_target() {
        let (clos, configs) = s_dc();
        let rs = rehearsals(&clos, &configs, 7, 2);
        assert_eq!(rs.len(), 8);
        for kind in ChangeKind::ALL {
            assert_eq!(rs.iter().filter(|r| r.kind == kind).count(), 2);
        }
        // A drained link joins a leaf and a spine.
        for r in rs.iter().filter(|r| r.kind == ChangeKind::LinkDown) {
            let [crystalnet_config::Change::LinkDown(lid)] = r.changes.changes[..] else {
                panic!("a link_down rehearsal is one LinkDown change");
            };
            let link = clos.topo.link(lid);
            let mut roles = [link.a.device, link.b.device].map(|d| clos.topo.device(d).role);
            roles.sort_by_key(|r| r.layer());
            assert_eq!(roles, [Role::Leaf, Role::Spine]);
        }
    }

    #[test]
    fn walks_never_target_their_own_device() {
        let (clos, _) = s_dc();
        for w in tor_walks(&clos, 3, 64) {
            assert_ne!(w.from, w.to);
            assert!(w.prefix.contains(w.dst));
        }
        for d in inspect_plan(&clos, 3, 4, 8).devices {
            assert!(d.walks.iter().all(|w| w.to != d.dev && w.from == d.dev));
        }
    }
}
