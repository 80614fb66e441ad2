//! A single `BgpRouterOs` on a bench: `k` configured neighbours, each on
//! its own /31, driven by hand-crafted frames through `DeviceOs::handle`.
//! Shared by the suites that pin the decision process and the export
//! fan-out from outside the crate.
#![allow(dead_code)] // each test binary uses its own part of the rig

use crystalnet_config::{BgpConfig, DeviceConfig, InterfaceConfig, NeighborConfig};
use crystalnet_net::{Asn, Ipv4Addr, Ipv4Cidr, Ipv4Prefix};
use crystalnet_routing::attrs::PathAttrs;
use crystalnet_routing::{
    BgpMsg, BgpRouterOs, DeviceOs, Frame, OsActions, OsEvent, Provenance, TimerKind, VendorProfile,
};
use crystalnet_sim::{EventId, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The router under test.
pub const LOCAL_AS: Asn = Asn(65000);
/// Its loopback and router id.
pub const LOOPBACK: Ipv4Addr = Ipv4Addr::new(10, 255, 0, 1);

/// One announced route as it travels in an UPDATE.
pub type Announced = (Ipv4Prefix, Arc<PathAttrs>, Arc<Provenance>);

/// A configured neighbour; peer `i` sits on interface `i`.
#[derive(Debug, Clone)]
pub struct PeerSpec {
    pub remote_as: Asn,
    pub route_map_out: Option<String>,
}

impl PeerSpec {
    /// A map-free neighbour in its own AS (`65100 + i`).
    pub fn plain(i: usize) -> PeerSpec {
        PeerSpec {
            remote_as: Asn(65100 + i as u32),
            route_map_out: None,
        }
    }
}

/// Peer `i`'s address. Addresses *fall* as the index rises, so "lowest
/// peer address" and "first peer in configuration order" never agree.
pub fn peer_addr(i: usize) -> Ipv4Addr {
    assert!(i < 120, "the rig's /24 holds 120 peers");
    Ipv4Addr::new(100, 64, 0, 255 - 2 * i as u8)
}

/// A configuration with one numbered interface and one neighbour per
/// `peers` entry, no policy, no networks.
pub fn config(peers: &[PeerSpec], max_paths: u32) -> DeviceConfig {
    DeviceConfig {
        hostname: "dut".into(),
        interfaces: (0..peers.len())
            .map(|i| InterfaceConfig {
                name: format!("et{i}"),
                addr: Some(Ipv4Cidr::new(Ipv4Addr(peer_addr(i).0 - 1), 31)),
                shutdown: false,
                acl_in: None,
                acl_out: None,
            })
            .collect(),
        bgp: Some(BgpConfig {
            asn: LOCAL_AS,
            router_id: LOOPBACK,
            max_paths,
            networks: vec![],
            aggregates: vec![],
            neighbors: peers
                .iter()
                .enumerate()
                .map(|(i, p)| NeighborConfig {
                    addr: peer_addr(i),
                    remote_as: p.remote_as,
                    shutdown: false,
                    route_map_in: None,
                    route_map_out: p.route_map_out.clone(),
                })
                .collect(),
        }),
        ..DeviceConfig::default()
    }
}

/// Stamps the next event's id and delivers `event`.
pub fn handle(os: &mut BgpRouterOs, id: EventId, event: OsEvent) -> OsActions {
    os.begin_event(id);
    os.handle(SimTime::ZERO, event)
}

/// Boots `cfg` under `profile`; every session is left in `OpenSent`.
pub fn boot(profile: VendorProfile, cfg: DeviceConfig) -> BgpRouterOs {
    let mut os = BgpRouterOs::new(profile, cfg, LOOPBACK);
    handle(&mut os, EventId::ZERO, OsEvent::Boot);
    os
}

/// Peer `i`'s Open: completes the exchange, so the session establishes
/// and the full table is queued toward it.
pub fn open(os: &mut BgpRouterOs, id: EventId, i: usize, remote_as: Asn) {
    let msg = BgpMsg::Open {
        asn: remote_as,
        router_id: peer_addr(i),
        hold_secs: 180,
        session_token: 1 + i as u64,
    };
    deliver(os, id, i, msg);
}

/// [`boot`] plus [`open`] for every neighbour of `peers`.
pub fn established(profile: VendorProfile, cfg: DeviceConfig, peers: &[PeerSpec]) -> BgpRouterOs {
    let mut os = boot(profile, cfg);
    for (i, p) in peers.iter().enumerate() {
        open(&mut os, EventId::ZERO, i, p.remote_as);
    }
    assert_eq!(os.established_peers().len(), peers.len());
    os
}

/// Delivers one BGP message from peer `i`.
pub fn deliver(os: &mut BgpRouterOs, id: EventId, i: usize, msg: BgpMsg) -> OsActions {
    let frame = Frame::Bgp(msg);
    handle(
        os,
        id,
        OsEvent::Frame {
            iface: i as u32,
            frame,
        },
    )
}

/// Fires the MRAI timer and returns, per peer index, the UPDATE it was
/// sent as `(announced, withdrawn)`.
pub fn flush(
    os: &mut BgpRouterOs,
    id: EventId,
) -> BTreeMap<usize, (Vec<Announced>, Vec<Ipv4Prefix>)> {
    handle(os, id, OsEvent::Timer(TimerKind::Mrai))
        .out
        .into_iter()
        .filter_map(|(iface, frame)| match frame {
            Frame::Bgp(BgpMsg::Update {
                announced,
                withdrawn,
            }) => Some((iface as usize, (announced, withdrawn))),
            _ => None,
        })
        .collect()
}
