//! The monitor read path against what it replaced: cached provenance
//! digests equal a byte-by-byte FNV-1a of the chain, explanations name
//! the hostnames a linear scan of the topology finds, and a packet
//! injected from an id outside the topology is a typed one-hop drop, not
//! a panic.

use bytes::Bytes;
use crystalnet::prelude::*;
use crystalnet::PlanOptions;
use crystalnet_dataplane::{ipproto, Ipv4Packet};
use crystalnet_net::fixtures::fig7;
use crystalnet_net::Role;
use crystalnet_routing::{OriginKind, Provenance};
use std::sync::Arc;

/// FNV-1a over the chain, one byte at a time: the digest's definition,
/// written out independently of `Provenance::digest`.
fn fnv(p: &Provenance) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(match p.origin_kind {
        OriginKind::Speaker => 1,
        OriginKind::Network => 2,
        OriginKind::Aggregate => 3,
        OriginKind::Ospf => 4,
    });
    eat(u64::from(p.origin_router.0));
    eat(p.origin_event.time_ns);
    eat(p.origin_event.key);
    for hop in &p.hops {
        eat(u64::from(hop.router_id.0));
        eat(hop.event.time_ns);
        eat(hop.event.key);
    }
    h
}

fn whole(topo: &Topology) -> Emulation {
    let prep = prepare(
        topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    );
    mockup(Arc::new(prep), MockupOptions::builder().seed(42).build())
}

/// Every emulated device with an OS, in id order.
fn devices(emu: &Emulation) -> Vec<DeviceId> {
    let mut devs: Vec<DeviceId> = emu.sandboxes.keys().copied().collect();
    devs.sort_unstable_by_key(|d| d.0);
    devs.retain(|&d| emu.sim.os(d).is_some());
    devs
}

/// Checks every installed route's digest, read twice (the first read may
/// fill the cache, the second must hit it), against [`fnv`]. Returns the
/// number of routes checked.
fn check_digests(emu: &Emulation) -> usize {
    let mut routes = 0;
    for dev in devices(emu) {
        let os = emu.sim.os(dev).expect("devices() keeps OSes");
        for (prefix, detail) in os.routes_with_detail() {
            let want = fnv(&detail.prov);
            assert_eq!(detail.prov.digest(), want, "{dev} {prefix}");
            assert_eq!(detail.prov.digest(), want, "{dev} {prefix}, cached");
            assert_eq!(os.prov_digest(prefix), Some(want), "{dev} {prefix}");
            routes += 1;
        }
    }
    routes
}

#[test]
fn cached_digests_equal_a_from_scratch_fnv_across_forks_and_serde() {
    let clos = ClosParams::s_dc().build();
    let emu = whole(&clos.topo);
    assert!(check_digests(&emu) > 1000);

    // A fork re-converges around a drained leaf uplink: new chains are
    // interned, old ones survive, and every one still digests from scratch.
    let leaf = clos.pods[0].leaves[0];
    let uplink = clos
        .topo
        .neighbors(leaf)
        .find(|(_, _, peer)| clos.topo.device(peer.device).role == Role::Spine)
        .map(|(lid, _, _)| lid)
        .expect("a leaf has a spine uplink");
    let mut fork = emu.fork();
    let delta = fork
        .apply(&ChangeSet::new().link_down(uplink))
        .expect("link_down applies");
    assert!(delta.total_fib_changes() > 0);
    check_digests(fork.emulation());

    // The cache never goes on the wire: a round-tripped chain equals the
    // original and recomputes its digest.
    let tor = clos.pods[1].tors[0];
    for (_, detail) in emu.sim.os(tor).expect("a ToR").routes_with_detail() {
        let json = serde_json::to_string(&*detail.prov).expect("serialises");
        assert!(!json.contains("digest"), "{json}");
        let back: Provenance = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, *detail.prov);
        assert_eq!(back.digest(), fnv(&detail.prov));
        assert_eq!(back.intern(), detail.prov);
    }
}

#[test]
fn explained_hostnames_match_a_linear_scan_of_the_topology() {
    let clos = ClosParams::s_dc().build();
    let emu = whole(&clos.topo);
    let topo = &emu.topo;
    let scan = |router: Ipv4Addr| {
        topo.devices()
            .find(|(_, d)| d.loopback == router)
            .map(|(_, d)| d.name.clone())
    };
    let mut hops = 0;
    for dev in devices(&emu) {
        let host = &topo.device(dev).name;
        for (prefix, _) in emu.sim.os(dev).expect("an OS").routes_with_detail() {
            let explained = emu.explain_route(host, prefix).expect("an installed route");
            for hop in &explained.chain {
                assert_eq!(hop.hostname, scan(hop.router), "{host} {prefix}");
                hops += 1;
            }
        }
    }
    assert!(hops > 1000);
}

#[test]
fn a_packet_from_outside_the_topology_is_a_one_hop_drop() {
    let f = fig7();
    let mut emu = whole(&f.topo);
    let ghost = DeviceId(f.topo.device_count() as u32 + 7);
    let (src, dst) = (Ipv4Addr::new(10, 7, 0, 1), Ipv4Addr::new(10, 7, 5, 1));

    let sig = emu.inject_packet(ghost, src, dst);
    match emu.pull_packets(sig) {
        Ok((path, fate)) => {
            assert_eq!(path, vec![ghost]);
            assert_eq!(fate, ForwardDecision::DropNoRoute);
        }
        Err(e) => panic!("no trace for the ghost's packet: {e}"),
    }
    assert_eq!(emu.traces.events(sig)[0].prov, None);

    let pkt = Ipv4Packet {
        src,
        dst,
        protocol: ipproto::UDP,
        ttl: 64,
        identification: 0,
        payload: Bytes::new(),
    };
    assert_eq!(
        emu.sim.trace_packet(ghost, &pkt),
        (vec![ghost], ForwardDecision::DropNoRoute)
    );
    // The calls that take a device name or id answer with a typed error.
    assert!(matches!(
        emu.pull_states(ghost),
        Err(EmulationError::UnknownDevice(_))
    ));
}
