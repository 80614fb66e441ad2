//! Datacenter-scale convergence, speaker sessions, and OSPF behaviour.

use crystalnet_net::fixtures::fig7;
use crystalnet_net::{ClosParams, Ipv4Prefix, Role, Topology};
use crystalnet_routing::harness::{build_bgp_sim, build_full_bgp_sim};
use crystalnet_routing::{
    ControlPlaneSim, OspfRouterOs, PathAttrs, SpeakerOs, SpeakerScript, UniformWorkModel,
};
use crystalnet_sim::{SimDuration, SimTime};

fn work() -> Box<UniformWorkModel> {
    Box::new(UniformWorkModel {
        boot: SimDuration::from_secs(1),
        ..UniformWorkModel::default()
    })
}

fn p(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

#[test]
fn s_dc_converges_with_full_reachability() {
    let dc = ClosParams::s_dc().build();
    let mut sim = build_full_bgp_sim(&dc.topo, work());
    sim.boot_all(SimTime::ZERO);
    let t = sim
        .run_until_quiet(
            SimDuration::from_secs(10),
            SimTime::ZERO + SimDuration::from_mins(120),
        )
        .expect("S-DC converges");
    assert!(t > SimTime::ZERO);

    // Every ToR reaches every other ToR's server subnet.
    let tor_a = dc.pods[0].tors[0];
    let tor_b_subnet = dc
        .topo
        .device(dc.pods[5].tors[15])
        .originated
        .iter()
        .copied()
        .find(|pfx| pfx.len() == 24)
        .unwrap();
    let fib = sim.fib(tor_a).unwrap();
    assert!(fib.lookup(tor_b_subnet.nth(1)).is_some());
    // ToRs see the default route from the external peers via borders.
    assert!(fib.lookup(p("203.0.113.7/32").nth(0)).is_some());
    // ToR ECMPs across all four pod leaves.
    let (_, entry) = fib.lookup(tor_b_subnet.nth(1)).unwrap();
    assert_eq!(entry.next_hops.len(), 4);

    // Route totals land in the Table 3 band for S-DC: O(50K).
    let total: usize = dc
        .topo
        .devices()
        .filter(|(_, d)| d.role != Role::External)
        .map(|(id, _)| sim.fib(id).unwrap().route_entry_count())
        .sum();
    assert!(
        (20_000..200_000).contains(&total),
        "S-DC total route entries {total} outside O(50K) band"
    );
}

#[test]
fn speaker_feeds_boundary_device_and_stays_static() {
    // A single border + speaker: the speaker announces the default route
    // and a production-recorded prefix; the border installs them.
    let f = fig7();
    // Emulate the whole fig7 fabric, but replace nothing — attach a
    // speaker *outside* via S1's unused interface? fig7 has no spare
    // ifaces, so build a 2-node topology instead.
    let mut topo = Topology::new();
    let mut p2p = crystalnet_net::P2pAllocator::new(p("100.101.0.0/24"));
    let border = topo
        .add_device(crystalnet_net::Device {
            name: "border0".into(),
            role: Role::Border,
            vendor: crystalnet_net::Vendor::CtnrA,
            asn: crystalnet_net::Asn(65000),
            loopback: "172.31.0.1".parse().unwrap(),
            mgmt_addr: "192.168.31.1".parse().unwrap(),
            originated: vec![p("10.200.0.0/16")],
            ifaces: vec![],
            pod: None,
        })
        .unwrap();
    let speaker_dev = topo
        .add_device(crystalnet_net::Device {
            name: "speaker0".into(),
            role: Role::External,
            vendor: crystalnet_net::Vendor::VmB,
            asn: crystalnet_net::Asn(64600),
            loopback: "172.31.0.2".parse().unwrap(),
            mgmt_addr: "192.168.31.2".parse().unwrap(),
            originated: vec![],
            ifaces: vec![],
            pod: None,
        })
        .unwrap();
    topo.connect_p2p(border, speaker_dev, &mut p2p).unwrap();
    let _ = f;

    let mut sim = build_bgp_sim(&topo, work(), |_, dev| {
        (dev.role != Role::External)
            .then(|| crystalnet_routing::VendorProfile::for_vendor(dev.vendor))
    });
    let mut speaker = SpeakerOs::new(
        "speaker0".into(),
        crystalnet_net::Asn(64600),
        "172.31.0.2".parse().unwrap(),
    );
    speaker.set_script(
        0,
        SpeakerScript {
            routes: vec![
                (
                    p("0.0.0.0/0"),
                    PathAttrs {
                        as_path: vec![crystalnet_net::Asn(64600)],
                        ..PathAttrs::originated("172.31.0.2".parse().unwrap())
                    }
                    .intern(),
                ),
                (
                    p("40.0.1.0/24"),
                    PathAttrs {
                        as_path: vec![crystalnet_net::Asn(64600), crystalnet_net::Asn(64601)],
                        ..PathAttrs::originated("172.31.0.2".parse().unwrap())
                    }
                    .intern(),
                ),
            ],
        },
    );
    sim.add_os(speaker_dev, Box::new(speaker));
    sim.boot_all(SimTime::ZERO);
    sim.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::ZERO + SimDuration::from_mins(30),
    )
    .unwrap();

    let fib = sim.fib(border).unwrap();
    assert!(fib.get(p("0.0.0.0/0")).is_some(), "default installed");
    assert!(
        fib.get(p("40.0.1.0/24")).is_some(),
        "recorded route installed"
    );

    // The speaker kept its identity and never originated anything of
    // its own (static by construction).
    let os = sim.os(speaker_dev).unwrap();
    assert_eq!(os.hostname(), "speaker0");
    assert_eq!(os.rib_size(), 0);
}

#[test]
fn ospf_triangle_converges_via_spf() {
    // Three routers in a triangle, each originating one prefix.
    let mut topo = Topology::new();
    let mut p2p = crystalnet_net::P2pAllocator::new(p("100.102.0.0/24"));
    let mk = |topo: &mut Topology, n: u32| {
        topo.add_device(crystalnet_net::Device {
            name: format!("o{n}"),
            role: Role::Spine,
            vendor: crystalnet_net::Vendor::CtnrA,
            asn: crystalnet_net::Asn(0),
            loopback: crystalnet_net::Ipv4Addr::new(172, 32, 0, n as u8),
            mgmt_addr: crystalnet_net::Ipv4Addr::new(192, 168, 32, n as u8),
            originated: vec![],
            ifaces: vec![],
            pod: None,
        })
        .unwrap()
    };
    let a = mk(&mut topo, 1);
    let b = mk(&mut topo, 2);
    let c = mk(&mut topo, 3);
    topo.connect_p2p(a, b, &mut p2p).unwrap();
    topo.connect_p2p(b, c, &mut p2p).unwrap();
    topo.connect_p2p(a, c, &mut p2p).unwrap();

    let mut sim = ControlPlaneSim::new(&topo, work());
    for (i, &dev) in [a, b, c].iter().enumerate() {
        let d = topo.device(dev);
        let ifaces: Vec<u32> = (0..d.ifaces.len() as u32).collect();
        let os = OspfRouterOs::new(
            d.name.clone(),
            d.loopback,
            1,
            ifaces,
            vec![p(&format!("10.50.{i}.0/24"))],
        );
        sim.add_os(dev, Box::new(os));
    }
    sim.boot_all(SimTime::ZERO);
    sim.run_until_quiet(
        SimDuration::from_secs(10),
        SimTime::ZERO + SimDuration::from_mins(30),
    )
    .unwrap();

    // Everyone has everyone's prefix; direct neighbors are one hop.
    for &dev in &[a, b, c] {
        let fib = sim.fib(dev).unwrap();
        for i in 0..3 {
            assert!(
                fib.lookup(p(&format!("10.50.{i}.0/24")).nth(1)).is_some(),
                "{} missing 10.50.{i}.0/24",
                topo.device(dev).name
            );
        }
    }
}

#[test]
fn ospf_link_failure_reroutes_around() {
    let mut topo = Topology::new();
    let mut p2p = crystalnet_net::P2pAllocator::new(p("100.103.0.0/24"));
    let mut ids = Vec::new();
    for n in 1..=3u32 {
        ids.push(
            topo.add_device(crystalnet_net::Device {
                name: format!("o{n}"),
                role: Role::Spine,
                vendor: crystalnet_net::Vendor::CtnrA,
                asn: crystalnet_net::Asn(0),
                loopback: crystalnet_net::Ipv4Addr::new(172, 33, 0, n as u8),
                mgmt_addr: crystalnet_net::Ipv4Addr::new(192, 168, 33, n as u8),
                originated: vec![],
                ifaces: vec![],
                pod: None,
            })
            .unwrap(),
        );
    }
    let (a, b, c) = (ids[0], ids[1], ids[2]);
    let ab = topo.connect_p2p(a, b, &mut p2p).unwrap();
    topo.connect_p2p(b, c, &mut p2p).unwrap();
    topo.connect_p2p(a, c, &mut p2p).unwrap();

    let mut sim = ControlPlaneSim::new(&topo, work());
    for (i, &dev) in ids.iter().enumerate() {
        let d = topo.device(dev);
        let ifaces: Vec<u32> = (0..d.ifaces.len() as u32).collect();
        sim.add_os(
            dev,
            Box::new(OspfRouterOs::new(
                d.name.clone(),
                d.loopback,
                1,
                ifaces,
                vec![p(&format!("10.51.{i}.0/24"))],
            )),
        );
    }
    sim.boot_all(SimTime::ZERO);
    let t0 = sim
        .run_until_quiet(
            SimDuration::from_secs(10),
            SimTime::ZERO + SimDuration::from_mins(30),
        )
        .unwrap();

    // A reaches B's prefix directly.
    let direct_hop = sim
        .fib(a)
        .unwrap()
        .lookup(p("10.51.1.0/24").nth(1))
        .unwrap()
        .1
        .next_hops[0]
        .via;
    assert_eq!(direct_hop, topo.device(b).loopback);

    // Cut A-B: A must reroute via C.
    let ep = ControlPlaneSim::link_endpoints(&topo, ab);
    sim.link_down(ep, t0 + SimDuration::from_secs(5));
    sim.run_until_quiet(SimDuration::from_secs(10), t0 + SimDuration::from_mins(30))
        .unwrap();
    let hop = sim
        .fib(a)
        .unwrap()
        .lookup(p("10.51.1.0/24").nth(1))
        .unwrap()
        .1
        .next_hops[0]
        .via;
    assert_eq!(hop, topo.device(c).loopback, "reroute around the cut");
}

/// A five-router OSPF full mesh, each router originating one /24, run
/// to quiescence; returns the events executed and an FNV-1a digest over
/// every router's prefix-sorted `routes_with_detail()` (prefix, origin
/// router, provenance digest).
fn ospf_mesh_provenance() -> (u64, u64) {
    let mut topo = Topology::new();
    let mut p2p = crystalnet_net::P2pAllocator::new(p("100.104.0.0/24"));
    let ids: Vec<_> = (1..=5u32)
        .map(|n| {
            topo.add_device(crystalnet_net::Device {
                name: format!("o{n}"),
                role: Role::Spine,
                vendor: crystalnet_net::Vendor::CtnrA,
                asn: crystalnet_net::Asn(0),
                loopback: crystalnet_net::Ipv4Addr::new(172, 34, 0, n as u8),
                mgmt_addr: crystalnet_net::Ipv4Addr::new(192, 168, 34, n as u8),
                originated: vec![],
                ifaces: vec![],
                pod: None,
            })
            .unwrap()
        })
        .collect();
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            topo.connect_p2p(a, b, &mut p2p).unwrap();
        }
    }
    let mut sim = ControlPlaneSim::new(&topo, work());
    for (i, &dev) in ids.iter().enumerate() {
        let d = topo.device(dev);
        let ifaces: Vec<u32> = (0..d.ifaces.len() as u32).collect();
        sim.add_os(
            dev,
            Box::new(OspfRouterOs::new(
                d.name.clone(),
                d.loopback,
                1,
                ifaces,
                vec![p(&format!("10.52.{i}.0/24"))],
            )),
        );
    }
    sim.boot_all(SimTime::ZERO);
    sim.run_until_quiet(
        SimDuration::from_secs(10),
        SimTime::ZERO + SimDuration::from_mins(30),
    )
    .unwrap();

    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &dev in &ids {
        let rows = sim.os(dev).unwrap().routes_with_detail();
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "prefix-sorted");
        for (prefix, detail) in rows {
            feed(u64::from(prefix.network().0) << 8 | u64::from(prefix.len()));
            feed(u64::from(detail.attrs.next_hop.0));
            feed(detail.prov.digest());
        }
    }
    (sim.engine.events_executed(), h)
}

#[test]
fn ospf_provenance_is_the_same_in_every_process() {
    // Flooding, LSDB sync and LSA link lists walk the router's maps: an
    // order drawn from per-process hash keys moves frame order, hence
    // the event ids every route's provenance names. Two runs in one
    // process already draw two sets of keys, and the pinned digest
    // holds every process to the same order.
    for _ in 0..2 {
        assert_eq!(ospf_mesh_provenance(), (671, 0xb763_3138_0de4_680b));
    }
}
