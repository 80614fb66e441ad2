//! Layer probes: one public function of a layer, called in a loop and
//! timed from outside. They run in the traced run only and never feed
//! an end-to-end metric.

use crate::inputs::Rng;
use bytes::Bytes;
use crystalnet::prelude::*;
use crystalnet_dataplane::{
    compare_fibs, decide, ipproto, CompareOptions, EthernetFrame, Fib, FibEntry, Ipv4Packet,
    NextHop,
};
use crystalnet_net::{
    dirty_region_scoped, partition, Asn, ClosParams, MacAddr, RippleScope, Topology,
};
use crystalnet_routing::harness::build_full_bgp_sim;
use crystalnet_routing::{
    BgpMsg, BgpRouterOs, DeviceOs, Frame, OriginKind, OsEvent, PathAttrs, Provenance,
    UniformWorkModel, WorkModel,
};
use crystalnet_sim::{Engine, EventFire, EventId, SimTime};
use crystalnet_telemetry::profile::keys;
use crystalnet_vnet::{VirtualLink, VmId, VniAllocator};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

/// Metrics a probe produced, by name.
pub type Metrics = Vec<(&'static str, f64)>;

/// Median wall of `reps` calls of `f`, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&samples)
}

/// Mean wall of one call of `f` over a loop of `iters`, in nanoseconds —
/// for calls too short to time one by one.
fn loop_ns(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// The probes cheap enough for every traced run: each layer's public
/// functions on this workload's own fabric and baseline emulation.
#[must_use]
pub fn cheap(clos: &ClosTopology, emu: &Emulation, seed: u64) -> Metrics {
    let mut out = vec![(
        "core.prepare_ms",
        median_ns(5, || {
            black_box(crate::workloads::prepare_whole(clos).configs.len());
        }) / 1e6,
    )];
    out.extend(net(&clos.params));
    out.extend(config(clos));
    out.extend(boundary(clos, emu));
    out.extend(vnet());
    out.extend(dataplane(clos, emu, seed));
    out
}

/// `net`: building the fabric, partitioning it, growing a dirty region.
fn net(params: &ClosParams) -> Metrics {
    let clos = params.build();
    let topo = &clos.topo;
    let scope: BTreeSet<DeviceId> = topo.devices().map(|(id, _)| id).collect();
    let barriers: BTreeSet<DeviceId> = clos.externals.iter().copied().collect();
    let seeds = [(clos.pods[0].leaves[0], RippleScope::PodAndCore)];
    vec![
        (
            "net.clos_build_ms",
            median_ns(5, || {
                black_box(params.build().topo.device_count());
            }) / 1e6,
        ),
        (
            "net.partition_ms",
            median_ns(5, || {
                black_box(partition(topo, 4).cut_links.len());
            }) / 1e6,
        ),
        (
            "net.dirty_region_us",
            median_ns(9, || {
                black_box(dirty_region_scoped(topo, &scope, &seeds, &barriers).len());
            }) / 1e3,
        ),
    ]
}

/// `config`: generating every device's configuration, and the text and
/// diff paths on one spine's.
fn config(clos: &ClosTopology) -> Metrics {
    let topo = &clos.topo;
    let spine = clos.spine_groups[0][0];
    let cfg = crystalnet_config::generate_device(topo, spine);
    let text = crystalnet_config::render(&cfg);
    let mut edited = cfg.clone();
    edited
        .bgp
        .as_mut()
        .expect("generated configs run BGP")
        .networks
        .push(Ipv4Prefix::new(Ipv4Addr::new(10, 200, 0, 0), 24));
    vec![
        (
            "config.generate_ms",
            median_ns(5, || {
                black_box(crystalnet_config::generate_all(topo).len());
            }) / 1e6,
        ),
        (
            "config.parse_us",
            median_ns(25, || {
                black_box(crystalnet_config::parse_config(&text).is_ok());
            }) / 1e3,
        ),
        (
            "config.render_us",
            median_ns(25, || {
                black_box(crystalnet_config::render(&cfg).len());
            }) / 1e3,
        ),
        (
            "config.classify_diff_us",
            median_ns(25, || {
                let diff = crystalnet_config::config_diff(&cfg, &edited);
                black_box(classify_diff(&diff));
            }) / 1e3,
        ),
    ]
}

/// `boundary`: Algorithm 1 from one pod, and the runtime Lemma 5.1
/// audit over every converged route. No workload prepares with a safe
/// boundary yet, so nothing end to end moves with these today.
fn boundary(clos: &ClosTopology, emu: &Emulation) -> Metrics {
    let pod: Vec<DeviceId> = clos.pods[0]
        .tors
        .iter()
        .chain(&clos.pods[0].leaves)
        .copied()
        .collect();
    vec![
        (
            "boundary.find_safe_ms",
            median_ns(9, || {
                black_box(crystalnet_boundary::find_safe_dc_boundary(&clos.topo, &pod).len());
            }) / 1e6,
        ),
        (
            "boundary.audit_ms",
            median_ns(1, || {
                black_box(emu.audit_boundary().is_ok());
            }) / 1e6,
        ),
    ]
}

/// `vnet`: provisioning one inter-VM link and encapsulating one frame.
fn vnet() -> Metrics {
    let mut vnis = VniAllocator::new();
    let provision = loop_ns(20_000, |i| {
        black_box(VirtualLink::provision(
            LinkId(i as u32),
            VmId(0),
            VmId(1),
            false,
            &mut vnis,
        ));
    });
    let link = VirtualLink::provision(LinkId(1), VmId(0), VmId(1), false, &mut vnis);
    let frame = EthernetFrame {
        dst: MacAddr::from_id(1),
        src: MacAddr::from_id(2),
        ethertype: crystalnet_dataplane::ethertype::IPV4,
        payload: Bytes::from(vec![0u8; 256]),
    };
    let (a, b) = (Ipv4Addr::new(10, 0, 0, 4), Ipv4Addr::new(10, 0, 0, 5));
    let encap = loop_ns(200_000, |_| {
        black_box(link.encapsulate(&frame, a, b));
    });
    vec![
        ("vnet.probe.provision_link_ns", provision),
        ("vnet.probe.vxlan_encap_ns", encap),
    ]
}

/// `dataplane`: the read and the write side of one converged ToR FIB.
/// Destinations are seeded server addresses behind other ToRs, so every
/// lookup hits a /24 the way a flow's would.
fn dataplane(clos: &ClosTopology, emu: &Emulation, seed: u64) -> Metrics {
    let tor = clos.pods[0].tors[0];
    let os = emu.sim.os(tor).expect("the first ToR is emulated");
    let fib = os.fib();
    let locals = os.local_addrs();
    let mut rng = Rng::new(seed, "dataplane-probe");
    let tors = crate::inputs::tors(clos);
    let dsts: Vec<Ipv4Addr> = (0..4096)
        .map(|_| {
            crate::inputs::server_subnet(clos, tors[1 + rng.below(tors.len() - 1)])
                .nth(1 + rng.below(200) as u32)
        })
        .collect();
    let lookup = loop_ns(400_000, |i| {
        black_box(fib.lookup(dsts[i % dsts.len()]));
    });
    let mut pkt = Ipv4Packet {
        src: locals[0],
        dst: dsts[0],
        protocol: ipproto::UDP,
        ttl: 64,
        identification: 0,
        payload: Bytes::new(),
    };
    let decide_ns = loop_ns(400_000, |i| {
        pkt.dst = dsts[i % dsts.len()];
        pkt.identification = i as u16;
        black_box(decide(fib, &locals, &pkt, |_, _| true));
    });
    let mut scratch: Fib = fib.clone();
    let prefix = Ipv4Prefix::new(Ipv4Addr::new(99, 99, 99, 0), 24);
    let entry = FibEntry::new(vec![NextHop {
        iface: 1,
        via: Ipv4Addr(7),
    }]);
    let install_remove = loop_ns(200_000, |_| {
        scratch.install(prefix, entry.clone());
        black_box(scratch.remove(prefix));
    });
    let twin = fib.clone();
    let compare = median_ns(9, || {
        black_box(compare_fibs(fib, &twin, &CompareOptions::strict()).len());
    });
    vec![
        ("dataplane.fib.lookup_ns", lookup),
        ("dataplane.decide_ns", decide_ns),
        ("dataplane.fib.install_remove_ns", install_remove),
        ("dataplane.compare_fibs_ms", compare / 1e6),
    ]
}

/// A keyed no-op event for the bare-engine probe.
struct Tick(u64);

impl EventFire<u64> for Tick {
    fn fire(self, engine: &mut Engine<u64, Self>) {
        engine.world += 1;
    }

    fn key(&self) -> u64 {
        self.0
    }
}

fn uniform_work() -> Box<dyn WorkModel> {
    Box::new(UniformWorkModel {
        boot: SimDuration::from_secs(1),
        ..UniformWorkModel::default()
    })
}

/// `sim`: the bare engine's cost per scheduled-and-fired event, and the
/// parallel executor against the serial one on a 256-device fabric. The
/// parallel numbers are 0 on a host with fewer than two hardware
/// threads: a ratio measured there says nothing about the executor.
#[must_use]
pub fn sim(seed: u64) -> Metrics {
    const EVENTS: u64 = 1_000_000;
    let mut rng = Rng::new(seed, "sim-probe");
    let mut engine: Engine<u64, Tick> = Engine::new(0);
    let t = Instant::now();
    for key in 1..=EVENTS {
        let at = SimTime::ZERO + SimDuration::from_nanos(rng.next_u64() % 10_000_000_000);
        engine.schedule_event_at(at, Tick(key));
    }
    engine.run();
    let schedule_pop = t.elapsed().as_nanos() as f64 / EVENTS as f64;
    assert_eq!(engine.world, EVENTS, "every scheduled event fires once");
    let mut out = vec![("sim.probe.schedule_pop_ns", schedule_pop)];

    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if hw < 2 {
        out.push(("sim.parallel.w2_over_w1", 0.0));
        out.push(("sim.parallel.idle_share", 0.0));
        return out;
    }
    let clos = ClosParams {
        name: "clos-256".into(),
        borders: 4,
        spine_groups: 2,
        spines_per_group: 4,
        pods: 12,
        leaves_per_pod: 2,
        tors_per_pod: 18,
        groups_per_pod: 2,
        ext_peers_per_border: 1,
        ext_prefixes_per_peer: 8,
    }
    .build();
    let quiet = SimDuration::from_secs(5);
    let deadline = SimTime::ZERO + SimDuration::from_mins(120);
    let settle = |workers: usize, profiled: bool| {
        let mut sim = build_full_bgp_sim(&clos.topo, uniform_work());
        if profiled {
            sim.engine.world.recorder = Box::new(MemRecorder::new().with_profiling());
        }
        sim.boot_all(SimTime::ZERO);
        let t = Instant::now();
        let at = if workers == 1 {
            sim.run_until_quiet(quiet, deadline)
        } else {
            let part = partition(&clos.topo, workers);
            let models = (0..workers).map(|_| uniform_work()).collect();
            sim.run_until_quiet_parallel(quiet, deadline, &part, models)
                .0
        };
        (t.elapsed().as_secs_f64(), at, sim)
    };
    let (w1, at1, serial) = settle(1, false);
    let (w2, at2, sharded) = settle(2, false);
    let same = at1 == at2
        && clos
            .topo
            .devices()
            .all(|(id, _)| serial.fib(id) == sharded.fib(id));
    assert!(same, "two shards must converge to the serial run's FIBs");
    let (_, _, profiled) = settle(2, true);
    let report = MemRecorder::from_recorder(&*profiled.engine.world.recorder)
        .expect("the recorder installed above")
        .report();
    let profile = report.profile.expect("profiling was on");
    let idle = profile.wall_ns(keys::PARALLEL_IDLE) as f64;
    let compute = profile.wall_ns(keys::PARALLEL_COMPUTE) as f64;
    out.push(("sim.parallel.w2_over_w1", w2 / w1));
    out.push(("sim.parallel.idle_share", idle / (idle + compute).max(1.0)));
    out
}

/// `routing` + `sim` without `core` or `vnet`: every device of `topo`
/// booted as a BGP router under a uniform work model and run to
/// quiescence.
#[must_use]
pub fn routing_settle(topo: &Topology) -> Metrics {
    let t = Instant::now();
    let mut sim = build_full_bgp_sim(topo, uniform_work());
    sim.boot_all(SimTime::ZERO);
    let converged = sim.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::ZERO + SimDuration::from_mins(120),
    );
    let wall = t.elapsed().as_secs_f64();
    assert!(converged.is_some(), "the bare BGP fabric converges");
    vec![("routing.settle_wall_s", wall)]
}

/// One spine's BGP firmware fed a seeded UPDATE stream through
/// `DeviceOs::handle`: sessions opened by hand, then 2,000 updates of 16
/// fresh prefixes each, spread over its peers. Nanoseconds per update.
#[must_use]
pub fn bgp_handle_update(clos: &ClosTopology, seed: u64) -> Metrics {
    const UPDATES: usize = 2_000;
    const PREFIXES: usize = 16;
    let topo = &clos.topo;
    let spine = clos.spine_groups[0][0];
    let dev = topo.device(spine);
    let cfg = crystalnet_config::generate_device(topo, spine);
    let mut os = BgpRouterOs::new(VendorProfile::for_vendor(dev.vendor), cfg, dev.loopback);
    let now = SimTime::ZERO;
    os.handle(now, OsEvent::Boot);
    let peers: Vec<(u32, Asn, Ipv4Addr)> = topo
        .neighbors(spine)
        .map(|(_, local, remote)| {
            let peer = topo.device(remote.device);
            (local.iface, peer.asn, peer.loopback)
        })
        .collect();
    for &(iface, asn, router_id) in &peers {
        os.handle(now, OsEvent::LinkUp(iface));
        os.handle(
            now,
            OsEvent::Frame {
                iface,
                frame: Frame::Bgp(BgpMsg::Open {
                    asn,
                    router_id,
                    hold_secs: 0,
                    session_token: u64::from(iface) + 1,
                }),
            },
        );
    }
    let mut rng = Rng::new(seed, "bgp-probe");
    let stream: Vec<(u32, BgpMsg)> = (0..UPDATES)
        .map(|u| {
            let (iface, asn, router_id) = peers[rng.below(peers.len())];
            let origin_as = Asn(64_000 + rng.below(500) as u32);
            let attrs = PathAttrs {
                as_path: vec![asn, origin_as],
                ..PathAttrs::originated(router_id)
            }
            .intern();
            let prov = Provenance::originated(
                OriginKind::Network,
                router_id,
                EventId {
                    time_ns: u as u64,
                    key: u as u64 + 1,
                },
            );
            let announced = (0..PREFIXES)
                .map(|k| {
                    let n = (u * PREFIXES + k) as u32;
                    (
                        Ipv4Prefix::new(Ipv4Addr(0x1400_0000 + (n << 8)), 24),
                        attrs.clone(),
                        prov.clone(),
                    )
                })
                .collect();
            (
                iface,
                BgpMsg::Update {
                    announced,
                    withdrawn: Vec::new(),
                },
            )
        })
        .collect();
    let t = Instant::now();
    let mut ops = 0;
    for (iface, msg) in stream {
        let actions = os.handle(
            now,
            OsEvent::Frame {
                iface,
                frame: Frame::Bgp(msg),
            },
        );
        ops += actions.route_ops;
    }
    let per_update = t.elapsed().as_nanos() as f64 / UPDATES as f64;
    assert!(
        ops >= UPDATES * PREFIXES && os.rib_size() >= UPDATES * PREFIXES,
        "the probe's sessions are established and its routes accepted"
    );
    vec![("routing.bgp.handle_update_ns", per_update)]
}

/// What the benchmark's own spans cost: nanoseconds per recorded span.
#[must_use]
pub fn span_cost_ns() -> f64 {
    let mut tracer = crate::spans::Tracer::new(true);
    loop_ns(200_000, |i| {
        black_box(tracer.time("probe", || i));
    })
}
