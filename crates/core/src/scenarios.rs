//! The Table 1 incident suite: executable reproductions of the root-cause
//! classes behind the paper's O(100) production incidents (2015–2017),
//! each run under the emulator with a detection check.
//!
//! | Root cause | Proportion | Scenarios here |
//! |---|---|---|
//! | Software bugs | 36% | tool device-shutdown, stop-announcing firmware, Figure 1 aggregation imbalance, FIB-overflow blackhole, ACL v1/v2 misread |
//! | Config bugs | 27% | route-map leak, wrong remote-AS, overlapping IP |
//! | Human errors | 6% | the `deny 10.0.0.0/2` typo |
//! | Hardware failures | 29% | fiber cut (covered), silent ASIC drop (honestly *not* covered — §9's stated limitation) |
//!
//! Each scenario reports whether the emulation *detected* the issue and
//! whether configuration-level verification (Batfish-class tools) could
//! have — the paper's core comparison.

use crate::emulation::{mockup, Emulation, MockupOptions};
use crate::plan::PlanOptions;
use crate::prepare::{prepare, BoundaryMode, SpeakerSource};
use crystalnet_config::{Acl, AclEntry, Action, AggregateConfig, DeviceConfig};
use crystalnet_dataplane::ForwardDecision;
use crystalnet_net::fixtures::{fig1, fig7, Fig1};
use crystalnet_net::{
    Asn, Device, DeviceId, Ipv4Addr, Ipv4Prefix, P2pAllocator, Role, Topology, Vendor,
};
use crystalnet_routing::{MgmtCommand, MgmtResponse, VendorProfile};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Root-cause classes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RootCause {
    /// Bugs in device firmware or management tools.
    SoftwareBug,
    /// Configuration errors.
    ConfigBug,
    /// Manual actions mismatching intent.
    HumanError,
    /// Hardware failures.
    HardwareFailure,
}

impl RootCause {
    /// Table 1's proportion for the class.
    #[must_use]
    pub fn paper_proportion(self) -> f64 {
        match self {
            RootCause::SoftwareBug => 0.36,
            RootCause::ConfigBug => 0.27,
            RootCause::HumanError => 0.06,
            RootCause::HardwareFailure => 0.29,
        }
    }
}

/// The outcome of one incident scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: String,
    /// Root-cause class.
    pub cause: RootCause,
    /// Whether the emulation surfaced the issue.
    pub detected: bool,
    /// Whether config-level verification could have caught it
    /// (the "Verification Coverage" column).
    pub verification_covers: bool,
    /// What was observed.
    pub detail: String,
}

fn p(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

fn emulate(topo: &Topology, options: MockupOptions) -> Emulation {
    emulate_edited(topo, options, |_, _| {})
}

/// [`emulate`] with `edit` applied to every prepared configuration
/// before the mockup.
fn emulate_edited(
    topo: &Topology,
    options: MockupOptions,
    mut edit: impl FnMut(DeviceId, &mut DeviceConfig),
) -> Emulation {
    let mut prep = prepare(
        topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    );
    for (dev, cfg) in &mut prep.configs {
        edit(*dev, cfg);
    }
    mockup(Arc::new(prep), options)
}

/// Runs every scenario with the given seed.
#[must_use]
pub fn run_all(seed: u64) -> Vec<ScenarioResult> {
    vec![
        tool_shutdown_bug(seed),
        firmware_stops_announcing(seed),
        aggregation_imbalance(seed),
        fib_overflow_blackhole(seed),
        acl_format_change(seed),
        config_route_leak(seed),
        config_wrong_remote_as(seed),
        config_overlapping_prefix(seed),
        human_error_acl_typo(seed),
        hardware_fiber_cut(seed),
        hardware_silent_drop(seed),
    ]
}

/// §2: "an unhandled exception ... caused a tool to shut down a router
/// instead of a single BGP session."
#[must_use]
pub fn tool_shutdown_bug(seed: u64) -> ScenarioResult {
    let f = fig7();
    let mut emu = emulate(&f.topo, MockupOptions::builder().seed(seed).build());
    // The buggy automation tool runs against the emulated L1.
    let l1 = f.leaves[0];
    let name = f.topo.device(l1).name.clone();
    let _ = emu.login_and_run(&name, MgmtCommand::DeviceShutdown);
    let _ = emu.settle();
    // Practicing in the emulator reveals the whole device went dark, not
    // one session.
    let detected = !emu.sim.is_up(l1);
    ScenarioResult {
        name: "tool shuts down router instead of one BGP session".into(),
        cause: RootCause::SoftwareBug,
        detected,
        verification_covers: false,
        detail: format!("device {name} down after intended single-session change"),
    }
}

/// §2: "new router firmware from a vendor erroneously stopped announcing
/// certain IP prefixes."
#[must_use]
pub fn firmware_stops_announcing(seed: u64) -> ScenarioResult {
    let f = fig7();
    // Upgrade T1 to the buggy firmware build.
    let mut profile = VendorProfile::ctnr_a();
    profile.quirks.stop_announcing_networks = true;
    let options = MockupOptions::builder()
        .seed(seed)
        .profile_override(f.tors[0], profile)
        .build();
    let emu = emulate(&f.topo, options);
    // The spine should know T1's subnet; with the buggy image it doesn't.
    let missing = emu
        .sim
        .fib(f.spines[0])
        .is_some_and(|fib| fib.lookup(p("10.7.0.0/24").nth(1)).is_none());
    ScenarioResult {
        name: "firmware upgrade stops announcing prefixes".into(),
        cause: RootCause::SoftwareBug,
        detected: missing,
        verification_covers: false,
        detail: "spine lost the upgraded ToR's server subnet".into(),
    }
}

/// Figure 1's network under emulation: [`fig1`] with
/// `aggregate-address P3 summary-only` on both aggregation routers (R6
/// and R7) — identical configuration, divergent firmware.
#[must_use]
pub fn fig1_emulation(f: &Fig1, options: MockupOptions) -> Emulation {
    emulate_edited(&f.topo, options, |dev, cfg| {
        if dev == f.routers[5] || dev == f.routers[6] {
            cfg.bgp.as_mut().unwrap().aggregates.push(AggregateConfig {
                prefix: f.p3,
                summary_only: true,
            });
        }
    })
}

/// Figure 1's measurement: injects one telemetry packet at R8 per
/// `(src, dst)` flow and counts how many crossed R6 and how many R7.
pub fn fig1_split(
    emu: &mut Emulation,
    f: &Fig1,
    flows: impl IntoIterator<Item = (Ipv4Addr, Ipv4Addr)>,
) -> (u32, u32) {
    let (mut via_r6, mut via_r7) = (0, 0);
    for (src, dst) in flows {
        let sig = emu.inject_packet(f.routers[7], src, dst);
        let (path, _) = emu.pull_packets(sig).expect("probe traced");
        via_r6 += u32::from(path.contains(&f.routers[5]));
        via_r7 += u32::from(path.contains(&f.routers[6]));
    }
    (via_r6, via_r7)
}

/// Figure 1: vendor-divergent aggregate AS paths pull all traffic to one
/// device.
#[must_use]
pub fn aggregation_imbalance(seed: u64) -> ScenarioResult {
    let f = fig1();
    let mut emu = fig1_emulation(&f, MockupOptions::builder().seed(seed).build());
    // 64 flows from R8 toward P3.
    let flows =
        (0..64u32).map(|flow| (Ipv4Addr::new(203, 0, 113, flow as u8), f.p3.nth(256 + flow)));
    let (via_r6, via_r7) = fig1_split(&mut emu, &f, flows);
    let detected = via_r7 == 64 && via_r6 == 0;
    ScenarioResult {
        name: "vendor-divergent IP aggregation imbalances traffic (Fig. 1)".into(),
        cause: RootCause::SoftwareBug,
        detected,
        verification_covers: false,
        detail: format!("R8→P3 flows: {via_r6} via R6, {via_r7} via R7"),
    }
}

/// §2: a software load balancer splits its /16 into /24 blocks; the
/// downstream router's FIB overflows and silently blackholes.
#[must_use]
pub fn fib_overflow_blackhole(seed: u64) -> ScenarioResult {
    // Two-node fixture: SLB announcing 100 blocks into a small-FIB router.
    let mut topo = Topology::new();
    let mut p2p = P2pAllocator::new(p("100.105.0.0/24"));
    let slb = topo
        .add_device(Device {
            name: "slb0".into(),
            role: Role::Middlebox,
            vendor: Vendor::CtnrB,
            asn: Asn(65501),
            loopback: "172.41.0.1".parse().unwrap(),
            mgmt_addr: "192.168.41.1".parse().unwrap(),
            originated: p("10.1.0.0/16").subnets(24).into_iter().take(100).collect(),
            ifaces: vec![],
            pod: None,
        })
        .unwrap();
    let router = topo
        .add_device(Device {
            name: "agg0".into(),
            role: Role::Leaf,
            vendor: Vendor::CtnrA,
            asn: Asn(65502),
            loopback: "172.41.0.2".parse().unwrap(),
            mgmt_addr: "192.168.41.2".parse().unwrap(),
            originated: vec![],
            ifaces: vec![],
            pod: None,
        })
        .unwrap();
    topo.connect_p2p(slb, router, &mut p2p).unwrap();

    let options = MockupOptions::builder().seed(seed).build();
    let mut emu = emulate_edited(&topo, options, |dev, cfg| {
        if dev == router {
            cfg.fib_capacity = Some(60);
        }
    });

    // Probe every announced block from the router.
    let mut blackholed = 0;
    for block in p("10.1.0.0/16").subnets(24).into_iter().take(100) {
        let sig = emu.inject_packet(router, "172.41.0.2".parse().unwrap(), block.nth(10));
        if emu
            .pull_packets(sig)
            .is_ok_and(|(_, o)| o == ForwardDecision::DropNoRoute)
        {
            blackholed += 1;
        }
    }
    ScenarioResult {
        name: "FIB overflow silently blackholes load-balancer blocks".into(),
        cause: RootCause::SoftwareBug,
        detected: blackholed == 40,
        verification_covers: false,
        detail: format!("{blackholed}/100 blocks blackholed at the small-FIB router"),
    }
}

/// §2: "a vendor changed the format of ACLs in the new release, but
/// neglected to document the change clearly."
#[must_use]
pub fn acl_format_change(seed: u64) -> ScenarioResult {
    let f = fig7();
    // L1 runs the new firmware that misreads v1 ACL field order.
    let mut profile = VendorProfile::ctnr_a();
    profile.quirks.acl_v2_misread = true;
    let options = MockupOptions::builder()
        .seed(seed)
        .profile_override(f.leaves[0], profile)
        .build();
    let mut emu = emulate(&f.topo, options);

    // Operators push the same v1 ACL they always use: permit traffic
    // *from* server space.
    let acl = Acl {
        entries: vec![AclEntry {
            seq: 10,
            action: Action::Permit,
            src: p("10.0.0.0/8"),
            dst: p("0.0.0.0/0"),
        }],
    };
    let l1 = f.leaves[0];
    // The ACL guards L1's interface toward T1 (iface 0 = "et0").
    emu.sim.mgmt_sync(
        l1,
        MgmtCommand::ApplyAclIn {
            iface: "et0".into(),
            acl_name: "SRV-IN".into(),
            acl,
        },
    );
    let _ = emu.settle();

    // Legitimate server-sourced packets from T1 toward a non-10/8
    // destination (T3's loopback) should pass under the v1 reading — the
    // misreading firmware swaps source and destination fields, so the
    // destination no longer matches the permit and the implicit deny
    // fires. (Flows whose src *and* dst are both in 10/8 mask the bug —
    // exactly why it escaped the vendor's unit tests.)
    let t3_loopback = f.topo.device(f.tors[2]).loopback;
    let mut dropped_at_l1 = false;
    for flow in 0..16u32 {
        let sig = emu.inject_packet(f.tors[0], p("10.7.0.0/24").nth(flow + 7), t3_loopback);
        let (path, outcome) = emu.pull_packets(sig).expect("probe traced");
        if outcome == ForwardDecision::DropAcl && path.last() == Some(&l1) {
            dropped_at_l1 = true;
        }
    }
    ScenarioResult {
        name: "undocumented ACL format change breaks old configs".into(),
        cause: RootCause::SoftwareBug,
        detected: dropped_at_l1,
        verification_covers: false,
        detail: "v1 ACL permits server sources; v2-misreading firmware drops them".into(),
    }
}

/// §2 config bugs: a filtering change that leaks — an outbound route map
/// intended to filter one prefix denies everything (implicit deny).
#[must_use]
pub fn config_route_leak(seed: u64) -> ScenarioResult {
    let f = fig7();
    let mut emu = emulate(&f.topo, MockupOptions::builder().seed(seed).build());
    let t1 = f.tors[0];
    // The operator attaches a route map referencing a prefix list that
    // matches nothing (a classic fat-fingered prefix-list name/content
    // mismatch): the implicit deny filters *all* announcements.
    let mut cfg = emu
        .prep
        .configs
        .iter()
        .find(|(d, _)| *d == t1)
        .unwrap()
        .1
        .clone();
    cfg.route_maps.insert(
        "OUT-FILTER".into(),
        crystalnet_config::RouteMap {
            entries: vec![crystalnet_config::RouteMapEntry {
                seq: 10,
                action: Action::Permit,
                matches: vec![crystalnet_config::RouteMatch::PrefixList("NO-SUCH".into())],
                sets: vec![],
            }],
        },
    );
    if let Some(bgp) = cfg.bgp.as_mut() {
        for n in &mut bgp.neighbors {
            n.route_map_out = Some("OUT-FILTER".into());
        }
    }
    emu.reload(t1, cfg, false);
    let _ = emu.settle();
    let missing = emu
        .sim
        .fib(f.spines[0])
        .is_some_and(|fib| fib.lookup(p("10.7.0.0/24").nth(1)).is_none());
    ScenarioResult {
        name: "route-map filter change blackholes a ToR".into(),
        cause: RootCause::ConfigBug,
        detected: missing,
        verification_covers: true,
        detail: "implicit deny in a new route map withdrew the ToR's subnet".into(),
    }
}

/// §2 config bugs: "incorrect AS number."
#[must_use]
pub fn config_wrong_remote_as(seed: u64) -> ScenarioResult {
    let f = fig7();
    let mut emu = emulate(&f.topo, MockupOptions::builder().seed(seed).build());
    let l1 = f.leaves[0];
    let mut cfg = emu
        .prep
        .configs
        .iter()
        .find(|(d, _)| *d == l1)
        .unwrap()
        .1
        .clone();
    // Fat-finger T1's AS on L1.
    if let Some(bgp) = cfg.bgp.as_mut() {
        let t1_asn = f.topo.device(f.tors[0]).asn;
        for n in &mut bgp.neighbors {
            if n.remote_as == t1_asn {
                n.remote_as = Asn(t1_asn.0 + 100);
            }
        }
    }
    emu.reload(l1, cfg, false);
    let _ = emu.settle();
    // The session to T1 never comes back: visible in `show bgp summary`.
    let resp = emu.sim.mgmt_sync(l1, MgmtCommand::ShowBgpSummary);
    let down = match resp {
        Some(MgmtResponse::BgpSummary(rows)) => rows.iter().filter(|(_, up, _)| !up).count(),
        _ => 0,
    };
    ScenarioResult {
        name: "mistyped remote-as keeps a session down".into(),
        cause: RootCause::ConfigBug,
        detected: down >= 1,
        verification_covers: true,
        detail: format!("{down} session(s) failed to re-establish after the change"),
    }
}

/// §2 config bugs: "overlapping IP assignments" — another device starts
/// originating an already-used subnet.
#[must_use]
pub fn config_overlapping_prefix(seed: u64) -> ScenarioResult {
    let f = fig7();
    let mut emu = emulate(&f.topo, MockupOptions::builder().seed(seed).build());
    // T3 (a different pod) is configured with T1's subnet by mistake.
    emu.sim
        .mgmt_sync(f.tors[2], MgmtCommand::AddNetwork(p("10.7.0.0/24")));
    let _ = emu.settle();
    // Probes toward T1's subnet from T5's pod now sometimes land on T3.
    let mut misdelivered = 0;
    for flow in 0..32u32 {
        let sig = emu.inject_packet(
            f.tors[4],
            p("10.7.4.0/24").nth(flow + 1),
            p("10.7.0.0/24").nth(flow + 1),
        );
        let (path, _) = emu.pull_packets(sig).expect("probe traced");
        if path.last() == Some(&f.tors[2]) {
            misdelivered += 1;
        }
    }
    ScenarioResult {
        name: "overlapping IP assignment hijacks traffic".into(),
        cause: RootCause::ConfigBug,
        detected: misdelivered > 0,
        verification_covers: true,
        detail: format!("{misdelivered}/32 flows toward the subnet landed on the wrong ToR"),
    }
}

/// §2 human errors: mistyping `deny 10.0.0.0/20` as `deny 10.0.0.0/2`.
#[must_use]
pub fn human_error_acl_typo(seed: u64) -> ScenarioResult {
    let f = fig7();
    let mut emu = emulate(&f.topo, MockupOptions::builder().seed(seed).build());
    let l1 = f.leaves[0];
    // Intention: block one /20. Typo: /2 — swallowing a quarter of the
    // address space, including all of 10/8.
    let typo = Acl {
        entries: vec![
            AclEntry {
                seq: 10,
                action: Action::Deny,
                src: p("10.0.0.0/2"),
                dst: p("0.0.0.0/0"),
            },
            AclEntry {
                seq: 20,
                action: Action::Permit,
                src: p("0.0.0.0/0"),
                dst: p("0.0.0.0/0"),
            },
        ],
    };
    emu.sim.mgmt_sync(
        l1,
        MgmtCommand::ApplyAclIn {
            iface: "et0".into(),
            acl_name: "BLOCK".into(),
            acl: typo,
        },
    );
    let _ = emu.settle();
    // Traffic that must not be affected (10.7.x server space) dies on
    // the flows that traverse L1.
    let mut blocked = false;
    for flow in 0..16u32 {
        let sig = emu.inject_packet(
            f.tors[0],
            p("10.7.0.0/24").nth(flow + 3),
            p("10.7.2.0/24").nth(flow + 4),
        );
        if emu
            .pull_packets(sig)
            .is_ok_and(|(_, o)| o == ForwardDecision::DropAcl)
        {
            blocked = true;
        }
    }
    ScenarioResult {
        name: "`deny 10.0.0.0/2` typo blocks production traffic".into(),
        cause: RootCause::HumanError,
        detected: blocked,
        verification_covers: true,
        detail: "practice run in the emulator catches the typo before production".into(),
    }
}

/// Table 1 hardware failures: a fiber cut's control-plane consequences.
#[must_use]
pub fn hardware_fiber_cut(seed: u64) -> ScenarioResult {
    let f = fig7();
    let mut emu = emulate(&f.topo, MockupOptions::builder().seed(seed).build());
    let (lid, _, _) = f.topo.neighbors(f.tors[0]).next().unwrap();
    let before = emu
        .sim
        .fib(f.spines[0])
        .and_then(|fib| {
            fib.lookup(p("10.7.0.0/24").nth(1))
                .map(|(_, e)| e.next_hops.len())
        })
        .unwrap_or(0);
    emu.disconnect(lid);
    let _ = emu.settle();
    let after = emu
        .sim
        .fib(f.spines[0])
        .and_then(|fib| {
            fib.lookup(p("10.7.0.0/24").nth(1))
                .map(|(_, e)| e.next_hops.len())
        })
        .unwrap_or(0);
    ScenarioResult {
        name: "fiber cut narrows ECMP and is visible in pulled state".into(),
        cause: RootCause::HardwareFailure,
        detected: after < before && after > 0,
        verification_covers: false,
        detail: format!("spine ECMP width {before} → {after} after the cut"),
    }
}

/// §9's honest limitation: silent ASIC packet drops (hardware data-plane
/// faults) are *not* caught by a control-plane emulator.
#[must_use]
pub fn hardware_silent_drop(_seed: u64) -> ScenarioResult {
    ScenarioResult {
        name: "silent ASIC packet drops (not emulatable)".into(),
        cause: RootCause::HardwareFailure,
        detected: false,
        verification_covers: false,
        detail: "CrystalNet is control-plane-faithful; ASIC faults need hardware tests (§9)".into(),
    }
}
