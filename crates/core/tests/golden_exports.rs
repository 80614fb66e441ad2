//! Golden export digests: one fixed S-DC scenario — probe mesh and flow
//! load on, one ToR-uplink flap — whose five exports are pinned by
//! hash. The digests were recorded before the packet-walk planes were
//! folded onto one tick/hop/report path, so any refactor of that path
//! that moves a single export byte (an event id, an incident's order, a
//! counter) fails here.

use crystalnet::prelude::*;
use crystalnet::PlanOptions;

/// FNV-1a over the export's bytes.
fn digest(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The five exports of the scenario, by name.
fn exports() -> Vec<(&'static str, String)> {
    let clos = ClosParams::s_dc().build();
    let prep = prepare(
        &clos.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    );
    let period = SimDuration::from_millis(500);
    let mut emu = mockup(
        Arc::new(prep),
        MockupOptions::builder()
            .seed(2017)
            .trace_capacity(1 << 20)
            .health_config(ProbeConfig {
                pairs_per_round: 64,
                slo_window: 6,
                ..ProbeConfig::with_period(period)
            })
            .traffic_config(TrafficConfig {
                flows_per_round: 64,
                slo_window: 6,
                link_capacity_bps: 10_000_000,
                ..TrafficConfig::with_period(period)
            })
            .build(),
    );
    emu.advance(SimDuration::from_secs(5));
    let tor = clos.pods[0].tors[0];
    let (uplink, _, _) = clos.topo.neighbors(tor).next().expect("a ToR has uplinks");
    emu.run_fault_plan(&FaultPlan::default().then(
        SimDuration::ZERO,
        FaultKind::LinkFlapBurst {
            link: uplink,
            flaps: 1,
            period: SimDuration::from_secs(4),
        },
    ))
    .expect("the flap re-converges");
    emu.advance(SimDuration::from_secs(10));
    vec![
        ("incidents_jsonl", emu.incidents_jsonl()),
        ("pull_health", emu.pull_health().to_json()),
        ("pull_traffic", emu.pull_traffic().to_json()),
        ("trace_jsonl", emu.trace_jsonl()),
        ("pull_report", emu.pull_report().to_json()),
    ]
}

#[test]
fn sdc_exports_match_the_recorded_digests() {
    const GOLDEN: [(&str, u64); 5] = [
        ("incidents_jsonl", 0x4e48_8af8_4d8d_d7dc),
        ("pull_health", 0x0ed7_a524_8710_a664),
        ("pull_traffic", 0x6d3f_957f_df36_cd9c),
        ("trace_jsonl", 0x11e9_a475_5013_1264),
        ("pull_report", 0x340a_5322_5e97_26db),
    ];
    let got = exports();
    assert!(
        got[0].1.lines().count() > 10,
        "the scenario must produce incidents from both planes"
    );
    for ((name, export), (golden_name, golden)) in got.iter().zip(GOLDEN) {
        assert_eq!(*name, golden_name);
        assert_eq!(
            digest(export),
            golden,
            "{name} moved ({} bytes)",
            export.len()
        );
    }
}

/// The device-lifecycle scenario: every way a sandbox is placed,
/// isolated, revived and recovered, in one run. A fault plan crashes a
/// VM, exhausts another VM's reboot budget (quarantine to a spare) and
/// crashes a speaker agent; a VM then fails by direct injection; a fork
/// swaps a speaker's routes, removes a ToR and commits. Digested: the
/// sorted journal, the run report, the causal trace, where every device
/// ended up (VM and container ids) and the virtual-link list.
fn lifecycle_exports() -> Vec<(&'static str, String)> {
    let clos = ClosParams::s_dc().build();
    let prep = prepare(
        &clos.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions {
            target_vms: Some(5),
            ..PlanOptions::default()
        },
    );
    let speakers = prep.speakers();
    let mut emu = mockup(
        Arc::new(prep),
        MockupOptions::builder()
            .seed(2017)
            .trace_capacity(1 << 20)
            .build(),
    );
    let plan = FaultPlan::default()
        .then(SimDuration::from_secs(5), FaultKind::VmCrash { vm: 1 })
        .then(
            SimDuration::from_secs(20),
            FaultKind::VmSlowRestart {
                vm: 0,
                failed_attempts: 4,
            },
        )
        .then(
            SimDuration::from_secs(30),
            FaultKind::SpeakerCrash {
                device: speakers[0],
            },
        );
    emu.run_fault_plan(&plan).expect("the drill recovers");
    assert!(
        emu.journal
            .events
            .iter()
            .any(|e| matches!(e.kind, JournalKind::VmQuarantined { vm: 0, .. })),
        "four failed reboots must quarantine VM 0"
    );
    emu.fail_and_recover_vm(2)
        .expect("direct injection recovers");
    emu.settle()
        .expect("re-converges after the direct injection");

    let speaker = *speakers.last().expect("an S-DC has external peers");
    let doomed = clos.pods[1].tors[0];
    let mut fork = emu.fork();
    fork.apply(
        &ChangeSet::new()
            .speaker_route_swap(
                speaker,
                vec![SpeakerRoute {
                    prefix: "10.99.0.0/24".parse().unwrap(),
                    as_path: vec![clos.topo.device(speaker).asn],
                    med: 0,
                }],
            )
            .device_remove(doomed),
    )
    .expect("the change set applies");
    fork.commit(&mut emu);
    assert!(!emu.sandboxes.contains_key(&doomed));

    let mut placement: Vec<_> = emu.sandboxes.iter().collect();
    placement.sort_unstable_by_key(|(d, _)| d.0);
    vec![
        ("journal", format!("{:?}", emu.journal.sorted().events)),
        ("pull_report", emu.pull_report().to_json()),
        ("trace_jsonl", emu.trace_jsonl()),
        ("placement", format!("{placement:?}")),
        ("vlinks", format!("{:?}", emu.vlinks)),
    ]
}

#[test]
fn lifecycle_exports_match_the_recorded_digests() {
    const GOLDEN: [(&str, u64); 5] = [
        ("journal", 0x6d8d_d3e4_1139_802f),
        ("pull_report", 0x1a75_6518_d32c_4432),
        ("trace_jsonl", 0xd53c_d433_6f4d_7339),
        ("placement", 0x6df2_19e6_4529_84d4),
        ("vlinks", 0x9578_ad06_9e71_7114),
    ];
    let got = lifecycle_exports();
    for ((name, export), (golden_name, golden)) in got.iter().zip(GOLDEN) {
        assert_eq!(*name, golden_name);
        assert_eq!(
            digest(export),
            golden,
            "{name} moved ({} bytes)",
            export.len()
        );
    }
}

/// The boundary scenario: Algorithm 1's safe boundary around one pod's
/// ToRs, with speaker agents standing in for the devices just outside
/// it. Digested: the causal trace, the run report and the `List` dump.
/// The pins hold in every process, so they also fix speaker boot order
/// and `list()` order: an order drawn from per-process hash keys would
/// move the trace's event ids or the dump.
fn boundary_exports() -> Vec<(&'static str, String)> {
    let clos = ClosParams::s_dc().build();
    let prep = prepare(
        &clos.topo,
        &clos.pods[2].tors,
        BoundaryMode::SafeDcBoundary,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    );
    assert!(!prep.speakers().is_empty(), "the boundary has speakers");
    let emu = mockup(
        Arc::new(prep),
        MockupOptions::builder()
            .seed(2017)
            .trace_capacity(1 << 20)
            .build(),
    );
    vec![
        ("trace_jsonl", emu.trace_jsonl()),
        ("pull_report", emu.pull_report().to_json()),
        ("list", format!("{:?}", emu.list())),
    ]
}

#[test]
fn boundary_exports_match_the_recorded_digests() {
    const GOLDEN: [(&str, u64); 3] = [
        ("trace_jsonl", 0x12c9_4e81_4ee9_1229),
        ("pull_report", 0x3721_7799_cd60_b302),
        ("list", 0xfa2c_9464_b1a8_c529),
    ];
    let got = boundary_exports();
    for ((name, export), (golden_name, golden)) in got.iter().zip(GOLDEN) {
        assert_eq!(*name, golden_name);
        assert_eq!(
            digest(export),
            golden,
            "{name} moved ({} bytes)",
            export.len()
        );
    }
}

/// The series the run report reads from the world and the emulation
/// rather than from the recorder: boots, frames and BGP messages by
/// kind, per-device convergence, and the measured-step totals.
const STATE_SERIES: [&str; 20] = [
    "routing.devices_booted",
    "routing.last_boot_done_ns",
    "routing.frames_sent",
    "routing.frames_delivered",
    "routing.bgp_opens_sent",
    "routing.bgp_opens_received",
    "routing.bgp_updates_sent",
    "routing.bgp_updates_received",
    "routing.bgp_prefixes_announced",
    "routing.bgp_prefixes_withdrawn",
    "routing.bgp_keepalives_sent",
    "routing.bgp_keepalives_received",
    "routing.bgp_notifications_sent",
    "routing.bgp_notifications_received",
    "routing.bgp_refreshes_sent",
    "routing.bgp_refreshes_received",
    "core.apply_change.steps",
    "core.apply_change.dirty_devices",
    "core.apply_change.fib_changes",
    "core.apply_change.fib_changes_outside_dirty",
];

/// The rehearsal scenario: a fork soft-refreshes a ToR's config (a new
/// `network` statement, which `classify_diff` calls `SoftRefresh`, so
/// the ToR sends route refreshes), then a tool step shuts one of its
/// BGP sessions through `login_and_run` (a NOTIFICATION), and the fork
/// commits. Digested: the run report and the causal trace.
fn rehearsal_exports() -> Vec<(&'static str, String)> {
    let clos = ClosParams::s_dc().build();
    let prep = prepare(
        &clos.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    );
    let mut emu = mockup(
        Arc::new(prep),
        MockupOptions::builder()
            .seed(2017)
            .trace_capacity(1 << 20)
            .build(),
    );
    let tor = clos.pods[0].tors[0];
    let base = (emu.prep.configs.iter())
        .find(|(d, _)| *d == tor)
        .map(|(_, c)| c.clone())
        .expect("the ToR has a prepared config");
    let mut edited = base.clone();
    let bgp = edited.bgp.as_mut().expect("the ToR runs BGP");
    bgp.networks.push("10.77.0.0/24".parse().unwrap());
    let peer = bgp.neighbors[0].addr;
    let diff = crystalnet_config::config_diff(&base, &edited);
    assert_eq!(classify_diff(&diff), ChangeImpact::SoftRefresh);

    let mut fork = emu.fork();
    let delta = fork
        .apply(&ChangeSet::new().config_update(tor, edited))
        .expect("the soft refresh applies");
    assert_eq!(delta.applied[0].impact, Some(ChangeImpact::SoftRefresh));
    let host = clos.topo.device(tor).name.clone();
    fork.run_tools("shut one session", move |emu| {
        let answer = emu.login_and_run(&host, MgmtCommand::NeighborShutdown(peer))?;
        assert_eq!(answer, MgmtResponse::Ok, "the ToR shuts the session");
        Ok(())
    })
    .expect("the tool step settles");
    fork.commit(&mut emu);

    let report = emu.pull_report();
    for name in STATE_SERIES {
        assert!(report.counters.contains_key(name), "{name} is missing");
    }
    assert!(report.per_device.contains_key("routing.convergence_ns"));
    vec![
        ("pull_report", report.to_json()),
        ("trace_jsonl", emu.trace_jsonl()),
    ]
}

#[test]
fn rehearsal_exports_match_the_recorded_digests() {
    const GOLDEN: [(&str, u64); 2] = [
        ("pull_report", 0x3618_b94f_3a99_867f),
        ("trace_jsonl", 0x9f41_69a3_0f2d_fdb3),
    ];
    let got = rehearsal_exports();
    for ((name, export), (golden_name, golden)) in got.iter().zip(GOLDEN) {
        assert_eq!(*name, golden_name);
        assert_eq!(
            digest(export),
            golden,
            "{name} moved ({} bytes)",
            export.len()
        );
    }
}
