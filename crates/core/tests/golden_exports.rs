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
fn sdc_exports_match_the_recorded_digests_serial_and_sharded() {
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
fn lifecycle_exports_match_the_recorded_digests_serial_and_sharded() {
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
