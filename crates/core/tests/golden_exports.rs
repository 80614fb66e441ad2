//! Golden export digests: one fixed S-DC scenario — probe mesh and flow
//! load on, one ToR-uplink flap — whose five exports are pinned by
//! hash. The digests were recorded before the packet-walk planes were
//! folded onto one tick/hop/report path, so any refactor of that path
//! that moves a single export byte (an event id, an incident's order, a
//! counter) fails here, for the serial and the sharded executor alike.

use crystalnet::prelude::*;
use crystalnet::PlanOptions;

/// FNV-1a over the export's bytes.
fn digest(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The five exports of the scenario at `workers`, by name.
fn exports(workers: usize) -> Vec<(&'static str, String)> {
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
            .workers(workers)
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
    for workers in [1, 4] {
        let got = exports(workers);
        assert!(
            got[0].1.lines().count() > 10,
            "the scenario must produce incidents from both planes"
        );
        for ((name, export), (golden_name, golden)) in got.iter().zip(GOLDEN) {
            assert_eq!(*name, golden_name);
            assert_eq!(
                digest(export),
                golden,
                "workers={workers}: {name} moved ({} bytes)",
                export.len()
            );
        }
    }
}
