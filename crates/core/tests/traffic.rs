//! Traffic-plane tests: seeded flow load produces byte-identical
//! gauges and congestion incidents under profiling, a saturated link yields an over-subscription witness
//! correlated to the injected fault, the plane is fully passive when
//! disabled (runs reproduce the health-only engine bit for bit),
//! builder knobs fail eagerly, and a fork's rehearsed change reports
//! its own traffic impact without touching the parent.

use crystalnet::prelude::*;
use crystalnet::PlanOptions;
use crystalnet_net::fixtures::fig7;

/// A flow load dense and fast enough that fig7 sees traffic on every
/// spine within a few virtual seconds. Capacity is sized so ordinary
/// load stays under the over-subscription threshold.
fn traffic_cfg() -> TrafficConfig {
    TrafficConfig {
        period: SimDuration::from_millis(500),
        flows_per_round: 8,
        request_bytes: 2_000,
        response_bytes: 20_000,
        server_share_pct: 25,
        link_capacity_bps: 10_000_000,
        oversub_pct: 80,
        polarisation_pct: 90,
        polarisation_min_bytes: 64_000,
        slo_window: 6,
        slo_loss_pct: 25,
        ttl: 16,
        seed: 0,
    }
}

/// The health-plane config the PR 9 suite runs with — traffic tests
/// keep the probe mesh on so the two planes interleave.
fn probe_cfg() -> ProbeConfig {
    ProbeConfig {
        period: SimDuration::from_millis(500),
        pairs_per_round: 16,
        slo_window: 6,
        slo_loss_pct: 25,
        ttl: 16,
        churn_threshold: 10_000,
        seed: 0,
    }
}

fn fig7_emu(seed: u64, traffic: Option<TrafficConfig>, plan: FaultPlan) -> Emulation {
    let f = fig7();
    let prep = prepare(
        &f.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    );
    let mut b = MockupOptions::builder()
        .seed(seed)
        .fault_plan(plan)
        .health_config(probe_cfg());
    if let Some(cfg) = traffic {
        b = b.traffic_config(cfg);
    }
    mockup(Arc::new(prep), b.build())
}

fn assert_fibs_equal(a: &Emulation, b: &Emulation, what: &str) {
    for (id, d) in a.topo.devices() {
        match (a.sim.fib(id), b.sim.fib(id)) {
            (None, None) => {}
            (Some(fa), Some(fb)) => assert_eq!(fa, fb, "{what}: FIB diverged on {}", d.name),
            _ => panic!("{what}: OS presence differs on {}", d.name),
        }
    }
}

#[test]
fn traffic_exports_are_byte_identical_across_workers_and_profiling() {
    let f = fig7();
    let mk_plan = || {
        FaultPlan::default().then(
            SimDuration::from_secs(3),
            FaultKind::SilentBlackhole {
                device: f.spines[0],
            },
        )
    };
    let pull = |emu: &Emulation| {
        (
            emu.pull_traffic().to_json(),
            emu.pull_health().to_json(),
            emu.incidents_jsonl(),
        )
    };
    let mut plain = fig7_emu(121, Some(traffic_cfg()), mk_plan());
    plain.advance(SimDuration::from_secs(15));
    let a = pull(&plain);
    assert!(!a.2.is_empty(), "the scenario must produce incidents");
    let t = plain.pull_traffic();
    assert!(t.enabled);
    assert!(t.flows_sent > 0, "flows must launch");
    assert!(t.flows_delivered > 0, "some flows must arrive");
    assert!(
        !t.links.is_empty(),
        "delivered flows must charge link gauges"
    );

    // `profiling(true)` observes; it must not perturb the traffic plane.
    let fx = fig7();
    let prep = prepare(
        &fx.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    );
    let mut profiled = mockup(
        Arc::new(prep),
        MockupOptions::builder()
            .seed(121)
            .fault_plan(mk_plan())
            .health_config(probe_cfg())
            .traffic_config(traffic_cfg())
            .profiling(true)
            .build(),
    );
    profiled.advance(SimDuration::from_secs(15));
    assert_eq!(
        a,
        pull(&profiled),
        "profiling must not perturb traffic bytes"
    );
}

/// Starving a link of capacity makes the over-subscription watchdog
/// fire, and the congestion incident correlates to the injected fault
/// that concentrated the load — the acceptance scenario.
#[test]
fn saturated_link_yields_a_congestion_witness_correlated_to_the_fault() {
    let f = fig7();
    // 64 kbit/s → 4000 bytes per 500ms period: any response flow
    // (20 kB) over-subscribes whatever link carries it.
    let mut cfg = traffic_cfg();
    cfg.link_capacity_bps = 64_000;
    let (lid, _, _) = f.topo.neighbors(f.tors[0]).next().unwrap();
    let plan = FaultPlan::default().then(
        SimDuration::from_secs(3),
        FaultKind::LinkFlapBurst {
            link: lid,
            flaps: 1,
            period: SimDuration::from_secs(30),
        },
    );
    let mut emu = fig7_emu(131, Some(cfg), plan);
    emu.advance(SimDuration::from_secs(20));

    let incidents = emu.incidents();
    let oversub: Vec<_> = incidents
        .iter()
        .filter(|ci| matches!(ci.incident.kind, IncidentKind::LinkOversubscribed { .. }))
        .collect();
    assert!(
        !oversub.is_empty(),
        "a starved link must fire the over-subscription watchdog"
    );
    for ci in &oversub {
        let IncidentKind::LinkOversubscribed {
            bytes,
            capacity_bytes,
            ..
        } = ci.incident.kind
        else {
            unreachable!()
        };
        assert!(
            bytes * 100 > 80 * capacity_bytes,
            "witness carries the offending byte count"
        );
    }
    assert!(
        oversub
            .iter()
            .any(|ci| matches!(&ci.cause, Some(IncidentCause::Fault { .. }))),
        "at least one congestion incident correlates to the injected fault"
    );
    // The peak gauge remembers how hot the link ran.
    let t = emu.pull_traffic();
    assert!(
        t.links.iter().any(|l| l.peak_util_pct > 80),
        "utilisation gauges must show the saturation"
    );

    // Drop the artifact where CI's JSONL schema check picks it up.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target");
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(
        format!("{dir}/traffic_incidents.jsonl"),
        emu.incidents_jsonl(),
    )
    .unwrap();
}

/// With the traffic plane off, runs are byte-identical to the PR 9
/// health-only engine: same FIBs, no `traffic.*` counters, no flow
/// events in the trace, and the off-run reproduces bit for bit.
#[test]
fn disabled_traffic_plane_is_fully_passive() {
    let mut on = fig7_emu(141, Some(traffic_cfg()), FaultPlan::default());
    let mut off = fig7_emu(141, None, FaultPlan::default());
    on.advance(SimDuration::from_secs(10));
    off.advance(SimDuration::from_secs(10));

    // Flows never touch the control plane: FIBs identical on vs off.
    assert_fibs_equal(&on, &off, "flows must not perturb the FIBs");

    let report = off.pull_traffic();
    assert!(!report.enabled);
    assert_eq!(report.flows_sent, 0);
    assert!(report.links.is_empty());

    // No traffic counters and no flow trace records: the run report and
    // trace are exactly the health-only engine's bytes.
    let run = off.pull_report();
    assert!(!run.counters.keys().any(|k| k.starts_with("traffic.")));
    let on_run = on.pull_report();
    assert!(
        on_run.counters.keys().any(|k| k.starts_with("traffic.")),
        "the on-run proves the counters exist to be absent"
    );

    // And the off-run itself reproduces bit for bit.
    let mut off2 = fig7_emu(141, None, FaultPlan::default());
    off2.advance(SimDuration::from_secs(10));
    assert_eq!(off.trace_jsonl(), off2.trace_jsonl());
    assert_eq!(off.pull_report().to_json(), off2.pull_report().to_json());
    assert_eq!(off.incidents_jsonl(), off2.incidents_jsonl());
}

#[test]
fn invalid_traffic_knobs_fail_eagerly() {
    let zero_period = MockupOptions::builder()
        .traffic(SimDuration::ZERO)
        .try_build();
    assert!(matches!(
        zero_period,
        Err(EmulationError::InvalidOption(ref what)) if what.contains("period")
    ));

    let zero_ttl = MockupOptions::builder()
        .traffic_config(TrafficConfig {
            ttl: 0,
            ..traffic_cfg()
        })
        .try_build();
    assert!(matches!(
        zero_ttl,
        Err(EmulationError::InvalidOption(ref what)) if what.contains("ttl")
    ));

    let zero_flows = MockupOptions::builder()
        .traffic_config(TrafficConfig {
            flows_per_round: 0,
            ..traffic_cfg()
        })
        .try_build();
    assert!(matches!(
        zero_flows,
        Err(EmulationError::InvalidOption(ref what)) if what.contains("flows_per_round")
    ));

    let zero_capacity = MockupOptions::builder()
        .traffic_config(TrafficConfig {
            link_capacity_bps: 0,
            ..traffic_cfg()
        })
        .try_build();
    assert!(matches!(
        zero_capacity,
        Err(EmulationError::InvalidOption(ref what)) if what.contains("capacity")
    ));

    // Valid knobs still build.
    assert!(MockupOptions::builder()
        .traffic(SimDuration::from_secs(1))
        .try_build()
        .is_ok());
}

#[test]
fn a_forks_rehearsed_change_reports_its_own_traffic_impact() {
    let f = fig7();
    let mut emu = fig7_emu(151, Some(traffic_cfg()), FaultPlan::default());
    emu.advance(SimDuration::from_secs(5));
    let parent_traffic = emu.pull_traffic().to_json();

    // Rehearse a drain on a fork: take down a ToR uplink.
    let (lid, _, _) = f.topo.neighbors(f.tors[0]).next().unwrap();
    let mut fork = emu.fork();
    let delta = fork
        .apply(&ChangeSet::new().link_down(lid))
        .expect("drain applies on the fork");

    // The delta carries the change's own traffic impact (flows launched
    // while it converged) and renders it in the operator summary.
    assert!(
        delta.flows_sent > 0,
        "flows must run during the transient (delta: {delta:?})"
    );
    assert!(
        delta.summary().contains("traffic impact"),
        "{}",
        delta.summary()
    );

    // COW isolation: the parent's utilisation gauges are untouched.
    assert_eq!(
        emu.pull_traffic().to_json(),
        parent_traffic,
        "a fork's rehearsal must not leak into the parent's traffic plane"
    );
}

/// Removing a device while a round is in flight strands no walk: a hop
/// that reaches the removed device ends there, a report bound for it
/// still lands, so once the next round has reported every probe and flow
/// sent is counted delivered or lost.
#[test]
fn a_device_removed_mid_round_strands_no_walk() {
    let f = fig7();
    let mut emu = fig7_emu(161, Some(traffic_cfg()), FaultPlan::default());
    let period = traffic_cfg().period;
    let step = SimDuration::from_micros(10);
    // Walks launched and not yet reported, per plane.
    let in_flight = |emu: &Emulation| {
        let (h, t) = (emu.sim.health().unwrap(), emu.sim.traffic().unwrap());
        (
            h.probes_sent - h.probes_delivered - h.probes_lost,
            t.flows_sent - t.flows_delivered - t.flows_lost,
        )
    };
    // Both planes tick together, every `period`; find one tick to within
    // `step`.
    let sent = |emu: &Emulation| emu.sim.health().unwrap().probes_sent;
    let before = sent(&emu);
    while sent(&emu) == before {
        emu.advance(step);
    }
    let tick = emu.now() - step;
    // The first tick after `now`, plus `offset`.
    let next_tick = |now: SimTime, offset: SimDuration| {
        let rounds = now.since(tick).as_nanos() / period.as_nanos() + 1;
        tick + period * rounds + offset
    };

    for victim in [f.spines[0], f.leaves[2], f.tors[4]] {
        let mid_round = next_tick(emu.now(), SimDuration::from_micros(40));
        emu.advance(mid_round.since(emu.now()));
        let (probes, flows) = in_flight(&emu);
        assert!(
            probes > 0 && flows > 0,
            "walks must be in flight at the removal: {probes} probes, {flows} flows"
        );
        let mut fork = emu.fork();
        fork.apply(&ChangeSet::new().device_remove(victim))
            .expect("the removal applies");
        fork.commit(&mut emu);
    }
    // Just before a tick, after the previous round has reported.
    let quiet = next_tick(emu.now() + period, SimDuration::ZERO) - step;
    emu.advance(quiet.since(emu.now()));
    assert_eq!(
        in_flight(&emu),
        (0, 0),
        "every walk sent must be counted delivered or lost"
    );
}
