//! Observability determinism tests: the run report is a pure function of
//! the seed — byte-identical across repetitions — and a disabled
//! recorder costs nothing and changes nothing.

use crystalnet::prelude::*;
use crystalnet::PlanOptions;
use crystalnet_net::ClosTopology;

fn s_dc(seed: u64, telemetry: bool) -> (ClosTopology, Emulation) {
    let dc = crystalnet_net::ClosParams::s_dc().build();
    let prep = prepare(
        &dc.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions {
            target_vms: Some(16),
            ..PlanOptions::default()
        },
    );
    // One fault in the plan so the journal section is exercised too.
    let plan = FaultPlan::default().then(
        SimDuration::from_secs(20),
        FaultKind::VmCrash { vm: 1 }, //
    );
    let emu = mockup(
        Arc::new(prep),
        MockupOptions::builder()
            .seed(seed)
            .fault_plan(plan)
            .telemetry(telemetry)
            .build(),
    );
    (dc, emu)
}

#[test]
fn report_has_no_execution_shape_keys() {
    let (_, emu) = s_dc(7, true);
    let a = emu.pull_report().to_json();
    assert!(!a.is_empty());

    // The canonical report deliberately has no execution-shape keys; those
    // live in the diagnostics section of `to_json_full` only.
    assert!(!a.contains("sim.parallel"));
    assert!(!a.contains("intern"));
    assert!(emu.pull_report().to_json_full().contains("diagnostics"));
}

#[test]
fn report_is_byte_identical_across_reps() {
    let (_, first) = s_dc(11, true);
    let (_, second) = s_dc(11, true);
    assert_eq!(
        first.pull_report().to_json(),
        second.pull_report().to_json(),
        "same seed must reproduce the report byte for byte"
    );
}

#[test]
fn report_carries_spans_counters_and_journal() {
    let (_, emu) = s_dc(3, true);
    let report = emu.pull_report();
    assert!(report.enabled);

    let span_names: Vec<&str> = report.spans.iter().map(|s| s.name.as_str()).collect();
    for expected in ["mockup", "boot", "recovery"] {
        assert!(
            span_names.contains(&expected),
            "missing span {expected:?} in {span_names:?}"
        );
    }
    // Per-device convergence spans carry a device id.
    assert!(report
        .spans
        .iter()
        .any(|s| s.name == "convergence" && s.device.is_some()));

    for counter in [
        "routing.devices_booted",
        "routing.bgp_updates_sent",
        "routing.frames_sent",
        "core.faults_injected",
        "core.recoveries",
    ] {
        assert!(
            report.counters.get(counter).copied().unwrap_or(0) > 0,
            "counter {counter:?} should be non-zero"
        );
    }

    // The journal section is globally time-sorted.
    assert!(!report.journal.is_empty());
    assert!(report.journal.windows(2).all(|w| w[0].at <= w[1].at));
    assert!(report.journal.iter().any(|e| e.name == "recovery_complete"));

    // Orchestrator lifecycle events are present with typed fields.
    assert!(report
        .events
        .iter()
        .any(|e| e.name == "network_ready" && e.field("vms").is_some()));
}

#[test]
fn disabled_recorder_yields_empty_report_and_identical_fibs() {
    let (dc, on) = s_dc(42, true);
    let (_, off) = s_dc(42, false);

    let report = off.pull_report();
    assert!(!report.enabled);
    assert!(report.is_empty());
    assert_eq!(report.summary(), "run report: telemetry disabled\n");

    // Turning telemetry off must not perturb the emulation itself.
    for (id, d) in dc.topo.devices() {
        match (on.sim.fib(id), off.sim.fib(id)) {
            (None, None) => {}
            (Some(fa), Some(fb)) => {
                assert_eq!(fa, fb, "telemetry toggled the FIB on {}", d.name);
            }
            _ => panic!("OS presence differs on {}", d.name),
        }
    }
    assert_eq!(on.metrics.route_ops, off.metrics.route_ops);
    assert_eq!(on.metrics.ready_at, off.metrics.ready_at);
}

/// Whether the traffic plane raises `kind`; the probe mesh raises the
/// rest.
fn from_traffic(kind: &IncidentKind) -> bool {
    matches!(
        kind,
        IncidentKind::LinkOversubscribed { .. }
            | IncidentKind::EcmpPolarisation { .. }
            | IncidentKind::FlowSloBreach { .. }
    )
}

/// Every series the report shares with another piece of state equals
/// that state: the plane totals and each plane's incident count, the
/// journal's counters and recovery-latency histogram, route churn per
/// device and the last route activity. The run touches all of them: S-DC
/// with both planes on, a fault plan with a VM crash, a link-flap burst,
/// a silent blackhole and a heartbeat delayed to the miss threshold, then
/// a committed fork that removes a ToR.
#[test]
fn each_report_series_equals_the_state_it_counts() {
    let clos = crystalnet_net::ClosParams::s_dc().build();
    let prep = prepare(
        &clos.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions {
            target_vms: Some(16),
            ..PlanOptions::default()
        },
    );
    let period = SimDuration::from_secs(1);
    let mut emu = mockup(
        Arc::new(prep),
        MockupOptions::builder()
            .seed(5)
            .health_config(ProbeConfig {
                pairs_per_round: 32,
                slo_window: 6,
                ..ProbeConfig::with_period(period)
            })
            .traffic_config(TrafficConfig {
                flows_per_round: 32,
                slo_window: 6,
                link_capacity_bps: 10_000_000,
                ..TrafficConfig::with_period(period)
            })
            .build(),
    );
    let secs = SimDuration::from_secs;
    let tor = clos.pods[0].tors[0];
    let (uplink, _, _) = clos.topo.neighbors(tor).next().expect("a ToR has uplinks");
    let plan = FaultPlan::default()
        .then(secs(5), FaultKind::VmCrash { vm: 1 })
        .then(
            secs(10),
            FaultKind::LinkFlapBurst {
                link: uplink,
                flaps: 2,
                period: secs(4),
            },
        )
        .then(
            secs(20),
            FaultKind::SilentBlackhole {
                device: clos.spine_groups[0][0],
            },
        )
        .then(
            secs(30),
            FaultKind::DelayedHeartbeat {
                vm: 2,
                misses: HealthPolicy::default().miss_threshold,
            },
        );
    emu.run_fault_plan(&plan).expect("the plan recovers");
    emu.advance(secs(10));
    let mut fork = emu.fork();
    fork.apply(&ChangeSet::new().device_remove(clos.pods[1].tors[0]))
        .expect("the removal applies");
    fork.commit(&mut emu);
    emu.advance(secs(10));

    let report = emu.pull_report();
    let (h, t) = (emu.sim.health().unwrap(), emu.sim.traffic().unwrap());
    let incidents = emu.incidents();
    let from_flows = (incidents.iter())
        .filter(|i| from_traffic(&i.incident.kind))
        .count() as u64;
    let from_probes = incidents.len() as u64 - from_flows;
    let world = &emu.sim.engine.world;
    // A series is present once its count is non-zero, as a counter is
    // once it has been added to.
    let check = |name: &str, value: u64, count: u64| {
        let want = (count > 0).then_some(value);
        assert_eq!(report.counters.get(name).copied(), want, "{name}");
    };
    check("health.probes_sent", h.probes_sent, h.probes_sent);
    check(
        "health.probes_delivered",
        h.probes_delivered,
        h.probes_delivered,
    );
    check("health.probes_lost", h.probes_lost, h.probes_lost);
    check("health.incidents", from_probes, from_probes);
    check("traffic.flows_sent", t.flows_sent, t.flows_sent);
    check(
        "traffic.flows_delivered",
        t.flows_delivered,
        t.flows_delivered,
    );
    check("traffic.flows_lost", t.flows_lost, t.flows_lost);
    check("traffic.flows_rerouted", t.flows_rerouted, t.flows_rerouted);
    check("traffic.bytes_offered", t.bytes_offered, t.flows_sent);
    check(
        "traffic.bytes_delivered",
        t.bytes_delivered,
        t.flows_delivered,
    );
    check("traffic.bytes_lost", t.bytes_lost, t.flows_lost);
    check("traffic.incidents", from_flows, from_flows);
    let last_activity = world.last_route_activity.as_nanos();
    check(
        "routing.last_route_activity_ns",
        last_activity,
        world.route_ops_total,
    );
    let journal_counter = |kind: &JournalKind| match kind {
        JournalKind::FaultInjected { .. } => "core.faults_injected",
        JournalKind::HeartbeatMissed { .. } => "core.heartbeat_misses",
        JournalKind::VmDeclaredDead { .. } => "core.vms_declared_dead",
        JournalKind::RebootAttempt { .. } => "core.reboot_attempts",
        JournalKind::VmQuarantined { .. } => "core.vms_quarantined",
        JournalKind::SpeakerRestarted { .. } => "core.speakers_restarted",
        JournalKind::LinkFlap { .. } => "core.link_flaps",
        JournalKind::RecoveryComplete { .. } => "core.recoveries",
    };
    let mut entries = std::collections::BTreeMap::new();
    for e in &emu.journal.events {
        *entries.entry(journal_counter(&e.kind)).or_insert(0) += 1;
    }
    for name in [
        "core.faults_injected",
        "core.heartbeat_misses",
        "core.vms_declared_dead",
        "core.reboot_attempts",
        "core.vms_quarantined",
        "core.speakers_restarted",
        "core.link_flaps",
        "core.recoveries",
    ] {
        let n = entries.get(name).copied().unwrap_or(0);
        check(name, n, n);
    }
    for name in ["health.incidents", "traffic.incidents", "core.recoveries"] {
        assert!(
            report.counters.contains_key(name),
            "the run must count {name}"
        );
    }

    let latencies: Vec<f64> = (emu.journal.recoveries().iter())
        .map(|&(_, latency, _)| latency.as_nanos() as f64)
        .collect();
    assert_eq!(
        report.histograms.get("core.recovery_latency_ns"),
        HistogramSummary::from_samples(&latencies).as_ref(),
        "core.recovery_latency_ns"
    );
    let churn: std::collections::BTreeMap<u32, u64> = (world.route_ops_by_dev.iter())
        .enumerate()
        .filter(|&(_, &ops)| ops > 0)
        .map(|(dev, &ops)| (dev as u32, ops))
        .collect();
    assert!(!churn.is_empty());
    assert_eq!(report.per_device.get("routing.route_churn"), Some(&churn));

    assert_eq!(
        emu.pull_health().incident_count + emu.pull_traffic().incident_count,
        incidents.len() as u64
    );
    assert!(incidents
        .windows(2)
        .all(|w| w[0].incident.sort_key() <= w[1].incident.sort_key()));
}

#[test]
fn telemetry_off_fork_stays_off_and_converges_like_an_on_twin() {
    let (dc, on) = s_dc(42, true);
    let (_, off) = s_dc(42, false);
    let lid = dc.topo.links().next().map(|(lid, _)| lid).expect("a link");
    let step = ChangeSet::new().link_down(lid);

    let mut off_fork = off.fork();
    let off_delta = off_fork.apply(&step).expect("link-down applies");
    let mut on_fork = on.fork();
    let on_delta = on_fork.apply(&step).expect("link-down applies");

    let report = off_fork.pull_report();
    assert!(!report.enabled);
    assert!(report.is_empty());
    assert!(on_fork.pull_report().enabled);
    assert!(off_delta.total_fib_changes() > 0);
    assert_eq!(off_delta.fib_changes, on_delta.fib_changes);
}
