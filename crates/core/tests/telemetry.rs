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
fn report_is_byte_identical_across_worker_counts() {
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
