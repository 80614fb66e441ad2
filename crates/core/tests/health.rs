//! Continuous health-plane tests: the probe mesh catches a silent
//! blackhole the final-FIB differential cannot see, gauges and the
//! incident timeline are unchanged by profiling, the plane is fully passive when disabled,
//! builder knobs fail eagerly, the capped trace sink drops
//! deterministically under probe load, and a fork's rehearsed change
//! reports its own SLO impact without touching the parent.

use crystalnet::prelude::*;
use crystalnet::PlanOptions;
use crystalnet_net::fixtures::fig7;
use crystalnet_telemetry::{assert_same_key_structure, json_deep_structure};
use serde_json::Value;
use std::collections::BTreeMap;

/// A probe mesh dense and fast enough that fig7 sees traffic through
/// every spine within a few virtual seconds.
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

fn fig7_emu(seed: u64, health: bool, plan: FaultPlan) -> Emulation {
    let f = fig7();
    let prep = prepare(
        &f.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    );
    let mut b = MockupOptions::builder().seed(seed).fault_plan(plan);
    if health {
        b = b.health_config(probe_cfg());
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

/// The acceptance scenario: a device keeps its control plane — BGP
/// sessions up, FIB converged and "correct" — while its dataplane
/// silently drops everything. The final-FIB differential is blind to
/// this by construction; only the live probe mesh catches it, and the
/// witness it produces carries the stale FIB entry's provenance digest.
#[test]
fn silent_blackhole_yields_a_witness_the_fib_differential_misses() {
    let f = fig7();
    let plan = FaultPlan::default().then(
        SimDuration::from_secs(3),
        FaultKind::SilentBlackhole {
            device: f.spines[0],
        },
    );
    let mut faulted = fig7_emu(11, true, plan);
    let mut clean = fig7_emu(11, true, FaultPlan::default());
    // Watch the network: probes are non-causal, so `settle` alone never
    // advances them on a quiet fabric — `advance` does.
    faulted.advance(SimDuration::from_secs(20));
    clean.advance(SimDuration::from_secs(20));

    // The FIB differential alone does NOT flag the gray failure: every
    // FIB in the faulted run equals the fault-free run bit for bit.
    assert_fibs_equal(
        &faulted,
        &clean,
        "a silent blackhole must be invisible to the final-FIB differential",
    );
    // The clean run sees no gray failures. (It does see SLO breaches:
    // fig7's same-AS sibling pairs — s1/s2, l1/l2, … — are structurally
    // unreachable because eBGP loop prevention rejects routes carrying
    // the receiver's own AS, and the mesh truthfully reports their 100%
    // loss. Those breaches appear identically in both runs.)
    let gray = |emu: &Emulation| {
        emu.incidents()
            .into_iter()
            .filter(|ci| {
                matches!(
                    ci.incident.kind,
                    IncidentKind::Blackhole(_) | IncidentKind::ForwardingLoop { .. }
                )
            })
            .count()
    };
    assert_eq!(gray(&clean), 0, "clean run must see no gray failure");

    // The probe mesh does flag it: a Blackhole incident whose witness
    // names the dying device and the provenance digest of the FIB entry
    // it would have used.
    let health = faulted.pull_health();
    assert!(health.enabled);
    assert!(health.probes_lost > 0, "probes through s1 must die");
    let incidents = faulted.incidents();
    let blackholes: Vec<_> = incidents
        .iter()
        .filter_map(|ci| match &ci.incident.kind {
            IncidentKind::Blackhole(w) => Some(w),
            _ => None,
        })
        .collect();
    assert!(
        !blackholes.is_empty(),
        "watchdog must fire on the blackhole"
    );
    for w in &blackholes {
        assert_eq!(w.device, f.spines[0], "witness names the dying device");
        assert!(w.prefix.is_some(), "witness carries the matched prefix");
        assert!(
            w.prov_digest.is_some(),
            "witness carries the FIB entry's provenance digest"
        );
    }

    // The timeline correlates the firings to the injected fault.
    let caused: Vec<_> = incidents
        .iter()
        .filter(|ci| matches!(&ci.incident.kind, IncidentKind::Blackhole(_)))
        .collect();
    assert!(caused.iter().all(|ci| matches!(
        &ci.cause,
        Some(IncidentCause::Fault { description, .. }) if description.contains("blackhole")
    )));

    // Restoring forwarding heals the mesh: delivery resumes and the
    // blackhole watchdog goes silent (the structural same-AS losses
    // keep accruing, so total loss still grows).
    faulted.set_forwarding(f.spines[0], true).unwrap();
    let gray_before = gray(&faulted);
    faulted.advance(SimDuration::from_secs(20));
    let after = faulted.pull_health();
    assert_eq!(
        gray(&faulted),
        gray_before,
        "no blackhole fires after forwarding is restored"
    );
    assert!(after.probes_delivered > health.probes_delivered);
}

#[test]
fn health_exports_are_byte_identical_across_workers_and_profiling() {
    let f = fig7();
    let mk_plan = || {
        FaultPlan::default().then(
            SimDuration::from_secs(3),
            FaultKind::SilentBlackhole {
                device: f.spines[0],
            },
        )
    };
    let mut plain = fig7_emu(21, true, mk_plan());
    plain.advance(SimDuration::from_secs(15));
    let a = (plain.pull_health().to_json(), plain.incidents_jsonl());
    assert!(!a.1.is_empty(), "the scenario must produce incidents");

    // `profiling(true)` observes; it must not perturb the health plane.
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
            .seed(21)
            .fault_plan(mk_plan())
            .health_config(probe_cfg())
            .profiling(true)
            .build(),
    );
    profiled.advance(SimDuration::from_secs(15));
    assert_eq!(
        a,
        (profiled.pull_health().to_json(), profiled.incidents_jsonl()),
        "profiling must not perturb health bytes"
    );
}

#[test]
fn incident_jsonl_schema_is_stable_and_written_as_an_artifact() {
    let f = fig7();
    let plan = FaultPlan::default().then(
        SimDuration::from_secs(3),
        FaultKind::SilentBlackhole {
            device: f.spines[0],
        },
    );
    let mut emu = fig7_emu(31, true, plan);
    emu.advance(SimDuration::from_secs(15));
    let jsonl = emu.incidents_jsonl();
    assert!(!jsonl.is_empty());

    // Every line parses, carries the envelope keys, and lines of the
    // same incident kind share one deep structure (the schema CI's
    // JSONL check validates).
    let mut by_kind: BTreeMap<String, Value> = BTreeMap::new();
    for line in jsonl.lines() {
        let mut v: Value = serde_json::from_str(line).expect("incident line parses");
        // The `cause` value is legitimately either null (no plausible
        // cause) or a {kind, at_ns, description} object; check it here
        // and normalize before the per-kind structure comparison.
        if let Value::Object(fields) = &mut v {
            let cause = fields
                .iter_mut()
                .find(|(k, _)| k == "cause")
                .expect("incident line has a cause field");
            match &cause.1 {
                Value::Null => {}
                Value::Object(c) => {
                    let keys: Vec<&str> = c.iter().map(|(k, _)| k.as_str()).collect();
                    assert_eq!(keys, ["kind", "at_ns", "description"], "{line}");
                }
                other => panic!("cause is neither null nor an object: {other:?}"),
            }
            cause.1 = Value::Null;
        }
        let Value::Object(fields) = &v else {
            panic!("incident line is not an object")
        };
        for key in [
            "at_ns", "kind", "src", "src_host", "dst", "dst_host", "seq", "cause",
        ] {
            assert!(
                fields.iter().any(|(k, _)| k == key),
                "incident line is missing {key:?}: {line}"
            );
        }
        let kind = fields
            .iter()
            .find(|(k, _)| k == "kind")
            .and_then(|(_, v)| match v {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            })
            .expect("kind is a string");
        match by_kind.get(&kind) {
            None => {
                by_kind.insert(kind, v);
            }
            Some(proto) => {
                assert_same_key_structure(&format!("incident kind {kind}"), proto, &v);
                assert_eq!(
                    json_deep_structure(proto),
                    json_deep_structure(&v),
                    "incident kind {kind}: deep structure diverged"
                );
            }
        }
    }

    // Drop the artifact where CI's JSONL schema check picks it up.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target");
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(format!("{dir}/health_incidents.jsonl"), &jsonl).unwrap();
}

#[test]
fn disabled_health_plane_is_fully_passive() {
    let mut on = fig7_emu(41, true, FaultPlan::default());
    let mut off = fig7_emu(41, false, FaultPlan::default());
    on.advance(SimDuration::from_secs(10));
    off.advance(SimDuration::from_secs(10));

    // Probes never touch the control plane: FIBs identical on vs off.
    assert_fibs_equal(&on, &off, "probes must not perturb the FIBs");

    let report = off.pull_health();
    assert!(!report.enabled);
    assert_eq!(report.probes_sent, 0);
    assert!(report.pairs.is_empty());
    assert!(off.incidents().is_empty());
    assert!(off.incidents_jsonl().is_empty());

    // No health counters, no probe events, no incident records: the
    // run report and trace are exactly the pre-health-plane bytes.
    let run = off.pull_report();
    assert!(!run.counters.keys().any(|k| k.starts_with("health.")));
    assert!(!off.trace_jsonl().contains("\"incident\""));

    // And the off-run itself reproduces bit for bit.
    let mut off2 = fig7_emu(41, false, FaultPlan::default());
    off2.advance(SimDuration::from_secs(10));
    assert_eq!(off.trace_jsonl(), off2.trace_jsonl());
    assert_eq!(off.pull_report().to_json(), off2.pull_report().to_json());
}

#[test]
fn invalid_health_and_trace_knobs_fail_eagerly() {
    let zero_period = MockupOptions::builder()
        .health(SimDuration::ZERO)
        .try_build();
    assert!(matches!(
        zero_period,
        Err(EmulationError::InvalidOption(ref what)) if what.contains("period")
    ));

    let zero_ttl = MockupOptions::builder()
        .health_config(ProbeConfig {
            ttl: 0,
            ..probe_cfg()
        })
        .try_build();
    assert!(matches!(
        zero_ttl,
        Err(EmulationError::InvalidOption(ref what)) if what.contains("ttl")
    ));

    let zero_cap = MockupOptions::builder().trace_capacity(0).try_build();
    assert!(matches!(
        zero_cap,
        Err(EmulationError::InvalidOption(ref what)) if what.contains("trace_capacity")
    ));

    // A zero heartbeat would panic inside the first VM or speaker crash,
    // after the devices are already off; both setters reach the check.
    let zero_heartbeat = [
        MockupOptions::builder().heartbeat(SimDuration::ZERO),
        MockupOptions::builder().health_policy(HealthPolicy {
            heartbeat: SimDuration::ZERO,
            ..HealthPolicy::default()
        }),
    ];
    for builder in zero_heartbeat {
        assert!(matches!(
            builder.try_build(),
            Err(EmulationError::InvalidOption(ref what)) if what.contains("heartbeat")
        ));
    }

    // Valid knobs still build.
    assert!(MockupOptions::builder()
        .health(SimDuration::from_secs(1))
        .try_build()
        .is_ok());
}

#[test]
fn capped_sink_drops_deterministically_under_probe_load() {
    let f = fig7();
    let mk = || {
        let prep = prepare(
            &f.topo,
            &[],
            BoundaryMode::WholeNetwork,
            SpeakerSource::OriginatedOnly,
            &PlanOptions::default(),
        );
        let mut emu = mockup(
            Arc::new(prep),
            MockupOptions::builder()
                .seed(51)
                .trace_capacity(500)
                .fault_plan(FaultPlan::default().then(
                    SimDuration::from_secs(3),
                    FaultKind::SilentBlackhole {
                        device: f.spines[0],
                    },
                ))
                .health_config(probe_cfg())
                .build(),
        );
        emu.advance(SimDuration::from_secs(15));
        emu
    };
    let first = mk();
    let second = mk();

    let a = first.trace_jsonl();
    assert_eq!(
        a,
        second.trace_jsonl(),
        "capped trace under probe load must repeat byte for byte"
    );
    assert_eq!(a.lines().count(), 500, "ring keeps exactly the cap");
    // The sink keeps the newest records: the late-run incident records
    // survive the cap.
    assert!(a.contains("\"incident\""), "incident records are retained");

    for emu in [&first, &second] {
        let report = emu.pull_report();
        let dropped = report.counters["telemetry.trace_dropped"];
        assert!(dropped > 0, "a 500-record cap must drop on this load");
        assert_eq!(report.counters["telemetry.trace_retained"], 500);
        assert_eq!(
            report.counters["telemetry.trace_emitted"],
            500 + dropped,
            "emitted = retained + dropped"
        );
    }
    assert_eq!(
        first.pull_report().counters["telemetry.trace_dropped"],
        second.pull_report().counters["telemetry.trace_dropped"],
        "drop counts are deterministic across reps"
    );
}

#[test]
fn a_forks_rehearsed_change_reports_its_own_slo_impact() {
    let f = fig7();
    let mut emu = fig7_emu(61, true, FaultPlan::default());
    emu.advance(SimDuration::from_secs(5));
    let parent_health = emu.pull_health().to_json();

    // Rehearse a drain on a fork: take down a ToR uplink.
    let (lid, _, _) = f.topo.neighbors(f.tors[0]).next().unwrap();
    let mut fork = emu.fork();
    let delta = fork
        .apply(&ChangeSet::new().link_down(lid))
        .expect("drain applies on the fork");

    // The delta carries the change's own SLO impact (probes launched
    // while it converged) and renders it in the operator summary.
    assert!(
        delta.probes_sent > 0,
        "probes must run during the transient (delta: {delta:?})"
    );
    assert!(
        delta.summary().contains("SLO impact"),
        "{}",
        delta.summary()
    );

    // COW isolation: the parent's gauges and timeline are untouched.
    assert_eq!(
        emu.pull_health().to_json(),
        parent_health,
        "a fork's rehearsal must not leak into the parent's health plane"
    );
}
