//! Run-profiler integration tests: what a profiled run's `profile` /
//! `scaling_diagnosis` / `memory` report sections carry, the
//! zero-cost-when-off differential, and the fork copy-on-write
//! accounting.

use crystalnet::prelude::*;
use crystalnet::PlanOptions;
use crystalnet_dataplane::Fib;
use crystalnet_net::{ClosParams, ClosTopology, DeviceId};
use crystalnet_telemetry::profile::keys;
use serde_json::Value;
use std::collections::BTreeMap;

fn build(topo: &ClosTopology, options: MockupOptions) -> Emulation {
    let prep = prepare(
        &topo.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    );
    mockup(Arc::new(prep), options)
}

fn fib_map(emu: &Emulation) -> BTreeMap<DeviceId, Fib> {
    let mut devs: Vec<DeviceId> = emu.sandboxes.keys().copied().collect();
    devs.sort_unstable_by_key(|d| d.0);
    devs.into_iter()
        .filter_map(|d| emu.sim.os(d).map(|os| (d, os.fib().clone())))
        .collect()
}

#[test]
fn profiling_off_leaves_fibs_and_canonical_bytes_unchanged() {
    let topo = ClosParams::s_dc().build();
    let plain = build(
        &topo,
        MockupOptions::builder().seed(42).telemetry(true).build(),
    );
    let profiled = build(
        &topo,
        MockupOptions::builder().seed(42).profiling(true).build(),
    );

    assert_eq!(
        fib_map(&plain),
        fib_map(&profiled),
        "profiling must not perturb a single FIB"
    );
    let (r_plain, r_profiled) = (plain.pull_report(), profiled.pull_report());
    assert_eq!(
        r_plain.to_json(),
        r_profiled.to_json(),
        "canonical report bytes must be identical with profiling on or off"
    );
    // The extra sections exist only on the profiled side, and only in
    // the full export.
    assert!(r_plain.profile.is_none() && r_plain.memory.is_none());
    assert!(r_profiled.profile.is_some() && r_profiled.memory.is_some());
    assert!(!r_profiled.to_json().contains("\"profile\""));
    assert!(r_profiled.to_json_full().contains("\"scaling_diagnosis\""));

    // What the profiled side carries: every registered key, a nonzero
    // mockup wall, a one-shard diagnosis and a valid Chrome-trace view.
    let profile = r_profiled.profile.as_ref().expect("checked above");
    for key in keys::ALL {
        assert!(
            profile.entries.contains_key(*key),
            "profile must always carry `{key}`"
        );
    }
    assert!(profile.wall_ns(keys::MOCKUP) > 0, "mockup wall is nonzero");
    let scaling = r_profiled.scaling.as_ref().expect("profiled run diagnoses");
    assert_eq!(scaling.shards, 1, "a serial run is one shard");
    let trace: Value = serde_json::from_str(&scaling.chrome_trace_json())
        .expect("chrome trace view is valid JSON");
    assert!(trace.get("traceEvents").is_some());
}

#[test]
fn fork_reports_carry_cow_accounting() {
    let topo = ClosParams::s_dc().build();
    let warm = build(
        &topo,
        MockupOptions::builder().seed(42).profiling(true).build(),
    );
    let mut fork = warm.fork();
    let fresh = fork.cow_stats();
    assert!(fresh.shared_bytes > 0, "a fork shares every device OS");
    assert_eq!(fresh.copied_bytes, 0, "a fork copies nothing up front");
    let (lid, _) = topo.topo.links().next().expect("an S-DC has links");
    fork.apply(&ChangeSet::new().link_down(lid))
        .expect("link_down applies");
    let cow = fork.cow_stats();
    assert!(cow.copied_bytes > 0, "a step copies the devices it touches");
    assert!(
        cow.sharing_ratio() > 0.0 && cow.sharing_ratio() < 1.0,
        "a drained link touches part of the fabric, not all of it"
    );

    let report = fork.pull_report();
    let mem = report.memory.as_ref().expect("profiled fork has memory");
    assert_eq!(
        mem.fork_cow.as_ref().map(|c| c.shared_bytes),
        Some(cow.shared_bytes),
        "fork report must surface the fork's own CoW stats"
    );
    // The parent's report has no fork_cow block content (it is not a fork).
    assert!(warm
        .pull_report()
        .memory
        .as_ref()
        .expect("profiled parent has memory")
        .fork_cow
        .is_none());
}
