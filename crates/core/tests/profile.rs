//! Run-profiler integration tests: the structural determinism contract
//! of the `profile` / `scaling_diagnosis` / `memory` report sections,
//! the zero-cost-when-off differential, the array-valued per-shard
//! diagnostics (and their legacy flat-key expansion), and the fork
//! copy-on-write accounting.
//!
//! The contract under test: wall-clock *values* in those sections vary
//! run to run, but their key structure is byte-identical across worker
//! counts — so operators can diff the shape of two investigations even
//! when the numbers differ.

use crystalnet::prelude::*;
use crystalnet::PlanOptions;
use crystalnet_dataplane::Fib;
use crystalnet_net::{ClosParams, ClosTopology, DeviceId};
use crystalnet_telemetry::json_key_structure;
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

/// The key structure of one named section of the full JSON export.
fn section_structure(report: &RunReport, section: &str) -> String {
    let full: Value =
        serde_json::from_str(&report.to_json_full()).expect("full report is valid JSON");
    let v = full
        .get(section)
        .unwrap_or_else(|| panic!("full report carries a `{section}` section"));
    json_key_structure(v)
}

fn assert_profile_shape_stable(topo: &ClosTopology) {
    let mut shapes: Vec<(String, String, String)> = Vec::new();
    for workers in [1usize, 4] {
        let emu = build(
            topo,
            MockupOptions::builder()
                .seed(42)
                .workers(workers)
                .profiling(true)
                .build(),
        );
        let report = emu.pull_report();

        let profile = report.profile.as_ref().expect("profiling run has profile");
        for key in keys::ALL {
            assert!(
                profile.entries.contains_key(*key),
                "profile must always carry `{key}` (workers={workers})"
            );
        }
        assert!(
            profile.wall_ns(keys::MOCKUP) > 0,
            "mockup wall must be nonzero (workers={workers})"
        );
        let scaling = report
            .scaling
            .as_ref()
            .expect("profiling run has diagnosis");
        if workers > 1 {
            assert_eq!(scaling.shards as usize, workers, "diagnosis shard count");
            assert!(!scaling.critical_path.is_empty(), "parallel run has a path");
        } else {
            assert_eq!(scaling.shards, 1, "serial diagnosis covers one shard");
        }
        // The Chrome-trace view must itself be valid JSON.
        let trace: Value = serde_json::from_str(&scaling.chrome_trace_json())
            .expect("chrome trace view is valid JSON");
        assert!(trace.get("traceEvents").is_some());

        shapes.push((
            section_structure(&report, "profile"),
            section_structure(&report, "scaling_diagnosis"),
            section_structure(&report, "memory"),
        ));
    }
    assert_eq!(
        shapes[0], shapes[1],
        "profile/scaling/memory key structure must be byte-identical across workers"
    );
}

#[test]
fn profile_structure_is_identical_across_workers_sdc() {
    assert_profile_shape_stable(&ClosParams::s_dc().build());
}

/// The M-DC acceptance run — expensive, so `#[ignore]`d here and run in
/// release by the CI `bench-trend` job.
#[test]
#[ignore = "M-DC scale: run explicitly (CI runs it in release)"]
fn profile_structure_is_identical_across_workers_mdc() {
    assert_profile_shape_stable(&ClosParams::m_dc().build());
}

#[test]
fn profiling_off_leaves_fibs_and_canonical_bytes_unchanged() {
    let topo = ClosParams::s_dc().build();
    let plain = build(
        &topo,
        MockupOptions::builder()
            .seed(42)
            .workers(4)
            .telemetry(true)
            .build(),
    );
    let profiled = build(
        &topo,
        MockupOptions::builder()
            .seed(42)
            .workers(4)
            .profiling(true)
            .build(),
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
}

#[test]
fn shard_diagnostics_are_arrays() {
    let topo = ClosParams::s_dc().build();
    let emu = build(
        &topo,
        MockupOptions::builder()
            .seed(42)
            .workers(4)
            .telemetry(true)
            .build(),
    );
    let report = emu.pull_report();

    for key in [
        "sim.parallel.shard.events_executed",
        "sim.parallel.shard.queue_high_water",
        "sim.parallel.shard.idle_ns",
    ] {
        let values = report
            .diagnostic_arrays
            .get(key)
            .unwrap_or_else(|| panic!("parallel run must record `{key}`"));
        assert_eq!(values.len(), 4, "`{key}` carries one entry per shard");
    }
    let executed = &report.diagnostic_arrays["sim.parallel.shard.events_executed"];
    assert!(
        executed.iter().sum::<u64>() > 0,
        "shards must have executed events"
    );
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
