//! Differential determinism: the parallel conservative executor must be
//! bit-identical to the serial engine.
//!
//! Each scenario builds two identical sims, runs one with
//! `run_until_quiet` and the other with `run_until_quiet_parallel`, and
//! compares *everything observable*: the route-ready instant, every FIB,
//! RIB sizes, route-operation counters, crash and management logs, the
//! final clock, and the surviving event-queue depth. A serial
//! continuation after the parallel phase then verifies the merged world
//! is a fully coherent serial world (key counters, queued timers, link
//! state).

use crystalnet_net::fixtures::{fig1, fig7};
use crystalnet_net::{partition, ClosParams, DeviceId, LinkId, Topology};
use crystalnet_routing::harness::build_full_bgp_sim;
use crystalnet_routing::ProbeConfig;
use crystalnet_routing::{ControlPlaneSim, MgmtCommand, UniformWorkModel, WorkModel};
use crystalnet_sim::{SimDuration, SimTime};
use crystalnet_telemetry::profile::keys;
use crystalnet_telemetry::MemRecorder;

fn work() -> Box<UniformWorkModel> {
    Box::new(UniformWorkModel {
        boot: SimDuration::from_secs(1),
        ..UniformWorkModel::default()
    })
}

fn shard_models(k: usize) -> Vec<Box<dyn WorkModel>> {
    (0..k).map(|_| work() as Box<dyn WorkModel>).collect()
}

const QUIET: SimDuration = SimDuration::from_secs(5);

fn deadline() -> SimTime {
    SimTime::ZERO + SimDuration::from_mins(120)
}

/// Asserts every observable of the two sims is identical.
fn assert_identical(serial: &ControlPlaneSim, par: &ControlPlaneSim, topo: &Topology, tag: &str) {
    assert_eq!(serial.engine.now(), par.engine.now(), "{tag}: clock");
    assert_eq!(
        serial.engine.events_pending(),
        par.engine.events_pending(),
        "{tag}: surviving queue depth"
    );
    let (ws, wp) = (&serial.engine.world, &par.engine.world);
    assert_eq!(
        ws.last_route_activity, wp.last_route_activity,
        "{tag}: last route activity"
    );
    assert_eq!(ws.route_ops_total, wp.route_ops_total, "{tag}: route ops");
    assert_eq!(
        ws.route_ops_by_dev, wp.route_ops_by_dev,
        "{tag}: per-device route ops"
    );
    let sort_crashes = |v: &[(SimTime, DeviceId)]| {
        let mut v = v.to_vec();
        v.sort_by_key(|&(t, d)| (t, d.0));
        v
    };
    assert_eq!(
        sort_crashes(&ws.crashes),
        sort_crashes(&wp.crashes),
        "{tag}: crash log"
    );
    let sort_resp = |v: &[(DeviceId, crystalnet_routing::MgmtResponse)]| {
        let mut v = v.to_vec();
        v.sort_by_key(|r| (r.0).0);
        v
    };
    assert_eq!(
        sort_resp(&ws.mgmt_responses),
        sort_resp(&wp.mgmt_responses),
        "{tag}: mgmt responses"
    );
    for (id, dev) in topo.devices() {
        assert_eq!(
            serial.is_up(id),
            par.is_up(id),
            "{tag}: up state of {}",
            dev.name
        );
        match (serial.os(id), par.os(id)) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.rib_size(), b.rib_size(), "{tag}: RIB of {}", dev.name);
                assert_eq!(a.is_down(), b.is_down(), "{tag}: down flag of {}", dev.name);
                assert_eq!(a.fib(), b.fib(), "{tag}: FIB of {}", dev.name);
            }
            _ => panic!("{tag}: OS presence differs on {}", dev.name),
        }
    }
}

/// Runs `scenario` against both engines with `shards` shards and asserts
/// convergence instants and world state match bit-for-bit.
fn differential(
    topo: &Topology,
    shards: usize,
    tag: &str,
    scenario: impl Fn(&mut ControlPlaneSim),
) -> (ControlPlaneSim, ControlPlaneSim) {
    let mut serial = build_full_bgp_sim(topo, work());
    scenario(&mut serial);
    let t_serial = serial.run_until_quiet(QUIET, deadline());

    let mut par = build_full_bgp_sim(topo, work());
    scenario(&mut par);
    let p = partition(topo, shards);
    let (t_par, models) = par.run_until_quiet_parallel(QUIET, deadline(), &p, shard_models(shards));
    assert_eq!(models.len(), shards, "{tag}: shard models returned");

    assert_eq!(t_serial, t_par, "{tag}: route-ready instant");
    assert!(t_serial.is_some(), "{tag}: scenario must converge");
    assert_identical(&serial, &par, topo, tag);
    (serial, par)
}

#[test]
fn fig1_boot_convergence_matches_serial() {
    let f = fig1();
    for shards in [2, 3] {
        differential(&f.topo, shards, &format!("fig1/{shards}"), |sim| {
            sim.boot_all(SimTime::ZERO);
        });
    }
}

#[test]
fn fig7_flap_and_mgmt_matches_serial() {
    let f = fig7();
    // A spine–leaf link flaps while the network is still converging, and
    // a management probe lands between the flap edges.
    let lid = LinkId(0);
    let ep = ControlPlaneSim::link_endpoints(&f.topo, lid);
    let probe = f.tors[0];
    let (serial, par) = differential(&f.topo, 4, "fig7/4", move |sim| {
        sim.boot_all(SimTime::ZERO);
        sim.link_down(ep, SimTime::ZERO + SimDuration::from_millis(1500));
        sim.link_up(ep, SimTime::ZERO + SimDuration::from_secs(3));
        sim.mgmt(
            probe,
            MgmtCommand::ShowBgpSummary,
            SimTime::ZERO + SimDuration::from_secs(2),
        );
    });
    // Both observed the same management answer.
    assert!(!serial.engine.world.mgmt_responses.is_empty());
    assert!(!par.engine.world.mgmt_responses.is_empty());
}

#[test]
fn fig7_disconnect_long_after_convergence_matches_serial() {
    // The flap lands well past the quiet horizon, exercising the
    // coordinator's lock-step mode.
    let f = fig7();
    let lid = LinkId(2);
    let ep = ControlPlaneSim::link_endpoints(&f.topo, lid);
    differential(&f.topo, 3, "fig7-late/3", move |sim| {
        sim.boot_all(SimTime::ZERO);
        sim.link_down(ep, SimTime::ZERO + SimDuration::from_mins(5));
        sim.link_up(ep, SimTime::ZERO + SimDuration::from_mins(6));
    });
}

#[test]
fn s_dc_clos_matches_serial_and_continues_serially() {
    let dc = ClosParams::s_dc().build();
    let lid = LinkId(0);
    let ep = ControlPlaneSim::link_endpoints(&dc.topo, lid);
    let (mut serial, mut par) = differential(&dc.topo, 4, "s-dc/4", |sim| {
        sim.boot_all(SimTime::ZERO);
    });

    // Continuation: after the parallel phase merged back, the world must
    // behave as a plain serial world — flap a link and settle serially.
    for sim in [&mut serial, &mut par] {
        let t = sim.engine.now();
        sim.link_down(ep, t + SimDuration::from_secs(1));
        sim.link_up(ep, t + SimDuration::from_secs(20));
        sim.run_until_quiet(QUIET, deadline())
            .expect("flap settles serially");
    }
    assert_identical(&serial, &par, &dc.topo, "s-dc/continuation");
}

/// With telemetry on, the sharded settle's run report equals the serial
/// run's: every series counted inside a shard reaches the report after
/// the join, as if one world had counted it.
#[test]
fn fig7_flap_and_mgmt_report_matches_serial_with_telemetry_on() {
    let f = fig7();
    let ep = ControlPlaneSim::link_endpoints(&f.topo, LinkId(0));
    let probe = f.tors[0];
    let (serial, par) = differential(&f.topo, 4, "fig7-report/4", move |sim| {
        sim.engine.world.recorder = Box::new(MemRecorder::new());
        sim.boot_all(SimTime::ZERO);
        sim.link_down(ep, SimTime::ZERO + SimDuration::from_millis(1500));
        sim.link_up(ep, SimTime::ZERO + SimDuration::from_secs(3));
        sim.mgmt(
            probe,
            MgmtCommand::ShowBgpSummary,
            SimTime::ZERO + SimDuration::from_secs(2),
        );
    });
    let json = serial.report().to_json();
    assert!(json.contains("routing.bgp_updates_sent"), "{json}");
    assert_eq!(json, par.report().to_json());
}

/// The benchmark's `sim.parallel.*` probe in miniature: a bare two-shard
/// settle of a two-spine-group fabric under a profiling recorder must
/// reach the serial run's FIBs and report worker compute time.
#[test]
fn profiled_two_shard_settle_matches_serial_and_reports_compute() {
    let clos = ClosParams {
        name: "clos-probe".into(),
        borders: 4,
        spine_groups: 2,
        spines_per_group: 4,
        pods: 4,
        leaves_per_pod: 2,
        tors_per_pod: 6,
        groups_per_pod: 2,
        ext_peers_per_border: 1,
        ext_prefixes_per_peer: 8,
    }
    .build();
    let mut serial = build_full_bgp_sim(&clos.topo, work());
    serial.boot_all(SimTime::ZERO);
    let t_serial = serial.run_until_quiet(QUIET, deadline());

    let mut sharded = build_full_bgp_sim(&clos.topo, work());
    sharded.engine.world.recorder = Box::new(MemRecorder::new().with_profiling());
    sharded.boot_all(SimTime::ZERO);
    let p = partition(&clos.topo, 2);
    let (t_sharded, _) = sharded.run_until_quiet_parallel(QUIET, deadline(), &p, shard_models(2));

    assert!(t_serial.is_some(), "the fabric converges");
    assert_eq!(t_serial, t_sharded, "route-ready instant");
    for (id, dev) in clos.topo.devices() {
        assert_eq!(serial.fib(id), sharded.fib(id), "FIB of {}", dev.name);
    }
    let report = MemRecorder::from_recorder(&*sharded.engine.world.recorder)
        .expect("the recorder installed above")
        .report();
    let profile = report.profile.expect("profiling was on");
    assert!(profile.wall_ns(keys::PARALLEL_COMPUTE) > 0);
}

/// The sharded settle carries no packet-walk plane, so a world with one
/// enabled is refused at entry rather than silently losing its walks.
#[test]
#[should_panic(expected = "without packet-walk planes")]
fn sharded_settle_refuses_an_enabled_health_plane() {
    let f = fig7();
    let mut sim = build_full_bgp_sim(&f.topo, work());
    let population = f.topo.devices().map(|(id, d)| (id, d.loopback)).collect();
    sim.enable_health(ProbeConfig::default(), population, SimTime::ZERO);
    sim.boot_all(SimTime::ZERO);
    let p = partition(&f.topo, 2);
    let _ = sim.run_until_quiet_parallel(QUIET, deadline(), &p, shard_models(2));
}

/// Nor does it carry a causal-trace sink.
#[test]
#[should_panic(expected = "without a causal-trace sink")]
fn sharded_settle_refuses_a_trace_sink() {
    let f = fig7();
    let mut sim = build_full_bgp_sim(&f.topo, work());
    sim.engine.world.recorder = Box::new(MemRecorder::with_trace_capacity(64));
    sim.boot_all(SimTime::ZERO);
    let p = partition(&f.topo, 2);
    let _ = sim.run_until_quiet_parallel(QUIET, deadline(), &p, shard_models(2));
}
