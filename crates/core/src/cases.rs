//! The §7 real-life experiences, reproduced end to end.
//!
//! **Case 1 — migration to new regional backbones.** Two datacenters'
//! inter-DC traffic moves from the legacy WAN onto new regional backbone
//! routers. The operators rehearse the staged plan in an emulation of all
//! DC devices + the new backbones + legacy WAN cores; the rehearsal
//! catches injected tool bugs before the plan runs in production, and the
//! perfected plan completes without disruption.
//!
//! **Case 2 — switch OS development pipeline.** A development build of
//! the open-source switch OS (CTNR-B) replaces some production devices in
//! an emulated environment; the validation pipeline catches the build's
//! firmware bugs (default-route FIB sync, ARP trap, flap-crash) that unit
//! and testbed tests missed.

use crate::emulation::{mockup, Emulation, MockupOptions};
use crate::health::CorrelatedIncident;
use crate::plan::PlanOptions;
use crate::prepare::{prepare, BoundaryMode, SpeakerSource};
use crate::rehearse::diff_devices;
use crate::workflow::{RehearsalReport, RehearsalStep};
use crystalnet_dataplane::ForwardDecision;
use crystalnet_net::{RegionParams, RegionTopology, Role};
use crystalnet_routing::{DeviceOs, Frame, MgmtCommand, OsEvent, VendorProfile};
use crystalnet_sim::SimDuration;
use crystalnet_telemetry::RunReport;
use std::sync::Arc;

/// The report of the Case-1 rehearsal.
#[derive(Debug)]
pub struct Case1Report {
    /// The *first* rehearsal (with the buggy tool), step by step.
    pub rehearsal: RehearsalReport,
    /// Bugs the rehearsal caught (would-be production incidents).
    pub bugs_caught: usize,
    /// Whether the caught step's fork was dropped, never committed:
    /// border0 still up, every FIB equal to its pre-rehearsal self.
    pub baseline_untouched: bool,
    /// The final, perfected plan, step by step (each step's delta has
    /// its probe / flow / incident impact when the run is under load).
    pub final_run: RehearsalReport,
    /// Whether the perfected plan completed without any disruption.
    pub no_disruption: bool,
    /// VM count of the emulation.
    pub vms_used: usize,
    /// Run report of the final migration emulation.
    pub report: RunReport,
    /// Traffic-plane gauges of the final run
    /// ([`disabled`](crate::traffic::TrafficReport::disabled) unless the
    /// rehearsal ran under load — see [`run_case1_under_load`]).
    pub traffic: crate::traffic::TrafficReport,
    /// Correlated incidents observed during the final run (health and
    /// congestion watchdogs; empty when both planes are off). Those
    /// that follow a committed step carry it as their `change` cause.
    pub incidents: Vec<CorrelatedIncident>,
}

/// Builds the Case-1 emulation: both DCs fully emulated plus regional
/// backbones and legacy WAN cores (the paper emulated all spines of two
/// DCs + the new backbone + several WAN cores on 150 VMs).
fn case1_emulation(options: &MockupOptions, region: &RegionTopology) -> Emulation {
    let prep = prepare(
        &region.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    );
    mockup(Arc::new(prep), options.clone())
}

/// A cross-DC reachability check: a ToR in DC0 can reach a ToR subnet in
/// DC1 and the path crosses the expected layer.
fn cross_dc_ok(
    emu: &mut Emulation,
    region: &RegionTopology,
    expect_via: Role,
) -> Result<(), String> {
    let src_tor = region.dcs[0].tors[0];
    let dst_tor = region.dcs[1].tors[0];
    let src = emu.topo.device(src_tor).originated[1].nth(3);
    let dst = emu.topo.device(dst_tor).originated[1].nth(3);
    let sig = emu.inject_packet(src_tor, src, dst);
    let (path, outcome) = emu
        .pull_packets(sig)
        .map_err(|e| format!("cross-DC probe failed: {e}"))?;
    if outcome != ForwardDecision::Deliver {
        return Err(format!("cross-DC probe failed: {outcome:?}"));
    }
    let via_ok = path.iter().any(|&d| emu.topo.device(d).role == expect_via);
    if !via_ok {
        return Err(format!("probe avoided the {expect_via} layer: {path:?}"));
    }
    Ok(())
}

/// The plans' opening step: watch the untouched network for a while
/// (under load, the loss baseline) and confirm traffic rides the WAN.
fn baseline_step(name: &str, region: &RegionTopology) -> RehearsalStep {
    let region = region.clone();
    RehearsalStep::tools(name, |emu| {
        emu.advance(SimDuration::from_secs(10));
        Ok(())
    })
    .expect(move |emu| cross_dc_ok(emu, &region, Role::WanCore))
}

/// Runs the Case-1 migration rehearsal with the default options.
#[must_use]
pub fn run_case1(seed: u64) -> Case1Report {
    run_case1_with(&MockupOptions::builder().seed(seed).build())
}

/// Runs the Case-1 migration rehearsal *under load*: the probe mesh and
/// the traffic plane both run while the staged plan executes, so the
/// report shows what the migration transient did to user flows (lost,
/// rerouted — per step, in each step's delta) and whether any congestion
/// watchdog fired — the paper's end goal, not just FIB equivalence.
/// Deterministic for a given seed like every other run.
#[must_use]
pub fn run_case1_under_load(seed: u64) -> Case1Report {
    run_case1_with(
        &MockupOptions::builder()
            .seed(seed)
            .health(SimDuration::from_secs(5))
            .traffic(SimDuration::from_secs(5))
            .build(),
    )
}

/// Runs the Case-1 migration rehearsal under caller-supplied mockup
/// options (the final run re-derives its seed as `seed + 1000`).
#[must_use]
pub fn run_case1_with(options: &MockupOptions) -> Case1Report {
    let mut params = RegionParams::case1();
    // Keep the rehearsal affordable: small DCs, post-migration topology
    // (backbone links exist; the plan brings them into service).
    params.dc = crystalnet_net::ClosParams::s_dc();
    params.backbone_connected = true;
    let region = params.build();

    // ------------------------------------------------------------------
    // Rehearsal 1: the operators' tools still contain a bug — the traffic
    // shift step shuts down a whole border router instead of its WAN
    // sessions (the §2 tool-bug class). Its fork is dropped.
    // ------------------------------------------------------------------
    let mut emu = case1_emulation(options, &region);
    let border0 = region.dcs[0].borders[0];
    let border0_name = region.topo.device(border0).name.clone();
    let pre_rehearsal = emu.os_handles();
    let r2 = region.clone();
    let rehearsal = emu.rehearse([
        baseline_step("baseline: inter-DC traffic rides the legacy WAN", &region),
        RehearsalStep::tools("shift DC0 border0 off the WAN (buggy tool)", move |emu| {
            // BUG: the tool powers the router down entirely.
            emu.login_and_run(&border0_name, MgmtCommand::DeviceShutdown)
                .map(drop)
        })
        .expect(move |emu| {
            if !emu.sim.is_up(border0) {
                return Err("border0 is down — tool shut the router, not sessions".into());
            }
            cross_dc_ok(emu, &r2, Role::WanCore)
        }),
    ]);
    let bugs_caught = rehearsal.failures().len();
    let baseline_untouched =
        emu.sim.is_up(border0) && diff_devices(&pre_rehearsal, &emu.sim).is_empty();

    // ------------------------------------------------------------------
    // Final run: the fixed tool shuts down individual WAN sessions, per
    // border, verifying traffic shifts onto the regional backbone with
    // no disruption.
    // ------------------------------------------------------------------
    let mut final_options = options.clone();
    final_options.seed += 1000;
    let mut emu = case1_emulation(&final_options, &region);
    let mut wan_sessions: Vec<(String, crystalnet_net::Ipv4Addr)> = Vec::new();
    for dc in &region.dcs {
        for &b in &dc.borders {
            for (_, _, remote) in region.topo.neighbors(b) {
                let peer_dev = region.topo.device(remote.device);
                if peer_dev.role == Role::WanCore {
                    let peer = peer_dev.ifaces[remote.iface as usize].addr.unwrap().addr;
                    wan_sessions.push((region.topo.device(b).name.clone(), peer));
                }
            }
        }
    }
    let r4 = region.clone();
    let final_run = emu.rehearse([
        baseline_step("baseline reachability", &region),
        RehearsalStep::tools("drain all border→WAN sessions (fixed tool)", move |emu| {
            for (border, peer) in &wan_sessions {
                emu.login_and_run(border, MgmtCommand::NeighborShutdown(*peer))?;
            }
            Ok(())
        })
        .expect(move |emu| cross_dc_ok(emu, &r4, Role::Regional)),
    ]);
    let no_disruption = final_run.all_passed();
    let vms_used = emu.prep.vm_plan.vm_count();

    Case1Report {
        rehearsal,
        bugs_caught,
        baseline_untouched,
        final_run,
        no_disruption,
        vms_used,
        report: emu.pull_report(),
        traffic: emu.pull_traffic(),
        incidents: emu.incidents(),
    }
}

/// The report of the Case-2 validation pipeline.
#[derive(Debug)]
pub struct Case2Report {
    /// Bugs the pipeline caught in the dev build, by check name.
    pub bugs: Vec<String>,
    /// The same checks against the released build (expected clean).
    pub control_clean: bool,
    /// Run report of the dev-build emulation under test.
    pub report: RunReport,
}

/// Runs the Case-2 switch-OS validation pipeline with the default
/// options: replace one production ToR with the CTNR-B dev build, verify
/// no behaviour change.
#[must_use]
pub fn run_case2(seed: u64) -> Case2Report {
    run_case2_with(&MockupOptions::builder().seed(seed).build())
}

/// Runs the Case-2 pipeline under caller-supplied mockup options (the
/// control run re-derives its seed as `seed + 500`).
#[must_use]
pub fn run_case2_with(options: &MockupOptions) -> Case2Report {
    let mut control_options = options.clone();
    control_options.seed += 500;
    let (bugs, report) = pipeline(options, VendorProfile::ctnr_b_dev());
    let (control, _) = pipeline(&control_options, VendorProfile::ctnr_b());
    Case2Report {
        control_clean: control.is_empty(),
        bugs,
        report,
    }
}

fn pipeline(options: &MockupOptions, build: VendorProfile) -> (Vec<String>, RunReport) {
    let f = crystalnet_net::fixtures::fig7();
    let dut = f.tors[0]; // device under test
    let mut prep = prepare(
        &f.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    );
    // L1 originates a default route so the DUT must program one.
    for (dev, cfg) in &mut prep.configs {
        if *dev == f.leaves[0] {
            cfg.bgp
                .as_mut()
                .unwrap()
                .networks
                .push("0.0.0.0/0".parse().unwrap());
        }
    }
    let mut options = options.clone();
    options.profile_overrides.insert(dut, build);
    let mut emu = mockup(Arc::new(prep), options);

    let mut bugs = Vec::new();

    // Check 1: the ASIC must hold the BGP-learned default route.
    let default_ok = emu
        .sim
        .fib(dut)
        .is_some_and(|fib| fib.get("0.0.0.0/0".parse().unwrap()).is_some());
    if !default_ok {
        bugs.push("default route missing from ASIC FIB after BGP learn".into());
    }

    // Check 2: the DUT must answer ARP for its interface addresses.
    let now = emu.now();
    let target_ip = emu.topo.device(dut).ifaces[0].addr.unwrap().addr;
    let request = Frame::Arp(crystalnet_dataplane::ArpMessage {
        is_request: true,
        sender_ip: "10.7.0.99".parse().unwrap(),
        sender_mac: crystalnet_net::MacAddr::from_id(99),
        target_ip,
    });
    let replied = emu
        .sim
        .os_mut(dut)
        .map(|os| {
            let actions = os.handle(
                now,
                OsEvent::Frame {
                    iface: 0,
                    frame: request,
                },
            );
            actions
                .out
                .iter()
                .any(|(_, f)| matches!(f, Frame::Arp(reply) if !reply.is_request))
        })
        .unwrap_or(false);
    if !replied {
        bugs.push("ARP request not forwarded to CPU (no reply)".into());
    }

    // Check 3: session flap endurance — three uplink flaps must not
    // crash the OS.
    let (lid, _, _) = f.topo.neighbors(dut).next().unwrap();
    let mut t = emu.now();
    for _ in 0..3 {
        t += SimDuration::from_secs(30);
        emu.disconnect_at(lid, t);
        t += SimDuration::from_secs(30);
        emu.connect_at(lid, t);
        let _ = emu.settle();
    }
    if emu.sim.os(dut).is_some_and(DeviceOs::is_down) {
        bugs.push("OS crashed after repeated BGP session flaps".into());
    }

    (bugs, emu.pull_report())
}
