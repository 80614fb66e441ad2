//! End-to-end orchestrator tests: Prepare → Mockup → APIs → Clear.

use crystalnet::{
    mockup, prepare, BoundaryMode, Emulation, MockupOptions, PlanOptions, SpeakerSource,
};
use crystalnet_dataplane::ForwardDecision;
use crystalnet_net::ClosParams;
use crystalnet_routing::{MgmtCommand, MgmtResponse};
use crystalnet_sim::SimDuration;
use std::sync::Arc;

fn s_dc_emulation_opts(
    seed: u64,
    target_vms: Option<u32>,
    workers: usize,
) -> (crystalnet_net::ClosTopology, Emulation) {
    let dc = ClosParams::s_dc().build();
    let prep = prepare(
        &dc.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions {
            target_vms,
            ..PlanOptions::default()
        },
    );
    let emu = mockup(
        Arc::new(prep),
        MockupOptions::builder().seed(seed).workers(workers).build(),
    );
    (dc, emu)
}

fn s_dc_emulation(seed: u64, target_vms: Option<u32>) -> (crystalnet_net::ClosTopology, Emulation) {
    s_dc_emulation_opts(seed, target_vms, 1)
}

#[test]
fn s_dc_mockup_reaches_route_ready_within_paper_bounds() {
    let (_, emu) = s_dc_emulation(1, Some(5));
    let m = emu.metrics;
    // Network-ready < 2 minutes (§8.2).
    assert!(
        m.network_ready < SimDuration::from_mins(2),
        "network-ready {} too slow",
        m.network_ready
    );
    // Whole-Mockup median < 32 minutes (Figure 8); S-DC is far faster.
    assert!(m.mockup < SimDuration::from_mins(32), "mockup {}", m.mockup);
    assert!(m.route_ready > SimDuration::ZERO);
    assert!(m.route_ops > 10_000);

    // `workers` is accepted and every value runs serially: same run.
    let (dc, four) = s_dc_emulation_opts(1, Some(5), 4);
    assert!(
        dc.topo
            .devices()
            .all(|(id, _)| emu.sim.fib(id) == four.sim.fib(id))
            && emu.pull_report().to_json() == four.pull_report().to_json(),
        "workers(4) must reproduce workers(1): FIBs and canonical report"
    );
}

#[test]
fn mockup_produces_full_reachability_and_working_apis() {
    let (dc, mut emu) = s_dc_emulation(2, Some(5));

    // Every emulated device is up and listed.
    let listed = emu.list();
    assert_eq!(
        listed.len(),
        dc.internal_device_count() + dc.externals.len()
    );
    assert!(listed.iter().all(|(_, _, up)| *up));

    // PullStates: ToRs carry full tables.
    let tor = dc.pods[0].tors[0];
    let st = emu.pull_states(tor).unwrap();
    assert!(st.up);
    assert!(st.fib_prefixes > 150, "ToR fib {}", st.fib_prefixes);

    // Management login by DNS name works like production.
    let name = dc.topo.device(tor).name.clone();
    let resp = emu
        .login_and_run(&name, MgmtCommand::ShowBgpSummary)
        .unwrap();
    let MgmtResponse::BgpSummary(rows) = resp else {
        panic!("unexpected response")
    };
    assert_eq!(rows.len(), 4, "ToR peers with its 4 leaves");
    assert!(rows.iter().all(|(_, established, _)| *established));

    // Packet telemetry: ToR-to-ToR probe crosses the fabric and lands.
    let src = dc.topo.device(tor).originated[1].nth(5);
    let dst_tor = dc.pods[5].tors[15];
    let dst = dc.topo.device(dst_tor).originated[1].nth(9);
    let sig = emu.inject_packet(tor, src, dst);
    let (path, outcome) = emu.pull_packets(sig).expect("probe traced");
    assert_eq!(outcome, ForwardDecision::Deliver);
    assert_eq!(path.first(), Some(&tor));
    assert_eq!(path.last(), Some(&dst_tor));
    assert!(path.len() >= 4, "probe must cross the fabric: {path:?}");

    // PullConfig returns renderable production config.
    let cfg = emu.pull_config(tor).unwrap();
    assert!(cfg.contains("router bgp"));

    // The management overlay is loop-free and resolves every device.
    assert!(emu.mgmt.is_tree());
    assert_eq!(emu.mgmt.device_count(), listed.len());
}

#[test]
fn disconnect_and_connect_propagate() {
    let (dc, mut emu) = s_dc_emulation(3, Some(5));
    let tor = dc.pods[0].tors[0];
    let subnet = dc.topo.device(tor).originated[1];
    let spine = dc.spine_groups[0][0];

    let before = emu.pull_states(spine).unwrap().fib_prefixes;
    // Cut one ToR uplink.
    let (lid, _, _) = dc.topo.neighbors(tor).next().unwrap();
    emu.disconnect(lid);
    emu.settle().expect("re-converges");
    // The spine still reaches the ToR subnet (3 leaves remain).
    let fib = emu.sim.fib(spine).unwrap();
    let (_, entry) = fib.lookup(subnet.nth(1)).unwrap();
    assert_eq!(entry.next_hops.len(), 3);

    emu.connect(lid);
    emu.settle().expect("re-converges");
    let fib = emu.sim.fib(spine).unwrap();
    let (_, entry) = fib.lookup(subnet.nth(1)).unwrap();
    assert_eq!(entry.next_hops.len(), 4);
    assert_eq!(emu.pull_states(spine).unwrap().fib_prefixes, before);
}

#[test]
fn reload_two_layer_beats_strawman() {
    let (dc, mut emu) = s_dc_emulation(4, Some(5));
    let leaf = dc.pods[0].leaves[0];
    let cfg = emu
        .prep
        .configs
        .iter()
        .find(|(d, _)| *d == leaf)
        .unwrap()
        .1
        .clone();

    let fast = emu.reload(leaf, cfg.clone(), false);
    emu.settle().unwrap();
    let slow = emu.reload(leaf, cfg, true);
    emu.settle().unwrap();

    // §8.3: two-layer ≈ 3 s; the strawman pays ~400 ms per interface to
    // recreate the namespace (the paper's ≥15 extra seconds corresponds
    // to its higher-radix devices; this S-DC leaf has 20 interfaces).
    assert!(fast <= SimDuration::from_secs(4), "two-layer reload {fast}");
    let ifaces = dc.topo.device(leaf).ifaces.len() as u64;
    assert!(
        slow >= fast + SimDuration::from_millis(400) * ifaces,
        "strawman {slow} vs two-layer {fast}"
    );
    // The device comes back with full state.
    let st = emu.pull_states(leaf).unwrap();
    assert!(st.up);
    assert!(st.fib_prefixes > 150);
}

#[test]
fn vm_failure_recovers_within_paper_bounds() {
    let (dc, mut emu) = s_dc_emulation(5, Some(10));
    // Pick the VM hosting the most devices.
    let vm_idx = (0..emu.prep.vm_plan.vms.len())
        .max_by_key(|&i| emu.prep.vm_plan.vms[i].devices.len())
        .unwrap();
    let victims = emu.prep.vm_plan.vms[vm_idx].devices.clone();
    assert!(!victims.is_empty());

    let recovery = emu.fail_and_recover_vm(vm_idx).expect("live VM in range");
    // §8.3: recovery between 10 and 50 seconds depending on density.
    assert!(
        recovery >= SimDuration::from_secs(2) && recovery <= SimDuration::from_secs(60),
        "recovery {recovery}"
    );
    emu.settle().expect("network re-converges after recovery");
    for d in victims {
        let st = emu.pull_states(d).unwrap();
        assert!(st.up, "{} did not come back", st.hostname);
        assert!(
            st.fib_prefixes > 100,
            "{} has {} prefixes",
            st.hostname,
            st.fib_prefixes
        );
    }
    let _ = dc;
}

#[test]
fn clear_is_fast_and_resets_vms() {
    let (_, mut emu) = s_dc_emulation(6, Some(5));
    let clear = emu.clear();
    // §8.2: clear latency under 2 minutes.
    assert!(clear < SimDuration::from_mins(2), "clear {clear}");
    assert!(emu.engines.iter().all(|e| e.containers().is_empty()));
    let cost = emu.destroy();
    assert!(cost > 0.0);
}

#[test]
fn cpu_series_shows_bring_up_then_quiesce() {
    let (_, emu) = s_dc_emulation(7, Some(5));
    let series = emu.cpu_p95_series();
    assert!(!series.is_empty());
    let peak = series.iter().cloned().fold(0.0, f64::max);
    assert!(peak > 0.3, "bring-up must load the VMs (peak {peak})");
    // The tail (post-convergence) is quiet.
    let tail = *series.last().unwrap();
    assert!(tail < 0.2, "post-convergence CPU should be low ({tail})");
}

#[test]
fn seeds_change_latency_but_not_fib_outcome() {
    let (dc, emu_a) = s_dc_emulation(10, Some(5));
    let (_, emu_b) = s_dc_emulation(11, Some(5));
    // Timing differs across seeds...
    assert_ne!(emu_a.metrics.mockup, emu_b.metrics.mockup);
    // ...but converged forwarding state agrees (ECMP-set comparison).
    for (id, d) in dc.topo.devices() {
        if d.role == crystalnet_net::Role::External {
            continue;
        }
        let fa = emu_a.sim.fib(id).unwrap();
        let fb = emu_b.sim.fib(id).unwrap();
        assert!(
            crystalnet_dataplane::fibs_equal(
                fa,
                fb,
                &crystalnet_dataplane::CompareOptions::strict()
            ),
            "FIB mismatch on {}",
            d.name
        );
    }
}
