//! Architecture-level invariants from the paper's Figures 2, 4, 5 and 6:
//! the two-layer PhyNet design, per-link VXLAN isolation, and the
//! loop-free tree-shaped management overlay — on a fresh mockup and on
//! the same mockup after a VM's sandboxes were re-placed on a spare.

use crystalnet::prelude::*;
use crystalnet::PlanOptions;
use crystalnet_vnet::{ContainerKind, ContainerState, LinkSpan};
use std::collections::HashSet;
use std::sync::Arc;

fn emu() -> (crystalnet_net::ClosTopology, crystalnet::Emulation) {
    let dc = ClosParams::s_dc().build();
    let prep = prepare(
        &dc.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    );
    (dc, mockup(Arc::new(prep), MockupOptions::builder().build()))
}

/// The fixture twice: as mocked up, and after VM 0 exhausted its reboot
/// budget and its sandboxes were quarantined onto a spare — placement
/// must uphold Figures 4–6 for re-placed devices too.
fn fresh_and_replaced() -> (
    crystalnet_net::ClosTopology,
    [(&'static str, crystalnet::Emulation); 2],
) {
    let (dc, fresh) = emu();
    let mut fork = fresh.fork();
    fork.inject_faults(&FaultPlan::default().then(
        SimDuration::from_secs(5),
        FaultKind::VmSlowRestart {
            vm: 0,
            failed_attempts: 4,
        },
    ))
    .expect("the quarantine recovers");
    let replaced = fork.into_emulation();
    let moved = fresh.prep.vm_plan.vms[0].devices[0];
    assert_ne!(replaced.sandboxes[&moved].vm, 0, "VM 0 was quarantined");
    (dc, [("fresh", fresh), ("re-placed", replaced)])
}

#[test]
fn every_device_sandbox_shares_a_phynet_namespace() {
    // Figure 4: heterogeneous device sandboxes run on top of homogeneous
    // PhyNet containers that hold the interfaces.
    let (_, emus) = fresh_and_replaced();
    for (label, emu) in &emus {
        for sb in emu.sandboxes.values() {
            let engine = &emu.engines[sb.vm];
            let phynet = engine.get(sb.phynet).unwrap();
            let device = engine.get(sb.device).unwrap();
            assert_eq!(phynet.kind, ContainerKind::PhyNet, "{label}");
            assert_eq!(device.phynet, Some(sb.phynet), "{label}");
            assert_eq!(phynet.state, ContainerState::Running, "{label}");
            assert_eq!(device.state, ContainerState::Running, "{label}");
        }
    }
}

#[test]
fn interfaces_live_in_phynet_not_in_device_sandboxes() {
    let (dc, emus) = fresh_and_replaced();
    for (label, emu) in &emus {
        for (&dev, sb) in &emu.sandboxes {
            let engine = &emu.engines[sb.vm];
            let phynet = engine.get(sb.phynet).unwrap();
            let device = engine.get(sb.device).unwrap();
            assert_eq!(
                phynet.iface_count as usize,
                dc.topo.device(dev).ifaces.len(),
                "{label}: PhyNet holds exactly the production interface count"
            );
            assert_eq!(
                device.iface_count, 0,
                "{label}: device sandboxes hold no interfaces"
            );
        }
    }
}

#[test]
fn inter_vm_links_get_unique_vnis_per_vm() {
    // Figure 5: each virtual link is isolated by a VXLAN ID, unique per
    // VM, and tunnelled exactly when its ends sit on different VMs.
    let (dc, emus) = fresh_and_replaced();
    for (label, emu) in &emus {
        let mut per_vm: std::collections::HashMap<_, HashSet<u32>> = Default::default();
        let mut inter_vm = 0;
        for vl in &emu.vlinks {
            let link = dc.topo.link(vl.link);
            let host = |dev| emu.vm_ids[emu.sandboxes[&dev].vm];
            assert_eq!(
                (vl.vm_a, vl.vm_b),
                (host(link.a.device), host(link.b.device)),
                "{label}: link {:?} follows its endpoints' sandboxes",
                vl.link
            );
            assert_eq!(vl.span == LinkSpan::IntraVm, vl.vm_a == vl.vm_b, "{label}");
            match vl.span {
                LinkSpan::IntraVm => assert_eq!(vl.vni, None, "{label}"),
                _ => {
                    inter_vm += 1;
                    let vni = vl.vni.expect("inter-VM links are tunneled");
                    assert!(
                        per_vm.entry(vl.vm_a).or_default().insert(vni),
                        "{label}: VNI {vni} reused on VM {:?}",
                        vl.vm_a
                    );
                    assert!(
                        per_vm.entry(vl.vm_b).or_default().insert(vni),
                        "{label}: VNI {vni} reused on VM {:?}",
                        vl.vm_b
                    );
                }
            }
        }
        assert!(
            inter_vm > 0,
            "{label}: a multi-VM emulation must tunnel something"
        );
    }
}

#[test]
fn management_overlay_is_a_tree_with_two_hop_reach() {
    // Figure 6: per-VM bridges hang off the jumpbox; devices hang off
    // the bridge of the VM that hosts them. No mesh, no L2 storm, every
    // device 2 hops away.
    let (dc, emus) = fresh_and_replaced();
    for (label, emu) in &emus {
        assert!(emu.mgmt.is_tree(), "{label}");
        for (id, dev) in dc.topo.devices() {
            if emu.mgmt.resolve(&dev.name).is_some() {
                assert_eq!(
                    emu.mgmt.hops_to(&dev.name),
                    Some(2),
                    "{label}: {}",
                    dev.name
                );
                assert_eq!(
                    emu.mgmt.vm_of(&dev.name),
                    Some(emu.vm_ids[emu.sandboxes[&id].vm]),
                    "{label}: {}",
                    dev.name
                );
            }
        }
    }
}

#[test]
fn vendor_grouping_is_enforced_on_the_running_fleet() {
    // §6.2: one vendor's sandboxes never share a VM with another's.
    let (dc, emu) = emu();
    for planned in &emu.prep.vm_plan.vms {
        let vendors: HashSet<_> = planned
            .devices
            .iter()
            .map(|&d| dc.topo.device(d).vendor)
            .collect();
        assert!(vendors.len() <= 1);
    }
}

#[test]
fn emulation_cost_tracks_fleet_and_time() {
    let (_, emu) = emu();
    let rate = emu.cloud.lock().unwrap().hourly_rate_usd();
    let plan_rate = emu.prep.vm_plan.hourly_cost_usd();
    assert!((rate - plan_rate).abs() < 1e-9);
    let cost = emu.cloud.lock().unwrap().cost_usd(emu.now());
    assert!(cost > 0.0);
    assert!(cost < rate, "an emulation converges in under an hour");
}
