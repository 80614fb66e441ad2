//! VM planning: how many VMs, which SKUs, and which device goes where
//! (§6.1 "VM spawning", §6.2 "Running different devices on different
//! groups of VMs").
//!
//! The planner encodes the paper's packing rules:
//! * devices from different vendors never share a VM (one vendor's kernel
//!   tuning can break another's sandboxes),
//! * VM-image devices need nested-virtualization SKUs,
//! * packing is bounded by RAM and by a per-VM virtual-interface budget
//!   (the kernel forwards poorly past a few hundred interfaces),
//! * speakers are lightweight — at least 50 fit per VM (§8.4).

use crystalnet_net::{DeviceId, Topology, Vendor};
use crystalnet_vnet::{ContainerKind, VmSku};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Knobs for the planner.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanOptions {
    /// Hard cap on virtual interfaces per VM.
    pub max_ifaces_per_vm: u32,
    /// Hard cap on device sandboxes per VM.
    pub max_devices_per_vm: u32,
    /// Cap on speakers per VM.
    pub max_speakers_per_vm: u32,
    /// Disable vendor grouping (ablation of the §6.2 rule).
    pub vendor_grouping: bool,
    /// Target VM count; the planner spreads devices across at least this
    /// many VMs when given more than it strictly needs (Figure 8 varies
    /// this: S-DC/5 vs S-DC/10 etc.).
    pub target_vms: Option<u32>,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            max_ifaces_per_vm: 600,
            max_devices_per_vm: 12,
            max_speakers_per_vm: 50,
            vendor_grouping: true,
            target_vms: None,
        }
    }
}

/// One planned VM.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlannedVm {
    /// SKU to provision.
    pub sku: VmSku,
    /// Device sandboxes placed here.
    pub devices: Vec<DeviceId>,
    /// Speaker agents placed here.
    pub speakers: Vec<DeviceId>,
    /// The vendor group (None for speaker-only VMs or ungrouped plans).
    pub vendor: Option<Vendor>,
}

/// The full placement.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct VmPlan {
    /// Planned VMs.
    pub vms: Vec<PlannedVm>,
    /// Device → VM index (covers devices and speakers).
    pub placement: BTreeMap<DeviceId, usize>,
}

impl VmPlan {
    /// Number of VMs.
    #[must_use]
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Hourly cost of the fleet in USD.
    #[must_use]
    pub fn hourly_cost_usd(&self) -> f64 {
        self.vms.iter().map(|v| v.sku.usd_per_hour).sum()
    }

    /// The VM hosting `dev`.
    #[must_use]
    pub fn vm_of(&self, dev: DeviceId) -> Option<usize> {
        self.placement.get(&dev).copied()
    }
}

/// Plans VMs for `devices` (emulated) and `speakers`.
///
/// Devices are grouped by vendor (unless disabled), each group is packed
/// under the interface/device/RAM caps onto the cheapest adequate SKU,
/// and speakers are packed densely onto standard VMs. When `target_vms`
/// exceeds the minimum, groups are spread evenly to use the budget (more
/// VMs ⇒ fewer devices each ⇒ faster, steadier Mockup — Figure 8).
#[must_use]
pub fn plan_vms(
    topo: &Topology,
    devices: &[DeviceId],
    speakers: &[DeviceId],
    opts: &PlanOptions,
) -> VmPlan {
    let mut plan = VmPlan::default();

    // Group devices by vendor (or one big group).
    let mut groups: BTreeMap<Option<Vendor>, Vec<DeviceId>> = BTreeMap::new();
    for &d in devices {
        let key = opts.vendor_grouping.then(|| topo.device(d).vendor);
        groups.entry(key).or_default().push(d);
    }

    // How many VMs would the caps demand per group?
    let group_min: BTreeMap<Option<Vendor>, usize> = groups
        .iter()
        .map(|(k, devs)| (*k, min_vms_for(topo, devs, opts)))
        .collect();
    let speaker_min = speakers.len().div_ceil(opts.max_speakers_per_vm as usize);
    let min_total: usize = group_min.values().sum::<usize>() + speaker_min;

    // Distribute any surplus budget proportionally to group size.
    let budget = opts
        .target_vms
        .map_or(min_total, |t| (t as usize).max(min_total));
    let surplus = budget - min_total;
    let total_devices = devices.len().max(1);

    let mut extra_left = surplus;
    let group_keys: Vec<Option<Vendor>> = groups.keys().copied().collect();
    for (gi, key) in group_keys.iter().enumerate() {
        let devs = &groups[key];
        let share = if gi + 1 == group_keys.len() {
            extra_left // last group takes the remainder
        } else {
            (surplus * devs.len() / total_devices).min(extra_left)
        };
        extra_left -= share;
        let vm_count = group_min[key] + share;
        pack_group(topo, devs, *key, vm_count, opts, &mut plan);
    }

    // Speakers: dense packing on standard VMs.
    for chunk in speakers.chunks(opts.max_speakers_per_vm as usize) {
        let idx = plan.vms.len();
        plan.vms.push(PlannedVm {
            sku: VmSku::standard_4c8g(),
            devices: vec![],
            speakers: chunk.to_vec(),
            vendor: None,
        });
        for &s in chunk {
            plan.placement.insert(s, idx);
        }
    }
    plan
}

/// The container kind a device runs as.
#[must_use]
pub fn sandbox_kind(vendor: Vendor) -> ContainerKind {
    if vendor.is_containerized() {
        ContainerKind::DeviceContainer(vendor)
    } else {
        ContainerKind::DeviceVm(vendor)
    }
}

fn sku_for(vendor: Option<Vendor>) -> VmSku {
    match vendor {
        Some(v) if !v.is_containerized() => VmSku::nested_4c16g(),
        _ => VmSku::standard_4c8g(),
    }
}

fn min_vms_for(topo: &Topology, devs: &[DeviceId], opts: &PlanOptions) -> usize {
    // Greedy first-fit respecting all three caps.
    let mut count = 1usize;
    let mut ifaces = 0u32;
    let mut n = 0u32;
    let mut ram = 0u32;
    let vendor = topo.device(devs[0]).vendor;
    let sku = sku_for(Some(vendor));
    let ram_cap = sku.ram_gb * 1024 - 512; // host reserve
    for &d in devs {
        let dev = topo.device(d);
        let di = dev.ifaces.len() as u32;
        let dram = sandbox_kind(dev.vendor).ram_mb() + ContainerKind::PhyNet.ram_mb();
        if n + 1 > opts.max_devices_per_vm
            || ifaces + di > opts.max_ifaces_per_vm
            || ram + dram > ram_cap
        {
            count += 1;
            ifaces = 0;
            n = 0;
            ram = 0;
        }
        ifaces += di;
        n += 1;
        ram += dram;
    }
    count
}

fn pack_group(
    topo: &Topology,
    devs: &[DeviceId],
    vendor: Option<Vendor>,
    vm_count: usize,
    _opts: &PlanOptions,
    plan: &mut VmPlan,
) {
    let sku = sku_for(vendor.or_else(|| devs.first().map(|&d| topo.device(d).vendor)));
    let base = plan.vms.len();
    for _ in 0..vm_count {
        plan.vms.push(PlannedVm {
            sku,
            devices: vec![],
            speakers: vec![],
            vendor,
        });
    }
    // Round-robin spread keeps per-VM load even (and interface counts
    // balanced, which is what bounds network-ready latency).
    for (i, &d) in devs.iter().enumerate() {
        let idx = base + i % vm_count;
        plan.vms[idx].devices.push(d);
        plan.placement.insert(d, idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crystalnet_net::ClosParams;

    fn s_dc_ids() -> (crystalnet_net::ClosTopology, Vec<DeviceId>, Vec<DeviceId>) {
        let dc = ClosParams::s_dc().build();
        let devices: Vec<DeviceId> = dc
            .topo
            .devices()
            .filter(|(_, d)| d.role != crystalnet_net::Role::External)
            .map(|(id, _)| id)
            .collect();
        let speakers: Vec<DeviceId> = dc.externals.clone();
        (dc, devices, speakers)
    }

    #[test]
    fn vendors_never_share_a_vm() {
        let (dc, devices, speakers) = s_dc_ids();
        let plan = plan_vms(&dc.topo, &devices, &speakers, &PlanOptions::default());
        for vm in &plan.vms {
            let vendors: std::collections::BTreeSet<Vendor> = vm
                .devices
                .iter()
                .map(|&d| dc.topo.device(d).vendor)
                .collect();
            assert!(vendors.len() <= 1, "mixed vendors on one VM");
        }
    }

    #[test]
    fn every_device_is_placed_exactly_once() {
        let (dc, devices, speakers) = s_dc_ids();
        let plan = plan_vms(&dc.topo, &devices, &speakers, &PlanOptions::default());
        for &d in devices.iter().chain(&speakers) {
            assert!(plan.vm_of(d).is_some(), "{d} unplaced");
        }
        let placed: usize = plan
            .vms
            .iter()
            .map(|vm| vm.devices.len() + vm.speakers.len())
            .sum();
        assert_eq!(placed, devices.len() + speakers.len());
    }

    #[test]
    fn caps_are_respected() {
        let (dc, devices, speakers) = s_dc_ids();
        let opts = PlanOptions::default();
        let plan = plan_vms(&dc.topo, &devices, &speakers, &opts);
        for vm in &plan.vms {
            assert!(vm.devices.len() <= opts.max_devices_per_vm as usize);
            let ifaces: u32 = vm
                .devices
                .iter()
                .map(|&d| dc.topo.device(d).ifaces.len() as u32)
                .sum();
            assert!(ifaces <= opts.max_ifaces_per_vm);
            assert!(vm.speakers.len() <= opts.max_speakers_per_vm as usize);
        }
    }

    #[test]
    fn target_vms_spreads_load() {
        let (dc, devices, speakers) = s_dc_ids();
        let small = plan_vms(&dc.topo, &devices, &speakers, &PlanOptions::default());
        let opts = PlanOptions {
            target_vms: Some(small.vm_count() as u32 * 2),
            ..PlanOptions::default()
        };
        let big = plan_vms(&dc.topo, &devices, &speakers, &opts);
        assert!(big.vm_count() >= small.vm_count() * 2 - 2);
        let max_small = small.vms.iter().map(|v| v.devices.len()).max().unwrap();
        let max_big = big.vms.iter().map(|v| v.devices.len()).max().unwrap();
        assert!(max_big <= max_small, "more VMs must not pack denser");
    }

    #[test]
    fn vm_vendor_devices_get_nested_skus() {
        let region = crystalnet_net::RegionParams::case1().build();
        let devices: Vec<DeviceId> = region
            .wan_cores
            .iter()
            .chain(&region.backbones)
            .copied()
            .collect();
        let plan = plan_vms(&region.topo, &devices, &[], &PlanOptions::default());
        for vm in &plan.vms {
            for &d in &vm.devices {
                if !region.topo.device(d).vendor.is_containerized() {
                    assert!(vm.sku.nested_virt, "VM-image device on non-nested SKU");
                }
            }
        }
    }

    #[test]
    fn speakers_pack_fifty_per_vm() {
        let dc = ClosParams::s_dc().build();
        let speakers: Vec<DeviceId> = (0..120).map(|_| dc.externals[0]).collect();
        // 120 speaker instances (ids repeat for the packing math only).
        let plan = plan_vms(&dc.topo, &[], &speakers, &PlanOptions::default());
        assert_eq!(plan.vm_count(), 3);
    }

    #[test]
    fn hourly_cost_sums_skus() {
        let (dc, devices, speakers) = s_dc_ids();
        let plan = plan_vms(&dc.topo, &devices, &speakers, &PlanOptions::default());
        let expect: f64 = plan.vms.iter().map(|v| v.sku.usd_per_hour).sum();
        assert!((plan.hourly_cost_usd() - expect).abs() < 1e-9);
    }
}
