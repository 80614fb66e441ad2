//! §8.3 (reload and VM-failure recovery) and the DESIGN.md ablations
//! (Linux bridge vs OVS; vendor grouping on/off).

use crate::config::DcConfig;
use crystalnet::{
    mockup,
    prepare,
    BoundaryMode,
    Emulation,
    FaultKind,
    FaultPlan,
    MockupOptions,
    PlanOptions,
    SpeakerSource, //
};
use crystalnet_net::ClosParams;
use crystalnet_sim::SimDuration;
use crystalnet_vnet::BridgeImpl;
use std::sync::Arc;

/// A §8.3 reload measurement for one device class.
pub struct ReloadRow {
    /// Device class label.
    pub class: String,
    /// Interface count of the measured device.
    pub ifaces: usize,
    /// Two-layer (CrystalNet) reload downtime.
    pub two_layer: SimDuration,
    /// Everything-together strawman downtime.
    pub strawman: SimDuration,
}

/// Measures reload downtime per device class on an M-DC emulation
/// (M-DC leaf/spine radix is closest to the paper's devices).
#[must_use]
pub fn reload_comparison(seed: u64) -> Vec<ReloadRow> {
    let dc = ClosParams::m_dc().build();
    let prep = prepare(
        &dc.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions {
            max_devices_per_vm: 40,
            max_ifaces_per_vm: 4_000,
            target_vms: Some(50),
            ..PlanOptions::default()
        },
    );
    let mut emu = mockup(Arc::new(prep), MockupOptions::builder().seed(seed).build());

    let targets = [
        ("ToR", dc.pods[0].tors[0]),
        ("Leaf", dc.pods[0].leaves[0]),
        ("Spine", dc.spine_groups[0][0]),
        ("Border", dc.borders[0]),
    ];
    let mut rows = Vec::new();
    for (class, dev) in targets {
        let cfg = emu
            .prep
            .configs
            .iter()
            .find(|(d, _)| *d == dev)
            .expect("emulated device")
            .1
            .clone();
        let two_layer = emu.reload(dev, cfg.clone(), false);
        let _ = emu.settle();
        let strawman = emu.reload(dev, cfg, true);
        let _ = emu.settle();
        rows.push(ReloadRow {
            class: class.into(),
            ifaces: dc.topo.device(dev).ifaces.len(),
            two_layer,
            strawman,
        });
    }
    rows
}

/// Prints the reload comparison.
pub fn print_reload(rows: &[ReloadRow]) {
    println!("\n=== §8.3: Reload — two-layer design vs everything-together strawman ===");
    println!(
        "{:<8} {:>7} {:>12} {:>12} {:>8}",
        "Device", "ifaces", "two-layer", "strawman", "extra"
    );
    for r in rows {
        println!(
            "{:<8} {:>7} {:>12} {:>12} {:>8}",
            r.class,
            r.ifaces,
            format!("{}", r.two_layer),
            format!("{}", r.strawman),
            format!("{}", r.strawman - r.two_layer),
        );
    }
    println!("paper: two-layer reload ~3s; strawman at least 15 extra seconds on its devices");
}

/// A §8.3 VM-recovery measurement.
pub struct RecoveryRow {
    /// Devices packed on the failed VM.
    pub density: usize,
    /// Recovery latency (excluding VM reboot).
    pub recovery: SimDuration,
}

/// The plan index of the VM hosting the most devices.
fn densest_vm(emu: &Emulation) -> usize {
    (0..emu.prep.vm_plan.vms.len())
        .max_by_key(|&i| emu.prep.vm_plan.vms[i].devices.len())
        .expect("plan has VMs")
}

/// Measures VM failure recovery at several packing densities.
#[must_use]
pub fn recovery_by_density(seed: u64) -> Vec<RecoveryRow> {
    let mut rows = Vec::new();
    for (max_per_vm, target) in [(4u32, 40u32), (12, 14), (25, 7), (40, 5)] {
        let dc = ClosParams::s_dc().build();
        let prep = prepare(
            &dc.topo,
            &[],
            BoundaryMode::WholeNetwork,
            SpeakerSource::OriginatedOnly,
            &PlanOptions {
                max_devices_per_vm: max_per_vm,
                max_ifaces_per_vm: 4_000,
                target_vms: Some(target),
                ..PlanOptions::default()
            },
        );
        let mut emu = mockup(Arc::new(prep), MockupOptions::builder().seed(seed).build());
        let vm_idx = densest_vm(&emu);
        let density = emu.prep.vm_plan.vms[vm_idx].devices.len();
        let recovery = emu.fail_and_recover_vm(vm_idx).expect("valid live VM");
        let _ = emu.settle();
        rows.push(RecoveryRow { density, recovery });
    }
    rows
}

/// Prints the recovery table.
pub fn print_recovery(rows: &[RecoveryRow]) {
    println!("\n=== §8.3: VM failure recovery vs deployment density ===");
    println!("{:>18} {:>12}", "devices on VM", "recovery");
    for r in rows {
        println!("{:>18} {:>12}", r.density, format!("{}", r.recovery));
    }
    println!("paper: 10-50 seconds depending on deployment density (VM reboot excluded)");
}

/// A §8.3 recovery measurement for one kind of injected fault.
pub struct FaultRecoveryRow {
    /// Fault scenario label.
    pub scenario: &'static str,
    /// Devices the recovery brought back.
    pub devices: usize,
    /// Virtual time from detection to recovery complete.
    pub recovery: SimDuration,
}

/// Measures how fast the emulation heals from one fault of each kind on
/// an S-DC packed onto 16 VMs: a direct synchronous VM failure, then —
/// through the typed fault plan, so the health monitor has to detect,
/// retry and quarantine — a VM crash, a VM whose first two reboots
/// fail, one that exhausts the retry budget (quarantine to a spare) and
/// a crashed speaker agent. Read from the structured journal.
#[must_use]
pub fn recovery_by_fault_kind(seed: u64) -> Vec<FaultRecoveryRow> {
    let dc = ClosParams::s_dc().build();
    let prep = Arc::new(prepare(
        &dc.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions {
            target_vms: Some(16),
            ..PlanOptions::default()
        },
    ));
    let at = SimDuration::from_secs(15);
    let slow_restart = |failed_attempts| FaultKind::VmSlowRestart {
        vm: 0,
        failed_attempts,
    };
    let scenarios = [
        ("direct-vm-crash", None),
        ("vm-crash", Some(FaultKind::VmCrash { vm: 0 })),
        ("vm-slow-restart", Some(slow_restart(2))),
        ("quarantine", Some(slow_restart(4))),
        (
            "speaker-crash",
            Some(FaultKind::SpeakerCrash {
                device: prep.speaker_plan.scripts[0].0,
            }),
        ),
    ];
    scenarios
        .into_iter()
        .map(|(scenario, fault)| {
            let mut emu = mockup(
                Arc::clone(&prep),
                MockupOptions::builder().seed(seed).build(),
            );
            match fault {
                None => {
                    emu.fail_and_recover_vm(densest_vm(&emu))
                        .expect("valid live VM");
                    emu.settle().expect("re-converges");
                }
                Some(kind) => {
                    emu.run_fault_plan(&FaultPlan::default().then(at, kind))
                        .expect("plan executes");
                }
            }
            // The *latest* recovery in virtual time, not emission order:
            // overlapping faults interleave in the raw journal.
            let (_, recovery, devices) = *emu
                .journal
                .sorted()
                .recoveries()
                .last()
                .expect("every scenario completes a recovery");
            FaultRecoveryRow {
                scenario,
                devices,
                recovery,
            }
        })
        .collect()
}

/// Prints the per-fault-kind recovery table.
pub fn print_fault_recovery(rows: &[FaultRecoveryRow]) {
    println!("\n=== §8.3: recovery latency by fault kind (S-DC, 16 VMs) ===");
    println!("{:<18} {:>9} {:>12}", "fault", "devices", "recovery");
    for r in rows {
        println!(
            "{:<18} {:>9} {:>11.2}s",
            r.scenario,
            r.devices,
            r.recovery.as_nanos() as f64 / 1e9
        );
    }
}

/// An ablation row: network-ready latency under a design variant.
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// Network-ready latency.
    pub network_ready: SimDuration,
    /// Whole mockup latency.
    pub mockup: SimDuration,
    /// VM count used.
    pub vms: usize,
}

/// Ablation 1 (§6.2): Linux bridge vs OVS for the virtual-link fabric.
#[must_use]
pub fn bridge_ablation(cfg: &DcConfig, seed: u64) -> Vec<AblationRow> {
    [BridgeImpl::LinuxBridge, BridgeImpl::Ovs]
        .into_iter()
        .map(|bridge| {
            let dc = cfg.params.build();
            let prep = prepare(
                &dc.topo,
                &[],
                BoundaryMode::WholeNetwork,
                SpeakerSource::OriginatedOnly,
                &cfg.plan_options(),
            );
            let vms = prep.vm_plan.vm_count();
            let emu = mockup(
                Arc::new(prep),
                MockupOptions::builder().seed(seed).bridge(bridge).build(),
            );
            AblationRow {
                variant: format!("{bridge:?}"),
                network_ready: emu.metrics.network_ready,
                mockup: emu.metrics.mockup,
                vms,
            }
        })
        .collect()
}

/// Ablation 2 (§6.2): vendor grouping on vs off. With grouping off the
/// build still *works* here (the simulated kernel has no cross-vendor
/// sysctl conflicts), so the measured quantity is the packing/VM-count
/// effect; the correctness argument is documented, not simulated.
#[must_use]
pub fn grouping_ablation(seed: u64) -> Vec<AblationRow> {
    [true, false]
        .into_iter()
        .map(|grouping| {
            let dc = ClosParams::s_dc().build();
            let prep = prepare(
                &dc.topo,
                &[],
                BoundaryMode::WholeNetwork,
                SpeakerSource::OriginatedOnly,
                &PlanOptions {
                    vendor_grouping: grouping,
                    ..PlanOptions::default()
                },
            );
            let vms = prep.vm_plan.vm_count();
            let emu = mockup(Arc::new(prep), MockupOptions::builder().seed(seed).build());
            AblationRow {
                variant: if grouping {
                    "vendor-grouped".into()
                } else {
                    "mixed-vendors".into()
                },
                network_ready: emu.metrics.network_ready,
                mockup: emu.metrics.mockup,
                vms,
            }
        })
        .collect()
}

/// Prints ablation rows.
pub fn print_ablation(title: &str, rows: &[AblationRow]) {
    println!("\n=== Ablation: {title} ===");
    println!(
        "{:<16} {:>6} {:>15} {:>12}",
        "variant", "VMs", "network-ready", "mockup"
    );
    for r in rows {
        println!(
            "{:<16} {:>6} {:>15} {:>12}",
            r.variant,
            r.vms,
            format!("{}", r.network_ready),
            format!("{}", r.mockup),
        );
    }
}
