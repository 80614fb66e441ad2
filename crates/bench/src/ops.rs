//! §8.3 (reload and VM-failure recovery) and the DESIGN.md ablations
//! (Linux bridge vs OVS; vendor grouping on/off).

use crate::config::{figure8_configs, prepare_whole, Scale};
use crate::{claim, Claim, PaperResult};
use crystalnet::{mockup, Emulation, FaultKind, FaultPlan, MockupOptions, PlanOptions};
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

/// Mockup options with only the seed set.
fn seeded(seed: u64) -> MockupOptions {
    MockupOptions::builder().seed(seed).build()
}

/// Measures reload downtime per device class on an M-DC emulation
/// (M-DC leaf/spine radix is closest to the paper's devices).
fn reload_comparison(seed: u64) -> Vec<ReloadRow> {
    let dc = ClosParams::m_dc().build();
    let plan = PlanOptions {
        max_devices_per_vm: 40,
        max_ifaces_per_vm: 4_000,
        target_vms: Some(50),
        ..PlanOptions::default()
    };
    let mut emu = mockup(prepare_whole(&dc.topo, &plan), seeded(seed));
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

/// Measures VM failure recovery at the packing densities the planner
/// produces for S-DC: 4 devices per VM, and its RAM cap of 9 (any denser
/// request gets the same 9-device plan).
fn recovery_by_density(seed: u64) -> Vec<RecoveryRow> {
    let mut rows = Vec::new();
    for (max_per_vm, target) in [(4u32, 40u32), (12, 14)] {
        let plan = PlanOptions {
            max_devices_per_vm: max_per_vm,
            max_ifaces_per_vm: 4_000,
            target_vms: Some(target),
            ..PlanOptions::default()
        };
        let prep = prepare_whole(&ClosParams::s_dc().build().topo, &plan);
        let mut emu = mockup(prep, seeded(seed));
        let vm_idx = densest_vm(&emu);
        let density = emu.prep.vm_plan.vms[vm_idx].devices.len();
        let recovery = emu.fail_and_recover_vm(vm_idx).expect("valid live VM");
        let _ = emu.settle();
        rows.push(RecoveryRow { density, recovery });
    }
    rows
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
fn recovery_by_fault_kind(seed: u64) -> Vec<FaultRecoveryRow> {
    let plan = PlanOptions {
        target_vms: Some(16),
        ..PlanOptions::default()
    };
    let prep = prepare_whole(&ClosParams::s_dc().build().topo, &plan);
    let at = SimDuration::from_secs(15);
    let slow_restart = |failed_attempts| FaultKind::VmSlowRestart {
        vm: 0,
        failed_attempts,
    };
    let speaker = prep.speaker_plan.scripts[0].0;
    let scenarios = [
        ("direct-vm-crash", None),
        ("vm-crash", Some(FaultKind::VmCrash { vm: 0 })),
        ("vm-slow-restart", Some(slow_restart(2))),
        ("quarantine", Some(slow_restart(4))),
        (
            "speaker-crash",
            Some(FaultKind::SpeakerCrash { device: speaker }),
        ),
    ];
    scenarios
        .into_iter()
        .map(|(scenario, fault)| {
            let mut emu = mockup(Arc::clone(&prep), seeded(seed));
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

/// One ablation variant: a mockup of the DC `dc` describes, planned by
/// `plan`.
fn ablation(
    variant: String,
    dc: &ClosParams,
    plan: &PlanOptions,
    opts: MockupOptions,
) -> AblationRow {
    let prep = prepare_whole(&dc.build().topo, plan);
    let vms = prep.vm_plan.vm_count();
    let metrics = mockup(prep, opts).metrics;
    let (network_ready, mockup) = (metrics.network_ready, metrics.mockup);
    AblationRow {
        variant,
        network_ready,
        mockup,
        vms,
    }
}

/// §8.3 reload and recovery, plus the DESIGN.md ablations, and the
/// paper's claims on them. Ablation 1 (§6.2) is Linux bridge vs OVS for
/// the virtual-link fabric. Ablation 2 (§6.2) is vendor grouping on vs
/// off: with grouping off the build still *works* here (the simulated
/// kernel has no cross-vendor sysctl conflicts), so the measured quantity
/// is the packing/VM-count effect; the correctness argument is
/// documented, not simulated.
pub fn sec83(scale: &Scale) -> PaperResult {
    let (reload, recovery) = (reload_comparison(3), recovery_by_density(4));
    let faults = recovery_by_fault_kind(7);
    let s_dc = &figure8_configs(scale)[0];
    let bridge: Vec<_> = [BridgeImpl::LinuxBridge, BridgeImpl::Ovs]
        .into_iter()
        .map(|bridge| {
            let opts = MockupOptions::builder().seed(5).bridge(bridge).build();
            ablation(
                format!("{bridge:?}"),
                &s_dc.params,
                &s_dc.plan_options(),
                opts,
            )
        })
        .collect();
    let grouping: Vec<_> = [(true, "vendor-grouped"), (false, "mixed-vendors")]
        .into_iter()
        .map(|(vendor_grouping, variant)| {
            let plan = PlanOptions {
                vendor_grouping,
                ..PlanOptions::default()
            };
            ablation(variant.into(), &ClosParams::s_dc(), &plan, seeded(6))
        })
        .collect();

    let mut text = String::new();
    out!(
        text,
        "\n=== §8.3: Reload — two-layer design vs everything-together strawman ==="
    );
    out!(text, "Device    ifaces    two-layer     strawman    extra");
    for r in &reload {
        let [two_layer, strawman, extra] =
            [r.two_layer, r.strawman, r.strawman - r.two_layer].map(|d| d.to_string());
        let (class, ifaces) = (&r.class, r.ifaces);
        out!(
            text,
            "{class:<8} {ifaces:>7} {two_layer:>12} {strawman:>12} {extra:>8}"
        );
    }
    out!(
        text,
        "paper: two-layer reload ~3s; strawman at least 15 extra seconds on its devices"
    );
    out!(
        text,
        "\n=== §8.3: VM failure recovery vs deployment density ==="
    );
    out!(text, "     devices on VM     recovery");
    for r in &recovery {
        out!(text, "{:>18} {:>12}", r.density, r.recovery.to_string());
    }
    out!(
        text,
        "paper: 10-50 seconds depending on deployment density (VM reboot excluded)"
    );
    out!(
        text,
        "\n=== §8.3: recovery latency by fault kind (S-DC, 16 VMs) ==="
    );
    out!(text, "fault                devices     recovery");
    for r in &faults {
        let secs = r.recovery.as_secs_f64();
        out!(text, "{:<18} {:>9} {secs:>11.2}s", r.scenario, r.devices);
    }
    for (title, rows) in [
        ("Linux bridge vs OVS (S-DC/5)", &bridge),
        ("vendor grouping on/off (S-DC)", &grouping),
    ] {
        out!(text, "\n=== Ablation: {title} ===");
        out!(text, "variant             VMs   network-ready       mockup");
        for r in rows {
            let [network, mockup] = [r.network_ready, r.mockup].map(|d| d.to_string());
            let (variant, vms) = (&r.variant, r.vms);
            out!(text, "{variant:<16} {vms:>6} {network:>15} {mockup:>12}");
        }
    }
    let claims = claims(&reload, &recovery, &faults, &bridge);
    PaperResult::new(text, "§8.3", claims)
}

/// The paper's §8.3 claims, checked against the reload rows, the density
/// rows (sparsest first), the fault-kind rows and the bridge ablation
/// (Linux bridge, then OVS).
#[must_use]
pub fn claims(
    reload: &[ReloadRow],
    recovery: &[RecoveryRow],
    faults: &[FaultRecoveryRow],
    bridge: &[AblationRow],
) -> Vec<Claim> {
    let join = |ds: &[SimDuration]| {
        ds.iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join(" / ")
    };
    let mut by_radix: Vec<_> = reload
        .iter()
        .map(|r| (r.ifaces, r.strawman - r.two_layer))
        .collect();
    by_radix.sort_unstable();
    let extra: Vec<_> = by_radix.iter().map(|&(_, extra)| extra).collect();
    let (radix, widest) = by_radix[by_radix.len() - 1];
    let two_layer = reload[0].two_layer;
    let recoveries: Vec<_> = recovery.iter().map(|r| r.recovery).collect();
    let densest = recoveries[recoveries.len() - 1];
    let recovered = faults.iter().filter(|f| f.devices > 0).count();
    let (linux, ovs) = (bridge[0].network_ready, bridge[1].network_ready);
    let secs = SimDuration::from_secs;
    vec![
        claim(
            "two-layer reload is the same for every device class",
            two_layer.to_string(),
            reload.iter().all(|r| r.two_layer == two_layer),
        ),
        claim(
            "the strawman's extra time rises with interface count",
            join(&extra),
            extra.windows(2).all(|w| w[0] < w[1]),
        ),
        claim(
            "the strawman costs ≥ 15 s extra at the largest radix",
            format!("{widest} at {radix} ifaces"),
            widest >= secs(15),
        ),
        claim(
            "recovery does not fall as density rises",
            join(&recoveries),
            recoveries.windows(2).all(|w| w[0] <= w[1]),
        ),
        claim(
            "recovery at the densest plan takes 10-50 s",
            densest.to_string(),
            (secs(10)..=secs(50)).contains(&densest),
        ),
        claim(
            "every fault kind recovers",
            format!("{recovered}/{} kinds", faults.len()),
            recovered == faults.len(),
        ),
        claim(
            "OVS network-ready is above Linux bridge",
            format!("{ovs} vs {linux}"),
            ovs > linux,
        ),
    ]
}
