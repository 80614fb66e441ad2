//! Fault-injection subsystem tests: typed errors, recovery edge cases,
//! quarantine, and the differential guarantee that recovered FIBs match a
//! fault-free run bit for bit.

use crystalnet::prelude::*;
use crystalnet::PlanOptions;
use crystalnet_net::ClosTopology;

fn s_dc(seed: u64, plan: FaultPlan) -> (ClosTopology, Emulation) {
    let dc = crystalnet_net::ClosParams::s_dc().build();
    let prep = prepare(
        &dc.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions {
            target_vms: Some(5),
            ..PlanOptions::default()
        },
    );
    let emu = mockup(
        Arc::new(prep),
        MockupOptions::builder().seed(seed).fault_plan(plan).build(),
    );
    (dc, emu)
}

#[test]
fn out_of_range_targets_are_typed_errors() {
    let (dc, mut emu) = s_dc(1, FaultPlan::default());

    assert_eq!(
        emu.fail_and_recover_vm(999),
        Err(EmulationError::UnknownVm(999))
    );

    let bad_vm = FaultPlan::default().then(
        SimDuration::from_secs(1),
        FaultKind::VmCrash { vm: 999 }, //
    );
    assert_eq!(
        emu.run_fault_plan(&bad_vm),
        Err(EmulationError::UnknownVm(999))
    );

    let bad_link = FaultPlan::default().then(
        SimDuration::from_secs(1),
        FaultKind::LinkFlapBurst {
            link: LinkId(9_999_999),
            flaps: 1,
            period: SimDuration::from_secs(1),
        },
    );
    assert_eq!(
        emu.run_fault_plan(&bad_link),
        Err(EmulationError::UnknownLink(9_999_999))
    );

    // A ToR is not a speaker agent: SpeakerCrash must reject it.
    let bad_speaker = FaultPlan::default().then(
        SimDuration::from_secs(1),
        FaultKind::SpeakerCrash {
            device: dc.pods[0].tors[0],
        },
    );
    assert!(matches!(
        emu.run_fault_plan(&bad_speaker),
        Err(EmulationError::UnknownDevice(_))
    ));

    // Validation happens before injection: nothing was journaled.
    assert!(emu.journal.events.is_empty());
}

#[test]
fn devices_report_recovering_until_restored() {
    let (_, mut emu) = s_dc(2, FaultPlan::default());
    let vm_idx = (0..emu.prep.vm_plan.vms.len())
        .max_by_key(|&i| emu.prep.vm_plan.vms[i].devices.len())
        .unwrap();
    let victim = emu.prep.vm_plan.vms[vm_idx].devices[0];

    emu.fail_and_recover_vm(vm_idx).expect("recovery runs");
    // Synchronous injection returns before the boot replays: the device
    // must answer `DeviceRecovering`, not pretend to be healthy.
    assert!(matches!(
        emu.pull_states(victim),
        Err(EmulationError::DeviceRecovering(_))
    ));
    emu.settle().expect("re-converges");
    let st = emu.pull_states(victim).expect("restored");
    assert!(st.up);
    assert!(st.fib_prefixes > 100);
}

#[test]
fn same_vm_can_fail_twice_sequentially() {
    let (_, mut emu) = s_dc(3, FaultPlan::default());
    let vm_idx = (0..emu.prep.vm_plan.vms.len())
        .max_by_key(|&i| emu.prep.vm_plan.vms[i].devices.len())
        .unwrap();

    // Each synchronous injection restores the VM before returning, so a
    // second failure of the same VM is legal and recovers again.
    emu.fail_and_recover_vm(vm_idx).expect("first recovery");
    emu.settle().expect("converges after first");
    emu.fail_and_recover_vm(vm_idx).expect("second recovery");
    emu.settle().expect("converges after second");
    assert_eq!(emu.journal.recoveries().len(), 2);
}

#[test]
fn exhausted_retries_quarantine_to_a_spare_and_the_dead_vm_stays_dead() {
    // All four reboot attempts fail: the health monitor gives up on the
    // VM and re-places its sandboxes on a spare.
    let vm_idx = 0;
    let plan = FaultPlan::default().then(
        SimDuration::from_secs(5),
        FaultKind::VmSlowRestart {
            vm: vm_idx,
            failed_attempts: 4,
        },
    );
    let (_, mut emu) = s_dc(4, plan);

    assert!(emu.journal.declared_dead(vm_idx));
    let quarantined = emu.journal.events.iter().any(
        |e| matches!(e.kind, JournalKind::VmQuarantined { vm, .. } if vm == vm_idx), //
    );
    assert!(quarantined, "retry exhaustion must quarantine");
    assert!(!emu.journal.recoveries().is_empty());

    // The displaced devices live on their spare and answer the APIs.
    let victims = emu.prep.vm_plan.vms[vm_idx].devices.clone();
    for d in &victims {
        let sb = emu.sandboxes[d];
        assert_ne!(sb.vm, vm_idx, "sandbox must have moved off the dead VM");
        let st = emu.pull_states(*d).expect("displaced device reachable");
        assert!(st.up);
        assert!(st.fib_prefixes > 100);
        // Fig. 6 follows the sandbox: the management edge hangs off the
        // spare's bridge, two hops from the jumpbox.
        let name = &emu.topo.device(*d).name;
        assert_eq!(emu.mgmt.vm_of(name), Some(emu.vm_ids[sb.vm]), "{name}");
        assert_eq!(emu.mgmt.hops_to(name), Some(2), "{name}");
    }
    assert!(emu.mgmt.is_tree());

    // A quarantined VM cannot fail again: it is already dead.
    assert_eq!(
        emu.fail_and_recover_vm(vm_idx),
        Err(EmulationError::VmDown(vm_idx))
    );
}

#[test]
fn vm_failure_during_inflight_reload_converges() {
    let (_, mut emu) = s_dc(5, FaultPlan::default());
    let vm_idx = (0..emu.prep.vm_plan.vms.len())
        .max_by_key(|&i| emu.prep.vm_plan.vms[i].devices.len())
        .unwrap();
    let dev = emu.prep.vm_plan.vms[vm_idx].devices[0];
    let cfg = emu
        .prep
        .configs
        .iter()
        .find(|(d, _)| *d == dev)
        .unwrap()
        .1
        .clone();

    // The reload's config push is in flight (scheduled at now+downtime)
    // when the hosting VM dies. The push lands on a powered-off device
    // and is dropped; recovery replays the prepared config instead.
    emu.reload(dev, cfg, false);
    emu.fail_and_recover_vm(vm_idx)
        .expect("failure mid-reload recovers");
    emu.settle()
        .expect("converges despite the lost config push");
    let st = emu.pull_states(dev).expect("device restored");
    assert!(st.up);
    assert!(st.fib_prefixes > 100);
}

#[test]
fn heartbeat_misses_and_backoff_are_journaled() {
    let plan = FaultPlan::default().then(
        SimDuration::from_secs(7),
        FaultKind::VmSlowRestart {
            vm: 1,
            failed_attempts: 1,
        },
    );
    let (_, emu) = s_dc(6, plan);

    // Detection: exactly miss_threshold consecutive misses, then death.
    assert_eq!(
        emu.journal.misses_for(1),
        HealthPolicy::default().miss_threshold
    );
    assert!(emu.journal.declared_dead(1));

    // Bounded backoff: attempt 1 fails, attempt 2 (after a doubled
    // delay) succeeds.
    let attempts: Vec<(u32, SimDuration)> = emu
        .journal
        .events
        .iter()
        .filter_map(|e| match e.kind {
            JournalKind::RebootAttempt {
                vm: 1,
                attempt,
                backoff,
            } => Some((attempt, backoff)),
            _ => None,
        })
        .collect();
    assert_eq!(
        attempts,
        vec![
            (1, SimDuration::from_secs(2)),
            (2, SimDuration::from_secs(4)),
        ]
    );
    let recoveries = emu.journal.recoveries();
    assert_eq!(recoveries.len(), 1);
    assert!(recoveries[0].1 > SimDuration::ZERO);
    assert_eq!(emu.journal.max_recovery_latency(), Some(recoveries[0].1));
}

#[test]
fn delayed_heartbeats_below_threshold_are_tolerated() {
    let plan = FaultPlan::default().then(
        SimDuration::from_secs(3),
        FaultKind::DelayedHeartbeat { vm: 2, misses: 2 },
    );
    let (_, emu) = s_dc(7, plan);
    assert_eq!(emu.journal.misses_for(2), 2);
    assert!(
        !emu.journal.declared_dead(2),
        "below the threshold the monitor must not overreact"
    );
    assert!(emu.journal.recoveries().is_empty());
}

#[test]
fn speaker_crash_restarts_with_fresh_epoch_and_resyncs() {
    let (_, mut emu) = s_dc(8, FaultPlan::default());
    let speaker = emu.prep.speaker_plan.scripts[0].0;
    let plan = FaultPlan::default().then(
        SimDuration::from_secs(10),
        FaultKind::SpeakerCrash { device: speaker },
    );
    let report = emu.run_fault_plan(&plan).expect("plan executes");
    assert_eq!(report.injected, 1);

    let epochs: Vec<u64> = emu
        .journal
        .events
        .iter()
        .filter_map(|e| match e.kind {
            JournalKind::SpeakerRestarted { device, epoch } if device == speaker.0 => Some(epoch),
            _ => None,
        })
        .collect();
    assert_eq!(epochs, vec![1], "restart must bump the incarnation epoch");
    // The restarted speaker's routes came back: externally originated
    // prefixes are reachable again after resync.
    let st = emu.pull_states(speaker).expect("speaker back");
    assert!(st.up);
}

#[test]
fn post_recovery_fibs_are_bit_identical_to_a_fault_free_run() {
    // The acceptance guarantee: inject a VM failure + recovery, settle,
    // and every FIB in the network equals the FIB of an emulation that
    // never saw the fault.
    let plan = FaultPlan::default().then(
        SimDuration::from_secs(20),
        FaultKind::VmCrash { vm: 1 }, //
    );
    let (dc, faulted) = s_dc(42, plan);
    let (_, mut clean) = s_dc(42, FaultPlan::default());
    clean.settle().expect("clean run settles");

    assert!(!faulted.journal.recoveries().is_empty());
    for (id, d) in dc.topo.devices() {
        match (clean.sim.fib(id), faulted.sim.fib(id)) {
            (None, None) => {}
            (Some(fa), Some(fb)) => {
                assert_eq!(fa, fb, "post-recovery FIB diverged on {}", d.name);
            }
            _ => panic!("OS presence differs on {}", d.name),
        }
    }
}
