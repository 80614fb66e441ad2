//! Copy-on-write fork tests: the isolation guarantee (no change or
//! fault applied to a fork may perturb the parent), the rollback
//! guarantee (dropping N forks leaves the baseline byte-identical to an
//! untouched run), and the commit-path differential guarantee (a
//! committed fork lands on the same FIBs as a cold boot of the final
//! state).

use crystalnet::prelude::*;
use crystalnet::PlanOptions;
use crystalnet_dataplane::Fib;
use crystalnet_net::fixtures::fig7;
use crystalnet_net::{DeviceId as Dev, LinkId};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Whole-network fig. 7 mockup.
fn fig7_emu(seed: u64) -> Emulation {
    let f = fig7();
    let prep = prepare(
        &f.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    );
    mockup(Arc::new(prep), MockupOptions::builder().seed(seed).build())
}

/// Every emulated device's full FIB, keyed by id.
fn fib_map(emu: &Emulation) -> BTreeMap<Dev, Fib> {
    let mut out = BTreeMap::new();
    for &dev in emu.sandboxes.keys() {
        if let Some(os) = emu.sim.os(dev) {
            out.insert(dev, os.fib().clone());
        }
    }
    out
}

/// The prepared config of one device, cloned for editing.
fn prepared_config(emu: &Emulation, dev: Dev) -> crystalnet_config::DeviceConfig {
    emu.prep
        .configs
        .iter()
        .find(|(d, _)| *d == dev)
        .map(|(_, c)| c.clone())
        .expect("device has a prepared config")
}

/// A config update that adds one announced network to a ToR.
fn announce_extra(emu: &Emulation, tor: Dev, third_octet: u8) -> ChangeSet {
    let mut cfg = prepared_config(emu, tor);
    cfg.bgp
        .as_mut()
        .unwrap()
        .networks
        .push(format!("10.77.{third_octet}.0/24").parse().unwrap());
    ChangeSet::new().config_update(tor, cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn random_changes_and_faults_on_forks_never_touch_the_parent(
        change_kind in 0u8..4,
        link_ix in 0u32..64,
        tor_ix in 0u32..6,
        fault_seed in 0u64..1024,
        fault_events in 1usize..4,
    ) {
        let f = fig7();
        let emu = fig7_emu(7);
        let fibs_before = fib_map(&emu);
        let report_before = emu.pull_report().to_json();
        let journal_before = emu.journal.events.len();

        let links: Vec<LinkId> = f.topo.links().map(|(lid, _)| lid).collect();
        let lid = links[link_ix as usize % links.len()];
        let tor = f.tors[tor_ix as usize % f.tors.len()];

        // A random change set on one fork...
        let mut fork = emu.fork();
        match change_kind {
            0 => {
                fork.apply(&ChangeSet::new().link_down(lid)).unwrap();
            }
            1 => {
                fork.apply(&announce_extra(&emu, tor, (tor_ix % 250) as u8))
                    .unwrap();
            }
            2 => {
                fork.apply(&ChangeSet::new().device_remove(tor)).unwrap();
            }
            _ => {
                fork.apply(&ChangeSet::new().link_down(lid)).unwrap();
                fork.apply(&ChangeSet::new().link_up(lid)).unwrap();
            }
        }

        // ...and a random fault drill on another, concurrently alive.
        let mut drill = emu.fork();
        let plan = FaultPlan::generate(
            fault_seed,
            SimDuration::from_secs(30),
            emu.prep.vm_plan.vms.len(),
            &links,
            &[],
            fault_events,
        );
        // The drill may legitimately fail to settle on hostile plans; the
        // property under test is the *parent's* integrity either way.
        let _ = drill.inject_faults(&plan);

        prop_assert_eq!(&fib_map(&emu), &fibs_before, "fork perturbed parent FIBs");
        prop_assert_eq!(
            &emu.pull_report().to_json(),
            &report_before,
            "fork perturbed the parent's canonical report bytes"
        );
        prop_assert_eq!(emu.journal.events.len(), journal_before);

        // Both forks diverged for real — the isolation is not vacuous.
        if change_kind != 3 {
            prop_assert!(!fork.diff_against_parent().is_empty());
        }
        if !plan.is_empty() {
            prop_assert!(drill.emulation().journal.events.len() > journal_before);
        }
    }
}

#[test]
fn n_dropped_forks_leave_the_baseline_byte_identical() {
    let f = fig7();
    let emu = fig7_emu(17);
    let untouched = fig7_emu(17);

    let lid = f.topo.links().next().map(|(lid, _)| lid).unwrap();
    for i in 0..4u8 {
        let mut fork = emu.fork();
        match i % 3 {
            0 => {
                fork.apply(&ChangeSet::new().link_down(lid)).unwrap();
            }
            1 => {
                fork.apply(&announce_extra(&emu, f.tors[i as usize], i))
                    .unwrap();
            }
            _ => {
                fork.apply(&ChangeSet::new().device_remove(f.tors[5]))
                    .unwrap();
            }
        }
        assert!(!fork.diff_against_parent().is_empty());
        drop(fork); // rollback ≡ drop
    }

    assert_eq!(
        fib_map(&emu),
        fib_map(&untouched),
        "dropped forks must leave the baseline exactly as an untouched run"
    );
    assert_eq!(
        emu.pull_report().to_json(),
        untouched.pull_report().to_json(),
        "canonical report bytes diverged after dropped forks"
    );
    assert_eq!(emu.now(), untouched.now());
    assert_eq!(
        emu.sim.engine.events_pending(),
        untouched.sim.engine.events_pending()
    );
}

#[test]
fn committed_fork_matches_cold_boot() {
    let f = fig7();
    let t1 = f.tors[0];

    let mut emu = fig7_emu(7);
    let changes = announce_extra(&emu, t1, 0);
    let final_cfg = {
        let mut cfg = prepared_config(&emu, t1);
        cfg.bgp
            .as_mut()
            .unwrap()
            .networks
            .push("10.77.0.0/24".parse().unwrap());
        cfg
    };

    let mut fork = emu.fork();
    fork.apply(&changes).expect("network edit applies on fork");
    let deltas = fork.commit(&mut emu);
    assert_eq!(deltas.len(), 1);
    assert!(deltas[0].total_fib_changes() > 0);

    // Differential: a cold mockup whose prepared config is already
    // the final one must land on byte-identical FIBs everywhere.
    let mut prep = prepare(
        &f.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    );
    for (d, c) in &mut prep.configs {
        if *d == t1 {
            *c = final_cfg.clone();
        }
    }
    let cold = mockup(Arc::new(prep), MockupOptions::builder().seed(7).build());
    assert_eq!(
        fib_map(&emu),
        fib_map(&cold),
        "committed fork diverged from cold full settle"
    );
}

#[test]
fn committed_link_down_matches_full_resettle() {
    let f = fig7();
    let lid = f
        .topo
        .links()
        .find(|(_, l)| {
            let pair = [l.a.device, l.b.device];
            pair.contains(&f.spines[0]) && pair.contains(&f.leaves[0])
        })
        .map(|(lid, _)| lid)
        .expect("fig7 has an s1-l1 link");

    let mut emu = fig7_emu(11);
    let mut fork = emu.fork();
    let delta = fork
        .apply(&ChangeSet::new().link_down(lid))
        .expect("link-down applies on fork");
    assert!(delta.total_fib_changes() > 0);
    fork.commit(&mut emu);

    // Reference: the pre-existing full path — fresh mockup, Table 2
    // Disconnect, full settle.
    let mut cold = fig7_emu(11);
    cold.disconnect(lid);
    cold.settle().expect("cold path converges");
    assert_eq!(
        fib_map(&emu),
        fib_map(&cold),
        "committed link-down diverged from full settle"
    );
}

#[test]
fn rehearse_is_a_fork_per_step_wrapper() {
    // The multi-step wrapper and a hand-rolled fork/commit loop must be
    // indistinguishable: same per-step deltas, same final FIBs.
    let f = fig7();
    let lid = f
        .topo
        .links()
        .find(|(_, l)| {
            let pair = [l.a.device, l.b.device];
            pair.contains(&f.spines[0]) && pair.contains(&f.leaves[0])
        })
        .map(|(lid, _)| lid)
        .unwrap();
    let sets = [
        ("drain", ChangeSet::new().link_down(lid)),
        ("restore", ChangeSet::new().link_up(lid)),
    ];

    let mut via_rehearse = fig7_emu(13);
    let report = via_rehearse.rehearse(
        sets.iter()
            .map(|(name, set)| RehearsalStep::new(*name, set.clone())),
    );
    assert!(report.all_passed(), "plan runs: {}", report.summary());

    let mut via_forks = fig7_emu(13);
    let mut manual: Vec<ConvergenceDelta> = Vec::new();
    for (_, set) in &sets {
        let mut fork = via_forks.fork();
        fork.apply(set).expect("step applies");
        manual.extend(fork.commit(&mut via_forks));
    }

    assert_eq!(report.steps.len(), manual.len());
    for (step, m) in report.steps.iter().zip(&manual) {
        let (name, d) = (
            &step.name,
            step.delta.as_ref().expect("a passed step has a delta"),
        );
        assert_eq!(d.fib_changes, m.fib_changes, "step {name} diverged");
        assert_eq!(d.settled_at, m.settled_at, "step {name} settled apart");
        assert_eq!(d.dirty, m.dirty);
    }
    assert_eq!(fib_map(&via_rehearse), fib_map(&via_forks));
}

#[test]
fn a_tool_step_is_measured_like_a_manual_fork_running_the_same_tools() {
    // The tool-step twin of the test above: `login_and_run` inside a
    // rehearsal step and the same call on a hand-rolled fork must report
    // the same FIB mutations, and the step must be journalled.
    let f = fig7();
    let tor = f.topo.device(f.tors[0]).name.clone();
    let prefix: Ipv4Prefix = "10.99.0.0/24".parse().unwrap();

    let mut manual = fig7_emu(13);
    let before = fib_map(&manual);
    let mut fork = manual.fork();
    fork.emulation_mut()
        .login_and_run(&tor, MgmtCommand::AddNetwork(prefix))
        .expect("the ToR answers");
    fork.emulation_mut().settle().expect("converges");
    let expected = fork.diff_against_parent();
    assert!(!expected.is_empty(), "a new network must move FIBs");
    fork.commit(&mut manual);

    let mut emu = fig7_emu(13);
    let host = tor.clone();
    let report = emu.rehearse([RehearsalStep::tools("announce 10.99/24", move |emu| {
        emu.login_and_run(&host, MgmtCommand::AddNetwork(prefix))
            .map(drop)
    })]);
    assert!(report.all_passed(), "{}", report.summary());
    let delta = report.steps[0].delta.as_ref().expect("measured");
    assert_eq!(delta.fib_changes, expected, "tool step ≠ manual fork");
    assert!(delta.applied.is_empty() && delta.dirty.is_empty());
    assert!(delta.outside_dirty().is_empty(), "no prediction, no misses");
    assert_eq!(fib_map(&emu), fib_map(&manual));

    // A tool step whose login fails is rejected with the typed error and
    // never reaches the baseline.
    let mut emu = fig7_emu(13);
    let report = emu.rehearse([RehearsalStep::tools("typo'd host", |emu| {
        emu.login_and_run("no-such-host", MgmtCommand::ShowRoutes)
            .map(drop)
    })]);
    assert!(matches!(
        report.steps[0].outcome,
        StepOutcome::Rejected(EmulationError::UnknownDevice(_))
    ));
    assert_eq!(fib_map(&emu), before);
}

#[test]
fn concurrent_forks_rehearse_on_worker_threads() {
    let f = fig7();
    let emu = fig7_emu(23);
    let before = fib_map(&emu);
    let lid = f.topo.links().next().map(|(lid, _)| lid).unwrap();

    let mut drain = emu.fork();
    let mut announce = emu.fork();
    let t2 = f.tors[1];
    let announce_set = announce_extra(&emu, t2, 9);
    let (drain, announce) = std::thread::scope(|s| {
        let a = s.spawn(move || {
            drain.apply(&ChangeSet::new().link_down(lid)).unwrap();
            drain
        });
        let b = s.spawn(move || {
            announce.apply(&announce_set).unwrap();
            announce
        });
        (a.join().unwrap(), b.join().unwrap())
    });

    // Each child saw only its own plan; the parent saw neither.
    assert!(!drain.diff_against_parent().is_empty());
    assert!(announce
        .diff_against_parent()
        .values()
        .flatten()
        .all(|c| c.prefix == "10.77.9.0/24".parse().unwrap()));
    assert!(drain
        .diff_against_parent()
        .values()
        .flatten()
        .all(|c| c.prefix != "10.77.9.0/24".parse().unwrap()));
    assert_eq!(fib_map(&emu), before);
}

#[test]
fn snapshot_describes_the_fork_point() {
    let emu = fig7_emu(29);
    let snap = emu.snapshot();
    assert_eq!(snap.devices, 14);
    assert_eq!(snap.at, emu.now());
    assert_eq!(snap.seed, 29);
    assert!(snap.fib_entries > 0);
    assert!(snap.rib_entries >= snap.fib_entries);
    assert_eq!(snap.events_executed, emu.sim.engine.events_executed());
    // Whole-network boundaries have no static speakers to epoch-track.
    assert!(snap.speaker_epochs.is_empty());
    assert!(snap.summary().contains("14 device(s)"));

    // A fork's base is the same snapshot, and a fresh fork's child reads
    // back the identical state.
    let fork = emu.fork();
    assert_eq!(fork.base().fib_entries, snap.fib_entries);
    assert_eq!(fork.base().pending_events, snap.pending_events);
    assert!(fork.diff_against_parent().is_empty());
    assert_eq!(fib_map(fork.emulation()), fib_map(&emu));
}

#[test]
fn fork_of_a_fork_keeps_every_generation_isolated() {
    let f = fig7();
    let emu = fig7_emu(31);
    let lid = f.topo.links().next().map(|(lid, _)| lid).unwrap();

    let mut child = emu.fork();
    child.apply(&ChangeSet::new().link_down(lid)).unwrap();
    let child_fibs = fib_map(child.emulation());

    // Branch a grandchild off the drained child and restore the link
    // there: the child must stay drained, the parent pristine.
    let mut grandchild = child.emulation().fork();
    grandchild.apply(&ChangeSet::new().link_up(lid)).unwrap();

    assert_eq!(fib_map(child.emulation()), child_fibs);
    assert_eq!(fib_map(&emu), fib_map(grandchild.emulation()));
    assert!(!grandchild.diff_against_parent().is_empty() || !child_fibs.is_empty());
}

/// What a fork must keep to itself of the cloud fleet: VM count, dollars
/// burned so far, hourly burn rate and Figure 9's CPU series.
fn fleet(emu: &Emulation) -> (usize, f64, f64, Vec<f64>) {
    let cloud = emu.cloud();
    (
        cloud.vm_count(),
        cloud.cost_usd(emu.now()),
        cloud.hourly_rate_usd(),
        emu.cpu_p95_series(),
    )
}

#[test]
fn a_forks_fleet_never_reaches_its_parent() {
    let mut emu = fig7_emu(37);
    let before = fleet(&emu);

    // Every reboot of VM 0 fails, so its devices are quarantined on a
    // spare the fork provisions.
    let mut fork = emu.fork();
    let plan = FaultPlan::default().then(
        SimDuration::from_secs(10),
        FaultKind::VmSlowRestart {
            vm: 0,
            failed_attempts: 4,
        },
    );
    fork.inject_faults(&plan)
        .expect("the quarantine re-converges");
    let child = fleet(fork.emulation());
    assert_eq!(child.0, before.0 + 1, "the quarantine provisioned a spare");
    assert_eq!(fleet(&emu), before, "the fork's fleet reached its parent");

    fork.commit(&mut emu);
    assert_eq!(fleet(&emu), child);
}

#[test]
fn a_device_copy_reads_as_its_source_until_it_writes() {
    // The figures the memory section and a fork's `CowStats` are made of
    // (RIB size, FIB prefixes, routes and bytes) must not tell a copy
    // with no writes from its source, and neither may the FIB diff.
    let dc = crystalnet_net::ClosParams::s_dc().build();
    let prep = prepare(
        &dc.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    );
    let emu = mockup(Arc::new(prep), MockupOptions::builder().seed(42).build());
    for &dev in emu.sandboxes.keys() {
        let Some(os) = emu.sim.os(dev) else { continue };
        // The second copy reads through the base the first one froze.
        for _ in 0..2 {
            let copy = os.clone_boxed();
            let (a, b) = (os.fib(), copy.fib());
            assert_eq!(copy.rib_size(), os.rib_size(), "{dev:?}");
            assert_eq!(b.mem_bytes(), a.mem_bytes(), "{dev:?}");
            assert_eq!(b.route_entry_count(), a.route_entry_count(), "{dev:?}");
            assert_eq!((b.len(), b), (a.len(), a), "{dev:?}");
            assert_eq!(b.diff_prefixes(a).count(), 0, "{dev:?}");
        }
    }
}
