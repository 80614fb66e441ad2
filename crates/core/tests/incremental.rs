//! Incremental re-convergence tests: the differential guarantee that a
//! warm-start session apply (fork, rehearse, commit) is bit-identical
//! to a full re-settle from the same seed, for every change kind;
//! plus dirty-set semantics (no-op diffs touch
//! nothing, speakers bound the ripple) and the interaction with fault
//! quarantine.

use crystalnet::prelude::*;
use crystalnet::PlanOptions;
use crystalnet_config::{
    config_diff, Acl, AclEntry, PrefixList, PrefixListEntry, RouteMap, RouteMapEntry, RouteMatch,
};
use crystalnet_dataplane::Fib;
use crystalnet_net::fixtures::fig7;
use crystalnet_net::{ClosParams, DeviceId as Dev};
use crystalnet_routing::harness::build_full_bgp_sim;
use crystalnet_routing::{PathAttrs, SpeakerScript, UniformWorkModel};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Whole-network fig. 7 mockup (no speakers).
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

/// Figure 7b boundary prepare: emulate S1-2, L1-4, T1-4; L5/L6 become
/// static speakers replaying a converged production snapshot.
fn fig7b_prep() -> PrepareOutput {
    let f = fig7();
    let mut prod = build_full_bgp_sim(
        &f.topo,
        Box::new(UniformWorkModel {
            boot: SimDuration::from_secs(1),
            ..UniformWorkModel::default()
        }),
    );
    prod.boot_all(SimTime::ZERO);
    prod.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::ZERO + SimDuration::from_mins(60),
    )
    .unwrap();
    let emulated: BTreeSet<Dev> = f
        .spines
        .iter()
        .chain(&f.leaves[..4])
        .chain(&f.tors[..4])
        .copied()
        .collect();
    prepare(
        &f.topo,
        &[],
        BoundaryMode::Explicit(emulated),
        SpeakerSource::Snapshot(&prod),
        &PlanOptions::default(),
    )
}

/// Applies `set` through the supported session path — fork, rehearse
/// on the child, commit the child back into `emu`.
fn apply_session(emu: &mut Emulation, set: &ChangeSet) -> Result<ConvergenceDelta, EmulationError> {
    let mut fork = emu.fork();
    let delta = fork.apply(set)?;
    fork.commit(emu);
    Ok(delta)
}

/// Every emulated device's full FIB, keyed by id.
fn fib_map(emu: &Emulation) -> BTreeMap<Dev, Fib> {
    let mut out = BTreeMap::new();
    let mut devs: Vec<Dev> = emu.sandboxes.keys().copied().collect();
    devs.sort_unstable_by_key(|d| d.0);
    for dev in devs {
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

/// A config that denies `deny` on import from every neighbor, via a
/// route-map over a prefix list.
fn deny_on_import(
    base: &crystalnet_config::DeviceConfig,
    deny: crystalnet_net::Ipv4Prefix,
) -> crystalnet_config::DeviceConfig {
    let mut cfg = base.clone();
    cfg.prefix_lists.insert(
        "PL-DENY".into(),
        PrefixList {
            entries: vec![PrefixListEntry {
                seq: 10,
                action: crystalnet_config::Action::Permit,
                prefix: deny,
                ge: None,
                le: None,
            }],
        },
    );
    cfg.route_maps.insert(
        "RM-IN".into(),
        RouteMap {
            entries: vec![
                RouteMapEntry {
                    seq: 10,
                    action: crystalnet_config::Action::Deny,
                    matches: vec![RouteMatch::PrefixList("PL-DENY".into())],
                    sets: vec![],
                },
                RouteMapEntry {
                    seq: 20,
                    action: crystalnet_config::Action::Permit,
                    matches: vec![],
                    sets: vec![],
                },
            ],
        },
    );
    for n in &mut cfg.bgp.as_mut().unwrap().neighbors {
        n.route_map_in = Some("RM-IN".into());
    }
    cfg
}

#[test]
fn noop_and_empty_changesets_touch_nothing() {
    let mut emu = fig7_emu(1);
    let before = fib_map(&emu);
    let at = emu.now();

    let delta = apply_session(&mut emu, &ChangeSet::new()).expect("empty set ok");
    assert!(delta.dirty.is_empty() && delta.fib_changes.is_empty());
    assert!(delta.dirty.is_empty() && delta.fib_changes.is_empty());
    assert_eq!(delta.settled_at, at);
    assert_eq!(delta.events_executed, 0);

    // A byte-identical config re-apply classifies as a no-op: nothing is
    // injected, no session resets, no FIB churn.
    let f = fig7();
    let same = prepared_config(&emu, f.spines[0]);
    let delta = apply_session(&mut emu, &ChangeSet::new().config_update(f.spines[0], same))
        .expect("no-op config ok");
    assert_eq!(delta.applied.len(), 1);
    assert_eq!(delta.applied[0].impact, Some(ChangeImpact::NoOp));
    assert!(delta.dirty.is_empty() && delta.fib_changes.is_empty());
    assert_eq!(fib_map(&emu), before, "no-op must not perturb any FIB");
}

#[test]
fn policy_edit_matches_cold_boot_across_workers() {
    let f = fig7();
    let spine = f.spines[0];

    let mut emu = fig7_emu(7);
    let base = prepared_config(&emu, spine);
    let t1_net = prepared_config(&emu, f.tors[0])
        .bgp
        .as_ref()
        .unwrap()
        .networks[0];
    let t2_net = prepared_config(&emu, f.tors[1])
        .bgp
        .as_ref()
        .unwrap()
        .networks[0];

    // Step 1: attach the deny policy — touching `neighbors` is a
    // session reset (who the device talks to changed shape).
    let deny_t1 = deny_on_import(&base, t1_net);
    let d1 = apply_session(
        &mut emu,
        &ChangeSet::new().config_update(spine, deny_t1.clone()),
    )
    .expect("session-reset change applies");
    assert_eq!(d1.applied[0].impact, Some(ChangeImpact::SessionReset));
    assert!(!d1.dirty.is_empty());
    assert!(
        emu.sim.os(spine).unwrap().fib().get(t1_net).is_none(),
        "spine must have filtered t1's prefix"
    );

    // Step 2: re-point the prefix list at t2 — a pure policy edit,
    // soft-refreshed over the live sessions (no reset): t1's prefix
    // must come back via route-refresh replay, t2's must go.
    let deny_t2 = deny_on_import(&deny_t1, t2_net);
    let d2 = apply_session(
        &mut emu,
        &ChangeSet::new().config_update(spine, deny_t2.clone()),
    )
    .expect("soft-refresh change applies");
    assert_eq!(d2.applied[0].impact, Some(ChangeImpact::SoftRefresh));
    let spine_changes = d2.fib_changes.get(&spine).expect("spine FIB changed");
    assert!(spine_changes
        .iter()
        .any(|c| c.prefix == t1_net && c.kind == crystalnet::FibChangeKind::Added));
    assert!(spine_changes
        .iter()
        .any(|c| c.prefix == t2_net && c.kind == crystalnet::FibChangeKind::Removed));

    // Differential: a cold mockup whose prepared config is already
    // the final one must land on byte-identical FIBs everywhere.
    let mut prep = {
        let f = fig7();
        prepare(
            &f.topo,
            &[],
            BoundaryMode::WholeNetwork,
            SpeakerSource::OriginatedOnly,
            &PlanOptions::default(),
        )
    };
    for (d, c) in &mut prep.configs {
        if *d == spine {
            *c = deny_t2.clone();
        }
    }
    let cold = mockup(Arc::new(prep), MockupOptions::builder().seed(7).build());
    assert_eq!(
        fib_map(&emu),
        fib_map(&cold),
        "warm incremental result diverged from cold full settle"
    );
    assert_eq!(
        emu.pull_config(spine).unwrap(),
        cold.pull_config(spine).unwrap()
    );
}

#[test]
fn link_down_matches_full_resettle_across_workers() {
    let f = fig7();
    // The S1-L1 link.
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
    let delta =
        apply_session(&mut emu, &ChangeSet::new().link_down(lid)).expect("link-down applies");
    assert!(delta.dirty.contains(&f.spines[0]) && delta.dirty.contains(&f.leaves[0]));
    assert!(
        delta.total_fib_changes() > 0,
        "losing a spine link must churn FIBs"
    );

    // Reference: the pre-existing full path — fresh mockup, Table 2
    // Disconnect, full settle.
    let mut cold = fig7_emu(11);
    cold.disconnect(lid);
    cold.settle().expect("cold path converges");
    assert_eq!(
        fib_map(&emu),
        fib_map(&cold),
        "incremental link-down diverged from full settle"
    );
}

#[test]
fn speaker_route_swap_matches_cold_boot_across_workers() {
    let f = fig7();
    let speaker = f.leaves[4]; // l5
    let swapped: crystalnet_net::Ipv4Prefix = "10.99.0.0/24".parse().unwrap();
    let as_path = vec![f.topo.device(speaker).asn];

    let mut emu = mockup(
        Arc::new(fig7b_prep()),
        MockupOptions::builder().seed(3).build(),
    );
    assert!(
        emu.sandboxes.contains_key(&speaker),
        "l5 is a speaker sandbox in the 7b boundary"
    );

    let delta = apply_session(
        &mut emu,
        &ChangeSet::new().speaker_route_swap(
            speaker,
            vec![SpeakerRoute {
                prefix: swapped,
                as_path: as_path.clone(),
                med: 0,
            }],
        ),
    )
    .expect("speaker swap applies");
    assert!(delta.dirty.contains(&speaker));
    assert!(
        delta.total_fib_changes() > 0,
        "the swap must retract old routes"
    );
    // Spines now reach the swapped prefix.
    assert!(emu
        .sim
        .os(f.spines[0])
        .unwrap()
        .fib()
        .get(swapped)
        .is_some());

    // Differential: cold boot from a prepare whose speaker plan holds
    // the swapped script from the start.
    let mut prep = fig7b_prep();
    let loopback = f.topo.device(speaker).loopback;
    for (d, per_iface) in &mut prep.speaker_plan.scripts {
        if *d == speaker {
            for (_, script) in per_iface.iter_mut() {
                *script = SpeakerScript {
                    routes: vec![(
                        swapped,
                        PathAttrs {
                            as_path: as_path.clone(),
                            med: 0,
                            ..PathAttrs::originated(loopback)
                        }
                        .intern(),
                    )],
                };
            }
        }
    }
    let cold = mockup(Arc::new(prep), MockupOptions::builder().seed(3).build());
    assert_eq!(
        fib_map(&emu),
        fib_map(&cold),
        "warm speaker swap diverged from cold boot"
    );
}

#[test]
fn dirty_set_stops_at_speaker_barriers() {
    let f = fig7();
    let mut emu = mockup(
        Arc::new(fig7b_prep()),
        MockupOptions::builder().seed(5).build(),
    );
    let t1 = f.tors[0];
    let cfg = prepared_config(&emu, t1);
    let mut edited = cfg.clone();
    edited
        .bgp
        .as_mut()
        .unwrap()
        .networks
        .push("10.42.0.0/24".parse().unwrap());

    let delta = apply_session(&mut emu, &ChangeSet::new().config_update(t1, edited))
        .expect("network edit applies");
    // Speakers are *included* when reached (their adjacency matters) but
    // never expanded through: nothing outside the emulated scope appears.
    assert!(delta.dirty.contains(&f.leaves[4]) && delta.dirty.contains(&f.leaves[5]));
    for d in &delta.dirty {
        assert!(
            emu.sandboxes.contains_key(d),
            "dirty set leaked outside the emulation: {d:?}"
        );
    }
    assert!(!delta.dirty.contains(&f.tors[4]) && !delta.dirty.contains(&f.tors[5]));
}

#[test]
fn acl_only_change_dirties_a_sliver_of_clos64() {
    // Regression for the incremental bench reporting `dirty_devices ==
    // devices` on every row: an ACL-only edit cannot change what a
    // device announces or selects, so its predicted dirty set must stay
    // leaf-local (the edited ToR plus its direct neighbors) instead of
    // flooding all of clos-64.
    let topo = ClosParams {
        name: "clos-64".into(),
        borders: 2,
        spine_groups: 1,
        spines_per_group: 2,
        pods: 4,
        leaves_per_pod: 2,
        tors_per_pod: 13,
        groups_per_pod: 1,
        ext_peers_per_border: 1,
        ext_prefixes_per_peer: 8,
    }
    .build();
    let prep = prepare(
        &topo.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    );
    let mut emu = mockup(Arc::new(prep), MockupOptions::builder().seed(21).build());
    let devices = emu.sandboxes.len();
    let before = fib_map(&emu);

    let tor = topo.pods[0].tors[0];
    let mut edited = prepared_config(&emu, tor);
    edited.acls.insert(
        "ACL-MGMT".into(),
        Acl {
            entries: vec![AclEntry {
                seq: 10,
                action: crystalnet_config::Action::Deny,
                src: "10.66.0.0/24".parse().unwrap(),
                dst: "0.0.0.0/0".parse().unwrap(),
            }],
        },
    );
    let delta = apply_session(&mut emu, &ChangeSet::new().config_update(tor, edited))
        .expect("acl edit applies");
    assert_eq!(delta.applied[0].impact, Some(ChangeImpact::SoftRefresh));

    let got: BTreeSet<Dev> = delta.dirty.iter().copied().collect();
    let mut expected: BTreeSet<Dev> = topo.topo.neighbor_devices(tor).collect();
    expected.insert(tor);
    assert_eq!(got, expected, "ACL edit must stay one hop from the ToR");
    assert!(
        delta.dirty.len() < devices,
        "leaf-local change dirtied the whole fabric: {} of {devices}",
        delta.dirty.len()
    );

    // The full-scope FIB diff audits the prediction: packet filtering is
    // dataplane-only, so no FIB anywhere may move.
    assert!(delta.fib_changes.is_empty(), "ACL edit must not churn FIBs");
    assert_eq!(fib_map(&emu), before);
}

#[test]
fn device_removal_works_while_a_quarantine_is_active() {
    // Exhaust VM 0's reboot retries so its sandboxes are quarantined to a
    // spare, then decommission one of the displaced devices.
    let f = fig7();
    let plan = FaultPlan::default().then(
        SimDuration::from_secs(5),
        FaultKind::VmSlowRestart {
            vm: 0,
            failed_attempts: 4,
        },
    );
    let prep = prepare(
        &f.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions {
            target_vms: Some(4),
            ..PlanOptions::default()
        },
    );
    let victim = prep.vm_plan.vms[0].devices[0];
    let mut emu = mockup(
        Arc::new(prep),
        MockupOptions::builder().seed(9).fault_plan(plan).build(),
    );
    emu.settle().expect("post-quarantine convergence");
    assert_ne!(emu.sandboxes[&victim].vm, 0, "victim must be on the spare");

    let delta = apply_session(&mut emu, &ChangeSet::new().device_remove(victim))
        .expect("removal applies on a quarantined placement");
    assert!(delta.dirty.contains(&victim));
    assert!(!emu.sandboxes.contains_key(&victim));
    assert!(matches!(
        emu.pull_states(victim),
        Err(EmulationError::UnknownDevice(_))
    ));
    // The removed device's FIB reads as fully retracted in the delta.
    assert!(delta.fib_changes.get(&victim).is_some_and(|ch| ch
        .iter()
        .all(|c| c.kind == crystalnet::FibChangeKind::Removed)));

    // Differential: a fault-free run that removes the same device lands
    // on the same FIBs for every surviving device.
    let prep2 = prepare(
        &f.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions {
            target_vms: Some(4),
            ..PlanOptions::default()
        },
    );
    let mut cold = mockup(Arc::new(prep2), MockupOptions::builder().seed(9).build());
    apply_session(&mut cold, &ChangeSet::new().device_remove(victim))
        .expect("fault-free removal applies");
    assert_eq!(
        fib_map(&emu),
        fib_map(&cold),
        "quarantine history must not change the post-removal fixed point"
    );
}

#[test]
fn rehearse_runs_multi_step_plans_and_round_trips() {
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

    let mut emu = fig7_emu(13);
    let baseline = fib_map(&emu);
    let report = emu.rehearse([
        RehearsalStep::new("drain s1-l1", ChangeSet::new().link_down(lid)),
        RehearsalStep::new("restore s1-l1", ChangeSet::new().link_up(lid)),
    ]);
    assert!(report.all_passed());
    assert_eq!(report.steps.len(), 2);
    assert!(report.steps[0].delta.as_ref().unwrap().total_fib_changes() > 0);
    assert!(report.summary().contains("drain s1-l1"));
    // Down-then-up is a rehearsal no-op: the fabric returns to its
    // baseline forwarding state.
    assert_eq!(fib_map(&emu), baseline, "drain+restore must round-trip");

    // A failing step surfaces its typed error, stops the plan, and
    // leaves the baseline where the last passing step left it.
    let report = emu.rehearse([
        RehearsalStep::new("drain s1-l1", ChangeSet::new().link_down(lid)),
        RehearsalStep::new("remove ghost", ChangeSet::new().device_remove(Dev(9999))),
        RehearsalStep::new("restore s1-l1", ChangeSet::new().link_up(lid)),
    ]);
    assert_eq!(report.steps[0].outcome, StepOutcome::Passed);
    assert!(matches!(
        report.steps[1].outcome,
        StepOutcome::Rejected(EmulationError::UnknownDevice(_))
    ));
    assert_eq!(report.steps[2].outcome, StepOutcome::Skipped);
    assert_eq!(report.failures(), vec!["remove ghost"]);
    let mut drained = fig7_emu(13);
    apply_session(&mut drained, &ChangeSet::new().link_down(lid)).expect("drain applies");
    assert_eq!(
        fib_map(&emu),
        fib_map(&drained),
        "the plan must stop after its last passing step"
    );
}

#[test]
fn a_change_aimed_at_a_device_the_set_already_removed_is_a_typed_error() {
    // `device_remove(d)` then a session-resetting `config_update(d, …)`
    // used to validate against the pre-set emulation, remove `d`, and
    // then panic reloading it. The set must be rejected whole.
    let f = fig7();
    let emu = fig7_emu(13);
    let tor = f.tors[0];
    let mut cfg = prepared_config(&emu, tor);
    cfg.bgp.as_mut().unwrap().neighbors[0].shutdown = true;
    assert_eq!(
        classify_diff(&config_diff(&prepared_config(&emu, tor), &cfg)),
        ChangeImpact::SessionReset,
        "the fixture must take the reload path"
    );

    let mut fork = emu.fork();
    let (uplink, _, _) = f.topo.neighbors(tor).next().unwrap();
    for set in [
        ChangeSet::new().device_remove(tor).config_update(tor, cfg),
        ChangeSet::new().device_remove(tor).device_remove(tor),
        ChangeSet::new().device_remove(tor).link_down(uplink),
    ] {
        let err = fork.apply(&set).unwrap_err();
        assert!(
            matches!(
                err,
                EmulationError::UnknownDevice(_) | EmulationError::UnknownLink(_)
            ),
            "{err:?}"
        );
    }
    // Nothing was mutated: the fork still equals its parent and still
    // takes a valid set.
    assert!(fork.diff_against_parent().is_empty());
    assert!(fork.deltas().is_empty());
    assert!(fork.emulation().sandboxes.contains_key(&tor));
    let delta = fork
        .apply(&ChangeSet::new().device_remove(tor))
        .expect("the fork is still usable");
    assert!(delta.total_fib_changes() > 0);
}
