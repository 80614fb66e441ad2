//! Fork sharing tests: a fork shares every device OS with its parent
//! until one side writes to it, and the FIB diff skips what is still
//! shared. The oracle is the diff this design replaced — clone every
//! FIB entry of every device in scope, digest every route, compare the
//! two tables — kept here verbatim as a test-only reference: every
//! delta and every cumulative diff must equal it, digests included.

use crystalnet::prelude::*;
use crystalnet::PlanOptions;
use crystalnet_config::{Acl, AclEntry, Action, DeviceConfig};
use crystalnet_dataplane::{Fib, FibEntry};
use crystalnet_net::fixtures::fig7;
use crystalnet_net::Role;
use crystalnet_routing::harness::build_full_bgp_sim;
use crystalnet_routing::UniformWorkModel;
use std::collections::{BTreeMap, BTreeSet};

// ---- The reference: the pre-sharing snapshot + diff, verbatim. ----

type FibTables = BTreeMap<DeviceId, BTreeMap<Ipv4Prefix, (FibEntry, Option<u64>)>>;

/// FIB + provenance-digest snapshot for a set of devices. Devices
/// with no OS (removed) contribute an empty map.
fn fib_snapshot(emu: &Emulation, devs: &BTreeSet<DeviceId>) -> FibTables {
    let mut out = BTreeMap::new();
    for &dev in devs {
        let mut table = BTreeMap::new();
        if let Some(os) = emu.sim.os(dev) {
            for (prefix, entry) in os.fib().iter() {
                let digest = os.route_detail(prefix).map(|rd| rd.prov.digest());
                table.insert(prefix, (entry.clone(), digest));
            }
        }
        out.insert(dev, table);
    }
    out
}

/// Per-device diff of two FIB snapshots; devices with no mutations are
/// omitted.
fn diff_snapshots(before: &FibTables, after: &FibTables) -> BTreeMap<DeviceId, Vec<FibChange>> {
    let empty = BTreeMap::new();
    let mut out = BTreeMap::new();
    for (&dev, old) in before {
        let new = after.get(&dev).unwrap_or(&empty);
        let mut changes = Vec::new();
        for (prefix, (entry, digest)) in old {
            match new.get(prefix) {
                None => changes.push(FibChange {
                    prefix: *prefix,
                    kind: FibChangeKind::Removed,
                    next_hops: Vec::new(),
                    prov_digest: *digest,
                }),
                Some((new_entry, new_digest)) if new_entry != entry => {
                    changes.push(FibChange {
                        prefix: *prefix,
                        kind: FibChangeKind::Modified,
                        next_hops: new_entry.next_hops.clone(),
                        prov_digest: *new_digest,
                    });
                }
                Some(_) => {}
            }
        }
        for (prefix, (entry, digest)) in new {
            if !old.contains_key(prefix) {
                changes.push(FibChange {
                    prefix: *prefix,
                    kind: FibChangeKind::Added,
                    next_hops: entry.next_hops.clone(),
                    prov_digest: *digest,
                });
            }
        }
        changes.sort_by_key(|c| c.prefix);
        if !changes.is_empty() {
            out.insert(dev, changes);
        }
    }
    out
}

/// The full-scope tables of `emu` as the reference sees them.
fn tables(emu: &Emulation) -> FibTables {
    fib_snapshot(emu, &emu.sandboxes.keys().copied().collect())
}

// ---- Fixtures: fig. 7b (speakers at the boundary) and a whole S-DC. ----

/// A warm baseline plus one seeded target per change kind.
struct Fixture {
    name: &'static str,
    prep: Arc<PrepareOutput>,
    tor: DeviceId,
    acl_tor: DeviceId,
    doomed_tor: DeviceId,
    uplink: LinkId,
    speaker: DeviceId,
}

impl Fixture {
    fn warm(&self) -> Emulation {
        mockup(
            Arc::clone(&self.prep),
            MockupOptions::builder().seed(42).build(),
        )
    }

    fn config_of(&self, dev: DeviceId) -> DeviceConfig {
        self.prep
            .configs
            .iter()
            .find(|(d, _)| *d == dev)
            .map(|(_, c)| c.clone())
            .expect("device has a prepared config")
    }

    /// `config_update`: a new /24 announced by a ToR.
    fn config_update(&self) -> ChangeSet {
        let mut cfg = self.config_of(self.tor);
        cfg.bgp
            .as_mut()
            .expect("generated configs run BGP")
            .networks
            .push("10.200.7.0/24".parse().unwrap());
        ChangeSet::new().config_update(self.tor, cfg)
    }

    /// `config_acl`: an ACL-only edit, which moves no route anywhere.
    fn config_acl(&self) -> ChangeSet {
        let mut cfg = self.config_of(self.acl_tor);
        cfg.acls.insert(
            "ACL-TEST".into(),
            Acl {
                entries: vec![AclEntry {
                    seq: 10,
                    action: Action::Deny,
                    src: "10.66.7.0/24".parse().unwrap(),
                    dst: Ipv4Prefix::DEFAULT,
                }],
            },
        );
        ChangeSet::new().config_update(self.acl_tor, cfg)
    }

    fn speaker_swap(&self) -> ChangeSet {
        let asn = self.prep.topo.device(self.speaker).asn;
        ChangeSet::new().speaker_route_swap(
            self.speaker,
            vec![SpeakerRoute {
                prefix: "10.99.0.0/24".parse().unwrap(),
                as_path: vec![asn],
                med: 0,
            }],
        )
    }

    /// One single-step rehearsal per change kind, then the two-step ones.
    fn rehearsals(&self) -> Vec<(&'static str, Vec<ChangeSet>)> {
        let down = || ChangeSet::new().link_down(self.uplink);
        vec![
            ("config_update", vec![self.config_update()]),
            ("config_acl", vec![self.config_acl()]),
            ("link_down", vec![down()]),
            (
                "link_down + link_up",
                vec![down(), ChangeSet::new().link_up(self.uplink)],
            ),
            (
                "device_remove",
                vec![ChangeSet::new().device_remove(self.doomed_tor)],
            ),
            ("speaker_route_swap", vec![self.speaker_swap()]),
            (
                "config_update + device_remove",
                vec![
                    self.config_update(),
                    ChangeSet::new().device_remove(self.doomed_tor),
                ],
            ),
        ]
    }
}

/// Picks one element by seed, so targets move with the seed and with
/// nothing else.
fn pick<T: Copy>(seed: u64, salt: u64, from: &[T]) -> T {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    from[((z ^ (z >> 31)) % from.len() as u64) as usize]
}

/// Figure 7b: S1-2, L1-4, T1-4 emulated; L5/L6 are static speakers
/// replaying a converged production snapshot.
fn fig7b() -> Fixture {
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
    .expect("production converges");
    let emulated: BTreeSet<DeviceId> = f
        .spines
        .iter()
        .chain(&f.leaves[..4])
        .chain(&f.tors[..4])
        .copied()
        .collect();
    let prep = prepare(
        &f.topo,
        &[],
        BoundaryMode::Explicit(emulated),
        SpeakerSource::Snapshot(&prod),
        &PlanOptions::default(),
    );
    let uplink = f
        .topo
        .links()
        .find(|(_, l)| {
            let pair = [l.a.device, l.b.device];
            pair.contains(&f.spines[0]) && pair.contains(&f.leaves[0])
        })
        .map(|(lid, _)| lid)
        .expect("fig7 has an s1-l1 link");
    Fixture {
        name: "fig7b",
        prep: Arc::new(prep),
        tor: f.tors[0],
        acl_tor: f.tors[1],
        doomed_tor: f.tors[3],
        uplink,
        speaker: f.leaves[4],
    }
}

/// A whole S-DC, externals replaced by speakers; targets seeded.
fn s_dc(seed: u64) -> Fixture {
    let clos = ClosParams::s_dc().build();
    let prep = prepare(
        &clos.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    );
    let tors: Vec<DeviceId> = clos.pods.iter().flat_map(|p| p.tors.clone()).collect();
    let leaves: Vec<DeviceId> = clos.pods.iter().flat_map(|p| p.leaves.clone()).collect();
    let leaf = pick(seed, 3, &leaves);
    let uplinks: Vec<LinkId> = clos
        .topo
        .neighbors(leaf)
        .filter(|(_, _, peer)| clos.topo.device(peer.device).role == Role::Spine)
        .map(|(lid, _, _)| lid)
        .collect();
    let tor = pick(seed, 1, &tors);
    let doomed_tor = *tors
        .iter()
        .find(|&&t| t != tor)
        .expect("an S-DC has more than one ToR");
    Fixture {
        name: "s-dc",
        speaker: pick(seed, 5, &prep.speakers()),
        prep: Arc::new(prep),
        tor,
        acl_tor: pick(seed, 2, &tors),
        doomed_tor,
        uplink: pick(seed, 4, &uplinks),
    }
}

/// Every emulated device's full FIB, keyed by id.
fn fib_map(emu: &Emulation) -> BTreeMap<DeviceId, Fib> {
    emu.sandboxes
        .keys()
        .filter_map(|&dev| Some((dev, emu.sim.os(dev)?.fib().clone())))
        .collect()
}

// ---- Equality with the reference. ----

#[test]
fn deltas_and_cumulative_diffs_equal_the_reference() {
    for fx in [fig7b(), s_dc(42)] {
        let warm = fx.warm();
        let base = tables(&warm);
        for (what, steps) in fx.rehearsals() {
            let ctx = format!("{} {what}", fx.name);
            let mut fork = warm.fork();
            for step in &steps {
                let before = tables(fork.emulation());
                let delta = fork.apply(step).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                // `before`'s scope, so a removed device still
                // reports every entry `Removed`.
                let after = fib_snapshot(
                    fork.emulation(),
                    &before.keys().copied().collect::<BTreeSet<_>>(),
                );
                assert_eq!(
                    delta.fib_changes,
                    diff_snapshots(&before, &after),
                    "{ctx}: delta differs from the reference"
                );
            }
            let cumulative = fork.diff_against_parent();
            assert_eq!(
                cumulative,
                diff_snapshots(&base, &tables(fork.emulation())),
                "{ctx}: cumulative diff differs from the reference"
            );
            if what != "config_acl" && what != "link_down + link_up" {
                assert!(!cumulative.is_empty(), "{ctx}: the step moved nothing");
            }
            drop(fork);
            assert_eq!(tables(&warm), base, "{ctx}: the fork perturbed its parent");
        }
    }
}

#[test]
fn fault_plan_on_a_fork_diffs_like_the_reference() {
    let fx = s_dc(42);
    let warm = fx.warm();
    let base = tables(&warm);
    let mut fork = warm.fork();
    let plan = FaultPlan::default()
        .then(SimDuration::from_secs(1), FaultKind::VmCrash { vm: 0 })
        .then(
            SimDuration::from_secs(2),
            FaultKind::LinkFlapBurst {
                link: fx.uplink,
                flaps: 2,
                period: SimDuration::from_secs(3),
            },
        )
        .then(
            SimDuration::from_secs(4),
            FaultKind::SpeakerCrash { device: fx.speaker },
        );
    fork.inject_faults(&plan).expect("the drill recovers");
    assert_eq!(
        fork.diff_against_parent(),
        diff_snapshots(&base, &tables(fork.emulation())),
        "diff after a fault drill differs from the reference"
    );
    // A change on top of the recovered fork still diffs exactly.
    let before = tables(fork.emulation());
    let delta = fork.apply(&fx.config_update()).expect("applies");
    assert_eq!(
        delta.fib_changes,
        diff_snapshots(&before, &tables(fork.emulation()))
    );
    assert_eq!(tables(&warm), base, "the drill perturbed its parent");
}

#[test]
fn mutating_the_parent_leaves_a_live_fork_untouched() {
    let fx = s_dc(1337);
    let mut warm = fx.warm();
    let base = tables(&warm);

    let mut live = warm.fork();
    live.apply(&ChangeSet::new().link_down(fx.uplink))
        .expect("link_down applies");
    let live_fibs = fib_map(live.emulation());
    let live_diff = live.diff_against_parent();
    let base_entries = live.base().fib_entries;
    assert!(!live_diff.is_empty());

    // The parent moves on twice: a sibling fork is committed over it,
    // then a Table 2 call mutates it in place.
    let mut sibling = warm.fork();
    sibling
        .apply(&fx.config_update())
        .expect("config_update applies");
    sibling.commit(&mut warm);
    let other_link = fx
        .prep
        .topo
        .neighbors(fx.tor)
        .map(|(lid, _, _)| lid)
        .next()
        .expect("a ToR has an uplink");
    warm.disconnect(other_link);
    warm.settle().expect("the parent re-converges");
    assert_ne!(tables(&warm), base, "the parent did move");

    assert_eq!(fib_map(live.emulation()), live_fibs);
    assert_eq!(live.diff_against_parent(), live_diff);
    assert_eq!(live.base().fib_entries, base_entries);
    assert_eq!(
        live.diff_against_parent(),
        diff_snapshots(&base, &tables(live.emulation())),
        "the live fork's base must still be the fork-point state"
    );
}

#[test]
fn show_routes_on_a_fork_changes_no_diff() {
    let fx = fig7b();
    let warm = fx.warm();
    let mut fork = warm.fork();
    let host = fx.prep.topo.device(fx.tor).name.clone();
    let rows = fork
        .emulation_mut()
        .login_and_run(&host, MgmtCommand::ShowRoutes)
        .expect("the ToR answers");
    assert!(matches!(rows, MgmtResponse::Routes(r) if !r.is_empty()));
    assert!(fork.diff_against_parent().is_empty());
    assert_eq!(fib_map(fork.emulation()), fib_map(&warm));
}

// ---- Sharing itself: who still holds the parent's OS instances. ----

/// Devices whose OS instance in `child` is no longer the one `parent`
/// holds (copied by a write, replaced, or removed).
fn unshared(parent: &Emulation, child: &Emulation) -> BTreeSet<DeviceId> {
    parent
        .sandboxes
        .keys()
        .copied()
        .filter(
            |&dev| match (parent.sim.os_handle(dev), child.sim.os_handle(dev)) {
                (Some(a), Some(b)) => !Arc::ptr_eq(a, b),
                (a, b) => a.is_some() || b.is_some(),
            },
        )
        .collect()
}

#[test]
fn a_fork_shares_every_os_until_a_step_writes_to_it() {
    let fx = s_dc(42);
    let warm = fx.warm();
    let mut fork = warm.fork();
    assert!(unshared(&warm, fork.emulation()).is_empty());
    let fresh = fork.cow_stats();
    assert_eq!(fresh.copied_bytes, 0);
    assert!(fresh.shared_bytes > 0 && fresh.sharing_ratio() >= 0.95);

    // An ACL-only edit writes to the edited ToR and to the neighbours
    // it asks to replay their routes (route refresh) — nobody else,
    // and no FIB anywhere moves.
    let delta = fork.apply(&fx.config_acl()).expect("acl edit applies");
    assert!(delta.fib_changes.is_empty());
    let touched = unshared(&warm, fork.emulation());
    let mut one_hop: BTreeSet<DeviceId> = fx.prep.topo.neighbor_devices(fx.acl_tor).collect();
    one_hop.insert(fx.acl_tor);
    assert!(touched.contains(&fx.acl_tor));
    assert!(
        touched.is_subset(&one_hop),
        "an ACL edit copied devices beyond one hop: {touched:?}"
    );
    let after_acl = fork.cow_stats();
    assert!(after_acl.copied_bytes > 0);
    assert_eq!(
        after_acl.shared_bytes + after_acl.copied_bytes,
        fresh.shared_bytes,
        "an ACL edit changes who owns the bytes, not how many there are"
    );
    assert!(after_acl.sharing_ratio() > 0.9);

    // A new prefix reaches the whole fabric: the share collapses.
    fork.apply(&fx.config_update())
        .expect("config_update applies");
    assert!(fork.cow_stats().sharing_ratio() < 0.1);
    assert!(unshared(&warm, fork.emulation()).len() > touched.len());
}

#[test]
fn a_change_outside_the_predicted_dirty_set_is_still_reported() {
    // A leaf→spine drain is predicted to stay in its pod plus the spine
    // tier; the spine's withdrawals also reach the other pods' leaves.
    let fx = s_dc(42);
    let warm = fx.warm();
    let before = fib_map(&warm);
    let mut fork = warm.fork();
    let delta = fork
        .apply(&ChangeSet::new().link_down(fx.uplink))
        .expect("link_down applies");
    let moved: BTreeSet<DeviceId> = fib_map(fork.emulation())
        .into_iter()
        .filter(|(dev, fib)| before.get(dev) != Some(fib))
        .map(|(dev, _)| dev)
        .collect();
    let missed: Vec<DeviceId> = moved
        .iter()
        .copied()
        .filter(|d| !delta.dirty.contains(d))
        .collect();
    assert!(
        !missed.is_empty(),
        "the fixture must make the prediction miss, or this test shows nothing"
    );
    assert_eq!(
        delta.fib_changes.keys().copied().collect::<BTreeSet<_>>(),
        moved,
        "every device whose FIB moved is reported, predicted or not"
    );
    assert_eq!(delta.outside_dirty(), missed);
    assert!(delta.summary().contains(&format!(
        "{} changed device(s) outside the predicted dirty set",
        missed.len()
    )));
    // Identity is the only skip: what the step never wrote to is shared,
    // what it wrote to is compared, wherever the prediction put it.
    assert!(moved.is_subset(&unshared(&warm, fork.emulation())));
}
