//! The efficient sufficient conditions: Propositions 5.2, 5.3 and 5.4.
//!
//! Checking Lemma 5.1 directly "may not be feasible" on production
//! networks, so the paper gives conditions that imply it and are cheap to
//! evaluate: all boundary devices in one AS with speakers in distinct
//! ASes (5.2); boundary-device ASes mutually unreachable through the
//! external residual network (5.3); and for OSPF networks, unchanged
//! boundary links plus emulated DR/BDR (5.4).

use crate::classify::Classification;
use crystalnet_net::{Asn, DeviceId, EmulationClass, Ipv4Addr, Topology};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Why a proposition's condition fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropViolation {
    /// Boundary devices span more than one AS (5.2).
    BoundaryAsesDiffer(Vec<Asn>),
    /// Two speaker devices share an AS (5.2).
    SpeakersShareAs(Asn),
    /// Two boundary ASes can reach each other through external devices
    /// (5.3); carries one witnessing external path.
    ExternallyReachable {
        /// AS of the path's starting boundary device.
        from_as: Asn,
        /// AS of the boundary device reached.
        to_as: Asn,
        /// The device path through the external region.
        via: Vec<DeviceId>,
    },
    /// A DR or BDR of the OSPF area is not emulated (5.4).
    DrNotEmulated(Ipv4Addr),
    /// A boundary-adjacent link is slated to change (5.4).
    BoundaryLinkChanges(DeviceId, DeviceId),
}

/// Checks Proposition 5.2: boundary devices within a single AS, speakers
/// all in different ASes.
///
/// # Errors
///
/// Returns the violated condition.
pub fn check_prop_5_2(topo: &Topology, class: &Classification) -> Result<(), PropViolation> {
    let boundary = class.boundary();
    let mut ases: Vec<Asn> = boundary.iter().map(|&d| topo.device(d).asn).collect();
    ases.sort_unstable();
    ases.dedup();
    if ases.len() > 1 {
        return Err(PropViolation::BoundaryAsesDiffer(ases));
    }
    let mut seen = BTreeSet::new();
    for d in class.speakers() {
        let asn = topo.device(d).asn;
        if !seen.insert(asn) {
            return Err(PropViolation::SpeakersShareAs(asn));
        }
    }
    Ok(())
}

/// Checks Proposition 5.3: boundary devices live in ASes that cannot
/// reach each other through the external (non-emulated) network.
///
/// # Errors
///
/// Returns a witnessing external path when two boundary ASes connect.
pub fn check_prop_5_3(topo: &Topology, class: &Classification) -> Result<(), PropViolation> {
    let boundary = class.boundary();
    // Group boundary devices by AS.
    let mut by_as: BTreeMap<Asn, Vec<DeviceId>> = BTreeMap::new();
    for &d in &boundary {
        by_as.entry(topo.device(d).asn).or_default().push(d);
    }
    if by_as.len() <= 1 {
        return Ok(());
    }
    let emulated: BTreeSet<DeviceId> = class.emulated().into_iter().collect();

    // BFS from each boundary device through non-emulated devices only;
    // reaching a boundary device of a *different* AS violates 5.3.
    for (&from_as, from_devs) in &by_as {
        // Seed with the *external* neighbors of this AS's boundary
        // devices — reachability must go via the external network, not
        // over internal emulated links.
        let mut visited: BTreeSet<DeviceId> = BTreeSet::new();
        let mut prev: BTreeMap<DeviceId, DeviceId> = BTreeMap::new();
        let mut queue = VecDeque::new();
        for &b in from_devs {
            for n in topo.neighbor_devices(b) {
                if !emulated.contains(&n) && visited.insert(n) {
                    queue.push_back(n);
                }
            }
        }
        while let Some(d) = queue.pop_front() {
            for n in topo.neighbor_devices(d) {
                if emulated.contains(&n) {
                    let to_as = topo.device(n).asn;
                    if boundary.contains(&n) && to_as != from_as {
                        // Reconstruct the external path.
                        let mut via = vec![n, d];
                        let mut cur = d;
                        while let Some(&p) = prev.get(&cur) {
                            via.push(p);
                            cur = p;
                        }
                        via.reverse();
                        return Err(PropViolation::ExternallyReachable {
                            from_as,
                            to_as,
                            via,
                        });
                    }
                    continue; // do not traverse through emulated devices
                }
                if visited.insert(n) {
                    prev.insert(n, d);
                    queue.push_back(n);
                }
            }
        }
    }
    Ok(())
}

/// Inputs for the OSPF condition (5.4).
#[derive(Debug, Clone, Default)]
pub struct OspfBoundaryInputs {
    /// Router ids of the area's DR and BDR, with the owning device.
    pub dr_bdr: Vec<(Ipv4Addr, DeviceId)>,
    /// Links `(a, b)` the planned change will touch.
    pub changing_links: Vec<(DeviceId, DeviceId)>,
}

/// Checks Proposition 5.4 for an OSPF area: the links between boundary
/// and speaker devices must not be among the planned changes, and the
/// DR(s)/BDR(s) must be emulated.
///
/// # Errors
///
/// Returns the violated condition.
pub fn check_prop_5_4(
    topo: &Topology,
    class: &Classification,
    inputs: &OspfBoundaryInputs,
) -> Result<(), PropViolation> {
    let emulated: BTreeSet<DeviceId> = class.emulated().into_iter().collect();
    for &(rid, dev) in &inputs.dr_bdr {
        if !emulated.contains(&dev) {
            return Err(PropViolation::DrNotEmulated(rid));
        }
    }
    for &(a, b) in &inputs.changing_links {
        let a_class = class.class(a);
        let b_class = class.class(b);
        let crosses = matches!(
            (a_class, b_class),
            (EmulationClass::Boundary, EmulationClass::Speaker)
                | (EmulationClass::Speaker, EmulationClass::Boundary)
        );
        if crosses {
            return Err(PropViolation::BoundaryLinkChanges(a, b));
        }
    }
    let _ = topo;
    Ok(())
}

/// Convenience: the emulated set as a `BTreeSet` from a slice.
#[must_use]
pub fn emulated_set(ids: &[DeviceId]) -> BTreeSet<DeviceId> {
    ids.iter().copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::Classification;
    use crystalnet_net::fixtures::fig7;

    #[test]
    fn fig7b_satisfies_prop_5_2() {
        let f = fig7();
        let emulated = emulated_set(
            &f.spines
                .iter()
                .chain(&f.leaves[..4])
                .chain(&f.tors[..4])
                .copied()
                .collect::<Vec<_>>(),
        );
        let c = Classification::new(&f.topo, &emulated);
        // Boundary = S1,S2 (both AS100); speakers = L5,L6 — but they
        // share AS400! Prop 5.2 requires distinct speaker ASes; the pair
        // violates the letter of 5.2...
        let r = check_prop_5_2(&f.topo, &c);
        assert_eq!(
            r,
            Err(PropViolation::SpeakersShareAs(crystalnet_net::Asn(400)))
        );
        // ...while Lemma 5.1 still holds (5.2 is sufficient, not
        // necessary). The exact checker agrees the boundary is safe.
        assert!(crate::lemma::check_lemma_5_1(&f.topo, &emulated).is_ok());
    }

    #[test]
    fn fig7a_violates_prop_5_2_on_boundary_ases() {
        let f = fig7();
        let emulated = emulated_set(
            &f.leaves[..4]
                .iter()
                .chain(&f.tors[..4])
                .copied()
                .collect::<Vec<_>>(),
        );
        let c = Classification::new(&f.topo, &emulated);
        match check_prop_5_2(&f.topo, &c) {
            Err(PropViolation::BoundaryAsesDiffer(ases)) => {
                assert_eq!(ases.len(), 2); // AS200 and AS300
            }
            other => panic!("expected boundary-AS violation, got {other:?}"),
        }
    }

    #[test]
    fn fig7c_satisfies_prop_5_3() {
        // Emulate S1,S2,L1-4: boundary ASes are 100, 200, 300. The
        // external region (T1-4, L5-6, T5-6) gives no path between them:
        // T1/T2 only touch L1,L2; T3/T4 only touch L3,L4; L5/L6 connect
        // the spines to T5/T6 (dead end).
        let f = fig7();
        let emulated = emulated_set(
            &f.spines
                .iter()
                .chain(&f.leaves[..4])
                .copied()
                .collect::<Vec<_>>(),
        );
        let c = Classification::new(&f.topo, &emulated);
        assert_eq!(check_prop_5_3(&f.topo, &c), Ok(()));
        assert!(crate::lemma::check_lemma_5_1(&f.topo, &emulated).is_ok());
    }

    #[test]
    fn fig7a_violates_prop_5_3_with_witness_path() {
        // Boundary = L1-4 (AS200, AS300); the speakers S1,S2 connect them
        // externally.
        let f = fig7();
        let emulated = emulated_set(
            &f.leaves[..4]
                .iter()
                .chain(&f.tors[..4])
                .copied()
                .collect::<Vec<_>>(),
        );
        let c = Classification::new(&f.topo, &emulated);
        match check_prop_5_3(&f.topo, &c) {
            Err(PropViolation::ExternallyReachable {
                from_as,
                to_as,
                via,
            }) => {
                assert_ne!(from_as, to_as);
                // The witness passes through a spine.
                assert!(via.iter().any(|d| f.spines.contains(d)));
            }
            other => panic!("expected external-reachability violation, got {other:?}"),
        }
    }

    #[test]
    fn prop_5_4_checks_dr_and_links() {
        let f = fig7();
        let emulated = emulated_set(
            &f.spines
                .iter()
                .chain(&f.leaves[..4])
                .copied()
                .collect::<Vec<_>>(),
        );
        let c = Classification::new(&f.topo, &emulated);
        // DR on an emulated spine: fine.
        let ok = OspfBoundaryInputs {
            dr_bdr: vec![(f.topo.device(f.spines[0]).loopback, f.spines[0])],
            changing_links: vec![(f.spines[0], f.leaves[0])], // both emulated
        };
        assert_eq!(check_prop_5_4(&f.topo, &c, &ok), Ok(()));
        // DR on a speaker: violation.
        let bad_dr = OspfBoundaryInputs {
            dr_bdr: vec![(f.topo.device(f.tors[0]).loopback, f.tors[0])],
            changing_links: vec![],
        };
        assert!(matches!(
            check_prop_5_4(&f.topo, &c, &bad_dr),
            Err(PropViolation::DrNotEmulated(_))
        ));
        // Changing a boundary-speaker link: violation.
        let bad_link = OspfBoundaryInputs {
            dr_bdr: vec![],
            changing_links: vec![(f.leaves[0], f.tors[0])],
        };
        assert!(matches!(
            check_prop_5_4(&f.topo, &c, &bad_link),
            Err(PropViolation::BoundaryLinkChanges(_, _))
        ));
    }
}
