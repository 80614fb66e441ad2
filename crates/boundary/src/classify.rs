//! Emulation-boundary classification (§5.1).
//!
//! Given the set of devices to emulate, every device in the production
//! topology falls into one of four classes: *internal* (emulated, all
//! neighbors emulated), *boundary* (emulated, with at least one
//! non-emulated neighbor), *speaker* (not emulated but adjacent to a
//! boundary device — replaced by a static agent), or *external*
//! (irrelevant to the emulation).

use crystalnet_net::{DeviceId, EmulationClass, Topology};
use std::collections::BTreeSet;

/// The classification of every device for one emulation.
#[derive(Debug, Clone)]
pub struct Classification {
    /// Indexed by [`DeviceId`].
    classes: Vec<EmulationClass>,
}

impl Classification {
    /// Classifies all devices of `topo` given the emulated set.
    #[must_use]
    pub fn new(topo: &Topology, emulated: &BTreeSet<DeviceId>) -> Self {
        let classes = topo
            .devices()
            .map(|(id, _)| Self::classify_one(topo, emulated, id))
            .collect();
        Classification { classes }
    }

    /// The class of one device.
    #[must_use]
    pub fn class(&self, id: DeviceId) -> EmulationClass {
        self.classes[id.index()]
    }

    /// The devices whose class passes `keep`, in id order.
    fn ids_where(&self, keep: impl Fn(EmulationClass) -> bool) -> Vec<DeviceId> {
        (0..self.classes.len() as u32)
            .map(DeviceId)
            .filter(|&id| keep(self.class(id)))
            .collect()
    }

    /// All devices of a class, sorted.
    #[must_use]
    pub fn of(&self, class: EmulationClass) -> Vec<DeviceId> {
        self.ids_where(|c| c == class)
    }

    /// Boundary devices.
    #[must_use]
    pub fn boundary(&self) -> Vec<DeviceId> {
        self.of(EmulationClass::Boundary)
    }

    /// Speaker devices.
    #[must_use]
    pub fn speakers(&self) -> Vec<DeviceId> {
        self.of(EmulationClass::Speaker)
    }

    /// Devices to actually run (internal + boundary).
    #[must_use]
    pub fn emulated(&self) -> Vec<DeviceId> {
        self.ids_where(|c| matches!(c, EmulationClass::Internal | EmulationClass::Boundary))
    }

    /// Incrementally re-classifies after `removed` left the emulated set
    /// (a device decommission), touching only the removed device and its
    /// topological neighborhood — boundary-safety *memoization*: the rest
    /// of the cached classification stays valid because a device's class
    /// depends only on itself and its direct neighbors.
    ///
    /// `emulated` must already reflect the removal.
    pub fn remove_device(
        &mut self,
        topo: &Topology,
        emulated: &BTreeSet<DeviceId>,
        removed: DeviceId,
    ) {
        let mut affected: Vec<DeviceId> = vec![removed];
        affected.extend(topo.neighbor_devices(removed));
        for id in affected {
            self.classes[id.index()] = Self::classify_one(topo, emulated, id);
        }
    }

    /// Checks that the memoized classes for `region` still match a fresh
    /// classification — the cheap audit `apply_change` runs instead of
    /// re-running Algorithm 1 over the whole topology. Returns the first
    /// mismatching device, or `None` when the memo is consistent.
    #[must_use]
    pub fn validate_region<'a>(
        &self,
        topo: &Topology,
        emulated: &BTreeSet<DeviceId>,
        region: impl IntoIterator<Item = &'a DeviceId>,
    ) -> Option<DeviceId> {
        region.into_iter().copied().find(|&id| {
            self.classes.get(id.index()) != Some(&Self::classify_one(topo, emulated, id))
        })
    }

    fn classify_one(
        topo: &Topology,
        emulated: &BTreeSet<DeviceId>,
        id: DeviceId,
    ) -> EmulationClass {
        if emulated.contains(&id) {
            if topo.neighbor_devices(id).all(|n| emulated.contains(&n)) {
                EmulationClass::Internal
            } else {
                EmulationClass::Boundary
            }
        } else if topo.neighbor_devices(id).any(|n| emulated.contains(&n)) {
            EmulationClass::Speaker
        } else {
            EmulationClass::External
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crystalnet_net::fixtures::fig7;

    #[test]
    fn fig7b_classification() {
        // Figure 7b: emulate S1,S2,T1-4,L1-4; speakers are L5,L6.
        let f = fig7();
        let emulated: BTreeSet<DeviceId> = f
            .spines
            .iter()
            .chain(&f.leaves[..4])
            .chain(&f.tors[..4])
            .copied()
            .collect();
        let c = Classification::new(&f.topo, &emulated);
        // T1-4 and L1-4 are internal; S1,S2 are boundary (they touch
        // L5,L6).
        for &t in &f.tors[..4] {
            assert_eq!(c.class(t), EmulationClass::Internal);
        }
        for &l in &f.leaves[..4] {
            assert_eq!(c.class(l), EmulationClass::Internal);
        }
        assert_eq!(c.boundary(), vec![f.spines[0], f.spines[1]]);
        // L5,L6 touch the spines: speakers. T5,T6 do not: external.
        assert_eq!(c.speakers(), vec![f.leaves[4], f.leaves[5]]);
        assert_eq!(c.class(f.tors[4]), EmulationClass::External);
        assert_eq!(c.class(f.tors[5]), EmulationClass::External);
        assert_eq!(c.emulated().len(), 10);
    }

    #[test]
    fn fig7a_classification() {
        // Figure 7a: emulate only T1-4, L1-4; S1,S2 become speakers.
        let f = fig7();
        let emulated: BTreeSet<DeviceId> =
            f.leaves[..4].iter().chain(&f.tors[..4]).copied().collect();
        let c = Classification::new(&f.topo, &emulated);
        assert_eq!(c.speakers(), vec![f.spines[0], f.spines[1]]);
        assert_eq!(c.boundary(), f.leaves[..4].to_vec());
        for &t in &f.tors[..4] {
            assert_eq!(c.class(t), EmulationClass::Internal);
        }
    }

    #[test]
    fn incremental_removal_matches_fresh_classification() {
        let f = fig7();
        let mut emulated: BTreeSet<DeviceId> = f
            .spines
            .iter()
            .chain(&f.leaves[..4])
            .chain(&f.tors[..4])
            .copied()
            .collect();
        let mut c = Classification::new(&f.topo, &emulated);
        assert!(c
            .validate_region(&f.topo, &emulated, emulated.iter())
            .is_none());
        // Decommission T1: its leaves' classes may change; the memoized
        // patch must agree with a from-scratch classification.
        let removed = f.tors[0];
        emulated.remove(&removed);
        c.remove_device(&f.topo, &emulated, removed);
        let fresh = Classification::new(&f.topo, &emulated);
        for (id, _) in f.topo.devices() {
            assert_eq!(c.class(id), fresh.class(id), "device {id:?}");
        }
        // A deliberately stale memo is caught by the audit.
        let stale = Classification::new(&f.topo, &f.topo.devices().map(|(id, _)| id).collect());
        assert!(stale
            .validate_region(&f.topo, &emulated, [removed].iter())
            .is_some());
    }

    #[test]
    fn everything_emulated_means_no_boundary() {
        let f = fig7();
        let emulated: BTreeSet<DeviceId> = f.topo.devices().map(|(id, _)| id).collect();
        let c = Classification::new(&f.topo, &emulated);
        assert!(c.boundary().is_empty());
        assert!(c.speakers().is_empty());
        assert_eq!(c.emulated().len(), 14);
    }
}
