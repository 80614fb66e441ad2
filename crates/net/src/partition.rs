//! Deterministic topology placement helpers: which spare VM a displaced
//! group of devices should move to ([`placement_affinity`],
//! [`best_spare`]), how far a change ripples ([`dirty_region`],
//! [`dirty_region_scoped`]), and a k-way partitioner ([`partition`],
//! [`partition_grouped`]): balanced shards, few cut links, and "groups"
//! (devices hosted on one VM) kept in one shard.
//!
//! The partitioner's one caller is the benchmark's `net.partition_ms`
//! probe; the sharded executor it served is gone, and it goes with that
//! probe.
//!
//! Everything here is deterministic: iteration is over index order, never
//! hash order, so the same topology always yields the same answer.

use crate::topology::Topology;
use crate::types::{DeviceId, LinkId};

/// A device → shard assignment with its cut set.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Shard index per device (indexed by `DeviceId::index`).
    pub shard_of: Vec<usize>,
    /// Devices per shard, each sorted by id.
    pub shards: Vec<Vec<DeviceId>>,
    /// Links whose endpoints live in different shards, sorted by id.
    pub cut_links: Vec<LinkId>,
}

impl Partition {
    /// Number of shards (some may be empty on degenerate inputs).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard holding `dev`.
    #[must_use]
    pub fn shard(&self, dev: DeviceId) -> usize {
        self.shard_of[dev.index()]
    }

    /// Whether `link` crosses shards.
    #[must_use]
    pub fn is_cut(&self, link: LinkId) -> bool {
        self.cut_links.binary_search(&link).is_ok()
    }
}

/// Partitions `topo` into `shards` balanced shards minimizing cut links.
///
/// Each device is its own unit; use [`partition_grouped`] when devices must
/// stay together (VM co-residency).
#[must_use]
pub fn partition(topo: &Topology, shards: usize) -> Partition {
    let group_of: Vec<u32> = (0..topo.device_count() as u32).collect();
    partition_grouped(topo, shards, &group_of)
}

/// Partitions `topo` with a co-residency constraint: devices sharing a
/// `group_of` value are assigned to the same shard (e.g. the hosting VM
/// index, to keep a VM's devices together).
///
/// Algorithm: collapse groups into weighted super-nodes, grow shards by
/// breadth-first expansion from deterministic seeds (keeping shards
/// connected where the graph allows), then run a few boundary-refinement
/// passes moving super-nodes to the neighboring shard with the highest
/// edge gain, subject to a balance bound. O(passes × edges).
///
/// # Panics
///
/// Panics if `shards == 0` or `group_of.len() != topo.device_count()`.
#[must_use]
pub fn partition_grouped(topo: &Topology, shards: usize, group_of: &[u32]) -> Partition {
    assert!(shards > 0, "shard count must be positive");
    let n = topo.device_count();
    assert_eq!(group_of.len(), n, "one group id per device");

    // ------------------------------------------------------------------
    // Collapse groups into super-nodes with dense indices.
    // ------------------------------------------------------------------
    let mut group_index: Vec<Option<usize>> = Vec::new();
    let mut node_of_dev: Vec<usize> = vec![0; n];
    let mut weight: Vec<u64> = Vec::new();
    let mut members: Vec<Vec<DeviceId>> = Vec::new();
    for dev in 0..n {
        let g = group_of[dev] as usize;
        if g >= group_index.len() {
            group_index.resize(g + 1, None);
        }
        let node = *group_index[g].get_or_insert_with(|| {
            weight.push(0);
            members.push(Vec::new());
            weight.len() - 1
        });
        node_of_dev[dev] = node;
        weight[node] += 1;
        members[node].push(DeviceId(dev as u32));
    }
    let nodes = weight.len();

    // Super-node adjacency: (neighbor, multiplicity), index-sorted.
    let mut adj: Vec<Vec<(usize, u64)>> = vec![Vec::new(); nodes];
    {
        let mut pair_edges: Vec<(usize, usize)> = topo
            .links()
            .map(|(_, l)| {
                let (a, b) = (
                    node_of_dev[l.a.device.index()],
                    node_of_dev[l.b.device.index()],
                );
                (a.min(b), a.max(b))
            })
            .filter(|(a, b)| a != b)
            .collect();
        pair_edges.sort_unstable();
        let mut i = 0;
        while i < pair_edges.len() {
            let (a, b) = pair_edges[i];
            let mut mult = 0;
            while i < pair_edges.len() && pair_edges[i] == (a, b) {
                mult += 1;
                i += 1;
            }
            adj[a].push((b, mult));
            adj[b].push((a, mult));
        }
        for list in &mut adj {
            list.sort_unstable();
        }
    }

    let total: u64 = weight.iter().sum();
    let k = shards.min(nodes.max(1));
    let target = total.div_ceil(k as u64);
    // Headroom above the ideal shard weight during growth/refinement.
    let cap = target + target.div_ceil(8);

    // ------------------------------------------------------------------
    // Growth: BFS-fill shards from deterministic seeds.
    // ------------------------------------------------------------------
    let mut shard_of_node: Vec<usize> = vec![usize::MAX; nodes];
    let mut shard_weight: Vec<u64> = vec![0; k];
    let mut frontier: Vec<usize> = Vec::new();
    let mut next_seed = 0usize;
    for (s, shard_w) in shard_weight.iter_mut().enumerate() {
        // Seed: the lowest-index unassigned super-node.
        while next_seed < nodes && shard_of_node[next_seed] != usize::MAX {
            next_seed += 1;
        }
        if next_seed >= nodes {
            break;
        }
        frontier.clear();
        frontier.push(next_seed);
        let mut head = 0;
        while head < frontier.len() && *shard_w < target {
            let node = frontier[head];
            head += 1;
            if shard_of_node[node] != usize::MAX {
                continue;
            }
            shard_of_node[node] = s;
            *shard_w += weight[node];
            for &(nb, _) in &adj[node] {
                if shard_of_node[nb] == usize::MAX {
                    frontier.push(nb);
                }
            }
        }
    }
    // Leftovers (disconnected components, rounding): lightest shard first.
    for node in 0..nodes {
        if shard_of_node[node] == usize::MAX {
            let s = (0..k).min_by_key(|&s| (shard_weight[s], s)).unwrap_or(0);
            shard_of_node[node] = s;
            shard_weight[s] += weight[node];
        }
    }

    // ------------------------------------------------------------------
    // Refinement: greedy boundary moves with positive edge gain.
    // ------------------------------------------------------------------
    let mut edges_to = vec![0u64; k];
    for _pass in 0..4 {
        let mut moved = false;
        for node in 0..nodes {
            let cur = shard_of_node[node];
            if shard_weight[cur] == weight[node] {
                continue; // never empty a shard
            }
            edges_to.iter_mut().for_each(|e| *e = 0);
            for &(nb, mult) in &adj[node] {
                edges_to[shard_of_node[nb]] += mult;
            }
            // Best destination: highest gain, lowest index breaks ties.
            let mut best = cur;
            let mut best_gain = 0i64;
            for s in 0..k {
                if s == cur || shard_weight[s] + weight[node] > cap {
                    continue;
                }
                let gain = edges_to[s] as i64 - edges_to[cur] as i64;
                if gain > best_gain {
                    best = s;
                    best_gain = gain;
                }
            }
            if best != cur {
                shard_weight[cur] -= weight[node];
                shard_weight[best] += weight[node];
                shard_of_node[node] = best;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }

    // ------------------------------------------------------------------
    // Project back to devices.
    // ------------------------------------------------------------------
    let mut shard_of = vec![0usize; n];
    let mut out_shards: Vec<Vec<DeviceId>> = vec![Vec::new(); k];
    for node in 0..nodes {
        let s = shard_of_node[node];
        for &dev in &members[node] {
            shard_of[dev.index()] = s;
            out_shards[s].push(dev);
        }
    }
    for list in &mut out_shards {
        list.sort_unstable();
    }
    let cut_links: Vec<LinkId> = topo
        .links()
        .filter(|(_, l)| shard_of[l.a.device.index()] != shard_of[l.b.device.index()])
        .map(|(lid, _)| lid)
        .collect();

    Partition {
        shard_of,
        shards: out_shards,
        cut_links,
    }
}

/// Number of topology links joining `displaced` devices to `resident`
/// devices — the affinity score the health monitor uses when it must
/// re-place a quarantined VM's sandboxes on a spare.
///
/// Every displaced↔resident link becomes an *intra-VM* veth instead of an
/// inter-VM VXLAN tunnel if the displaced devices land next to those
/// residents, so higher affinity means cheaper re-placement and less
/// cross-VM traffic after recovery. Links internal to `displaced` count
/// for free (they stay intra-VM wherever the set lands together).
#[must_use]
pub fn placement_affinity(topo: &Topology, displaced: &[DeviceId], resident: &[DeviceId]) -> u64 {
    let mut is_displaced = vec![false; topo.device_count()];
    let mut is_resident = vec![false; topo.device_count()];
    for d in displaced {
        is_displaced[d.index()] = true;
    }
    for d in resident {
        is_resident[d.index()] = true;
    }
    topo.links()
        .filter(|(_, l)| {
            let (a, b) = (l.a.device.index(), l.b.device.index());
            (is_displaced[a] && is_resident[b]) || (is_displaced[b] && is_resident[a])
        })
        .count() as u64
}

/// Picks the best spare home for `displaced` among `candidates` (each a
/// candidate VM's resident device set): highest [`placement_affinity`]
/// wins, lowest candidate index breaks ties. Deterministic, like
/// everything else in this module. Returns `None` when there are no
/// candidates.
#[must_use]
pub fn best_spare(
    topo: &Topology,
    displaced: &[DeviceId],
    candidates: &[&[DeviceId]],
) -> Option<usize> {
    candidates
        .iter()
        .enumerate()
        .map(|(i, resident)| (i, placement_affinity(topo, displaced, resident)))
        .max_by(|(ia, sa), (ib, sb)| sa.cmp(sb).then(ib.cmp(ia)))
        .map(|(i, _)| i)
}

/// How far a change's routing-update ripple can travel before the
/// fabric's path redundancy absorbs it.
///
/// A Clos fabric reaches every pod prefix over an ECMP set of core
/// paths, so many perturbations are invisible outside the perturbed
/// pod: a remote device's best-path *set* survives even though path
/// attributes inside the pod churned. The scope encodes that structural
/// argument per seed; topologies without pod labels (every
/// `Device::pod` is `None`) degrade to the unpruned flood.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RippleScope {
    /// The seed and its immediate neighbors: the change replays or
    /// re-filters existing announcements but cannot alter what anyone
    /// selects (e.g. a policy-only soft refresh — sessions survive,
    /// peers replay unchanged inputs).
    Neighbors,
    /// The seed's pod plus the pod-less core tier (spines, borders,
    /// attached speakers): remote pods keep their ECMP next-hop sets
    /// because redundant core paths to the affected prefixes remain
    /// (e.g. a single intra-pod link drain).
    PodAndCore,
    /// Unbounded: reachability information itself changed — an
    /// origination appeared or vanished, a device was lost, a speaker
    /// script swapped — so every FIB may gain or lose an entry.
    Fabric,
}

/// Grows the *dirty region* of an incremental change: every device in
/// `scope` reachable from `seeds` without traversing *through* a barrier
/// device.
///
/// The walk models routing-update ripple: a perturbed device re-announces
/// toward its neighbors, which re-announce onward, so reachability over
/// the adjacency graph is a conservative superset of the devices whose
/// RIB/FIB can change. `barriers` are devices that terminate the ripple —
/// static speakers, which record what they hear but never react or
/// reflect (§5.1) — they are *included* in the region when adjacent to
/// it (their received-log changes) but never expanded through. Devices
/// outside `scope` (not emulated, already removed) are skipped entirely.
///
/// Every seed floods ([`RippleScope::Fabric`]); use
/// [`dirty_region_scoped`] when the change's blast radius is
/// structurally bounded.
#[must_use]
pub fn dirty_region(
    topo: &Topology,
    scope: &std::collections::BTreeSet<DeviceId>,
    seeds: &[DeviceId],
    barriers: &std::collections::BTreeSet<DeviceId>,
) -> std::collections::BTreeSet<DeviceId> {
    let seeds: Vec<(DeviceId, RippleScope)> =
        seeds.iter().map(|&d| (d, RippleScope::Fabric)).collect();
    dirty_region_scoped(topo, scope, &seeds, barriers)
}

/// [`dirty_region`] with a per-seed [`RippleScope`] bound.
///
/// [`RippleScope::Neighbors`] seeds contribute themselves and their
/// in-scope neighbors. [`RippleScope::PodAndCore`] seeds BFS-expand, but
/// the frontier never enters a device labeled with a pod that contains
/// no `PodAndCore`/`Fabric` seed — the walk covers the seeds' own pods
/// and the pod-less core tier. [`RippleScope::Fabric`] seeds flood.
/// Barrier devices absorb in every mode (included when reached, never
/// expanded through, unless they are themselves seeds).
///
/// Deterministic: the frontier is processed in id order and the result
/// is an ordered set.
#[must_use]
pub fn dirty_region_scoped(
    topo: &Topology,
    scope: &std::collections::BTreeSet<DeviceId>,
    seeds: &[(DeviceId, RippleScope)],
    barriers: &std::collections::BTreeSet<DeviceId>,
) -> std::collections::BTreeSet<DeviceId> {
    use std::collections::{BTreeMap, BTreeSet, VecDeque};
    // Widest scope per seed device wins when a device seeds twice.
    let mut seed_scope: BTreeMap<DeviceId, RippleScope> = BTreeMap::new();
    for &(d, s) in seeds {
        if !scope.contains(&d) {
            continue;
        }
        let e = seed_scope.entry(d).or_insert(s);
        *e = (*e).max(s);
    }
    // Pods that expanding walks may enter.
    let seed_pods: BTreeSet<u32> = seed_scope
        .iter()
        .filter(|(_, s)| **s >= RippleScope::PodAndCore)
        .filter_map(|(d, _)| topo.device(*d).pod)
        .collect();
    // Only multi-hop pod-bounded walks are pod-constrained; a Neighbors
    // seed reaches its one-hop neighbors regardless of pod labels.
    let admissible = |dev: DeviceId, s: RippleScope| -> bool {
        s != RippleScope::PodAndCore || topo.device(dev).pod.is_none_or(|p| seed_pods.contains(&p))
    };

    let mut region: BTreeSet<DeviceId> = seed_scope.keys().copied().collect();
    let mut frontier: VecDeque<(DeviceId, RippleScope)> =
        seed_scope.iter().map(|(&d, &s)| (d, s)).collect();
    // Widest scope a device has been visited at; re-expansion only on
    // upgrade (e.g. a Fabric walk reaching a device first seen by a
    // pod-bounded walk).
    let mut visited: BTreeMap<DeviceId, RippleScope> = seed_scope.clone();
    while let Some((dev, s)) = frontier.pop_front() {
        if barriers.contains(&dev) && !seed_scope.contains_key(&dev) {
            continue; // speakers absorb the ripple
        }
        for next in topo.neighbor_devices(dev) {
            if !scope.contains(&next) {
                continue;
            }
            // Barriers are absorbed regardless of pod (their received
            // log changes); anything else must pass the scope rule.
            if !barriers.contains(&next) && !admissible(next, s) {
                continue;
            }
            let widened = match visited.get(&next) {
                Some(&prev) if prev >= s => false,
                _ => {
                    visited.insert(next, s);
                    true
                }
            };
            region.insert(next);
            if widened && s > RippleScope::Neighbors {
                frontier.push_back((next, s));
            }
        }
    }
    region
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ipv4Addr;
    use crate::topology::{Device, P2pAllocator};
    use crate::types::{Asn, Role, Vendor};

    fn line_topo(n: usize) -> Topology {
        let mut topo = Topology::new();
        let mut p2p = P2pAllocator::new("100.64.0.0/10".parse().unwrap());
        let ids: Vec<DeviceId> = (0..n)
            .map(|i| {
                topo.add_device(Device {
                    name: format!("d{i}"),
                    role: Role::Tor,
                    vendor: Vendor::CtnrA,
                    asn: Asn(65000 + i as u32),
                    loopback: Ipv4Addr::new(172, 16, (i / 256) as u8, (i % 256) as u8),
                    mgmt_addr: Ipv4Addr::new(192, 168, (i / 256) as u8, (i % 256) as u8),
                    originated: vec![],
                    ifaces: vec![],
                    pod: None,
                })
                .unwrap()
            })
            .collect();
        for w in ids.windows(2) {
            topo.connect_p2p(w[0], w[1], &mut p2p).unwrap();
        }
        topo
    }

    #[test]
    fn covers_every_device_exactly_once() {
        let topo = line_topo(10);
        let p = partition(&topo, 3);
        let mut seen = [false; 10];
        for (s, devs) in p.shards.iter().enumerate() {
            for d in devs {
                assert!(!seen[d.index()]);
                seen[d.index()] = true;
                assert_eq!(p.shard(*d), s);
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn line_graph_halves_with_one_cut() {
        let topo = line_topo(8);
        let p = partition(&topo, 2);
        assert_eq!(p.cut_links.len(), 1);
        assert_eq!(p.shards[0].len(), 4);
        assert_eq!(p.shards[1].len(), 4);
    }

    #[test]
    fn is_deterministic() {
        let topo = line_topo(17);
        let a = partition(&topo, 4);
        let b = partition(&topo, 4);
        assert_eq!(a.shard_of, b.shard_of);
        assert_eq!(a.cut_links, b.cut_links);
    }

    #[test]
    fn groups_stay_together() {
        let topo = line_topo(12);
        // Pair up adjacent devices: groups 0,0,1,1,2,2,...
        let groups: Vec<u32> = (0..12u32).map(|i| i / 2).collect();
        let p = partition_grouped(&topo, 3, &groups);
        for pair in 0..6 {
            assert_eq!(
                p.shard(DeviceId(pair * 2)),
                p.shard(DeviceId(pair * 2 + 1)),
                "group {pair} split across shards"
            );
        }
    }

    #[test]
    fn more_shards_than_devices_is_fine() {
        let topo = line_topo(3);
        let p = partition(&topo, 8);
        assert!(p.shard_count() <= 3);
        let mut all: Vec<DeviceId> = p.shards.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn spare_placement_prefers_topological_neighbors() {
        // Line 0-1-2-3-4-5: displace {2,3}. Candidate A holds {0,1}
        // (link 1-2 touches the displaced set), candidate B holds {4,5}
        // (link 3-4), candidate C is empty.
        let topo = line_topo(6);
        let displaced = [DeviceId(2), DeviceId(3)];
        let a = [DeviceId(0), DeviceId(1)];
        let b = [DeviceId(4), DeviceId(5)];
        let c: [DeviceId; 0] = [];
        assert_eq!(placement_affinity(&topo, &displaced, &a), 1);
        assert_eq!(placement_affinity(&topo, &displaced, &b), 1);
        assert_eq!(placement_affinity(&topo, &displaced, &c), 0);
        // Equal affinity: the lower candidate index wins — determinism.
        assert_eq!(best_spare(&topo, &displaced, &[&a, &b, &c]), Some(0));
        assert_eq!(best_spare(&topo, &displaced, &[&c, &b]), Some(1));
        assert_eq!(best_spare(&topo, &displaced, &[]), None);
    }

    #[test]
    fn dirty_region_stops_at_barriers() {
        // Line 0-1-2-3-4: scope everything, barrier at 2.
        let topo = line_topo(5);
        let scope: std::collections::BTreeSet<DeviceId> =
            (0..5).map(|i| DeviceId(i as u32)).collect();
        let barriers: std::collections::BTreeSet<DeviceId> = [DeviceId(2)].into();
        // Seed at 0: ripple reaches the barrier but not past it.
        let r = dirty_region(&topo, &scope, &[DeviceId(0)], &barriers);
        let got: Vec<u32> = r.iter().map(|d| d.0).collect();
        assert_eq!(got, vec![0, 1, 2]);
        // Seed *at* the barrier (a speaker swap): it expands outward.
        let r = dirty_region(&topo, &scope, &[DeviceId(2)], &barriers);
        let got: Vec<u32> = r.iter().map(|d| d.0).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        // Seeds outside the scope are dropped; empty seeds, empty region.
        let small: std::collections::BTreeSet<DeviceId> = [DeviceId(0), DeviceId(1)].into();
        let r = dirty_region(&topo, &small, &[DeviceId(4)], &barriers);
        assert!(r.is_empty());
        let r = dirty_region(&topo, &scope, &[], &barriers);
        assert!(r.is_empty());
    }

    #[test]
    fn single_shard_has_no_cut() {
        let topo = line_topo(5);
        let p = partition(&topo, 1);
        assert!(p.cut_links.is_empty());
        assert_eq!(p.shards[0].len(), 5);
        assert!(!p.is_cut(LinkId(0)));
    }

    /// Two pods (tor+leaf each, pod-labeled) over two pod-less spines,
    /// plus a pod-less speaker hanging off spine 4.
    ///
    /// ```text
    ///   0=tor(p0) — 1=leaf(p0) — 4=spine — 6=speaker
    ///                        \  /    |
    ///                         \/     |
    ///                         /\     |
    ///   2=tor(p1) — 3=leaf(p1) — 5=spine
    /// ```
    fn pod_topo() -> Topology {
        let mut topo = Topology::new();
        let mut p2p = P2pAllocator::new("100.64.0.0/10".parse().unwrap());
        let pods = [Some(0), Some(0), Some(1), Some(1), None, None, None];
        let ids: Vec<DeviceId> = pods
            .iter()
            .enumerate()
            .map(|(i, &pod)| {
                topo.add_device(Device {
                    name: format!("d{i}"),
                    role: if pod.is_some() {
                        Role::Tor
                    } else {
                        Role::Spine
                    },
                    vendor: Vendor::CtnrA,
                    asn: Asn(65100 + i as u32),
                    loopback: Ipv4Addr::new(172, 17, 0, i as u8),
                    mgmt_addr: Ipv4Addr::new(192, 168, 1, i as u8),
                    originated: vec![],
                    ifaces: vec![],
                    pod,
                })
                .unwrap()
            })
            .collect();
        for (a, b) in [(0, 1), (2, 3), (1, 4), (1, 5), (3, 4), (3, 5), (4, 6)] {
            topo.connect_p2p(ids[a], ids[b], &mut p2p).unwrap();
        }
        topo
    }

    #[test]
    fn scoped_dirty_region_prunes_remote_pods() {
        let topo = pod_topo();
        let scope: std::collections::BTreeSet<DeviceId> =
            (0..7).map(|i| DeviceId(i as u32)).collect();
        let barriers: std::collections::BTreeSet<DeviceId> = [DeviceId(6)].into();

        // Neighbors: a policy-only refresh on tor 0 touches the tor and
        // its leaf, nothing else.
        let r = dirty_region_scoped(
            &topo,
            &scope,
            &[(DeviceId(0), RippleScope::Neighbors)],
            &barriers,
        );
        let got: Vec<u32> = r.iter().map(|d| d.0).collect();
        assert_eq!(got, vec![0, 1]);

        // PodAndCore: a pod-0 perturbation covers pod 0 and the core
        // tier (spines + adjacent speaker) but never enters pod 1.
        let r = dirty_region_scoped(
            &topo,
            &scope,
            &[(DeviceId(0), RippleScope::PodAndCore)],
            &barriers,
        );
        let got: Vec<u32> = r.iter().map(|d| d.0).collect();
        assert_eq!(got, vec![0, 1, 4, 5, 6]);

        // Fabric floods — identical to the unscoped walk.
        let r = dirty_region_scoped(
            &topo,
            &scope,
            &[(DeviceId(0), RippleScope::Fabric)],
            &barriers,
        );
        assert_eq!(r, dirty_region(&topo, &scope, &[DeviceId(0)], &barriers));
        assert_eq!(r.len(), 7);

        // The widest scope wins when a device seeds twice.
        let r = dirty_region_scoped(
            &topo,
            &scope,
            &[
                (DeviceId(0), RippleScope::Neighbors),
                (DeviceId(0), RippleScope::Fabric),
            ],
            &barriers,
        );
        assert_eq!(r.len(), 7);

        // Unlabeled topologies cannot be pruned: PodAndCore degrades to
        // the flood because every device is core-tier.
        let line = line_topo(5);
        let line_scope: std::collections::BTreeSet<DeviceId> =
            (0..5).map(|i| DeviceId(i as u32)).collect();
        let none = std::collections::BTreeSet::new();
        let r = dirty_region_scoped(
            &line,
            &line_scope,
            &[(DeviceId(2), RippleScope::PodAndCore)],
            &none,
        );
        assert_eq!(r.len(), 5);
    }
}
