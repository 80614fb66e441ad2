//! The management-plane overlay (§4.2, Figure 6).
//!
//! Operators' tools reach devices by IP over an out-of-band management
//! network. CrystalNet builds it as a *tree*, not a full L2 mesh — "this
//! would cause the notorious L2 storm in such an overlay": each VM runs a
//! management bridge VXLAN-tunneled to a Linux jumpbox, every local
//! device's `ma` interface hangs off the VM bridge, other jumpboxes join
//! by VPN, and the jumpbox serves DNS for device management names.

use crate::cloud::VmId;
use crystalnet_net::Ipv4Addr;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A node in the management overlay graph.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MgmtNode {
    /// The central Linux jumpbox.
    LinuxJumpbox,
    /// An auxiliary jumpbox (e.g. Windows) attached via VPN.
    AuxJumpbox(String),
    /// The management bridge on one VM.
    VmBridge(VmId),
    /// One device's management interface.
    Device(String),
}

/// The management overlay: topology + DNS.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct ManagementOverlay {
    /// Undirected edges (kept as ordered pairs).
    edges: Vec<(MgmtNode, MgmtNode)>,
    /// DNS: device name → management IP.
    dns: BTreeMap<String, Ipv4Addr>,
    /// Reverse: management IP → device name.
    rdns: BTreeMap<Ipv4Addr, String>,
}

/// Errors while building the overlay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MgmtError {
    /// The device name is already registered.
    DuplicateDevice(String),
    /// The management IP is already assigned.
    DuplicateAddress(Ipv4Addr),
}

impl std::fmt::Display for MgmtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MgmtError::DuplicateDevice(n) => write!(f, "duplicate device `{n}`"),
            MgmtError::DuplicateAddress(a) => write!(f, "duplicate management IP {a}"),
        }
    }
}

impl std::error::Error for MgmtError {}

impl ManagementOverlay {
    /// An overlay containing just the Linux jumpbox.
    #[must_use]
    pub fn new() -> Self {
        ManagementOverlay::default()
    }

    /// Attaches a VM's management bridge to the jumpbox (one VXLAN
    /// tunnel).
    pub fn attach_vm(&mut self, vm: VmId) {
        self.edges
            .push((MgmtNode::LinuxJumpbox, MgmtNode::VmBridge(vm)));
    }

    /// Attaches an auxiliary jumpbox by VPN.
    pub fn attach_aux_jumpbox(&mut self, name: &str) {
        self.edges.push((
            MgmtNode::LinuxJumpbox,
            MgmtNode::AuxJumpbox(name.to_string()),
        ));
    }

    /// Registers a device on a VM's bridge with its management address.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names and duplicate addresses.
    pub fn register_device(
        &mut self,
        vm: VmId,
        name: &str,
        addr: Ipv4Addr,
    ) -> Result<(), MgmtError> {
        if self.dns.contains_key(name) {
            return Err(MgmtError::DuplicateDevice(name.to_string()));
        }
        if self.rdns.contains_key(&addr) {
            return Err(MgmtError::DuplicateAddress(addr));
        }
        self.edges
            .push((MgmtNode::VmBridge(vm), MgmtNode::Device(name.to_string())));
        self.dns.insert(name.to_string(), addr);
        self.rdns.insert(addr, name.to_string());
        Ok(())
    }

    /// The VM whose management bridge `name` hangs off.
    #[must_use]
    pub fn vm_of(&self, name: &str) -> Option<VmId> {
        self.edges.iter().find_map(|edge| match edge {
            (MgmtNode::VmBridge(vm), MgmtNode::Device(n)) if n == name => Some(*vm),
            _ => None,
        })
    }

    /// Moves a registered device's edge onto `vm`'s bridge (its sandbox
    /// was re-placed); its name and address stay as they are. Returns
    /// whether the device was registered.
    pub fn move_device(&mut self, name: &str, vm: VmId) -> bool {
        if !self.dns.contains_key(name) {
            return false; // the common miss costs no scan
        }
        let edge = self
            .edges
            .iter_mut()
            .find(|edge| matches!(&edge.1, MgmtNode::Device(n) if n == name))
            .expect("a registered device has an edge");
        edge.0 = MgmtNode::VmBridge(vm);
        true
    }

    /// DNS lookup: device name → management IP.
    #[must_use]
    pub fn resolve(&self, name: &str) -> Option<Ipv4Addr> {
        self.dns.get(name).copied()
    }

    /// Reverse lookup: management IP → device name.
    #[must_use]
    pub fn reverse(&self, addr: Ipv4Addr) -> Option<&str> {
        self.rdns.get(&addr).map(String::as_str)
    }

    /// Number of registered devices.
    #[must_use]
    pub fn device_count(&self) -> usize {
        self.dns.len()
    }

    /// Whether the overlay is a tree (connected, acyclic) — the property
    /// that rules out L2 storms. An empty overlay counts as a tree.
    #[must_use]
    pub fn is_tree(&self) -> bool {
        if self.edges.is_empty() {
            return true;
        }
        // Union-find over nodes; a cycle appears iff an edge joins two
        // already-connected nodes.
        let mut ids: BTreeMap<&MgmtNode, usize> = BTreeMap::new();
        for (a, b) in &self.edges {
            let n = ids.len();
            ids.entry(a).or_insert(n);
            let n = ids.len();
            ids.entry(b).or_insert(n);
        }
        let mut parent: Vec<usize> = (0..ids.len()).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for (a, b) in &self.edges {
            let (ra, rb) = (find(&mut parent, ids[a]), find(&mut parent, ids[b]));
            if ra == rb {
                return false; // cycle
            }
            parent[ra] = rb;
        }
        // Acyclic with edges = nodes - 1 components merging: connected iff
        // one root.
        let roots: BTreeSet<usize> = (0..parent.len()).map(|i| find(&mut parent, i)).collect();
        roots.len() == 1
    }

    /// The number of hops a management packet takes from the Linux
    /// jumpbox to a device (jumpbox → VM bridge → device = 2).
    #[must_use]
    pub fn hops_to(&self, name: &str) -> Option<usize> {
        // BFS from the jumpbox.
        let target = MgmtNode::Device(name.to_string());
        let mut adj: BTreeMap<&MgmtNode, Vec<&MgmtNode>> = BTreeMap::new();
        for (a, b) in &self.edges {
            adj.entry(a).or_default().push(b);
            adj.entry(b).or_default().push(a);
        }
        let start = MgmtNode::LinuxJumpbox;
        let mut dist: BTreeMap<&MgmtNode, usize> = BTreeMap::new();
        dist.insert(&start, 0);
        let mut queue = VecDeque::from([&start]);
        while let Some(node) = queue.pop_front() {
            let d = dist[node];
            if *node == target {
                return Some(d);
            }
            for next in adj.get(node).into_iter().flatten() {
                if !dist.contains_key(*next) {
                    dist.insert(next, d + 1);
                    queue.push_back(next);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(n: u32) -> Ipv4Addr {
        Ipv4Addr(0xc0a8_0000 + n)
    }

    #[test]
    fn overlay_is_a_tree_and_resolves_names() {
        let mut m = ManagementOverlay::new();
        for vm in 0..5 {
            m.attach_vm(VmId(vm));
            for d in 0..10 {
                m.register_device(VmId(vm), &format!("dev-{vm}-{d}"), ip(vm * 100 + d))
                    .unwrap();
            }
        }
        m.attach_aux_jumpbox("windows-jb");
        assert!(m.is_tree(), "management overlay must be loop-free");
        assert_eq!(m.device_count(), 50);
        assert_eq!(m.resolve("dev-3-7"), Some(ip(307)));
        assert_eq!(m.reverse(ip(307)), Some("dev-3-7"));
        assert_eq!(m.resolve("nope"), None);
        // Jumpbox -> VM bridge -> device.
        assert_eq!(m.hops_to("dev-3-7"), Some(2));
        // A re-placed device changes bridge and nothing else.
        assert_eq!(m.vm_of("dev-3-7"), Some(VmId(3)));
        assert!(m.move_device("dev-3-7", VmId(1)));
        assert!(!m.move_device("nope", VmId(1)));
        assert_eq!(m.vm_of("dev-3-7"), Some(VmId(1)));
        assert_eq!(m.resolve("dev-3-7"), Some(ip(307)));
        assert!(m.is_tree());
        assert_eq!(m.hops_to("dev-3-7"), Some(2));
    }

    #[test]
    fn duplicate_registrations_rejected() {
        let mut m = ManagementOverlay::new();
        m.attach_vm(VmId(0));
        m.register_device(VmId(0), "a", ip(1)).unwrap();
        assert_eq!(
            m.register_device(VmId(0), "a", ip(2)),
            Err(MgmtError::DuplicateDevice("a".into()))
        );
        assert_eq!(
            m.register_device(VmId(0), "b", ip(1)),
            Err(MgmtError::DuplicateAddress(ip(1)))
        );
    }

    #[test]
    fn full_mesh_would_not_be_a_tree() {
        // The design §4.2 explicitly avoids: bridges meshed together.
        let mut m = ManagementOverlay::new();
        m.attach_vm(VmId(0));
        m.attach_vm(VmId(1));
        // Manually mesh the two VM bridges (what the paper avoids).
        m.edges
            .push((MgmtNode::VmBridge(VmId(0)), MgmtNode::VmBridge(VmId(1))));
        assert!(!m.is_tree(), "a meshed overlay has an L2 loop");
    }

    #[test]
    fn empty_overlay_is_trivially_a_tree() {
        assert!(ManagementOverlay::new().is_tree());
    }
}
