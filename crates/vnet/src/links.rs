//! Virtual data-plane links: veth pairs, bridges and VXLAN tunnels (§4.2).
//!
//! Each emulated interface is one side of a veth pair whose other side
//! plugs into a per-link bridge; when the remote end lives on another VM
//! the bridge also holds a VXLAN tunnel interface. Every virtual link gets
//! a unique VXLAN ID *per VM* for isolation. The same construction crosses
//! NATs and the public Internet (UDP outer header + hole punching), which
//! is what lets one emulation span clouds and on-premise hardware.

use crate::cloud::VmId;
use bytes::Bytes;
use crystalnet_dataplane::{EthernetFrame, Ipv4Packet, UdpDatagram, VxlanPacket, VXLAN_PORT};
use crystalnet_net::{Ipv4Addr, LinkId};
use crystalnet_sim::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Which bridge implementation wires the link (§6.2's design choice:
/// "Linux bridge or OVS?" — CrystalNet prefers the former because it only
/// needs dumb forwarding and sets up much faster at O(1000) tunnels/VM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BridgeImpl {
    /// Plain Linux bridge, iptables and STP disabled.
    LinuxBridge,
    /// Open vSwitch.
    Ovs,
}

impl BridgeImpl {
    /// Host-CPU time to set up one veth+bridge(+tunnel) assembly.
    #[must_use]
    pub fn setup_cpu(self) -> SimDuration {
        match self {
            BridgeImpl::LinuxBridge => SimDuration::from_millis(12),
            BridgeImpl::Ovs => SimDuration::from_millis(55),
        }
    }

    /// Host-CPU time to tear one down.
    #[must_use]
    pub fn teardown_cpu(self) -> SimDuration {
        match self {
            BridgeImpl::LinuxBridge => SimDuration::from_millis(4),
            BridgeImpl::Ovs => SimDuration::from_millis(18),
        }
    }
}

/// Where the two ends of a virtual link live relative to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkSpan {
    /// Both device sandboxes on the same VM: veth + local bridge only.
    IntraVm,
    /// Different VMs in one cloud: VXLAN over the provider network.
    InterVm,
    /// Different clouds / on-premise: VXLAN over the Internet, through
    /// NAT (UDP hole punching, §4.2).
    CrossCloud,
}

impl LinkSpan {
    /// One-way frame latency over this span.
    #[must_use]
    pub fn latency(self) -> SimDuration {
        match self {
            LinkSpan::IntraVm => SimDuration::from_micros(30),
            LinkSpan::InterVm => SimDuration::from_micros(250),
            LinkSpan::CrossCloud => SimDuration::from_millis(30),
        }
    }
}

/// Allocates per-VM-unique VXLAN IDs ("Orchestrator ensures that there is
/// no ID collision on the same VM", §4.2).
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct VniAllocator {
    next: u32,
    used_per_vm: HashMap<VmId, HashSet<u32>>,
}

impl VniAllocator {
    /// An empty allocator.
    #[must_use]
    pub fn new() -> Self {
        VniAllocator::default()
    }

    /// Allocates a VNI valid on both `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if the 24-bit VNI space is exhausted.
    pub fn allocate(&mut self, a: VmId, b: VmId) -> u32 {
        loop {
            let vni = self.next;
            self.next += 1;
            assert!(vni < (1 << 24), "VXLAN ID space exhausted");
            let free_a = !self.used_per_vm.get(&a).is_some_and(|s| s.contains(&vni));
            let free_b = !self.used_per_vm.get(&b).is_some_and(|s| s.contains(&vni));
            if free_a && free_b {
                self.used_per_vm.entry(a).or_default().insert(vni);
                self.used_per_vm.entry(b).or_default().insert(vni);
                return vni;
            }
        }
    }

    /// Releases a VNI on both VMs.
    pub fn release(&mut self, a: VmId, b: VmId, vni: u32) {
        if let Some(s) = self.used_per_vm.get_mut(&a) {
            s.remove(&vni);
        }
        if let Some(s) = self.used_per_vm.get_mut(&b) {
            s.remove(&vni);
        }
    }

    /// VNIs in use on one VM.
    #[must_use]
    pub fn in_use(&self, vm: VmId) -> usize {
        self.used_per_vm.get(&vm).map_or(0, HashSet::len)
    }
}

/// A provisioned virtual link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VirtualLink {
    /// The production link this emulates.
    pub link: LinkId,
    /// Host VM of end A's sandbox.
    pub vm_a: VmId,
    /// Host VM of end B's sandbox.
    pub vm_b: VmId,
    /// Span class.
    pub span: LinkSpan,
    /// VXLAN ID (only for inter-VM/cross-cloud spans).
    pub vni: Option<u32>,
    /// Administratively up.
    pub up: bool,
}

impl VirtualLink {
    /// Builds a link between sandboxes on `vm_a`/`vm_b`, allocating a
    /// VNI when the ends live on different VMs.
    pub fn provision(
        link: LinkId,
        vm_a: VmId,
        vm_b: VmId,
        cross_cloud: bool,
        vnis: &mut VniAllocator,
    ) -> VirtualLink {
        let span = if vm_a == vm_b {
            LinkSpan::IntraVm
        } else if cross_cloud {
            LinkSpan::CrossCloud
        } else {
            LinkSpan::InterVm
        };
        let vni = (span != LinkSpan::IntraVm).then(|| vnis.allocate(vm_a, vm_b));
        VirtualLink {
            link,
            vm_a,
            vm_b,
            span,
            vni,
            up: true,
        }
    }

    /// Encapsulates a device frame for the underlay (inter-VM spans).
    ///
    /// Returns the raw underlay IPv4 packet bytes, exactly what would hit
    /// the provider network.
    ///
    /// # Panics
    ///
    /// Panics on intra-VM links (nothing to encapsulate).
    #[must_use]
    pub fn encapsulate(
        &self,
        frame: &EthernetFrame,
        src_vtep: Ipv4Addr,
        dst_vtep: Ipv4Addr,
    ) -> Bytes {
        let vni = self.vni.expect("intra-VM links are not encapsulated");
        let vxlan = VxlanPacket {
            vni,
            inner: frame.encode(),
        };
        let udp = UdpDatagram {
            src_port: 49152 + (vni & 0x3fff) as u16,
            dst_port: VXLAN_PORT,
            payload: vxlan.encode(),
        };
        Ipv4Packet {
            src: src_vtep,
            dst: dst_vtep,
            protocol: crystalnet_dataplane::ipproto::UDP,
            ttl: 64,
            identification: 0,
            payload: udp.encode(),
        }
        .encode()
    }

    /// Decapsulates an underlay packet back to the device frame,
    /// verifying the VNI matches this link.
    ///
    /// Returns `None` for foreign VNIs (isolation) or malformed packets.
    #[must_use]
    pub fn decapsulate(&self, wire: Bytes) -> Option<EthernetFrame> {
        let ip = Ipv4Packet::decode(wire).ok()?;
        let udp = UdpDatagram::decode(ip.payload).ok()?;
        if udp.dst_port != VXLAN_PORT {
            return None;
        }
        let vxlan = VxlanPacket::decode(udp.payload).ok()?;
        if Some(vxlan.vni) != self.vni {
            return None;
        }
        EthernetFrame::decode(vxlan.inner).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crystalnet_net::MacAddr;

    #[test]
    fn vni_uniqueness_per_vm() {
        let mut a = VniAllocator::new();
        let mut seen = HashSet::new();
        for i in 0..100 {
            let vni = a.allocate(VmId(0), VmId(1 + i % 3));
            assert!(seen.insert(vni), "vni {vni} reused on vm0");
        }
        assert_eq!(a.in_use(VmId(0)), 100);
        let vni = *seen.iter().next().unwrap();
        a.release(VmId(0), VmId(1), vni);
        assert_eq!(a.in_use(VmId(0)), 99);
    }

    #[test]
    fn intra_vm_links_need_no_vni() {
        let mut vnis = VniAllocator::new();
        let l = VirtualLink::provision(LinkId(0), VmId(3), VmId(3), false, &mut vnis);
        assert_eq!(l.span, LinkSpan::IntraVm);
        assert_eq!(l.vni, None);
    }

    #[test]
    fn spans_latency_ordering() {
        assert!(LinkSpan::IntraVm.latency() < LinkSpan::InterVm.latency());
        assert!(LinkSpan::InterVm.latency() < LinkSpan::CrossCloud.latency());
    }

    #[test]
    fn linux_bridge_is_cheaper_than_ovs() {
        assert!(BridgeImpl::LinuxBridge.setup_cpu() < BridgeImpl::Ovs.setup_cpu());
        assert!(BridgeImpl::LinuxBridge.teardown_cpu() < BridgeImpl::Ovs.teardown_cpu());
    }

    #[test]
    fn encap_decap_round_trip() {
        let mut vnis = VniAllocator::new();
        let l = VirtualLink::provision(LinkId(7), VmId(0), VmId(1), false, &mut vnis);
        let frame = EthernetFrame {
            dst: MacAddr::from_id(1),
            src: MacAddr::from_id(2),
            ethertype: crystalnet_dataplane::ethertype::IPV4,
            payload: Bytes::from_static(b"bgp update bytes"),
        };
        let wire = l.encapsulate(
            &frame,
            Ipv4Addr::new(10, 0, 0, 4),
            Ipv4Addr::new(10, 0, 0, 5),
        );
        let back = l.decapsulate(wire).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn decap_rejects_foreign_vni() {
        let mut vnis = VniAllocator::new();
        let l1 = VirtualLink::provision(LinkId(1), VmId(0), VmId(1), false, &mut vnis);
        let l2 = VirtualLink::provision(LinkId(2), VmId(0), VmId(1), false, &mut vnis);
        let frame = EthernetFrame {
            dst: MacAddr::from_id(1),
            src: MacAddr::from_id(2),
            ethertype: 0x0800,
            payload: Bytes::new(),
        };
        let wire = l1.encapsulate(&frame, Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2));
        assert!(l2.decapsulate(wire).is_none(), "links are isolated by VNI");
    }

    #[test]
    fn cross_cloud_links_are_marked() {
        let mut vnis = VniAllocator::new();
        let l = VirtualLink::provision(LinkId(3), VmId(0), VmId(9), true, &mut vnis);
        assert_eq!(l.span, LinkSpan::CrossCloud);
        assert!(l.vni.is_some());
    }
}
