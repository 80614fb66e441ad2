//! The production-network topology model.
//!
//! A [`Topology`] is the artifact CrystalNet's `Prepare` phase snapshots
//! from production: devices (with role, vendor, ASN, interfaces and
//! originated prefixes) and point-to-point links. It is a plain data
//! structure — the emulation layers (vnet, routing, orchestrator) interpret
//! it; boundary analysis walks it.

use crate::addr::{Ipv4Addr, Ipv4Cidr, Ipv4Prefix, MacAddr};
use crate::types::{Asn, DeviceId, Endpoint, LinkId, Role, Vendor};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A network interface on a device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Interface {
    /// Interface name as the firmware shows it (`et0`, `et1`, ...).
    pub name: String,
    /// The interface's /31 point-to-point address, if numbered.
    pub addr: Option<Ipv4Cidr>,
    /// MAC address assigned by the PhyNet layer.
    pub mac: MacAddr,
    /// The link this interface is plugged into, if any.
    pub link: Option<LinkId>,
}

/// A device in the production topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Device {
    /// Production hostname (`dc1-pod003-leaf2`, ...).
    pub name: String,
    /// Clos/WAN role.
    pub role: Role,
    /// Firmware vendor.
    pub vendor: Vendor,
    /// BGP autonomous system.
    pub asn: Asn,
    /// Loopback /32 used as router-id and telemetry address.
    pub loopback: Ipv4Addr,
    /// Management-plane address (out-of-band overlay, §4.2).
    pub mgmt_addr: Ipv4Addr,
    /// Prefixes this device originates into BGP (server subnets, VIPs).
    pub originated: Vec<Ipv4Prefix>,
    /// Interfaces, indexed by `Endpoint::iface`.
    pub ifaces: Vec<Interface>,
    /// Pod number for pod-scoped devices (ToR/Leaf), else `None`.
    pub pod: Option<u32>,
}

/// A point-to-point link between two device interfaces.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Link {
    /// One end.
    pub a: Endpoint,
    /// The other end.
    pub b: Endpoint,
}

impl Link {
    /// The end of this link that is *not* on `device`.
    ///
    /// Returns `None` if `device` is on neither end.
    #[must_use]
    pub fn other(&self, device: DeviceId) -> Option<Endpoint> {
        if self.a.device == device {
            Some(self.b)
        } else if self.b.device == device {
            Some(self.a)
        } else {
            None
        }
    }

    /// The end of this link on `device`.
    #[must_use]
    pub fn end_on(&self, device: DeviceId) -> Option<Endpoint> {
        if self.a.device == device {
            Some(self.a)
        } else if self.b.device == device {
            Some(self.b)
        } else {
            None
        }
    }
}

/// Errors raised while constructing a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A device name was used twice.
    DuplicateName(String),
    /// A link referenced an interface that is already connected.
    InterfaceInUse(String, u32),
    /// A link referenced a nonexistent device or interface.
    NoSuchEndpoint(String),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::DuplicateName(n) => write!(f, "duplicate device name `{n}`"),
            TopologyError::InterfaceInUse(n, i) => {
                write!(f, "interface {i} on `{n}` is already linked")
            }
            TopologyError::NoSuchEndpoint(n) => write!(f, "no such endpoint `{n}`"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A production network: devices and the links between them.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Topology {
    devices: Vec<Device>,
    links: Vec<Link>,
    #[serde(skip)]
    name_index: BTreeMap<String, DeviceId>,
}

impl Topology {
    /// An empty topology.
    #[must_use]
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds a device with no interfaces yet; returns its handle.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::DuplicateName`] if the hostname is taken.
    pub fn add_device(&mut self, device: Device) -> Result<DeviceId, TopologyError> {
        if self.name_index.contains_key(&device.name) {
            return Err(TopologyError::DuplicateName(device.name));
        }
        let id = DeviceId(self.devices.len() as u32);
        self.name_index.insert(device.name.clone(), id);
        self.devices.push(device);
        Ok(id)
    }

    /// Appends an unconnected interface to `device`; returns its index.
    pub fn add_interface(&mut self, device: DeviceId, addr: Option<Ipv4Cidr>) -> u32 {
        let dev = &mut self.devices[device.index()];
        let idx = dev.ifaces.len() as u32;
        let mac = MacAddr::from_id((device.0 << 12) | idx);
        dev.ifaces.push(Interface {
            name: format!("et{idx}"),
            addr,
            mac,
            link: None,
        });
        idx
    }

    /// Connects two existing interfaces with a new link.
    ///
    /// # Errors
    ///
    /// Fails if an endpoint does not exist or is already connected.
    pub fn connect(&mut self, a: Endpoint, b: Endpoint) -> Result<LinkId, TopologyError> {
        for ep in [a, b] {
            let dev = self
                .devices
                .get(ep.device.index())
                .ok_or_else(|| TopologyError::NoSuchEndpoint(format!("{}", ep.device)))?;
            let iface = dev.ifaces.get(ep.iface as usize).ok_or_else(|| {
                TopologyError::NoSuchEndpoint(format!("{}:{}", dev.name, ep.iface))
            })?;
            if iface.link.is_some() {
                return Err(TopologyError::InterfaceInUse(dev.name.clone(), ep.iface));
            }
        }
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link { a, b });
        self.devices[a.device.index()].ifaces[a.iface as usize].link = Some(id);
        self.devices[b.device.index()].ifaces[b.iface as usize].link = Some(id);
        Ok(id)
    }

    /// Convenience: adds a /31-numbered interface pair on both devices and
    /// links them, allocating addresses from `p2p`.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::connect`] failures.
    pub fn connect_p2p(
        &mut self,
        a: DeviceId,
        b: DeviceId,
        p2p: &mut P2pAllocator,
    ) -> Result<LinkId, TopologyError> {
        let (addr_a, addr_b) = p2p.next_pair();
        let ia = self.add_interface(a, Some(addr_a));
        let ib = self.add_interface(b, Some(addr_b));
        self.connect(
            Endpoint {
                device: a,
                iface: ia,
            },
            Endpoint {
                device: b,
                iface: ib,
            },
        )
    }

    /// Number of devices.
    #[must_use]
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Number of links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// All devices with their handles.
    pub fn devices(&self) -> impl Iterator<Item = (DeviceId, &Device)> {
        self.devices
            .iter()
            .enumerate()
            .map(|(i, d)| (DeviceId(i as u32), d))
    }

    /// All links with their handles.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId(i as u32), l))
    }

    /// The device behind a handle.
    #[must_use]
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.index()]
    }

    /// Mutable access to a device.
    pub fn device_mut(&mut self, id: DeviceId) -> &mut Device {
        &mut self.devices[id.index()]
    }

    /// The link behind a handle.
    #[must_use]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Looks up a device by production hostname.
    #[must_use]
    pub fn by_name(&self, name: &str) -> Option<DeviceId> {
        self.name_index.get(name).copied()
    }

    /// Neighbors of `device`: (link, local endpoint, remote endpoint).
    pub fn neighbors(
        &self,
        device: DeviceId,
    ) -> impl Iterator<Item = (LinkId, Endpoint, Endpoint)> + '_ {
        self.devices[device.index()]
            .ifaces
            .iter()
            .enumerate()
            .filter_map(move |(i, iface)| {
                let link_id = iface.link?;
                let link = &self.links[link_id.index()];
                let local = Endpoint {
                    device,
                    iface: i as u32,
                };
                let remote = link.other(device)?;
                Some((link_id, local, remote))
            })
    }

    /// Neighbor device ids of `device` (deduplicated is unnecessary for
    /// p2p-only fabrics; parallel links yield repeats).
    pub fn neighbor_devices(&self, device: DeviceId) -> impl Iterator<Item = DeviceId> + '_ {
        self.neighbors(device).map(|(_, _, remote)| remote.device)
    }

    /// Rebuilds the name index after deserialization.
    pub fn reindex(&mut self) {
        self.name_index = self
            .devices
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name.clone(), DeviceId(i as u32)))
            .collect();
    }

    /// Total prefixes originated across all devices.
    #[must_use]
    pub fn originated_prefix_count(&self) -> usize {
        self.devices.iter().map(|d| d.originated.len()).sum()
    }

    /// Whether `a` and `b` are directly linked.
    #[must_use]
    pub fn adjacent(&self, a: DeviceId, b: DeviceId) -> bool {
        self.neighbor_devices(a).any(|n| n == b)
    }
}

/// Allocates /31 point-to-point subnets from a pool prefix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct P2pAllocator {
    pool: Ipv4Prefix,
    next: u32,
}

impl P2pAllocator {
    /// An allocator carving /31s out of `pool`.
    #[must_use]
    pub fn new(pool: Ipv4Prefix) -> Self {
        P2pAllocator { pool, next: 0 }
    }

    /// The next /31 pair: two interface addresses sharing a /31 subnet.
    ///
    /// # Panics
    ///
    /// Panics if the pool is exhausted.
    pub fn next_pair(&mut self) -> (Ipv4Cidr, Ipv4Cidr) {
        let base = self.pool.network().offset(self.next * 2);
        assert!(
            self.pool.contains(base) && self.pool.contains(base.offset(1)),
            "p2p pool {} exhausted",
            self.pool
        );
        self.next += 1;
        (Ipv4Cidr::new(base, 31), Ipv4Cidr::new(base.offset(1), 31))
    }

    /// The subnet count handed out so far.
    #[must_use]
    pub fn allocated(&self) -> u32 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn device(name: &str, role: Role, asn: u32) -> Device {
        Device {
            name: name.to_string(),
            role,
            vendor: Vendor::CtnrA,
            asn: Asn(asn),
            loopback: Ipv4Addr::new(172, 16, 0, 1),
            mgmt_addr: Ipv4Addr::new(192, 168, 0, 1),
            originated: vec![],
            ifaces: vec![],
            pod: None,
        }
    }

    #[test]
    fn build_two_node_topology() {
        let mut topo = Topology::new();
        let a = topo.add_device(device("a", Role::Tor, 1)).unwrap();
        let b = topo.add_device(device("b", Role::Leaf, 2)).unwrap();
        let mut p2p = P2pAllocator::new("100.64.0.0/10".parse().unwrap());
        let link = topo.connect_p2p(a, b, &mut p2p).unwrap();

        assert_eq!(topo.device_count(), 2);
        assert_eq!(topo.link_count(), 1);
        assert!(topo.adjacent(a, b));
        assert_eq!(topo.by_name("a"), Some(a));
        assert_eq!(topo.by_name("zzz"), None);
        let (lid, local, remote) = topo.neighbors(a).next().unwrap();
        assert_eq!(lid, link);
        assert_eq!(local.device, a);
        assert_eq!(remote.device, b);
        // /31 pair shares a subnet but the host addresses differ.
        let ia = topo.device(a).ifaces[0].addr.unwrap();
        let ib = topo.device(b).ifaces[0].addr.unwrap();
        assert!(ia.same_subnet(ib));
        assert_ne!(ia.addr, ib.addr);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut topo = Topology::new();
        topo.add_device(device("a", Role::Tor, 1)).unwrap();
        assert_eq!(
            topo.add_device(device("a", Role::Tor, 1)),
            Err(TopologyError::DuplicateName("a".into()))
        );
    }

    #[test]
    fn interface_reuse_rejected() {
        let mut topo = Topology::new();
        let a = topo.add_device(device("a", Role::Tor, 1)).unwrap();
        let b = topo.add_device(device("b", Role::Leaf, 2)).unwrap();
        let c = topo.add_device(device("c", Role::Leaf, 3)).unwrap();
        let ia = topo.add_interface(a, None);
        let ib = topo.add_interface(b, None);
        let ic = topo.add_interface(c, None);
        let ea = Endpoint {
            device: a,
            iface: ia,
        };
        topo.connect(
            ea,
            Endpoint {
                device: b,
                iface: ib,
            },
        )
        .unwrap();
        let err = topo
            .connect(
                ea,
                Endpoint {
                    device: c,
                    iface: ic,
                },
            )
            .unwrap_err();
        assert_eq!(err, TopologyError::InterfaceInUse("a".into(), 0));
    }

    #[test]
    fn bogus_endpoints_rejected() {
        let mut topo = Topology::new();
        let a = topo.add_device(device("a", Role::Tor, 1)).unwrap();
        let ia = topo.add_interface(a, None);
        let err = topo.connect(
            Endpoint {
                device: a,
                iface: ia,
            },
            Endpoint {
                device: DeviceId(99),
                iface: 0,
            },
        );
        assert!(matches!(err, Err(TopologyError::NoSuchEndpoint(_))));
        let err = topo.connect(
            Endpoint {
                device: a,
                iface: 7,
            },
            Endpoint {
                device: a,
                iface: ia,
            },
        );
        assert!(matches!(err, Err(TopologyError::NoSuchEndpoint(_))));
    }

    #[test]
    fn link_other_end() {
        let l = Link {
            a: Endpoint {
                device: DeviceId(0),
                iface: 1,
            },
            b: Endpoint {
                device: DeviceId(1),
                iface: 2,
            },
        };
        assert_eq!(l.other(DeviceId(0)).unwrap().device, DeviceId(1));
        assert_eq!(l.other(DeviceId(1)).unwrap().device, DeviceId(0));
        assert_eq!(l.other(DeviceId(9)), None);
        assert_eq!(l.end_on(DeviceId(1)).unwrap().iface, 2);
    }

    #[test]
    fn reindex_after_deserialization() {
        let mut topo = Topology::new();
        topo.add_device(device("a", Role::Tor, 1)).unwrap();
        topo.add_device(device("b", Role::Tor, 2)).unwrap();
        let json = serde_json::to_string(&topo).unwrap();
        let mut back: Topology = serde_json::from_str(&json).unwrap();
        assert_eq!(back.by_name("b"), None); // index skipped in serde
        back.reindex();
        assert_eq!(back.by_name("b"), Some(DeviceId(1)));
    }

    #[test]
    fn p2p_allocator_hands_out_distinct_pairs() {
        let mut p2p = P2pAllocator::new("100.64.0.0/28".parse().unwrap());
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..8 {
            let (a, b) = p2p.next_pair();
            assert!(seen.insert(a.addr));
            assert!(seen.insert(b.addr));
            assert!(a.same_subnet(b));
        }
        assert_eq!(p2p.allocated(), 8);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn p2p_allocator_panics_when_exhausted() {
        let mut p2p = P2pAllocator::new("100.64.0.0/30".parse().unwrap());
        p2p.next_pair();
        p2p.next_pair();
        p2p.next_pair();
    }
}
