//! Regional topology for the §7 Case-1 migration experience.
//!
//! Case 1 migrates inter-DC/intra-region traffic from a legacy WAN onto new
//! *regional backbone* routers. The emulated network there consisted of all
//! spine routers of two large datacenters (Vendor-A containers), all
//! regional backbone routers, and several legacy WAN cores (Vendor-B VM
//! images). This module generates that shape: two Clos DCs, a regional
//! backbone mesh, and legacy WAN cores, with the DCs' borders dual-homed to
//! both the legacy WAN and (after migration) the backbone.

use crate::addr::{Ipv4Addr, Ipv4Prefix};
use crate::clos::{ClosParams, ClosTopology};
use crate::topology::{Device, P2pAllocator, Topology};
use crate::types::{Asn, DeviceId, Role, Vendor};
use serde::{Deserialize, Serialize};

/// ASNs of the regional layers.
pub mod asn {
    use crate::types::Asn;

    /// All regional backbone routers share one AS.
    pub const REGIONAL: Asn = Asn(64950);
    /// Legacy WAN core AS.
    pub const WAN: Asn = Asn(64900);
    /// Border AS of datacenter `i` within the region (borders inside one
    /// DC share an AS; the two DCs differ so routes transit the region).
    #[must_use]
    pub fn dc_border(dc: u32) -> Asn {
        Asn(65000 + dc)
    }
}

/// Parameters for a two-DC region.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegionParams {
    /// Per-DC Clos parameters (the DC name is suffixed `-dc0`/`-dc1`).
    pub dc: ClosParams,
    /// Number of regional backbone routers.
    pub backbones: u32,
    /// Number of legacy WAN core routers.
    pub wan_cores: u32,
    /// Whether borders are already connected to the regional backbone
    /// (post-migration state) or only to the WAN (pre-migration).
    pub backbone_connected: bool,
}

impl RegionParams {
    /// The Case-1 evaluation shape: two mid-size DCs, four regional
    /// backbone routers, four legacy WAN cores, pre-migration.
    #[must_use]
    pub fn case1() -> Self {
        RegionParams {
            dc: ClosParams::m_dc(),
            backbones: 4,
            wan_cores: 4,
            backbone_connected: false,
        }
    }

    /// Builds the region.
    #[must_use]
    pub fn build(&self) -> RegionTopology {
        let mut topo = Topology::new();
        let mut p2p = P2pAllocator::new("100.96.0.0/12".parse().unwrap());
        let mut seq = 0u32;
        let mut mk = |topo: &mut Topology, name: String, role: Role, vendor: Vendor, asn: Asn| {
            let loopback = Ipv4Addr::new(172, 24, (seq >> 8) as u8, (seq & 0xff) as u8);
            let dev = Device {
                name,
                role,
                vendor,
                asn,
                loopback,
                mgmt_addr: Ipv4Addr::new(192, 169, (seq >> 8) as u8, (seq & 0xff) as u8),
                originated: vec![Ipv4Prefix::host(loopback)],
                ifaces: vec![],
                pod: None,
            };
            seq += 1;
            topo.add_device(dev).expect("unique names")
        };

        // Regional backbones (new design, Vendor-A: containerized) and
        // legacy WAN cores (Vendor-B: VM images), matching §7.
        let backbones: Vec<DeviceId> = (0..self.backbones)
            .map(|i| {
                mk(
                    &mut topo,
                    format!("region-rbb{i}"),
                    Role::Regional,
                    Vendor::CtnrA,
                    asn::REGIONAL,
                )
            })
            .collect();
        let wan_cores: Vec<DeviceId> = (0..self.wan_cores)
            .map(|i| {
                mk(
                    &mut topo,
                    format!("region-wan{i}"),
                    Role::WanCore,
                    Vendor::VmB,
                    asn::WAN,
                )
            })
            .collect();
        // Backbones peer with the WAN cores (the region stays reachable
        // from the rest of the world during migration).
        for &bb in &backbones {
            for &wc in &wan_cores {
                topo.connect_p2p(bb, wc, &mut p2p).expect("fresh ifaces");
            }
        }

        // Two datacenters. We rebuild each DC inside the shared topology so
        // device ids are region-global.
        let mut dcs = Vec::new();
        for dc_idx in 0..2u32 {
            let mut params = self.dc.clone();
            params.name = format!("{}-dc{dc_idx}", params.name);
            // External peers are replaced by the regional layers here.
            params.ext_peers_per_border = 0;
            let built = params.build();
            let dc = graft(&mut topo, &built, dc_idx, &mut p2p);
            // Border uplinks: always to the legacy WAN; to the backbone
            // only once `backbone_connected`.
            for &border in &dc.borders {
                for &wc in &wan_cores {
                    topo.connect_p2p(border, wc, &mut p2p)
                        .expect("fresh ifaces");
                }
                if self.backbone_connected {
                    for &bb in &backbones {
                        topo.connect_p2p(border, bb, &mut p2p)
                            .expect("fresh ifaces");
                    }
                }
            }
            dcs.push(dc);
        }

        RegionTopology {
            topo,
            backbones,
            wan_cores,
            dcs,
        }
    }
}

/// A datacenter grafted into the regional topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegionDc {
    /// Region-global border ids.
    pub borders: Vec<DeviceId>,
    /// Region-global spine ids.
    pub spines: Vec<DeviceId>,
    /// Region-global leaf ids.
    pub leaves: Vec<DeviceId>,
    /// Region-global ToR ids.
    pub tors: Vec<DeviceId>,
}

/// Copies a built Clos DC into `topo`, remapping ids, re-ASN'ing borders to
/// the per-DC border AS, and re-wiring internal links.
fn graft(topo: &mut Topology, dc: &ClosTopology, dc_idx: u32, p2p: &mut P2pAllocator) -> RegionDc {
    let mut map: Vec<Option<DeviceId>> = vec![None; dc.topo.device_count()];
    let mut out = RegionDc {
        borders: vec![],
        spines: vec![],
        leaves: vec![],
        tors: vec![],
    };
    for (old_id, dev) in dc.topo.devices() {
        if dev.role == Role::External {
            continue;
        }
        let mut cloned = dev.clone();
        cloned.ifaces.clear();
        if cloned.role == Role::Border {
            cloned.asn = asn::dc_border(dc_idx);
        } else if dc_idx > 0 {
            // Private ASNs repeat across independently generated DCs;
            // within one region they must be disjoint or BGP loop
            // prevention blocks inter-DC routes. (Production networks
            // solve this with remove-private-as at the borders; a
            // region-unique plan is the equivalent for generated configs.)
            cloned.asn = Asn(cloned.asn.0 + dc_idx * 2_000);
        }
        // Region-unique loopbacks and management addresses: the per-DC
        // generators both start from the same pools.
        {
            let seq = topo.device_count() as u32;
            let had_loopback_route =
                cloned.originated.first().copied() == Some(Ipv4Prefix::host(cloned.loopback));
            cloned.loopback =
                Ipv4Addr::new(172, 26 + dc_idx as u8, (seq >> 8) as u8, (seq & 0xff) as u8);
            cloned.mgmt_addr = Ipv4Addr::new(
                192,
                170 + dc_idx as u8,
                (seq >> 8) as u8,
                (seq & 0xff) as u8,
            );
            if had_loopback_route {
                cloned.originated[0] = Ipv4Prefix::host(cloned.loopback);
            }
        }
        // Keep server subnets distinct across the two DCs by shifting the
        // second DC's 10.x space to 11.x.
        if dc_idx == 1 {
            for p in &mut cloned.originated {
                let o = p.network().octets();
                if o[0] == 10 {
                    *p = Ipv4Prefix::new(Ipv4Addr::new(11, o[1], o[2], o[3]), p.len());
                }
            }
        }
        let new_id = topo.add_device(cloned).expect("grafted names unique");
        map[old_id.index()] = Some(new_id);
        match dev.role {
            Role::Border => out.borders.push(new_id),
            Role::Spine => out.spines.push(new_id),
            Role::Leaf => out.leaves.push(new_id),
            Role::Tor => out.tors.push(new_id),
            _ => {}
        }
    }
    for (_, link) in dc.topo.links() {
        let (Some(a), Some(b)) = (map[link.a.device.index()], map[link.b.device.index()]) else {
            continue; // external-peer link, dropped
        };
        topo.connect_p2p(a, b, p2p).expect("fresh ifaces");
    }
    out
}

/// The generated region.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegionTopology {
    /// The flat topology.
    pub topo: Topology,
    /// Regional backbone routers.
    pub backbones: Vec<DeviceId>,
    /// Legacy WAN cores.
    pub wan_cores: Vec<DeviceId>,
    /// The two datacenters.
    pub dcs: Vec<RegionDc>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_region(connected: bool) -> RegionTopology {
        let mut p = RegionParams::case1();
        p.dc = ClosParams::s_dc();
        p.backbone_connected = connected;
        p.build()
    }

    #[test]
    fn pre_migration_has_no_backbone_uplinks() {
        let r = small_region(false);
        for dc in &r.dcs {
            for &b in &dc.borders {
                let up: Vec<Role> = r
                    .topo
                    .neighbor_devices(b)
                    .map(|n| r.topo.device(n).role)
                    .filter(|role| matches!(role, Role::Regional | Role::WanCore))
                    .collect();
                assert!(up.iter().all(|r| *r == Role::WanCore));
                assert_eq!(up.len(), r.wan_cores.len());
            }
        }
    }

    #[test]
    fn post_migration_borders_are_dual_homed() {
        let r = small_region(true);
        let border = r.dcs[0].borders[0];
        let mut regional = 0;
        let mut wan = 0;
        for n in r.topo.neighbor_devices(border) {
            match r.topo.device(n).role {
                Role::Regional => regional += 1,
                Role::WanCore => wan += 1,
                _ => {}
            }
        }
        assert_eq!(regional, r.backbones.len());
        assert_eq!(wan, r.wan_cores.len());
    }

    #[test]
    fn dc_borders_use_distinct_ases() {
        let r = small_region(false);
        let a0 = r.topo.device(r.dcs[0].borders[0]).asn;
        let a1 = r.topo.device(r.dcs[1].borders[0]).asn;
        assert_ne!(a0, a1);
        assert_eq!(a0, asn::dc_border(0));
        assert_eq!(a1, asn::dc_border(1));
    }

    #[test]
    fn second_dc_prefixes_are_shifted() {
        let r = small_region(false);
        let tor1 = r.dcs[1].tors[0];
        let subnets: Vec<Ipv4Prefix> = r
            .topo
            .device(tor1)
            .originated
            .iter()
            .filter(|p| p.len() == 24)
            .copied()
            .collect();
        assert!(!subnets.is_empty());
        assert!(subnets.iter().all(|p| p.network().octets()[0] == 11));
    }

    #[test]
    fn no_external_devices_survive_grafting() {
        let r = small_region(false);
        assert!(r.topo.devices().all(|(_, d)| d.role != Role::External));
    }
}
