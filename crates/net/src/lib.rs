//! Network model for the CrystalNet reproduction: addressing, devices,
//! links, topology graphs, and generators for the paper's evaluation
//! networks.
//!
//! This crate is the "production snapshot" side of CrystalNet: everything
//! the orchestrator's `Prepare` phase reads — topologies (Table 3's
//! L-DC/M-DC/S-DC Clos fabrics, the §7 Case-1 region), device identities
//! (role, vendor, ASN), originated prefixes, and the figure fixtures the
//! experiments replay.

pub mod addr;
pub mod clos;
pub mod cow;
pub mod fixtures;
pub mod partition;
pub mod region;
pub mod topology;
pub mod types;

pub use addr::{
    table_bytes, AddrParseError, IdMap, IdSet, Ipv4Addr, Ipv4Cidr, Ipv4Prefix, MacAddr,
    PrefixHasher, PrefixMap, SetTable,
};
pub use clos::{ClosParams, ClosTopology, LayerCounts, Pod};
pub use cow::{CowBytes, CowMap};
pub use partition::{
    best_spare, dirty_region, dirty_region_scoped, partition, partition_grouped,
    placement_affinity, Partition, RippleScope,
};
pub use region::{RegionParams, RegionTopology};
pub use topology::{Device, Interface, Link, P2pAllocator, Topology, TopologyError};
pub use types::{Asn, DeviceId, EmulationClass, Endpoint, LinkId, Role, Vendor};
