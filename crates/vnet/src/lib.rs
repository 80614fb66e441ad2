//! Virtual network substrate for the CrystalNet reproduction: the
//! simulated public cloud, container sandboxes with the PhyNet layer,
//! veth/bridge/VXLAN virtual links, and the management overlay.
//!
//! This crate is the "physical mockup" half of the paper (§4): everything
//! below the device firmware. It deliberately knows nothing about routing
//! — device sandboxes are opaque payloads — so the same substrate carries
//! BGP routers, OSPF routers, speakers, or (in the paper) real hardware
//! behind a fanout switch.

pub mod cloud;
pub mod container;
pub mod links;
pub mod mgmt;

pub use cloud::{Cloud, CloudParams, Vm, VmId, VmSku, VmState};
pub use container::{Container, ContainerEngine, ContainerId, ContainerKind, ContainerState};
pub use links::{BridgeImpl, LinkSpan, VirtualLink, VniAllocator};
pub use mgmt::{ManagementOverlay, MgmtError, MgmtNode};
