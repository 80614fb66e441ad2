//! Control plane for the CrystalNet reproduction: BGP-4 and OSPFv2
//! engines, vendor behaviour profiles with injectable firmware bugs,
//! static speaker devices, and the harness that runs device firmwares to
//! convergence over a topology.
//!
//! The paper boots unmodified *vendor firmware images* inside containers
//! and VMs; this crate is the reproduction's synthetic-but-buggy
//! equivalent (see DESIGN.md for the substitution argument). Each device
//! is a [`DeviceOs`] — a black box reacting to link events, frames,
//! timers, and management commands — and the vendor-specific behaviours
//! that caused the paper's incidents (Figure 1 aggregation divergence,
//! FIB-overflow blackholes, ARP bugs, the Case-2 dev-build crashes) are
//! first-class, injectable properties of [`VendorProfile`].

pub mod attrs;
pub mod bgp;
pub mod harness;
pub mod health;
pub mod intern;
pub mod msg;
pub mod os;
pub mod ospf;
pub mod plane;
pub mod provenance;
pub mod speaker;
pub mod traffic;
pub mod vendor;

pub use attrs::{intern_stats, Origin, PathAttrs};
pub use bgp::{BgpRouterOs, SessionState, LOCAL_IFACE};
pub use harness::{ControlPlaneSim, ControlPlaneWorld, UniformWorkModel, WorkKind, WorkModel};
pub use health::{
    GrayFailureWitness, HealthState, Incident, IncidentKind, PairStats, ProbeConfig, ProbeOutcome,
};
pub use intern::Interned;
pub use msg::{BgpMsg, Frame, OspfMsg};
pub use os::{DeviceOs, MgmtCommand, MgmtResponse, OsActions, OsEvent, OsMem, TimerKind};
pub use ospf::{elect_dr_bdr, OspfRouterOs, RouterLsa};
pub use provenance::{
    DecisionReason, MutationKind, OriginKind, ProvHop, Provenance, RouteDetail, RouteMutation,
};
pub use speaker::{SpeakerOs, SpeakerScript};
pub use traffic::{EcmpResidue, FlowSpec, TrafficConfig, TrafficState};
pub use vendor::{AggregateMode, FibOverflow, Quirks, VendorProfile};
