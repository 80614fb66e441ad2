//! The device-OS abstraction: what a firmware image looks like to the
//! emulator.
//!
//! CrystalNet treats vendor images as black boxes that react to their
//! environment: interfaces coming up, frames arriving, timers firing, and
//! management-plane commands over SSH/Telnet. [`DeviceOs`] is that
//! contract. The PhyNet layer (vnet) and orchestrator (core) drive
//! implementations — [`crate::bgp::BgpRouterOs`], [`crate::ospf::OspfRouterOs`],
//! [`crate::speaker::SpeakerOs`] — without knowing which firmware they are,
//! exactly as the paper's unified PhyNet container layer does (§4.1).

use crate::msg::Frame;
use crate::provenance::{RouteDetail, RouteMutation};
use crystalnet_config::{Acl, DeviceConfig};
use crystalnet_dataplane::Fib;
use crystalnet_net::{Ipv4Addr, Ipv4Prefix};
use crystalnet_sim::{EventId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Timers a device OS can arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimerKind {
    /// BGP minimum route advertisement interval expired: flush pending
    /// updates.
    Mrai,
    /// Periodic ARP refresh tick.
    ArpRefresh,
    /// OSPF hello tick.
    OspfHello,
}

/// An event delivered to a device OS.
#[derive(Debug, Clone)]
pub enum OsEvent {
    /// The firmware finished booting with interfaces already present
    /// (PhyNet containers hold them; §4.1).
    Boot,
    /// A physical interface came up.
    LinkUp(u32),
    /// A physical interface went down (fiber cut, peer reload,
    /// `Disconnect`).
    LinkDown(u32),
    /// A frame arrived on an interface.
    Frame {
        /// Ingress interface index.
        iface: u32,
        /// The frame.
        frame: Frame,
    },
    /// An armed timer fired.
    Timer(TimerKind),
    /// A management-plane command arrived (SSH/Telnet via the jumpbox).
    Mgmt(MgmtCommand),
}

/// Management-plane commands — the surface operators' tools script
/// against (§4.2's "IP Access" row of Table 2).
#[derive(Debug, Clone, PartialEq)]
pub enum MgmtCommand {
    /// `show bgp summary`.
    ShowBgpSummary,
    /// `show ip route` (Loc-RIB view).
    ShowRoutes,
    /// Administratively shut one BGP session.
    NeighborShutdown(Ipv4Addr),
    /// Re-enable one BGP session.
    NeighborEnable(Ipv4Addr),
    /// Add a `network` statement (origination).
    AddNetwork(Ipv4Prefix),
    /// Remove a `network` statement.
    RemoveNetwork(Ipv4Prefix),
    /// Apply an ACL to an interface (inbound).
    ApplyAclIn {
        /// Interface name (`et0`).
        iface: String,
        /// ACL name to bind.
        acl_name: String,
        /// The ACL body (pushed along, as config tools do).
        acl: Acl,
    },
    /// Replace the running configuration (the heavy path `Reload` uses).
    ReplaceConfig(Box<DeviceConfig>),
    /// Soft-apply a policy-level configuration change: sessions and
    /// Adj-RIB-In survive; the device re-runs import/export policy under
    /// the new configuration and asks established peers to replay their
    /// announcements (route refresh). Only valid for diffs classified
    /// `SoftRefresh` — session-affecting changes must use
    /// [`MgmtCommand::ReplaceConfig`].
    UpdatePolicy(Box<DeviceConfig>),
    /// Power the device down — the §2 automation-tool bug shut down *a
    /// router* when it meant to shut down *a BGP session*.
    DeviceShutdown,
}

/// Responses to management commands.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MgmtResponse {
    /// Command applied.
    Ok,
    /// Summary of BGP sessions: (peer address, established, prefixes
    /// received).
    BgpSummary(Vec<(Ipv4Addr, bool, usize)>),
    /// Loc-RIB dump: (prefix, AS-path length, ECMP width).
    Routes(Vec<(Ipv4Prefix, usize, usize)>),
    /// Command failed.
    Error(String),
}

/// What a device OS wants done after handling an event.
#[derive(Debug, Default)]
pub struct OsActions {
    /// Frames to transmit: (egress interface, frame).
    pub out: Vec<(u32, Frame)>,
    /// Timers to arm: (delay, kind).
    pub timers: Vec<(SimDuration, TimerKind)>,
    /// Response to a management command.
    pub response: Option<MgmtResponse>,
    /// Route operations performed (drives the CPU model).
    pub route_ops: usize,
    /// The OS crashed while handling the event (e.g. the Case-2
    /// flap-crash bug). The sandbox reports it to the health monitor.
    pub crashed: bool,
}

impl OsActions {
    /// Convenience: actions carrying only a management response.
    #[must_use]
    pub fn respond(response: MgmtResponse) -> Self {
        OsActions {
            response: Some(response),
            ..OsActions::default()
        }
    }
}

/// A bootable firmware image instance.
///
/// `Send` so the parallel executor can move a device's OS (with its shard)
/// onto a worker thread, `Sync` so an emulation and its forks can share
/// one instance behind an `Arc` until either side writes to it;
/// implementations hold only owned state and `Arc`-shared immutable
/// data, no interior mutability.
pub trait DeviceOs: Send + Sync {
    /// Handles one event, returning the side effects.
    fn handle(&mut self, now: SimTime, event: OsEvent) -> OsActions;

    /// The forwarding table as the data plane sees it (the ASIC view,
    /// where the OS distinguishes kernel from ASIC).
    fn fib(&self) -> &Fib;

    /// Number of Loc-RIB prefixes.
    fn rib_size(&self) -> usize;

    /// Whether the OS is crashed / powered off.
    fn is_down(&self) -> bool;

    /// The device hostname.
    fn hostname(&self) -> &str;

    /// Addresses this device answers for (loopback + interface
    /// addresses). Default: none.
    fn local_addrs(&self) -> &[Ipv4Addr] {
        &[]
    }

    /// Evaluates the device's inbound packet filter for a packet arriving
    /// on `ingress` (as *this firmware* interprets its ACLs — including
    /// the §2 v1/v2 misread quirk). `None` means locally injected.
    /// Default: permit.
    fn filter_permits(&self, ingress: Option<u32>, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        let _ = (ingress, src, dst);
        true
    }

    /// Snapshot of the routes received from the peer on `iface` (the
    /// Adj-RIB-In). `Prepare` records these as the "routes from boundary"
    /// that speaker scripts replay (§3.2, §5.1). Default: none.
    fn adj_rib_in(&self, iface: u32) -> Vec<(Ipv4Prefix, std::sync::Arc<crate::attrs::PathAttrs>)> {
        let _ = iface;
        Vec::new()
    }

    /// Tells the OS the stable id of the event about to be handled, so
    /// provenance hops and mutations it produces can point at it. Kept
    /// separate from [`DeviceOs::handle`] so firmwares that don't track
    /// causality (and the many direct-`handle` tests) need no changes.
    /// Default: ignored.
    fn begin_event(&mut self, id: EventId) {
        let _ = id;
    }

    /// Enables/disables mutation journaling ([`DeviceOs::take_route_mutations`]).
    /// The harness switches this on only when a trace sink is attached, so
    /// untraced runs never pay for the journal. Default: ignored.
    fn set_tracing(&mut self, on: bool) {
        let _ = on;
    }

    /// Drains the RIB/FIB mutations performed since the last call. Only
    /// populated while tracing is on. Default: empty.
    fn take_route_mutations(&mut self) -> Vec<RouteMutation> {
        Vec::new()
    }

    /// Full detail — attributes, provenance, decision reason — for one
    /// installed prefix. Default: unknown.
    fn route_detail(&self, prefix: Ipv4Prefix) -> Option<RouteDetail> {
        let _ = prefix;
        None
    }

    /// [`DeviceOs::route_detail`] for every installed prefix, sorted by
    /// prefix. Default: empty.
    fn routes_with_detail(&self) -> Vec<(Ipv4Prefix, RouteDetail)> {
        Vec::new()
    }

    /// Deep-copies this OS instance, boxed — how the harness unshares
    /// an OS an emulation and its forks still hold together, right
    /// before the first write to it. RIB/FIB attribute and provenance
    /// entries are interned `Arc`s, so the copy shares unchanged route
    /// state structurally (two refcount bumps per entry) instead of
    /// duplicating it; everything mutable (session state, timers, FIB
    /// indexes) is owned by the copy.
    fn clone_boxed(&self) -> Box<dyn DeviceOs>;
}

impl std::fmt::Debug for dyn DeviceOs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceOs")
            .field("hostname", &self.hostname())
            .field("fib_prefixes", &self.fib().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actions_default_is_inert() {
        let a = OsActions::default();
        assert!(a.out.is_empty() && a.timers.is_empty());
        assert!(a.response.is_none());
        assert!(!a.crashed);
        assert_eq!(a.route_ops, 0);
    }

    #[test]
    fn respond_helper() {
        let a = OsActions::respond(MgmtResponse::Ok);
        assert_eq!(a.response, Some(MgmtResponse::Ok));
    }
}
